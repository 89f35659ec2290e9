"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.platform.config import PlatformConfig
from repro.sim.engine import EventLoop


#: The ``loop`` variants.  The ids are the ones the suite used when it
#: ran on two event engines, kept so every test id stays stable:
#: ``heap`` is the EventLoop as shipped; ``wheel`` is the same loop made
#: to compact its heap on every cancel, so the whole suite also checks
#: that in-place compaction, whenever it runs, changes nothing.
LOOP_VARIANTS = ("heap", "wheel")


@pytest.fixture(params=LOOP_VARIANTS)
def loop(request) -> EventLoop:
    """A fresh EventLoop, once per ``LOOP_VARIANTS`` entry."""
    loop = EventLoop()
    if request.param == "wheel":
        loop._maybe_compact = loop._compact
    return loop


@pytest.fixture
def config() -> PlatformConfig:
    """A small, fast configuration for unit tests.

    Framework overhead is disabled so tests can reason about exact cycle
    arithmetic; rings are small so watermark behaviour is cheap to reach.
    """
    return PlatformConfig(
        ring_capacity=256,
        nf_overhead_cycles=0.0,
        rx_thread_max_pps=None,
    )


@pytest.fixture
def default_config() -> PlatformConfig:
    """Same as ``config`` but with every NFVnice feature off."""
    return PlatformConfig(
        ring_capacity=256,
        nf_overhead_cycles=0.0,
        rx_thread_max_pps=None,
        enable_backpressure=False,
        enable_cgroups=False,
        enable_relinquish=False,
        enable_ecn=False,
    )


def make_flow(flow_id="f0", chain=None, pkt_size=64, protocol="udp"):
    from repro.platform.packet import Flow

    flow = Flow(flow_id, pkt_size=pkt_size, protocol=protocol)
    flow.chain = chain
    return flow
