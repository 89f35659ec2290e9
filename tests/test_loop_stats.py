"""loop_stats surface + the digest-invisible contract.

These tests pin the hygiene counter surface, assert the counters never
leak into a digest, and check that sanitized runs digest identically to
plain ones under both ``loop`` variants (see ``tests/conftest.py``): the
shipped loop and the one that compacts its heap on every cancel.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import result_to_dict
from repro.check.sanitizer import (
    Sanitizer, activate_sanitizer, deactivate_sanitizer,
)
from repro.experiments.common import Scenario
from repro.runner.digest import digest_of
from repro.sim.engine import EventLoop

from tests.conftest import LOOP_VARIANTS

#: The loop must report exactly this counter surface.
STATS_KEYS = {"pushes", "pops", "lazy_cancel_skips", "compactions",
              "peak_pending"}


_COMPACTION_POLICY = {"heap": EventLoop._maybe_compact,
                      "wheel": EventLoop._compact}


def use_variant(engine, monkeypatch):
    """Make every EventLoop built from now on the ``engine`` variant."""
    monkeypatch.setattr(EventLoop, "_maybe_compact",
                        _COMPACTION_POLICY[engine])


def small_run(duration_s=0.02, scheduler="NORMAL"):
    # Three NFs on one core at 2 Mpps: the scheduler re-plans often, so
    # the run cancels events and the two variants' counters differ.
    scenario = Scenario(scheduler=scheduler, features="NFVnice", seed=3)
    scenario.add_nf("nf0", 120, core=0)
    scenario.add_nf("nf1", 270, core=0)
    scenario.add_nf("nf2", 550, core=0)
    scenario.add_chain("chain0", ["nf0", "nf1", "nf2"])
    scenario.add_flow("flow0", "chain0", rate_pps=2_000_000.0)
    return scenario.run(duration_s)


def sanitized_run(scheduler):
    activate_sanitizer(Sanitizer(per_tick=True))
    try:
        result = small_run(scheduler=scheduler)
    finally:
        deactivate_sanitizer()
    assert result.sanitizer_violations == []
    return result


@pytest.mark.parametrize("engine", LOOP_VARIANTS)
def test_loop_stats_surface_is_engine_tagged(engine, monkeypatch):
    """One counter surface, and the counters tell the variants apart:
    the shipped loop skips cancelled entries lazily (its heap stays
    under the compaction floor), the other compacts them away."""
    use_variant(engine, monkeypatch)
    stats = small_run().loop_stats
    assert set(stats) == STATS_KEYS
    assert stats["pops"] > 0
    assert stats["pushes"] >= stats["pops"] - stats["lazy_cancel_skips"]
    assert stats["peak_pending"] > 0
    if engine == "heap":
        assert stats["lazy_cancel_skips"] > 0
        assert stats["compactions"] == 0
    else:
        assert stats["compactions"] > 0
        assert stats["lazy_cancel_skips"] == 0


def test_loop_stats_never_enter_the_digest(monkeypatch):
    """Same behaviour, different hygiene counters => same digest: the
    exported dict must not contain loop_stats at all."""
    stats, digests = {}, {}
    for engine in LOOP_VARIANTS:
        use_variant(engine, monkeypatch)
        result = small_run()
        d = result_to_dict(result)
        assert "loop_stats" not in json.dumps(d)
        stats[engine] = result.loop_stats
        digests[engine] = digest_of(d)
    # The counters differ between the variants but the digest is
    # identical — the counters are provably invisible.
    assert stats["heap"] != stats["wheel"]
    assert digests["heap"] == digests["wheel"]


@pytest.mark.parametrize("engine", LOOP_VARIANTS)
def test_sanitized_run_digests_identically_per_engine(engine, monkeypatch):
    """--sanitize must not perturb results under either variant: the
    sanitizer's integer time-partition probes ride the same event
    stream, so a clean sanitized run is bit-identical to a plain one."""
    use_variant(engine, monkeypatch)
    plain = small_run()
    sanitized = sanitized_run("NORMAL")
    assert digest_of(result_to_dict(plain)) \
        == digest_of(result_to_dict(sanitized))


def test_sanitized_digest_identical_across_engines(monkeypatch):
    """The cross product: sanitized under each variant == plain."""
    digests = {digest_of(result_to_dict(small_run(scheduler="DEADLINE")))}
    for engine in LOOP_VARIANTS:
        use_variant(engine, monkeypatch)
        digests.add(digest_of(result_to_dict(sanitized_run("DEADLINE"))))
    assert len(digests) == 1
