"""N-host cluster topology: many NF managers, one event loop, one fabric.

The paper schedules NF chains on a single OpenNetVM host; the cluster
layer grows that into a datacenter row (*DCSim*'s host/cluster split):

* each :class:`ClusterHost` wraps a full, unmodified
  :class:`~repro.platform.manager.NFManager` — NIC, Rx/Tx threads,
  wakeup, backpressure, cgroups, Monitor — on the **shared**
  :class:`~repro.sim.engine.EventLoop`, so cross-host causality needs no
  synchronization protocol;
* hosts hang off a :class:`~repro.cluster.fabric.FabricLink` graph.  The
  stock shape is a star — one ingress link per host, modelling the
  ToR-to-host wire — and :meth:`ClusterTopology.connect` adds arbitrary
  host-to-host edges (a chain spanning machines, paper §3.3) on top;
* the :class:`IngressPoint` duck-types the NIC surface the
  :class:`~repro.traffic.generator.TrafficGenerator` drives
  (``receive(flow, count, now_ns)``) and forwards each batch over the
  bound placement's ingress link, so cluster scenarios reuse every
  arrival model unchanged.

Flows bind to a placement at their **first packet** (see
:mod:`repro.cluster.steering`): the ``flow.chain`` backref that rings,
Tx routing and libnf consult is single-valued, so a bound flow can never
be re-steered mid-run — late binding is what lets a flash crowd land on
replicas that did not exist when the run started.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.cluster.fabric import FabricLink
from repro.platform.config import PlatformConfig
from repro.platform.manager import NFManager
from repro.platform.nic import NIC
from repro.platform.packet import Flow
from repro.sim.clock import USEC
from repro.sim.engine import EventLoop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.steering import FlowSteerer
    from repro.platform.multihost import HostLink

#: The ToR-to-host ingress wire of every host: propagation delay and rate.
INGRESS_LATENCY_NS = 10 * USEC
INGRESS_BPS = 10e9


class ClusterHost:
    """One machine of the cluster: an index, a name, and its manager."""

    def __init__(self, index: int, manager: NFManager) -> None:
        self.index = index
        self.name = f"h{index}"
        self.manager = manager

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterHost({self.name}, nfs={len(self.manager.nfs)})"


class ClusterTopology:
    """N hosts on one event loop, wired by a fabric link graph."""

    def __init__(
        self,
        loop: EventLoop,
        n_hosts: int,
        scheduler: str = "NORMAL",
        config: Optional[PlatformConfig] = None,
    ) -> None:
        if n_hosts < 1:
            raise ValueError(f"a cluster needs >= 1 host, got {n_hosts}")
        self.loop = loop
        self.config = config if config is not None else PlatformConfig()
        self.hosts: List[ClusterHost] = []
        #: Every fabric link of the topology (ingress star + host-host
        #: edges), in creation order — the sanitizer folds their
        #: ``in_flight`` into packet conservation.
        self.links: List[FabricLink] = []
        #: host name -> its ToR-to-host ingress link.
        self.ingress_links: Dict[str, FabricLink] = {}
        for i in range(n_hosts):
            manager = NFManager(
                loop, scheduler=scheduler, config=self.config,
                nic=NIC(name=f"h{i}.nic"),
            )
            host = ClusterHost(i, manager)
            self.hosts.append(host)
            link = FabricLink(
                loop,
                name=f"ingress->{host.name}",
                deliver=self._deliver_to(host),
                latency_ns=INGRESS_LATENCY_NS,
                link_bps=INGRESS_BPS,
            )
            self.ingress_links[host.name] = link
            self.links.append(link)
        self._started = False

    def _deliver_to(self, host: ClusterHost
                    ) -> Callable[[Flow, int, int], None]:
        def deliver(flow: Flow, count: int, origin_ns: int) -> None:
            host.manager.nic.rx_ring.enqueue(
                flow, count, self.loop.now, origin_ns=origin_ns)
        return deliver

    # ------------------------------------------------------------------
    def host(self, index: int) -> ClusterHost:
        return self.hosts[index]

    def connect(self, upstream: int, downstream: int,
                latency_ns: int = 10 * USEC,
                link_bps: float = 10e9) -> "HostLink":
        """Add a host-to-host edge (a chain segment spanning machines)."""
        # Deferred: repro.platform.multihost builds on repro.cluster.fabric,
        # so a module-level import here would be circular.
        from repro.platform.multihost import HostLink

        link = HostLink(
            self.loop,
            self.hosts[upstream].manager,
            self.hosts[downstream].manager,
            latency_ns=latency_ns,
            link_bps=link_bps,
        )
        self.links.append(link)
        return link

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every host's manager threads; idempotent."""
        if self._started:
            return
        self._started = True
        for host in self.hosts:
            host.manager.start()

    def finalize(self) -> None:
        """Close per-core idle accounting on every host."""
        for host in self.hosts:
            host.manager.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterTopology(hosts={len(self.hosts)}, "
                f"links={len(self.links)})")


class IngressPoint:
    """The cluster's front door: a duck-typed NIC the generator feeds.

    Exposes exactly the surface :class:`~repro.traffic.generator.
    TrafficGenerator` uses (``receive``) plus the counters observability
    reads.  Each batch is steered to the flow's bound placement — binding
    happens on the first packet — and forwarded over that host's ingress
    link with ``origin_ns = now``, so end-to-end sojourn includes the
    fabric.
    """

    def __init__(self, topology: ClusterTopology,
                 steerer: "FlowSteerer") -> None:
        self.topology = topology
        self.steerer = steerer
        self.received_packets = 0
        self.received_bytes = 0

    def receive(self, flow: Flow, count: int, now_ns: int) -> int:
        """Admit ``count`` packets of ``flow`` into the cluster."""
        placement = self.steerer.placement_of(flow, now_ns)
        self.received_packets += count
        self.received_bytes += count * flow.pkt_size
        return placement.link.send(flow, count, now_ns)
