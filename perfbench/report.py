"""Per-layer metrics from a traced run (see ``BENCHMARK.json`` per_layer).

Span counts and times come from the :class:`ledger.Ledger`; work counts
that the simulator already keeps (events, packets, drops, control actions)
are read from the scenarios of the first traced repetition.  Every value
is per repetition of the workload.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterator, List, Tuple

from ledger import LAYERS, Ledger

Metrics = Dict[str, Tuple[float, str, int]]


def _managers(scenario: Any) -> Iterator[Any]:
    topology = getattr(scenario, "topology", None)
    if topology is None:
        yield scenario.manager
    else:
        for host in topology.hosts:
            yield host.manager


def work_counts(runs: List[Any]) -> Dict[str, float]:
    """Counters the simulator keeps, summed over one repetition's cases."""
    c: Dict[str, float] = dict.fromkeys(
        ("pops", "pushes", "cancel_skips", "peak_pending", "switches",
         "coalesce_hits", "coalesce_misses", "drops", "processed", "wasted",
         "offered", "actions"), 0)
    for run in runs:
        stats = run.result.loop_stats
        c["pops"] += stats["pops"]
        c["pushes"] += stats["pushes"]
        c["cancel_skips"] += stats["lazy_cancel_skips"]
        c["peak_pending"] = max(c["peak_pending"], stats["peak_pending"])
        scenario = run.scenario
        c["offered"] += scenario.generator.offered_total
        autoscaler = getattr(scenario, "autoscaler", None)
        if autoscaler is not None:
            c["actions"] += autoscaler.scale_outs
        for mgr in _managers(scenario):
            rings = [mgr.nic.rx_ring]
            for nf in mgr.nfs:
                rings += [nf.rx_ring, nf.tx_ring]
                c["switches"] += (nf.stats.voluntary_switches
                                  + nf.stats.involuntary_switches)
                c["processed"] += nf.processed_packets
                c["wasted"] += nf.wasted_processed
            for ring in rings:
                c["coalesce_hits"] += ring.coalesce_hits
                c["coalesce_misses"] += ring.coalesce_misses
                c["drops"] += ring.dropped_total
            if mgr.backpressure is not None:
                c["actions"] += mgr.backpressure.throttle_events
            if mgr.slo_governor is not None:
                c["actions"] += sum(1 for e in mgr.slo_governor.events
                                    if e["kind"] in ("boost", "migrate"))
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, plain: List[Tuple[float, List[Any]]],
                  traced: List[Tuple[float, List[Any]]], own_ns: float,
                  parent_ns: float) -> Tuple[Metrics, float]:
    """``(metrics, closure)``: the per-layer metrics, and the relative gap
    between the traced wall and the summed layer self times plus the cost
    of the spans (``own_ns`` and ``parent_ns`` per span, as calibrated)."""
    n = len(traced)
    calls = {k: v / n for k, v in ledger.calls.items()}
    total_s = {k: v / n / 1e9 for k, v in ledger.total_ns.items()}
    useful = ledger.useful

    def called(*names: str) -> float:
        return sum(calls.get(name, 0.0) for name in names)

    traced_wall_ns = sum(wall for wall, _ in traced) * 1e9
    self_ns = ledger.self_times(own_ns, parent_ns)
    all_self = sum(self_ns.values())
    closure = ((all_self + ledger.overhead_ns(own_ns, parent_ns)
                - traced_wall_ns) / traced_wall_ns)

    m: Metrics = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_ns[layer] / n / 1e9, "s", n)
        m[f"{layer}.share"] = (_ratio(self_ns[layer], all_self), "ratio", n)

    w = work_counts(traced[0][1])
    m["sim.events"] = (w["pops"], "count", 1)
    m["sim.pushes"] = (w["pushes"], "count", 1)
    m["sim.cancel_ratio"] = (_ratio(w["cancel_skips"], w["pushes"]),
                             "ratio", 1)
    m["sim.peak_pending"] = (w["peak_pending"], "count", 1)
    m["sim.ns_per_event"] = (_ratio(self_ns["sim"] / n, w["pops"]), "ns", n)

    m["sched.calls"] = (called(
        "Core.wake", "Core.block_ready", "Core.deschedule",
        "Core.interrupt_current", "Scheduler.enqueue", "Scheduler.dequeue",
        "Scheduler.pick_next", "Scheduler.charge"), "count", 1)
    m["sched.ctx_switches"] = (w["switches"], "count", 1)
    m["sched.rbtree_ops"] = (sum(
        ledger.counts.get(f"RBTree.{op}", 0) for op in
        ("insert", "remove", "pop_min")) / n, "count", 1)

    m["platform.ring_enqueues"] = (called("PacketRing.enqueue"), "count", 1)
    m["platform.coalesce_ratio"] = (_ratio(
        w["coalesce_hits"], w["coalesce_hits"] + w["coalesce_misses"]),
        "ratio", 1)
    for thread, key in (("RxThread", "rx"), ("TxThread", "tx")):
        name = f"{thread}.poll"
        m[f"platform.{key}_useful_poll_ratio"] = (_ratio(
            useful.get(name, 0), ledger.calls.get(name, 0)), "ratio", 1)
    m["platform.drops"] = (w["drops"], "count", 1)

    executes = called("NFProcess.execute")
    m["nf.executes"] = (executes, "count", 1)
    m["nf.pkts_per_execute"] = (_ratio(w["processed"], executes), "ratio", 1)
    m["nf.wasted_ratio"] = (_ratio(w["wasted"], w["processed"]), "ratio", 1)

    ticks = called("TrafficGenerator.tick")
    m["traffic.ticks"] = (ticks, "count", 1)
    m["traffic.pkts_per_tick"] = (_ratio(w["offered"], ticks), "ratio", 1)

    m["control.ticks"] = (called(
        "MonitorThread.tick", "SLOGovernor.evaluate",
        "BackpressureController.evaluate", "Autoscaler._tick"), "count", 1)
    m["control.actions"] = (w["actions"], "count", 1)

    m["cluster.fabric_sends"] = (called("FabricLink.send"), "count", 1)
    m["cluster.steer_lookups"] = (called("FlowSteerer.placement_of"),
                                  "count", 1)

    m["obs.records"] = (called(
        "CycleHistogram.add", "FlowLatencyTracker.record_delivery",
        "FlowLatencyTracker.record_hop"), "count", 1)

    m["experiments.build_s"] = (total_s.get("build", 0.0), "s", n)
    m["experiments.summarise_s"] = (
        total_s.get("Scenario._summarise", 0.0)
        + total_s.get("ClusterScenario._summarise", 0.0), "s", n)
    m["runner.export_s"] = (total_s.get("result_to_dict", 0.0), "s", n)
    m["runner.digest_s"] = (total_s.get("digest_of", 0.0), "s", n)

    m["trace.overhead"] = (
        statistics.median(wall for wall, _ in traced)
        / statistics.median(wall for wall, _ in plain), "ratio", n)
    return m, closure
