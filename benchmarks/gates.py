"""Every baseline gate in one table, checked by one runner.

Each gate runs a pinned, deterministic slice of the simulator and turns
what it saw into named checks of five kinds:

* ``exact`` — a value equals the committed baseline's: a result digest,
  or the per-case simulated duration the baseline was recorded at;
* ``invariant`` — two observed digests are equal: results must not
  depend on the worker count or on whether telemetry is attached;
* ``metric`` — a p99 cell (µs) may not grow past its baseline by more
  than a relative tolerance *and* an absolute floor
  (:func:`repro.runner.baseline.regressed`, as ``repro obs diff``);
* ``wall`` — the least of the timed samples may not exceed the baseline
  × the calibration scale × (1 + tolerance);
* ``predicate`` — a structural claim the battery exists to show, such
  as EDF beating NORMAL on gold-class p99.

A check observed with no baseline fails (``no baseline — run --write``),
and so does a baseline entry the run no longer produces.  Every gate
runs even after another fails.  The runner prints each failure, writes
one JSON report listing every check with its baseline, observed value,
bound and verdict (plus the raw samples behind each wall verdict), and
exits 1 on any failure::

    PYTHONPATH=src python benchmarks/gates.py                  # every gate
    PYTHONPATH=src python benchmarks/gates.py --only slo       # one gate
    PYTHONPATH=src python benchmarks/gates.py --only perf --write

``--write`` re-records the gate's committed ``BENCH_*.json`` from this
run, keeping keys the gate does not own (such as BENCH_perf.json's
``reference`` block).  It writes only when every check passes against
the new baseline, so a lost crossover is never recorded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.export import result_from_dict, result_to_dict  # noqa: E402
from repro.experiments.cluster_scaling import (                     # noqa: E402
    _tag, cluster_block, gold_p99_us,
)
from repro.experiments.slo_battery import WORKLOADS, _flow_id       # noqa: E402
from repro.obs.latency import percentile_row                        # noqa: E402
from repro.runner.baseline import (                                 # noqa: E402
    SCHEMA_VERSION, calibrate, check_campaign, load_baseline,
    regressed, relative_growth, write_baseline,
)
from repro.runner.campaign import (                                 # noqa: E402
    experiment_registry, run_campaign,
)
from repro.runner.digest import digest_of                           # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PERF_SCHEMA_VERSION = 3
TASK_TIMEOUT_S = 300.0
NO_BASELINE = "no baseline — run --write"

#: What a gate saw: ``digests``, ``invariants``, ``metrics`` and
#: ``walls`` feed the checks of the same kind; ``calibration``,
#: ``facts`` and ``failures`` feed the wall scale, predicates and the
#: run check; ``record`` is what ``--write`` stores beside them.
Observation = Dict[str, Any]
Predicate = Callable[[Observation], Tuple[bool, Any]]


def _no_view(gate: "Gate", data: dict) -> dict:
    return {}


@dataclass(frozen=True)
class Gate:
    """One row of the gate table."""

    name: str
    measure: Callable[["Gate"], Observation]
    experiments: Tuple[str, ...]
    duration: float                      # simulated seconds per case
    baseline: Optional[str] = None       # committed file under benchmarks/
    #: Baseline file -> ``{durations, digests, metrics, walls,
    #: calibration}``, and the inverse for ``--write``.
    view: Callable[["Gate", dict], dict] = _no_view
    dump: Optional[Callable[["Gate", Observation, dict], dict]] = None
    indent: int = 2
    metric_key: Optional[str] = None     # baseline key of the p99 cells
    metric_bound: Tuple[float, float] = (0.10, 1.0)  # rel tol, abs µs
    wall_tol: Dict[str, float] = field(default_factory=dict)
    passes: int = 1                      # timed passes / rounds
    predicates: Dict[str, Tuple[str, Predicate]] = field(
        default_factory=dict)


# ---------------------------------------------------------------------------
# Measuring: run the simulator, return an Observation
# ---------------------------------------------------------------------------
def _measure_campaign(gate: Gate) -> Observation:
    """Serial and 2-worker campaigns, then a baseline write→check."""
    ids = list(gate.experiments)
    serial, parallel = (
        run_campaign(ids, workers=w, duration_s=gate.duration,
                     task_timeout_s=TASK_TIMEOUT_S) for w in (1, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_baseline(os.path.join(tmp, "BENCH_campaign.json"),
                              parallel)
        problems = check_campaign(load_baseline(path), serial,
                                  max_regression=gate.wall_tol["roundtrip"])
    return {
        "invariants": {
            f"{e}.workers": [serial.experiments[e].digest,
                             parallel.experiments[e].digest]
            for e in ids},
        "facts": {"roundtrip": problems},
        "failures": [f for run in (serial, parallel)
                     for r in run.experiments.values() for f in r.failures],
    }


def _battery(gate: Gate):
    """One experiment's campaign on 2 workers: the observation every
    battery shares, and the campaign report for its cells."""
    (exp_id,) = gate.experiments
    report = run_campaign([exp_id], workers=2, duration_s=gate.duration,
                          task_timeout_s=TASK_TIMEOUT_S).experiments[exp_id]
    obs = {
        "digests": {exp_id: report.digest},
        "record": {exp_id: {"sim_seconds": report.sim_seconds,
                            "tasks": len(report.tasks)}},
        "failures": report.failures,
    }
    return obs, report


def _measure_chaos(gate: Gate) -> Observation:
    return _battery(gate)[0]


def _measure_slo(gate: Gate) -> Observation:
    obs, report = _battery(gate)
    flows = (report.telemetry.get("flow_latency") or {}).get("flows", {})
    obs["metrics"] = {flow_id: round(percentile_row(hist)["p99_us"], 3)
                      for flow_id, hist in flows.items()}
    return obs


def _measure_cluster(gate: Gate) -> Observation:
    obs, report = _battery(gate)
    metrics, facts = {}, {}
    for outcome in report.tasks:
        if not outcome.ok:
            continue
        result = result_from_dict(outcome.payload["value"])
        extra = outcome.payload.get("telemetry") or {}
        result.flow_latency = extra.get("flow_latency", {})
        tag = _tag(*outcome.spec.key)
        p99 = gold_p99_us(result)
        if p99 is not None:
            metrics[tag] = round(p99, 3)
        scaler = cluster_block(result).get("autoscaler", {})
        facts[f"{tag}.scale_outs"] = scaler.get("scale_outs", 0)
    obs["metrics"], obs["facts"] = metrics, facts
    return obs


def _measure_perf(gate: Gate) -> Observation:
    """Each grid serially, ``passes`` times; the least wall is the
    estimate (the runs are deterministic, so min is the least-noise
    one).  Only case execution is timed, not digesting."""
    registry = experiment_registry()
    obs: Observation = {"calibration": round(calibrate()), "digests": {},
                        "walls": {}, "record": {}}
    print(f"[gates] perf calibration: {obs['calibration']:,} events/s")
    for grid in gate.experiments:
        mod = importlib.import_module(registry[grid])
        cases = mod.campaign_cases(duration_s=gate.duration)
        fns = [(case, getattr(mod, case.fn)) for case in cases]
        walls = []
        for _ in range(gate.passes):
            gc.collect()
            t0 = time.perf_counter()
            results = [fn(**case.kwargs) for case, fn in fns]
            walls.append(time.perf_counter() - t0)
        stats = [getattr(res, "loop_stats", None) or {} for res in results]
        obs["digests"][grid] = digest_of({
            case.label: digest_of(result_to_dict(res))
            for (case, _), res in zip(fns, results)})
        obs["walls"][grid] = walls
        obs["record"][grid] = {
            "cases": len(cases),
            "duration_s": gate.duration,
            "events": sum(s.get("pops", 0) for s in stats),
            "peak_pending": max(s.get("peak_pending", 0) for s in stats),
        }
        print(f"[gates] perf {grid}: {len(cases)} cases, passes "
              + ", ".join(f"{w:.2f}s" for w in walls))
    return obs


def _overhead_run(variant: str, duration_s: float):
    """One seeded Figure-7-style chain run: CPU seconds and result."""
    from repro.experiments.common import Scenario, build_linear_chain
    from repro.obs.bus import EventBus

    scenario = Scenario(scheduler="BATCH", features="NFVnice", seed=0,
                        telemetry=(variant == "telemetry"))
    build_linear_chain(scenario, (120, 270, 550), core=0)
    scenario.add_flow("f", "chain", line_rate_fraction=1.0)
    if variant == "bus":
        # Attached but inert (no recording, no subscribers): publish
        # sites must skip it for one extra attribute read.
        scenario.manager.attach_observability(
            bus=EventBus(scenario.loop, record=False))
    t0 = time.process_time()
    result = scenario.run(duration_s)
    return time.process_time() - t0, result


def _measure_overhead(gate: Gate) -> Observation:
    """Per-round CPU-time ratios of an inert bus and of full SLO
    telemetry over no observability.

    ``process_time`` excludes other processes' run time, and each round
    runs the variants back to back; the least ratio over the rounds is
    the estimate.  Cache and frequency interference still reach
    ``process_time``: when it lands on the ``off`` run a round's ratio
    drops below 1, so the least ratio can under-read the overhead (the
    report keeps every round's ratio).
    """
    variants = ("off", "bus", "telemetry")
    for variant in variants:                # warm-up: imports, pools
        _overhead_run(variant, gate.duration)
    ratios: Dict[str, List[float]] = {"bus": [], "telemetry": []}
    for _ in range(gate.passes):
        cpu, digests = {}, {}
        for variant in variants:
            cpu[variant], result = _overhead_run(variant, gate.duration)
            digests[variant] = digest_of(result_to_dict(result))
        for variant, samples in ratios.items():
            samples.append(cpu[variant] / cpu["off"])
    return {"walls": ratios,
            "invariants": {"telemetry_digest": [digests["off"],
                                                digests["telemetry"]]}}


# ---------------------------------------------------------------------------
# Baseline files: view for checking, dump for --write
# ---------------------------------------------------------------------------
def _battery_view(gate: Gate, data: dict) -> dict:
    """A :mod:`repro.runner.baseline` file (chaos, slo, cluster)."""
    if data and data.get("version") != SCHEMA_VERSION:
        raise ValueError(f"{gate.baseline}: baseline version "
                         f"{data.get('version')!r} is not {SCHEMA_VERSION}")
    entries = data.get("experiments", {})
    return {
        "durations": {e: v["sim_seconds"] / v["tasks"]
                      for e, v in entries.items()},
        "digests": {e: v["digest"] for e, v in entries.items()},
        "metrics": data.get(gate.metric_key, {}) if gate.metric_key else {},
    }


def _battery_dump(gate: Gate, obs: Observation, data: dict) -> dict:
    data["version"] = SCHEMA_VERSION
    data["experiments"] = {
        exp_id: {
            "digest": obs["digests"][exp_id],
            # Zeroed on purpose: digests travel between machines, wall
            # clocks do not (`repro campaign --check` skips a zero wall).
            "task_wall_s": 0.0,
            "sim_seconds": rec["sim_seconds"],
            "sim_time_throughput": None,
            "tasks": rec["tasks"],
        } for exp_id, rec in obs["record"].items()}
    if gate.metric_key:
        data[gate.metric_key] = obs["metrics"]
    return data


def _perf_view(gate: Gate, data: dict) -> dict:
    if data and data.get("version") != PERF_SCHEMA_VERSION:
        raise ValueError(f"{gate.baseline}: schema version "
                         f"{data.get('version')!r} is not "
                         f"{PERF_SCHEMA_VERSION}")
    entries = data.get("experiments", {})
    return {
        "durations": {g: v["duration_s"] for g, v in entries.items()},
        "digests": {g: v["digest"] for g, v in entries.items()},
        "walls": {g: v["wall_s"] for g, v in entries.items()},
        "calibration": data.get("calibration"),
    }


def _perf_dump(gate: Gate, obs: Observation, data: dict) -> dict:
    data["version"] = PERF_SCHEMA_VERSION
    data["calibration"] = obs["calibration"]
    experiments = {}
    for grid, rec in obs["record"].items():
        wall = min(obs["walls"][grid])
        experiments[grid] = dict(
            rec, digest=obs["digests"][grid], wall_s=round(wall, 4),
            events_per_sec=round(rec["events"] / wall) if wall > 0 else 0)
    data["experiments"] = experiments
    return data


def _overhead_view(gate: Gate, data: dict) -> dict:
    """The baseline of an overhead ratio is the run without it: 1.0."""
    return {"walls": dict.fromkeys(gate.wall_tol, 1.0)}


# ---------------------------------------------------------------------------
# Predicates: the structural claims each battery exists to show
# ---------------------------------------------------------------------------
def _edf_beats_normal_gold_p99(obs: Observation) -> Tuple[bool, Any]:
    cells = obs.get("metrics", {})
    pairs = {w: {s: cells.get(_flow_id("gold", w, s))
                 for s in ("EDF", "NORMAL")} for w in WORKLOADS}
    holds = any(p["EDF"] is not None and p["NORMAL"] is not None
                and p["EDF"] < p["NORMAL"] for p in pairs.values())
    return holds, pairs


def _auto_beats_static_flash(hosts: int) -> Predicate:
    def holds(obs: Observation) -> Tuple[bool, Any]:
        cells = obs.get("metrics", {})
        auto = cells.get(_tag("flash", hosts, "auto"))
        static = cells.get(_tag("flash", hosts, "static"))
        ok = auto is not None and static is not None and auto < static
        return ok, {"auto": auto, "static": static}
    return holds


def _flash_h2_scales_out(obs: Observation) -> Tuple[bool, Any]:
    scale_outs = obs.get("facts", {}).get("flash.h2.auto.scale_outs")
    return isinstance(scale_outs, int) and scale_outs >= 1, scale_outs


def _roundtrip(obs: Observation) -> Tuple[bool, Any]:
    problems = obs["facts"]["roundtrip"]
    return not problems, problems


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
PERF_GRIDS = ("fig07", "fig09", "fig16", "slo_battery", "cluster_scaling")

GATES: Dict[str, Gate] = {gate.name: gate for gate in (
    # Worker count must never change results; a written campaign
    # baseline must pass its own --check (up-only calibration, one
    # serial re-time, 0.01 s floor, +50% wall).
    Gate("campaign", _measure_campaign,
         experiments=("fig07", "fig09", "fig12", "tab05"), duration=0.05,
         wall_tol={"roundtrip": 0.5},
         predicates={"roundtrip": (
             "written baseline passes check_campaign", _roundtrip)}),
    Gate("chaos", _measure_chaos, experiments=("chaos_recovery",),
         duration=0.1, baseline="BENCH_chaos.json",
         view=_battery_view, dump=_battery_dump),
    Gate("slo", _measure_slo, experiments=("slo_battery",), duration=0.1,
         baseline="BENCH_slo.json", view=_battery_view,
         dump=_battery_dump, metric_key="slo_p99_us",
         predicates={"edf_beats_normal_gold_p99": (
             "EDF gold p99 < NORMAL gold p99 in >= 1 workload",
             _edf_beats_normal_gold_p99)}),
    # 0.3 s: shorter horizons end before the flash crowd forces a
    # scale-out.
    Gate("cluster", _measure_cluster, experiments=("cluster_scaling",),
         duration=0.3, baseline="BENCH_cluster.json", view=_battery_view,
         dump=_battery_dump, metric_key="cluster_gold_p99_us",
         predicates={
             **{f"auto_beats_static_flash.h{h}": (
                 f"flash h{h}: auto gold p99 < static gold p99",
                 _auto_beats_static_flash(h)) for h in (2, 4, 8)},
             "flash_h2_scales_out": (
                 "flash.h2.auto scales out >= 1 time",
                 _flash_h2_scales_out)}),
    # Symmetric calibration scale, min of 2 passes, +25% wall.
    Gate("perf", _measure_perf, experiments=PERF_GRIDS, duration=0.1,
         baseline="BENCH_perf.json", view=_perf_view, dump=_perf_dump,
         indent=1, wall_tol=dict.fromkeys(PERF_GRIDS, 0.25), passes=2),
    # Least per-round CPU-time ratio over 5 rounds: an inert bus may
    # add 5%, full SLO telemetry 10%, and telemetry must not move the
    # result digest.
    Gate("overhead", _measure_overhead, experiments=(), duration=0.05,
         view=_overhead_view, wall_tol={"bus": 0.05, "telemetry": 0.10},
         passes=5),
)}


# ---------------------------------------------------------------------------
# Evaluating: Observation + baseline view -> check records
# ---------------------------------------------------------------------------
def _union(base: dict, observed: dict):
    """Each key of either side, with what is missing, if anything."""
    for key in sorted(set(base) | set(observed)):
        if key not in base:
            missing = NO_BASELINE
        elif key not in observed:
            missing = "missing from run"
        else:
            missing = None
        yield key, base.get(key), observed.get(key), missing


def evaluate(gate: Gate, obs: Observation, base: dict) -> List[dict]:
    """Every check of ``gate``, in table order, as report records."""
    checks: List[dict] = []

    def check(cid, kind, baseline, observed, bound, ok, detail, **extra):
        rec = {"id": f"{gate.name}.{cid}", "kind": kind,
               "baseline": baseline, "observed": observed, "bound": bound,
               "verdict": "pass" if ok else "fail", **extra}
        if not ok:
            rec["detail"] = detail
        checks.append(rec)

    if obs.get("failures"):
        check("run", "predicate", None, obs["failures"],
              "every task succeeds", False, "task failures")
    durations = base.get("durations")
    if durations:
        check("duration", "exact", durations, gate.duration, "== baseline",
              all(math.isclose(d, gate.duration) for d in durations.values()),
              f"table runs {gate.duration} s per case, baseline recorded "
              f"{durations}")
    for key, b, o, missing in _union(base.get("digests", {}),
                                     obs.get("digests", {})):
        check(f"{key}.digest", "exact", b, o, "== baseline",
              not missing and o == b, missing or "result digest drift")
    for key, (a, b) in sorted(obs.get("invariants", {}).items()):
        check(key, "invariant", a, b, "equal", a is not None and a == b,
              "observed digests differ")
    rel_tol, abs_floor = gate.metric_bound
    for key, b, o, missing in _union(base.get("metrics", {}),
                                     obs.get("metrics", {})):
        bad = missing or regressed(b, o, rel_tol, abs_floor)
        check(f"p99.{key}", "metric", b, o,
              {"rel_tol": rel_tol, "abs_floor": abs_floor}, not bad,
              missing or f"+{relative_growth(b, o):.1%}, +{o - b:.3f}us")
    cal_base, cal_now = base.get("calibration"), obs.get("calibration")
    scale = cal_base / cal_now if cal_base and cal_now else 1.0
    for key, b, samples, missing in _union(base.get("walls", {}),
                                           obs.get("walls", {})):
        extra = {"samples": samples}
        if cal_base and cal_now:
            extra["calibration"] = {"baseline": cal_base, "observed": cal_now}
        if missing:
            check(f"{key}.wall", "wall", b, samples and min(samples), None,
                  False, missing, **extra)
            continue
        bound = b * scale * (1 + gate.wall_tol[key])
        observed = min(samples)
        check(f"{key}.wall", "wall", b, observed, bound, observed <= bound,
              f"least of {len(samples)} samples exceeds baseline {b} × "
              f"calibration {scale:.2f} × {1 + gate.wall_tol[key]:.2f}",
              **extra)
    for name, (claim, predicate) in gate.predicates.items():
        holds, inputs = predicate(obs)
        check(name, "predicate", None, inputs, claim, holds, "claim lost")
    return checks


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
def _read(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def run_gate(gate: Gate, write: bool = False,
             bench_dir: str = BENCH_DIR) -> dict:
    """Measure, evaluate and (with ``write``) re-record one gate."""
    path = os.path.join(bench_dir, gate.baseline) if gate.baseline else None
    t0 = time.perf_counter()
    try:
        data = _read(path) if path else {}
        obs = gate.measure(gate)
        if write and gate.dump is not None:
            data = gate.dump(gate, obs, data)
        checks = evaluate(gate, obs, gate.view(gate, data))
        if write and path and all(c["verdict"] == "pass" for c in checks):
            with open(path, "w") as fh:
                json.dump(data, fh, indent=gate.indent, sort_keys=True)
                fh.write("\n")
            print(f"[gates] {gate.name}: baseline written to {path}")
    except Exception as exc:    # a crashed gate is one failed check
        checks = [{"id": f"{gate.name}.run", "kind": "predicate",
                   "baseline": None, "observed": f"{type(exc).__name__}: "
                   f"{exc}", "bound": "gate runs to completion",
                   "verdict": "fail", "detail": traceback.format_exc()}]
    return {"baseline_file": gate.baseline,
            "elapsed_s": round(time.perf_counter() - t0, 3),
            "checks": checks}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=list(GATES), metavar="NAME",
                        help=f"run one gate ({', '.join(GATES)})")
    parser.add_argument("--write", action="store_true",
                        help="re-record the committed baseline(s) from "
                             "this run when every check passes")
    parser.add_argument("--report", default="gate-report.json",
                        metavar="PATH", help="JSON gate report "
                        "(default gate-report.json)")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {"gates": {}}
    for name in [args.only] if args.only else list(GATES):
        print(f"[gates] {name} …", flush=True)
        result = run_gate(GATES[name], write=args.write)
        report["gates"][name] = result
        checks = result["checks"]
        for c in checks:
            if c["verdict"] == "fail":
                print(f"[gates] FAIL {c['id']}: "
                      f"{c['detail'].strip().splitlines()[-1]} "
                      f"({c['kind']}; baseline {c['baseline']}, "
                      f"observed {c['observed']}, bound {c['bound']})")
        passed = sum(c["verdict"] == "pass" for c in checks)
        print(f"[gates] {name}: {passed}/{len(checks)} checks pass "
              f"({result['elapsed_s']:.1f}s)", flush=True)
    failed = [c["id"] for g in report["gates"].values()
              for c in g["checks"] if c["verdict"] == "fail"]
    report["failed"] = failed
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"[gates] report written to {args.report}; "
          f"{'FAILED: ' + ', '.join(failed) if failed else 'all checks pass'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
