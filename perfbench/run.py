"""The repository benchmark: simulated seconds per host second, per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chain_linerate --seed 0 \\
        --seconds 20 --trace 0

One process, no threads, no worker pool.  A run:

1. refuses to start if any ``REPRO_*`` override is set, so only the
   engine and settings users get by default are measured;
2. times ``import repro`` in fresh interpreters (part of ``setup_s``);
3. runs every case of the workload once, untimed, under the runtime
   sanitizer (packet and time conservation).  Its digests are the run's
   reference; for a seed recorded in ``references.json`` they must also
   equal the recorded ones;
4. with ``--trace 0``, repeats the whole workload for ``--seconds`` host
   seconds and reports the end-to-end metrics as medians over the
   repetitions; with ``--trace 1``, repeats it plainly and then under the
   layer ledger (:mod:`ledger`) and reports the per-layer metrics.

Every repetition must reproduce the reference digest of every case.  A
case that raises or differs counts as failed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print each metric with its unit and
sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

#: Fewest repetitions each phase makes, whatever ``--seconds`` says: the
#: timed phase, and the plain and traced phases of a ``--trace 1`` run.
MIN_REPS = 3
MIN_PLAIN_REPS = 2
MIN_TRACED_REPS = 1
#: Fresh-interpreter imports timed for ``setup_s`` (after one warm-up).
IMPORT_SAMPLES = 5
#: Share of ``--seconds`` a ``--trace 1`` run spends on plain repetitions
#: (the base of ``trace.overhead``); the rest is traced.
UNTRACED_SHARE = 0.4
#: Allowed gap between the summed layer self times and the traced wall.
CLOSURE_TOLERANCE = 0.02


@dataclass
class CaseRun:
    """One execution of one case."""

    case: str
    sim_s: float
    build_s: float
    run_s: float
    wall_s: float
    digest: str
    scenario: Any = None
    result: Any = None


@dataclass
class Tally:
    """Attempted and failed case executions, with the failure reasons."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def repro_overrides(environ: Dict[str, str]) -> List[str]:
    """Names of ``REPRO_*`` variables that would select a non-default path."""
    return sorted(name for name in environ if name.startswith("REPRO_"))


def fresh_import_s() -> float:
    """Host seconds ``import repro`` takes in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def execute(case: Any, export: Any, digest: Any, build: Any = None,
            keep: bool = False) -> CaseRun:
    """Build, run and digest one case, timing each stage."""
    clock = time.perf_counter
    t0 = clock()
    scenario = (build or case.build)()
    t1 = clock()
    result = scenario.run(case.sim_s)
    t2 = clock()
    value = digest(export(result))
    t3 = clock()
    return CaseRun(case.name, case.sim_s, t1 - t0, t2 - t1, t3 - t0, value,
                   scenario if keep else None, result if keep else None)


def repetition(cases: List[Any], reference: Dict[str, str], tally: Tally,
               export: Any, digest: Any, ledger: Any = None
               ) -> List[CaseRun]:
    """Every case once; each must reproduce its reference digest."""
    runs = []
    for case in cases:
        tally.attempted += 1
        try:
            build = None
            if ledger is not None:
                build = ledger.wrap(case.build, "experiments", "build")
            run = execute(case, export, digest, build, keep=ledger is not None)
        except Exception:
            tally.fail(f"{case.name}: raised\n{traceback.format_exc()}")
            continue
        expected = reference.get(case.name)
        if run.digest != expected:
            tally.fail(f"{case.name}: digest {run.digest} differs from "
                       f"reference {expected}")
        runs.append(run)
    return runs


def conservation_pass(cases: List[Any], tally: Tally, export: Any,
                      digest: Any) -> Tuple[Dict[str, str], List[str],
                                            Dict[str, Any]]:
    """Run each case once under the sanitizer.

    Returns the digests, any invariant violations and the first result's
    loop statistics.
    """
    from repro.check.sanitizer import Sanitizer, activate_sanitizer, \
        deactivate_sanitizer

    digests: Dict[str, str] = {}
    violations: List[str] = []
    loop_stats: Dict[str, Any] = {}
    activate_sanitizer(Sanitizer())
    try:
        for case in cases:
            tally.attempted += 1
            try:
                run = execute(case, export, digest, keep=True)
            except Exception:
                tally.fail(f"{case.name}: raised under the sanitizer\n"
                           f"{traceback.format_exc()}")
                continue
            digests[case.name] = run.digest
            violations += [f"{case.name}: {v.render()}"
                           for v in run.result.sanitizer_violations]
            loop_stats = loop_stats or dict(run.result.loop_stats)
    finally:
        deactivate_sanitizer()
    return digests, violations, loop_stats


def recorded_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The committed reference digests for this workload and seed, if any."""
    with open(REFERENCES) as fh:
        table = json.load(fh)["digests"]
    return table.get(workload, {}).get(str(seed))


def timed_reps(cases: List[Any], reference: Dict[str, str], tally: Tally,
               export: Any, digest: Any, seconds: float, min_reps: int,
               ledger: Any = None) -> List[Tuple[float, List[CaseRun]]]:
    """Repeat the workload for ``seconds``, at least ``min_reps`` times.

    Returns ``(repetition wall, case runs)`` per repetition.
    """
    reps: List[Tuple[float, List[CaseRun]]] = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        runs = repetition(cases, reference, tally, export, digest, ledger)
        reps.append((time.perf_counter() - t0, runs))
    return reps


def end_to_end(reps: List[Tuple[float, List[CaseRun]]],
               import_s: List[float]) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for the end-to-end metrics."""
    ratios, slowest, builds = [], [], []
    for _wall, runs in reps:
        if not runs:
            continue
        ratios.append(sum(r.sim_s for r in runs) / sum(r.run_s for r in runs))
        slowest.append(max(r.wall_s for r in runs))
        builds.append(sum(r.build_s for r in runs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "sim_s_per_host_s": (statistics.median(ratios), "s/s", len(ratios)),
        "case_wall_max_s": (statistics.median(slowest), "s", len(slowest)),
        "setup_s": (statistics.median(import_s) + statistics.median(builds),
                    "s", len(import_s)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def print_table(rows: List[Tuple[str, float, str, Any]]) -> None:
    width = max(len(name) for name, *_ in rows)
    for name, value, unit, samples in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={samples}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    overrides = repro_overrides(dict(os.environ))
    if overrides:
        print(f"refusing to run: {', '.join(overrides)} set; the benchmark "
              "measures the default configuration only", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    import ledger as ledger_mod
    from workloads import WORKLOADS
    from repro.analysis.export import result_to_dict
    from repro.runner.digest import digest_of

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cases = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    problems: List[str] = []

    fresh_import_s()  # warm-up: byte-compiles the sources once
    import_s = [fresh_import_s() for _ in range(IMPORT_SAMPLES)]

    reference, violations, loop_stats = conservation_pass(
        cases, tally, result_to_dict, digest_of)
    problems += [f"sanitizer: {v}" for v in violations]
    recorded = recorded_digests(args.workload, args.seed)
    if recorded is not None:
        for name, value in reference.items():
            if recorded.get(name) != value:
                tally.fail(f"{name}: sanitized digest {value} differs from "
                           f"recorded {recorded.get(name)}")
        reference = recorded

    print(f"workload {args.workload} seed {args.seed} cases {len(cases)} "
          f"(sim s per case {cases[0].sim_s:g}) "
          f"engine={loop_stats.get('impl')} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} references="
          f"{'recorded' if recorded is not None else 'sanitized pass'}")

    if args.trace == 0:
        reps = timed_reps(cases, reference, tally, result_to_dict, digest_of,
                          args.seconds, MIN_REPS)
        metrics = end_to_end(reps, import_s)
    else:
        from report import layer_metrics

        plain = timed_reps(cases, reference, tally, result_to_dict,
                           digest_of, args.seconds * UNTRACED_SHARE,
                           MIN_PLAIN_REPS)
        # Span cost drifts with the host's speed: calibrate on both sides
        # of the traced phase and use the mean.
        calibrations = [ledger_mod.calibrate()]
        ledger = ledger_mod.Ledger()
        with ledger_mod.instrument(ledger) as missing:
            export = ledger.wrap(result_to_dict, "runner", "result_to_dict")
            digest = ledger.wrap(digest_of, "runner", "digest_of")
            traced = timed_reps(cases, reference, tally, export, digest,
                                args.seconds * (1 - UNTRACED_SHARE),
                                MIN_TRACED_REPS, ledger)
        calibrations.append(ledger_mod.calibrate())
        own_ns, parent_ns = (statistics.mean(c) for c in zip(*calibrations))
        metrics, closure = layer_metrics(ledger, plain, traced, own_ns,
                                         parent_ns)
        for point in missing:
            print(f"WARN entry point {point} not found; not measured",
                  file=sys.stderr)
        print(f"ledger closure {closure:+.3%} (tolerance "
              f"{CLOSURE_TOLERANCE:.0%}); span cost calibrated at "
              f"{own_ns:.0f} ns own + {parent_ns:.0f} ns parent")
        if abs(closure) > CLOSURE_TOLERANCE:
            problems.append(f"ledger closure: layer self times and span "
                            f"costs differ from the traced wall by "
                            f"{closure:+.2%} "
                            f"(tolerance {CLOSURE_TOLERANCE:.0%})")

    unmapped = ledger_mod.unmapped_modules(list(sys.modules))
    if unmapped:
        problems.append("modules without exactly one layer: "
                        + ", ".join(unmapped))
    rows = [(name, v, unit, n) for name, (v, unit, n) in metrics.items()]
    rows.append(("failed_frac", tally.failed_frac, "ratio", tally.attempted))
    print_table(rows)
    for line in tally.errors + problems:
        print(f"FAIL {line}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
