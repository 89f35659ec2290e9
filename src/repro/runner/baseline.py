"""Campaign regression baselines.

The baseline file (``BENCH_campaign.json`` by convention) persists, per
experiment: the canonical result digest, the summed in-worker wall time,
the simulated seconds covered, and the derived simulated-time throughput.
``--check`` compares a fresh campaign against it:

* **digest drift** — any changed digest fails the check outright: the
  simulator is deterministic, so a drifted digest means behaviour changed;
* **wall-clock regression** — an experiment whose summed worker wall time
  exceeds baseline by more than ``max_regression`` (default 15 %) fails.
  Summed *per-task* wall time is used (not campaign elapsed time) so the
  measure is comparable across different ``--workers`` values.  Three
  things keep the gate from tripping on machine noise:

  - each entry records a :func:`calibrate` score; the check calibrates
    again right after a timed pass and, when the score is lower now,
    scales the baseline wall up by ``recorded / current``, so a slower
    or busier machine does not read as a regression (a higher score
    never shrinks the budget: the score is a tight loop and swings far
    more than whole experiments do);
  - an experiment that looks slower is re-timed once, serially, and
    fails only if both passes are over their budgets;
  - the allowed growth is never less than ``WALL_FLOOR_S`` seconds, so
    grids of a few tens of milliseconds do not fail on scheduler jitter.

Writing (the default, without ``--check``) merges into an existing file:
experiments not part of the current campaign keep their entries.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.runner.campaign import CampaignResult
from repro.runner.pool import run_tasks

SCHEMA_VERSION = 1

#: Smallest wall-clock growth (seconds) ever reported as a regression.
WALL_FLOOR_S = 0.01


def calibrate(n: int = 200_000) -> float:
    """Machine-speed score: events/second through a bare EventLoop.

    A fixed-size periodic-tick workload through the real event loop —
    the same interpreter-bound work the simulator spends its time on, so
    the score moves with the machine the way the experiments do.
    """
    from repro.sim.engine import EventLoop

    loop = EventLoop()
    loop.call_every(10, lambda: None)
    t0 = time.perf_counter()
    loop.run_until(n * 10)
    elapsed = time.perf_counter() - t0
    return loop.pops / elapsed


def baseline_entry(report, calibration: float) -> Dict:
    return {
        "digest": report.digest,
        "task_wall_s": round(report.task_wall_s, 6),
        "sim_seconds": report.sim_seconds,
        "sim_time_throughput": (
            round(report.sim_time_throughput, 6)
            if report.sim_time_throughput is not None else None),
        "tasks": len(report.tasks),
        "calibration": round(calibration),
    }


def load_baseline(path: Union[str, Path]) -> Dict:
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported baseline version {version!r} in {path} "
            f"(expected {SCHEMA_VERSION})")
    return data


def write_baseline(path: Union[str, Path],
                   campaign: CampaignResult) -> Path:
    """Merge the campaign's successful experiments into the baseline."""
    path = Path(path)
    if path.exists():
        data = load_baseline(path)
    else:
        data = {"version": SCHEMA_VERSION, "experiments": {}}
    calibration = calibrate()
    for exp_id, report in campaign.experiments.items():
        if report.ok:
            data["experiments"][exp_id] = baseline_entry(report, calibration)
    data["experiments"] = dict(sorted(data["experiments"].items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def wall_budget(base_wall: float, recorded: Optional[float],
                max_regression: float) -> float:
    """Most wall seconds an experiment with ``base_wall`` may take now.

    With a ``recorded`` calibration score, the machine is calibrated
    again and the baseline scaled up by ``recorded / current`` if it
    measures slower.  Scale up only: on a shared 2-vCPU host the score
    swung between 1.0M and 5.2M events/s from one run to the next while
    the tab05 grid's wall moved by less than 1.5x, so scaling down would
    fail clean runs on calibration noise alone.
    """
    if recorded:
        base_wall *= max(1.0, recorded / calibrate())
    return max(base_wall * (1 + max_regression), base_wall + WALL_FLOOR_S)


def check_campaign(baseline: Dict, campaign: CampaignResult,
                   max_regression: float = 0.15) -> List[str]:
    """Problems found comparing ``campaign`` to ``baseline`` (empty = pass)."""
    problems: List[str] = []
    entries = baseline.get("experiments", {})
    for exp_id, report in campaign.experiments.items():
        if not report.ok:
            problems.append(
                f"{exp_id}: campaign run failed "
                f"({'; '.join(report.failures)})")
            continue
        entry = entries.get(exp_id)
        if entry is None:
            problems.append(
                f"{exp_id}: no baseline entry — run without --check to "
                f"record one")
            continue
        if entry["digest"] != report.digest:
            problems.append(
                f"{exp_id}: result digest drift "
                f"(baseline {entry['digest'][:12]}…, "
                f"got {report.digest[:12]}…)")
        base_wall = entry.get("task_wall_s") or 0.0
        if base_wall <= 0:
            continue
        recorded = entry.get("calibration")
        wall = report.task_wall_s
        allowed = wall_budget(base_wall, recorded, max_regression)
        if wall <= allowed:
            continue
        # Second look: re-run the experiment's tasks serially, calibrate
        # right after, and pass if this pass fits its own budget.
        retimed = run_tasks([o.spec for o in report.tasks], workers=1)
        if all(o.ok for o in retimed):
            wall = sum(o.wall_s for o in retimed)
            allowed = wall_budget(base_wall, recorded, max_regression)
            if wall <= allowed:
                continue
        problems.append(
            f"{exp_id}: wall-clock regression "
            f"({wall:.2f}s vs calibrated budget {allowed:.2f}s; baseline "
            f"{base_wall:.2f}s + {100 * max_regression:.0f}% or "
            f"{WALL_FLOOR_S:.2f}s)")
    return problems
