"""Streaming run snapshots: live telemetry as JSONL.

``repro run fig07 --stream-out snaps.jsonl --stream-interval-ms 100``
periodically serialises, for every scenario in the run:

* the registry's scalar gauges/counters (scoped to the scenario label),
* per-flow/per-chain latency percentile summaries from the
  :class:`~repro.obs.latency.FlowLatencyTracker`,
* the :class:`~repro.obs.causality.CausalityTracer`'s attribution state,

one JSON object per line.  This is the substrate the ROADMAP's
service-mode item will subscribe to: a consumer can tail the file and
watch p99 latency and throttle attribution evolve mid-run instead of
waiting for the final report.

Each scenario runs on its own :class:`~repro.sim.engine.EventLoop`
starting at t=0, so snapshots carry both the scenario label and the
scenario-local simulated time.  Lines are written with sorted keys, so
two identical runs produce byte-identical stream files.

The module also hosts the ``repro obs diff`` logic: load two telemetry
files (stream JSONL, taking each scenario's last snapshot, or a plain
JSON report) and flag percentile regressions beyond a threshold.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.runner.baseline import regressed, relative_growth
from repro.sim.engine import EventLoop
from repro.sim.process import PeriodicProcess

#: Percentile columns compared by :func:`diff_telemetry`.
_DIFF_KEYS = ("p50_us", "p95_us", "p99_us", "p99_9_us")


class _ScenarioFeed:
    """Everything the streamer reads for one scenario's snapshots."""

    __slots__ = ("label", "loop", "registry", "latency", "causality",
                 "_proc")

    def __init__(self, label: str, loop: EventLoop, registry,
                 latency, causality):
        self.label = label
        self.loop = loop
        self.registry = registry
        self.latency = latency
        self.causality = causality
        self._proc: Optional[PeriodicProcess] = None


class SnapshotStreamer:
    """Emits periodic JSONL telemetry snapshots for attached scenarios."""

    def __init__(self, path: str, interval_ns: int):
        if interval_ns <= 0:
            raise ValueError("stream interval must be positive")
        self.path = path
        self.interval_ns = int(interval_ns)
        self.emitted = 0
        self._feeds: List[_ScenarioFeed] = []
        self._fh: Optional[IO[str]] = None

    # ------------------------------------------------------------------
    def register(self, label: str, loop: EventLoop, registry=None,
                 latency=None, causality=None) -> None:
        """Attach a scenario: snapshots fire on *its* loop every interval."""
        feed = _ScenarioFeed(label, loop, registry, latency, causality)
        feed._proc = PeriodicProcess(
            loop, self.interval_ns, lambda f=feed: self._emit(f),
            "obs-stream")
        feed._proc.start()
        self._feeds.append(feed)

    # ------------------------------------------------------------------
    def _snapshot(self, feed: _ScenarioFeed) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "scenario": feed.label,
            "t_ns": feed.loop.now,
        }
        if feed.registry is not None:
            gauges: Dict[str, float] = {}
            for name, labels, kind, metric in feed.registry.collect():
                if kind == "histogram":
                    continue
                if labels.get("scenario") != feed.label:
                    continue
                extra = "|".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                    if k != "scenario")
                key = f"{name}|{extra}" if extra else name
                gauges[key] = float(metric.value)
            snap["gauges"] = gauges
        if feed.latency is not None:
            snap["latency"] = feed.latency.summary()
        if feed.causality is not None:
            snap["causality"] = feed.causality.summary(feed.loop.now)
        return snap

    def _emit(self, feed: _ScenarioFeed) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w")
        json.dump(self._snapshot(feed), self._fh,
                  sort_keys=True, separators=(",", ":"))
        self._fh.write("\n")
        self.emitted += 1

    # ------------------------------------------------------------------
    def finalize(self) -> str:
        """Emit one last snapshot per scenario, flush and close."""
        for feed in self._feeds:
            if feed._proc is not None:
                feed._proc.stop()
            self._emit(feed)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        return (f"[obs] streamed {self.emitted} snapshots from "
                f"{len(self._feeds)} scenario(s) to {self.path}")


# ---------------------------------------------------------------------------
# ``repro obs diff``
# ---------------------------------------------------------------------------
def load_telemetry(path: str) -> Dict[str, Dict[str, Any]]:
    """Load telemetry keyed by scenario label.

    Accepts either a stream JSONL file (each scenario's **last** snapshot
    wins — that is the end-of-run state) or a plain JSON object of the
    same shape (``{label: {"latency": ..., "causality": ...}}``).
    """
    last: Dict[str, Dict[str, Any]] = {}
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{") and "\n" not in stripped.rstrip():
        # Could still be a one-line JSONL snapshot; disambiguate on the
        # "scenario" key every stream line carries.
        obj = json.loads(stripped)
        if "scenario" in obj:
            last[str(obj["scenario"])] = obj
            return last
        for label, entry in obj.items():
            last[str(label)] = dict(entry)
        return last
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if "scenario" in obj:
            last[str(obj["scenario"])] = obj
        else:
            for label, entry in obj.items():
                last[str(label)] = dict(entry)
    return last


def _percentile_rows(entry: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Flatten one scenario's latency summary to comparable rows."""
    latency = entry.get("latency") or {}
    rows: Dict[str, Dict[str, float]] = {}
    for section in ("flows", "chains"):
        for name, row in (latency.get(section) or {}).items():
            rows[f"{section[:-1]}:{name}"] = row
    return rows


def diff_telemetry(a: Dict[str, Dict[str, Any]],
                   b: Dict[str, Dict[str, Any]],
                   max_regression: float = 0.10,
                   min_abs_us: float = 1.0) -> Tuple[str, int]:
    """Compare run B against baseline A; flag percentile regressions.

    A regression is a percentile that grew by more than ``max_regression``
    (fractional) **and** by at least ``min_abs_us`` microseconds
    (:func:`repro.runner.baseline.regressed`).  Returns (report text,
    regression count).
    """
    lines: List[str] = []
    regressions = 0
    compared = 0
    labels = sorted(set(list(a) + list(b)))
    for label in labels:
        ea, eb = a.get(label), b.get(label)
        if ea is None or eb is None:
            lines.append(f"  {label}: only in "
                         f"{'B' if ea is None else 'A'} — skipped")
            continue
        rows_a, rows_b = _percentile_rows(ea), _percentile_rows(eb)
        for key in sorted(set(list(rows_a) + list(rows_b))):
            ra, rb = rows_a.get(key), rows_b.get(key)
            if ra is None or rb is None:
                lines.append(f"  {label} {key}: only in "
                             f"{'B' if ra is None else 'A'}")
                continue
            for pk in _DIFF_KEYS:
                va, vb = ra.get(pk), rb.get(pk)
                if va is None or vb is None:
                    continue
                compared += 1
                if regressed(va, vb, max_regression, min_abs_us):
                    regressions += 1
                    rel = relative_growth(va, vb)
                    rel_pct = ("inf" if rel == float("inf")
                               else f"{rel * 100:.1f}%")
                    lines.append(
                        f"  REGRESSION {label} {key} {pk}: "
                        f"{va:.3f} -> {vb:.3f} us (+{rel_pct})")
    header = (f"obs diff: {regressions} percentile regression(s) "
              f"(threshold {max_regression * 100:.0f}%)")
    if not lines:
        lines.append("  no comparable telemetry rows" if compared == 0
                     else f"  {compared} percentile(s) compared, "
                          "all within threshold")
    return "\n".join([header] + lines), regressions
