"""The host-time ledger: which layer of the simulator spent the wall time.

Three parts:

* :data:`MODULE_LAYERS` maps every ``repro`` module to exactly one layer.
  :func:`unmapped_modules` lists imported modules that match no rule, or
  more than one, and the benchmark fails the run on any.
* :class:`Ledger` records spans.  A span's self time is its duration minus
  the time covered by its child spans; self times are summed per layer and
  call counts and durations per span name.  Only the aggregates are kept,
  so memory does not grow with the number of spans.
* :func:`instrument` installs span wrappers at class level on the public
  entry points in :data:`ENTRY_POINTS`, and wraps every callback handed to
  ``EventLoop.call_at`` / ``call_every`` in a span for the layer whose
  module defines it.  It restores the originals on exit.  Wrappers only
  time and count; they never change arguments, results or call order, so
  a traced run digests identically to a plain one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple

LAYERS = ("sim", "sched", "platform", "nf", "traffic", "control", "cluster",
          "obs", "experiments", "runner")

#: Module -> layer.  A key ending in ``.*`` matches every submodule of that
#: package (not the package itself); any other key matches one module.
MODULE_LAYERS: Dict[str, str] = {
    "repro": "experiments",
    "repro.__main__": "experiments",
    "repro.cli": "experiments",
    "repro.experiments": "experiments",
    "repro.experiments.*": "experiments",
    "repro.cluster.scenario": "experiments",
    "repro.sim": "sim",
    "repro.sim.*": "sim",
    "repro.sched": "sched",
    "repro.sched.*": "sched",
    "repro.platform": "platform",
    "repro.platform.*": "platform",
    "repro.core": "nf",
    "repro.core.nf": "nf",
    "repro.core.libnf": "nf",
    "repro.core.io": "nf",
    "repro.nfs": "nf",
    "repro.nfs.*": "nf",
    "repro.traffic": "traffic",
    "repro.traffic.*": "traffic",
    "repro.core.monitor": "control",
    "repro.core.backpressure": "control",
    "repro.core.ecn": "control",
    "repro.core.cgroup_policy": "control",
    "repro.cluster.autoscaler": "control",
    "repro.faults": "control",
    "repro.faults.*": "control",
    "repro.cluster": "cluster",
    "repro.cluster.topology": "cluster",
    "repro.cluster.steering": "cluster",
    "repro.cluster.fabric": "cluster",
    "repro.obs": "obs",
    "repro.obs.*": "obs",
    "repro.metrics": "obs",
    "repro.metrics.*": "obs",
    "repro.runner": "runner",
    "repro.runner.*": "runner",
    "repro.analysis": "runner",
    "repro.analysis.*": "runner",
    "repro.check": "runner",
    "repro.check.*": "runner",
}


def layers_matching(module: str) -> List[str]:
    """Layers of every :data:`MODULE_LAYERS` rule that matches ``module``."""
    found = []
    for pattern, layer in MODULE_LAYERS.items():
        if pattern.endswith(".*"):
            if module.startswith(pattern[:-1]):
                found.append(layer)
        elif module == pattern:
            found.append(layer)
    return found


def unmapped_modules(modules: Sequence[str]) -> List[str]:
    """``repro`` modules that match no layer rule or more than one."""
    return sorted(m for m in modules
                  if (m == "repro" or m.startswith("repro."))
                  and len(layers_matching(m)) != 1)


def layer_of(module: Optional[str]) -> str:
    """The layer of ``module``; raises ``KeyError`` for an unmapped one."""
    found = [] if module is None else layers_matching(module)
    if len(found) != 1:
        raise KeyError(f"module {module!r} maps to {len(found)} layers")
    return found[0]


class Ledger:
    """Per-layer self time and per-span-name counts from nested spans.

    Timing a span costs host time of its own: part of it falls inside the
    span and part in its parent.  :meth:`self_times` takes both out of the
    layers' self times, given the per-span costs :func:`calibrate`
    measures, and :meth:`overhead_ns` totals them instead.
    """

    def __init__(self,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: Self time per layer, span costs included.
        self.raw_self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Spans closed per layer of their parent span (None: no parent).
        self.children: Dict[Optional[str], int] = dict.fromkeys(
            LAYERS + (None,), 0)
        #: Spans closed, and their summed durations, per span name.
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.layer_of_name: Dict[str, str] = {}
        #: Calls whose ``progress`` counter moved (see :meth:`wrap`).
        self.useful: Dict[str, int] = {}
        #: Calls of the span-less counters (see :meth:`counter`).
        self.counts: Dict[str, int] = {}
        #: Host time spent setting up spans (see :meth:`untraced`).
        self.untraced_ns = 0
        # Child time and layer of each open span; the base entries stand
        # for the benchmark code outside every span.
        self._stack: List[int] = [0]
        self._layers: List[Optional[str]] = [None]

    def self_times(self, own_ns: float, parent_ns: float
                   ) -> Dict[str, float]:
        """Self time per layer with the cost of timing each span removed:
        ``own_ns`` per span of the layer and ``parent_ns`` per child."""
        spans = dict.fromkeys(LAYERS, 0)
        for name, n in self.calls.items():
            spans[self.layer_of_name[name]] += n
        return {layer: self.raw_self_ns[layer] - own_ns * spans[layer]
                - parent_ns * self.children[layer] for layer in LAYERS}

    def overhead_ns(self, own_ns: float, parent_ns: float) -> float:
        """Host time the spans themselves cost: what :meth:`self_times`
        removes, plus the time spent in :meth:`untraced`."""
        spans = sum(self.calls.values())
        return (own_ns * spans + parent_ns * (spans - self.children[None])
                + self.untraced_ns)

    def untraced(self, fn: Callable, *args: Any) -> Any:
        """``fn(*args)``, with its time charged to tracing, not a layer."""
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            dt = self.clock() - t0
            self._stack[-1] += dt
            self.untraced_ns += dt

    def wrap(self, fn: Callable, layer: str, name: str,
             progress: Optional[Callable[[Any], int]] = None) -> Callable:
        """``fn`` inside a span of ``layer`` counted under ``name``.

        With ``progress`` (a function of the first argument returning a
        monotone counter), calls that moved the counter count as useful.
        """
        if layer not in self.raw_self_ns:
            raise KeyError(f"unknown layer {layer!r}")
        if self.layer_of_name.setdefault(name, layer) != layer:
            raise ValueError(f"span {name!r} already belongs to layer "
                             f"{self.layer_of_name[name]!r}")
        clock = self.clock
        stack = self._stack
        layers = self._layers
        self_ns = self.raw_self_ns
        children = self.children
        calls = self.calls
        total = self.total_ns
        useful = self.useful
        calls.setdefault(name, 0)
        total.setdefault(name, 0)
        if progress is None:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack.append(0)
                layers.append(layer)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_ns[layer] += dt - stack.pop()
                    layers.pop()
                    stack[-1] += dt
                    children[layers[-1]] += 1
                    calls[name] += 1
                    total[name] += dt
        else:
            useful.setdefault(name, 0)

            def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
                before = progress(obj)
                stack.append(0)
                layers.append(layer)
                t0 = clock()
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_ns[layer] += dt - stack.pop()
                    layers.pop()
                    stack[-1] += dt
                    children[layers[-1]] += 1
                    calls[name] += 1
                    total[name] += dt
                    if progress(obj) != before:
                        useful[name] += 1
        functools.update_wrapper(wrapper, fn)
        wrapper.__ledger__ = name  # type: ignore[attr-defined]
        return wrapper

    def counter(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted under ``name``, without a span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)
        functools.update_wrapper(wrapper, fn)
        wrapper.__ledger__ = name  # type: ignore[attr-defined]
        return wrapper


def _noop() -> None:
    pass


def calibrate(calls: int = 50_000, trials: int = 5) -> Tuple[float, float]:
    """``(own_ns, parent_ns)``: what one span adds to its own self time
    and to its parent's, medians of ``trials`` runs of empty spans."""
    clock = time.perf_counter_ns

    def loop(fn: Callable[[], None]) -> None:
        for _ in range(calls):
            fn()

    def idle() -> None:
        for _ in range(calls):
            pass

    own, parent = [], []
    for _ in range(trials):
        t0 = clock()
        idle()
        t1 = clock()
        loop(_noop)
        t2 = clock()
        iteration = (t1 - t0) / calls        # loop bookkeeping alone
        bare_call = (t2 - t1) / calls - iteration  # calling the function
        ledger = Ledger()
        ledger.wrap(loop, "sim", "root")(ledger.wrap(_noop, "nf", "noop"))
        own.append(ledger.raw_self_ns["nf"] / calls - bare_call)
        parent.append(ledger.raw_self_ns["sim"] / calls - iteration)
    return statistics.median(own), statistics.median(parent)


def is_wrapped(fn: Any) -> bool:
    """True if ``fn`` (or the function of a bound method) is a wrapper."""
    return hasattr(getattr(fn, "__func__", fn), "__ledger__")


# Public entry points: (module, class, methods, layer, kind).  ``kind`` is
# "span", or "count" for a cheap call counter on a hot same-layer helper.
# A method is wrapped on the named class and on every subclass that
# defines its own version.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str, str], ...] = (
    ("repro.sim.engine", "EventLoop", ("run_until",), "sim", "span"),
    ("repro.sched.core", "Core",
     ("wake", "block_ready", "deschedule", "interrupt_current"),
     "sched", "span"),
    ("repro.sched.base", "Scheduler",
     ("enqueue", "dequeue", "pick_next", "charge"), "sched", "span"),
    ("repro.sched.rbtree", "RBTree", ("insert", "remove", "pop_min"),
     "sched", "count"),
    ("repro.platform.ring", "PacketRing", ("enqueue", "dequeue_batch"),
     "platform", "span"),
    ("repro.platform.wakeup", "WakeupSubsystem", ("scan",), "platform",
     "span"),
    ("repro.platform.nic", "NIC", ("receive",), "platform", "span"),
    ("repro.core.nf", "NFProcess", ("execute",), "nf", "span"),
    ("repro.nfs.cost_models", "CostModel", ("consume_upto",), "nf", "span"),
    ("repro.traffic.generator", "TrafficGenerator", ("tick",), "traffic",
     "span"),
    ("repro.core.monitor", "MonitorThread", ("tick",), "control", "span"),
    ("repro.core.monitor", "SLOGovernor", ("evaluate",), "control", "span"),
    ("repro.core.backpressure", "BackpressureController", ("evaluate",),
     "control", "span"),
    ("repro.core.ecn", "ECNMarker", ("observe", "mark_fraction", "mark"),
     "control", "span"),
    ("repro.cluster.autoscaler", "Autoscaler", ("_tick",), "control",
     "span"),
    ("repro.cluster.fabric", "FabricLink", ("send",), "cluster", "span"),
    ("repro.cluster.steering", "FlowSteerer", ("placement_of",), "cluster",
     "span"),
    ("repro.cluster.topology", "IngressPoint", ("receive",), "cluster",
     "span"),
    ("repro.metrics.histogram", "CycleHistogram", ("add",), "obs", "span"),
    ("repro.obs.latency", "FlowLatencyTracker",
     ("record_delivery", "record_hop", "delivery_staging", "hop_staging",
      "_flush"), "obs", "span"),
    ("repro.obs.causality", "CausalityTracer",
     ("on_throttle", "on_clear", "on_relinquish", "on_dispatch",
      "on_entry_discard", "on_wasted_drop", "delivery_staging",
      "drain_deliveries"), "obs", "span"),
    ("repro.experiments.common", "Scenario", ("run", "_summarise"),
     "experiments", "span"),
    ("repro.cluster.scenario", "ClusterScenario", ("run", "_summarise"),
     "experiments", "span"),
)

#: Polling entry points whose calls are also classed useful or idle:
#: (module, class, method, layer, the counter a useful call moves).
PROGRESS_POINTS: Tuple[Tuple[str, str, str, str, Callable[[Any], int]],
                       ...] = (
    ("repro.platform.rx", "RxThread", "poll", "platform",
     lambda rx: rx.delivered),
    ("repro.platform.tx", "TxThread", "poll", "platform",
     lambda tx: tx.forwarded + tx.egressed),
)


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out


def _callback_module(callback: Any) -> Optional[str]:
    from repro.sim.process import PeriodicProcess

    owner = getattr(callback, "__self__", None)
    if isinstance(owner, PeriodicProcess):
        # The process only forwards to its own callback: charge the layer
        # that owns the work.
        callback = owner.callback
    func = getattr(callback, "__func__", callback)
    func = getattr(func, "func", func)  # functools.partial
    return getattr(func, "__module__", None)


@contextlib.contextmanager
def instrument(ledger: Ledger) -> Iterator[List[str]]:
    """Install the ledger's wrappers on every entry point; undo on exit.

    Yields the entry points that no longer exist in the program, which go
    unmeasured.
    """
    installed: List[Tuple[type, str, Any]] = []

    def install(cls: type, name: str, make: Callable[[Callable], Callable],
                ) -> None:
        for target in _with_subclasses(cls):
            if name in target.__dict__:
                original = target.__dict__[name]
                installed.append((target, name, original))
                setattr(target, name, make(original))

    missing: List[str] = []
    try:
        for module, clsname, methods, layer, kind in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), clsname, None)
            for method in methods:
                if cls is None or not hasattr(cls, method):
                    missing.append(f"{module}.{clsname}.{method}")
                    continue
                label = f"{clsname}.{method}"
                if kind == "count":
                    install(cls, method, lambda fn, label=label:
                            ledger.counter(fn, label))
                else:
                    install(cls, method, lambda fn, layer=layer, label=label:
                            ledger.wrap(fn, layer, label))
        for module, clsname, method, layer, progress in PROGRESS_POINTS:
            cls = getattr(importlib.import_module(module), clsname, None)
            if cls is None or not hasattr(cls, method):
                missing.append(f"{module}.{clsname}.{method}")
                continue
            label = f"{clsname}.{method}"
            install(cls, method, lambda fn, layer=layer, label=label,
                    progress=progress: ledger.wrap(fn, layer, label,
                                                   progress))

        from repro.sim.engine import EventLoop

        module_layers: Dict[Optional[str], str] = {}

        def wrap_callback(callback: Any) -> Callable:
            module = _callback_module(callback)
            layer = module_layers.get(module)
            if layer is None:
                layer = module_layers[module] = layer_of(module)
            return ledger.wrap(callback, layer, f"callback:{layer}")

        def scheduler(original: Callable) -> Callable:
            timed = ledger.wrap(original, "sim",
                                f"EventLoop.{original.__name__}")

            def schedule(loop: Any, when: Any, callback: Any,
                         *args: Any, **kwargs: Any) -> Any:
                if not is_wrapped(callback):
                    callback = ledger.untraced(wrap_callback, callback)
                return timed(loop, when, callback, *args, **kwargs)
            return functools.update_wrapper(schedule, original)

        for method in ("call_at", "call_every"):
            install(EventLoop, method, scheduler)
        yield missing
    finally:
        for target, name, original in reversed(installed):
            setattr(target, name, original)
