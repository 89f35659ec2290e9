"""Declarative topology construction (the paper's Flow Rule Installer).

"Service chains can be configured during system startup using simple
configuration files or from an external orchestrator such as an SDN
controller" (§3.1).  :func:`build_topology` validates such a description
— a plain dict, or a JSON file via :func:`load_topology`; see
``examples/topologies/edge_gateway.json`` and ``docs/API.md`` — and
compiles it into a :class:`~repro.experiments.common.Scenario` (NFVnice
feature set) whose ``run(duration_s)`` returns a ``ScenarioResult``.

Unknown keys are rejected at every level; every error is a
:class:`TopologyError` whose message starts with the offending key path
(``nfs[0].cycles: ...``, ``flows[1].chain: ...``).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Set, Union

from repro.sim.clock import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import Scenario


class TopologyError(ValueError):
    """A malformed topology specification."""


def _fail(where: str, message: str) -> TopologyError:
    return TopologyError(f"{where or 'spec'}: {message}")


def _join(where: str, key: Any) -> str:
    return f"{where}.{key}" if where else str(key)


def _is(accept: Callable[[Any], bool], what: str,
        convert: Callable[[Any], Any] = lambda v: v) -> Callable:
    """A check returning ``convert(value)``, or raising at its path."""
    def check(value: Any, where: str) -> Any:
        if not accept(value):
            raise _fail(where, f"expected {what}, got {value!r}")
        return convert(value)
    return check


def _list_of(check: Callable) -> Callable:
    def check_list(value: Any, where: str) -> Any:
        _NONEMPTY_LIST(value, where)
        return [check(item, f"{where}[{i}]") for i, item in enumerate(value)]
    return check_list


_real = lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                  and -sys.float_info.max <= v <= sys.float_info.max)
_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
_POSITIVE = _is(lambda v: _real(v) and v > 0, "a positive number", float)
_NON_NEG = _is(lambda v: _real(v) and v >= 0, "a non-negative number", float)
_FRACTION = _is(lambda v: _real(v) and 0 <= v <= 1, "a number in [0, 1]",
                float)
_INDEX = _is(lambda v: _int(v) and v >= 0, "a non-negative integer")
_SIZE = _is(lambda v: _int(v) and v > 0, "a positive integer")
_NAME = _is(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_FLAG = _is(lambda v: isinstance(v, bool), "true or false")
_PROTOCOL = _is(lambda v: v in ("udp", "tcp"), "'udp' or 'tcp'")
_OBJECT = _is(lambda v: isinstance(v, dict), "an object")
_LIST = _is(lambda v: isinstance(v, list), "a list")
_NONEMPTY_LIST = _is(lambda v: isinstance(v, list) and v != [],
                     "a non-empty list")

#: Schemas: key -> (check, default); ``_REQUIRED`` marks mandatory keys.
_REQUIRED = object()
_TOP = {"scheduler": (_NAME, "BATCH"), "nfs": (_NONEMPTY_LIST, _REQUIRED),
        "chains": (_LIST, []), "slo_classes": (_OBJECT, {}),
        "flows": (_LIST, []), "faults": (_OBJECT, None)}
_NF = {"name": (_NAME, _REQUIRED), "cycles": (_POSITIVE, None),
       "cost": (_OBJECT, None), "core": (_INDEX, 0),
       "priority": (_POSITIVE, 1.0), "busy_loop": (_FLAG, False)}
_CHAIN = {"name": (_NAME, _REQUIRED), "nfs": (_list_of(_NAME), _REQUIRED)}
_FLOW = {"id": (_NAME, _REQUIRED), "chain": (_NAME, _REQUIRED),
         "rate_pps": (_NON_NEG, None), "line_rate_fraction": (_FRACTION, None),
         "pkt_size": (_SIZE, 64), "protocol": (_PROTOCOL, "udp"),
         "slo_class": (_NAME, None), "start_s": (_NON_NEG, 0.0),
         "stop_s": (_NON_NEG, None), "pattern": (_NAME, "cbr")}
#: cost kind -> (cost model class, schema of its parameters in the
#: constructor's positional order); "fixed" compiles to a plain cycle count.
_COSTS = {
    "fixed": (None, {"cycles": (_POSITIVE, _REQUIRED)}),
    "choice": ("ChoiceCost", {"values": (_list_of(_POSITIVE), _REQUIRED),
                              "probabilities": (_list_of(_NON_NEG), None)}),
    "normal": ("NormalCost", {"mean": (_POSITIVE, _REQUIRED),
                              "std": (_NON_NEG, _REQUIRED)}),
    "uniform": ("UniformCost", {"low": (_POSITIVE, _REQUIRED),
                                "high": (_POSITIVE, _REQUIRED)}),
    "exponential": ("ExponentialCost", {"mean": (_POSITIVE, _REQUIRED)}),
}
_COST_KIND = _is(lambda v: isinstance(v, str) and v in _COSTS,
                 f"a cost kind, one of {sorted(_COSTS)}")


def _parse(value: Any, where: str, schema: Dict[str, Any]) -> Dict[str, Any]:
    """Every key of ``schema`` checked (or defaulted); unknown keys fail."""
    _OBJECT(value, where)
    for key in value:
        if key not in schema:
            raise _fail(_join(where, key),
                        f"unknown key; expected one of {sorted(schema)}")
    out: Dict[str, Any] = {}
    for key, (check, default) in schema.items():
        if key in value:
            out[key] = check(value[key], _join(where, key))
        elif default is _REQUIRED:
            raise _fail(_join(where, key), "required key is missing")
        else:
            out[key] = default
    return out


@contextmanager
def _at(where: str) -> Iterator[None]:
    """Re-raise a builder's ``ValueError`` as a :class:`TopologyError`."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise _fail(where, str(exc)) from exc


def _build_cost(spec: Dict[str, Any], where: str, rng: Any) -> Any:
    # Imported lazily: the nfs package's catalog depends on repro.core.nf,
    # which in turn imports repro.platform.
    from repro.nfs import cost_models

    kind = _COST_KIND(spec.get("kind", "fixed"), f"{where}.kind")
    model, schema = _COSTS[kind]
    params = _parse(spec, where, {"kind": (_COST_KIND, kind), **schema})
    if model is None:
        return params["cycles"]
    with _at(where):
        return getattr(cost_models, model)(*[params[k] for k in schema],
                                           rng=rng)


def build_topology(spec: Dict[str, Any], seed: int = 0) -> "Scenario":
    """Validate ``spec`` and compile it into a ``Scenario``."""
    # Imported here: repro.experiments.common builds on repro.core.nf,
    # which itself depends on repro.platform.
    from repro.experiments.common import Scenario
    from repro.faults.plan import FaultPlan
    from repro.sched import make_scheduler

    top = _parse(spec, "", _TOP)
    with _at("scheduler"):
        make_scheduler(top["scheduler"])
    scenario = Scenario(scheduler=top["scheduler"], features="NFVnice",
                        seed=seed)
    for i, raw in enumerate(top["nfs"]):
        where = f"nfs[{i}]"
        nf = _parse(raw, where, _NF)
        if (nf["cycles"] is None) == (nf["cost"] is None):
            raise _fail(where, "needs exactly one of 'cycles' or 'cost'")
        cost = nf["cycles"] or _build_cost(
            nf["cost"], f"{where}.cost",
            scenario.rng_factory.stream(f"cost-{nf['name']}"))
        with _at(where):
            scenario.add_nf(nf["name"], cost, core=nf["core"],
                            priority=nf["priority"], busy_loop=nf["busy_loop"])

    nf_names = {nf.name for nf in scenario.manager.nfs}
    for i, raw in enumerate(top["chains"]):
        chain = _parse(raw, f"chains[{i}]", _CHAIN)
        for j, member in enumerate(chain["nfs"]):
            if member not in nf_names or member in chain["nfs"][:j]:
                raise _fail(f"chains[{i}].nfs[{j}]",
                            f"unknown or repeated NF {member!r}")
        with _at(f"chains[{i}]"):
            scenario.add_chain(chain["name"], chain["nfs"])

    for name, slo_us in top["slo_classes"].items():
        where = _join("slo_classes", name)
        scenario.add_slo_class(_NAME(name, where), _POSITIVE(slo_us, where))

    flow_ids: Set[str] = set()
    for i, raw in enumerate(top["flows"]):
        where = f"flows[{i}]"
        flow = _parse(raw, where, _FLOW)
        if flow["id"] in flow_ids:
            raise _fail(f"{where}.id", f"duplicate flow id {flow['id']!r}")
        flow_ids.add(flow["id"])
        if flow["chain"] not in scenario.manager.chains:
            raise _fail(f"{where}.chain", f"unknown chain {flow['chain']!r}")
        if (flow["rate_pps"] is None) == (flow["line_rate_fraction"] is None):
            raise _fail(where, "needs exactly one of 'rate_pps' or "
                        "'line_rate_fraction'")
        if flow["slo_class"] not in (None, *top["slo_classes"]):
            raise _fail(f"{where}.slo_class",
                        f"undeclared SLO class {flow['slo_class']!r}")
        stop_s = flow["stop_s"]
        with _at(where):
            scenario.add_flow(
                flow["id"], flow["chain"], rate_pps=flow["rate_pps"],
                line_rate_fraction=flow["line_rate_fraction"],
                pkt_size=flow["pkt_size"], protocol=flow["protocol"],
                slo_class=flow["slo_class"], pattern=flow["pattern"],
                start_ns=int(flow["start_s"] * SEC),
                stop_ns=None if stop_s is None else int(stop_s * SEC))

    if top["faults"] is not None:
        with _at("faults"):
            plan = FaultPlan.from_dict(top["faults"])
            scenario.attach_faults(plan)
        cores = {str(core_id) for core_id in scenario.manager.cores}
        for i, fault in enumerate(plan.specs):
            known = cores if fault.kind == "core_fail" else nf_names
            if fault.target not in known:
                raise _fail(f"faults.specs[{i}].target",
                            f"unknown target {fault.target!r}")
    return scenario


def load_topology(path: Union[str, Path], seed: int = 0) -> "Scenario":
    """:func:`build_topology` over a JSON file; an unreadable file or
    malformed JSON raises :class:`TopologyError` naming the file."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise _fail(str(path), f"cannot read topology: {exc}") from exc
    return build_topology(spec, seed=seed)
