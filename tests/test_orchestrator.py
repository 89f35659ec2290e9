"""Tests for declarative topology construction (Flow Rule Installer)."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import Scenario, ScenarioResult
from repro.platform.orchestrator import (
    TopologyError,
    build_topology,
    load_topology,
)
from repro.sim.clock import SEC


def minimal_spec():
    return {
        "scheduler": "BATCH",
        "nfs": [
            {"name": "fw", "cycles": 550, "core": 0},
            {"name": "nat", "cycles": 270, "core": 0},
        ],
        "chains": [{"name": "edge", "nfs": ["fw", "nat"]}],
        "flows": [{"id": "f0", "chain": "edge", "rate_pps": 1e6}],
    }


class TestBuild:
    def test_builds_and_runs(self):
        topo = build_topology(minimal_spec())
        result = topo.run(0.2)
        assert isinstance(result, ScenarioResult)
        assert result.chain("edge").completed > 100_000
        assert topo.generator.specs[0].flow.stats.offered > 0

    def test_nf_attributes(self):
        spec = minimal_spec()
        spec["nfs"][0]["priority"] = 2.5
        topo = build_topology(spec)
        nf = topo.manager.nf_by_name("fw")
        assert nf.priority == 2.5
        # FixedCost folded with framework overhead.
        assert nf.cost_model.mean_cycles == pytest.approx(
            550 + topo.manager.config.nf_overhead_cycles)

    def test_stochastic_cost_spec(self):
        spec = minimal_spec()
        spec["nfs"][1] = {"name": "nat", "core": 0,
                          "cost": {"kind": "choice",
                                   "values": [120, 270, 550]}}
        topo = build_topology(spec)
        nf = topo.manager.nf_by_name("nat")
        assert nf.cost_model.mean_cycles == pytest.approx(
            (120 + 270 + 550) / 3 + topo.manager.config.nf_overhead_cycles)

    def test_all_cost_kinds(self):
        for cost in (
            {"kind": "normal", "mean": 500, "std": 50},
            {"kind": "uniform", "low": 100, "high": 200},
            {"kind": "exponential", "mean": 800},
        ):
            spec = minimal_spec()
            spec["nfs"][0] = {"name": "fw", "core": 0, "cost": cost}
            build_topology(spec)

    def test_line_rate_fraction_flow(self):
        spec = minimal_spec()
        spec["flows"][0] = {"id": "f0", "chain": "edge",
                            "line_rate_fraction": 0.5}
        topo = build_topology(spec)
        assert topo.generator.specs[0].rate_pps == pytest.approx(
            14.88e6 / 2, rel=0.01)

    def test_flow_window(self):
        spec = minimal_spec()
        spec["flows"][0]["start_s"] = 1.0
        spec["flows"][0]["stop_s"] = 2.0
        topo = build_topology(spec)
        fs = topo.generator.specs[0]
        assert fs.start_ns == SEC and fs.stop_ns == 2 * SEC

    def test_deterministic_given_seed(self):
        spec = minimal_spec()
        spec["nfs"][1] = {"name": "nat", "core": 0,
                          "cost": {"kind": "exponential", "mean": 300}}
        t1 = build_topology(spec, seed=3)
        t2 = build_topology(spec, seed=3)
        t1.run(0.1)
        t2.run(0.1)
        assert t1.manager.chains["edge"].completed == \
            t2.manager.chains["edge"].completed


def _set(spec, path, value):
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _dup_flow(spec):
    spec["flows"].append(dict(spec["flows"][0], rate_pps=5.0))


def _dup_nf(spec):
    spec["nfs"].append(dict(spec["nfs"][0]))


class TestValidation:
    def test_not_a_dict(self):
        with pytest.raises(TopologyError):
            build_topology([])

    def test_no_nfs(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": []})

    def test_nf_without_name(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": [{"cycles": 100}]})

    def test_nf_without_cost(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": [{"name": "x"}]})

    def test_unknown_cost_kind(self):
        with pytest.raises(TopologyError):
            build_topology({"nfs": [{"name": "x",
                                     "cost": {"kind": "quantum"}}]})

    def test_chain_references_unknown_nf(self):
        spec = minimal_spec()
        spec["chains"][0]["nfs"] = ["fw", "ghost"]
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_flow_references_unknown_chain(self):
        spec = minimal_spec()
        spec["flows"][0]["chain"] = "ghost"
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_flow_without_rate(self):
        spec = minimal_spec()
        del spec["flows"][0]["rate_pps"]
        with pytest.raises(TopologyError):
            build_topology(spec)

    @pytest.mark.parametrize("mutate, prefix", [
        (lambda s: _set(s, ("nfs", 0, "cycles"), "abc"), "nfs[0].cycles: "),
        (lambda s: _set(s, ("nfs", 0, "cycles"), float("nan")),
         "nfs[0].cycles: "),
        (lambda s: _set(s, ("nfs", 0, "core"), "x"), "nfs[0].core: "),
        (lambda s: _set(s, ("nfs", 0, "core"), -1), "nfs[0].core: "),
        (lambda s: _set(s, ("nfs", 0, "colour"), "red"), "nfs[0].colour: "),
        (lambda s: _set(s, ("nfs", 0), "fw"), "nfs[0]: "),
        (lambda s: _set(s, ("nfs", 1), {"name": "nat", "cost": {
            "kind": "choice", "values": []}}), "nfs[1].cost.values: "),
        (lambda s: _set(s, ("nfs", 1), {"name": "nat", "cost": {
            "kind": "choice", "values": [1, 2],
            "probabilities": [1.5, -0.5]}}),
         "nfs[1].cost.probabilities[1]: "),
        (lambda s: _set(s, ("nfs", 1), {"name": "nat", "cost": {
            "kind": "uniform", "low": 9, "high": 3}}), "nfs[1].cost: "),
        (_dup_nf, "nfs[2]: "),
        (lambda s: _set(s, ("chains",), {"edge": ["fw"]}), "chains: "),
        (lambda s: _set(s, ("chains", 0, "nfs"), ["fw", "fw"]),
         "chains[0].nfs[1]: "),
        (lambda s: _set(s, ("flows", 0, "chain"), ["c"]),
         "flows[0].chain: "),
        (lambda s: _set(s, ("flows", 0, "stop_s"), -1), "flows[0].stop_s: "),
        (lambda s: _set(s, ("flows", 0, "pattern"), "sawtooth"),
         "flows[0]: "),
        (lambda s: _set(s, ("flows", 0, "slo_class"), "gold"),
         "flows[0].slo_class: "),
        (_dup_flow, "flows[1].id: "),
        (lambda s: _set(s, ("flws",), []), "flws: "),
        (lambda s: _set(s, ("scheduler",), "FIFO"), "scheduler: "),
        (lambda s: _set(s, ("slo_classes",), {"gold": 0}),
         "slo_classes.gold: "),
        (lambda s: _set(s, ("faults",), {"specs": [{"kind": "melt"}]}),
         "faults: "),
        (lambda s: _set(s, ("faults",), {"specs": [
            {"kind": "crash", "target": "ghost", "at_s": 0.1}]}),
         "faults.specs[0].target: "),
        (lambda s: _set(s, ("flows", 0), {"id": "f0", "chain": "edge",
                                          "line_rate_fraction": 1e300}),
         "flows[0].line_rate_fraction: "),
    ])
    def test_error_names_key_path(self, mutate, prefix):
        spec = minimal_spec()
        mutate(spec)
        with pytest.raises(TopologyError) as info:
            build_topology(spec)
        assert str(info.value).startswith(prefix), str(info.value)


def test_load_topology_json(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(minimal_spec()))
    topo = load_topology(path)
    assert isinstance(topo, Scenario)
    assert "edge" in topo.manager.chains


def test_load_topology_unreadable(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text("{not json")
    with pytest.raises(TopologyError, match=f"^{path}: cannot read"):
        load_topology(path)
    with pytest.raises(TopologyError, match="cannot read"):
        load_topology(tmp_path / "missing.json")


def test_slo_classes_and_faults_compile():
    spec = minimal_spec()
    spec["slo_classes"] = {"gold": 250}
    spec["flows"][0]["slo_class"] = "gold"
    spec["faults"] = {"specs": [{"kind": "crash", "target": "nat",
                                 "at_s": 0.01}]}
    topo = build_topology(spec)
    assert topo.generator.specs[0].flow.slo_ns == 250_000
    result = topo.run(0.05)
    assert result.resilience["injected"] == 1


def _rich_spec():
    spec = minimal_spec()
    spec["nfs"].append({"name": "dpi", "core": 1, "priority": 2.0,
                        "cost": {"kind": "choice", "values": [100, 900],
                                 "probabilities": [0.8, 0.2]}})
    spec["chains"].append({"name": "deep", "nfs": ["fw", "dpi"]})
    spec["slo_classes"] = {"gold": 300}
    spec["flows"].append({"id": "f1", "chain": "deep",
                          "line_rate_fraction": 0.2, "pkt_size": 128,
                          "protocol": "tcp", "pattern": "poisson",
                          "slo_class": "gold", "start_s": 0.0,
                          "stop_s": 0.01})
    spec["faults"] = {"specs": [{"kind": "hang", "target": "dpi",
                                 "at_s": 0.0002, "duration_s": 0.0003}]}
    return spec


def _locations(node, path=()):
    """Every (parent path, key) in the spec tree, root excluded."""
    keys = (list(node) if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield path, key
        yield from _locations(node[key], path + (key,))


def _node(spec, path):
    for key in path:
        spec = spec[key]
    return spec


_ODD_VALUES = [None, True, 0, -1, -2.5, 3, 0.5, "x", "", [], {}, ["fw"],
               {"bogus": 1}, float("nan")]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_specs_fail_cleanly_or_run(data):
    """Random mutations either raise TopologyError or build a Scenario
    that runs without an exception."""
    spec = _rich_spec()
    for _ in range(data.draw(st.integers(1, 3))):
        path, key = data.draw(st.sampled_from(list(_locations(spec))))
        parent = _node(spec, path)
        op = data.draw(st.sampled_from(
            ["drop", "retype", "duplicate", "unknown", "negate"]))
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(
                _ODD_VALUES)))
        elif op == "duplicate":
            if isinstance(parent, list):
                parent.append(copy.deepcopy(parent[key]))
            else:
                other = data.draw(st.sampled_from(sorted(parent)))
                parent[other] = copy.deepcopy(parent[key])
        elif op == "unknown":
            target = parent if isinstance(parent, dict) else spec
            target["bogus"] = 1
        elif isinstance(parent[key], (int, float)):
            parent[key] = -parent[key]
    try:
        scenario = build_topology(spec, seed=1)
    except TopologyError:
        return
    scenario.run(0.001)
