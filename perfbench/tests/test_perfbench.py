"""Self-tests for the benchmark's own code (not part of the simulator suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import pkgutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def spans(led, tree):
    """A wrapped function per node of ``tree``: ``(layer, name, children)``;
    calling the root calls every child in order, depth first."""
    layer, name, children = tree
    kids = [spans(led, child) for child in children]

    def body():
        for kid in kids:
            kid()
    return led.wrap(body, layer, name)


def test_nested_spans_self_time():
    # root [0, 100] > child [10, 40] > grandchild [20, 30]
    led = ledger.Ledger(clock=fake_clock(0, 10, 20, 30, 40, 100))
    spans(led, ("experiments", "root", [
        ("sim", "child", [("nf", "grandchild", [])])]))()
    assert led.raw_self_ns["experiments"] == 70
    assert led.raw_self_ns["sim"] == 20
    assert led.raw_self_ns["nf"] == 10
    assert led.total_ns == {"root": 100, "child": 30, "grandchild": 10}


def test_sibling_spans_self_time():
    # root [0, 100] > a [10, 30], b [50, 90]; a and b in different layers
    led = ledger.Ledger(clock=fake_clock(0, 10, 30, 50, 90, 100))
    spans(led, ("experiments", "root", [("platform", "a", []),
                                        ("sched", "b", [])]))()
    assert led.raw_self_ns["experiments"] == 40
    assert led.raw_self_ns["platform"] == 20
    assert led.raw_self_ns["sched"] == 40
    assert sum(led.raw_self_ns.values()) == led.total_ns["root"] == 100
    assert led.calls == {"root": 1, "a": 1, "b": 1}


def test_same_layer_nesting_is_not_counted_twice():
    led = ledger.Ledger(clock=fake_clock(0, 5, 15, 20, 30, 50))
    spans(led, ("platform", "outer", [("nf", "leaf", []),
                                      ("platform", "inner", [])]))()
    assert led.raw_self_ns["nf"] == 10
    assert led.raw_self_ns["platform"] == (50 - 10 - 10) + 10
    assert sum(led.raw_self_ns.values()) == 50


def test_calibrated_span_cost_is_moved_out_of_self_time():
    own, parent = 1, 2
    led = ledger.Ledger(clock=fake_clock(0, 10, 30, 50, 90, 100))
    spans(led, ("experiments", "root", [("platform", "a", []),
                                        ("sched", "b", [])]))()
    self_ns = led.self_times(own, parent)
    assert self_ns["platform"] == 20 - own
    assert self_ns["experiments"] == 40 - own - 2 * parent
    # The span costs close the ledger against the root duration.
    assert sum(self_ns.values()) + led.overhead_ns(own, parent) == 100


def test_untraced_time_is_charged_to_tracing():
    led = ledger.Ledger(clock=fake_clock(0, 10, 40, 100))
    root = led.wrap(lambda: led.untraced(lambda x: x + 1, 1), "sim", "root")
    assert root() == 2
    assert led.raw_self_ns["sim"] == 70
    assert led.untraced_ns == 30
    assert sum(led.raw_self_ns.values()) + led.overhead_ns(0, 0) == 100


def test_progress_counts_useful_calls():
    class Poller:
        moved = 0

        def poll(self, step):
            self.moved += step

    led = ledger.Ledger()
    poll = led.wrap(Poller.poll, "platform", "Poller.poll",
                    lambda p: p.moved)
    p = Poller()
    for step in (0, 1, 0, 2):
        poll(p, step)
    assert led.calls["Poller.poll"] == 4
    assert led.useful["Poller.poll"] == 2


def test_calibrate_reports_non_negative_costs():
    own, parent = ledger.calibrate(calls=2_000, trials=3)
    assert own >= 0 and parent > 0


# ----------------------------------------------------------------------
# Layer map closure
# ----------------------------------------------------------------------
def test_every_simulator_module_maps_to_exactly_one_layer():
    import repro

    names = ["repro"] + [m.name for m in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")]
    assert len(names) > 50
    assert ledger.unmapped_modules(names) == []
    assert set(ledger.MODULE_LAYERS.values()) == set(ledger.LAYERS)


def test_unmapped_or_ambiguous_modules_are_reported():
    assert ledger.unmapped_modules(
        ["repro.newlayer", "repro.core.newmodule", "numpy", "repro.sim.x"]
    ) == ["repro.core.newmodule", "repro.newlayer"]
    saved = dict(ledger.MODULE_LAYERS)
    try:
        ledger.MODULE_LAYERS["repro.sim.engine"] = "platform"
        assert ledger.unmapped_modules(["repro.sim.engine"]) == \
            ["repro.sim.engine"]
    finally:
        ledger.MODULE_LAYERS.clear()
        ledger.MODULE_LAYERS.update(saved)


# ----------------------------------------------------------------------
# failed_frac accounting
# ----------------------------------------------------------------------
class FakeScenario:
    def __init__(self, value):
        self.value = value

    def run(self, sim_s):
        if self.value is None:
            raise RuntimeError("boom")
        return self.value


def fake_case(name, value):
    return workloads.Case(name, 0.1, lambda: FakeScenario(value))


def test_failed_cases_are_counted_and_named():
    cases = [fake_case("good", "d1"), fake_case("raises", None),
             fake_case("drifts", "other")]
    reference = {"good": "d1", "raises": "d2", "drifts": "d3"}
    tally = run.Tally()
    runs = run.repetition(cases, reference, tally, export=lambda r: r,
                          digest=lambda v: v)
    assert [r.case for r in runs] == ["good", "drifts"]
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)
    assert tally.errors[0].startswith("raises: raised")
    assert tally.errors[1] == ("drifts: digest other differs from "
                               "reference d3")
    run.repetition(cases[:1], reference, tally, lambda r: r, lambda v: v)
    assert tally.failed_frac == pytest.approx(2 / 4)


def test_end_to_end_metrics_are_medians_over_repetitions():
    def rep(*run_s):
        return (sum(run_s), [run.CaseRun(f"c{i}", 1.0, 0.01, s, s + 0.01,
                                         "d") for i, s in enumerate(run_s)])

    reps = [rep(1.0, 1.0), rep(2.0, 2.0), rep(1.0, 3.0)]
    metrics = run.end_to_end(reps, import_s=[0.3, 0.1, 0.2])
    assert metrics["sim_s_per_host_s"] == (0.5, "s/s", 3)
    assert metrics["case_wall_max_s"][0] == pytest.approx(2.01)
    assert metrics["setup_s"][0] == pytest.approx(0.2 + 0.02)
    assert metrics["peak_rss_mb"][0] > 0


# ----------------------------------------------------------------------
# Default-configuration guard
# ----------------------------------------------------------------------
def test_repro_overrides_are_refused(monkeypatch, capsys):
    assert run.repro_overrides({"REPRO_ENGINE": "heap", "PATH": "/bin",
                                "REPRO_X": "1"}) == ["REPRO_ENGINE",
                                                     "REPRO_X"]
    monkeypatch.setenv("REPRO_ENGINE", "heap")
    code = run.main(["--workload", "chain_linerate", "--seed", "0",
                     "--seconds", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "REPRO_ENGINE" in out.err


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_follow_the_seed(name):
    make = workloads.WORKLOADS[name]
    first, again, other = make(3), make(3), make(4)
    assert [c.params for c in first] == [c.params for c in again]
    assert [c.params for c in first] != [c.params for c in other]
    assert len({c.name for c in first}) == len(first)


def test_rates_stay_in_their_bands():
    lo, hi = workloads.RATE_BANDS["line_rate_fraction"]
    for case in workloads.chain_linerate(7):
        assert lo <= case.params["line_rate_fraction"] <= hi
    lo, hi = workloads.RATE_BANDS["crowd_pps"]
    for case in workloads.cluster_flash(7):
        assert all(lo <= r <= hi for r in case.params["crowd_pps"])
        starts = case.params["crowd_start_ns"]
        assert all(b - a > 35 * workloads.MSEC
                   for a, b in zip(starts, starts[1:]))


# ----------------------------------------------------------------------
# Tracing leaves results untouched
# ----------------------------------------------------------------------
def tiny_chain():
    from repro.experiments.common import Scenario, build_linear_chain

    scenario = Scenario(scheduler="NORMAL", features="NFVnice", seed=5,
                        telemetry=True)
    build_linear_chain(scenario, (120.0, 550.0), core=0)
    scenario.add_flow("flow", "chain", line_rate_fraction=1.0,
                      pattern="poisson")
    return scenario


def tiny_cluster():
    from repro.cluster.scenario import ClusterScenario

    scenario = ClusterScenario(n_hosts=2, seed=5)
    scenario.add_slo_class("gold", 500.0)
    scenario.set_chain("svc", (500.0, 800.0), slo_us=500.0)
    scenario.enable_autoscaler(slots=[(0, 1), (1, 0)], period_ns=2_000_000,
                               cooldown_ns=5_000_000)
    for i in range(3):
        scenario.add_flow(f"f{i}", rate_pps=900_000.0, slo_class="gold",
                          start_ns=i * 5_000_000)
    return scenario


def digest(scenario, sim_s):
    from repro.analysis.export import result_to_dict
    from repro.runner.digest import digest_of

    return digest_of(result_to_dict(scenario.run(sim_s)))


@pytest.mark.parametrize("build,sim_s,span", [
    (tiny_chain, 0.01, "NFProcess.execute"),
    (tiny_cluster, 0.03, "FabricLink.send"),
])
def test_traced_run_digests_like_a_plain_run(build, sim_s, span):
    from repro.platform.ring import PacketRing

    plain = digest(build(), sim_s)
    original = PacketRing.__dict__["enqueue"]
    led = ledger.Ledger()
    with ledger.instrument(led):
        assert PacketRing.__dict__["enqueue"] is not original
        traced = digest(build(), sim_s)
    assert PacketRing.__dict__["enqueue"] is original
    assert traced == plain
    assert led.calls[span] > 0
    assert led.calls["EventLoop.run_until"] == 1
    assert led.raw_self_ns["sim"] > 0 and led.raw_self_ns["platform"] > 0


def test_missing_entry_points_are_reported_not_fatal(monkeypatch):
    from repro.sim.engine import EventLoop

    monkeypatch.setattr(ledger, "ENTRY_POINTS", ledger.ENTRY_POINTS + (
        ("repro.sim.engine", "EventLoop", ("no_such_method",), "sim",
         "span"),))
    with ledger.instrument(ledger.Ledger()) as missing:
        assert missing == ["repro.sim.engine.EventLoop.no_such_method"]
        assert ledger.is_wrapped(EventLoop.run_until)
    assert not ledger.is_wrapped(EventLoop.run_until)
