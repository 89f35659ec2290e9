"""The baseline gate harness (``benchmarks/gates.py``), driven by
synthetic observations: nothing here runs the simulator."""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from benchmarks import gates
from repro.runner.baseline import regressed

BENCH = Path(gates.BENCH_DIR)
FIELDS = {"id", "kind", "baseline", "observed", "bound", "verdict"}


def committed(name: str) -> dict:
    return json.loads((BENCH / gates.GATES[name].baseline).read_text())


def clean(name: str) -> dict:
    """The observation a run matching the committed baseline makes."""
    data = committed(name)
    if name == "perf":
        return {
            "calibration": data["calibration"],
            "digests": {g: e["digest"] for g, e in data["experiments"].items()},
            "walls": {g: [e["wall_s"]] for g, e in data["experiments"].items()},
            "record": {g: {k: e[k] for k in ("cases", "duration_s", "events",
                                             "peak_pending")}
                       for g, e in data["experiments"].items()},
        }
    gate = gates.GATES[name]
    (exp_id,) = gate.experiments
    entry = data["experiments"][exp_id]
    obs = {"digests": {exp_id: entry["digest"]},
           "record": {exp_id: {"sim_seconds": entry["sim_seconds"],
                               "tasks": entry["tasks"]}}}
    if gate.metric_key:
        obs["metrics"] = dict(data[gate.metric_key])
    if name == "cluster":
        obs["facts"] = {"flash.h2.auto.scale_outs": 1}
    return obs


def evaluate(name: str, obs: dict, data=None, **changes) -> dict:
    gate = dataclasses.replace(gates.GATES[name], **changes)
    data = committed(name) if data is None else data
    return {c["id"]: c for c in gates.evaluate(gate, obs,
                                               gate.view(gate, data))}


def failed(checks: dict) -> list:
    return sorted(cid for cid, c in checks.items() if c["verdict"] == "fail")


@pytest.mark.parametrize("name", ["chaos", "slo", "cluster", "perf"])
def test_committed_baseline_passes_its_own_observation(name):
    checks = evaluate(name, clean(name))
    assert failed(checks) == []
    for check in checks.values():
        assert FIELDS <= set(check)


def test_table_covers_every_old_check():
    ids = {name: set(evaluate(name, clean(name)))
           for name in ("chaos", "slo", "cluster", "perf")}
    assert sum(i.startswith("slo.p99.") for i in ids["slo"]) == 18
    assert sum(i.startswith("cluster.p99.") for i in ids["cluster"]) == 12
    assert {"slo.edf_beats_normal_gold_p99", "cluster.flash_h2_scales_out",
            "cluster.auto_beats_static_flash.h2",
            "cluster.auto_beats_static_flash.h4",
            "cluster.auto_beats_static_flash.h8"} <= ids["slo"] | ids["cluster"]
    for grid in gates.PERF_GRIDS:
        assert {f"perf.{grid}.digest", f"perf.{grid}.wall"} <= ids["perf"]
    assert "chaos.chaos_recovery.digest" in ids["chaos"]


# -- exact ------------------------------------------------------------------
def test_one_changed_hex_digit_fails_the_digest():
    obs = clean("slo")
    digest = obs["digests"]["slo_battery"]
    obs["digests"]["slo_battery"] = digest[:-1] + ("0" if digest[-1] != "0"
                                                   else "1")
    checks = evaluate("slo", obs)
    assert failed(checks) == ["slo.slo_battery.digest"]
    check = checks["slo.slo_battery.digest"]
    assert check["baseline"] == digest
    assert check["observed"] == obs["digests"]["slo_battery"]
    assert check["detail"] == "result digest drift"


def test_duration_mismatch_names_both_values():
    checks = evaluate("chaos", clean("chaos"), duration=0.2)
    assert failed(checks) == ["chaos.duration"]
    check = checks["chaos.duration"]
    assert check["observed"] == 0.2
    assert check["baseline"]["chaos_recovery"] == pytest.approx(0.1)
    assert "0.2" in check["detail"] and "0.1" in check["detail"]


# -- metric -----------------------------------------------------------------
@pytest.mark.parametrize("base, observed, fails", [
    (9.90625, 10.90625, True),          # +10.1%, +1.0 us
    (8.90625, 8.90625 + 0.9, False),    # +10.1%, +0.9 us: under the floor
    (100.0, 110.0, False),              # +10.0%: not more than 10%
])
def test_p99_cell_needs_both_relative_and_absolute_growth(base, observed,
                                                          fails):
    data, obs = committed("slo"), clean("slo")
    data["slo_p99_us"]["bulk.flash.EDF"] = base
    obs["metrics"]["bulk.flash.EDF"] = observed
    checks = evaluate("slo", obs, data)
    assert failed(checks) == (["slo.p99.bulk.flash.EDF"] if fails else [])
    check = checks["slo.p99.bulk.flash.EDF"]
    assert (check["baseline"], check["observed"]) == (base, observed)
    assert check["bound"] == {"rel_tol": 0.10, "abs_floor": 1.0}


def test_missing_cell_fails():
    obs = clean("cluster")
    del obs["metrics"]["mmpp.h4.static"]
    checks = evaluate("cluster", obs)
    assert failed(checks) == ["cluster.p99.mmpp.h4.static"]
    assert checks["cluster.p99.mmpp.h4.static"]["detail"] == "missing from run"


def test_extra_cell_fails_with_no_baseline():
    obs = clean("slo")
    obs["metrics"]["gold.steady.EDF"] = 50.0
    checks = evaluate("slo", obs)
    assert failed(checks) == ["slo.p99.gold.steady.EDF"]
    assert checks["slo.p99.gold.steady.EDF"]["detail"] == gates.NO_BASELINE


def test_unbaselined_perf_grid_fails_by_name():
    data = committed("perf")
    del data["experiments"]["fig16"]
    checks = evaluate("perf", clean("perf"), data)
    assert failed(checks) == ["perf.fig16.digest", "perf.fig16.wall"]
    assert checks["perf.fig16.wall"]["detail"] == gates.NO_BASELINE


# -- wall -------------------------------------------------------------------
def test_perf_wall_is_least_pass_against_calibrated_budget():
    data, obs = committed("perf"), clean("perf")
    base = data["experiments"]["fig07"]["wall_s"]
    obs["walls"]["fig07"] = [base * 1.3, base * 1.2]
    check = evaluate("perf", obs, data)["perf.fig07.wall"]
    assert check["verdict"] == "pass"
    assert check["observed"] == base * 1.2
    assert check["bound"] == pytest.approx(base * 1.25)
    assert check["samples"] == obs["walls"]["fig07"]
    assert check["calibration"] == {"baseline": data["calibration"],
                                    "observed": data["calibration"]}

    obs["walls"]["fig07"] = [base * 1.3, base * 1.26]
    assert failed(evaluate("perf", obs, data)) == ["perf.fig07.wall"]
    # A machine half as fast doubles the budget (symmetric scale) ...
    obs["calibration"] = data["calibration"] / 2
    assert failed(evaluate("perf", obs, data)) == []
    # ... and one twice as fast halves it.
    obs["calibration"] = data["calibration"] * 2
    obs["walls"]["fig07"] = [base * 0.7]
    assert "perf.fig07.wall" in failed(evaluate("perf", obs, data))


def test_overhead_bounds_and_telemetry_digest_invariance():
    obs = {"walls": {"bus": [1.07, 1.04], "telemetry": [1.12, 1.11]},
           "invariants": {"telemetry_digest": ["a" * 64, "a" * 64]}}
    checks = evaluate("overhead", obs, {})
    assert failed(checks) == ["overhead.telemetry.wall"]
    assert checks["overhead.bus.wall"]["bound"] == pytest.approx(1.05)
    assert checks["overhead.telemetry.wall"]["bound"] == pytest.approx(1.10)
    assert checks["overhead.telemetry.wall"]["samples"] == [1.12, 1.11]
    obs["invariants"]["telemetry_digest"][1] = "b" * 64
    assert "overhead.telemetry_digest" in failed(evaluate("overhead", obs, {}))


# -- invariant and predicate ------------------------------------------------
def test_campaign_worker_digests_and_roundtrip():
    obs = {"invariants": {f"{e}.workers": ["d" * 64, "d" * 64]
                          for e in gates.GATES["campaign"].experiments},
           "facts": {"roundtrip": []}}
    assert failed(evaluate("campaign", obs, {})) == []
    obs["invariants"]["fig09.workers"][1] = "e" * 64
    obs["facts"]["roundtrip"] = ["tab05: result digest drift"]
    checks = evaluate("campaign", obs, {})
    assert failed(checks) == ["campaign.fig09.workers", "campaign.roundtrip"]
    assert checks["campaign.roundtrip"]["observed"] == [
        "tab05: result digest drift"]


def test_lost_edf_crossover_fails():
    obs = clean("slo")
    for workload in ("bursty", "flash", "mixed"):
        obs["metrics"][f"gold.{workload}.EDF"] = obs["metrics"][
            f"gold.{workload}.NORMAL"]
    data = committed("slo")
    data["slo_p99_us"] = dict(obs["metrics"])
    checks = evaluate("slo", obs, data)
    assert failed(checks) == ["slo.edf_beats_normal_gold_p99"]
    assert checks["slo.edf_beats_normal_gold_p99"]["observed"]["mixed"] == {
        "EDF": 6194.258, "NORMAL": 6194.258}


def test_cluster_predicates_fail_one_by_one():
    obs = clean("cluster")
    obs["metrics"]["flash.h4.auto"] = 200.0
    obs["facts"]["flash.h2.auto.scale_outs"] = 0
    data = committed("cluster")
    data["cluster_gold_p99_us"]["flash.h4.auto"] = 200.0
    assert failed(evaluate("cluster", obs, data)) == [
        "cluster.auto_beats_static_flash.h4", "cluster.flash_h2_scales_out"]


# -- the runner -------------------------------------------------------------
def stub(name: str, obs: dict) -> gates.Gate:
    return dataclasses.replace(gates.GATES[name],
                               measure=lambda gate: copy.deepcopy(obs))


def test_write_then_check_keeps_keys_the_gate_does_not_own(tmp_path):
    shutil.copy(BENCH / "BENCH_perf.json", tmp_path)
    reference = committed("perf")["reference"]
    obs = clean("perf")
    obs["digests"]["fig09"] = "f" * 64
    obs["walls"]["fig09"] = [9.0, 8.0]

    checked = gates.run_gate(stub("perf", obs), bench_dir=str(tmp_path))
    assert failed({c["id"]: c for c in checked["checks"]}) == [
        "perf.fig09.digest", "perf.fig09.wall"]

    written = gates.run_gate(stub("perf", obs), write=True,
                             bench_dir=str(tmp_path))
    assert all(c["verdict"] == "pass" for c in written["checks"])
    data = json.loads((tmp_path / "BENCH_perf.json").read_text())
    assert data["reference"] == reference
    assert data["experiments"]["fig09"]["digest"] == "f" * 64
    assert data["experiments"]["fig09"]["wall_s"] == 8.0
    again = gates.run_gate(stub("perf", obs), bench_dir=str(tmp_path))
    assert all(c["verdict"] == "pass" for c in again["checks"])


@pytest.mark.parametrize("name", ["chaos", "slo", "cluster"])
def test_write_of_an_unchanged_run_is_byte_identical(tmp_path, name):
    path = tmp_path / gates.GATES[name].baseline
    shutil.copy(BENCH / path.name, path)
    result = gates.run_gate(stub(name, clean(name)), write=True,
                            bench_dir=str(tmp_path))
    assert all(c["verdict"] == "pass" for c in result["checks"])
    assert path.read_bytes() == (BENCH / path.name).read_bytes()


def test_write_is_refused_when_a_claim_is_lost(tmp_path):
    shutil.copy(BENCH / "BENCH_cluster.json", tmp_path)
    obs = clean("cluster")
    obs["facts"]["flash.h2.auto.scale_outs"] = 0
    gates.run_gate(stub("cluster", obs), write=True, bench_dir=str(tmp_path))
    assert (tmp_path / "BENCH_cluster.json").read_bytes() == (
        BENCH / "BENCH_cluster.json").read_bytes()


def test_runner_runs_every_gate_and_reports(tmp_path, monkeypatch, capsys):
    def crash(gate):
        raise RuntimeError("worker pool died")

    obs = clean("slo")
    obs["metrics"]["gold.bursty.NORMAL"] = 5000.0
    monkeypatch.setattr(gates, "GATES", {
        "chaos": dataclasses.replace(gates.GATES["chaos"], measure=crash),
        "slo": stub("slo", obs),
    })
    report_path = tmp_path / "gate-report.json"
    assert gates.main(["--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["failed"] == ["chaos.run", "slo.p99.gold.bursty.NORMAL"]
    assert set(report["gates"]) == {"chaos", "slo"}
    cell = next(c for c in report["gates"]["slo"]["checks"]
                if c["id"] == "slo.p99.gold.bursty.NORMAL")
    assert (cell["baseline"], cell["observed"]) == (3683.128, 5000.0)
    out = capsys.readouterr().out
    assert "FAIL chaos.run: RuntimeError: worker pool died" in out
    assert "FAIL slo.p99.gold.bursty.NORMAL: +35.8%" in out


def test_regressed_matches_obs_diff_semantics():
    assert regressed(100.0, 110.1, 0.10, 1.0)
    assert not regressed(100.0, 110.0, 0.10, 1.0)
    assert not regressed(0.6, 0.9, 0.10, 1.0)     # 50% but only 0.3 abs
    assert regressed(0.0, 5.0, 0.10, 1.0)         # from zero: infinite growth
    assert not regressed(0.0, 0.0, 0.10, 1.0)
