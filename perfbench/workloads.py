"""The benchmark's three workloads, built from the public scenario builders.

Every workload is a list of :class:`Case` objects drawn from a workload
seed.  The seed fixes, per case, the scenario's own RNG seed (hence the
realised arrival sequence), each flow's rate within a stated band and each
flow's start time.  Cases are built with :class:`repro.experiments.common.
Scenario`, :func:`~repro.experiments.common.build_linear_chain` and
:class:`repro.cluster.scenario.ClusterScenario` only — never through an
``experiments/*`` module — so an experiment refactor cannot change the load.

* ``chain_linerate`` — one core, the 120/270/550-cycle chain of Figure 7,
  64 B Poisson arrivals at line rate, {BATCH, NORMAL} x {Default, NFVnice},
  telemetry off: the per-packet data path and NF execution dominate.
* ``slo_mix`` — one shared core carries a cheap gold chain (500 us SLO,
  MMPP or Pareto on-off arrivals) and an expensive bulk chain
  (near-saturating Poisson), under EDF and DEADLINE (the latter with a
  spare core for the SLO governor), telemetry on: the schedulers, the
  control loops and latency telemetry dominate.
* ``cluster_flash`` — 8 hosts with the autoscaler on, 4 base flows plus 10
  flash-crowd flows arriving 40 ms apart, so replicas are added mid-run:
  event dispatch, the fabric, steering and the autoscaler dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

MSEC = 1_000_000

#: Figure 7's chain (cycles per packet).
CHAIN_COSTS = (120.0, 270.0, 550.0)
#: slo_mix per-NF costs (cycles): gold is cheap, bulk is heavy.
GOLD_COSTS = (120.0, 270.0)
BULK_COSTS = (270.0, 550.0)
#: cluster_flash replica chain (cycles): ~1.73 Mpps per replica core.
CLUSTER_COSTS = (500.0, 800.0)
GOLD_SLO_US = 500.0
SILVER_SLO_US = 5000.0

#: Simulated seconds per case.
SIM_S = {"chain_linerate": 0.5, "slo_mix": 0.25, "cluster_flash": 0.6}

#: Rate bands (pps, or a fraction of line rate for chain_linerate) the
#: seed draws from, uniform within [lo, hi].
RATE_BANDS = {
    "line_rate_fraction": (0.98, 1.0),
    "gold_mmpp_pps": (475_000.0, 525_000.0),
    "gold_pareto_pps": (855_000.0, 945_000.0),
    "bulk_pps": (2_330_000.0, 2_400_000.0),
    "base_pps": (145_000.0, 155_000.0),
    "crowd_pps": (194_000.0, 206_000.0),
}


@dataclass
class Case:
    """One scenario of a workload: a name, its seeded inputs, a builder."""

    name: str
    sim_s: float
    build: Callable[[], Any]
    params: Dict[str, Any] = field(default_factory=dict)


def _uniform(rng: random.Random, band: str) -> float:
    lo, hi = RATE_BANDS[band]
    return rng.uniform(lo, hi)


def chain_linerate(seed: int) -> List[Case]:
    from repro.experiments.common import Scenario, build_linear_chain

    rng = random.Random(f"chain_linerate/{seed}")
    cases = []
    for scheduler in ("BATCH", "NORMAL"):
        for features in ("Default", "NFVnice"):
            params = {
                "scheduler": scheduler,
                "features": features,
                "scenario_seed": rng.randrange(2**31),
                "line_rate_fraction": _uniform(rng, "line_rate_fraction"),
                "start_ns": rng.randrange(MSEC),
            }

            def build(p: Dict[str, Any] = params) -> Any:
                scenario = Scenario(scheduler=p["scheduler"],
                                    features=p["features"],
                                    seed=p["scenario_seed"], telemetry=False)
                build_linear_chain(scenario, CHAIN_COSTS, core=0)
                scenario.add_flow("flow", "chain",
                                  line_rate_fraction=p["line_rate_fraction"],
                                  pattern="poisson", start_ns=p["start_ns"])
                return scenario

            cases.append(Case(f"{scheduler}/{features}",
                              SIM_S["chain_linerate"], build, params))
    return cases


def slo_mix(seed: int) -> List[Case]:
    from repro.experiments.common import Scenario

    rng = random.Random(f"slo_mix/{seed}")
    cases = []
    for pattern, band in (("mmpp", "gold_mmpp_pps"),
                          ("pareto_onoff", "gold_pareto_pps")):
        for scheduler in ("EDF", "DEADLINE"):
            params = {
                "pattern": pattern,
                "scheduler": scheduler,
                "scenario_seed": rng.randrange(2**31),
                "gold_pps": _uniform(rng, band),
                "bulk_pps": _uniform(rng, "bulk_pps"),
                "gold_start_ns": rng.randrange(MSEC),
                "bulk_start_ns": rng.randrange(MSEC),
            }

            def build(p: Dict[str, Any] = params) -> Any:
                scenario = Scenario(
                    scheduler=p["scheduler"], features="NFVnice",
                    seed=p["scenario_seed"], telemetry=True,
                    spare_cores=(1,) if p["scheduler"] == "DEADLINE" else ())
                for i, cost in enumerate(GOLD_COSTS, start=1):
                    scenario.add_nf(f"g{i}", cost, core=0)
                for i, cost in enumerate(BULK_COSTS, start=1):
                    scenario.add_nf(f"b{i}", cost, core=0)
                scenario.add_chain("gold", ["g1", "g2"])
                scenario.add_chain("bulk", ["b1", "b2"])
                scenario.add_slo_class("gold", GOLD_SLO_US)
                scenario.add_slo_class("silver", SILVER_SLO_US)
                scenario.add_flow("gold", "gold", rate_pps=p["gold_pps"],
                                  slo_class="gold", pattern=p["pattern"],
                                  start_ns=p["gold_start_ns"])
                scenario.add_flow("bulk", "bulk", rate_pps=p["bulk_pps"],
                                  slo_class="silver", pattern="poisson",
                                  start_ns=p["bulk_start_ns"])
                return scenario

            cases.append(Case(f"{pattern}/{scheduler}", SIM_S["slo_mix"],
                              build, params))
    return cases


def cluster_flash(seed: int) -> List[Case]:
    from repro.cluster.scenario import ClusterScenario

    rng = random.Random(f"cluster_flash/{seed}")
    hosts = 8
    cases = []
    for scheduler in ("NORMAL", "BATCH"):
        params = {
            "scheduler": scheduler,
            "scenario_seed": rng.randrange(2**31),
            "base_pps": [_uniform(rng, "base_pps") for _ in range(4)],
            "base_start_ns": [rng.randrange(MSEC) for _ in range(4)],
            "crowd_pps": [_uniform(rng, "crowd_pps") for _ in range(10)],
            "crowd_start_ns": [(100 + 40 * i) * MSEC + rng.randrange(2 * MSEC)
                               for i in range(10)],
        }

        def build(p: Dict[str, Any] = params) -> Any:
            scenario = ClusterScenario(n_hosts=hosts,
                                       scheduler=p["scheduler"],
                                       features="NFVnice",
                                       seed=p["scenario_seed"])
            scenario.add_slo_class("gold", GOLD_SLO_US)
            scenario.set_chain("svc", CLUSTER_COSTS, slo_us=GOLD_SLO_US,
                               placements=((0, 0),))
            scenario.enable_autoscaler(
                slots=[(h, c) for h in range(hosts) for c in (0, 1)
                       if (h, c) != (0, 0)])
            for i, (rate, start) in enumerate(zip(p["base_pps"],
                                                  p["base_start_ns"])):
                scenario.add_flow(f"base{i}", rate_pps=rate, slo_class="gold",
                                  pattern="poisson", start_ns=start)
            for i, (rate, start) in enumerate(zip(p["crowd_pps"],
                                                  p["crowd_start_ns"])):
                scenario.add_flow(f"crowd{i}", rate_pps=rate,
                                  slo_class="gold", pattern="poisson",
                                  start_ns=start)
            return scenario

        cases.append(Case(f"h{hosts}/auto/{scheduler}",
                          SIM_S["cluster_flash"], build, params))
    return cases


WORKLOADS: Dict[str, Callable[[int], List[Case]]] = {
    "chain_linerate": chain_linerate,
    "slo_mix": slo_mix,
    "cluster_flash": cluster_flash,
}
