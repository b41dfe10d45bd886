"""T4 — Theorem 4: CPG's empirical ratio and the (beta, alpha) grid.

1. CPG at the paper's optimal thresholds (beta* ~ 1.839, alpha* ~ 2.839)
   against the exact crossbar OPT (bound ~ 14.83).
2. A (beta, alpha) grid around the optimum: measured ratio per cell next
   to the analytical bound surface, confirming the paper's choice is a
   sensible operating point and that beta != alpha matters (full
   ablation in T9).
"""

from repro.analysis.ratio import measure_crossbar_ratio, ratio_of, summarize
from repro.analysis.report import format_table
from repro.core.cpg import CPGPolicy
from repro.core.params import cpg_optimal_params, cpg_optimal_ratio, cpg_ratio
from repro.scenarios import ScenarioSpec, run_scenario
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.values import pareto_values, two_value, uniform_values

from conftest import run_once

CELLS = [
    ("uniform [1,100]", lambda n: BernoulliTraffic(
        n, n, load=1.4, value_model=uniform_values(1, 100)), 0),
    ("two-value a=10", lambda n: BernoulliTraffic(
        n, n, load=1.5, value_model=two_value(10, 0.25)), 1),
    ("pareto 1.3", lambda n: BernoulliTraffic(
        n, n, load=1.4, value_model=pareto_values(1.3)), 2),
    ("hotspot two-value", lambda n: HotspotTraffic(
        n, n, load=1.5, hot_fraction=0.7,
        value_model=two_value(50, 0.15)), 3),
]


def compute_ratio_rows():
    rows = []
    measurements = []
    config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
    for label, make, seed in CELLS:
        trace = make(3).generate(16, seed=seed)
        m = measure_crossbar_ratio(
            CPGPolicy(), trace, config, bound=cpg_optimal_ratio()
        )
        measurements.append(m)
        rows.append(
            {
                "values": label,
                "CPG": round(m.onl_benefit, 1),
                "OPT": round(m.opt_benefit, 1),
                "ratio": round(m.ratio, 4),
                "<=14.83": m.within_bound,
            }
        )
    return rows, summarize(measurements)


def compute_grid(executor=None):
    beta_star, alpha_star, _ = cpg_optimal_params()
    cells = [(beta, alpha) for beta in (1.3, beta_star, 3.0)
             for alpha in (1.5, alpha_star, 5.0)]
    spec = ScenarioSpec(
        name="t4-threshold-grid",
        model="crossbar",
        switch={"n_in": 3, "n_out": 3, "speedup": 1, "b_in": 2, "b_out": 2,
                "b_cross": 1},
        traffic_params={"load": 1.6},
        values="two-value",
        value_params={"alpha": 20, "p_high": 0.3},
        policies=tuple({"name": "cpg", "beta": beta, "alpha": alpha}
                       for beta, alpha in cells),
        slots=18,
        seeds=(9,),
        metrics=("benefit", "n_preempted"),
    )
    payload = {m["policy"]: m
               for m in run_scenario(spec, executor=executor).metrics}
    opt_benefit = payload["OPT"]["benefit"]
    rows = []
    for (beta, alpha), label in zip(cells, spec.policy_labels()):
        cpg = payload[label]
        beta, alpha = round(beta, 4), round(alpha, 4)
        rows.append(
            {
                "beta": beta,
                "alpha": alpha,
                "cpg_benefit": round(cpg["benefit"], 3),
                "opt_benefit": round(opt_benefit, 3),
                "ratio": round(ratio_of(opt_benefit, cpg["benefit"]), 4),
                "preempted": cpg["n_preempted"],
                "analysis bound": round(cpg_ratio(beta, alpha), 3),
            }
        )
    return rows


def test_t4_cpg_ratio_table(benchmark, emit):
    rows, summary = run_once(benchmark, compute_ratio_rows)
    emit("\n" + format_table(
        rows,
        title="T4a - CPG (beta*, alpha*) empirical ratio vs exact OPT "
              "(Theorem 4 bound: 14.83; previous work: 16.24)",
    ))
    emit(f"worst observed ratio: {summary['max_ratio']:.4f}")
    assert summary["all_within_bound"]


def test_t4_cpg_threshold_grid(benchmark, emit, sweep_executor):
    rows = run_once(benchmark, compute_grid, sweep_executor)
    emit("\n" + format_table(
        rows,
        title="T4b - CPG (beta, alpha) grid: measured ratio vs analytical "
              "bound surface",
    ))
    for r in rows:
        assert r["ratio"] <= r["analysis bound"] + 1e-9
