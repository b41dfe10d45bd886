"""The exact OPT models' certified solve ladder.

``solve`` tries the LP relaxation's vertex first (rung ``lp``), then a
MILP with the LP-integral packet variables fixed (``restricted``), then
the full MILP (``milp``).  Whichever rung certifies, the benefit must
equal a direct full MILP solved to a zero gap on the same matrix.
"""

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, OptimizeResult, milp

from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.timegraph import CIOQOptModel, TimeExpandedModel
from repro.scenarios import get_scenario
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import pareto_values, unit_values

RUNGS = ("lp", "restricted", "milp")
MODELS = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}
VALUES = {"unit": unit_values, "pareto": pareto_values}


def direct_benefit(model):
    """Packet-order benefit of a full zero-gap MILP on ``model.A``."""
    res = milp(
        c=model.objective,
        constraints=LinearConstraint(model.A, model.row_lb, model.row_ub),
        integrality=np.ones(model.n_var),
        bounds=model.bounds,
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, res.message
    return float(sum(p.value for p, v in zip(model.trace.packets, model.var_a)
                     if res.x[v] > 0.5))


def ladder_instance(kind, values, seed):
    config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
    traffic = BernoulliTraffic(3, 3, load=1.4, value_model=VALUES[values]())
    return MODELS[kind](traffic.generate(8, seed=seed), config)


@pytest.mark.parametrize("values", sorted(VALUES))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_ladder_matches_direct_milp(kind, values):
    rungs = []
    for seed in range(6):
        model = ladder_instance(kind, values, seed)
        res = model.solve(extract_schedule=True)
        assert model.certified_by in RUNGS
        rungs.append(model.certified_by)
        assert res.benefit == pytest.approx(direct_benefit(model), rel=1e-9)
        assert res.benefit <= model.solve_lp_relaxation() * (1 + 1e-9)
        assert len(res.transmissions) == res.n_delivered
    assert "lp" in rungs  # the fast path is exercised, not just the fallback


def test_pinned_fractional_instance_falls_back():
    """qos-two-class seed 0: the LP vertex is fractional, so a MILP
    rung must certify, with the same optimum as the direct solve."""
    spec = get_scenario("qos-two-class")
    trace = spec.build_traffic().generate(spec.slots, seed=0)
    model = CIOQOptModel(trace, spec.build_config())
    res = model.solve()
    assert model.n_var > 1000
    assert model.certified_by in ("restricted", "milp")
    assert res.benefit == direct_benefit(model)


def _fractional_lp(monkeypatch, bound_shift):
    """Make the LP rung return a fractional vertex: the first delivered
    packet's variable halved, and the LP bound raised by ``bound_shift``."""
    original = TimeExpandedModel._milp

    def patched(self, integral, bounds=None):
        res = original(self, integral, bounds)
        if integral:
            return res
        x = res.x.copy()
        v = next(v for v in self.var_a if x[v] > 0.5)
        x[v] = 0.5
        return OptimizeResult(dict(res, x=x, fun=res.fun - bound_shift))

    monkeypatch.setattr(TimeExpandedModel, "_milp", patched)


@pytest.mark.parametrize("kind", sorted(MODELS))
@pytest.mark.parametrize("bound_shift, rung",
                         [(0.0, "restricted"), (1.0, "milp")])
def test_fractional_lp_forces_fallback(monkeypatch, kind, bound_shift, rung):
    expected = ladder_instance(kind, "unit", 0).solve()
    _fractional_lp(monkeypatch, bound_shift)
    model = ladder_instance(kind, "unit", 0)
    res = model.solve(extract_schedule=True)
    assert model.certified_by == rung
    assert res.benefit == expected.benefit == direct_benefit(model)
    assert len(res.transmissions) == res.n_delivered


def test_attains_checks_feasibility_and_bound():
    model = ladder_instance("cioq", "unit", 0)
    x = model._certified_point()
    bound = -model.solve_lp_relaxation()
    assert model._attains(x, bound)
    assert not model._attains(x, bound - 1.0)  # feasible, short of the bound
    assert not model._attains(model.bounds.ub.copy(), np.inf)  # infeasible


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_empty_trace(kind):
    config = SwitchConfig.square(2, b_in=1, b_out=1, b_cross=1)
    model = MODELS[kind](Trace([], 2, 2), config)
    res = model.solve(extract_schedule=True)
    assert (res.benefit, res.n_delivered, res.departures) == (0.0, 0, [])
    assert model.certified_by is None
    assert model.solve_lp_relaxation() == 0.0
