"""Tests for per-class breakdowns and LP-relaxation diagnostics."""

import pytest

from repro.analysis.classes import (
    banded_breakdown,
    class_breakdown,
    value_classes,
)
from repro.core.pg import PGPolicy
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.timegraph import CIOQOptModel
from repro.simulation.engine import run_cioq
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import pareto_values, two_value


class TestValueClasses:
    def test_two_value_classes(self):
        trace = BernoulliTraffic(
            2, 2, load=1.0, value_model=two_value(10, 0.5)
        ).generate(20, seed=0)
        assert value_classes(trace) == [1.0, 10.0]

    def test_continuous_values_rejected(self):
        trace = BernoulliTraffic(
            2, 2, load=1.0, value_model=pareto_values(1.5)
        ).generate(20, seed=0)
        with pytest.raises(ValueError, match="banded"):
            value_classes(trace)


class TestClassBreakdown:
    @pytest.fixture
    def run(self):
        config = SwitchConfig.square(3, speedup=1, b_in=1, b_out=1)
        trace = BernoulliTraffic(
            3, 3, load=2.0, value_model=two_value(20, 0.3)
        ).generate(25, seed=5)
        result = run_cioq(PGPolicy(), config, trace, record=True)
        return config, trace, result

    def test_rows_cover_all_packets(self, run):
        _config, trace, result = run
        rows = class_breakdown(result, trace)
        assert sum(r["arrived"] for r in rows) == len(trace)
        assert sum(r["delivered"] for r in rows) == result.n_sent

    def test_value_accounting(self, run):
        _config, trace, result = run
        rows = class_breakdown(result, trace)
        assert sum(r["value delivered"] for r in rows) == pytest.approx(
            result.benefit
        )

    def test_pg_protects_expensive_class(self, run):
        """Under overload PG must deliver the expensive class at a rate
        at least matching the cheap class."""
        _config, trace, result = run
        rows = class_breakdown(result, trace)
        cheap, expensive = rows[0], rows[-1]
        assert expensive["delivery rate"] >= cheap["delivery rate"]

    def test_requires_record(self):
        config = SwitchConfig.square(2, b_in=1, b_out=1)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        result = run_cioq(PGPolicy(), config, trace)
        with pytest.raises(ValueError, match="record"):
            class_breakdown(result, trace)


class TestBandedBreakdown:
    def test_bands_partition_packets(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = BernoulliTraffic(
            3, 3, load=1.5, value_model=pareto_values(1.3)
        ).generate(20, seed=2)
        result = run_cioq(PGPolicy(), config, trace, record=True)
        rows = banded_breakdown(result, trace, edges=[2.0, 10.0])
        assert len(rows) == 3
        assert sum(r["arrived"] for r in rows) == len(trace)
        assert sum(r["value delivered"] for r in rows) == pytest.approx(
            result.benefit
        )

    def test_edges_validation(self):
        config = SwitchConfig.square(2, b_in=1, b_out=1)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(5, seed=0)
        result = run_cioq(PGPolicy(), config, trace, record=True)
        with pytest.raises(ValueError):
            banded_breakdown(result, trace, edges=[])
        with pytest.raises(ValueError):
            banded_breakdown(result, trace, edges=[5.0, 2.0])


class TestLPRelaxation:
    @pytest.mark.parametrize("seed", range(4))
    def test_lp_upper_bounds_ilp_cioq(self, seed):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(10, seed=seed)
        model = CIOQOptModel(trace, config)
        lp = model.solve_lp_relaxation()
        ilp = model.solve().benefit
        assert lp >= ilp - 1e-6

    def test_lp_usually_integral_cioq(self):
        """On small random instances the LP relaxation is typically
        exact — why exact OPT usually certifies the LP vertex and skips
        the MILP (see tests/test_opt_certificate.py)."""
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        equal = 0
        total = 6
        for seed in range(total):
            trace = BernoulliTraffic(3, 3, load=1.2).generate(8, seed=seed)
            model = CIOQOptModel(trace, config)
            if abs(model.solve_lp_relaxation() - model.solve().benefit) < 1e-6:
                equal += 1
        assert equal >= total - 1  # allow at most one fractional instance

    def test_lp_upper_bounds_ilp_crossbar(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.4).generate(8, seed=3)
        model = CrossbarOptModel(trace, config)
        lp = model.solve_lp_relaxation()
        ilp = model.solve().benefit
        assert lp >= ilp - 1e-6

    def test_empty_trace_lp(self):
        from repro.traffic.trace import Trace

        config = SwitchConfig.square(2, b_in=1, b_out=1)
        assert CIOQOptModel(Trace([], 2, 2), config).solve_lp_relaxation() == 0.0
