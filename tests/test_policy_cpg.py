"""Unit tests for the Crossbar Preemptive Greedy (CPG) policy — Sec 3.2."""

import math

import pytest

from repro.core.cpg import CPGPolicy
from repro.core.params import cpg_optimal_params
from repro.simulation.engine import run_crossbar
from repro.switch.config import SwitchConfig
from repro.switch.crossbar import CrossbarSwitch
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import pareto_values, uniform_values


def pk(pid, src, dst, value):
    return Packet(pid, value, 0, src, dst)


@pytest.fixture
def switch():
    return CrossbarSwitch(SwitchConfig.square(2, b_in=2, b_out=1, b_cross=1))


class TestConstruction:
    def test_defaults_to_paper_optimum(self):
        beta, alpha, _ = cpg_optimal_params()
        p = CPGPolicy()
        assert p.beta == pytest.approx(beta)
        assert p.alpha == pytest.approx(alpha)

    def test_rejects_thresholds_below_one(self):
        with pytest.raises(ValueError):
            CPGPolicy(beta=0.9)
        with pytest.raises(ValueError):
            CPGPolicy(alpha=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["beta", "alpha"])
    def test_rejects_non_finite_thresholds(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            CPGPolicy(**{name: value})


class TestInputSubphase:
    def test_picks_most_valuable_eligible_voq(self, switch):
        switch.enqueue_arrival(pk(0, 0, 0, 2.0))
        switch.enqueue_arrival(pk(1, 0, 1, 8.0))
        transfers = CPGPolicy().input_subphase(switch, 0, 0)
        assert len(transfers) == 1
        assert transfers[0].dst == 1
        assert transfers[0].packet.value == 8.0

    def test_full_crosspoint_needs_beta_improvement(self, switch):
        cpg = CPGPolicy(beta=2.0, alpha=2.0)
        switch.enqueue_arrival(pk(0, 0, 0, 3.0))
        switch.apply_input_subphase(cpg.input_subphase(switch, 0, 0))
        # C[0][0] now holds value 3 and is full (b_cross = 1).
        switch.enqueue_arrival(pk(1, 0, 0, 5.0))
        assert cpg.input_subphase(switch, 0, 1) == []  # 5 <= 2*3
        switch.enqueue_arrival(pk(2, 0, 0, 7.0))
        transfers = cpg.input_subphase(switch, 0, 2)
        assert len(transfers) == 1
        assert transfers[0].packet.value == 7.0
        assert transfers[0].preempt is not None
        assert transfers[0].preempt.value == 3.0

    def test_prefers_other_voq_when_blocked(self, switch):
        cpg = CPGPolicy(beta=10.0, alpha=10.0)
        switch.enqueue_arrival(pk(0, 0, 0, 9.0))
        switch.apply_input_subphase(cpg.input_subphase(switch, 0, 0))
        # (0,0) blocked by big beta; a cheaper VOQ (0,1) is still eligible.
        switch.enqueue_arrival(pk(1, 0, 0, 9.5))
        switch.enqueue_arrival(pk(2, 0, 1, 1.0))
        transfers = cpg.input_subphase(switch, 0, 1)
        assert len(transfers) == 1
        assert transfers[0].dst == 1


class TestOutputSubphase:
    def _fill_out(self, switch, cpg, value):
        switch.enqueue_arrival(pk(90, 0, 0, value))
        switch.apply_input_subphase(cpg.input_subphase(switch, 0, 0))
        switch.apply_output_subphase(cpg.output_subphase(switch, 0, 0))

    def test_picks_most_valuable_crosspoint(self):
        config = SwitchConfig.square(2, b_in=2, b_out=2, b_cross=1)
        switch = CrossbarSwitch(config)
        cpg = CPGPolicy()
        switch.enqueue_arrival(pk(0, 0, 0, 2.0))
        switch.enqueue_arrival(pk(1, 1, 0, 6.0))
        switch.apply_input_subphase(cpg.input_subphase(switch, 0, 0))
        transfers = cpg.output_subphase(switch, 0, 0)
        assert len(transfers) == 1
        assert transfers[0].src == 1

    def test_full_output_needs_alpha_improvement(self, switch):
        cpg = CPGPolicy(beta=1.5, alpha=3.0)
        self._fill_out(switch, cpg, 2.0)  # output 0 now holds value 2, full
        switch.enqueue_arrival(pk(1, 0, 0, 5.0))
        switch.apply_input_subphase(cpg.input_subphase(switch, 0, 1))
        # 5 <= alpha * 2 = 6: not transferred.
        assert cpg.output_subphase(switch, 0, 1) == []
        # Preempt the crosspoint resident with something big enough.
        switch.enqueue_arrival(pk(2, 0, 0, 8.0))
        switch.apply_input_subphase(cpg.input_subphase(switch, 0, 2))
        transfers = cpg.output_subphase(switch, 0, 2)
        assert len(transfers) == 1
        assert transfers[0].packet.value == 8.0
        assert transfers[0].preempt.value == 2.0


class TestEndToEnd:
    @pytest.mark.parametrize(
        "values", [uniform_values(1, 50), pareto_values(1.5)]
    )
    def test_conservation_on_random_traffic(self, values):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.4, value_model=values).generate(
            25, seed=13
        )
        res = run_crossbar(CPGPolicy(), config, trace, check_invariants=True)
        res.check_conservation()

    def test_cpg_beats_value_blind_cgu_on_skewed_values(self):
        from repro.core.cgu import CGUPolicy

        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=1.8, value_model=pareto_values(1.2)
        ).generate(40, seed=21)
        cpg = run_crossbar(CPGPolicy(), config, trace)
        cgu = run_crossbar(CGUPolicy(), config, trace)
        assert cpg.benefit >= cgu.benefit

    def test_preemptions_counted_by_site(self):
        config = SwitchConfig.square(2, speedup=1, b_in=1, b_out=1, b_cross=1)
        trace = BernoulliTraffic(
            2, 2, load=2.5, value_model=uniform_values(1, 100)
        ).generate(30, seed=2)
        res = run_crossbar(CPGPolicy(beta=1.01, alpha=1.01), config, trace)
        assert res.n_preempted_cross + res.n_preempted_out + res.n_preempted_voq > 0
