"""Unit tests for the Preemptive Greedy (PG) policy — Section 2.2."""

import math

import pytest

from repro.core.pg import BETA_STAR, PGPolicy
from repro.scheduling.baselines import MaxWeightMatchPolicy
from repro.simulation.engine import run_cioq
from repro.switch.cioq import CIOQSwitch
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.theory.invariants import CheckedCIOQPolicy
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


def pk(pid, src, dst, value):
    return Packet(pid, value, 0, src, dst)


@pytest.fixture
def switch():
    return CIOQSwitch(SwitchConfig.square(2, b_in=2, b_out=1))


class TestConstruction:
    def test_default_beta_is_optimum(self):
        assert PGPolicy().beta == pytest.approx(BETA_STAR)

    def test_rejects_beta_below_one(self):
        with pytest.raises(ValueError):
            PGPolicy(beta=0.5)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("policy", [PGPolicy, MaxWeightMatchPolicy])
    def test_rejects_non_finite_beta(self, policy, beta):
        with pytest.raises(ValueError, match="finite"):
            policy(beta=beta)

    def test_name_includes_beta(self):
        assert "2.414" in PGPolicy().name


class TestArrival:
    def test_accepts_with_space(self, switch):
        d = PGPolicy().on_arrival(switch, pk(0, 0, 0, 1.0))
        assert d.accept and d.preempt is None

    def test_preempts_cheapest_when_full_and_better(self, switch):
        switch.enqueue_arrival(pk(0, 0, 0, 1.0))
        switch.enqueue_arrival(pk(1, 0, 0, 5.0))
        d = PGPolicy().on_arrival(switch, pk(2, 0, 0, 3.0))
        assert d.accept
        assert d.preempt.pid == 0  # l_ij, the least valuable

    def test_rejects_when_full_and_not_better(self, switch):
        switch.enqueue_arrival(pk(0, 0, 0, 3.0))
        switch.enqueue_arrival(pk(1, 0, 0, 5.0))
        d = PGPolicy().on_arrival(switch, pk(2, 0, 0, 3.0))
        assert not d.accept  # equal value does not preempt

    def test_value_rule_independent_of_beta(self, switch):
        """The arrival rule has no beta in it (only scheduling does)."""
        switch.enqueue_arrival(pk(0, 0, 0, 1.0))
        switch.enqueue_arrival(pk(1, 0, 0, 1.0))
        d = PGPolicy(beta=100.0).on_arrival(switch, pk(2, 0, 0, 1.01))
        assert d.accept


class TestScheduling:
    def test_transfers_most_valuable_packet(self, switch):
        switch.enqueue_arrival(pk(0, 0, 0, 1.0))
        switch.enqueue_arrival(pk(1, 0, 0, 7.0))
        transfers = PGPolicy().schedule(switch, 0, 0)
        assert len(transfers) == 1
        assert transfers[0].packet.pid == 1

    def test_greedy_weight_order_across_inputs(self, switch):
        # Both inputs target output 0 (capacity 1); the heavier VOQ head
        # must win the only slot.
        switch.enqueue_arrival(pk(0, 0, 0, 2.0))
        switch.enqueue_arrival(pk(1, 1, 0, 9.0))
        transfers = PGPolicy().schedule(switch, 0, 0)
        assert len(transfers) == 1
        assert transfers[0].src == 1

    def test_full_output_requires_beta_improvement(self, switch):
        pg = PGPolicy(beta=2.0)
        switch.enqueue_arrival(pk(0, 0, 0, 3.0))
        switch.apply_transfers(pg.schedule(switch, 0, 0))
        assert switch.out_lengths()[0] == 1  # b_out = 1, now full
        # Value 5 <= beta * 3: ineligible.
        switch.enqueue_arrival(pk(1, 0, 0, 5.0))
        assert pg.schedule(switch, 0, 1) == []
        # Value 7 > beta * 3: eligible; must declare preemption of l_j.
        switch.enqueue_arrival(pk(2, 1, 0, 7.0))
        transfers = pg.schedule(switch, 0, 2)
        assert len(transfers) == 1
        assert transfers[0].packet.pid == 2
        assert transfers[0].preempt is not None
        assert transfers[0].preempt.value == 3.0

    def test_beta_boundary_is_strict(self, switch):
        pg = PGPolicy(beta=2.0)
        switch.enqueue_arrival(pk(0, 0, 0, 3.0))
        switch.apply_transfers(pg.schedule(switch, 0, 0))
        # Exactly beta * v(l_j) = 6.0 is NOT eligible (strict inequality).
        switch.enqueue_arrival(pk(1, 0, 0, 6.0))
        assert pg.schedule(switch, 0, 1) == []

    def test_transmission_sends_most_valuable(self, switch):
        pg = PGPolicy()
        switch.enqueue_arrival(pk(0, 0, 0, 2.0))
        switch.apply_transfers(pg.schedule(switch, 0, 0))
        sel = pg.select_transmissions(switch)
        assert sel[0].value == 2.0


class TestEndToEnd:
    @pytest.mark.parametrize("beta", [1.2, BETA_STAR, 5.0])
    def test_faithfulness_on_random_traffic(self, beta):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=uniform_values(1, 100)
        ).generate(25, seed=9)
        res = run_cioq(
            CheckedCIOQPolicy(PGPolicy(beta=beta), "pg", beta=beta),
            config,
            trace,
            check_invariants=True,
        )
        res.check_conservation()

    def test_preemption_occurs_under_pressure(self):
        config = SwitchConfig.square(2, speedup=1, b_in=1, b_out=1)
        trace = BernoulliTraffic(
            2, 2, load=2.0, value_model=uniform_values(1, 100)
        ).generate(30, seed=3)
        res = run_cioq(PGPolicy(beta=1.01), config, trace)
        assert res.n_preempted > 0

    def test_benefit_counts_values_not_packets(self):
        config = SwitchConfig.square(2, b_in=2, b_out=2)
        from repro.traffic.trace import Trace

        trace = Trace(
            [Packet(0, 10.0, 0, 0, 0), Packet(1, 1.0, 0, 1, 1)], 2, 2
        )
        res = run_cioq(PGPolicy(), config, trace)
        assert res.benefit == 11.0
        assert res.n_sent == 2
