"""Tests for the modified-OPT shadow replays (Lemmas 1, 3, 8, 9, 11)."""

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import cioq_opt
from repro.offline.timegraph import default_horizon
from repro.simulation.engine import run_cioq, run_crossbar
from repro.switch.config import SwitchConfig
from repro.theory.shadow import replay_cgu_shadow, replay_gm_shadow
from repro.traffic.adversarial import (
    SingleOutputOverloadAdversary,
    generate_adaptive_trace,
)
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.values import uniform_values


def gm_certificate(trace, config):
    gm = run_cioq(GMPolicy(), config, trace, record=True)
    opt = cioq_opt(trace, config, extract_schedule=True)
    return replay_gm_shadow(trace, config, gm, opt)


def cgu_certificate(trace, config):
    cgu = run_crossbar(CGUPolicy(), config, trace, record=True)
    model = CrossbarOptModel(trace, config,
                             horizon=default_horizon(trace, config))
    opt = model.solve(extract_schedule=True)
    return replay_cgu_shadow(trace, config, cgu, model, opt)


class TestGMShadow:
    @pytest.mark.parametrize("seed", range(5))
    def test_bernoulli_instances_certify(self, seed):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.2).generate(15, seed=seed)
        cert = gm_certificate(trace, config)
        assert cert.s_star_bounded
        assert cert.privileged_bounded
        assert cert.theorem1_certified
        assert cert.modified_opt_benefit == cert.opt_benefit

    def test_speedup_two_certifies(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.5).generate(15, seed=11)
        cert = gm_certificate(trace, config)
        assert cert.theorem1_certified

    def test_hotspot_certifies(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = HotspotTraffic(3, 3, load=1.2, hot_fraction=0.7).generate(
            15, seed=3
        )
        cert = gm_certificate(trace, config)
        assert cert.theorem1_certified

    def test_adversarial_instance_certifies(self):
        config = SwitchConfig.square(4, speedup=1, b_in=2, b_out=2)
        trace = generate_adaptive_trace(
            GMPolicy, config, SingleOutputOverloadAdversary(), n_slots=12
        )
        cert = gm_certificate(trace, config)
        assert cert.theorem1_certified
        # Privileged packets must appear on genuinely adversarial runs.
        assert cert.privileged_type1 + cert.privileged_type2 > 0

    def test_rejects_weighted_traces(self):
        config = SwitchConfig.square(2, b_in=1, b_out=1)
        trace = BernoulliTraffic(
            2, 2, load=1.0, value_model=uniform_values(1, 5)
        ).generate(5, seed=0)
        gm = run_cioq(GMPolicy(), config, trace, record=True)
        opt = cioq_opt(trace, config, extract_schedule=True)
        with pytest.raises(ValueError, match="unit-value"):
            replay_gm_shadow(trace, config, gm, opt)

    def test_counts_are_consistent(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(12, seed=7)
        cert = gm_certificate(trace, config)
        # skip/privilege conservation (checked internally, re-assert here).
        assert cert.privileged_type1 == cert.skipped_departures
        assert (
            cert.s_star + cert.privileged_type1 + cert.privileged_type2
            == cert.opt_benefit
        )


class TestCGUShadow:
    @pytest.mark.parametrize("seed", range(4))
    def test_bernoulli_instances_certify(self, seed):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.1).generate(12, seed=seed)
        cert = cgu_certificate(trace, config)
        assert cert.theorem3_certified
        assert cert.lemma9_violations == 0
        assert cert.modified_opt_benefit >= cert.opt_benefit
        assert cert.modified_opt_benefit <= 3 * cert.cgu_benefit

    def test_bigger_crosspoints_certify(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=2)
        trace = BernoulliTraffic(3, 3, load=1.3).generate(12, seed=5)
        cert = cgu_certificate(trace, config)
        assert cert.theorem3_certified

    def test_speedup_two_certifies(self):
        config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(3, 3, load=1.4).generate(12, seed=6)
        cert = cgu_certificate(trace, config)
        assert cert.theorem3_certified

    def test_extras_appear_under_contention(self):
        config = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = HotspotTraffic(3, 3, load=1.5, hot_fraction=0.8).generate(
            15, seed=2
        )
        cert = cgu_certificate(trace, config)
        assert cert.extra_type1 + cert.extra_type2 + cert.privileged > 0
        assert cert.theorem3_certified
