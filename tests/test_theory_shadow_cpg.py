"""Tests for the CPG (Theorem 4) modified-OPT replay."""

import pytest

from repro.core.cpg import CPGPolicy
from repro.core.params import cpg_optimal_params, cpg_ratio
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.timegraph import default_horizon
from repro.simulation.engine import run_crossbar
from repro.switch.config import SwitchConfig
from repro.theory.shadow_cpg import replay_cpg_shadow
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.values import pareto_values, two_value, uniform_values


def certificate(trace, config, beta, alpha):
    cpg = run_crossbar(
        CPGPolicy(beta=beta, alpha=alpha), config, trace, record=True
    )
    model = CrossbarOptModel(trace, config,
                             horizon=default_horizon(trace, config))
    opt = model.solve(extract_schedule=True)
    return replay_cpg_shadow(trace, config, cpg, model, opt, beta, alpha)


class TestCertification:
    @pytest.mark.parametrize("seed", range(3))
    def test_uniform_values_certify(self, seed):
        beta, alpha, _ = cpg_optimal_params()
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=uniform_values(1, 50)
        ).generate(10, seed=seed)
        cert = certificate(trace, cfg, beta, alpha)
        assert cert.theorem4_certified
        assert cert.s_star_bounded
        assert cert.privileged_bounded
        assert cert.modified_opt_benefit == pytest.approx(cert.opt_benefit)

    def test_two_value_certifies(self):
        beta, alpha, _ = cpg_optimal_params()
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=1.5, value_model=two_value(20, 0.25)
        ).generate(10, seed=4)
        cert = certificate(trace, cfg, beta, alpha)
        assert cert.theorem4_certified

    def test_bigger_crosspoints_certify(self):
        beta, alpha, _ = cpg_optimal_params()
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=2)
        trace = HotspotTraffic(
            3, 3, load=1.5, hot_fraction=0.7, value_model=pareto_values(1.4)
        ).generate(10, seed=2)
        cert = certificate(trace, cfg, beta, alpha)
        assert cert.theorem4_certified

    def test_speedup_two_certifies(self):
        beta, alpha, _ = cpg_optimal_params()
        cfg = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=1.6, value_model=uniform_values(1, 30)
        ).generate(10, seed=6)
        cert = certificate(trace, cfg, beta, alpha)
        assert cert.theorem4_certified

    @pytest.mark.parametrize("beta,alpha", [(1.5, 2.0), (2.5, 4.0)])
    def test_off_optimal_thresholds_certify(self, beta, alpha):
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=1.4, value_model=uniform_values(1, 40)
        ).generate(8, seed=8)
        cert = certificate(trace, cfg, beta, alpha)
        assert (
            cert.modified_opt_benefit
            <= cpg_ratio(beta, alpha) * cert.cpg_benefit + 1e-6
        )

    def test_skip_conservation(self):
        beta, alpha, _ = cpg_optimal_params()
        cfg = SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)
        trace = BernoulliTraffic(
            3, 3, load=1.5, value_model=uniform_values(1, 40)
        ).generate(10, seed=3)
        cert = certificate(trace, cfg, beta, alpha)
        # Type-1 privileges void y departures; Types 2/3 and skipped y's
        # void z departures downstream.
        assert cert.skipped_y == cert.n_privileged[0]
        assert cert.skipped_z == (
            cert.skipped_y + cert.n_privileged[1] + cert.n_privileged[2]
        )

    def test_rejects_bad_thresholds(self):
        cfg = SwitchConfig.square(2, b_in=1, b_out=1, b_cross=1)
        trace = BernoulliTraffic(2, 2, load=1.0).generate(4, seed=0)
        cpg = run_crossbar(CPGPolicy(), cfg, trace, record=True)
        model = CrossbarOptModel(trace, cfg,
                                 horizon=default_horizon(trace, cfg))
        opt = model.solve(extract_schedule=True)
        with pytest.raises(ValueError):
            replay_cpg_shadow(trace, cfg, cpg, model, opt, 1.0, 2.0)
        with pytest.raises(ValueError):
            replay_cpg_shadow(trace, cfg, cpg, model, opt, 2.0, 1.0)
