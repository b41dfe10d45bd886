"""Hypothesis property tests for the proof-machinery replays.

These fuzz the shadow constructions with random tiny instances: for
every generated instance, the replay must (a) not raise an
InvariantViolation — i.e. the paper's lemma invariants hold — and
(b) produce a certificate satisfying the theorem-level inequalities.
This is the strongest executable evidence the analyses are sound as
implemented.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.offline.crossbar_timegraph import CrossbarOptModel
from repro.offline.opt import cioq_opt
from repro.offline.timegraph import default_horizon
from repro.simulation.engine import run_cioq, run_crossbar
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.theory.shadow import replay_cgu_shadow, replay_gm_shadow
from repro.theory.shadow_weighted import replay_pg_shadow
from repro.traffic.trace import Trace

FUZZ = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tiny_instances(draw, weighted=False):
    n = draw(st.integers(2, 3))
    config = SwitchConfig.square(
        n,
        speedup=draw(st.integers(1, 2)),
        b_in=draw(st.integers(1, 2)),
        b_out=draw(st.integers(1, 2)),
        b_cross=1,
    )
    n_packets = draw(st.integers(1, 12))
    packets = []
    for pid in range(n_packets):
        value = (
            float(draw(st.integers(1, 20))) if weighted else 1.0
        )
        packets.append(
            Packet(
                pid,
                value,
                draw(st.integers(0, 5)),
                draw(st.integers(0, n - 1)),
                draw(st.integers(0, n - 1)),
            )
        )
    return config, Trace(packets, n, n)


class TestFuzzedShadows:
    @given(inst=tiny_instances(weighted=False))
    @FUZZ
    def test_gm_shadow_never_violates(self, inst):
        config, trace = inst
        gm = run_cioq(GMPolicy(), config, trace, record=True)
        opt = cioq_opt(trace, config, extract_schedule=True)
        cert = replay_gm_shadow(trace, config, gm, opt)
        assert cert.theorem1_certified
        assert cert.s_star_bounded
        assert cert.privileged_bounded

    @given(inst=tiny_instances(weighted=True), beta=st.floats(1.2, 4.0))
    @FUZZ
    def test_pg_shadow_never_violates(self, inst, beta):
        config, trace = inst
        pg = run_cioq(PGPolicy(beta=beta), config, trace, record=True)
        opt = cioq_opt(trace, config, extract_schedule=True)
        cert = replay_pg_shadow(trace, config, pg, opt, beta)
        bound = beta + 2 * beta / (beta - 1)
        assert cert.modified_opt_benefit >= cert.opt_benefit - 1e-6
        assert cert.modified_opt_benefit <= bound * cert.pg_benefit + 1e-6

    @given(inst=tiny_instances(weighted=False))
    @FUZZ
    def test_cgu_shadow_never_violates(self, inst):
        config, trace = inst
        cgu = run_crossbar(CGUPolicy(), config, trace, record=True)
        model = CrossbarOptModel(trace, config,
                                 horizon=default_horizon(trace, config))
        opt = model.solve(extract_schedule=True)
        cert = replay_cgu_shadow(trace, config, cgu, model, opt)
        assert cert.theorem3_certified
        assert cert.lemma9_violations == 0
