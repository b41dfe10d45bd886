"""Tests for the discrete-time simulation engine."""

import pytest

from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.scheduling.base import ArrivalDecision, CIOQPolicy
from repro.simulation.engine import (
    drain_bound,
    run_cioq,
    run_cioq_batch,
    run_crossbar,
    run_crossbar_batch,
    run_streaming,
)
from repro.switch.cioq import ScheduleError, Transfer
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import uniform_values


class TestDrainBound:
    def test_covers_total_capacity(self):
        c = SwitchConfig.square(3, b_in=2, b_out=4, b_cross=1)
        assert drain_bound(c) == 3 * 3 * (2 + 1) + 3 * 4 + 1


class TestRunCIOQ:
    def test_dimension_mismatch_raises(self, small_config):
        trace = BernoulliTraffic(2, 2, load=0.5).generate(5, seed=0)
        with pytest.raises(ValueError, match="trace is"):
            run_cioq(GMPolicy(), small_config, trace)

    def test_empty_trace(self, small_config):
        res = run_cioq(GMPolicy(), small_config, Trace([], 3, 3))
        assert res.benefit == 0.0
        assert res.n_arrived == 0

    def test_conservation_always(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        res.check_conservation()

    def test_switch_drains_after_arrivals(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert res.n_residual == 0

    def test_max_extra_slots_zero_leaves_residual(self, small_config):
        """Cutting the horizon right at the last arrival strands packets."""
        trace = BernoulliTraffic(3, 3, load=2.0).generate(10, seed=1)
        res = run_cioq(GMPolicy(), small_config, trace, max_extra_slots=0)
        assert res.n_residual > 0
        res.check_conservation()

    def test_record_collects_logs(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace, record=True)
        assert len(res.sent_pids) == res.n_sent
        assert len(res.transmit_log) == res.n_sent
        assert len(res.schedule_log) >= res.n_sent  # every sent was transferred

    def test_no_record_by_default(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert res.schedule_log == []
        assert res.sent_pids == []

    def test_speedup_improves_contended_throughput(self):
        trace = BernoulliTraffic(4, 4, load=1.0).generate(40, seed=3)
        base = SwitchConfig.square(4, speedup=1, b_in=1, b_out=1)
        fast = SwitchConfig.square(4, speedup=3, b_in=1, b_out=1)
        r1 = run_cioq(GMPolicy(), base, trace)
        r3 = run_cioq(GMPolicy(), fast, trace)
        assert r3.n_sent >= r1.n_sent

    def test_benefit_equals_sum_of_sent_values(self, small_config):
        trace = BernoulliTraffic(
            3, 3, load=1.0, value_model=uniform_values(1, 9)
        ).generate(15, seed=4)
        res = run_cioq(PGPolicy(), small_config, trace, record=True)
        by_pid = {p.pid: p.value for p in trace.packets}
        assert res.benefit == pytest.approx(
            sum(by_pid[pid] for pid in res.sent_pids)
        )

    def test_per_output_counters(self, small_config, unit_trace):
        res = run_cioq(GMPolicy(), small_config, unit_trace)
        assert sum(res.sent_per_output.values()) == res.n_sent
        assert sum(res.value_per_output.values()) == pytest.approx(res.benefit)


class BadPolicy(CIOQPolicy):
    """Accepts into full queues (invalid) to test engine validation."""

    name = "bad"

    def on_arrival(self, switch, packet):
        return ArrivalDecision.accepted()

    def schedule(self, switch, slot, cycle):
        return []


class DoubleMatchPolicy(CIOQPolicy):
    """Violates the matching property to test engine validation."""

    name = "double"

    def on_arrival(self, switch, packet):
        if switch.voq[packet.src][packet.dst].is_full:
            return ArrivalDecision.reject()
        return ArrivalDecision.accepted()

    def schedule(self, switch, slot, cycle):
        transfers = []
        for j in range(switch.n_out):
            q = switch.voq[0][j]
            head = q.head()
            if head is not None:
                transfers.append(Transfer(0, j, head))
        return transfers if len(transfers) >= 2 else []


class TestEngineValidation:
    def test_overflow_acceptance_rejected(self, small_config):
        trace = BernoulliTraffic(3, 3, load=3.0).generate(10, seed=0)
        with pytest.raises(ScheduleError):
            run_cioq(BadPolicy(), small_config, trace)

    def test_double_input_match_rejected(self, small_config):
        trace = Trace(
            [Packet(0, 1.0, 0, 0, 0), Packet(1, 1.0, 0, 0, 1)], 3, 3
        )
        with pytest.raises(ScheduleError, match="input port"):
            run_cioq(DoubleMatchPolicy(), small_config, trace)


class TestPolicyModelMismatch:
    """A policy for the other switch model is rejected at the entry
    point with one line naming the class and the expected model, on
    every backend."""

    @pytest.mark.parametrize("backend", ["reference", "fast", "auto"])
    @pytest.mark.parametrize("entry, policy_cls, expected", [
        (run_cioq, CGUPolicy, "cioq"),
        (run_crossbar, GMPolicy, "crossbar"),
        (run_cioq_batch, CGUPolicy, "cioq"),
        (run_crossbar_batch, GMPolicy, "crossbar"),
    ], ids=["run_cioq", "run_crossbar", "run_cioq_batch",
            "run_crossbar_batch"])
    def test_wrong_policy_raises_type_error(self, small_config, unit_trace,
                                            entry, policy_cls, expected,
                                            backend):
        if entry in (run_cioq_batch, run_crossbar_batch):
            args = (policy_cls, small_config, [unit_trace])
        else:
            args = (policy_cls(), small_config, unit_trace)
        with pytest.raises(TypeError) as info:
            entry(*args, backend=backend)
        message = str(info.value)
        assert "\n" not in message
        assert policy_cls.__name__ in message
        assert f"{expected} policy" in message

    def test_streaming_rejects_a_non_policy(self, small_config):
        with pytest.raises(TypeError, match="object is not a"):
            run_streaming(object(), small_config, lambda t, sw: [], 3)


class TestRunCrossbar:
    def test_conservation(self, small_config, unit_trace):
        res = run_crossbar(CGUPolicy(), small_config, unit_trace)
        res.check_conservation()

    def test_record_stages(self, small_config, unit_trace):
        res = run_crossbar(CGUPolicy(), small_config, unit_trace, record=True)
        stages = {ev.stage for ev in res.schedule_log}
        assert stages <= {"in", "out"}
        assert "in" in stages and "out" in stages

    def test_dimension_mismatch(self, small_config):
        trace = BernoulliTraffic(2, 2, load=0.5).generate(5, seed=0)
        with pytest.raises(ValueError):
            run_crossbar(CGUPolicy(), small_config, trace)

    def test_crossbar_vs_cioq_same_trace(self, small_config, unit_trace):
        """Both engines accept the same trace type and conserve."""
        r1 = run_cioq(GMPolicy(), small_config, unit_trace)
        r2 = run_crossbar(CGUPolicy(), small_config, unit_trace)
        r1.check_conservation()
        r2.check_conservation()


class TestStreaming:
    def test_streaming_matches_batch_for_same_arrivals(self, small_config):
        trace = BernoulliTraffic(3, 3, load=1.0).generate(15, seed=8)
        by_slot = {}
        for p in trace.packets:
            by_slot.setdefault(p.arrival, []).append((p.src, p.dst, p.value))

        def source(slot, switch):
            return by_slot.get(slot, [])

        stream = run_streaming(
            GMPolicy(), small_config, source, n_slots=trace.n_slots
        )
        batch = run_cioq(GMPolicy(), small_config, trace)
        assert stream.benefit == batch.benefit
        assert stream.n_rejected == batch.n_rejected

    def test_streaming_conservation(self, small_config):
        def source(slot, switch):
            return [(slot % 3, (slot + 1) % 3, 1.0)]

        res = run_streaming(GMPolicy(), small_config, source, n_slots=12)
        res.check_conservation()
        assert res.n_arrived == 12
