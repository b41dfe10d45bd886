"""Streaming trace ingestion + the replay-path bugfix regressions.

Covers the four fixes that the streaming rewrite depends on:

1. explicit trailing-idle ``n_slots`` on :class:`Trace` (serialized,
   honored by ``concat`` and replay tiling);
2. replay carrying recorded packet *values* through the streaming path;
3. ``normalized_dst_weights`` rejecting NaN/inf;
4. the ``reset()`` contract clearing stateful models between runs;

plus the chunked stream format itself (validation errors, O(chunk)
readers) and end-to-end engine equality: ``run_streaming`` driven by
an ``arrival_source`` produces results identical to the batch engine on
the materialized trace, for both switch models.
"""

import json

import numpy as np
import pytest

from repro.core import CGUPolicy, GMPolicy, PGPolicy
from repro.simulation.engine import (
    run_cioq,
    run_crossbar,
    run_streaming,
)
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic import (
    ApplicationMixTraffic,
    BernoulliTraffic,
    BurstyTraffic,
    MarkovModulatedTraffic,
    ParetoBurstTraffic,
    Trace,
    TraceReplayTraffic,
    concat,
)
from repro.traffic.base import normalized_dst_weights
from repro.traffic.trace import (
    is_stream_file,
    iter_stream_slots,
    read_stream_header,
)
from repro.traffic.values import two_value, uniform_values


def _rows(trace):
    return [(p.pid, p.value, p.arrival, p.src, p.dst)
            for p in trace.packets]


class TestExplicitNSlots:
    """Bugfix 1: a trace can end with intended idle slots."""

    def test_default_is_derived(self):
        t = Trace([Packet(0, 1.0, 3, 0, 0)], 2, 2)
        assert t.n_slots == 4

    def test_explicit_trailing_idle_kept(self):
        t = Trace([Packet(0, 1.0, 3, 0, 0)], 2, 2, n_slots=10)
        assert t.n_slots == 10
        assert list(t.arrivals(9)) == []
        assert len(t.arrival_slots()) == 10

    def test_empty_trace_with_slots(self):
        t = Trace([], 2, 2, n_slots=5)
        assert t.n_slots == 5 and len(t) == 0
        assert t.offered_load() == 0.0

    def test_rejects_n_slots_below_derived(self):
        with pytest.raises(ValueError, match="smaller than the last"):
            Trace([Packet(0, 1.0, 3, 0, 0)], 2, 2, n_slots=3)

    def test_json_round_trip_carries_n_slots(self):
        t = Trace([Packet(0, 2.5, 1, 0, 1)], 2, 2, n_slots=7)
        back = Trace.from_json(t.to_json())
        assert back.n_slots == 7
        assert _rows(back) == _rows(t)

    def test_from_json_back_compat_without_n_slots(self):
        # Files written before the fix carry no "n_slots" key.
        payload = json.loads(Trace([Packet(0, 1.0, 2, 0, 0)], 2, 2,
                                   n_slots=9).to_json())
        del payload["n_slots"]
        back = Trace.from_json(json.dumps(payload))
        assert back.n_slots == 3  # derived, as those files implied

    def test_concat_respects_trailing_idle(self):
        first = Trace([Packet(0, 1.0, 0, 0, 0)], 2, 2, n_slots=6)
        second = Trace([Packet(0, 1.0, 0, 1, 1)], 2, 2)
        joined = concat(first, second, gap=2)
        # Second trace starts after first's full 6 slots + the gap.
        assert [p.arrival for p in joined.packets] == [0, 8]
        assert joined.n_slots == 9

    def test_repeat_tiles_with_trailing_idle_period(self):
        # A 1-packet recording padded to 4 slots must tile with period
        # 4, not period 1 (the old derived-n_slots bug).
        src = Trace([Packet(0, 3.0, 0, 0, 0)], 2, 2, n_slots=4)
        out = TraceReplayTraffic(src, repeat=True).generate(12)
        assert [p.arrival for p in out.packets] == [0, 4, 8]
        assert all(p.value == 3.0 for p in out.packets)
        assert out.n_slots == 12

    def test_generate_preserves_requested_slots(self):
        t = BernoulliTraffic(2, 2, load=0.3).generate(50, seed=0)
        assert t.n_slots == 50


class TestReplayValues:
    """Bugfix 2: the streaming path carries recorded values."""

    def test_arrivals_for_slot_returns_recorded_values(self):
        src = BernoulliTraffic(2, 2, load=2.0,
                               value_model=uniform_values(1, 50)
                               ).generate(5, seed=3)
        assert not src.is_unit_valued
        r = TraceReplayTraffic(src)
        rng = np.random.default_rng(0)
        got = [trip for t in range(5)
               for trip in r.arrivals_for_slot(t, rng)]
        assert got == [(p.src, p.dst, p.value) for p in src.packets]

    def test_streaming_equals_generate_on_non_unit_trace(self):
        src = BurstyTraffic(3, 3, burst_load=2.0,
                            value_model=two_value(9.0, 0.4)
                            ).generate(20, seed=5)
        assert not src.is_unit_valued
        replay = TraceReplayTraffic(src)
        materialized = replay.generate(20)
        source = replay.arrival_source()
        streamed = []
        for t in range(20):
            for s, d, v in source(t, None):
                streamed.append((len(streamed), v, t, s, d))
        assert streamed == _rows(materialized) == _rows(src)


class TestFiniteWeights:
    """Bugfix 3: NaN/inf destination weights fail fast."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalized_dst_weights(3, [0.5, bad, 0.2])

    def test_model_constructor_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            BurstyTraffic(2, 3, dst_weights=[1.0, float("nan"), 1.0])

    def test_valid_weights_still_normalize(self):
        w = normalized_dst_weights(2, [1.0, 3.0])
        assert w.tolist() == [0.25, 0.75]


class TestResetContract:
    """Bugfix 4: stateful models reset between runs."""

    @pytest.mark.parametrize("make", [
        lambda: MarkovModulatedTraffic(3, 3, loads=[0.2, 2.0]),
        lambda: ParetoBurstTraffic(3, 3),
        lambda: BurstyTraffic(3, 3),
        lambda: ApplicationMixTraffic(3, 3),
    ])
    def test_reuse_after_mid_run_state_is_deterministic(self, make):
        fresh = make().generate(30, seed=11)
        dirty = make()
        # Leak mid-run state: query arbitrary non-zero slots directly.
        rng = np.random.default_rng(999)
        for slot in (4, 5, 6):
            dirty.arrivals_for_slot(slot, rng)
        # generate() must reset, so the leaked state cannot bleed in.
        assert dirty.generate(30, seed=11).to_json() == fresh.to_json()
        # arrival_source() resets too.
        source = dirty.arrival_source(seed=11)
        streamed = []
        for t in range(30):
            for s, d, v in source(t, None):
                streamed.append((len(streamed), v, t, s, d))
        assert streamed == _rows(fresh)

    def test_base_reset_is_noop(self):
        m = BernoulliTraffic(2, 2, load=1.0)
        m.reset()  # stateless models keep the no-op default


class TestStreamFormat:
    def _write(self, tmp_path, trace, chunk_slots=4):
        path = str(tmp_path / "t.jsonl")
        trace.save_stream(path, chunk_slots=chunk_slots)
        return path

    def test_sniffing(self, tmp_path):
        trace = BernoulliTraffic(2, 2, load=1.0).generate(6, seed=0)
        stream = self._write(tmp_path, trace)
        legacy = str(tmp_path / "t.json")
        trace.save(legacy)
        assert is_stream_file(stream)
        assert not is_stream_file(legacy)
        assert _rows(Trace.load(stream)) == _rows(Trace.load(legacy))

    def test_iter_stream_slots_yields_every_slot(self, tmp_path):
        trace = Trace([Packet(0, 1.0, 2, 0, 0)], 2, 2, n_slots=9)
        path = self._write(tmp_path, trace, chunk_slots=3)
        slots = list(iter_stream_slots(path))
        assert [s for s, _ in slots] == list(range(9))
        assert [len(ps) for _, ps in slots] == [0, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_header_validation(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "repro-trace-stream",
                                 "version": 99, "n_in": 2, "n_out": 2,
                                 "n_slots": 1, "n_packets": 0}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_stream_header(path)

    def test_packet_count_mismatch_detected(self, tmp_path):
        trace = BernoulliTraffic(2, 2, load=2.0).generate(4, seed=1)
        path = self._write(tmp_path, trace)
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["n_packets"] += 1
        with open(path, "w") as fh:
            fh.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="promises"):
            list(iter_stream_slots(path))

    def test_out_of_range_packet_detected(self, tmp_path):
        trace = Trace([Packet(0, 1.0, 0, 0, 0)], 1, 1, n_slots=2)
        path = self._write(tmp_path, trace)
        lines = open(path).read().splitlines()
        chunk = json.loads(lines[1])
        chunk["packets"][0][3] = 5  # src out of range
        with open(path, "w") as fh:
            fh.write("\n".join([lines[0], json.dumps(chunk)]) + "\n")
        with pytest.raises(ValueError, match="out of range"):
            list(iter_stream_slots(path))

    def test_arrival_source_rejects_slot_skips(self):
        m = BernoulliTraffic(2, 2, load=1.0)
        source = m.arrival_source(seed=0)
        source(0, None)
        with pytest.raises(ValueError, match="consecutive"):
            source(2, None)


class TestEngineStreamingEquality:
    """run_streaming over an arrival_source == batch engine over the
    materialized trace, field for field."""

    CONFIG = SwitchConfig(n_in=3, n_out=3, speedup=1, b_in=2, b_out=2,
                          b_cross=1)

    def _assert_equal(self, a, b):
        assert a.summary() == b.summary()
        assert a.benefit == b.benefit

    @pytest.mark.parametrize("policy_cls", [GMPolicy, PGPolicy])
    def test_cioq_streaming_matches_batch(self, policy_cls):
        model = ApplicationMixTraffic(3, 3,
                                      value_model=two_value(7.0, 0.3))
        trace = model.generate(40, seed=2)
        batch = run_cioq(policy_cls(), self.CONFIG, trace,
                         backend="reference")
        stream = run_streaming(policy_cls(), self.CONFIG,
                               model.arrival_source(seed=2), 40)
        self._assert_equal(batch, stream)

    def test_crossbar_streaming_matches_batch(self):
        model = BurstyTraffic(3, 3, burst_load=2.5)
        trace = model.generate(30, seed=4)
        batch = run_crossbar(CGUPolicy(), self.CONFIG, trace,
                             backend="reference")
        stream = run_streaming(CGUPolicy(), self.CONFIG,
                               model.arrival_source(seed=4), 30)
        self._assert_equal(batch, stream)

    def test_stream_file_replay_matches_batch(self, tmp_path):
        model = BernoulliTraffic(3, 3, load=1.5,
                                 value_model=uniform_values(1, 20))
        trace = model.generate(25, seed=9)
        path = str(tmp_path / "rec.jsonl")
        trace.save_stream(path, chunk_slots=4)
        replay = TraceReplayTraffic(path)
        assert replay._trace is None
        stream = run_streaming(GMPolicy(), self.CONFIG,
                               replay.arrival_source(), 25)
        batch = run_cioq(GMPolicy(), self.CONFIG, trace,
                         backend="reference")
        self._assert_equal(batch, stream)

    def test_crossbar_streaming_rejects_fast_backend(self):
        from repro.simulation.backends import BackendUnsupported

        model = BernoulliTraffic(3, 3, load=1.0)
        with pytest.raises(BackendUnsupported):
            run_streaming(CGUPolicy(), self.CONFIG,
                          model.arrival_source(), 5,
                          backend="fast")
