"""Property-based tests over the seeded strategies in ``_strategies.py``.

Each test draws :data:`~_strategies.N_CASES` arbitrary instances per
seed and asserts an invariant:

* ScenarioSpec TOML and JSON round-trips are the identity for any valid
  spec (including replicates blocks, nested params and awkward strings);
* traffic models conserve packet counts, never emit out-of-range ports,
  slots or non-positive values, and are pure functions of the seed;
* Welford accumulation matches batch statistics to 1e-9 relative error,
  and merging split halves matches the un-split accumulator.

The suite always runs under the committed ``FIXED_SEED``; CI adds a
randomized second seed through ``REPRO_PROP_SEED`` (the seed is in the
pytest id, so a failure names the exact value to reproduce with).
"""

import math
import os
import random
import statistics
import tempfile

import pytest

from _strategies import (
    N_CASES,
    float_sample,
    property_seeds,
    spec_strategy,
    traffic_strategy,
)
from repro.scenarios import ScenarioSpec
from repro.stats import Welford
from repro.traffic.replay import TraceReplayTraffic
from repro.traffic.trace import Trace

SEEDS = property_seeds()


def _ids(seed: int) -> str:
    return f"seed={seed:#x}"


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestSpecRoundTrip:
    def test_toml_and_json_round_trip_identity(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            spec = spec_strategy(rng)
            context = f"seed={seed:#x} case={case} spec={spec.name!r}"
            via_toml = ScenarioSpec.from_toml(spec.to_toml())
            assert via_toml == spec, f"TOML round trip changed {context}"
            via_json = ScenarioSpec.from_json(spec.to_json())
            assert via_json == spec, f"JSON round trip changed {context}"
            # to_dict is itself stable through a round trip.
            assert via_toml.to_dict() == spec.to_dict(), context

    def test_round_trip_preserves_derived_views(self, seed):
        rng = random.Random(seed)
        for _ in range(N_CASES):
            spec = spec_strategy(rng)
            back = ScenarioSpec.from_toml(spec.to_toml())
            assert back.policy_labels() == spec.policy_labels()
            assert back.seeds == spec.seeds
            assert dict(back.replicates) == dict(spec.replicates)


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestTrafficInvariants:
    def test_ports_values_slots_in_range_and_pids_dense(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, n_in, n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 40)
            trace = model.generate(n_slots, seed=rng.randrange(10_000))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            assert (trace.n_in, trace.n_out) == (n_in, n_out), context
            for p in trace.packets:
                assert 0 <= p.src < n_in, context
                assert 0 <= p.dst < n_out, context
                assert 0 <= p.arrival < n_slots, context
                assert p.value > 0 and math.isfinite(p.value), context
            # Packet ids are dense and in arrival order (the repo's
            # tie-breaking convention).
            assert [p.pid for p in trace.packets] == \
                   list(range(len(trace.packets))), context
            arrivals = [p.arrival for p in trace.packets]
            assert arrivals == sorted(arrivals), context

    def test_generation_is_pure_function_of_seed(self, seed):
        rng = random.Random(seed)
        for _ in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 30)
            trace_seed = rng.randrange(10_000)
            first = model.generate(n_slots, seed=trace_seed)
            second = model.generate(n_slots, seed=trace_seed)
            assert first.to_json() == second.to_json(), model.name

    def test_replay_conserves_packets_and_values(self, seed):
        """Replaying a recorded trace reproduces its packet count,
        per-slot arrivals and total value exactly."""
        rng = random.Random(seed)
        for _ in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 25)
            original = model.generate(n_slots, seed=rng.randrange(10_000))
            replayed = TraceReplayTraffic(original).generate(n_slots)
            assert len(replayed) == len(original), model.name
            assert [(p.src, p.dst, p.arrival, p.value)
                    for p in replayed.packets] == \
                   [(p.src, p.dst, p.arrival, p.value)
                    for p in original.packets], model.name


def _packet_rows(trace):
    return [(p.pid, p.value, p.arrival, p.src, p.dst)
            for p in trace.packets]


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestTraceStreaming:
    def test_stream_round_trip_identity_with_trailing_idle(self, seed):
        """save_stream -> load round-trips any trace exactly, explicit
        trailing idle slots included (the n_slots bugfix)."""
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 30)
            trace = model.generate(n_slots, seed=rng.randrange(10_000))
            if rng.random() < 0.5:
                # Re-wrap with extra trailing idle slots.
                trace = Trace(trace.packets, trace.n_in, trace.n_out,
                              name=trace.name,
                              n_slots=trace.n_slots + rng.randint(1, 20))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            fd, path = tempfile.mkstemp(suffix=".jsonl")
            os.close(fd)
            try:
                trace.save_stream(path, chunk_slots=rng.randint(1, 40))
                back = Trace.load(path)
            finally:
                os.unlink(path)
            assert back.n_slots == trace.n_slots, context
            assert (back.n_in, back.n_out) == \
                   (trace.n_in, trace.n_out), context
            assert _packet_rows(back) == _packet_rows(trace), context
            # The legacy JSON round trip carries n_slots too.
            again = Trace.from_json(trace.to_json())
            assert again.n_slots == trace.n_slots, context
            assert _packet_rows(again) == _packet_rows(trace), context

    def test_arrival_source_matches_generate(self, seed):
        """Driving a model's streaming arrival_source slot-by-slot
        reproduces generate()'s packets exactly (the byte-identity
        contract behind run_streaming)."""
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 30)
            trace_seed = rng.randrange(10_000)
            trace = model.generate(n_slots, seed=trace_seed)
            source = model.arrival_source(seed=trace_seed)
            streamed = []
            for t in range(n_slots):
                for src, dst, value in source(t, None):
                    streamed.append((len(streamed), value, t, src, dst))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            assert streamed == _packet_rows(trace), context

    def test_streaming_replay_matches_materialized(self, seed):
        """A stream-file-backed TraceReplayTraffic replays arrivals and
        recorded values identically to the materialized trace."""
        rng = random.Random(seed)
        for case in range(N_CASES):
            model, _n_in, _n_out = traffic_strategy(rng)
            n_slots = rng.randint(1, 25)
            trace = model.generate(n_slots, seed=rng.randrange(10_000))
            context = f"seed={seed:#x} case={case} model={model.name!r}"
            fd, path = tempfile.mkstemp(suffix=".jsonl")
            os.close(fd)
            try:
                trace.save_stream(path, chunk_slots=rng.randint(1, 10))
                replay = TraceReplayTraffic(path)
                assert replay._trace is None, context  # not materialized
                source = replay.arrival_source()
                streamed = []
                for t in range(trace.n_slots):
                    for src, dst, value in source(t, None):
                        streamed.append((len(streamed), value, t, src, dst))
            finally:
                os.unlink(path)
            assert streamed == _packet_rows(trace), context


@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestWelfordProperties:
    def test_matches_batch_mean_and_variance(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            values = float_sample(rng)
            acc = Welford.from_values(values)
            context = f"seed={seed:#x} case={case} n={len(values)}"
            assert acc.n == len(values), context
            assert acc.mean == pytest.approx(
                statistics.fmean(values), rel=1e-9, abs=1e-9), context
            if len(values) >= 2:
                assert acc.variance == pytest.approx(
                    statistics.variance(values), rel=1e-9, abs=1e-9), context
            else:
                assert math.isnan(acc.variance), context

    def test_merge_of_split_halves_matches_whole(self, seed):
        rng = random.Random(seed)
        for case in range(N_CASES):
            values = float_sample(rng)
            cut = rng.randint(0, len(values))
            merged = Welford.from_values(values[:cut]).merge(
                Welford.from_values(values[cut:]))
            whole = Welford.from_values(values)
            context = f"seed={seed:#x} case={case} cut={cut}"
            assert merged.n == whole.n, context
            assert merged.mean == pytest.approx(
                whole.mean, rel=1e-9, abs=1e-9), context
            if whole.n >= 2:
                assert merged.variance == pytest.approx(
                    whole.variance, rel=1e-9, abs=1e-9), context

@pytest.mark.parametrize("seed", SEEDS, ids=_ids)
class TestCertifiedOptBrackets:
    """Certified-bracket invariants of the windowed / bounds OPT
    solvers, checked against the exact MILP on tiny instances (see
    ``docs/offline_opt.md``).  Exact solves dominate the runtime, so
    the per-seed case count is lower than :data:`N_CASES`.
    """

    N_OPT_CASES = 8

    @staticmethod
    def _tol(x: float) -> float:
        return 1e-7 * (1.0 + abs(x))

    def test_brackets_sandwich_exact(self, seed):
        from _strategies import opt_instance_strategy
        from repro.offline import bounds_opt, solve_opt, windowed_opt

        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            exact = solve_opt(trace, config, model=model, mode="exact")
            total = sum(p.value for p in trace.packets)
            tol = self._tol(exact.benefit)
            context = f"seed={seed:#x} case={case} trace={trace.name}"
            candidates = [bounds_opt(trace, config, model=model)]
            if trace.n_slots >= 1:
                window = rng.randint(1, trace.n_slots)
                candidates.append(
                    windowed_opt(trace, config, window=window, model=model))
            for res in candidates:
                assert res.opt_lower <= res.opt_upper + tol, context
                assert res.opt_lower - tol <= exact.benefit, context
                assert exact.benefit <= res.opt_upper + tol, context
                assert 0.0 <= res.opt_lower + tol, context
                assert res.opt_upper <= total + self._tol(total), context

    def test_windowed_tightens_monotonically(self, seed):
        """Doubling the window along a divisible ladder never loosens
        the bracket: each 2W window merges exactly two W windows, and
        merged upper (lower) bounds only tighten."""
        from _strategies import opt_instance_strategy
        from repro.offline import windowed_opt

        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            if trace.n_slots < 2:
                continue
            w = rng.randint(1, trace.n_slots // 2)
            narrow = windowed_opt(trace, config, window=w, model=model)
            wide = windowed_opt(trace, config, window=2 * w, model=model)
            tol = self._tol(narrow.opt_upper)
            context = f"seed={seed:#x} case={case} w={w} trace={trace.name}"
            assert wide.opt_lower >= narrow.opt_lower - tol, context
            assert wide.opt_upper <= narrow.opt_upper + tol, context

    def test_concatenation_stitching(self, seed):
        """Splitting a trace at a window boundary stitches exactly:
        the two-window bracket sits between the forced-drain + exact
        sum (below) and the exact + exact sum (above), and still
        sandwiches the exact optimum of the whole trace."""
        from _strategies import opt_instance_strategy
        from repro.offline import solve_opt, windowed_opt
        from repro.offline.crossbar_timegraph import CrossbarOptModel
        from repro.offline.timegraph import CIOQOptModel
        from repro.offline.windowed import subtrace

        classes = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}
        rng = random.Random(seed)
        for case in range(self.N_OPT_CASES):
            trace, config, model = opt_instance_strategy(rng)
            if trace.n_slots < 2:
                continue
            # One cut at w >= ceil(n/2) => exactly two windows.
            w = rng.randint((trace.n_slots + 1) // 2, trace.n_slots - 1)
            head = subtrace(trace, 0, w)
            tail = subtrace(trace, w, trace.n_slots)
            stitched = windowed_opt(trace, config, window=w, model=model)
            exact = solve_opt(trace, config, model=model, mode="exact")
            e_head = solve_opt(head, config, model=model, mode="exact")
            e_tail = solve_opt(tail, config, model=model, mode="exact")
            forced_head = classes[model](head, config, horizon=w).solve()
            tol = self._tol(exact.benefit)
            context = f"seed={seed:#x} case={case} w={w} trace={trace.name}"
            assert stitched.opt_upper <= (
                e_head.benefit + e_tail.benefit + tol), context
            assert stitched.opt_lower >= (
                forced_head.benefit + e_tail.benefit - tol), context
            assert (stitched.opt_lower - tol <= exact.benefit
                    <= stitched.opt_upper + tol), context
