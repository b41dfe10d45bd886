"""Differential OPT test matrix: windowed / bounds vs the exact MILP.

Pins the certified OPT solvers (:mod:`repro.offline.windowed`,
:mod:`repro.offline.bounds`) to the exact time-expanded MILP across
every builtin scenario (downscaled so exact OPT stays cheap):

* windowed mode with ``window >= horizon`` delegates to the exact model
  and must reproduce its benefit **bit-for-bit** (no tolerance);
* every certified bracket — windowed with a proper window, and the
  near-free bounds mode — must sandwich the exact optimum;
* the drain lemma behind the exact models' open end
  (:func:`~repro.offline.timegraph.window_drain_slots`) is validated
  differentially: exact OPT over the arrival slots with bounded final
  inventories must equal exact OPT drained over
  ``n_slots + window_drain_slots(config)`` and over the engine's much
  longer ``n_slots + drain_bound(config)``, for both switch models;
* schedule extraction keeps the drained horizon, and extracted schedules
  and windowed brackets are pinned to literal values;
* :func:`~repro.offline.opt.solve_opt` dispatch and
  :func:`~repro.offline.opt.select_opt_mode` auto-selection are pinned
  (mode validation, exact-for-small, deterministic selection, and the
  engine-horizon size proxy auto mode was calibrated on).

Scenarios are downscaled to 6 arrival slots with small buffers so each
MILP solves in milliseconds; the *structure* (switch shape, traffic
model, value model) is the registered one.
"""

import pytest

from repro.offline import (
    OPT_MODES,
    CIOQOptModel,
    CrossbarOptModel,
    bounds_opt,
    capacity_upper_bound,
    cioq_opt,
    crossbar_opt,
    select_opt_mode,
    solve_opt,
    window_drain_slots,
    windowed_opt,
)
from repro.offline.opt import AUTO_EXACT_BUDGET, _exact_size_proxy
from repro.offline.timegraph import default_horizon
from repro.scenarios import all_scenarios
from repro.simulation.engine import drain_bound
from repro.switch.config import SwitchConfig
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import pareto_values, two_value, uniform_values

#: Downscaled arrival horizon: small enough that exact OPT on every
#: builtin scenario solves in milliseconds, large enough that windows
#: of size 1-3 still stitch several segments.
SLOTS = 6

#: Seeds per scenario in the matrix (first two registered seeds).
SEEDS_PER_SCENARIO = 2


def _downscale(spec):
    """The registered scenario with tiny buffers and a short horizon.

    Ports and speedup are kept (traffic parameters like ``hot_port``
    validate against them); buffers shrink so the drain bound — and with
    it the MILP horizon — stays small.
    """
    switch = dict(spec.switch)
    switch.update(b_in=2, b_out=2, b_cross=1)
    return spec.with_overrides(slots=SLOTS, switch=switch)


def _cases():
    for spec in all_scenarios():
        for seed in spec.seeds[:SEEDS_PER_SCENARIO]:
            yield spec, seed


CASES = list(_cases())
CASE_IDS = [f"{spec.name}-s{seed}" for spec, seed in CASES]


def _instance(spec, seed):
    sub = _downscale(spec)
    config = sub.build_config()
    trace = sub.build_traffic().generate(sub.slots, seed=seed)
    exact_solver = cioq_opt if spec.model == "cioq" else crossbar_opt
    return trace, config, exact_solver


@pytest.mark.parametrize(("spec", "seed"), CASES, ids=CASE_IDS)
class TestDifferentialMatrix:
    def test_windowed_full_window_is_exact_bitwise(self, spec, seed):
        """window >= horizon delegates to the exact model verbatim."""
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        window = max(trace.n_slots, 1)
        w = windowed_opt(trace, config, window=window, model=spec.model)
        assert w.mode == "windowed"
        assert w.n_windows == 1
        # Bit-for-bit: ==, not approx.
        assert w.benefit == exact.benefit
        assert w.opt_lower == exact.benefit
        assert w.opt_upper == exact.benefit
        assert w.is_exact

    def test_windowed_bracket_sandwiches_exact(self, spec, seed):
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        for window in (1, 2, max(1, trace.n_slots // 2)):
            w = windowed_opt(trace, config, window=window, model=spec.model)
            assert w.opt_lower - 1e-9 <= exact.benefit <= w.opt_upper + 1e-9, (
                f"window={window}: bracket [{w.opt_lower}, {w.opt_upper}] "
                f"misses exact {exact.benefit}"
            )
            assert w.opt_lower <= w.opt_upper
            assert w.benefit == w.opt_upper

    def test_bounds_bracket_sandwiches_exact(self, spec, seed):
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        b = bounds_opt(trace, config, model=spec.model)
        assert b.mode == "bounds"
        assert b.opt_lower - 1e-9 <= exact.benefit <= b.opt_upper + 1e-9
        assert b.benefit == b.opt_upper

    def test_solve_opt_exact_mode_matches_direct_call(self, spec, seed):
        trace, config, exact_solver = _instance(spec, seed)
        exact = exact_solver(trace, config)
        via = solve_opt(trace, config, model=spec.model, mode="exact")
        assert via.benefit == exact.benefit
        assert via.mode == "exact"


DRAIN_MODELS = {"cioq": CIOQOptModel, "crossbar": CrossbarOptModel}
DRAIN_VALUES = {"uniform": lambda: uniform_values(1, 9),
                "pareto": pareto_values}


class TestDrainLemma:
    """The drain lemma makes the open end exact: the default model ends
    at the last arrival slot and keeps its final inventories, and its
    OPT equals OPT drained over ``n_slots + window_drain_slots(config)``
    (the O(N * b) lemma horizon) and over the engine's O(N^2 * b)
    ``n_slots + drain_bound(config)``, on both switch models."""

    CONFIGS = [
        SwitchConfig.square(2, speedup=1, b_in=1, b_out=1, b_cross=1),
        SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1),
        SwitchConfig.square(3, speedup=2, b_in=2, b_out=1, b_cross=2),
    ]
    #: Incast overload: ~3.6 packets per slot aimed at output 0.
    INCAST = SwitchConfig.square(4, speedup=1, b_in=2, b_out=1, b_cross=1)

    @staticmethod
    def _assert_drain_preserves_opt(kind, trace, config):
        cls = DRAIN_MODELS[kind]
        open_end = cls(trace, config)
        assert open_end.open_ended and open_end.horizon == trace.n_slots
        lemma = cls(trace, config,
                    horizon=trace.n_slots + window_drain_slots(config))
        engine = cls(trace, config,
                     horizon=trace.n_slots + drain_bound(config))
        assert not lemma.open_ended and not engine.open_ended
        assert lemma.horizon == default_horizon(trace, config)
        assert lemma.horizon < engine.horizon
        benefit = open_end.solve().benefit
        assert benefit == lemma.solve().benefit == engine.solve().benefit

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("values", sorted(DRAIN_VALUES))
    @pytest.mark.parametrize(
        "config", CONFIGS, ids=lambda c: f"{c.n_in}x{c.n_out}s{c.speedup}"
    )
    @pytest.mark.parametrize("kind", sorted(DRAIN_MODELS))
    def test_drain_horizon_preserves_opt(self, kind, config, values, seed):
        trace = BernoulliTraffic(
            config.n_in, config.n_out, load=1.5,
            value_model=DRAIN_VALUES[values](),
        ).generate(5, seed=seed)
        self._assert_drain_preserves_opt(kind, trace, config)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("values", sorted(DRAIN_VALUES))
    @pytest.mark.parametrize("kind", sorted(DRAIN_MODELS))
    def test_drain_horizon_preserves_opt_under_incast(self, kind, values,
                                                      seed):
        config = self.INCAST
        trace = HotspotTraffic(
            config.n_in, config.n_out, load=1.0, hot_fraction=0.9,
            value_model=DRAIN_VALUES[values](),
        ).generate(6, seed=seed)
        self._assert_drain_preserves_opt(kind, trace, config)

    def test_drain_slots_below_default_bound(self):
        for config in self.CONFIGS + [self.INCAST]:
            assert window_drain_slots(config) < drain_bound(config)
            trace = Trace([], config.n_in, config.n_out)
            assert (default_horizon(trace, config)
                    == trace.n_slots + window_drain_slots(config))


#: A 2x2 two-value overload whose OPT schedule drains past the arrivals.
SCHEDULE_CONFIG = SwitchConfig.square(2, speedup=1, b_in=1, b_out=1,
                                      b_cross=1)


def _schedule_trace():
    return BernoulliTraffic(
        2, 2, load=1.5, value_model=two_value(10.0, 0.3)).generate(4, seed=3)


class TestScheduleExtraction:
    """Schedules are only read from drained models."""

    #: ``(accepted_pids, departures, transmissions)`` per model, recorded
    #: while the default exact model was still drained over
    #: ``n_slots + window_drain_slots``.
    PINNED = {
        "cioq": (
            [0, 2, 4, 6, 7, 8, 9, 10, 12],
            [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0),
             (2, 0, 1, 0), (3, 0, 0, 1), (3, 0, 1, 0), (6, 0, 1, 1),
             (7, 0, 0, 0)],
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (3, 1),
             (6, 1), (7, 0)],
        ),
        "crossbar": (
            [0, 2, 4, 6, 7, 8, 9, 10, 12],
            [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0),
             (2, 0, 1, 0), (3, 0, 0, 1), (3, 0, 1, 0), (9, 0, 0, 0),
             (9, 0, 1, 1)],
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (3, 1),
             (9, 0), (9, 1)],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(DRAIN_MODELS))
    def test_open_ended_model_refuses_extraction(self, kind):
        trace = _schedule_trace()
        model = DRAIN_MODELS[kind](trace, SCHEDULE_CONFIG)
        horizon = default_horizon(trace, SCHEDULE_CONFIG)
        with pytest.raises(ValueError, match=f"horizon={horizon} "):
            model.solve(extract_schedule=True)

    @pytest.mark.parametrize("kind", sorted(DRAIN_MODELS))
    def test_solve_opt_extracts_over_default_horizon(self, kind):
        trace = _schedule_trace()
        res = solve_opt(trace, SCHEDULE_CONFIG, model=kind,
                        extract_schedule=True)
        assert len(res.transmissions) == res.n_delivered
        assert res.benefit == solve_opt(trace, SCHEDULE_CONFIG,
                                        model=kind).benefit
        assert (res.accepted_pids, res.departures,
                res.transmissions) == self.PINNED[kind]
        assert max(t for t, _ in res.transmissions) >= trace.n_slots


class TestWindowedBracketsPinned:
    """The windowed solver's free-drain windows are open-ended; its
    brackets must not move."""

    CONFIGS = {
        "s1": SwitchConfig.square(3, speedup=1, b_in=2, b_out=1, b_cross=1),
        "s2": SwitchConfig.square(3, speedup=2, b_in=1, b_out=2, b_cross=1),
    }
    #: ``(opt_lower, opt_upper)`` per (model, config, seed, window),
    #: recorded while free-drain windows were drained over
    #: ``n_slots + window_drain_slots``.
    BRACKETS = {
        ("cioq", "s1", 0, 2): (95.0, 98.0),
        ("cioq", "s1", 0, 3): (95.0, 98.0),
        ("cioq", "s1", 1, 2): (120.0, 128.0),
        ("cioq", "s1", 1, 3): (120.0, 127.0),
        ("cioq", "s2", 0, 2): (93.0, 95.0),
        ("cioq", "s2", 0, 3): (93.0, 95.0),
        ("cioq", "s2", 1, 2): (119.0, 123.0),
        ("cioq", "s2", 1, 3): (119.0, 123.0),
        ("crossbar", "s1", 0, 2): (94.0, 98.0),
        ("crossbar", "s1", 0, 3): (94.0, 98.0),
        ("crossbar", "s1", 1, 2): (119.0, 128.0),
        ("crossbar", "s1", 1, 3): (119.0, 128.0),
        ("crossbar", "s2", 0, 2): (94.0, 95.0),
        ("crossbar", "s2", 0, 3): (94.0, 95.0),
        ("crossbar", "s2", 1, 2): (122.0, 123.0),
        ("crossbar", "s2", 1, 3): (122.0, 123.0),
    }

    def test_brackets_are_pinned(self):
        for (kind, cid, seed, window), expected in self.BRACKETS.items():
            trace = BernoulliTraffic(
                3, 3, load=1.6, value_model=two_value(10.0, 0.3),
            ).generate(8, seed=seed)
            res = windowed_opt(trace, self.CONFIGS[cid], window=window,
                               model=kind)
            assert res.bracket == expected, (kind, cid, seed, window)


class TestDispatchAndSelection:
    def test_rejects_unknown_mode(self, tiny_config):
        trace = Trace([], 2, 2)
        with pytest.raises(ValueError, match="unknown opt mode"):
            solve_opt(trace, tiny_config, mode="magic")

    def test_rejects_unknown_model(self, tiny_config):
        trace = Trace([], 2, 2)
        with pytest.raises(ValueError, match="unknown offline model"):
            solve_opt(trace, tiny_config, model="banyan")

    def test_windowed_requires_window(self, tiny_config):
        trace = Trace([], 2, 2)
        with pytest.raises(ValueError, match="window"):
            solve_opt(trace, tiny_config, mode="windowed")

    def test_auto_picks_exact_for_small(self, tiny_config):
        trace = Trace([], 2, 2)
        mode, window = select_opt_mode(trace, tiny_config)
        assert mode == "exact"
        assert window is None

    def test_auto_is_deterministic_and_valid(self):
        # One packet arriving at slot-1 sets the trace's slot horizon
        # without materializing a big packet list.
        for n, slots in [(2, 4), (4, 64), (8, 512), (16, 4096)]:
            config = SwitchConfig.square(n, speedup=2, b_in=4, b_out=4)
            trace = Trace([Packet(0, 1.0, slots - 1, 0, 0)], n, n)
            first = select_opt_mode(trace, config)
            second = select_opt_mode(trace, config)
            assert first == second
            assert first[0] in OPT_MODES and first[0] != "auto"
            if first[0] == "windowed":
                assert first[1] is not None and first[1] >= 1

    #: ``select_opt_mode`` per (n, slots, all pairs active), recorded
    #: with the exact models on the engine horizon ``n_slots +
    #: drain_bound``: auto sizes the exact model on that horizon, so the
    #: exact models' shorter one must not move a single choice.
    AUTO_TABLE = {
        (2, 4, False): ("exact", None),
        (4, 64, False): ("exact", None),
        (8, 512, False): ("exact", None),
        (16, 4096, False): ("exact", None),
        (4, 64, True): ("exact", None),
        (8, 16, True): ("windowed", 48),
        (8, 64, True): ("windowed", 48),
        (8, 512, True): ("windowed", 48),
        (16, 64, True): ("bounds", None),
    }

    def test_auto_selection_table_is_pinned(self):
        for (n, slots, all_pairs), expected in self.AUTO_TABLE.items():
            config = SwitchConfig.square(n, speedup=2, b_in=4, b_out=4)
            # Every pair arrives at slot 0, except (0, 0) at slot-1.
            pairs = ([(i, j) for i in range(n) for j in range(n)]
                     if all_pairs else [(0, 0)])
            packets = sorted(
                (Packet(n * i + j, 1.0, slots - 1 if (i, j) == (0, 0) else 0,
                        i, j) for i, j in pairs),
                key=lambda p: (p.arrival, p.pid))
            trace = Trace(packets, n, n)
            assert select_opt_mode(trace, config) == expected, (n, slots)

    def test_capacity_bound_keeps_engine_horizon(self):
        # Incast of 30 packets on output 0: the capacity bound is
        # horizon-limited, so the default horizon would lower it.
        config = SwitchConfig.square(4, speedup=1, b_in=1, b_out=1, b_cross=1)
        trace = Trace([Packet(k, 1.0 + k % 3, 0, k % 4, 0)
                       for k in range(30)], 4, 4)
        engine = trace.n_slots + drain_bound(config)
        assert capacity_upper_bound(trace, config) == 60.0
        assert capacity_upper_bound(trace, config, horizon=engine) == 60.0
        assert capacity_upper_bound(
            trace, config, horizon=default_horizon(trace, config)) < 60.0

    def test_proxy_threshold_respected(self):
        config = SwitchConfig.square(16, speedup=2, b_in=4, b_out=4)
        # All 256 pairs active with a late arrival => long horizon and
        # a full pair set => huge proxy.
        packets = [
            Packet(16 * i + j, 1.0, 9999, i, j)
            for i in range(16) for j in range(16)
        ]
        trace = Trace(packets, 16, 16)
        horizon = default_horizon(trace, config)
        assert _exact_size_proxy(trace, config, horizon) > AUTO_EXACT_BUDGET
        mode, _ = select_opt_mode(trace, config)
        assert mode in ("windowed", "bounds")
