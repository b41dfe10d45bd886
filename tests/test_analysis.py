"""Tests for the analysis harness: ratios, sweeps, tables, efficiency."""

import pytest

from repro.analysis.efficiency import (
    compare_unit_matching_cost,
    compare_weighted_matching_cost,
    efficiency_scaling_table,
)
from repro.analysis.ratio import (
    RatioMeasurement,
    measure_cioq_ratio,
    measure_crossbar_ratio,
    measure_many,
    summarize,
    worst,
)
from repro.analysis.report import format_table, markdown_table
from repro.core.cgu import CGUPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.scenarios import ScenarioSpec, run_scenario
from repro.traffic.bernoulli import BernoulliTraffic


class TestRatioMeasurement:
    def test_cioq_measurement_fields(self, small_config, unit_trace):
        m = measure_cioq_ratio(GMPolicy(), unit_trace, small_config, bound=3.0)
        assert m.model == "cioq"
        assert m.ratio >= 1.0
        assert m.within_bound
        assert m.n_packets == len(unit_trace)

    def test_crossbar_measurement(self, small_config, unit_trace):
        m = measure_crossbar_ratio(
            CGUPolicy(), unit_trace, small_config, bound=3.0
        )
        assert m.model == "crossbar"
        assert m.within_bound

    def test_ratio_edge_cases(self):
        z = RatioMeasurement("p", "t", "cioq", 0.0, 0.0, 0)
        assert z.ratio == 1.0
        inf = RatioMeasurement("p", "t", "cioq", 0.0, 5.0, 5)
        assert inf.ratio == float("inf")
        assert not inf.within_bound or inf.bound is None

    def test_as_row_keys(self, small_config, unit_trace):
        row = measure_cioq_ratio(GMPolicy(), unit_trace, small_config).as_row()
        assert {"policy", "trace", "onl", "opt", "ratio", "bound", "ok"} <= set(
            row
        )

    def test_measure_many_and_summary(self, small_config):
        traces = [
            BernoulliTraffic(3, 3, load=1.0).generate(8, seed=s)
            for s in range(3)
        ]
        ms = measure_many(GMPolicy, traces, small_config, bound=3.0)
        assert len(ms) == 3
        s = summarize(ms)
        assert s["n"] == 3
        assert s["all_within_bound"]
        assert s["max_ratio"] >= s["mean_ratio"] >= 1.0
        assert worst(ms).ratio == s["max_ratio"]

    def test_worst_empty_raises(self):
        with pytest.raises(ValueError):
            worst([])


#: The ``small_config`` fixture's switch, as spec fields.
SMALL_SWITCH = {"n_in": 3, "n_out": 3, "speedup": 1, "b_in": 2, "b_out": 2,
                "b_cross": 1}


def _ratios(run):
    """Per-policy mean ratio vs OPT, OPT's own row excluded."""
    return [a["mean_ratio"] for a in run.aggregates if a["policy"] != "OPT"]


class TestSweeps:
    """Parameter grids as scenario specs: one policy entry per threshold
    setting, or one ``with_overrides`` run per switch setting."""

    def test_beta_sweep_rows(self):
        spec = ScenarioSpec(
            name="beta-rows", switch=SMALL_SWITCH,
            traffic_params={"load": 1.3}, values="two-value",
            value_params={"alpha": 8, "p_high": 0.3},
            policies=({"name": "pg", "beta": 1.5},
                      {"name": "pg", "beta": 2.414}),
            slots=12, seeds=(1,),
        )
        run = run_scenario(spec)
        assert len(_ratios(run)) == 2
        assert all(r >= 1.0 for r in _ratios(run))
        # OPT is solved once per seed, shared by every beta.
        assert [m["policy"] for m in run.metrics].count("OPT") == 1

    def test_threshold_sweep_cpg(self):
        spec = ScenarioSpec(
            name="threshold-rows", model="crossbar", switch=SMALL_SWITCH,
            traffic_params={"load": 1.3}, values="two-value",
            value_params={"alpha": 8, "p_high": 0.3},
            policies=({"name": "cpg", "beta": 1.5, "alpha": 2.0},
                      {"name": "cpg", "beta": 2.0, "alpha": 2.0}),
            slots=10, seeds=(1,),
        )
        ratios = _ratios(run_scenario(spec))
        assert len(ratios) == 2
        assert all(r >= 1.0 for r in ratios)

    def test_speedup_sweep(self):
        spec = ScenarioSpec(
            name="speedup-rows",
            switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
            traffic_params={"load": 1.2}, policies=({"name": "gm"},),
            slots=10, seeds=(0,),
        )
        for speedup in (1, 2):
            run = run_scenario(spec.with_overrides(
                switch={**spec.switch, "speedup": speedup}))
            (row,) = run.rows
            assert row["gm"] <= row["OPT"] + 1e-6

    def test_buffer_sweep(self):
        spec = ScenarioSpec(
            name="buffer-rows", model="crossbar",
            switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
            traffic_params={"load": 1.2}, policies=({"name": "cgu"},),
            slots=8, seeds=(0,),
        )
        for b_cross in (1, 2):
            run = run_scenario(spec.with_overrides(
                switch={**spec.switch, "b_cross": b_cross}))
            assert all(r >= 1.0 for r in _ratios(run))


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        txt = format_table(rows, title="T")
        lines = txt.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_bools_and_none(self):
        txt = format_table([{"ok": True, "x": None}, {"ok": False, "x": 1.5}])
        assert "yes" in txt and "NO" in txt and "-" in txt

    def test_markdown_table(self):
        md = markdown_table([{"a": 1.23456, "b": "q"}])
        assert md.startswith("| a | b |")
        assert "---" in md

    def test_column_subset(self):
        txt = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in txt.splitlines()[0]


class TestEfficiency:
    def test_unit_comparison_fields(self):
        row = compare_unit_matching_cost(8, 0.5, trials=5, seed=1)
        assert row["n"] == 8
        assert row["greedy_ops"] > 0
        assert row["maxmatch_ops"] >= row["greedy_ops"]
        assert 0.5 <= row["size_ratio"] <= 1.0

    def test_weighted_comparison_fields(self):
        row = compare_weighted_matching_cost(6, 0.5, trials=3, seed=1)
        assert row["hungarian_ops"] > row["greedy_ops"]
        assert 0.5 <= row["weight_ratio"] <= 1.0 + 1e-9

    def test_scaling_table(self):
        rows = efficiency_scaling_table([4, 8], trials=3)
        assert [r["n"] for r in rows] == [4, 8]
        # Cost gap grows with switch size.
        assert rows[1]["maxmatch_ops"] > rows[0]["maxmatch_ops"]


def _bracketed(onl, lo, hi, bound=3.0, policy="gm"):
    return RatioMeasurement(
        policy=policy, trace="t", model="cioq", onl_benefit=onl,
        opt_benefit=hi, n_packets=4, bound=bound,
        opt_mode="bounds", opt_lower=lo, opt_upper=hi,
    )


def _exact(onl, opt, bound=3.0, policy="gm"):
    return RatioMeasurement(
        policy=policy, trace="t", model="cioq", onl_benefit=onl,
        opt_benefit=opt, n_packets=4, bound=bound,
    )


class TestIntervalRatios:
    """Interval-aware ratio semantics: bracketed (inexact-OPT)
    measurements never silently mix with exact ones, and bound checks
    only report what the bracket certifies (regression tests for
    docs/offline_opt.md's never-mix guarantee)."""

    def test_bracketed_measurement_endpoints(self):
        m = _bracketed(onl=10.0, lo=18.0, hi=24.0)
        assert not m.is_exact
        assert m.ratio == pytest.approx(2.4)       # conservative end
        assert m.ratio_lo == pytest.approx(1.8)
        assert m.ratio_hi == pytest.approx(2.4)
        assert m.within_bound and m.certified_within_bound

    def test_bound_check_needs_certified_violation(self):
        # Bracket straddles the bound: no *certified* violation, but
        # not certified-within either.
        straddle = _bracketed(onl=10.0, lo=25.0, hi=35.0)
        assert straddle.within_bound
        assert not straddle.certified_within_bound
        # Even the certified lower end exceeds the bound: violation.
        violation = _bracketed(onl=10.0, lo=31.0, hi=35.0)
        assert not violation.within_bound
        assert not violation.certified_within_bound

    def test_degenerate_bracket_is_exact(self):
        m = _bracketed(onl=10.0, lo=20.0, hi=20.0)
        assert m.is_exact
        assert m.ratio == m.ratio_lo == m.ratio_hi

    def test_as_row_bracket_columns_only_when_inexact(self):
        exact_row = _exact(onl=10.0, opt=20.0).as_row()
        assert "ratio_lo" not in exact_row and "opt_mode" not in exact_row
        row = _bracketed(onl=10.0, lo=18.0, hi=24.0).as_row()
        assert row["opt_mode"] == "bounds"
        assert row["opt_lo"] == 18.0 and row["opt_hi"] == 24.0
        assert row["ratio_lo"] == 1.8 and row["ratio_hi"] == 2.4

    def test_summarize_never_mixes_exact_and_bracketed(self):
        mixed = [
            _exact(onl=10.0, opt=20.0),           # ratio 2.0
            _exact(onl=10.0, opt=30.0),           # ratio 3.0
            _bracketed(onl=10.0, lo=15.0, hi=40.0),  # [1.5, 4.0]
        ]
        s = summarize(mixed)
        assert s["n"] == 3
        assert s["n_exact"] == 2 and s["n_bracketed"] == 1
        # Exact mean is exact-only; the bracket covers all points.
        assert s["mean_ratio"] == pytest.approx(2.5)
        assert s["mean_ratio_lo"] == pytest.approx((2.0 + 3.0 + 1.5) / 3)
        assert s["mean_ratio_hi"] == pytest.approx((2.0 + 3.0 + 4.0) / 3)
        assert s["max_ratio"] == pytest.approx(4.0)  # conservative end
        assert s["all_within_bound"]
        assert not s["all_certified_within_bound"]  # 4.0 > 3.0

    def test_summary_table_mixing_exact_and_bracketed(self):
        from repro.analysis.ratio import RatioSummary

        mixed = [
            _exact(onl=10.0, opt=20.0),
            _exact(onl=10.0, opt=30.0),
            _bracketed(onl=10.0, lo=15.0, hi=40.0),
        ]
        summary = RatioSummary.from_measurements(mixed)
        assert summary.n == 2            # exact finite points only
        assert summary.n_bracketed == 1
        assert summary.mean == pytest.approx(2.5)
        assert summary.worst == pytest.approx(4.0)
        row = summary.as_row()
        assert row["n_bracketed"] == 1
        assert row["mean_lo"] == pytest.approx(2.1667, abs=1e-4)
        assert row["mean_hi"] == pytest.approx(3.0)
        # Pure-exact tables keep their original shape.
        pure = RatioSummary.from_measurements(mixed[:2]).as_row()
        assert "n_bracketed" not in pure and "mean_lo" not in pure

    def test_unbounded_bracketed_measurement(self):
        m = _bracketed(onl=0.0, lo=5.0, hi=9.0)
        assert m.finite_ratio is None
        assert not m.within_bound    # cannot certify consistency
        s = summarize([m, _exact(onl=10.0, opt=20.0)])
        assert s["n_unbounded"] == 1
        assert s["mean_ratio"] == pytest.approx(2.0)

    def test_measure_with_bounds_mode_brackets_exact(
        self, small_config, unit_trace
    ):
        exact = measure_cioq_ratio(
            GMPolicy(), unit_trace, small_config, bound=3.0)
        m = measure_cioq_ratio(
            GMPolicy(), unit_trace, small_config, bound=3.0,
            opt_mode="bounds")
        assert m.opt_mode == "bounds"
        assert m.opt_lower - 1e-9 <= exact.opt_benefit <= m.opt_upper + 1e-9
        assert m.ratio_lo <= exact.ratio <= m.ratio_hi + 1e-9
        assert m.opt_benefit == m.opt_upper
