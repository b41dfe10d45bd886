"""Tests for the parallel sweep substrate (repro.parallel)."""

from functools import partial

import pytest

from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.parallel import (
    SweepExecutor,
    SweepPoint,
    describe_factory,
    run_sweep_point,
)
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scheduling.baselines import MaxMatchPolicy
from repro.simulation.engine import run_cioq
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.values import uniform_values


@pytest.fixture
def config():
    return SwitchConfig.square(3, speedup=1, b_in=2, b_out=2, b_cross=1)


@pytest.fixture
def trace():
    return BernoulliTraffic(3, 3, load=1.3).generate(12, seed=0)


def make_points(config, n=6):
    points = []
    for seed in range(n):
        trace = BernoulliTraffic(
            3, 3, load=1.2, value_model=uniform_values(1, 20)
        ).generate(10, seed=seed)
        points.append(
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=partial(PGPolicy, beta=2.0), seed=seed,
                       tag={"seed": seed})
        )
    return points


class TestSweepPoint:
    def test_rejects_unknown_model(self, config, trace):
        with pytest.raises(ValueError, match="model"):
            SweepPoint(model="banyan", config=config, trace=trace)

    def test_payload_matches_direct_run(self, config, trace):
        point = SweepPoint(model="cioq", config=config, trace=trace,
                           policy_factory=GMPolicy, seed=0,
                           tag={"cell": "a"})
        payload = run_sweep_point(point)
        direct = run_cioq(GMPolicy(), config, trace)
        assert payload["benefit"] == direct.benefit
        assert payload["n_sent"] == direct.n_sent
        assert payload["n_rejected"] == direct.n_rejected
        assert payload["tag"] == {"cell": "a"}

    def test_opt_point(self, config, trace):
        payload = run_sweep_point(
            SweepPoint(model="cioq", config=config, trace=trace)
        )
        assert payload["policy"] == "OPT"
        assert payload["benefit"] > 0


class TestDescribeFactory:
    def test_class(self):
        assert describe_factory(GMPolicy).endswith("GMPolicy")

    def test_partial_includes_params(self):
        desc = describe_factory(partial(PGPolicy, beta=2.5))
        assert "PGPolicy" in desc and "beta=2.5" in desc

    def test_opt(self):
        assert describe_factory(None) == "OPT"


class TestExecutor:
    def test_serial_order_preserved(self, config):
        points = make_points(config)
        payloads = SweepExecutor().run(points)
        assert [p["tag"]["seed"] for p in payloads] == list(range(len(points)))

    def test_parallel_bit_identical_to_serial(self, config):
        points = make_points(config)
        serial = SweepExecutor(workers=0).run(points)
        parallel = SweepExecutor(workers=3).run(points)
        assert serial == parallel

    def test_chunked_dispatch_bit_identical(self, config):
        points = make_points(config, n=7)
        serial = SweepExecutor().run(points)
        chunked = SweepExecutor(workers=2, chunk_size=2).run(points)
        assert serial == chunked

    def test_cache_round_trip(self, config, tmp_path):
        points = make_points(config, n=4)
        ex1 = SweepExecutor(cache_dir=str(tmp_path))
        first = ex1.run(points)
        assert (ex1.cache_hits, ex1.cache_misses) == (0, 4)
        ex2 = SweepExecutor(cache_dir=str(tmp_path))
        second = ex2.run(points)
        assert (ex2.cache_hits, ex2.cache_misses) == (4, 0)
        assert first == second

    def test_cache_key_sensitivity(self, config, trace):
        ex = SweepExecutor(cache_dir="unused")
        base = SweepPoint(model="cioq", config=config, trace=trace,
                          policy_factory=GMPolicy, seed=0)
        other_policy = SweepPoint(model="cioq", config=config, trace=trace,
                                  policy_factory=MaxMatchPolicy, seed=0)
        other_seed = SweepPoint(model="cioq", config=config, trace=trace,
                                policy_factory=GMPolicy, seed=1)
        fat_config = SwitchConfig.square(3, speedup=2, b_in=2, b_out=2)
        other_config = SweepPoint(model="cioq", config=fat_config,
                                  trace=trace, policy_factory=GMPolicy, seed=0)
        keys = {ex.cache_key(p) for p in
                (base, other_policy, other_seed, other_config)}
        assert len(keys) == 4
        assert ex.cache_key(base) == ex.cache_key(
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=GMPolicy, seed=0)
        )

    def test_corrupt_cache_entry_is_recomputed(self, config, tmp_path):
        points = make_points(config, n=1)
        ex = SweepExecutor(cache_dir=str(tmp_path))
        first = ex.run(points)
        path = ex.store.path(ex.cache_key(points[0]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        again = SweepExecutor(cache_dir=str(tmp_path)).run(points)
        assert again == first


#: The 3x3 small-buffer switch of the ``config`` fixture, as spec fields.
SWITCH = {"n_in": 3, "n_out": 3, "speedup": 1, "b_in": 2, "b_out": 2,
          "b_cross": 1}


def _output(run):
    return run.rows, run.metrics, run.aggregates


def _switch_grid(spec, field, values, executor=None):
    """One scenario run per value of switch ``field``."""
    return [
        _output(run_scenario(
            spec.with_overrides(switch={**spec.switch, field: value}),
            executor=executor))
        for value in values
    ]


class TestSweepFunctionsThroughExecutor:
    """Experiment grids stated as scenario specs give identical results
    for serial, parallel, and cached executors."""

    def test_beta_sweep(self, tmp_path):
        betas = [1.2, 2.0, 3.0]
        spec = ScenarioSpec(
            name="beta-grid", switch=SWITCH, traffic_params={"load": 1.4},
            values="two-value", value_params={"alpha": 10, "p_high": 0.3},
            policies=tuple({"name": "pg", "beta": b} for b in betas),
            slots=12, seeds=(2,),
        )
        serial = _output(run_scenario(spec))
        parallel = _output(
            run_scenario(spec, executor=SweepExecutor(workers=2)))
        cached_ex = SweepExecutor(cache_dir=str(tmp_path))
        cached_cold = _output(run_scenario(spec, executor=cached_ex))
        cached_warm = _output(run_scenario(spec, executor=cached_ex))
        assert serial == parallel == cached_cold == cached_warm
        # Every beta point and the one shared OPT point hit when warm.
        assert cached_ex.cache_hits == len(betas) + 1

    def test_threshold_sweep(self):
        spec = ScenarioSpec(
            name="threshold-grid", model="crossbar", switch=SWITCH,
            traffic_params={"load": 1.4}, values="two-value",
            value_params={"alpha": 10, "p_high": 0.3},
            policies=tuple({"name": "cpg", "beta": b, "alpha": a}
                           for b in (1.5, 2.0) for a in (2.0, 3.0)),
            slots=10, seeds=(4,),
        )
        serial = _output(run_scenario(spec))
        parallel = _output(
            run_scenario(spec, executor=SweepExecutor(workers=2)))
        assert serial == parallel

    def test_speedup_sweep(self):
        spec = ScenarioSpec(
            name="speedup-grid",
            switch={"n_in": 3, "n_out": 3, "b_in": 2, "b_out": 2},
            traffic="hotspot",
            traffic_params={"load": 1.3, "hot_fraction": 0.5},
            policies=({"name": "gm"}, {"name": "maxmatch"}),
            slots=10, seeds=(0, 1),
        )
        serial = _switch_grid(spec, "speedup", [1, 2])
        parallel = _switch_grid(spec, "speedup", [1, 2],
                                SweepExecutor(workers=3))
        assert serial == parallel
        opt_means = [aggs[-1]["mean_benefit"] for _rows, _m, aggs in serial]
        assert opt_means[0] <= opt_means[1] + 1e-6

    def test_buffer_sweep(self):
        spec = ScenarioSpec(
            name="buffer-grid", model="crossbar", switch=SWITCH,
            traffic_params={"load": 1.5}, policies=({"name": "cgu"},),
            slots=10, seeds=(0,),
        )
        serial = _switch_grid(spec, "b_cross", [1, 2])
        parallel = _switch_grid(spec, "b_cross", [1, 2],
                                SweepExecutor(workers=2))
        assert serial == parallel


class TestCLISweep:
    def test_serial_and_parallel_output_identical(self, capsys):
        from repro.cli import main

        argv = ["sweep", "--policies", "gm,maxmatch", "--loads", "0.9,1.3",
                "--seeds", "2", "--slots", "8", "--n", "3", "--opt"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "per-load mean benefit" in serial_out

    def test_unknown_policy_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "nonsense", "--slots", "5"])
