"""Tests for the parallel sweep substrate (repro.parallel)."""

import sys
import threading
from functools import partial
from pathlib import Path

import pytest

import repro.parallel as parallel
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.parallel import (
    SweepExecutor,
    SweepPoint,
    describe_factory,
    run_sweep_point,
)
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.scenarios.runner import write_artifacts
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


def opt_and_policy_points(config, seeds=4):
    """A PG point then an OPT point per seed, as a scenario lays them out."""
    points = []
    for pg in make_points(config, n=seeds):
        points += [pg, SweepPoint(model="cioq", config=config,
                                  trace=pg.trace, seed=pg.seed)]
    return points


class _SpyThread(threading.Thread):
    """A ``threading.Thread`` that records the target of every thread."""

    targets = []

    def __init__(self, *args, **kwargs):
        _SpyThread.targets.append(kwargs.get("target"))
        super().__init__(*args, **kwargs)


@pytest.fixture
def spy_threads(monkeypatch):
    _SpyThread.targets = []
    monkeypatch.setattr(threading, "Thread", _SpyThread)
    return _SpyThread.targets


class TestInProcessOptSolvers:
    """In-process runs overlap their OPT solves on one helper thread;
    nothing about it may show in an artifact, a claim or a thread."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 4)

    def test_threaded_run_matches_serial(self, config, monkeypatch,
                                         spy_threads):
        points = opt_and_policy_points(config)
        ex = SweepExecutor()
        threaded = ex.run(points)
        assert len(spy_threads) == 1
        assert sorted(t["index"] for t in ex.timings) == list(
            range(len(points)))
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        assert SweepExecutor().run(points) == threaded
        assert len(spy_threads) == 1

    def test_stress_every_point_published_once(self, config, monkeypatch):
        # More solvers than cores and a tiny switch interval: a task
        # taken twice or lost shows up in the ledger or the payloads.
        monkeypatch.setattr(parallel, "OPT_SOLVERS", 4)
        points = opt_and_policy_points(config, seeds=12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ex = SweepExecutor()
            threaded = ex.run(points)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(t["index"] for t in ex.timings) == list(
            range(len(points)))
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        assert SweepExecutor().run(points) == threaded

    @pytest.mark.parametrize("fail_on", ["seed", "helper"])
    def test_solve_failure_reraises_after_join(self, config, monkeypatch,
                                               tmp_path, fail_on):
        points = opt_and_policy_points(config)
        caller = threading.current_thread()
        helper_solving = threading.Event()
        real_opt = parallel.cioq_opt

        def flaky_opt(trace, cfg, **kwargs):
            on_helper = threading.current_thread() is not caller
            if on_helper:
                helper_solving.set()
            else:
                # Make sure the helper gets a solve of its own.
                helper_solving.wait(timeout=10)
            if (trace is points[3].trace if fail_on == "seed"
                    else on_helper):
                raise ArithmeticError("solver failed on purpose")
            return real_opt(trace, cfg, **kwargs)

        monkeypatch.setattr(parallel, "cioq_opt", flaky_opt)
        threads_before = threading.active_count()
        with pytest.raises(ArithmeticError, match="failed on purpose"):
            SweepExecutor(cache_dir=str(tmp_path)).run(points)
        assert threading.active_count() == threads_before
        assert not list(tmp_path.rglob("*.claim"))
        assert list(tmp_path.rglob("*.json"))

    def test_no_thread_without_opt_or_with_workers(self, config,
                                                   spy_threads):
        SweepExecutor(backend="auto").run(make_points(config))
        assert spy_threads == []
        SweepExecutor(workers=2).run(opt_and_policy_points(config))
        # The process pool runs its own handler threads; none of ours.
        assert spy_threads
        assert not [t for t in spy_threads
                    if getattr(t, "__module__", None) == parallel.__name__]

    @pytest.mark.parametrize("name,opt_mode,opt_window", [
        ("bernoulli-overload", "exact", None),
        ("qos-two-class", "exact", None),
        ("crossbar-weighted-pareto", "exact", None),
        ("bernoulli-overload", "windowed", 10),
        ("bernoulli-overload", "bounds", None),
    ])
    def test_artifacts_identical_for_any_cpu_count(
            self, name, opt_mode, opt_window, monkeypatch, tmp_path):
        outputs = []
        for cpus in (1, 4):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
            run = run_scenario(get_scenario(name), opt_mode=opt_mode,
                               opt_window=opt_window)
            json_path, csv_path, _ = write_artifacts(
                run, str(tmp_path / str(cpus)))
            outputs.append([Path(p).read_bytes()
                            for p in (json_path, csv_path)])
        assert outputs[0] == outputs[1]


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
