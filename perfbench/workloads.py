"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed in
:meth:`setup` (timed as set-up), is put back into its starting state by
:meth:`restore` (untimed), and executes one timed pass in
:meth:`run_pass`, which also checks the outputs and returns a
:class:`Pass`.

Output checks, applied to every pass and every seed:

* each policy payload obeys the accounting identities
  ``n_arrived == n_accepted + n_rejected`` and
  ``n_accepted == n_sent + n_preempted + n_residual``, and
  ``benefit <= value_arrived``;
* exact OPT is at least every policy's benefit on the same seed;
* the pass's output digest equals the first pass's (determinism);
* at the default seed, the digest equals the one recorded in
  ``expected.json`` next to this file.
"""

import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass
from functools import partial

import repro.scenarios.runner as runner
from repro.core.cgu import CGUPolicy
from repro.core.cpg import CPGPolicy
from repro.core.gm import GMPolicy
from repro.core.pg import PGPolicy
from repro.farm import PersistentPool
from repro.parallel import SweepExecutor, SweepPoint
from repro.scenarios import all_scenarios
from repro.switch.config import SwitchConfig
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.values import pareto_values, uniform_values

#: The seed whose output digests ``expected.json`` records.
DEFAULT_SEED = 0

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@dataclass
class Pass:
    """Outcome of one timed pass."""
    attempted: int
    failed: int
    #: Σ trace.n_slots over the pass's policy points.
    slot_lanes: int
    digest: str
    errors: list


def digest_of(payloads):
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def payload_errors(payload):
    """Accounting-identity violations of one policy payload."""
    p = payload
    errors = []
    if p["n_arrived"] != p["n_accepted"] + p["n_rejected"]:
        errors.append("n_arrived != n_accepted + n_rejected")
    if p["n_accepted"] != p["n_sent"] + p["n_preempted"] + p["n_residual"]:
        errors.append("n_accepted != n_sent + n_preempted + n_residual")
    if p["benefit"] > p["value_arrived"] * (1 + 1e-9) + 1e-9:
        errors.append("benefit > value_arrived")
    return errors


def load_expected(name):
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def digest_error(label, digest, expected):
    """A mismatch message, or None (also when nothing is expected)."""
    if expected is None or digest == expected:
        return None
    return f"{label}: digest {digest} != expected {expected}"


def slot_lanes(points):
    return sum(p.trace.n_slots for p in points if p.policy_factory is not None)


class _RecordingExecutor(SweepExecutor):
    """A SweepExecutor that keeps the points and payloads of its run."""

    def run(self, points):
        self.points = list(points)
        self.payloads = super().run(points)
        return self.payloads


class Workload:
    """Base: subclasses set ``name`` and implement setup/run_pass."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.first_digest = None
        # Seeded inputs other than the default have no recorded digest.
        self.expected = (load_expected(self.name) if seed == DEFAULT_SEED
                         else None)

    def setup(self):
        pass

    def restore(self):
        pass

    def close(self):
        pass

    def _sweep_pass(self, executor, points):
        """Run policy points, check every payload and the digest."""
        payloads = executor.run(points)
        errors = []
        failed = 0
        for payload in payloads:
            bad = payload_errors(payload)
            failed += bool(bad)
            errors.extend(f"{payload['trace']} {payload['policy']}: {e}"
                          for e in bad)
        digest = digest_of(payloads)
        wrong = digest_error(self.name, digest, self.expected)
        if wrong:
            errors.append(wrong)
            failed = len(points)
        return Pass(len(points), failed, slot_lanes(points), digest, errors)

    def check_repeat(self, result):
        """Every pass must reproduce the first pass's outputs."""
        if self.first_digest is None:
            self.first_digest = result.digest
        elif result.digest != self.first_digest:
            result.errors.append(
                f"{self.name}: pass digest {result.digest} differs from "
                f"the first pass's {self.first_digest}")
            result.failed = result.attempted


class RegistryExact(Workload):
    """Every builtin scenario, exact OPT, reference backend, in-process,
    no store; each result.json is written and hashed.

    Exact-OPT cost per instance is heavy-tailed across seeds (one seed
    of one scenario can cost forty times the median), so the scenarios
    keep their own seed ladders and the benchmark seed only shuffles
    the order they run in.  That keeps the workload's cost independent
    of the seed while the outputs are checked against ``expected.json``
    at every seed.
    """

    name = "registry-exact"

    def setup(self):
        self.specs = all_scenarios()
        random.Random(self.seed).shuffle(self.specs)
        self.out_dir = os.path.join(self.workdir, "results")
        self.expected = load_expected(self.name)

    def run_pass(self):
        attempted = failed = lanes = 0
        errors = []
        digests = {}
        for spec in self.specs:
            ex = _RecordingExecutor(backend="reference")
            run = runner.run_scenario(spec, executor=ex)
            json_path = runner.write_artifacts(run, self.out_dir)[0]
            with open(json_path, "rb") as fh:
                digests[spec.name] = hashlib.sha256(fh.read()).hexdigest()
            bad = self._opt_errors(ex.payloads)
            wrong = digest_error("result.json", digests[spec.name],
                                 self.expected.get(spec.name, "missing"))
            if wrong:
                bad.append(wrong)
            attempted += len(ex.points)
            lanes += slot_lanes(ex.points)
            if bad:
                failed += len(ex.points)
                errors.extend(f"{spec.name}: {e}" for e in bad)
        digest = hashlib.sha256(json.dumps(
            digests, sort_keys=True).encode("utf-8")).hexdigest()
        return Pass(attempted, failed, lanes, digest, errors)

    @staticmethod
    def _opt_errors(payloads):
        opt = {p["seed"]: p["benefit"] for p in payloads
               if p["policy"] == "OPT"}
        errors = []
        for p in payloads:
            if p["policy"] == "OPT":
                continue
            errors.extend(payload_errors(p))
            best = opt.get(p["seed"])
            if best is not None and p["benefit"] > best * (1 + 1e-9) + 1e-9:
                errors.append(f"seed {p['seed']}: {p['policy']} benefit "
                              f"{p['benefit']} > OPT {best}")
        return errors


class LadderFast(Workload):
    """Policy-only seed ladders at N=32 on the auto backend, in-process:
    GM and PG on Bernoulli overload (CIOQ), CGU and CPG on hotspot
    traffic with Pareto values (crossbar).  Traces are generated inside
    the pass, so trace generation and the slot loop share its time."""

    name = "ladder-fast"
    N, SLOTS, LADDER = 32, 200, 8

    def setup(self):
        n = self.N
        self.config = SwitchConfig.square(n, speedup=1, b_in=4, b_out=4,
                                          b_cross=1)
        self.seeds = [self.seed * self.LADDER + k for k in range(self.LADDER)]
        self.models = [
            ("cioq", BernoulliTraffic(n, n, load=1.2,
                                      value_model=uniform_values(1, 20)),
             (GMPolicy, partial(PGPolicy, beta=2.0))),
            ("crossbar", HotspotTraffic(n, n, load=1.2, hot_fraction=0.5,
                                        value_model=pareto_values()),
             (CGUPolicy, CPGPolicy)),
        ]

    def run_pass(self):
        points = []
        for model, traffic, factories in self.models:
            traces = [traffic.generate(self.SLOTS, seed=s) for s in self.seeds]
            for factory in factories:
                points.extend(
                    SweepPoint(model=model, config=self.config, trace=trace,
                               policy_factory=factory, seed=s)
                    for s, trace in zip(self.seeds, traces))
        return self._sweep_pass(SweepExecutor(backend="auto"), points)


class FarmResume(Workload):
    """A resumed farm sweep: small CIOQ policy points (GM and PG β=2)
    whose first half of seeds is already in the result store, executed
    on a warm persistent pool as the serve loop does when it resumes."""

    name = "farm-resume"
    N, SLOTS, SEEDS, WORKERS = 4, 40, 1000, 2
    pool = None

    def setup(self):
        # Fork the workers before the inputs exist, as the serve loop
        # does, so they do not share (and copy on write) the parent's
        # trace heap during the first passes.
        self.pool = PersistentPool(self.WORKERS).warm()
        n = self.N
        config = SwitchConfig.square(n, speedup=1, b_in=2, b_out=2,
                                     b_cross=1)
        traffic = BernoulliTraffic(n, n, load=1.2,
                                   value_model=uniform_values(1, 20))
        seeds = [self.seed * self.SEEDS + k for k in range(self.SEEDS)]
        traces = [traffic.generate(self.SLOTS, seed=s) for s in seeds]
        self.points = [
            SweepPoint(model="cioq", config=config, trace=trace,
                       policy_factory=factory, seed=s, tag={"seed": s})
            for s, trace in zip(seeds, traces)
            for factory in (GMPolicy, partial(PGPolicy, beta=2.0))]
        self.template = os.path.join(self.workdir, "store-template")
        self.store = os.path.join(self.workdir, "store")
        SweepExecutor(cache_dir=self.template).run(
            self.points[:len(self.points) // 2])

    def restore(self):
        if os.path.isdir(self.store):
            shutil.rmtree(self.store)
        shutil.copytree(self.template, self.store)
        # Flush the copy now so its writeback does not land in the pass.
        os.sync()

    def run_pass(self):
        ex = SweepExecutor(workers=self.WORKERS, cache_dir=self.store,
                           pool=self.pool)
        return self._sweep_pass(ex, self.points)

    def close(self):
        if self.pool is not None:
            self.pool.close()


WORKLOADS = {cls.name: cls for cls in (RegistryExact, LadderFast, FarmResume)}
