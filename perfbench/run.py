"""End-to-end benchmark of the repro simulator, with layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload registry-exact --seed 0 \
        --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``registry-exact``, ``ladder-fast``
and ``farm-resume``.  One invocation sets the workload up, then repeats
timed passes of it for ``--seconds`` seconds (at least a few passes)
and reports medians over the passes.  Every pass checks its outputs.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (one pass,
inputs to checked outputs), ``cpu_s`` (user+sys of this process and its
live pool workers), ``slots_per_s`` (simulated slot-lanes per second),
``peak_rss_mb`` (peak resident memory of the process tree during one
pass) and ``setup_s`` (imports, input generation, store template and
pool spawn, median of three set-ups in separate processes).  The error
rate is ``failed / attempted`` of the result line.

``--trace 1`` interleaves untraced and traced passes, attributes each
traced pass's wall time to the ``repro`` layers by self time (see
``spans.py``), prints a layer table and the per-layer metrics, and
writes every span to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check makes the command exit with code 1.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("registry-exact", "ladder-fast", "farm-resume")

#: Passes measured at least, whatever ``--seconds`` says (pairs of
#: untraced + traced passes under ``--trace 1``).
MIN_PASSES = 3
MIN_PAIRS = 2

#: Set-ups measured per invocation: this process plus separate probes.
SETUP_SAMPLES = 3

#: Layer counts that must repeat exactly across the traced passes.
DETERMINISTIC = ("offline.vars", "offline.nnz", "simulation.slots",
                 "farm.store.hits", "farm.store.misses",
                 "scenarios.artifact_bytes")

#: Per-layer self-time metrics and the span name each one sums.
SELF_TIMES = {
    "offline.build_s": "offline.build",
    "offline.solve_s": "offline.solve",
    "simulation.run_s": "simulation.run",
    "traffic.generate_s": "traffic.generate",
    "parallel.cache_key_s": "parallel.cache_key",
    "farm.store.get_s": "farm.store.get",
    "farm.store.put_s": "farm.store.put",
    "farm.store.claim_s": "farm.store.claim",
    "scenarios.aggregate_s": "scenarios.aggregate",
    "scenarios.write_s": "scenarios.write",
    "unattributed_s": "run",
}
#: Per-layer metrics counted at the layer boundaries, with their units.
COUNTS = {
    "offline.exact_solves": "count", "offline.vars": "count",
    "offline.nnz": "count", "simulation.lanes": "count",
    "simulation.slots": "count", "traffic.packets": "count",
    "parallel.worker_busy_s": "s", "parallel.worker_idle_s": "s",
    "parallel.tasks": "count", "farm.store.hits": "count",
    "farm.store.misses": "count", "farm.store.bytes_written": "B",
    "scenarios.artifact_bytes": "B",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set the workload up, print the set-up seconds, exit.
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- process-tree resources ---------------------------------------------------

def _stat(pid):
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def _children():
    """Pids of this process's live child processes (the pool workers)."""
    me = str(os.getpid())
    pids = []
    for name in os.listdir("/proc"):
        try:
            if name.isdigit() and _stat(name)[1] == me:
                pids.append(name)
        except OSError:  # the process ended while we looked
            continue
    return pids


def _ticks(pid):
    """User + system CPU clock ticks of ``pid``."""
    fields = _stat(pid)
    return int(fields[11]) + int(fields[12])


def _hwm_kb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


class TreeUsage:
    """CPU seconds and peak RSS of this process and its children over
    one pass.  Live children's CPU is read from ``/proc`` because it
    reaches ``RUSAGE_CHILDREN`` only when they exit; peak RSS is made
    per pass by resetting each process's high-water mark first."""

    def start(self):
        children = _children()
        for pid in ["self", *children]:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        self.t0 = os.times()
        self.ticks0 = {pid: _ticks(pid) for pid in children}

    def stop(self):
        t1 = os.times()
        cpu = sum(t1[:4]) - sum(self.t0[:4])
        hz = os.sysconf("SC_CLK_TCK")
        rss_kb = _hwm_kb("self")
        for pid in _children():
            cpu += (_ticks(pid) - self.ticks0.get(pid, 0)) / hz
            rss_kb += _hwm_kb(pid)
        return cpu, rss_kb / 1024.0


# -- set-up -------------------------------------------------------------------

def make_workload(args, workdir):
    """Import the package and the workload (timed as set-up)."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed, workdir)


def probe_setup(args):
    """Set-up seconds of one fresh process (imports included)."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- measurement --------------------------------------------------------------

def timed_pass(wl, tracer=None, run_id=0):
    """One timed pass; returns (Pass, wall seconds, cpu s, peak MB)."""
    wl.restore()
    gc.collect()
    usage = TreeUsage()
    usage.start()
    if tracer is not None:
        tracer.begin_run(run_id)
    t0 = perf_counter()
    result = wl.run_pass()
    wl.check_repeat(result)
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.end_run()
    cpu, rss = usage.stop()
    return result, wall, cpu, rss


def keep_going(done, minimum, elapsed, unit_times, seconds):
    """Another measurement unit fits in the time budget (or is owed)."""
    if done < minimum:
        return True
    return elapsed + statistics.median(unit_times) <= seconds


def measure_untraced(wl, seconds):
    passes = []
    start = perf_counter()
    while keep_going(len(passes), MIN_PASSES, perf_counter() - start,
                     [p[1] for p in passes] or [0.0], seconds):
        passes.append(timed_pass(wl))
    return passes


def measure_traced(wl, seconds):
    """Paired passes, alternating which side of a pair runs first."""
    import spans
    tracer = spans.Tracer()
    plain, traced, pair_times = [], [], []
    start = perf_counter()
    while keep_going(len(pair_times), MIN_PAIRS, perf_counter() - start,
                     pair_times or [0.0], seconds):
        t0 = perf_counter()
        order = (False, True) if len(pair_times) % 2 == 0 else (True, False)
        for use_tracer in order:
            if use_tracer:
                spans.install(tracer)
                try:
                    traced.append(timed_pass(wl, tracer, len(traced)))
                finally:
                    tracer.uninstall()
            else:
                plain.append(timed_pass(wl))
        pair_times.append(perf_counter() - t0)
    return tracer, plain, traced


def layer_metrics(tracer, run_id):
    import spans
    selfs = tracer.self_times(run_id)
    counts = tracer.counts[run_id]
    out = {name: selfs.get(span, 0.0) for name, span in SELF_TIMES.items()}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    slots = out["simulation.slots"]
    out["simulation.us_per_slot"] = (
        out["simulation.run_s"] / slots * 1e6 if slots else 0.0)
    lookups = out["farm.store.hits"] + out["farm.store.misses"]
    out["farm.store.hit_ratio"] = (
        out["farm.store.hits"] / lookups if lookups else 0.0)
    layers = {layer: 0.0 for layer in spans.LAYERS}
    for name, secs in selfs.items():
        if name != "run":
            layers[spans.layer_of(name)] += secs
    return out, layers


UNITS = {"slots_per_s": "1/s", "peak_rss_mb": "MB",
         "simulation.us_per_slot": "us", "farm.store.hit_ratio": "ratio",
         "trace_overhead_pct": "%", **COUNTS}


def unit_of(name):
    return UNITS.get(name, "s")


def traced_metrics(args, tracer, plain, traced, errors):
    """Per-layer metrics (medians over the traced passes); prints the
    layer table and writes the spans."""
    import spans
    med = statistics.median
    per_pass = [layer_metrics(tracer, i) for i in range(len(traced))]
    for key in DETERMINISTIC:
        values = {m[key] for m, _ in per_pass}
        if len(values) > 1:
            errors.append(f"{key} differs between traced passes: "
                          f"{sorted(values)}")
    metrics = {name: med([m[name] for m, _ in per_pass])
               for name in per_pass[0][0]}
    wall_traced = med([p[1] for p in traced])
    wall_plain = med([p[1] for p in plain])
    metrics["trace_overhead_pct"] = (wall_traced / wall_plain - 1.0) * 100.0
    layers = {layer: med([ls[layer] for _, ls in per_pass])
              for layer in spans.LAYERS}
    layers["unattributed"] = metrics["unattributed_s"]
    print(f"{args.workload} seed {args.seed}: layer self time over "
          f"{len(traced)} traced passes (median wall {wall_traced:.4f} s "
          f"traced, {wall_plain:.4f} s untraced)")
    print(f"  {'layer':<14}{'self_s':>10}{'share':>9}")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14}{secs:>10.4f}{secs / wall_traced:>9.1%}")
    tracer.dump(os.path.join(ROOT, ".perfbench-out",
                             f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics


def untraced_metrics(args, passes, setups):
    """End-to-end metrics (medians over the passes)."""
    med = statistics.median
    walls = [p[1] for p in passes]
    lanes = passes[0][0].slot_lanes
    print(f"{args.workload} seed {args.seed}: set-ups "
          f"{' '.join(f'{s:.3f}' for s in setups)} s; passes "
          f"{' '.join(f'{w:.3f}' for w in walls)} s")
    return {
        "wall_s": med(walls),
        "cpu_s": med([p[2] for p in passes]),
        "slots_per_s": med([lanes / w for w in walls]),
        "peak_rss_mb": med([p[3] for p in passes]),
        "setup_s": med(setups),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    wl = None
    try:
        wl = make_workload(args, workdir)
        wl.setup()
        setup_s = perf_counter() - T_START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            tracer, plain, traced = measure_traced(wl, args.seconds)
            passes = plain + traced
        else:
            setups = [setup_s] + [probe_setup(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            passes = measure_untraced(wl, args.seconds)
        attempted = sum(p[0].attempted for p in passes)
        failed = sum(p[0].failed for p in passes)
        errors = [e for p in passes for e in p[0].errors]
        if args.trace:
            metrics = traced_metrics(args, tracer, plain, traced, errors)
        else:
            metrics = untraced_metrics(args, passes, setups)
        if errors and not failed:
            # Only the layer-count repeatability check fails no single
            # point; it condemns every pass.
            failed = attempted
        for name, value in metrics.items():
            digits = 0 if unit_of(name) in ("count", "B") else 6
            print(f"  {name:<26}{value:>16.{digits}f} {unit_of(name)}")
        print(f"  {'error_rate':<26}{failed / attempted:>16.6f} ratio")
        for error in errors[:20]:
            print(f"FAILED: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()},
        }))
        return 1 if errors else 0
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
