"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`install`
replaces public entry points of the ``repro`` layers with thin timing
wrappers (and :meth:`Tracer.uninstall` puts the originals back).  The
package itself is never edited, so the untraced runs execute exactly
the code a user runs.

A span is ``[name, start, end, parent, run_id, child_s]``; its self
time is its duration minus the time covered by its direct children.
Calls nest on one thread, so children never overlap and ``child_s`` is
the plain sum of their durations.  Spans stay in memory until
:meth:`Tracer.dump` writes them out once, at the end of the benchmark.

Calls made inside pool worker processes are not visible here; the
parent sees them only through ``SweepExecutor.timings``.
"""

import json
import os
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

#: The layers time is attributed to; a span's layer is its name up to
#: the last dot (:func:`layer_of`).
LAYERS = ("offline", "simulation", "traffic", "parallel", "farm.store",
          "scenarios")

NAME, START, END, PARENT, RUN, CHILD = range(6)


def layer_of(name):
    return name.rsplit(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.run_id = 0
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def begin_run(self, run_id):
        """Open the root span of one workload pass."""
        self.run_id = run_id
        span = ["run", perf_counter(), None, None, run_id, 0.0]
        self.spans.append(span)
        self._stack.append(span)

    def end_run(self):
        self._stack.pop()[END] = perf_counter()

    def count(self, key, value):
        self.counts[self.run_id][key] += value

    def wrap(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(tracer, args, result, span)`` adds counts after the
        call, from the closed span (whose parent lets nested calls into
        one layer avoid counting their work twice).
        """
        original = owner.__dict__[attr]
        stack = self._stack
        spans = self.spans

        @wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, perf_counter(), None, parent, self.run_id, 0.0]
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]
                spans.append(span)
            if on_return is not None:
                on_return(self, args, result, span)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def self_times(self, run_id):
        """Self seconds per span name for one pass (``run`` is the
        benchmark's own, unattributed time)."""
        out = Counter()
        for span in self.spans:
            if span[RUN] == run_id and span[END] is not None:
                out[span[NAME]] += span[END] - span[START] - span[CHILD]
        return out

    def dump(self, path):
        """Write every span as one JSON line; parents by span index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "start": span[START],
                    "end": span[END], "run": span[RUN],
                    "parent": None if parent is None else index[id(parent)],
                }) + "\n")


# -- counters recorded at the layer boundaries -------------------------------

def _sim_counts(tracer, args, result, span):
    traces = args[2] if isinstance(args[2], (list, tuple)) else [args[2]]
    tracer.count("simulation.lanes", len(traces))
    tracer.count("simulation.slots", sum(t.n_slots for t in traces))


def _build_counts(tracer, args, result, span):
    model = args[0]
    tracer.count("offline.vars", model.n_var)
    tracer.count("offline.nnz", model.A.nnz)


def _solve_counts(tracer, args, result, span):
    tracer.count("offline.exact_solves", 1)


def _traffic_counts(tracer, args, result, span):
    parent = span[PARENT]
    if parent is None or layer_of(parent[NAME]) != "traffic":
        tracer.count("traffic.packets", len(result))


def _sweep_counts(tracer, args, result, span):
    # Each workload gives every run() call a fresh executor, so its
    # timing ledger holds exactly this call's executed points.
    ex = args[0]
    busy = sum(t["elapsed"] for t in ex.timings)
    capacity = max(1, ex.workers) * (span[END] - span[START])
    tracer.count("parallel.tasks", len(ex.timings))
    tracer.count("parallel.worker_busy_s", busy)
    tracer.count("parallel.worker_idle_s", max(0.0, capacity - busy))


def _get_counts(tracer, args, result, span):
    tracer.count("farm.store.hits" if result is not None
                 else "farm.store.misses", 1)


def _put_counts(tracer, args, result, span):
    tracer.count("farm.store.bytes_written", os.path.getsize(result))


def _write_counts(tracer, args, result, span):
    target = os.path.dirname(result[0])
    tracer.count("scenarios.artifact_bytes", sum(
        os.path.getsize(os.path.join(target, f)) for f in os.listdir(target)))


def install(tracer):
    """Wrap the public entry points of every layer the workloads use."""
    import repro.parallel as parallel
    import repro.scenarios.runner as runner
    from repro.farm.store import ResultStore
    from repro.offline.crossbar_timegraph import CrossbarOptModel
    from repro.offline.timegraph import CIOQOptModel
    from repro.traffic.base import TrafficModel

    for fn in ("run_cioq", "run_crossbar", "run_cioq_batch",
               "run_crossbar_batch"):
        tracer.wrap(parallel, fn, "simulation.run", _sim_counts)
    for fn in ("cioq_opt", "crossbar_opt"):
        tracer.wrap(parallel, fn, "offline.opt")
    for cls in (CIOQOptModel, CrossbarOptModel):
        tracer.wrap(cls, "build", "offline.build", _build_counts)
        tracer.wrap(cls, "solve", "offline.solve", _solve_counts)
    models, todo = [], [TrafficModel]
    while todo:
        cls = todo.pop()
        models.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in models:
        if "generate" in cls.__dict__:
            tracer.wrap(cls, "generate", "traffic.generate", _traffic_counts)
    tracer.wrap(parallel.SweepExecutor, "run", "parallel.sweep", _sweep_counts)
    tracer.wrap(parallel.SweepExecutor, "cache_key", "parallel.cache_key")
    tracer.wrap(ResultStore, "get", "farm.store.get", _get_counts)
    tracer.wrap(ResultStore, "put", "farm.store.put", _put_counts)
    tracer.wrap(ResultStore, "claim", "farm.store.claim")
    tracer.wrap(ResultStore, "release", "farm.store.claim")
    tracer.wrap(runner, "compute_aggregates", "scenarios.aggregate")
    tracer.wrap(runner, "write_artifacts", "scenarios.write", _write_counts)
    # run_scenario is called by the benchmark itself through this module
    # attribute, so wrapping it here covers every call.
    tracer.wrap(runner, "run_scenario", "scenarios.run")
