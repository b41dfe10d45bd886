"""Scenario execution and result artifacts.

:func:`run_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into :class:`~repro.parallel.SweepPoint` units — one per (seed, policy)
plus an exact-OPT point per seed when requested — and executes them
through a :class:`~repro.parallel.SweepExecutor`, so every scenario
parallelizes over ``--workers`` processes and caches on disk, with
bit-identical results for any worker count.  It is the one place an
experiment becomes sweep points: ``repro sweep`` and the benchmark
grids state theirs as specs (one run per switch setting via
:meth:`ScenarioSpec.with_overrides`).

:func:`write_artifacts` persists a run under ``results/<name>/`` as

* ``result.json`` — the versioned artifact: spec, per-seed benefit
  rows, per-policy aggregates and the per-(seed, policy) metrics table
  (schema version :data:`ARTIFACT_VERSION`);
* ``result.csv`` — the metrics table as CSV for spreadsheet/pandas use;
* ``scenario.toml`` — the spec that produced the result, re-runnable
  via ``repro scenarios run --file``.

Artifacts contain no timestamps or environment data, so re-running a
scenario (serially or in parallel) reproduces the files byte for byte —
the property CI diffs.

Replicated runs (:func:`repro.stats.replicate_scenario`) reuse this
runner per seed batch and :func:`write_artifacts` for the per-seed
record, then add ``summary.json`` / ``summary.csv`` with
mean/stddev/CI rows per (policy, metric) — see ``docs/statistics.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .._version import __version__
from ..analysis.ratio import per_seed_ratios
from ..analysis.report import csv_table, format_table
from ..obs import build_manifest, write_manifest
from ..parallel import SweepExecutor, SweepPoint
from ..simulation.backends import DEFAULT_BACKEND
from .spec import ScenarioSpec

#: Bump when the artifact schema changes (consumers check this).
#: v2: the embedded scenario dict gained a ``replicates`` block.
#: v3: an ``opt`` block records the OPT solver mode and window; rows
#: carry ``OPT_lo``/``OPT_hi`` and aggregates carry ratio brackets when
#: the solver mode is inexact.
ARTIFACT_VERSION = 3

#: Default artifact root, relative to the working directory.
RESULTS_DIR = "results"


@dataclass
class ScenarioRun:
    """Outcome of one scenario execution."""

    spec: ScenarioSpec
    #: One row per seed: seed, arrived, then one benefit column per
    #: policy label (plus OPT — and OPT_lo/OPT_hi when the OPT solver
    #: mode is inexact — when the spec asks for it).
    rows: List[Dict[str, object]]
    #: One row per policy label: mean/min/max benefit over seeds, plus
    #: mean_ratio (OPT / policy, averaged over seeds) when available.
    aggregates: List[Dict[str, object]]
    #: One row per (seed, policy): the spec's selected metrics.
    metrics: List[Dict[str, object]]
    #: OPT solver selection the run was executed with (recorded in the
    #: artifact so exact and bracketed denominators are never conflated).
    opt_mode: str = "exact"
    opt_window: Optional[int] = None
    #: Slot-loop backend the run executed with.  Recorded in the
    #: provenance manifest only — never in ``result.json``, whose bytes
    #: must stay backend-independent by the bit-identity contract.
    backend: str = DEFAULT_BACKEND

    def artifact(self) -> Dict[str, object]:
        """The versioned, JSON-serializable result record."""
        return {
            "artifact_version": ARTIFACT_VERSION,
            "repro_version": __version__,
            "scenario": self.spec.to_dict(),
            "opt": {"mode": self.opt_mode, "window": self.opt_window},
            "rows": self.rows,
            "aggregates": self.aggregates,
            "metrics": self.metrics,
        }

    def tables(self) -> str:
        """Human-readable report (what ``repro scenarios run`` prints)."""
        spec = self.spec
        out = [
            format_table(
                self.rows,
                title=f"scenario {spec.name}: {spec.model} "
                      f"{spec.build_config().n_in}x"
                      f"{spec.build_config().n_out}, {spec.slots} slots, "
                      f"{len(spec.seeds)} seeds",
            ),
            format_table(self.aggregates, title="per-policy aggregates"),
        ]
        return "\n".join(out)


def run_scenario(
    spec: ScenarioSpec,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
    backend: str = DEFAULT_BACKEND,
    opt_mode: str = "exact",
    opt_window: Optional[int] = None,
) -> ScenarioRun:
    """Execute a scenario; pure function of the spec.

    ``workers``/``cache_dir``/``backend`` build a fresh executor unless
    one is passed explicitly (then the executor's own backend applies).
    Results are bit-identical for any worker count and — by the backend
    contract (see :mod:`repro.simulation.backends`) — for any backend.

    ``opt_mode``/``opt_window`` select the offline-optimum solver for
    the per-seed OPT points (see :mod:`repro.offline.opt` and
    ``docs/offline_opt.md``); with an inexact mode the rows carry
    certified ``OPT_lo``/``OPT_hi`` brackets next to the conservative
    ``OPT`` column, and the aggregates report ratio brackets instead of
    an exact-looking mean ratio.
    """
    ex = executor if executor is not None else SweepExecutor(
        workers=workers, cache_dir=cache_dir, backend=backend
    )
    config = spec.build_config()
    traffic = spec.build_traffic()
    factories = spec.policy_factories()
    labels = [label for label, _ in factories]

    traces = {seed: traffic.generate(spec.slots, seed=seed)
              for seed in spec.seeds}
    points: List[SweepPoint] = []
    for seed in spec.seeds:
        trace = traces[seed]
        for label, factory in factories:
            points.append(
                SweepPoint(model=spec.model, config=config, trace=trace,
                           policy_factory=factory, seed=seed,
                           tag={"policy": label, "seed": seed})
            )
        if spec.include_opt:
            points.append(
                SweepPoint(model=spec.model, config=config, trace=trace,
                           seed=seed, tag={"policy": "OPT", "seed": seed},
                           opt_mode=opt_mode, opt_window=opt_window)
            )

    payloads = iter(ex.run(points))
    rows: List[Dict[str, object]] = []
    metrics: List[Dict[str, object]] = []
    benefits: Dict[str, List[float]] = {label: [] for label in labels}
    opt_benefits: List[float] = []
    opt_bounds: List[Tuple[float, float]] = []
    for seed in spec.seeds:
        row: Dict[str, object] = {"seed": seed, "arrived": len(traces[seed])}
        for label in labels:
            payload = next(payloads)
            benefit = float(payload["benefit"])
            benefits[label].append(benefit)
            row[label] = round(benefit, 6)
            metric_row: Dict[str, object] = {"seed": seed, "policy": label}
            for m in spec.metrics:
                metric_row[m] = payload.get(m)
            metrics.append(metric_row)
        if spec.include_opt:
            payload = next(payloads)
            benefit = float(payload["benefit"])
            opt_benefits.append(benefit)
            row["OPT"] = round(benefit, 6)
            lo = float(payload.get("opt_lower", benefit))
            hi = float(payload.get("opt_upper", benefit))
            opt_bounds.append((lo, hi))
            if opt_mode != "exact":
                row["OPT_lo"] = round(lo, 6)
                row["OPT_hi"] = round(hi, 6)
            metric_row = {"seed": seed, "policy": "OPT"}
            for m in spec.metrics:
                metric_row[m] = payload.get(m)
            metrics.append(metric_row)
        rows.append(row)

    aggregates = compute_aggregates(
        labels, benefits, opt_benefits if spec.include_opt else None,
        opt_bounds if spec.include_opt else None,
    )

    return ScenarioRun(spec=spec, rows=rows, aggregates=aggregates,
                       metrics=metrics, opt_mode=opt_mode,
                       opt_window=opt_window, backend=ex.backend)


def compute_aggregates(
    labels: List[str],
    benefits: Dict[str, List[float]],
    opt_benefits: Optional[List[float]],
    opt_bounds: Optional[List[Tuple[float, float]]] = None,
) -> List[Dict[str, object]]:
    """Per-policy aggregate rows over per-seed benefit lists.

    The mean ratio averages *per-seed* ratios (OPT / policy, seed by
    seed) rather than dividing summed benefits — the two differ whenever
    seeds have different magnitudes, and the per-seed mean is the
    estimator the paper's per-instance ratio tables use (see
    ``docs/statistics.md``).  Shared by :func:`run_scenario` and the
    replicated runs in :mod:`repro.stats.replication`, so single-pass
    and replicated artifacts agree on aggregate semantics.

    ``opt_bounds`` carries the per-seed certified ``(lower, upper)`` OPT
    brackets.  When any seed's bracket is non-degenerate (inexact OPT
    solver), ``mean_ratio`` is reported as ``None`` and the certified
    bracket ``[mean_ratio_lo, mean_ratio_hi]`` on the true mean ratio is
    emitted instead — an inexact denominator never masquerades as an
    exact one.
    """

    def _mean_ratio(opts: List[float], vals: List[float]):
        # Per-seed ratios (both-zero seeds are perfect, 1.0); seeds
        # whose ratio is unbounded (ONL = 0 < OPT) are excluded
        # from the mean — matching the summary rows of
        # repro.stats — and the mean is None (RFC-8259-valid
        # JSON, no Infinity) only when no finite ratio exists.
        ratios = [r for r in per_seed_ratios(opts, vals) if r is not None]
        return round(sum(ratios) / len(ratios), 6) if ratios else None

    bracketed = opt_bounds is not None and any(
        lo != hi for lo, hi in opt_bounds
    )
    aggregates: List[Dict[str, object]] = []
    for label in labels:
        vals = benefits[label]
        agg: Dict[str, object] = {
            "policy": label,
            "mean_benefit": round(sum(vals) / len(vals), 6),
            "min_benefit": round(min(vals), 6),
            "max_benefit": round(max(vals), 6),
        }
        if opt_benefits is not None:
            if bracketed:
                agg["mean_ratio"] = None
                agg["mean_ratio_lo"] = _mean_ratio(
                    [lo for lo, _ in opt_bounds], vals
                )
                agg["mean_ratio_hi"] = _mean_ratio(
                    [hi for _, hi in opt_bounds], vals
                )
            else:
                agg["mean_ratio"] = _mean_ratio(opt_benefits, vals)
        aggregates.append(agg)
    if opt_benefits is not None:
        agg = {
            "policy": "OPT",
            "mean_benefit": round(sum(opt_benefits) / len(opt_benefits), 6),
            "min_benefit": round(min(opt_benefits), 6),
            "max_benefit": round(max(opt_benefits), 6),
            "mean_ratio": None if bracketed else 1.0,
        }
        if bracketed:
            agg["mean_ratio_lo"] = None
            agg["mean_ratio_hi"] = None
        aggregates.append(agg)
    return aggregates


def build_run_manifest(run: ScenarioRun, kind: str = "scenario",
                       extra: Optional[Dict[str, object]] = None
                       ) -> Dict[str, object]:
    """Provenance manifest for a scenario run (see
    :mod:`repro.obs.manifest`): code version, spec hash, seeds, backend
    and OPT mode — deterministic per machine, no timestamps or worker
    counts."""
    return build_manifest(
        kind=kind,
        name=run.spec.name,
        spec=run.spec.to_dict(),
        seeds=run.spec.seeds,
        backend=run.backend,
        opt_mode=run.opt_mode,
        opt_window=run.opt_window,
        extra=extra,
    )


def write_artifacts(
    run: ScenarioRun, out_dir: str = RESULTS_DIR
) -> Tuple[str, str, str]:
    """Write ``result.json``, ``result.csv`` and ``scenario.toml`` under
    ``out_dir/<scenario name>/``; returns the three paths.

    Also drops a ``manifest.json`` provenance record into the directory
    (a side effect, not one of the returned paths — the result-artifact
    schema and this function's signature are unchanged)."""
    target = os.path.join(out_dir, run.spec.name)
    os.makedirs(target, exist_ok=True)
    json_path = os.path.join(target, "result.json")
    csv_path = os.path.join(target, "result.csv")
    toml_path = os.path.join(target, "scenario.toml")
    with open(json_path, "w", encoding="utf-8") as fh:
        # allow_nan=False guarantees the artifact stays strict JSON.
        json.dump(run.artifact(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
    columns = ["seed", "policy", *run.spec.metrics]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_table(run.metrics, columns=columns))
    with open(toml_path, "w", encoding="utf-8") as fh:
        fh.write(run.spec.to_toml())
    write_manifest(target, build_run_manifest(run))
    return json_path, csv_path, toml_path
