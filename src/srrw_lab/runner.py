"""Config-driven experiment execution with machine-readable outputs.

Each config kind maps to a section in ``SECTIONS``: a function of the
config, its group and its step distribution that returns the CSV artifacts
to write, the ``results`` entries of ``summary.json`` and whether a horizon
guard fired.  Artifacts are written atomically (temp file + rename) only
after the section completes, so a failed or cancelled run leaves no partial
artifacts.  All randomness descends from the config seed through fixed
per-section offsets, and reductions happen in fixed chunk order, so outputs
are byte-identical for any thread count.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import metrics, oracle
from .config import KINDS, ExperimentConfig, build_grid, build_group, build_mu
from .dist import write_csv
from .evolving import iso_profile
from .forest import STREAM_LAYOUT
from .special import cutoff_constant
from .walk import sample_endpoints_direct

# per-section seed offsets keep sections decorrelated but reproducible
SECTION_SEED_STRIDE = 1_000_003


def _estimator(cfg: ExperimentConfig) -> str:
    """The estimator a config's section runs (its rows' ``estimator`` column)."""
    return KINDS[cfg.kind].estimator or cfg.estimator


@dataclass
class RunResult:
    summary: dict
    outputs: list = field(default_factory=list)
    guard_triggered: bool = False


def _build_curve(cfg: ExperimentConfig, group, mu, alpha, grid, seed):
    if cfg.estimator == "rao-blackwell":
        return metrics.rao_blackwell_cycle_curve(
            group.order, alpha, grid, cfg.replicas, seed, threads=cfg.threads
        )
    if cfg.estimator == "hypercube-weight":
        return metrics.hypercube_tv_curve(
            group.d, alpha, grid, cfg.replicas, seed, threads=cfg.threads
        )
    if cfg.estimator == "endpoint":
        ends = sample_endpoints_direct(group, mu, alpha, grid, cfg.replicas, seed)
        values, errs = zip(*(metrics.empirical_tv_estimator(row, group) for row in ends))
        return metrics.DistanceCurve(
            group_desc=group.describe(),
            alpha=alpha,
            estimator="endpoint",
            replicas=cfg.replicas,
            seed=seed,
            ns=grid,
            values=values,
            stderrs=errs,
        )
    if cfg.estimator == "exact":
        curve = oracle.exact_tv_curve(group, mu, alpha, int(grid[-1]))
        keep = np.isin(curve.ns, grid)
        return replace(
            curve,
            seed=seed,
            ns=curve.ns[keep],
            values=curve.values[keep],
            stderrs=curve.stderrs[keep],
        )


def _curve_section(cfg: ExperimentConfig, group, mu, scan: bool):
    """``tv-curve`` (scan=False) and ``mixing-scan`` (scan=True)."""
    grid = build_grid(cfg.grid, cfg.points_per_decade)
    rows, scans = [], []
    guard = False
    for ai, alpha in enumerate(cfg.alphas):
        seed = cfg.seed + SECTION_SEED_STRIDE * ai
        curve = _build_curve(cfg, group, mu, alpha, grid, seed)
        rows.extend(curve.csv_rows())
        for eps in cfg.epsilons if scan else ():
            est = metrics.mixing_time_scan(curve, eps)
            guard = guard or est.guard_triggered
            scans.append({"alpha": alpha, **est.to_json_dict()})
    artifacts = [("curves.csv", metrics.DistanceCurve.CSV_FIELDS, rows)]
    return artifacts, {"scans": scans} if scans else {}, guard


def _loglog_slopes(cfg: ExperimentConfig, table: list) -> dict:
    slopes = {}
    for alpha in cfg.alphas:
        pts = [
            (math.log(row["size"]), math.log(row["t_mix"]))
            for row in table
            if row["alpha"] == alpha and row["epsilon"] == cfg.epsilons[0]
        ]
        if len(pts) >= 2:
            xs, ys = zip(*pts)
            slopes[str(alpha)] = float(np.polyfit(xs, ys, 1)[0])
    return slopes


def _cutoff_constants(cfg: ExperimentConfig, table: list) -> dict:
    return {str(a): cutoff_constant(a) for a in cfg.alphas if 0.0 < a < 1.0}


@dataclass(frozen=True)
class _ScalingStudy:
    """What differs between the ``phase-transition`` and ``cutoff`` sections."""

    mixing_time: str  # name in ``metrics``, looked up at run time
    horizon0: Callable[[int, float], int]
    scale: Callable[[int], float]  # the ``normalized`` column is t_mix / scale(size)
    results_key: str
    summarize: Callable[[ExperimentConfig, list], dict]


_CYCLE_STUDY = _ScalingStudy(
    "cycle_mixing_time",
    metrics.cycle_horizon0,
    lambda L: float(L * L),
    "loglog_slopes",
    _loglog_slopes,
)
_HYPERCUBE_STUDY = _ScalingStudy(
    "hypercube_mixing_time",
    metrics.hypercube_horizon0,
    lambda d: d * math.log(d),
    "cutoff_constants",
    _cutoff_constants,
)

_MIXING_TIME_FIELDS = (
    "seed", "estimator", "alpha", "size", "epsilon",
    "t_mix", "normalized", "horizon", "guard_triggered",
)


def _scaling_section(cfg: ExperimentConfig, group, mu, study: _ScalingStudy):
    """``phase-transition`` and ``cutoff``: t_mix over alphas x sizes x epsilons."""
    mixing_time = getattr(metrics, study.mixing_time)
    table, tried = [], []
    guard = False
    for si, (alpha, size) in enumerate(itertools.product(cfg.alphas, cfg.sizes)):
        seed = cfg.seed + SECTION_SEED_STRIDE * si
        # every epsilon of this section scans the same curves, and an extension
        # resumes the forests of the longest one
        curves: dict = {}
        for eps in cfg.epsilons:
            runout = mixing_time(
                size, alpha, eps, cfg.replicas, seed, study.horizon0(size, alpha),
                points_per_decade=cfg.points_per_decade,
                threads=cfg.threads,
                curves=curves,
            )
            est = runout.estimate
            guard = guard or est.guard_triggered
            table.append(
                {
                    "seed": seed,
                    "estimator": _estimator(cfg),
                    "alpha": alpha,
                    "size": size,
                    "epsilon": eps,
                    "t_mix": est.t_mix,
                    "normalized": est.t_mix / study.scale(size),
                    "horizon": est.horizon,
                    "guard_triggered": est.guard_triggered,
                }
            )
            tried.append(runout.horizons_tried)
    results = {
        "mixing_times": [dict(row, horizons_tried=h) for row, h in zip(table, tried)],
        study.results_key: study.summarize(cfg, table),
    }
    return [("mixing_times.csv", _MIXING_TIME_FIELDS, table)], results, guard


def _forest_stats_section(cfg: ExperimentConfig, group, mu):
    grid = build_grid(cfg.grid, cfg.points_per_decade)
    k_max = metrics.CLUSTER_K_MAX
    metrics.check_cluster_stats(grid.size, cfg.replicas, len(cfg.alphas))
    rows = []
    for ai, alpha in enumerate(cfg.alphas):
        seed = cfg.seed + SECTION_SEED_STRIDE * ai
        counts, odd = metrics.cluster_size_counts(
            alpha, grid, cfg.replicas, seed, k_max, threads=cfg.threads
        )
        for ni, n in enumerate(grid):
            head = [seed, _estimator(cfg), int(n), f"{alpha:.17g}"]
            for r in range(cfg.replicas):
                for k in range(1, k_max + 1):
                    rows.append(head + [r, k, int(counts[ni, r, k - 1])])
                rows.append(head + [r, "odd", int(odd[ni, r])])
    fields = ("seed", "estimator", "n", "alpha", "replica", "k", "count")
    return [("cluster_stats.csv", fields, rows)], {}, False


def _profiles_section(cfg: ExperimentConfig, group, mu):
    table = iso_profile(group, mu, mode="exhaustive")
    head = {"seed": cfg.seed, "estimator": _estimator(cfg)}
    rows = [{**head, **row} for row in table.csv_rows()]
    fields = ("seed", "estimator", *table.CSV_FIELDS)
    return [("profiles.csv", fields, rows)], {"certified": table.certified}, False


def _oracle_check_section(cfg: ExperimentConfig, group, mu):
    rows = []
    for alpha in cfg.alphas:
        for n in range(1, cfg.n_max + 1):
            d = oracle.exact_endpoint_distribution(group, mu, alpha, n)
            tv, p_identity = d.tv_to_uniform(), d.probs[group.identity]
            rows.append(
                [cfg.seed, _estimator(cfg), f"{alpha:.17g}", n, f"{tv:.17g}", f"{p_identity:.17g}"]
            )
    fields = ("seed", "estimator", "alpha", "n", "tv", "p_identity")
    return [("oracle_check.csv", fields, rows)], {}, False


# kind -> section(cfg, group, mu) -> (artifacts, results, guard_triggered); an
# artifact is (file name, field names, rows).  Sections look up estimators as
# module attributes when they run, so wrappers installed on them take effect.
SECTIONS = {
    "tv-curve": partial(_curve_section, scan=False),
    "mixing-scan": partial(_curve_section, scan=True),
    "phase-transition": partial(_scaling_section, study=_CYCLE_STUDY),
    "cutoff": partial(_scaling_section, study=_HYPERCUBE_STUDY),
    "forest-stats": _forest_stats_section,
    "profiles": _profiles_section,
    "oracle-check": _oracle_check_section,
}


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute a validated config; returns the summary and written paths."""
    t0 = time.monotonic()
    os.makedirs(cfg.output_dir, exist_ok=True)
    group = build_group(cfg.group)
    mu = build_mu(group, cfg.mu)
    artifacts, results, guard = SECTIONS[cfg.kind](cfg, group, mu)
    outputs: list[str] = []
    for name, fields, rows in artifacts:
        path = os.path.join(cfg.output_dir, name)
        write_csv(path, fields, rows)
        outputs.append(path)
    summary = {
        "kind": cfg.kind,
        "group": group.describe(),
        "estimator": _estimator(cfg),
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "stream_layout": STREAM_LAYOUT,
        "threads": cfg.threads,
        "wall_clock_s": round(time.monotonic() - t0, 3),
        "outputs": outputs,
        "guard_triggered": guard,
        "results": results,
    }
    path = os.path.join(cfg.output_dir, "summary.json")
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    outputs.append(path)
    return RunResult(summary=summary, outputs=outputs, guard_triggered=guard)
