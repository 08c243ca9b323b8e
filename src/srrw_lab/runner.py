"""Config-driven experiment execution with machine-readable outputs.

Outputs are written atomically (temp file + rename) only after a section
completes, so a failed or cancelled run leaves no partial artifacts.  All
randomness descends from the config seed through fixed per-section offsets,
and reductions happen in fixed chunk order, so outputs are byte-identical
for any thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics, oracle
from .config import ExperimentConfig, build_grid, build_group, build_mu
from .errors import SchemaError
from .evolving import iso_profile
from .forest import sample_cluster_size_counts
from .special import cutoff_constant
from .walk import sample_endpoints_direct

# per-section seed offsets keep sections decorrelated but reproducible
SECTION_SEED_STRIDE = 1_000_003


@dataclass
class RunResult:
    summary: dict
    outputs: list = field(default_factory=list)
    guard_triggered: bool = False


def _atomic_write_text(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(fieldnames, rows) -> str:
    import io

    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _curve_fieldnames():
    return ["seed", "group", "alpha", "estimator", "n", "value", "stderr", "replicas"]


def _build_curve(cfg: ExperimentConfig, group, mu, alpha, grid, seed):
    threads = cfg.resolved_threads()
    if cfg.estimator == "rao-blackwell":
        return metrics.rao_blackwell_cycle_curve(
            group.order, alpha, grid, cfg.replicas, seed, threads=threads
        )
    if cfg.estimator == "hypercube-weight":
        return metrics.hypercube_tv_curve(
            group.d, alpha, grid, cfg.replicas, seed, threads=threads
        )
    if cfg.estimator == "endpoint":
        values, errs = [], []
        for i, n in enumerate(grid):
            samples = sample_endpoints_direct(
                group, mu, alpha, int(n), cfg.replicas, seed + 7919 * i
            )
            v, se = metrics.empirical_tv_estimator(samples, group)
            values.append(v)
            errs.append(se)
        return metrics.DistanceCurve(
            group_desc=group.describe(),
            alpha=alpha,
            estimator="endpoint",
            replicas=cfg.replicas,
            seed=seed,
            ns=grid,
            values=np.array(values),
            stderrs=np.array(errs),
        )
    if cfg.estimator == "exact":
        curve = oracle.exact_tv_curve(group, mu, alpha, int(grid[-1]))
        keep = np.isin(curve.ns, grid)
        return metrics.DistanceCurve(
            group_desc=curve.group_desc,
            alpha=alpha,
            estimator="exact",
            replicas=0,
            seed=seed,
            ns=curve.ns[keep],
            values=curve.values[keep],
            stderrs=curve.stderrs[keep],
        )
    raise SchemaError([f"estimator: {cfg.estimator!r} not runnable for kind {cfg.kind!r}"])


def _cycle_horizon0(L: int, alpha: float) -> int:
    # the guard-retry loop doubles these if the tail is not yet quiet
    if alpha > 0.5:
        return max(128, int(1.5 * L ** (1.0 / alpha)))
    if alpha == 0.5:
        return max(128, int(0.8 * L * L / math.log(L)))
    return max(128, int(0.45 * L * L))


def _hypercube_horizon0(d: int, alpha: float) -> int:
    if alpha == 0.0:
        return max(64, int(1.2 * d * (math.log(d) + 4.0)))
    return max(64, int(cutoff_constant(alpha) * d * (math.log(d) + 4.0)))


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute a validated config; returns the summary and written paths."""
    t0 = time.monotonic()
    os.makedirs(cfg.output_dir, exist_ok=True)
    outputs: list[str] = []
    guard = False
    results: dict = {}
    group = build_group(cfg.group)
    mu = build_mu(group, cfg.mu)

    if cfg.kind in ("tv-curve", "mixing-scan"):
        grid = build_grid(cfg)
        rows = []
        smooth_rows = []
        scans = []
        for ai, alpha in enumerate(cfg.alphas):
            seed = cfg.seed + SECTION_SEED_STRIDE * ai
            curve = _build_curve(cfg, group, mu, alpha, grid, seed)
            rows.extend(curve.csv_rows())
            if cfg.smoothing_bandwidth:
                smooth_rows.extend(
                    metrics.smooth_curve(curve, cfg.smoothing_bandwidth).csv_rows()
                )
            if cfg.kind == "mixing-scan":
                for eps in cfg.epsilons:
                    # the scan always consumes the raw curve, never the smoothed one
                    est = metrics.mixing_time_scan(curve, eps)
                    guard = guard or est.guard_triggered
                    scans.append({"alpha": alpha, **est.to_json_dict()})
        path = os.path.join(cfg.output_dir, "curves.csv")
        _atomic_write_text(path, _csv_text(_curve_fieldnames(), rows))
        outputs.append(path)
        if smooth_rows:
            path = os.path.join(cfg.output_dir, "curves_smoothed.csv")
            _atomic_write_text(path, _csv_text(_curve_fieldnames(), smooth_rows))
            outputs.append(path)
        if scans:
            results["scans"] = scans

    elif cfg.kind in ("phase-transition", "cutoff"):
        table = []
        tried = []
        si = 0
        for alpha in cfg.alphas:
            for size in cfg.sizes:
                seed = cfg.seed + SECTION_SEED_STRIDE * si
                si += 1
                curves: dict = {}  # every epsilon of this section scans the same curves
                for eps in cfg.epsilons:
                    if cfg.kind == "phase-transition":
                        runout = metrics.cycle_mixing_time(
                            size,
                            alpha,
                            eps,
                            cfg.replicas,
                            seed,
                            _cycle_horizon0(size, alpha),
                            points_per_decade=cfg.points_per_decade,
                            threads=cfg.resolved_threads(),
                            curves=curves,
                        )
                        norm = runout.estimate.t_mix / float(size * size)
                    else:
                        runout = metrics.hypercube_mixing_time(
                            size,
                            alpha,
                            eps,
                            cfg.replicas,
                            seed,
                            _hypercube_horizon0(size, alpha),
                            points_per_decade=cfg.points_per_decade,
                            threads=cfg.resolved_threads(),
                            curves=curves,
                        )
                        norm = runout.estimate.t_mix / (size * math.log(size))
                    guard = guard or runout.estimate.guard_triggered
                    table.append(
                        {
                            "seed": seed,
                            "estimator": cfg.estimator,
                            "alpha": alpha,
                            "size": size,
                            "epsilon": eps,
                            "t_mix": runout.estimate.t_mix,
                            "normalized": norm,
                            "horizon": runout.estimate.horizon,
                            "guard_triggered": runout.estimate.guard_triggered,
                        }
                    )
                    tried.append(runout.horizons_tried)
        path = os.path.join(cfg.output_dir, "mixing_times.csv")
        _atomic_write_text(
            path,
            _csv_text(
                [
                    "seed",
                    "estimator",
                    "alpha",
                    "size",
                    "epsilon",
                    "t_mix",
                    "normalized",
                    "horizon",
                    "guard_triggered",
                ],
                table,
            ),
        )
        outputs.append(path)
        results["mixing_times"] = [
            dict(row, horizons_tried=h) for row, h in zip(table, tried)
        ]
        if cfg.kind == "phase-transition":
            slopes = {}
            for alpha in cfg.alphas:
                pts = [
                    (math.log(row["size"]), math.log(row["t_mix"]))
                    for row in table
                    if row["alpha"] == alpha and row["epsilon"] == cfg.epsilons[0]
                ]
                if len(pts) >= 2:
                    xs, ys = zip(*pts)
                    slope = np.polyfit(xs, ys, 1)[0]
                    slopes[str(alpha)] = float(slope)
            results["loglog_slopes"] = slopes
        else:
            results["cutoff_constants"] = {
                str(a): cutoff_constant(a) for a in cfg.alphas if 0.0 < a < 1.0
            }

    elif cfg.kind == "forest-stats":
        grid = build_grid(cfg)
        k_max = 10
        rows = []
        for ai, alpha in enumerate(cfg.alphas):
            for ni, n in enumerate(grid):
                seed = cfg.seed + SECTION_SEED_STRIDE * ai + 31 * (ni + 1)
                counts, odd = sample_cluster_size_counts(
                    int(n), alpha, cfg.replicas, seed, k_max
                )
                for r in range(cfg.replicas):
                    for k in range(1, k_max + 1):
                        rows.append(
                            {
                                "seed": seed,
                                "estimator": "forest-mc",
                                "n": int(n),
                                "alpha": f"{alpha:.17g}",
                                "replica": r,
                                "k": k,
                                "count": int(counts[r, k - 1]),
                            }
                        )
                    rows.append(
                        {
                            "seed": seed,
                            "estimator": "forest-mc",
                            "n": int(n),
                            "alpha": f"{alpha:.17g}",
                            "replica": r,
                            "k": "odd",
                            "count": int(odd[r]),
                        }
                    )
        path = os.path.join(cfg.output_dir, "cluster_stats.csv")
        _atomic_write_text(
            path,
            _csv_text(
                ["seed", "estimator", "n", "alpha", "replica", "k", "count"], rows
            ),
        )
        outputs.append(path)

    elif cfg.kind == "profiles":
        table = iso_profile(group, mu, mode="exhaustive")
        rows = [
            {
                "seed": cfg.seed,
                "estimator": "exhaustive",
                "r": f"{r:.17g}",
                "phi": f"{f:.17g}",
                "psi": f"{p:.17g}",
                "phi_witness_mask": hex(fw),
                "psi_witness_mask": hex(pw),
            }
            for r, f, p, fw, pw in zip(
                table.rs, table.phi, table.psi, table.phi_witness, table.psi_witness
            )
        ]
        path = os.path.join(cfg.output_dir, "profiles.csv")
        _atomic_write_text(
            path,
            _csv_text(
                [
                    "seed",
                    "estimator",
                    "r",
                    "phi",
                    "psi",
                    "phi_witness_mask",
                    "psi_witness_mask",
                ],
                rows,
            ),
        )
        outputs.append(path)
        results["certified"] = table.certified

    elif cfg.kind == "oracle-check":
        rows = []
        for alpha in cfg.alphas:
            for n in range(1, cfg.n_max + 1):
                d = oracle.exact_endpoint_distribution(group, mu, alpha, n)
                rows.append(
                    {
                        "seed": cfg.seed,
                        "estimator": "exact",
                        "alpha": f"{alpha:.17g}",
                        "n": n,
                        "tv": f"{d.tv_to_uniform():.17g}",
                        "p_identity": f"{d.probs[group.identity]:.17g}",
                    }
                )
        path = os.path.join(cfg.output_dir, "oracle_check.csv")
        _atomic_write_text(
            path,
            _csv_text(["seed", "estimator", "alpha", "n", "tv", "p_identity"], rows),
        )
        outputs.append(path)

    else:  # pragma: no cover - kinds are validated upstream
        raise SchemaError([f"kind: {cfg.kind!r} not runnable"])

    summary = {
        "kind": cfg.kind,
        "group": group.describe(),
        "estimator": cfg.estimator,
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "threads": cfg.resolved_threads(),
        "wall_clock_s": round(time.monotonic() - t0, 3),
        "outputs": outputs,
        "guard_triggered": guard,
        "results": results,
    }
    path = os.path.join(cfg.output_dir, "summary.json")
    _atomic_write_text(path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(path)
    return RunResult(summary=summary, outputs=outputs, guard_triggered=guard)
