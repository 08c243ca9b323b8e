"""Experiment configuration: JSON schema, validation, and group/mu resolution.

A config is a single versioned JSON document.  ``validate`` performs full
schema and capacity checks without running anything and aggregates every
problem it finds with its field path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import groups as G
from .errors import SchemaError
from .evolving import EXHAUSTIVE_CAP
from .oracle import GROUP_CAP, ORACLE_N_CAP

SCHEMA_VERSION = 1

KINDS = (
    "tv-curve",
    "mixing-scan",
    "phase-transition",
    "cutoff",
    "forest-stats",
    "profiles",
    "oracle-check",
)

ESTIMATORS = ("rao-blackwell", "endpoint", "hypercube-weight", "exact")

# scaling kind -> (the estimator it runs, size check, the rule in words)
_SCALING_RULES = {
    "phase-transition": ("rao-blackwell", lambda L: L >= 3 and L % 2 == 1, "odd integers >= 3"),
    "cutoff": ("hypercube-weight", lambda d: 2 <= d <= 1024, "integers 2 <= d <= 1024"),
}

MU_BUILTINS = {
    "simple-cycle": G.simple_cycle_mu,
    "lazy-cycle": G.lazy_cycle_mu,
    "lazy-hypercube": G.lazy_hypercube_mu,
    "lamplighter-example": G.lamplighter_example_mu,
    "uniform": G.uniform_mu,
}


@dataclass
class ExperimentConfig:
    kind: str
    group: dict
    mu: dict
    alphas: list
    grid: dict | None
    replicas: int
    seed: int
    estimator: str
    epsilons: list = field(default_factory=lambda: [0.25])
    sizes: list = field(default_factory=list)  # L or d list for scaling studies
    n_max: int = 6  # oracle-check horizon
    output_dir: str = "srrw-out"
    smoothing_bandwidth: float | None = None
    threads: int | None = None
    points_per_decade: int = 40
    raw: dict = field(default_factory=dict)

    def resolved_threads(self) -> int:
        if self.threads is not None:
            return max(1, int(self.threads))
        env = os.environ.get("SRRW_LAB_THREADS")
        return max(1, int(env)) if env else 1


def build_group(spec: dict) -> G.FiniteGroup:
    kind = spec.get("kind")
    if kind == "cyclic":
        return G.make_group("cyclic", spec["L"])
    if kind == "hypercube":
        return G.make_group("hypercube", spec["d"])
    if kind == "symmetric":
        return G.make_group("symmetric", spec["m"])
    if kind == "lamplighter":
        return G.make_group("lamplighter", spec["L"])
    if kind == "table":
        return G.make_group("table", np.asarray(spec["table"]))
    raise SchemaError([f"group.kind: unknown kind {kind!r}"])


def build_mu(group: G.FiniteGroup, spec: dict) -> G.StepDistribution:
    mtype = spec.get("type")
    if mtype == "explicit":
        if not isinstance(spec["probs"], dict):
            raise SchemaError(["mu.probs: must be an object of element name -> probability"])
        return G.StepDistribution.from_names(group, spec["probs"])
    if mtype in MU_BUILTINS:
        return MU_BUILTINS[mtype](group)
    raise SchemaError([f"mu.type: unknown type {mtype!r}"])


def build_grid(cfg: ExperimentConfig) -> np.ndarray:
    from .metrics import geometric_grid

    spec = cfg.grid or {}
    gtype = spec.get("type", "geometric")
    if gtype == "explicit":
        return np.asarray(sorted(set(int(v) for v in spec["values"])), dtype=np.int64)
    if gtype == "geometric":
        return geometric_grid(int(spec["n_max"]), cfg.points_per_decade)
    raise SchemaError([f"grid.type: unknown type {gtype!r}"])


def parse_config(doc: dict) -> ExperimentConfig:
    problems = validate_config(doc)
    if problems:
        raise SchemaError(problems)
    return ExperimentConfig(
        kind=doc["kind"],
        group=doc["group"],
        mu=doc["mu"],
        alphas=[float(a) for a in doc["alphas"]],
        grid=doc.get("grid"),
        replicas=int(doc.get("replicas", 1)),
        seed=int(doc["seed"]),
        estimator=doc.get("estimator", "exact"),
        epsilons=[float(e) for e in doc.get("epsilons", [0.25])],
        sizes=[int(s) for s in doc.get("sizes", [])],
        n_max=int(doc.get("n_max", 6)),
        output_dir=doc.get("output_dir", "srrw-out"),
        smoothing_bandwidth=doc.get("smoothing_bandwidth"),
        threads=doc.get("threads"),
        points_per_decade=int(doc.get("points_per_decade", 40)),
        raw=doc,
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_config(doc)


def validate_config(doc: dict) -> list[str]:
    """Full schema + capacity prevalidation; returns all problems found."""
    problems: list[str] = []

    def bad(pathstr, msg):
        problems.append(f"{pathstr}: {msg}")

    if not isinstance(doc, dict):
        return ["config: not a JSON object"]
    if doc.get("schema_version") != SCHEMA_VERSION:
        bad("schema_version", f"must be {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind not in KINDS:
        bad("kind", f"must be one of {KINDS}")
    group_spec = doc.get("group")
    group = None
    if not isinstance(group_spec, dict):
        bad("group", "must be an object")
    else:
        try:
            group = build_group(group_spec)
        except (KeyError, TypeError, ValueError) as exc:
            bad("group", str(exc))
    mu_spec = doc.get("mu")
    mu = None
    if not isinstance(mu_spec, dict):
        bad("mu", "must be an object")
    elif group is not None:
        try:
            mu = build_mu(group, mu_spec)
        except (KeyError, TypeError, ValueError) as exc:
            bad("mu", str(exc))
    alphas = doc.get("alphas")
    if not isinstance(alphas, list) or not alphas:
        bad("alphas", "must be a nonempty list")
    else:
        for i, a in enumerate(alphas):
            if not isinstance(a, (int, float)) or not 0.0 <= float(a) < 1.0:
                bad(f"alphas[{i}]", "must lie in [0, 1)")
    replicas = doc.get("replicas", 1)
    if not isinstance(replicas, int) or replicas < 1:
        bad("replicas", "must be an integer >= 1")
    seed = doc.get("seed")
    if not isinstance(seed, int) or not 0 <= seed < (1 << 64):
        bad("seed", "must be a 64-bit integer")
    est = doc.get("estimator", "exact")
    if est not in ESTIMATORS:
        bad("estimator", f"must be one of {ESTIMATORS}")
    grid = doc.get("grid")
    if grid is not None:
        if not isinstance(grid, dict):
            bad("grid", "must be an object")
        else:
            gtype = grid.get("type", "geometric")
            if gtype == "explicit":
                vals = grid.get("values")
                if not isinstance(vals, list) or not vals:
                    bad("grid.values", "must be a nonempty list")
                elif sorted(set(vals)) != vals or any(
                    not isinstance(v, int) or v < 1 for v in vals
                ):
                    bad("grid.values", "must be strictly increasing positive integers")
            elif gtype == "geometric":
                if not isinstance(grid.get("n_max"), int) or grid["n_max"] < 1:
                    bad("grid.n_max", "must be an integer >= 1")
            else:
                bad("grid.type", "must be 'explicit' or 'geometric'")
    elif kind in ("tv-curve", "mixing-scan"):
        bad("grid", f"required for kind {kind!r}")

    epsilons = doc.get("epsilons", [0.25])
    if not isinstance(epsilons, list) or not epsilons:
        bad("epsilons", "must be a nonempty list")
    else:
        for i, e in enumerate(epsilons):
            if not isinstance(e, (int, float)) or not 0.0 < float(e) < 1.0:
                bad(f"epsilons[{i}]", "must lie in (0, 1)")

    # capacity prevalidation
    if group is not None:
        if kind == "profiles" and group.order > EXHAUSTIVE_CAP:
            bad("group", f"exhaustive profiles capped at order {EXHAUSTIVE_CAP}, got {group.order}")
        if kind == "profiles" and group.order < 2:
            bad("group", f"profiles need a group of order >= 2 (got {group.order})")
        if kind == "oracle-check":
            n_max = doc.get("n_max", 6)
            if not isinstance(n_max, int) or not 1 <= n_max <= ORACLE_N_CAP:
                bad("n_max", f"oracle check needs 1 <= n_max <= {ORACLE_N_CAP}")
            if group.order > GROUP_CAP:
                bad("group", f"oracle check needs order <= {GROUP_CAP}")
        # these estimators compute one fixed walk's curve and ignore mu otherwise
        if est == "rao-blackwell":
            if group.kind != "cyclic" or group.order % 2 == 0 or group.order < 3:
                bad("estimator", "rao-blackwell needs an odd cyclic group of size >= 3")
            elif mu is not None and mu.items != G.simple_cycle_mu(group).items:
                bad("mu", "rao-blackwell estimates the simple-cycle walk; mu must be simple-cycle")
        if est == "hypercube-weight":
            if group.kind != "hypercube" or getattr(group, "d", 0) > 1024:
                bad("estimator", "hypercube-weight needs a hypercube group with d <= 1024")
            elif mu is not None and mu.items != G.lazy_hypercube_mu(group).items:
                bad("mu", "hypercube-weight estimates the lazy walk; mu must be lazy-hypercube")
        if est == "endpoint" and not group.has_table:
            bad("estimator", "endpoint sampling needs group order <= 4096")
    if kind in _SCALING_RULES:
        estimator, size_ok, rule = _SCALING_RULES[kind]
        if est != estimator:
            bad("estimator", f"kind {kind!r} runs the {estimator!r} estimator only")
        sizes = doc.get("sizes")
        if not isinstance(sizes, list) or not sizes or any(
            not isinstance(s, int) or not size_ok(s) for s in sizes
        ):
            bad("sizes", f"must be a nonempty list of {rule}")
    thr = doc.get("threads")
    if thr is not None and (not isinstance(thr, int) or thr < 1):
        bad("threads", "must be an integer >= 1")
    bw = doc.get("smoothing_bandwidth")
    if bw is not None and (not isinstance(bw, (int, float)) or bw <= 0):
        bad("smoothing_bandwidth", "must be a positive number")
    return problems
