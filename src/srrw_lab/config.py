"""Experiment configuration: one table of fields, one table of kinds.

A config is a single versioned JSON document.  ``ExperimentConfig``
declares each top-level field once, with its default (or ``REQUIRED``), the
check its value must pass and that rule in words; ``FIELDS`` is that table
by name.  ``validate_config`` runs every check on every field, whatever the
kind, then the checks that need the group, mu and the kind's entry in
``KINDS``; it aggregates every problem it finds with its field path.
``parse_config`` builds ``ExperimentConfig`` from the same table, so every
document that validates can run.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import groups as G
from . import metrics
from .errors import CapacityError, SchemaError
from .evolving import check_exhaustive
from .oracle import ORACLE_N_CAP, check_spin_cap
from .walk import check_step_table

SCHEMA_VERSION = 1
REPLICAS_CAP = 10**9  # the caps of two counts: far beyond them a run cannot even be set up
POINTS_PER_DECADE_CAP = 10**4

ESTIMATORS = ("rao-blackwell", "endpoint", "hypercube-weight", "exact")

MU_BUILTINS = {
    "simple-cycle": G.simple_cycle_mu,
    "lazy-cycle": G.lazy_cycle_mu,
    "lazy-hypercube": G.lazy_hypercube_mu,
    "lamplighter-example": G.lamplighter_example_mu,
    "uniform": G.uniform_mu,
}

# group family -> the key of its size parameter
SIZE_KEY = {"cyclic": "L", "hypercube": "d", "symmetric": "m", "lamplighter": "L", "table": "table"}

# estimator: the one the kind's section runs (None: the config's); sizes: (size check, the
# rule in words) of a scaling study, whose config must name `estimator`; needs_grid: reads grid
Kind = namedtuple("Kind", "estimator sizes needs_grid", defaults=[None, None, False])


KINDS = {
    "tv-curve": Kind(needs_grid=True),
    "mixing-scan": Kind(needs_grid=True),
    "phase-transition": Kind("rao-blackwell", (lambda L: L >= 3 and L % 2, "odd integers >= 3")),
    "cutoff": Kind("hypercube-weight", (lambda d: 2 <= d <= 1024, "integers 2 <= d <= 1024")),
    "forest-stats": Kind("forest-mc", needs_grid=True),
    "profiles": Kind("exhaustive"),
    "oracle-check": Kind("exact"),
}


def _int(v) -> bool:
    # bool is an int subclass, but true is no count
    return isinstance(v, int) and not isinstance(v, bool)


def _count(v, cap: float = float("inf")) -> bool:
    return _int(v) and 1 <= v <= cap


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_of(ok: Callable[[object], bool]):
    return lambda v: isinstance(v, list) and all(map(ok, v))


def _numbers(ok: Callable[[float], bool]):
    """A nonempty list of numbers x with ok(x)."""
    return lambda v: _list_of(lambda x: _number(x) and ok(x))(v) and v != []


def _grid_ok(v) -> bool:
    if v is None:
        return True
    if not isinstance(v, dict):
        return False
    if v.get("type") == "explicit":
        vals = v.get("values")
        return _list_of(_count)(vals) and sorted(set(vals)) == vals != []
    return v.get("type", "geometric") == "geometric" and _count(v.get("n_max"))


def _threads(v):
    """``threads``, else $SRRW_LAB_THREADS (left a string unless all digits), else 1."""
    if v is None:
        env = os.environ.get("SRRW_LAB_THREADS", "").strip() or "1"
        return int(env) if env.isdecimal() else env
    return v


def _floats(v) -> list:
    return [float(x) for x in v]


REQUIRED = object()  # the default of a field every document must give


# default: REQUIRED, or the value an absent field takes; rule: what `check` accepts, in
# words; parse: the value's form in ExperimentConfig
Field = namedtuple("Field", "default check rule parse", defaults=[lambda v: v])


def _field(*spec):
    return field(metadata={"spec": Field(*spec)})


@dataclass
class ExperimentConfig:
    """A validated config: each attribute is a top-level field, defaults filled in.

    Each field is declared once, with its ``Field``: its default, its check
    and that rule in words.  ``FIELDS`` is this table by name.
    """

    schema_version: int = _field(REQUIRED, lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION))
    kind: str = _field(REQUIRED, lambda v: v in tuple(KINDS), "one of " + ", ".join(KINDS))
    group: dict = _field(REQUIRED, lambda v: isinstance(v, dict), "an object: kind, size key")
    mu: dict = _field(REQUIRED, lambda v: isinstance(v, dict), "an object: type[, probs]")
    alphas: list = _field(
        REQUIRED, _numbers(lambda a: 0 <= a < 1), "a nonempty list of numbers in [0, 1)", _floats
    )
    seed: int = _field(REQUIRED, lambda v: _int(v) and 0 <= v < 1 << 64, "an integer in [0, 2^64)")
    replicas: int = _field(
        1, lambda v: _count(v, REPLICAS_CAP), f"an integer in [1, {REPLICAS_CAP}]"
    )
    estimator: str = _field("exact", lambda v: v in ESTIMATORS, "one of " + ", ".join(ESTIMATORS))
    grid: dict | None = _field(
        None, _grid_ok, "null, {n_max: N} or {type: explicit, values: [N, ...]}, integers N >= 1"
    )
    epsilons: list = _field(
        [0.25], _numbers(lambda e: 0 < e < 1), "a nonempty list of numbers in (0, 1)", _floats
    )
    sizes: list = _field([], _list_of(_int), "a list of integers", list)  # scaling studies
    n_max: int = _field(6, _int, "an integer")  # oracle-check horizon
    points_per_decade: int = _field(
        40,
        lambda v: _count(v, POINTS_PER_DECADE_CAP),
        f"an integer in [1, {POINTS_PER_DECADE_CAP}]",
    )
    output_dir: str = _field("srrw-out", lambda v: v and isinstance(v, str), "a nonempty string")
    threads: int = _field(
        None,
        lambda v: _count(_threads(v)),
        "null or an integer >= 1; null takes $SRRW_LAB_THREADS (an integer >= 1) if set, else 1",
        _threads,
    )


FIELDS = {f.name: f.metadata["spec"] for f in fields(ExperimentConfig)}


def build_group(spec: dict) -> G.FiniteGroup:
    kind = spec.get("kind")
    if kind not in SIZE_KEY:
        raise SchemaError([f"group.kind: unknown kind {kind!r}"])
    if SIZE_KEY[kind] not in spec:
        raise SchemaError([f"group.{SIZE_KEY[kind]}: required"])
    return G.make_group(kind, spec[SIZE_KEY[kind]])


def build_mu(group: G.FiniteGroup, spec: dict) -> G.StepDistribution:
    mtype = spec.get("type")
    if mtype == "explicit":
        if not isinstance(spec["probs"], dict):
            raise SchemaError(["mu.probs: must be an object of element name -> probability"])
        return G.StepDistribution.from_names(group, spec["probs"])
    if mtype in MU_BUILTINS:
        return MU_BUILTINS[mtype](group)
    raise SchemaError([f"mu.type: unknown type {mtype!r}"])


def build_grid(grid: dict, points_per_decade: int) -> np.ndarray:
    if grid.get("type") == "explicit":
        return np.asarray(grid["values"], dtype=np.int64)
    return metrics.geometric_grid(grid["n_max"], points_per_decade)


def parse_config(doc: dict) -> ExperimentConfig:
    problems = validate_config(doc)
    if problems:
        raise SchemaError(problems)
    return ExperimentConfig(**{k: f.parse(doc.get(k, f.default)) for k, f in FIELDS.items()})


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


def validate_config(doc: dict) -> list[str]:
    """Full schema + capacity prevalidation; returns all problems found."""
    if not isinstance(doc, dict):
        return ["config: not a JSON object"]
    problems = [f"{name}: unknown field" for name in doc if name not in FIELDS]

    def bad(pathstr, msg):
        problems.append(f"{pathstr}: {msg}")

    v = {}  # the fields that passed their checks, defaults filled in
    for name, f in FIELDS.items():
        if name not in doc and f.default is REQUIRED:
            bad(name, "required")
        elif f.check(value := doc.get(name, f.default)):
            v[name] = value
        else:
            bad(name, f"must be {f.rule}")

    def build(pathstr, builder, *args):
        try:
            return builder(*args)
        except SchemaError as exc:
            problems.extend(exc.problems)
        except (KeyError, TypeError, ValueError) as exc:
            bad(pathstr, str(exc))

    group = build("group", build_group, v["group"]) if "group" in v else None
    mu = build("mu", build_mu, group, v["mu"]) if "mu" in v and group is not None else None
    name, est, grid = v.get("kind"), v.get("estimator"), v.get("grid")
    kind = KINDS.get(name, Kind())  # an unknown kind runs the config's estimator
    run = kind.estimator or est  # the estimator the kind's section runs
    if kind.needs_grid and "grid" in v and grid is None:
        bad("grid", f"required for kind {name!r}")
    # the last grid point, which sizes the exact and endpoint estimators and forest-stats
    last = None
    if kind.needs_grid and grid is not None:
        last = max(grid["values"]) if grid.get("type") == "explicit" else grid["n_max"]
    if kind.sizes is not None:
        if est is not None and est != kind.estimator:
            bad("estimator", f"kind {name!r} runs the {kind.estimator!r} estimator only")
        size_ok, rule = kind.sizes
        sizes_ok = "sizes" in v and v["sizes"] and all(map(size_ok, v["sizes"]))
        if "sizes" in v and not sizes_ok:
            bad("sizes", f"must be a nonempty list of {rule}")
    if name == "oracle-check" and "n_max" in v and not 1 <= v["n_max"] <= ORACLE_N_CAP:
        bad("n_max", f"oracle check needs 1 <= n_max <= {ORACLE_N_CAP}")
    if run == "exact":
        # the oracle's caps, for curves (to their last grid point) as for oracle-check
        n_field, n = ("grid", last) if kind.needs_grid else ("n_max", v.get("n_max"))
        if last is not None and last > ORACLE_N_CAP:
            bad("grid", f"the exact estimator needs n <= {ORACLE_N_CAP}, got {last}")
        if group is not None and group.order > G.TABLE_CAP:
            bad("group", f"the exact estimator needs order <= {G.TABLE_CAP}")
        if mu is not None and n is not None and 1 <= n <= ORACLE_N_CAP:
            for alpha in v.get("alphas", ()):
                try:
                    check_spin_cap(mu, alpha, n)
                except CapacityError as exc:
                    bad(n_field, str(exc))
                    break

    if group is not None:
        if name == "profiles":
            build("group", check_exhaustive, group)
        # these estimators compute one fixed walk's curve and ignore mu otherwise
        if run == "rao-blackwell":
            if group.kind != "cyclic" or group.order % 2 == 0 or group.order < 3:
                bad("estimator", "rao-blackwell needs an odd cyclic group of size >= 3")
            elif mu is not None and mu.items != G.simple_cycle_mu(group).items:
                bad("mu", "rao-blackwell estimates the simple-cycle walk; mu must be simple-cycle")
        if run == "hypercube-weight":
            if group.kind != "hypercube" or getattr(group, "d", 0) > 1024:
                bad("estimator", "hypercube-weight needs a hypercube group with d <= 1024")
            elif mu is not None and mu.items != G.lazy_hypercube_mu(group).items:
                bad("mu", "hypercube-weight estimates the lazy walk; mu must be lazy-hypercube")
        if run == "endpoint" and last is not None and "replicas" in v:
            build("grid", check_step_table, group, v["replicas"], last)
    if name == "forest-stats" and grid and {"replicas", "alphas", "points_per_decade"} <= set(v):
        points = build_grid(grid, v["points_per_decade"]).size
        try:
            metrics.check_cluster_stats(points, v["replicas"], len(v["alphas"]))
        except CapacityError as exc:
            bad("replicas", str(exc))
    forest_pass = run in ("rao-blackwell", "hypercube-weight", "forest-mc")
    if forest_pass and {"replicas", "threads"} <= set(v):
        # the forest passes that always run: a curve's or forest-stats' to its last grid
        # point (forest-stats' at modulus last + 1, which no cluster reaches), a scan's
        # first (with the checkpoint it keeps); _forest_chunks checks each extension
        cycle, hypercube = run == "rao-blackwell", run == "hypercube-weight"
        passes = []
        if kind.sizes is None and last is not None and (group is not None or not cycle):
            modulus = group.order if cycle else 2 if hypercube else last + 1
            passes = [("grid", modulus, last, None)]
        elif kind.sizes is not None and sizes_ok and "alphas" in v:
            first = metrics.cycle_horizon0 if cycle else metrics.hypercube_horizon0
            passes = [
                ("sizes", size if cycle else 2, first(size, alpha), metrics.Checkpoint())
                for size in v["sizes"]
                for alpha in v["alphas"]
            ]
        chunk = metrics.HYPERCUBE_CHUNK if hypercube else metrics.CYCLE_CHUNK
        for pathstr, modulus, horizon, checkpoint in passes:
            try:
                metrics.check_forest_pass(
                    horizon, modulus, v["replicas"], chunk, _threads(v["threads"]), checkpoint
                )
            except CapacityError as exc:
                bad(pathstr, str(exc))
                break
    return problems
