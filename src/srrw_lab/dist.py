"""Probability vectors over a finite group and distances to uniformity."""

from __future__ import annotations

import csv
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .groups import FiniteGroup

PROB_SUM_ATOL = 1e-9


def write_csv(path, fieldnames, rows) -> None:
    """Write a header and rows as CSV with "\\n" line endings, atomically.

    A row is a mapping keyed by field name or a sequence in field order.  The
    text goes to ``<path>.tmp``, which is then renamed over ``path``, so a
    reader never sees a partial file.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([row[f] for f in fieldnames] if isinstance(row, Mapping) else row)
    os.replace(tmp, path)


@dataclass
class DistributionVector:
    """Exact or estimated law of a group-valued random variable."""

    group: FiniteGroup
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (self.group.order,):
            raise DomainError(
                f"probs has shape {self.probs.shape}, expected ({self.group.order},)"
            )
        if self.probs.min() < -PROB_SUM_ATOL:
            raise DomainError("negative probability entry")
        total = float(self.probs.sum())
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise DomainError(f"probabilities sum to {total}, not 1")

    def tv_to_uniform(self) -> float:
        return 0.5 * float(np.abs(self.probs - 1.0 / self.group.order).sum())

    def to_csv(self, path):
        write_csv(
            path,
            ["element", "probability"],
            ([self.group.element_name(i), f"{p:.17g}"] for i, p in enumerate(self.probs)),
        )


def uniform_vector(group: FiniteGroup) -> DistributionVector:
    return DistributionVector(group, np.full(group.order, 1.0 / group.order))


def _as_probs(p) -> np.ndarray:
    if isinstance(p, DistributionVector):
        return p.probs
    return np.asarray(p, dtype=float)


def tv_distance(p, q) -> float:
    """Total variation distance (half the L1 difference)."""
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.shape != qa.shape:
        raise DomainError("distributions live on different supports")
    return 0.5 * float(np.abs(pa - qa).sum())


def chi_distance(p, q) -> float:
    """L2 distance of p relative to a positive reference q; chi >= 2*TV."""
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.shape != qa.shape:
        raise DomainError("distributions live on different supports")
    if qa.min() <= 0.0:
        raise DomainError("chi distance needs a strictly positive reference")
    return float(np.sqrt(np.sum((pa - qa) ** 2 / qa)))


def linf_distance(p, group: FiniteGroup) -> float:
    """Uniform-relative sup distance: max_x | |G| * p(x) - 1 |."""
    pa = _as_probs(p)
    if pa.shape != (group.order,):
        raise DomainError("distribution does not match the group")
    return float(np.abs(pa * group.order - 1.0).max())
