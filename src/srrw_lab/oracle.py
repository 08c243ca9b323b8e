"""Brute-force ground truth for small walk lengths.

Everything here sums over every forest of the construction and integrates
cluster spins exactly, so it is an oracle for the Monte Carlo paths and
closed forms, capped at n <= 9.  The endpoint law and the cluster events
depend on a configuration (xi, u) only through its root-label sequence,
its forest; `_forest_weights` builds the Bell(n) forests and their weights
directly (21 147 at n = 9, against 10^7 configurations), and spins are
integrated once per forest.  Forests with the same number B of clusters of
size >= 2 share their |support|^B spin combinations, so the endpoint law
walks them through the n vertices together, in batches of at most
``BATCH_BYTES`` (or of one forest): one Python step per vertex and batch,
not per vertex and forest.  On Z_5 with the lazy-cycle walk at alpha = 1/2
(shared 2-core x86-64, BLAS at one thread) the endpoint law takes 1.4-2.8 ms
at n = 6, 4-6 ms at n = 7, 23-37 ms at n = 8 and 0.16-0.26 s at n = 9,
against 8.5-22 ms, 25-50 ms, 0.14-0.21 s and 0.9-1.3 s one forest at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dist import DistributionVector
from .errors import CapacityError, ParameterError
from .forest import ForestPath, batch_root_labels
from .groups import TABLE_CAP, FiniteGroup, StepDistribution, transition_matrix
from .special import _check_alpha

ORACLE_N_CAP = 9
SPIN_CAP = 100_000
SPIN_BYTES_CAP = 1 << 30  # bytes ``exact_endpoint_distribution`` holds at once
BATCH_BYTES = 1 << 20  # a batch's stacked law matrices, gather index and result
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)  # forests on n <= ORACLE_N_CAP vertices


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > ORACLE_N_CAP:
        raise CapacityError(
            f"exhaustive enumeration supports n <= {ORACLE_N_CAP}, got {n}"
        )
    return n


def check_spin_cap(mu: StepDistribution, alpha: float, n: int) -> None:
    """Raise ``CapacityError`` if the spin integration at walk length n is too big.

    The oracle enumerates a spin in supp mu for each cluster of size >= 2.
    At 0 < alpha < 1 the forest that pairs (1, 2), (3, 4), ... has nonzero
    weight and floor(n/2) such clusters, at alpha = 1 the forest is one
    cluster and at alpha = 0 every cluster is a singleton, so the bound is
    reached and the count check against ``SPIN_CAP`` is exact.  The bytes
    held at once, bounded by ``SPIN_BYTES_CAP``, are the transition matrix,
    one law per forest of nonzero weight (one at alpha in {0, 1}) with their
    stacked copy, and a batch of law matrices with their gather index and
    result.  A batch holds at least the largest forest's three matrices,
    which the check counts, and grows to ``BATCH_BYTES`` only where the cap
    leaves that much room (``_batch_bytes``).
    """
    _batch_bytes(mu, alpha, n)


def _batch_bytes(mu: StepDistribution, alpha: float, n: int) -> int:
    """The bytes one batch of forests may hold, once ``check_spin_cap``'s checks pass."""
    big = 0 if alpha == 0.0 or n < 2 else 1 if alpha == 1.0 else n // 2
    if (nsup := len(mu.support)) ** big > SPIN_CAP:
        raise CapacityError(
            f"the oracle's spin enumeration needs |support|^(clusters of size >= 2)"
            f" <= {SPIN_CAP}, got {nsup}**{big} at n = {n}, alpha = {alpha}"
        )
    forests = 1 if alpha in (0.0, 1.0) else BELL[n]
    order = mu.group.order
    fixed = 8 * order * (order + 2 * forests)
    if (nbytes := fixed + 8 * order * 3 * nsup**big) > SPIN_BYTES_CAP:
        raise CapacityError(
            f"the oracle's spin integration holds {nbytes} bytes at n = {n},"
            f" alpha = {alpha}, over the cap of {SPIN_BYTES_CAP}"
        )
    return min(BATCH_BYTES, SPIN_BYTES_CAP - fixed)


@dataclass
class EnumeratedForest:
    forest: ForestPath
    weight: float


def _pattern_weights(n: int, alpha: float) -> list[float]:
    """Probability of one (xi, u) configuration whose xi has k ones, for k = 0..n-1."""
    w_u = 1.0 / math.factorial(n - 1)
    return [(alpha**k) * ((1.0 - alpha) ** (n - 1 - k)) * w_u for k in range(n)]


def _forest_weights(n: int, alpha: float):
    """Distinct root-label sequences (rows, lexicographically sorted) and their weights.

    Vertex j joins the cluster of root r with probability
    alpha * |C_r| / (j-1), through |C_r| of its j-1 choices of u, or is a
    fresh root with probability 1 - alpha, through any u.  So the Bell(n)
    sequences grow one vertex at a time, a row's children appending its
    roots in ascending order and then j, and each row's weight is its exact
    count of configurations times the probability of one.
    """
    seqs = np.ones((1, 1), dtype=np.int32)
    count = np.ones(1, dtype=np.int64)  # configurations giving each sequence
    for j in range(2, n + 1):
        ways = (seqs[:, :, None] == np.arange(1, j + 1)).sum(axis=1)
        ways[:, -1] = j - 1
        row, col = np.nonzero(ways)
        count = count[row] * ways[row, col]
        seqs = np.column_stack([seqs[row], (col + 1).astype(np.int32)])
    joins = np.count_nonzero(seqs != np.arange(1, n + 1), axis=1)
    weights = np.array(_pattern_weights(n, alpha))[joins] * count
    keep = weights != 0.0
    return seqs[keep], weights[keep]


def enumerate_forests(n: int, alpha: float):
    """Every (xi, u) configuration of nonzero probability exactly once, with it.

    xi in binary counting order, each with all u (mixed-radix order) labelled
    at once: the raw sample space the forest weights are tested against.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    m = n - 1
    configs = list(itertools.product(*[range(1, j) for j in range(2, n + 1)]))
    u = np.array(configs, dtype=np.int32).reshape(len(configs), m)
    pattern_weights = _pattern_weights(n, alpha)
    for code in range(1 << m):
        xi = np.array([(code >> b) & 1 for b in range(m)], dtype=bool)
        w = pattern_weights[int(xi.sum())]
        if w == 0.0:
            continue
        labels = batch_root_labels(np.broadcast_to(xi, u.shape), u)
        for u_row, label_row in zip(u, labels):
            yield EnumeratedForest(
                ForestPath(n=n, alpha=alpha, xi=xi, u=u_row, labels=label_row), w
            )


def enumeration_weight_sum(n: int, alpha: float) -> float:
    """Correctly rounded sum of all enumeration weights (should be 1)."""
    return math.fsum(ef.weight for ef in enumerate_forests(n, alpha))


# ---------------------------------------------------------------------------
# Exact endpoint distribution
# ---------------------------------------------------------------------------


def exact_endpoint_distribution(
    group: FiniteGroup, mu: StepDistribution, alpha: float, n: int
) -> DistributionVector:
    """P(S_n = .) as the exact mixture over forests and spins.

    The law given the configuration depends only on its forest, so spins
    are integrated once per forest.  Spins of singleton clusters are
    integrated analytically through P_mu; only non-singleton cluster roots
    are enumerated, |support|^B combinations for a forest with B big
    clusters.  Forests with the same B share their combinations, so they
    are stacked into batches of at most ``_batch_bytes`` and walked through
    the n vertices together: a stacked ``V @ P`` for the forests whose
    vertex j is a singleton, one gather for the others.  ``check_spin_cap``
    bounds the spins, in count and in bytes, before any forest is enumerated.
    """
    if group.order > TABLE_CAP:
        raise CapacityError(f"oracle needs group order <= {TABLE_CAP}")
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    budget = _batch_bytes(mu, alpha, n)
    P = transition_matrix(group, mu)
    sup_probs = np.array([p for _, p in mu.items])
    nsup = sup_probs.size
    order = group.order
    # permutation realizing right-multiplication by each support element, as flat gather indices
    inv = np.array([group.inv(int(g)) for g in mu.support])[:, None]
    perm = group.mul(np.arange(order), inv).astype(np.intp)

    seqs, weights = _forest_weights(n, alpha)
    big = (seqs[:, :, None] == np.arange(1, n + 1)).sum(axis=1) >= 2
    nbig = big.sum(axis=1)
    # pos[f, j]: the rank of vertex j's root among forest f's big roots, -1 for a singleton
    pos = np.take_along_axis(np.where(big, np.cumsum(big, axis=1) - 1, -1), seqs - 1, axis=1)
    laws = []
    for B in range(n // 2 + 1):
        members = np.flatnonzero(nbig == B)
        if members.size == 0:  # the spin caps bound only the B that occur
            continue
        combos = list(itertools.product(range(nsup), repeat=B))
        ncombo = len(combos)
        ids = np.array(combos, dtype=np.int64).reshape(ncombo, B)
        wts = np.prod(sup_probs[ids], axis=1)
        # offset of each (combination, cell) row inside one forest's law matrix
        rows = np.arange(ncombo)[:, None] * order
        step = max(1, budget // (24 * ncombo * order))
        for start in range(0, members.size, step):
            f = members[start : start + step]
            V = np.zeros((f.size, ncombo, order))
            V[:, :, group.identity] = 1.0
            for j in range(n):
                p = pos[f, j]
                free = p < 0
                if free.all():
                    V = V @ P
                    continue
                if free.any():
                    V[free] = V[free] @ P
                s = np.flatnonzero(~free)
                gather = perm[ids.T[p[s]]]
                gather += rows + (s * (ncombo * order))[:, None, None]
                if free.any():
                    V[s] = V.take(gather)
                else:
                    V = V.take(gather)
            laws.append(weights[f, None] * (wts @ V))
    # one correctly rounded sum per cell over the distinct forests
    return DistributionVector(group, np.array([math.fsum(c) for c in np.concatenate(laws).T]))


def exact_tv_curve(group: FiniteGroup, mu: StepDistribution, alpha: float, n_max: int):
    """Exact TV distance to uniform for n = 1..n_max (returns a DistanceCurve)."""
    from .metrics import DistanceCurve

    n_max = _check_n(n_max)
    check_spin_cap(mu, _check_alpha(alpha), n_max)  # the largest n needs the most spins
    values = [
        exact_endpoint_distribution(group, mu, alpha, n).tv_to_uniform()
        for n in range(1, n_max + 1)
    ]
    return DistanceCurve(
        group_desc=group.describe(),
        alpha=alpha,
        estimator="exact",
        replicas=0,
        seed=None,
        ns=np.arange(1, n_max + 1),
        values=np.array(values),
        stderrs=np.zeros(n_max),
    )


# ---------------------------------------------------------------------------
# Exhaustive forest expectations
# ---------------------------------------------------------------------------


def oracle_expected_isolated(n: int, alpha: float) -> float:
    """E I(n) as the weighted count of singleton clusters over the distinct forests."""
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    seqs, weights = _forest_weights(n, alpha)
    sizes = (seqs[:, :, None] == np.arange(1, n + 1)).sum(axis=1)
    singletons = np.count_nonzero(sizes == 1, axis=1)
    # the total mass is 1 up to the rounding of the 1/(n-1)! every weight shares
    return math.fsum(weights * singletons) / math.fsum(weights)


# ---------------------------------------------------------------------------
# Negative-correlation verification
# ---------------------------------------------------------------------------


@dataclass
class NegativeCorrelationReport:
    alpha: float
    n: int
    m: int
    K: float
    max_violation_ge: float  # worst P(joint) - prod(marginals) for {>= K}
    max_violation_lt: float  # same for {< K}
    prefixes: int
    subsets_checked: int


def _worst_excess(masks: np.ndarray, probs: np.ndarray, R: int) -> float:
    """max over nonempty J of P(J within mask) - prod_{i in J} P(i in mask)."""
    joint = np.bincount(masks, weights=probs, minlength=1 << R)
    for i in range(R):  # superset sums: joint[J] becomes P(mask contains J)
        view = joint.reshape(-1, 2, 1 << i)
        view[:, 0] += view[:, 1]
    prod = np.ones(1 << R)
    for i in range(R):
        prod.reshape(-1, 2, 1 << i)[:, 1] *= joint[1 << i]
    return float((joint - prod)[1:].max())


def negative_correlation_check(alpha: float, n: int, m: int, K: float) -> NegativeCorrelationReport:
    """Exhaustively verify negative correlation of cluster-size indicators.

    For every forest F_m (a distinct prefix of m root labels) and every
    nonempty subset J of its cluster roots, checks P(all j in J have
    |C_{j,n}| >= K | F_m) against the product of marginals (and likewise for
    the < K family), with probabilities from the distinct root-label
    sequences of length n that extend F_m.
    """
    if n > 8:
        raise CapacityError("negative-correlation check supports n <= 8")
    if not 1 <= m < n:
        raise ParameterError("need 1 <= m < n")
    alpha = _check_alpha(alpha)
    seqs, weights = _forest_weights(n, alpha)
    # the rows are sorted, so the sequences extending one F_m are contiguous
    prefixes, starts = np.unique(seqs[:, :m], axis=0, return_index=True)
    ends = np.append(starts[1:], len(seqs))
    max_ge = max_lt = -np.inf
    n_subsets = 0
    for prefix, lo, hi in zip(prefixes, starts, ends):
        roots = np.unique(prefix)
        R = roots.size
        probs = weights[lo:hi] / weights[lo:hi].sum()
        sizes = (seqs[lo:hi, :, None] == roots).sum(axis=1)
        mask_ge = (sizes >= K) @ (1 << np.arange(R))
        max_ge = max(max_ge, _worst_excess(mask_ge, probs, R))
        max_lt = max(max_lt, _worst_excess(((1 << R) - 1) ^ mask_ge, probs, R))
        n_subsets += (1 << R) - 1
    return NegativeCorrelationReport(
        alpha=alpha,
        n=n,
        m=m,
        K=K,
        max_violation_ge=float(max_ge),
        max_violation_lt=float(max_lt),
        prefixes=len(prefixes),
        subsets_checked=n_subsets,
    )
