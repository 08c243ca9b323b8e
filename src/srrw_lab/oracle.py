"""Brute-force ground truth for small walk lengths.

Everything here exhausts the (xi, u) sample space of the forest construction
(2^(n-1) * (n-1)! configurations) and integrates cluster spins exactly, so it
is an oracle for distributions and expectations that the Monte Carlo paths
and closed forms are tested against.  Capacity is capped at n <= 9, i.e.
about 10^7 configurations.

One enumerator, `_blocks`, walks the space: one block per xi pattern, with
the root labels of all u configurations at once.  The endpoint law and the
cluster events depend on a configuration only through its root-label
sequence, its forest, and there are only Bell(n) of those (203 at n = 6
against 3 840 configurations, 21 147 at n = 9 against about 10^7).  So the
weights are first summed per distinct sequence, and spins are integrated
once per sequence.  On Z_5 with the lazy-cycle walk at alpha = 1/2 (2-core
x86-64, BLAS at one thread) the endpoint law at n = 8 takes 0.6 s instead of
62 s once per configuration, and n = 9 takes 5-7 s.
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


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > ORACLE_N_CAP:
        raise CapacityError(
            f"exhaustive enumeration supports n <= {ORACLE_N_CAP}, got {n}"
        )
    return n


@dataclass
class EnumeratedForest:
    forest: ForestPath
    weight: float


def _blocks(n: int, alpha: float):
    """(weight, xi, u, labels) for every xi pattern of nonzero weight.

    xi runs in binary-reflected Gray-code order.  ``u`` is the (M, n-1)
    matrix of all M = (n-1)! u configurations in mixed-radix counting order,
    built once and shared by every block; ``labels`` holds their (M, n) root
    labels and ``weight`` is the probability of each single configuration.
    """
    m = n - 1
    configs = list(itertools.product(*[range(1, j) for j in range(2, n + 1)]))
    u = np.array(configs, dtype=np.int32).reshape(len(configs), m)
    w_u = 1.0 / math.factorial(n - 1)
    for code in range(1 << m):
        gray = code ^ (code >> 1)
        xi = np.array([(gray >> b) & 1 for b in range(m)], dtype=bool)
        k = int(xi.sum())
        w = (alpha**k) * ((1.0 - alpha) ** (m - k)) * w_u
        if w == 0.0:
            continue
        yield w, xi, u, batch_root_labels(np.broadcast_to(xi, u.shape), u)


def _forest_weights(n: int, alpha: float):
    """Distinct root-label sequences (rows, lexicographically sorted) and their weights.

    The walk law and every cluster event depend on a configuration only
    through its root labels, and there are Bell(n) distinct sequences.
    """
    # labels lie in 1..n, so base-(n+1) digits make a key that sorts like the row
    place = (n + 1) ** np.arange(n - 1, -1, -1)
    keys, seqs, weights = [], [], []
    for w, _xi, _u, labels in _blocks(n, alpha):
        key, first, count = np.unique(labels @ place, return_index=True, return_counts=True)
        keys.append(key)
        seqs.append(labels[first])
        weights.append(w * count)
    _, first, inverse = np.unique(np.concatenate(keys), return_index=True, return_inverse=True)
    return np.concatenate(seqs)[first], np.bincount(inverse, weights=np.concatenate(weights))


def enumerate_forests(n: int, alpha: float):
    """Every (xi, u) configuration exactly once, with its probability.

    xi runs in binary-reflected Gray-code order (outer), u in mixed-radix
    counting order (inner); the stream is never materialized.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    for w, xi, u, labels in _blocks(n, alpha):
        for u_row, label_row in zip(u, labels):
            yield EnumeratedForest(
                ForestPath(n=n, alpha=alpha, xi=xi, u=u_row, labels=label_row), w
            )


def enumeration_weight_sum(n: int, alpha: float) -> float:
    """Correctly rounded sum of all enumeration weights (should be 1)."""
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    return math.fsum(w * len(u) for w, _xi, u, _labels in _blocks(n, alpha))


# ---------------------------------------------------------------------------
# Exact endpoint distribution
# ---------------------------------------------------------------------------


def exact_endpoint_distribution(
    group: FiniteGroup,
    mu: StepDistribution,
    alpha: float,
    n: int,
    spin_cap: int = SPIN_CAP,
) -> DistributionVector:
    """P(S_n = .) as the exact mixture over forests and spins.

    The law given the configuration depends only on its root-label sequence,
    so spins are integrated once per distinct sequence, with the summed
    weight of its configurations.  Spins of singleton clusters are
    integrated analytically through P_mu; only non-singleton cluster roots
    are enumerated (at most |support|^(#big clusters) <= spin_cap
    combinations per forest).
    """
    if group.order > TABLE_CAP:
        raise CapacityError(f"oracle needs group order <= {TABLE_CAP}")
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    P = transition_matrix(group, mu)
    support = np.array(mu.support, dtype=np.int64)
    sup_probs = np.array([p for _, p in mu.items])
    nsup = support.size
    idx = np.arange(group.order)
    # permutation realizing right-multiplication by each support element
    perm = np.vstack(
        [group.mul_vec(idx, np.full(group.order, group.inv(int(g)))) for g in support]
    )

    laws = []
    delta = np.zeros(group.order)
    delta[group.identity] = 1.0

    combo_cache: dict[int, tuple] = {}

    def combos(B: int):
        got = combo_cache.get(B)
        if got is None:
            ids = np.array(list(itertools.product(range(nsup), repeat=B)), dtype=np.int64)
            if B == 0:
                ids = ids.reshape(1, 0)
            wts = np.prod(sup_probs[ids], axis=1) if B else np.ones(1)
            got = (ids, wts)
            combo_cache[B] = got
        return got

    for labels, weight in zip(*_forest_weights(n, alpha)):
        sizes = np.bincount(labels, minlength=n + 1)
        big_roots = [r for r in range(1, n + 1) if sizes[r] >= 2]
        B = len(big_roots)
        if nsup**B > spin_cap:
            raise CapacityError(
                f"spin enumeration needs |support|^big <= {spin_cap}, got {nsup}**{B}"
            )
        root_pos = {r: i for i, r in enumerate(big_roots)}
        ids, wts = combos(B)
        V = np.tile(delta, (ids.shape[0], 1))
        for j in range(1, n + 1):
            root = int(labels[j - 1])
            pos = root_pos.get(root)
            if pos is None:
                V = V @ P
            else:
                V = np.take_along_axis(V, perm[ids[:, pos]], axis=1)
        laws.append(weight * (wts @ V))
    # one correctly rounded sum per cell over the distinct forests
    return DistributionVector(group, np.array([math.fsum(c) for c in np.stack(laws, axis=1)]))


def exact_tv_curve(group: FiniteGroup, mu: StepDistribution, alpha: float, n_max: int):
    """Exact TV distance to uniform for n = 1..n_max (returns a DistanceCurve)."""
    from .metrics import DistanceCurve

    n_max = _check_n(n_max)
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
    """E I(n) by exhausting the sample space (one batch per xi pattern)."""
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    isolated, mass = [], []
    for w, _xi, u, labels in _blocks(n, alpha):
        # cluster sizes of all configurations at once: one bincount slot per (row, root)
        slots = labels + (n + 1) * np.arange(len(u))[:, None]
        isolated.append(w * np.count_nonzero(np.bincount(slots.ravel()) == 1))
        mass.append(w * len(u))
    # the total mass is 1 up to the rounding of the 1/(n-1)! every weight shares
    return math.fsum(isolated) / math.fsum(mass)


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
