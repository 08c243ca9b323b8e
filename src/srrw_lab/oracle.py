"""Brute-force ground truth for small walk lengths.

Everything here exhausts the (xi, u) sample space of the forest construction
(2^(n-1) * (n-1)! configurations) and integrates cluster spins exactly, so it
is an oracle for distributions and expectations that the Monte Carlo paths
and closed forms are tested against.  Capacity is capped at n <= 9, i.e.
about 10^7 configurations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dist import DistributionVector
from .errors import CapacityError, ParameterError
from .forest import ForestPath, _check_alpha, batch_root_labels
from .groups import FiniteGroup, StepDistribution, transition_matrix

ORACLE_N_CAP = 9
SPIN_CAP = 100_000
GROUP_CAP = 4096


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


def _labels_for(xi, u, n):
    """Root labels by the one-pass recursion (fast scalar path)."""
    labels = [0] * (n + 1)
    labels[1] = 1
    for j in range(2, n + 1):
        labels[j] = labels[u[j - 2]] if xi[j - 2] else j
    return labels


def enumerate_forests(n: int, alpha: float):
    """Every (xi, u) configuration exactly once, with its probability.

    xi runs in binary-reflected Gray-code order (outer), u in mixed-radix
    counting order (inner); the stream is never materialized.
    """
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    if n == 1:
        yield EnumeratedForest(
            ForestPath(
                n=1,
                alpha=alpha,
                xi=np.zeros(0, bool),
                u=np.zeros(0, np.int32),
                labels=np.ones(1, np.int32),
            ),
            1.0,
        )
        return
    m = n - 1
    u_ranges = [range(1, j) for j in range(2, n + 1)]
    log_u = -math.fsum(math.log(j - 1) for j in range(3, n + 1))
    for code in range(1 << m):
        gray = code ^ (code >> 1)
        xi = [(gray >> b) & 1 for b in range(m)]
        k = sum(xi)
        w = (alpha**k) * ((1.0 - alpha) ** (m - k)) * math.exp(log_u)
        if w == 0.0:
            continue
        xi_arr = np.array(xi, dtype=bool)
        for u in itertools.product(*u_ranges):
            labels = _labels_for(xi, u, n)
            forest = ForestPath(
                n=n,
                alpha=alpha,
                xi=xi_arr,
                u=np.array(u, dtype=np.int32),
                labels=np.array(labels[1:], dtype=np.int32),
            )
            yield EnumeratedForest(forest, w)


def enumeration_weight_sum(n: int, alpha: float) -> float:
    """Kahan-compensated sum of all enumeration weights (should be 1)."""
    total = 0.0
    comp = 0.0
    for ef in enumerate_forests(n, alpha):
        y = ef.weight - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


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

    Spins of singleton clusters are integrated analytically through P_mu;
    only non-singleton cluster roots are enumerated (at most
    |support|^(#big clusters) <= spin_cap combinations per forest).
    """
    if group.order > GROUP_CAP:
        raise CapacityError(f"oracle needs group order <= {GROUP_CAP}")
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

    total = np.zeros(group.order)
    comp = np.zeros(group.order)
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

    for ef in enumerate_forests(n, alpha):
        forest = ef.forest
        sizes = np.bincount(forest.labels, minlength=n + 1)
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
            root = int(forest.labels[j - 1])
            pos = root_pos.get(root)
            if pos is None:
                V = V @ P
            else:
                V = np.take_along_axis(V, perm[ids[:, pos]], axis=1)
        contrib = ef.weight * (wts @ V)
        # Kahan-compensated accumulation keeps 1e-10 guarantees over 1e7 terms
        y = contrib - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return DistributionVector(group, total)


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
# Exhaustive forest expectations (vectorized over the u space)
# ---------------------------------------------------------------------------


def _u_matrix(n: int) -> np.ndarray:
    configs = list(itertools.product(*[range(1, j) for j in range(2, n + 1)]))
    return np.array(configs, dtype=np.int32).reshape(len(configs), n - 1)


def oracle_expected_isolated(n: int, alpha: float) -> float:
    """E I(n) by exhausting the sample space (batched over u configurations)."""
    n = _check_n(n)
    alpha = _check_alpha(alpha)
    if n == 1:
        return 1.0
    m = n - 1
    U = _u_matrix(n)
    M = U.shape[0]
    rows = np.arange(M)
    total = 0.0
    comp = 0.0
    for mask in range(1 << m):
        xi_bits = [(mask >> b) & 1 for b in range(m)]
        k = sum(xi_bits)
        w = (alpha**k) * ((1.0 - alpha) ** (m - k))
        if w == 0.0:
            continue
        xi = np.broadcast_to(np.array(xi_bits, dtype=bool), (M, m))
        labels = batch_root_labels(xi, U)
        flat = labels.astype(np.int64) + rows[:, None] * (n + 1)
        occ = np.bincount(flat.ravel(), minlength=M * (n + 1)).reshape(M, n + 1)
        I_mean = float((occ == 1).sum(axis=1).mean())
        y = w * I_mean - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


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


def negative_correlation_check(alpha: float, n: int, m: int, K: float) -> NegativeCorrelationReport:
    """Exhaustively verify negative correlation of cluster-size indicators.

    For every forest prefix F_m and every nonempty subset J of its cluster
    roots, checks P(all j in J have |C_{j,n}| >= K | F_m) against the product
    of marginals (and likewise for the < K family), with probabilities from
    exhaustive suffix enumeration.
    """
    if n > 8:
        raise CapacityError("negative-correlation check supports n <= 8")
    if not 1 <= m < n:
        raise ParameterError("need 1 <= m < n")
    alpha = _check_alpha(alpha)

    def forests(lo: int, hi: int, base_xi, base_u):
        """All (xi, u) extensions for vertices lo..hi with conditional weights."""
        if lo > hi:
            yield base_xi, base_u, 1.0
            return
        for xi_tail in itertools.product((0, 1), repeat=hi - lo + 1):
            k = sum(xi_tail)
            w_xi = (alpha**k) * ((1.0 - alpha) ** (hi - lo + 1 - k))
            if w_xi == 0.0:
                continue
            w_u = 1.0
            for j in range(lo, hi + 1):
                w_u /= j - 1
            for u_tail in itertools.product(*[range(1, j) for j in range(lo, hi + 1)]):
                yield base_xi + list(xi_tail), base_u + list(u_tail), w_xi * w_u

    max_ge = -np.inf
    max_lt = -np.inf
    n_prefix = 0
    n_subsets = 0
    for pre_xi, pre_u, _pre_w in forests(2, m, [], []):
        n_prefix += 1
        pre_labels = _labels_for(pre_xi, pre_u, m)
        roots = sorted(set(pre_labels[1:]))
        R = len(roots)
        pos = {r: i for i, r in enumerate(roots)}
        # joint[mask] accumulates P(all indicators in mask are 1)
        joint_ge = np.zeros(1 << R)
        joint_lt = np.zeros(1 << R)
        for xi, u, w in forests(m + 1, n, list(pre_xi), list(pre_u)):
            labels = _labels_for(xi, u, n)
            sizes = [0] * (n + 1)
            for v in range(1, n + 1):
                sizes[labels[v]] += 1
            mask_ge = 0
            mask_lt = 0
            for r in roots:
                if sizes[r] >= K:
                    mask_ge |= 1 << pos[r]
                else:
                    mask_lt |= 1 << pos[r]
            # add w to every subset of the satisfied mask
            sub = mask_ge
            while True:
                joint_ge[sub] += w
                if sub == 0:
                    break
                sub = (sub - 1) & mask_ge
            sub = mask_lt
            while True:
                joint_lt[sub] += w
                if sub == 0:
                    break
                sub = (sub - 1) & mask_lt
        marg_ge = np.array([joint_ge[1 << i] for i in range(R)])
        marg_lt = np.array([joint_lt[1 << i] for i in range(R)])
        for mask in range(1, 1 << R):
            n_subsets += 1
            bits = [i for i in range(R) if mask >> i & 1]
            max_ge = max(max_ge, joint_ge[mask] - float(np.prod(marg_ge[bits])))
            max_lt = max(max_lt, joint_lt[mask] - float(np.prod(marg_lt[bits])))
    return NegativeCorrelationReport(
        alpha=alpha,
        n=n,
        m=m,
        K=K,
        max_violation_ge=float(max_ge),
        max_violation_lt=float(max_lt),
        prefixes=n_prefix,
        subsets_checked=n_subsets,
    )
