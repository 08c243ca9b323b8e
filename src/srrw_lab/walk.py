"""Step-reinforced random walk samplers.

Two equivalent constructions are implemented:

* the direct recursion -- each step either replicates a uniformly chosen
  past step (probability alpha) or draws fresh from mu;
* the forest construction -- grow a percolated recursive forest, give every
  cluster root an iid mu spin, and multiply spins in vertex order.

Walks always start at the identity.  Replica batches are vectorized across
replicas; a single path keeps its full step history because replication may
reference any past index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import DistributionVector
from .errors import ContractError, ParameterError
from .forest import ForestPath, batch_root_labels, grow_forest, sample_batch_choices
from .groups import FiniteGroup, StepDistribution, transition_matrix
from .special import _check_alpha
from .streams import chunk_ranges, stream


@dataclass
class WalkPath:
    group: FiniteGroup
    alpha: float
    steps: np.ndarray  # (n,) element indices X_1..X_n
    positions: np.ndarray  # (n+1,) element indices S_0..S_n
    seed: object = None

    @property
    def n(self) -> int:
        return self.steps.size

    def endpoint(self) -> int:
        return int(self.positions[-1])


class _MuSampler:
    """Inverse-CDF sampling over the support of mu (deterministic given the rng)."""

    def __init__(self, mu: StepDistribution):
        self.elements = np.array(mu.support, dtype=np.int64)
        probs = np.array([p for _, p in mu.items])
        self.cum = np.cumsum(probs)
        self.cum[-1] = 1.0  # guard against float dust at the top

    def draw(self, rng: np.random.Generator, size=None) -> np.ndarray:
        r = rng.random(size)
        return self.elements[np.searchsorted(self.cum, r, side="right")]


def _positions_from_steps(group: FiniteGroup, steps: np.ndarray) -> np.ndarray:
    pos = np.empty(steps.size + 1, dtype=np.int64)
    pos[0] = group.identity
    cur = group.identity
    for i, x in enumerate(steps):
        cur = group.mul(int(cur), int(x))
        pos[i + 1] = cur
    return pos


def sample_path_direct(
    group: FiniteGroup,
    mu: StepDistribution,
    alpha: float,
    n: int,
    rng: np.random.Generator,
    seed=None,
    forced_xi=None,
) -> WalkPath:
    """One SRRW path by the direct definition (replicate-or-fresh recursion).

    ``forced_xi`` is a test hook: a boolean sequence for steps 2..n that
    overrides the Bernoulli(alpha) draws.
    """
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    sampler = _MuSampler(mu)
    steps = np.empty(n, dtype=np.int64)
    steps[0] = sampler.draw(rng)
    for t in range(2, n + 1):
        replicate = (
            bool(forced_xi[t - 2]) if forced_xi is not None else rng.random() < alpha
        )
        if replicate:
            u = int(rng.integers(1, t))
            steps[t - 1] = steps[u - 1]
        else:
            steps[t - 1] = sampler.draw(rng)
    return WalkPath(
        group=group,
        alpha=alpha,
        steps=steps,
        positions=_positions_from_steps(group, steps),
        seed=seed,
    )


def sample_endpoints_direct(
    group: FiniteGroup,
    mu: StepDistribution,
    alpha: float,
    n: int,
    replicas: int,
    master_seed: int,
    chunk: int = 100_000,
) -> np.ndarray:
    """Endpoints S_n of `replicas` direct-construction walks (vectorized)."""
    alpha = _check_alpha(alpha)
    sampler = _MuSampler(mu)
    out = np.empty(replicas, dtype=np.int64)
    for ci, (start, stop) in enumerate(chunk_ranges(replicas, chunk)):
        rng = stream(master_seed, ci)
        R = stop - start
        rows = np.arange(R)
        X = np.empty((R, n + 1), dtype=np.int64)
        X[:, 1] = sampler.draw(rng, R)
        for t in range(2, n + 1):
            replicate = rng.random(R) < alpha
            u = rng.integers(1, t, size=R)
            fresh = sampler.draw(rng, R)
            X[:, t] = np.where(replicate, X[rows, u], fresh)
        S = np.full(R, group.identity, dtype=np.int64)
        for t in range(1, n + 1):
            S = group.mul_vec(S, X[:, t])
        out[start:stop] = S
    return out


def sample_path_forest(
    group: FiniteGroup,
    mu: StepDistribution,
    alpha: float,
    n: int,
    rng: np.random.Generator,
    seed=None,
):
    """One SRRW path via the forest construction.

    Returns (forest, spins, walk): ``spins`` maps each cluster root label to
    its element index, and the walk's step j is the spin of the cluster
    containing vertex j.
    """
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    forest = grow_forest(n, alpha, rng, seed=seed)
    sampler = _MuSampler(mu)
    roots = forest.roots()
    spin_values = sampler.draw(rng, roots.size)
    spins = {int(r): int(g) for r, g in zip(roots, spin_values)}
    return forest, spins, walk_from_forest(group, forest, spins, seed=seed)


def walk_from_forest(group: FiniteGroup, forest: ForestPath, spins: dict, seed=None) -> WalkPath:
    """Ordered product of root spins: step j is the spin of vertex j's cluster."""
    steps = np.array([spins[int(r)] for r in forest.labels], dtype=np.int64)
    return WalkPath(
        group=group,
        alpha=forest.alpha,
        steps=steps,
        positions=_positions_from_steps(group, steps),
        seed=seed,
    )


def sample_endpoints_forest(
    group: FiniteGroup,
    mu: StepDistribution,
    alpha: float,
    n: int,
    replicas: int,
    master_seed: int,
    chunk: int = 10_000,
) -> np.ndarray:
    """Endpoints of `replicas` forest-construction walks (vectorized)."""
    alpha = _check_alpha(alpha)
    sampler = _MuSampler(mu)
    out = np.empty(replicas, dtype=np.int64)
    for ci, (start, stop) in enumerate(chunk_ranges(replicas, chunk)):
        rng = stream(master_seed, ci)
        R = stop - start
        labels = batch_root_labels(*sample_batch_choices(n, alpha, R, rng))
        spins = sampler.draw(rng, (R, n + 1))  # spin per potential root 1..n
        rows = np.arange(R)[:, None]
        X = spins[rows, labels]
        S = np.full(R, group.identity, dtype=np.int64)
        for t in range(n):
            S = group.mul_vec(S, X[:, t])
        out[start:stop] = S
    return out


def conditional_kernel_product(
    group: FiniteGroup,
    mu: StepDistribution,
    forest: ForestPath,
    spins: dict,
) -> DistributionVector:
    """delta_e * P_1 ... P_n for the forest-induced kernel sequence.

    Steps in clusters with an assigned spin are deterministic (applied as a
    permutation in O(|G|)); steps in spin-free clusters must be isolated and
    use the Markov kernel P_mu.
    """
    P = transition_matrix(group, mu)
    sizes = forest.cluster_sizes_at()
    idx = np.arange(group.order)
    perm_cache: dict[int, np.ndarray] = {}

    v = np.zeros(group.order)
    v[group.identity] = 1.0
    for j in range(1, forest.n + 1):
        root = int(forest.labels[j - 1])
        if root in spins:
            g = spins[root]
            perm = perm_cache.get(g)
            if perm is None:
                # right-multiplication by g: new mass at y comes from y * g^-1
                perm = group.mul_vec(idx, np.full(group.order, group.inv(g)))
                perm_cache[g] = perm
            v = v[perm]
        else:
            if sizes[root] != 1:
                raise ContractError(
                    f"cluster rooted at {root} has size {sizes[root]} but no spin"
                )
            v = v @ P
    return DistributionVector(group, v)
