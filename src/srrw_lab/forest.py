"""Percolated random recursive trees and their cluster statistics.

A forest on vertices 1..n is determined by retention bits ``xi_j`` and
uniform parent choices ``u_j`` (j = 2..n).  Vertex j joins the cluster of
``u_j`` when ``xi_j = 1`` and starts its own cluster otherwise; the cluster
root is the smallest label, and root labels never change as the forest
grows.  Everything downstream (walk laws, Fourier coefficients, mixing
estimates) consumes only root labels and cluster sizes, so forests are
stored as flat arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import special
from .errors import ParameterError
from .special import _check_alpha
from .streams import chunk_ranges, stream


# ---------------------------------------------------------------------------
# Root labels (vectorized across replicas)
# ---------------------------------------------------------------------------


def batch_root_labels(xi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Root labels for a batch of forests via pointer doubling.

    ``xi`` and ``u`` have shape (R, n-1) and describe vertices 2..n of R
    forests.  Returns an (R, n) int32 array whose column j-1 is the root
    label of vertex j.  Pointer doubling needs O(log depth) passes, and a
    random recursive tree has depth O(log n).
    """
    xi = np.asarray(xi, dtype=bool)
    u = np.asarray(u, dtype=np.int32)
    if xi.shape != u.shape:
        raise ParameterError("xi and u must have identical shapes")
    R, nm1 = xi.shape
    n = nm1 + 1
    L = np.empty((R, n + 1), dtype=np.int32)
    L[:, 0] = 0
    L[:, 1] = 1
    js = np.arange(2, n + 1, dtype=np.int32)
    L[:, 2:] = np.where(xi, u, js[None, :])
    while True:
        L2 = np.take_along_axis(L, L, axis=1)
        if np.array_equal(L2, L):
            break
        L = L2
    return L[:, 1:]


# ---------------------------------------------------------------------------
# Single forest
# ---------------------------------------------------------------------------


@dataclass
class ForestPath:
    """One realization of the percolated random recursive tree."""

    n: int
    alpha: float
    xi: np.ndarray  # (n-1,) bool, vertex j=2..n
    u: np.ndarray  # (n-1,) int32, u_j uniform on [1, j-1]
    labels: np.ndarray  # (n,) int32, root label per vertex 1..n
    seed: object = None

    def cluster_sizes_at(self, t: int | None = None) -> np.ndarray:
        """Cluster size per root at time t (index = root vertex, 0 unused)."""
        t = self.n if t is None else t
        return np.bincount(self.labels[:t], minlength=self.n + 1)

    def roots(self) -> np.ndarray:
        sizes = self.cluster_sizes_at()
        return np.nonzero(sizes[1:])[0] + 1


def forest_from_choices(xi, u, alpha: float = 0.0, seed=None) -> ForestPath:
    """Deterministic test hook: build the forest for given (xi, u) sequences."""
    xi = np.asarray(xi, dtype=bool)
    u = np.asarray(u, dtype=np.int32)
    n = xi.size + 1
    if u.shape != (n - 1,):
        raise ParameterError("xi and u must both cover vertices 2..n")
    for j, uj in enumerate(u, start=2):
        if not 1 <= uj <= j - 1:
            raise ParameterError(f"u_{j} = {uj} out of range [1, {j - 1}]")
    labels = batch_root_labels(xi[None, :], u[None, :])[0]
    return ForestPath(n=n, alpha=float(alpha), xi=xi, u=u, labels=labels, seed=seed)


def grow_forest(n: int, alpha: float, rng: np.random.Generator, seed=None) -> ForestPath:
    """Sample a forest of size n with retention probability alpha."""
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    xi, u = sample_batch_choices(n, alpha, 1, rng)
    labels = batch_root_labels(xi, u)[0]
    return ForestPath(n=n, alpha=alpha, xi=xi[0], u=u[0], labels=labels, seed=seed)


# ---------------------------------------------------------------------------
# Cluster statistics
# ---------------------------------------------------------------------------


@dataclass
class ClusterStats:
    n: int
    alpha: float
    size_counts: dict  # k -> N_k(n), sparse
    isolated: int  # I(n) = N_1(n)
    cluster_count: int
    odd_count: int  # number of odd-size clusters
    y_n: float  # I(n)/n - (1-alpha)/(1+alpha)
    windows: dict  # (L, k) -> count of roots with L/(96k) <= |C| < L/(2k)
    blocks: dict  # m -> I^(m)(floor(n/m)*m)


def _block_count(forest: ForestPath, m: int) -> int:
    """Blocks {m(j-1)+1..mj} fully isolated in the forest at time floor(n/m)*m."""
    k = forest.n // m
    if k == 0:
        return 0
    T = k * m
    sizes_at_T = np.bincount(forest.labels[:T], minlength=forest.n + 2)
    isolated = sizes_at_T == 1  # a vertex v <= T is isolated iff its own label count is 1
    # vertex v is isolated iff it is a root (labels[v-1] == v) with size 1
    vert = np.arange(1, T + 1)
    iso_vertex = isolated[vert] & (forest.labels[:T] == vert)
    blocks = iso_vertex.reshape(k, m)
    return int(blocks.all(axis=1).sum())


def cluster_statistics(
    forest: ForestPath,
    windows: Iterable[tuple] = (),
    block_lengths: Iterable[int] = (),
) -> ClusterStats:
    """Exact cluster statistics of a forest (all O(n))."""
    sizes = forest.cluster_sizes_at()
    live = sizes[sizes > 0]
    counts = np.bincount(live)
    size_counts = {int(k): int(c) for k, c in enumerate(counts) if k > 0 and c > 0}
    isolated = size_counts.get(1, 0)
    odd = int(sum(c for k, c in size_counts.items() if k % 2 == 1))
    win = {}
    for L, k in windows:
        lo, hi = L / (96.0 * k), L / (2.0 * k)
        win[(L, k)] = int(((live >= lo) & (live < hi)).sum())
    blocks = {int(m): _block_count(forest, int(m)) for m in block_lengths}
    a = forest.alpha
    return ClusterStats(
        n=forest.n,
        alpha=a,
        size_counts=size_counts,
        isolated=isolated,
        cluster_count=int(live.size),
        odd_count=odd,
        y_n=isolated / forest.n - (1.0 - a) / (1.0 + a),
        windows=win,
        blocks=blocks,
    )


def expected_isolated_exact(n: int, alpha: float) -> float:
    """E I(n) = (1-alpha) n / (1+alpha) + 2 alpha n beta_n / (1+alpha)."""
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    b = special.beta_n(n, alpha)
    return (1.0 - alpha) * n / (1.0 + alpha) + 2.0 * alpha * n * b / (1.0 + alpha)


# ---------------------------------------------------------------------------
# Replica batches at a single time
# ---------------------------------------------------------------------------


def sample_batch_choices(n: int, alpha: float, count: int, rng: np.random.Generator):
    """Draw (xi, u), each of shape (count, n-1), for vertices 2..n of `count` forests."""
    xi = rng.random((count, n - 1)) < alpha
    u = rng.integers(1, np.arange(2, n + 1)[None, :], size=(count, n - 1)).astype(np.int32)
    return xi, u


def sample_cluster_size_counts(
    n: int,
    alpha: float,
    replicas: int,
    master_seed: int,
    k_max: int,
    chunk: int = 100,
):
    """Per-replica (N_1..N_k_max, odd-cluster count) at time n.

    Returns (counts, odd) with counts of shape (replicas, k_max) and odd of
    shape (replicas,).  Chunk ci of the replicas draws from RNG stream ci.
    """
    alpha = _check_alpha(alpha)
    counts = np.zeros((replicas, k_max), dtype=np.int64)
    odd = np.zeros(replicas, dtype=np.int64)
    for ci, (start, stop) in enumerate(chunk_ranges(replicas, chunk)):
        rng = stream(master_seed, ci)
        labels = batch_root_labels(*sample_batch_choices(n, alpha, stop - start, rng))
        for r in range(stop - start):
            sizes = np.bincount(labels[r])
            live = sizes[sizes > 0]
            ks = np.bincount(live, minlength=k_max + 1)
            counts[start + r] = ks[1 : k_max + 1]
            odd[start + r] = int((live % 2 == 1).sum())
    return counts, odd


# ---------------------------------------------------------------------------
# Streaming evolution: cluster-size histograms (mod M) along a time grid
# ---------------------------------------------------------------------------

RNG_BLOCK = 512  # steps of (xi, u) drawn per RNG call; part of the stream layout


def evolve_size_histograms(
    alpha: float,
    grid: np.ndarray,
    modulus: int,
    count: int,
    rng: np.random.Generator,
    collect: Callable[[int, int, np.ndarray], None],
) -> None:
    """Grow `count` forests to max(grid), tracking cluster sizes mod `modulus`.

    At every grid time t, calls ``collect(grid_index, t, histo)`` where
    ``histo[r, s]`` counts clusters of replica r whose size is congruent to
    s mod `modulus`.  The histogram is all any consumer needs: conditional
    cycle Fourier coefficients depend on sizes mod L (or 2L), and the odd
    cluster count for the hypercube reduction is the modulus-2 case.
    """
    alpha = _check_alpha(alpha)
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size == 0 or grid[0] < 1 or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be nonempty, strictly increasing, with min >= 1")
    horizon = int(grid[-1])
    # Time-major flat state: slot t * count + r is vertex t of replica r.
    # ``root_slot`` holds the slot of each vertex's cluster root and starts as
    # the vertex's own slot, so a fresh vertex already points at itself;
    # ``residue`` holds, at root slots, the cluster size mod `modulus`.
    slot_type = np.int32 if (horizon + 1) * count < 2**31 else np.int64
    root_slot = np.arange((horizon + 1) * count, dtype=slot_type)
    residue = np.zeros((horizon + 1) * count, dtype=np.int32)
    succ = (np.arange(1, modulus + 1) % modulus).astype(np.int32)
    histo = np.zeros((count, modulus), dtype=np.int64)
    histo_flat = histo.reshape(-1)
    rows = np.arange(count, dtype=np.int64)
    histo_rows = (rows * modulus).astype(np.int32)
    residue[count : 2 * count] = 1 % modulus
    histo[:, 1 % modulus] += 1
    grid_pos = {int(t): i for i, t in enumerate(grid)}
    if 1 in grid_pos:
        collect(grid_pos[1], 1, histo)
    t = 2
    while t <= horizon:
        t_hi = min(t + RNG_BLOCK, horizon + 1)
        nsteps = t_hi - t
        xi_blk = rng.random((nsteps, count)) < alpha
        u_blk = rng.integers(
            1, np.arange(t, t_hi, dtype=np.int64)[:, None], size=(nsteps, count)
        )
        # a fresh vertex reads its own slot, a retained one its parent's
        np.copyto(u_blk, np.arange(t, t_hi)[:, None], where=~xi_blk)
        u_blk *= count
        u_blk += rows
        xi_int = xi_blk.view(np.int8)
        for i in range(nsteps):
            tt = t + i
            root = root_slot.take(u_blk[i])
            root_slot[tt * count : (tt + 1) * count] = root
            r_old = residue.take(root)
            r_new = succ.take(r_old)
            residue[root] = r_new
            # a fresh root's slot held residue 0, so -xi leaves its row alone
            r_old += histo_rows
            histo_flat[r_old] -= xi_int[i]
            r_new += histo_rows
            histo_flat[r_new] += 1
            if tt in grid_pos:
                collect(grid_pos[tt], tt, histo)
        t = t_hi
