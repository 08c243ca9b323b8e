"""Percolated random recursive trees and their cluster statistics.

A forest on vertices 1..n is determined by retention bits ``xi_j`` and
uniform parent choices ``u_j`` (j = 2..n).  Vertex j joins the cluster of
``u_j`` when ``xi_j = 1`` and starts its own cluster otherwise; the cluster
root is the smallest label, and root labels never change as the forest
grows.  Everything downstream (walk laws, Fourier coefficients, mixing
estimates) consumes only root labels and cluster sizes, so forests are
stored as flat arrays.

The streaming evolution, ``evolve_size_histograms``, keeps per vertex slot
the time of its cluster root (time-major) and per root slot the cluster size
mod a modulus (replica-major, see ``EvolveState``).  It records the residue
each step reads and advances the size histogram from those records only at
grid times and at the end of each RNG block of 16 steps.  A block's parent
slots are formed in its uniforms' own buffer, a step allocates nothing, and
at 2048 replicas a block's buffers take about 0.3 MB, well inside a per-core
L2 cache.  A resumed pass owns the state it is given and grows its root
times in place.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import special
from .errors import ParameterError
from .special import _check_alpha


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

    def cluster_sizes_at(self, t: int | None = None) -> np.ndarray:
        """Cluster size per root at time t (index = root vertex, 0 unused)."""
        t = self.n if t is None else t
        return np.bincount(self.labels[:t], minlength=self.n + 1)

    def roots(self) -> np.ndarray:
        sizes = self.cluster_sizes_at()
        return np.nonzero(sizes[1:])[0] + 1


def forest_from_choices(xi, u, alpha: float = 0.0) -> ForestPath:
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
    return ForestPath(n=n, alpha=float(alpha), xi=xi, u=u, labels=labels)


def grow_forest(n: int, alpha: float, rng: np.random.Generator) -> ForestPath:
    """Sample a forest of size n with retention probability alpha."""
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    xi, u = sample_batch_choices(n, alpha, 1, rng)
    labels = batch_root_labels(xi, u)[0]
    return ForestPath(n=n, alpha=alpha, xi=xi[0], u=u[0], labels=labels)


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
# The Monte Carlo draw: one uniform per vertex (stream layout v2)
# ---------------------------------------------------------------------------

STREAM_LAYOUT = 2  # version of the draw rule and draw order; bumped when either changes
RNG_BLOCK = 16  # steps drawn per RNG call in the evolution; sets memory only


def _parent_offsets(U: np.ndarray, alpha: float, j, xi: np.ndarray, count=1, own=None) -> None:
    """Fill the ``xi`` of ``choices_from_uniforms`` and leave ``v``, or ``v * count + own``, in ``U``.

    v = floor(min((U / alpha) * (j - 1), j - 1)) is u - xi: u - 1 for a
    retained vertex and j - 1 for a fresh one.  ``U`` keeps its float64,
    which holds every integer below 2**53 exactly.
    """
    np.less(U, alpha, out=xi)
    if alpha > 0.0:
        with np.errstate(over="ignore"):  # U / alpha may overflow; the clamp bounds it
            np.divide(U, alpha, out=U)
            np.multiply(U, j - 1, out=U)
        np.minimum(U, j - 1, out=U)
        np.floor(U, out=U)
    else:
        U[...] = j - 1
    if own is not None:
        U *= count
        U += own


def choices_from_uniforms(U: np.ndarray, alpha: float, j) -> tuple[np.ndarray, np.ndarray]:
    """Retention bits and parent choices of vertices ``j`` from one uniform each.

    ``xi = U < alpha`` and ``u = 1 + floor((U / alpha) * (j - 1))``; ``j``
    broadcasts against ``U``, and ``U`` is overwritten.  Given ``xi``,
    ``U / alpha`` is uniform on [0, 1), so u is uniform on 1..j-1 up to a
    float bias of order j 2^-53.  The product is clamped at j - 1, which
    never binds for a retained vertex: U < alpha gives fl(U / alpha) <=
    1 - 2^-53, so fl(fl(U / alpha) * (j - 1)) < j - 1.  The clamp maps only
    fresh vertices, and U / alpha overflowing at tiny alpha, to j - 1; a
    fresh vertex gets u = j - 1, which no forest reads.  At alpha = 0 every
    vertex is fresh and nothing is divided.
    """
    xi = np.empty(U.shape, dtype=bool)
    _parent_offsets(U, alpha, j, xi)
    u = U.astype(np.intp)
    u += xi
    return xi, u


def sample_batch_choices(n: int, alpha: float, count: int, rng: np.random.Generator):
    """Draw (xi, u), each of shape (count, n-1), for vertices 2..n of `count` forests.

    The uniforms are drawn replica-major, one per vertex
    (see ``choices_from_uniforms``).
    """
    U = rng.random((count, n - 1))
    xi, u = choices_from_uniforms(U, alpha, np.arange(2, n + 1))
    return xi, u.astype(np.int32)


# ---------------------------------------------------------------------------
# Streaming evolution: cluster-size histograms (mod M) along a time grid
# ---------------------------------------------------------------------------


def _time_dtype(horizon: int):
    return np.int16 if horizon < 2**15 else np.int32


def _residue_dtype(modulus: int):
    return np.int8 if modulus <= 128 else np.int16 if modulus <= 2**15 else np.int32


def state_nbytes(count: int, horizon: int, modulus: int) -> int:
    """Bytes of the root times and residues of `count` forests grown to `horizon`."""
    per_slot = np.dtype(_time_dtype(horizon)).itemsize
    if modulus != 2:
        per_slot += np.dtype(_residue_dtype(modulus)).itemsize
    return (horizon + 1) * count * per_slot


def buffer_nbytes(count: int, horizon: int, modulus: int) -> int:
    """Bytes ``evolve_size_histograms`` holds besides the state: histogram and buffers.

    Per replica: the histogram; the float offset of its slots; two index
    vectors; the gathered root time; an int16 tally for advancing the
    histogram; and per step of an RNG block a uniform, which becomes the
    parent slot, a retention bit and the parity or residue read.  At
    modulus 2 the index vectors are the replica and its root slot, and a
    replica also holds the signed root slot read.  Above, they are the
    replica's residue row and an index cell for the successor lookup; a
    replica also holds its histogram row offset, and per step the parent
    slot as intp and the residue written; the pass holds the successor
    table, one residue per residue.  It allocates nothing else that grows
    with `count` or `modulus`.
    """
    time = np.dtype(_time_dtype(horizon)).itemsize
    residue = np.dtype(_residue_dtype(modulus)).itemsize
    per_step = 8 + 1 + residue
    per_replica = 8 * modulus + 8 + 2 * 8 + time + 2
    if modulus == 2:
        return count * (per_replica + time + RNG_BLOCK * per_step)
    per_replica += 8
    per_step += 8 + residue
    return count * (per_replica + RNG_BLOCK * per_step) + modulus * residue


@dataclass
class EvolveState:
    """`count` forests grown to time ``t`` by ``evolve_size_histograms``.

    ``root_time`` is time-major: slot ``t' * count + r`` holds the time of the
    cluster root of vertex t' of replica r.  At modulus 2 a root's own slot
    holds minus its time while its cluster has odd size, and ``residue`` is
    empty.  Above, ``residue`` is replica-major, shape (count, horizon + 1):
    ``residue[r, t']`` is, at a root's time t', the size of that root's
    cluster mod the modulus, so a root's residue sits at ``root_time + r *
    (horizon + 1)`` of the flat array.  ``histo`` is the histogram at time
    t: a pass advances it at grid times and at the ends of its 16-step
    blocks only, so it is current whenever ``collect`` sees it and when the
    pass returns.  ``rng`` is the generator, positioned after the uniforms
    of times 2..t.  A pass that resumes the state owns it: nothing else may
    reference its root times.
    """

    t: int
    root_time: np.ndarray
    residue: np.ndarray
    histo: np.ndarray
    rng: np.random.Generator


def _extended(a: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    out = np.zeros(shape, dtype=dtype)
    out[tuple(map(slice, a.shape))] = a
    return out


def _add_moves(histo, read, xi, tally, bumped=None, cells=None, offsets=None) -> None:
    """Advance ``histo`` over steps that read root residues ``read`` and wrote ``bumped``.

    The arrays have a row per step and a column per replica.  Each step
    moves one cluster of its replica from residue s to s + 1; a fresh vertex
    reads residue 0 at its own slot, so it also adds the residue-0 cluster it
    moves.  At modulus 2, with c[r, s] the steps of replica r that read s,
    histo[r] gains (c[r, 1] - c[r, 0], c[r, 0] - c[r, 1]), and ``bumped`` is
    not read.  Above, ``cells`` (intp, shaped like ``read``) receives the
    flat histogram cells ``read + offsets`` and ``bumped + offsets``.  The
    per-replica sums go into the int16 ``tally``: they are at most the
    number of steps.
    """
    modulus = histo.shape[1]
    steps = read.shape[0]
    if modulus == 2:
        np.add.reduce(read, axis=0, dtype=np.int16, out=tally)  # c[:, 1]
        tally *= -2
        tally += steps  # c[:, 0] - c[:, 1]
        histo[:, 1] += tally
        histo[:, 0] -= tally
    elif modulus > 2:
        flat = histo.reshape(-1)
        np.add(read, offsets, out=cells)
        np.subtract.at(flat, cells.reshape(-1), 1)
        np.add(bumped, offsets, out=cells)
        np.add.at(flat, cells.reshape(-1), 1)
    np.add.reduce(xi, axis=0, dtype=np.int16, out=tally)
    np.subtract(steps, tally, out=tally)
    histo[:, 0] += tally


def evolve_size_histograms(
    alpha: float,
    grid: np.ndarray,
    modulus: int,
    count: int,
    rng: np.random.Generator | None,
    collect: Callable[[int, int, np.ndarray], None],
    state: EvolveState | None = None,
) -> EvolveState:
    """Grow `count` forests to max(grid), tracking cluster sizes mod `modulus`.

    At every grid time t, calls ``collect(grid_index, t, histo)`` where
    ``histo[r, s]`` counts clusters of replica r whose size is congruent to
    s mod `modulus`.  The histogram is all any consumer needs: conditional
    cycle Fourier coefficients depend on sizes mod L, and the odd cluster
    count for the hypercube reduction is the modulus-2 case.

    Vertex t of replica r takes the ((t - 2) * count + r)-th double of
    ``rng`` (time-major, one per vertex, see ``choices_from_uniforms``), so
    the forests at time t depend neither on the horizon nor on `RNG_BLOCK`,
    and a run to 2h is a run to h continued.  Returns the state at max(grid).
    Passing it back as ``state``, with ``rng`` None, continues those forests
    on the generator the state holds, collecting only at grid times after
    ``state.t``; the state is updated in place.  Its root times grow in
    place (``ndarray.resize``, a realloc) unless they widen from int16 to
    int32 at t = 2**15 or a profile or trace hook is set (``sys.setprofile``,
    ``sys.settrace``), and a state whose root times something else
    references, such as a view, is refused with ``ParameterError`` before
    any draw; where they are copied, a view keeps the old root times.
    Above modulus 2 the replica-major residues are copied into their longer
    rows.

    A step gathers each replica's root time and root residue and bumps the
    residue; at modulus 2 the residue is the sign of the root's own
    root-time slot, read as slot < 0 and bumped by negation.  The residues
    read are kept, and ``histo`` is advanced from them (``_add_moves``) only
    at grid times and at the end of each RNG block.  The buffers
    (``buffer_nbytes``) are allocated once per call, and a step fills them
    in place: its gathers write to buffers apart from their source arrays,
    in numpy's ``wrap`` mode, and take intp indices, so numpy neither
    copies ``out`` nor casts the indices.  A block's parent slots are
    formed in its uniforms' own float64 buffer (``_parent_offsets``); at
    modulus 2 a step casts its row into one intp vector per replica, and
    above, the block is cast once into an intp block whose spent rows then
    hold ``_add_moves``' cells.  Blocks are ``RNG_BLOCK`` = 16 steps: at
    2048 replicas and modulus 2 one block's buffers take about 0.3 MB, well
    inside a per-core L2 cache.
    """
    alpha = _check_alpha(alpha)
    grid = np.asarray(grid, dtype=np.int64)
    if grid.size == 0 or grid[0] < 1 or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be nonempty, strictly increasing, with min >= 1")
    horizon = int(grid[-1])
    new = state is None
    if new:
        histo = np.zeros((count, modulus), dtype=np.int64)
        state = EvolveState(1, np.empty(0, np.int8), np.empty((count, 0), np.int8), histo, rng)
    elif rng is not None or state.histo.shape != (count, modulus) or state.t > horizon:
        raise ParameterError(
            "a resumed evolution takes rng=None and the state's count and modulus,"
            " and cannot end before the state's time"
        )
    flip = modulus == 2  # the residue is the root slot's sign, else a lookup in `residue`
    slots, time_dtype = (horizon + 1) * count, _time_dtype(horizon)
    # a new state, int16 -> int32 at t = 2**15, or a profile or trace hook, under
    # which ndarray.resize's reference check counts one reference too many
    if state.root_time.dtype != time_dtype or sys.getprofile() or sys.gettrace():
        state.root_time = _extended(state.root_time, (slots,), time_dtype)
    else:
        try:  # realloc in place: no copy of the old slots beside them
            state.root_time.resize(slots)
        except ValueError as err:
            raise ParameterError("a resumed state's root times are referenced elsewhere") from err
    if not flip:
        state.residue = _extended(state.residue, (count, horizon + 1), _residue_dtype(modulus))
    root_time, histo = state.root_time, state.histo
    residue = state.residue.reshape(-1)
    grid_pos = {int(t): i for i, t in enumerate(grid) if new or t > state.t}
    if new:
        root_time[count : 2 * count] = -1 if flip else 1
        if not flip:
            state.residue[:, 1] = 1 % modulus
        histo[:, 1 % modulus] += 1
        if 1 in grid_pos:
            collect(grid_pos[1], 1, histo)
    # block buffers: uniforms, which become parent slots, retention bits, residues
    # read and, above modulus 2, the parent slots as intp and the residues written
    shape = (min(RNG_BLOCK, horizon - state.t), count)
    U, xi = np.empty(shape), np.empty(shape, dtype=bool)
    read = np.empty(shape, dtype=bool if flip else residue.dtype)
    own = np.arange(count, 2 * count, dtype=float)  # replica r's slot one time on
    root_t = np.empty(count, dtype=root_time.dtype)
    tally = np.empty(count, dtype=np.int16)
    if flip:
        rows = np.arange(count, dtype=np.intp)
        root = np.empty(count, dtype=np.intp)
        held = np.empty(count, dtype=root_time.dtype)
    else:
        parent = np.empty(shape, dtype=np.intp)
        bumped = np.empty(shape, dtype=residue.dtype)
        row_start = np.arange(0, count * (horizon + 1), horizon + 1)  # replica r's residue row
        succ = np.arange(modulus, dtype=residue.dtype)  # s -> s + 1 mod the modulus
        succ[:-1] += 1
        succ[-1] = 0
        cell = np.empty(count, dtype=np.intp)
        offsets = np.arange(0, count * modulus, modulus)  # replica r's histogram row

    def advance(lo, hi):
        # histo over the block's steps lo..hi-1; above modulus 2 their spent
        # parent rows hold the cells
        if flip:
            _add_moves(histo, read[lo:hi], xi[lo:hi], tally)
        else:
            _add_moves(histo, read[lo:hi], xi[lo:hi], tally, bumped[lo:hi], parent[lo:hi], offsets)

    t = state.t + 1
    while t <= horizon:
        steps = min(RNG_BLOCK, horizon + 1 - t)
        times = np.arange(t, t + steps)[:, None]
        U_b, xi_b = U[:steps], xi[:steps]
        state.rng.random(out=U_b)
        # the times go in as float here and as root times below, so that no
        # broadcast casts per element.  A retained vertex reads its parent's
        # slot, (u * count + r); a fresh one, whose offset is t - 1, reads its
        # own, which holds its own time and residue 0: a root of size 0
        _parent_offsets(U_b, alpha, times.astype(float), xi_b, count, own)
        if not flip:
            parent_b = parent[:steps]
            parent_b[...] = U_b
        block_rows = root_time[t * count : (t + steps) * count].reshape(steps, count)
        block_rows[:] = times.astype(root_time.dtype)
        done = 0  # the block's steps already in histo
        for i in range(steps):
            # the gathers write into buffers apart from their source, and
            # wrap (a no-op on these in-range indices) so that numpy fills
            # `out` directly; the spent parent slot becomes the root's slot
            if flip:
                root[...] = U_b[i]
            else:
                root = parent_b[i]
            root_time.take(root, out=root_t, mode="wrap")
            row = block_rows[i]
            if flip:
                np.abs(root_t, out=row)
                root[...] = row
                root *= count
                root += rows
                root_time.take(root, out=held, mode="wrap")
                np.less(held, 0, out=read[i])
                np.negative(held, out=held)
                root_time[root] = held
            else:
                row[...] = root_t
                root[...] = root_t
                root += row_start
                residue.take(root, out=read[i], mode="wrap")
                cell[...] = read[i]  # take would cast narrower indices to a fresh intp copy
                succ.take(cell, out=bumped[i], mode="wrap")
                residue[root] = bumped[i]
            if t + i in grid_pos:
                advance(done, i + 1)
                done = i + 1
                collect(grid_pos[t + i], t + i, histo)
        if done < steps:
            advance(done, steps)
        t += steps
    state.t = horizon
    return state
