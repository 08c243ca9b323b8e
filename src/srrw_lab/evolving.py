"""Evolving-set processes, root profiles, and isoperimetric profiles.

The one-step law of an evolving set from W is piecewise constant in the
uniform threshold u: sorting the column loads Q(y) = sum_{x in W} K(x, y)
descending gives at most |G| breakpoints, so single-step laws, expected
sizes, and the root profile psi are all computed exactly (no sampling).
Subsets are bitmasks; exhaustive profiles are capped at |G| <= 24.

Exhaustive sweeps visit one subset per left-translation orbit.  The kernel
P(x, y) = mu(x^-1 y) satisfies P(gx, gy) = P(x, y), so Phi(gA) = Phi(A) and
psi(gA) = psi(A).  The representative of an orbit is the smallest mask that
contains the identity among its translates a^-1 A (a in A); it is found by
translating int32 masks through two lookup tables of x -> g x per g, one for
each half of the mask (ceil(|G|/2) <= 12 bits).  Masks use bits below 24,
so the table half that holds g^-1 sets bit 30 (``FLAG``) exactly when g A
misses the identity, and the orbit test is the one compare A <= g A.
Representatives are screened by cheaper formulas (``_chunk_screen``) that
agree with the exact kernel to a few ulps; every one within 1e-12 of the
smallest screened value is expanded to all its translates, and these go
through the exact kernel ``_chunk_phi_psi``.  Only that kernel decides:
translates, and subsets related by a symmetry of mu such as A and -A on a
cycle, tie in exact arithmetic but not always in the last float bit, so the
screened values could move a witness.  The minimum and its smallest-mask
witness are then the ones a sweep of all 2^|G| masks would report, bit for
bit.  Chunks of 4096 masks keep each float temporary at 4096 x |G| doubles
(0.7 MB at |G| = 21), inside a 2 MB per-core L2 cache.

Buffers live per sweep, not per block or chunk: the representative pass
fills block-sized mask halves, table lookups and flags in place, and both
kernels fill one chunk of indicators X and loads Q (``_Work``).  Fresh
temporaries of 0.1-0.7 MB per block, per g and per chunk let glibc's malloc
trim the heap top each time more than its trim threshold was free, and the
next pass faulted the pages back in, so a sweep's first call in a process
ran about 40% slower than later calls.  What is still allocated per pass is
the masks that survive each test (boolean indexing takes no ``out=``), one
uint8 unpacking of a chunk's bits and the exact stage's small per-mask
vectors.  The screen keeps per-key running minima and, per chunk, only the
representatives within 1e-12 of them, not every screened value: on S4 its
406 867 representatives' values and keys took about 10 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import write_csv
from .errors import CapacityError, DomainError, ParameterError
from .forest import ForestPath
from .groups import (
    FiniteGroup,
    StepDistribution,
    _product_set,
    gamma_gamma_inv_closure,
    transition_matrix,
)
from .streams import chunk_ranges

EXHAUSTIVE_CAP = 24
ORBIT_BLOCK = 1 << 16  # masks per block of the orbit-representative enumeration
FLAG = 1 << 30  # marks a translate that misses the identity; masks use bits < EXHAUSTIVE_CAP


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << int(e)
    return m


def set_of(mask: int) -> frozenset:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _column_loads(W, kernel: np.ndarray) -> np.ndarray:
    idx = sorted(int(x) for x in W)
    if not idx:
        raise DomainError("evolving-set computations need a nonempty W")
    return kernel[idx, :].sum(axis=0)


def evolving_step(W, kernel: np.ndarray, u: float) -> frozenset:
    """One threshold step: W' = {y : sum_{x in W} K(x, y) >= u}."""
    if not 0.0 < u < 1.0:
        raise ParameterError("u must lie in (0, 1)")
    W = frozenset(int(x) for x in W)
    if not W:
        return frozenset()
    Q = _column_loads(W, kernel)
    return frozenset(np.nonzero(Q >= u)[0].tolist())


def step_law(W, kernel: np.ndarray):
    """Exact one-step law as [(probability, next set)] via threshold intervals.

    The threshold u ~ Unif(0,1) lands in (v_{i+1}, v_i] with probability
    v_i - v_{i+1}, where v_1 > v_2 > ... are the distinct positive column
    loads, and then W_1 = {y : Q(y) >= u} = {y : Q(y) >= v_i}.  Needs a
    doubly stochastic kernel so that Q <= 1 everywhere.
    """
    W = frozenset(int(x) for x in W)
    if not W:
        return [(1.0, frozenset())]
    Q = _column_loads(W, kernel)
    order = np.argsort(-Q, kind="stable")
    qs = Q[order]
    law = []
    prev_v = 1.0
    acc: list[int] = []  # elements with Q strictly above the current value
    i = 0
    n = qs.size
    while i < n and qs[i] > 0.0:
        v = float(qs[i])
        p = prev_v - v
        if p > 0.0:
            # u in (v, prev_v] picks exactly the elements accumulated so far
            law.append((p, frozenset(acc)))
        while i < n and qs[i] == v:
            acc.append(int(order[i]))
            i += 1
        prev_v = v
    if prev_v > 0.0:
        law.append((prev_v, frozenset(acc)))
    total = math.fsum(p for p, _ in law)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"threshold intervals sum to {total}; kernel not stochastic?")
    return law


def expected_size_one_step(W, kernel: np.ndarray) -> float:
    """E|W_1| from the exact interval decomposition (martingale check)."""
    return math.fsum(p * len(s) for p, s in step_law(W, kernel))


def doob_consistency(W, kernel: np.ndarray) -> float:
    """sum_A (|A|/|W|) P(W_1 = A | W_0 = W); equals 1 for the Doob transform."""
    W = frozenset(int(x) for x in W)
    return math.fsum(p * len(s) / len(W) for p, s in step_law(W, kernel))


def complement_duality_check(group: FiniteGroup, kernel: np.ndarray, W0) -> float:
    """Exact match of complemented step law vs the step law from the complement.

    Returns the max probability discrepancy over all reachable sets; zero up
    to float dust when the kernel is doubly stochastic.
    """
    W0 = frozenset(int(x) for x in W0)
    full = frozenset(range(group.order))
    law_c = {}
    for p, s in step_law(W0, kernel):
        comp = full - s
        law_c[comp] = law_c.get(comp, 0.0) + p
    Wc = full - W0
    law_2 = {}
    for p, s in step_law(Wc, kernel):
        law_2[s] = law_2.get(s, 0.0) + p
    keys = set(law_c) | set(law_2)
    return max(abs(law_c.get(k, 0.0) - law_2.get(k, 0.0)) for k in keys)


def root_profile_psi(W, P_mu: np.ndarray) -> float:
    """psi(W) = 1 - E sqrt(|W_mu| / |W|), exactly via sorted thresholds."""
    W = frozenset(int(x) for x in W)
    if not W:
        raise DomainError("psi is undefined for the empty set")
    Q = _column_loads(W, P_mu)
    qs = np.sort(Q)[::-1]
    qs = np.append(qs, 0.0)
    sizes = np.sqrt(np.arange(1, qs.size))
    exp_sqrt = float(np.sum((qs[:-1] - qs[1:]) * sizes))
    return 1.0 - exp_sqrt / math.sqrt(len(W))


# ---------------------------------------------------------------------------
# Exhaustive profiles over bitmask subsets
# ---------------------------------------------------------------------------


class _Work:
    """Buffers of one sweep, allocated once and filled in place, and the steps
    both kernels share.

    X and Q hold the 0/1 indicators and the loads of a chunk of masks; sizes,
    phi, psi and sqrt_sizes hold one value per mask.
    """

    def __init__(self, rows: int, n: int):
        self.X = np.empty((rows, n))
        self.Q = np.empty((rows, n))
        self.sizes = np.empty(rows, dtype=np.int64)
        self.phi, self.psi, self.sqrt_sizes = np.empty((3, rows))

    def loads(self, masks: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fill the indicators X, the sizes and the loads Q = X P of masks; return X and Q."""
        m, size = masks.size, masks.dtype.itemsize
        X, Q = self.X[:m], self.Q[:m]
        le_bytes = masks.astype(f"<i{size}", copy=False).view(np.uint8).reshape(-1, size)
        np.copyto(X, np.unpackbits(le_bytes, axis=1, count=X.shape[1], bitorder="little"))
        np.bitwise_count(masks, out=self.sizes[:m])
        np.matmul(X, P, out=Q)
        return X, Q

    def ratios(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sizes, phi and psi of the chunk's m masks.

        phi and psi must hold the load inside A and E sqrt|W_1|; they become
        (|A| - inside) / |A| and 1 - E sqrt|W_1| / sqrt|A|.
        """
        sizes, phi, psi = self.sizes[:m], self.phi[:m], self.psi[:m]
        np.subtract(sizes, phi, out=phi)
        np.divide(phi, sizes, out=phi)
        np.divide(psi, np.sqrt(sizes, out=self.sqrt_sizes[:m]), out=psi)
        np.subtract(1.0, psi, out=psi)
        return sizes, phi, psi


def _chunk_phi_psi(masks: np.ndarray, P: np.ndarray, work: _Work | None = None):
    """Bottleneck ratio and root profile for a chunk of subset masks.

    Returns (sizes, phi, psi) as views into ``work`` (fresh buffers if None).
    """
    m, n = masks.size, P.shape[0]
    if work is None:
        work = _Work(m, n)
    X, Q = work.loads(masks, P)
    np.multiply(X, Q, out=X)
    X.sum(axis=1, out=work.phi[:m])  # the load inside A
    # psi: E sqrt|W_1| sums (q_i - q_{i+1}) sqrt(i) over the loads q_1 >= ... >= q_n, q_{n+1} = 0
    Q.sort(axis=1)
    qs = Q[:, ::-1]
    np.subtract(qs[:, :-1], qs[:, 1:], out=X[:, :-1])
    X[:, -1] = qs[:, -1]
    X *= np.sqrt(np.arange(1, n + 1, dtype=float))
    X.sum(axis=1, out=work.psi[:m])
    return work.ratios(m)


@dataclass
class ProfileTable:
    """phi(r) and psi(r) with witness subsets, on r = s/|G| for s = 1..|G|/2."""

    group_desc: str
    order: int
    rs: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    phi_witness: list
    psi_witness: list
    certified: bool  # always True: every table is exact

    CSV_FIELDS = ("r", "phi", "psi", "phi_witness_mask", "psi_witness_mask")

    def phi_at(self, r: float) -> float:
        if r < self.rs[0]:
            raise DomainError(f"r={r} below 1/|G|")
        i = int(np.searchsorted(self.rs, min(r, self.rs[-1]), side="right")) - 1
        return float(self.phi[i])

    def csv_rows(self):
        """One mapping per r, keyed by ``CSV_FIELDS``."""
        cols = zip(self.rs, self.phi, self.psi, self.phi_witness, self.psi_witness)
        for r, f, p, fw, pw in cols:
            cells = (f"{r:.17g}", f"{f:.17g}", f"{p:.17g}", hex(fw), hex(pw))
            yield dict(zip(self.CSV_FIELDS, cells))

    def to_csv(self, path):
        write_csv(path, self.CSV_FIELDS, self.csv_rows())


def _translation_luts(group: FiniteGroup) -> np.ndarray:
    """lut[g, h, v] is the mask of g * {w h + i : bit i of v}, w = ceil(|G|/2) bits.

    Built by doubling: lut[g, h, v + 2^i] = lut[g, h, v] | lut[g, h, 2^i] for
    v < 2^i, one vectorised level per bit.  The half of lut[g] that holds g^-1
    also sets ``FLAG`` where bit g^-1 of v is clear, so a translate carries
    ``FLAG`` exactly when g A misses the identity, that is when g^-1 is not in
    A.  That half is the one whose full entry holds the identity, and there
    bit g^-1 of v is clear exactly when lut[g, h, v] misses the identity.
    """
    n = group.order
    w = (n + 1) // 2
    x = np.arange(n)
    lut = np.zeros((n, 2, 1 << w), dtype=np.int32)
    lut[:, x // w, 1 << (x % w)] = np.left_shift(1, group.table, dtype=np.int32)
    for i in range(w):
        lut[:, :, 1 << i : 2 << i] = lut[:, :, : 1 << i] | lut[:, :, 1 << i, None]
    # FLAG where bit 0 (the identity) is in the full entry but not in v's
    missing = lut ^ lut[:, :, -1:]
    missing &= 1
    missing *= FLAG
    lut |= missing
    return lut


def _flagged(masks: np.ndarray, lut_g: np.ndarray, half=None, out=None) -> np.ndarray:
    """The translates g A, with ``FLAG`` set where g A misses the identity.

    ``half`` (intp, one row) and ``out`` (int32, two rows) of at least
    masks.size entries are buffers to fill instead of fresh arrays; the
    translates land in out[0].  ``take`` needs intp indices, or it casts a
    copy of them.  Masks lie below 2^|G|, so each half indexes its table in
    range and ``mode="wrap"`` wraps nothing; it lets ``take`` write into
    ``out``, where the default mode fills a copy and writes it back, and it
    ran faster than ``mode="clip"``.
    """
    k = masks.size
    w = lut_g.shape[1].bit_length() - 1
    half = np.empty(k, dtype=np.intp) if half is None else half[:k]
    low, high = np.empty((2, k), dtype=np.int32) if out is None else out[:, :k]
    np.bitwise_and(masks, (1 << w) - 1, out=half)
    lut_g[0].take(half, out=low, mode="wrap")
    np.right_shift(masks, w, out=half)
    lut_g[1].take(half, out=high, mode="wrap")
    return np.bitwise_or(low, high, out=low)


def _translate(masks: np.ndarray, lut_g: np.ndarray, half=None, out=None, into=None) -> np.ndarray:
    """The translates g A, written into ``into`` if given; buffers as ``_flagged``."""
    return np.bitwise_and(_flagged(masks, lut_g, half, out), FLAG - 1, out=into)


def _orbit_representatives(lut: np.ndarray, lo: int, hi: int, block: int):
    """Blocks of one mask per translation orbit of subsets with lo <= |A| <= hi.

    A mask containing the identity (bit 0) is kept when it is <= every
    translate gA that also contains the identity, i.e. every a^-1 A, a in A.
    A translate that misses it carries ``FLAG``, above every mask, so the
    test is one compare.  Every pass fills buffers allocated once per call;
    only the masks that pass a test are a fresh array, so each yielded block
    is the caller's to keep.
    """
    n = lut.shape[0]
    size = min(block, 1 << (n - 1))
    odd = (np.arange(size, dtype=np.int32) << 1) | 1  # the block's masks
    pops = np.empty(size, dtype=np.uint8)
    keep = np.empty(size, dtype=bool)
    half = np.empty(size, dtype=np.intp)
    out = np.empty((2, size), dtype=np.int32)
    for start, stop in chunk_ranges(1 << (n - 1), block):
        m = stop - start
        # lo <= |A| <= hi as one compare: |A| - lo wraps above hi - lo in uint8
        np.subtract(np.bitwise_count(odd[:m], out=pops[:m]), lo, out=pops[:m])
        masks = odd[:m][np.less_equal(pops[:m], hi - lo, out=keep[:m])]
        odd += size << 1  # the next block's masks
        for g in range(1, n):
            k = masks.size
            masks = masks[np.less_equal(masks, _flagged(masks, lut[g], half, out), out=keep[:k])]
        yield masks


def _chunk_screen(masks: np.ndarray, P: np.ndarray, work: _Work):
    """Sizes and phi, psi within a few ulps of ``_chunk_phi_psi``, in fewer passes.

    psi sums the ascending loads times the weights sqrt(i) - sqrt(i-1),
    i = n..1, instead of the differences of the descending loads.  Returns
    views into ``work``.
    """
    m, n = masks.size, P.shape[0]
    roots = np.sqrt(np.arange(n, -1, -1, dtype=float))
    X, Q = work.loads(masks, P)
    np.einsum("ij,ij->i", X, Q, out=work.phi[:m])
    Q.sort(axis=1)
    np.matmul(Q, roots[:-1] - roots[1:], out=work.psi[:m])
    return work.ratios(m)


def _orbit_minima(
    group: FiniteGroup, P: np.ndarray, lo: int, hi: int, score, by_size: bool, chunk: int = 4096
) -> tuple[np.ndarray, np.ndarray]:
    """Minima of score(phi, psi) over every subset A with lo <= |A| <= hi.

    ``score`` returns a tuple of arrays, one per objective.  Minima are taken
    per size (``by_size``; key |A|) or over all sizes (key 0).  Returns
    ``(best, witness)`` of shape (objectives, keys): the float minimum and the
    smallest mask attaining it, exactly as a sweep over every mask in
    increasing order would give.  Keys without subsets keep (inf, 0).
    """
    n = group.order
    lut = _translation_luts(group)
    nkeys = hi + 1 if by_size else 1
    reps = np.concatenate(list(_orbit_representatives(lut, lo, hi, ORBIT_BLOCK)))

    batch = max(1, chunk // n)  # representatives whose translates fill a chunk
    work = _Work(max(chunk, batch * n), n)
    objectives = len(score(np.empty(0), np.empty(0)))
    rep_min = np.full((objectives, nkeys), np.inf)
    found = []  # per chunk: (masks, keys, values) within 1e-12 of the running minima
    for start, stop in chunk_ranges(reps.size, chunk):
        sizes, phi, psi = _chunk_screen(reps[start:stop], P, work)
        keys = sizes.copy() if by_size else np.zeros(stop - start, dtype=np.int64)
        vals = np.array(score(phi, psi))
        for j, val in enumerate(vals):
            np.minimum.at(rep_min[j], keys, val)
        near = (vals <= rep_min[:, keys] + 1e-12).any(axis=0)
        found.append((reps[start:stop][near], keys[near], vals[:, near]))
    # the running minima only fall, so the final ones keep a subset of each chunk's
    masks, keys, vals = (np.concatenate(parts, axis=-1) for parts in zip(*found))
    near = masks[(vals <= rep_min[:, keys] + 1e-12).any(axis=0)]

    # the exact kernel alone decides: translates of one orbit tie in exact
    # arithmetic, so screened values could move a witness
    best = np.full_like(rep_min, np.inf)
    witness = np.zeros(rep_min.shape, dtype=np.int64)
    translates = np.empty(batch * n, dtype=np.int64)  # np.minimum.at's fast path
    half, out = np.empty(batch, dtype=np.intp), np.empty((2, batch), dtype=np.int32)
    for start, stop in chunk_ranges(near.size, batch):
        k = stop - start
        masks = translates[: k * n]
        for g in range(n):
            _translate(near[start:stop], lut[g], half, out, masks[g * k : (g + 1) * k])
        sizes, phi, psi = _chunk_phi_psi(masks, P, work)
        keys = sizes if by_size else np.zeros_like(sizes)
        for j, val in enumerate(score(phi, psi)):
            # per key: the least value, then the smallest mask attaining it
            v = np.full(nkeys, np.inf)
            np.minimum.at(v, keys, val)
            hit = val == v[keys]
            w = np.full(nkeys, np.iinfo(np.int64).max)
            np.minimum.at(w, keys[hit], masks[hit])
            better = (v < best[j]) | ((v == best[j]) & (w < witness[j]))
            best[j, better], witness[j, better] = v[better], w[better]
    return best, witness


def check_exhaustive(group: FiniteGroup) -> None:
    """Raise unless an exhaustive subset sweep can run: 2 <= |G| <= ``EXHAUSTIVE_CAP``."""
    n = group.order
    if n < 2:
        raise ParameterError(f"exhaustive sweeps need |G| >= 2, got {n}")
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive sweeps need |G| <= {EXHAUSTIVE_CAP}, got {n}")


def iso_profile(
    group: FiniteGroup, mu: StepDistribution, mode: str = "exhaustive", chunk: int = 4096
) -> ProfileTable:
    """Isoperimetric profile Phi(r) and root profile psi(r), exactly.

    Covers every subset with |A| <= |G|/2, evaluating one per translation
    orbit plus the translates of near-minima; ``mode`` takes only
    "exhaustive".
    """
    check_exhaustive(group)
    if mode != "exhaustive":
        raise ParameterError(f"unknown profile mode {mode!r}")
    n = group.order
    half = n // 2
    P = transition_matrix(group, mu)
    best, wit = _orbit_minima(
        group, P, 1, half, lambda phi, psi: (phi, psi), by_size=True, chunk=chunk
    )
    best_phi, best_psi = best
    wit_phi, wit_psi = wit.tolist()

    # running minima make both profiles nonincreasing in r by construction
    rs = np.arange(1, half + 1, dtype=float) / n
    phi = np.minimum.accumulate(best_phi[1:])
    psi = np.minimum.accumulate(best_psi[1:])
    phi_w, psi_w = [], []
    cur_fw, cur_pw = wit_phi[1], wit_psi[1]
    for s in range(1, half + 1):
        if best_phi[s] <= phi[s - 1]:
            cur_fw = wit_phi[s]
        if best_psi[s] <= psi[s - 1]:
            cur_pw = wit_psi[s]
        phi_w.append(cur_fw)
        psi_w.append(cur_pw)
    return ProfileTable(
        group_desc=group.describe(),
        order=n,
        rs=rs,
        phi=phi,
        psi=psi,
        phi_witness=phi_w,
        psi_witness=psi_w,
        certified=True,
    )


def psi_phi_inequality_check(group: FiniteGroup, mu: StepDistribution) -> float:
    """Worst slack of psi(W) >= mu_0^2 Phi(W)^2 / (2 (1-mu_0)^2) over proper W.

    Requires ``check_exhaustive`` to pass and a lazy atom 0 < mu_0 = mu(e) < 1;
    returns min over all nonempty proper subsets of the left side minus the
    right side.
    """
    check_exhaustive(group)
    mu0 = mu.prob(group.identity)
    if not 0.0 < mu0 < 1.0:
        raise DomainError("the psi-phi inequality needs 0 < mu(e) < 1")
    P = transition_matrix(group, mu)
    factor = mu0**2 / (2.0 * (1.0 - mu0) ** 2)
    best, _ = _orbit_minima(
        group, P, 1, group.order - 1, lambda phi, psi: (psi - factor * phi**2,), by_size=False
    )
    return float(best[0, 0])


@dataclass
class GenerationReport:
    psi_half: float
    generates: bool
    equivalent: bool
    witness_mask: int | None  # a set with psi(W) = 0 and W * Gamma * Gamma^-1 = W
    witness_fixed: bool


def psi_positivity_vs_generation(group: FiniteGroup, mu: StepDistribution) -> GenerationReport:
    """Check psi(1/2) > 0 against the generation criterion on Gamma Gamma^-1.

    When psi(1/2) = 0, also produce a subset witness fixed by right
    multiplication with Gamma * Gamma^-1 (a union of cosets of the closure).
    """
    check_exhaustive(group)
    n = group.order
    P = transition_matrix(group, mu)
    closure = gamma_gamma_inv_closure(group, mu.support)
    generates = len(closure) == n

    best, wit = _orbit_minima(group, P, 1, n // 2, lambda phi, psi: (psi,), by_size=False)
    psi_half = float(best[0, 0])
    witness = int(wit[0, 0]) if psi_half < np.inf else None

    positive = psi_half > 1e-12
    witness_fixed = False
    if not positive and witness is not None:
        W = set_of(witness)
        ggi = _product_set(group, mu.support, [group.inv(b) for b in mu.support])
        witness_fixed = set(_product_set(group, W, ggi).tolist()) == W
    return GenerationReport(
        psi_half=psi_half,
        generates=generates,
        equivalent=(positive == generates),
        witness_mask=None if positive else witness,
        witness_fixed=witness_fixed,
    )


# ---------------------------------------------------------------------------
# Trajectories along forest-induced kernel sequences
# ---------------------------------------------------------------------------


def evolving_trajectory(
    forest: ForestPath,
    spins,
    group: FiniteGroup,
    mu: StepDistribution,
    rng: np.random.Generator,
    W0,
) -> np.ndarray:
    """Sizes |W_0|, ..., |W_n| of one evolving-set run along the forest kernels.

    Deterministic-spin steps translate the set (W -> W g, any threshold);
    isolated steps apply the exact threshold rule under P_mu.
    """
    P = transition_matrix(group, mu)
    sizes_by_root = forest.cluster_sizes_at()
    W = frozenset(int(x) for x in W0)
    out = np.empty(forest.n + 1, dtype=np.int64)
    out[0] = len(W)
    for j in range(1, forest.n + 1):
        root = int(forest.labels[j - 1])
        in_spins = (root in spins) if spins is not None else False
        u = float(rng.random())
        if u == 0.0:  # measure-zero endpoint excluded by the threshold rule
            u = 0.5
        if in_spins:
            g = spins[root]
            W = frozenset(group.mul(int(x), int(g)) for x in W)
        else:
            if sizes_by_root[root] != 1:
                raise DomainError(f"cluster at root {root} has no spin")
            if W:
                W = evolving_step(W, P, u)
        out[j] = len(W)
    return out
