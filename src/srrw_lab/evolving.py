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
translating masks through byte-wise lookup tables of the permutations
x -> g x.  Translates agree in exact arithmetic but not always in the last
float bit (the sums run in a different order), so every representative
within 1e-12 of the smallest is expanded to all its translates and these are
evaluated again: the minimum and its smallest-mask witness are then the
ones a sweep of all 2^|G| masks would report, bit for bit.
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
    gamma_gamma_inv_closure,
    transition_matrix,
)
from .streams import chunk_ranges

EXHAUSTIVE_CAP = 24


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


def _bit_indicators(masks: np.ndarray, n: int) -> np.ndarray:
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def _chunk_phi_psi(masks: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bottleneck ratio and root profile for a chunk of subset masks."""
    n = P.shape[0]
    X = _bit_indicators(masks, n)
    sizes = X.sum(axis=1)
    Q = X @ P
    inside = (X * Q).sum(axis=1)
    phi = (sizes - inside) / sizes
    qs = -np.sort(-Q, axis=1)
    qs = np.concatenate([qs, np.zeros((qs.shape[0], 1))], axis=1)
    sqrt_sizes = np.sqrt(np.arange(1, n + 1, dtype=float))
    exp_sqrt = ((qs[:, :-1] - qs[:, 1:]) * sqrt_sizes[None, :]).sum(axis=1)
    psi = 1.0 - exp_sqrt / np.sqrt(sizes)
    return sizes.astype(np.int64), phi, psi


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
    certified: bool

    def phi_at(self, r: float) -> float:
        if r < self.rs[0]:
            raise DomainError(f"r={r} below 1/|G|")
        i = int(np.searchsorted(self.rs, min(r, self.rs[-1]), side="right")) - 1
        return float(self.phi[i])

    def to_csv(self, path):
        write_csv(
            path,
            ["r", "phi", "psi", "phi_witness_mask", "psi_witness_mask"],
            (
                [f"{r:.17g}", f"{f:.17g}", f"{p:.17g}", hex(fw), hex(pw)]
                for r, f, p, fw, pw in zip(
                    self.rs, self.phi, self.psi, self.phi_witness, self.psi_witness
                )
            ),
        )


def _translation_luts(group: FiniteGroup) -> np.ndarray:
    """lut[g, b, v] is the mask of g * {8b + i : bit i of v} (left translation)."""
    n = group.order
    values = np.arange(256, dtype=np.int64)
    lut = np.zeros((n, (n + 7) // 8, 256), dtype=np.int64)
    for x in range(n):
        bit = (values >> (x % 8)) & 1
        lut[:, x // 8, :] |= bit[None, :] << group.table[:, x, None].astype(np.int64)
    return lut


def _translate(masks: np.ndarray, lut_g: np.ndarray) -> np.ndarray:
    out = lut_g[0][masks & 255]
    for b in range(1, lut_g.shape[0]):
        out |= lut_g[b][(masks >> (8 * b)) & 255]
    return out


def _orbit_representatives(lut: np.ndarray, lo: int, hi: int, chunk: int):
    """Chunks of one mask per translation orbit of subsets with lo <= |A| <= hi.

    A mask containing the identity (bit 0) is kept when it is <= every
    translate gA that also contains the identity, i.e. every a^-1 A, a in A.
    """
    n = lut.shape[0]
    for start, stop in chunk_ranges(1 << (n - 1), chunk):
        masks = (np.arange(start, stop, dtype=np.int64) << 1) | 1
        pops = np.bitwise_count(masks)
        masks = masks[(pops >= lo) & (pops <= hi)]
        for g in range(1, n):
            t = _translate(masks, lut[g])
            masks = masks[((t & 1) == 0) | (masks <= t)]
        yield masks


def _orbit_minima(
    group: FiniteGroup, P: np.ndarray, lo: int, hi: int, score, by_size: bool, chunk: int = 65536
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
    key_of = (lambda sizes: sizes) if by_size else (lambda sizes: np.zeros_like(sizes))
    nkeys = hi + 1 if by_size else 1

    reps = np.concatenate(list(_orbit_representatives(lut, lo, hi, chunk)))
    # an empty chunk still yields the (empty) objective arrays
    parts = [_chunk_phi_psi(reps[a:b], P) for a, b in chunk_ranges(reps.size, chunk) or [(0, 0)]]
    sizes, phi, psi = (np.concatenate(col) for col in zip(*parts))
    keys = key_of(sizes)
    vals = np.stack(score(phi, psi))
    rep_min = np.full((vals.shape[0], nkeys), np.inf)
    for j in range(vals.shape[0]):
        np.minimum.at(rep_min[j], keys, vals[j])
    near = reps[(vals <= rep_min[:, keys] + 1e-12).any(axis=0)]

    best = np.full_like(rep_min, np.inf)
    witness = np.zeros(rep_min.shape, dtype=np.int64)
    for start, stop in chunk_ranges(near.size, max(1, chunk // n)):
        masks = np.concatenate([_translate(near[start:stop], lut[g]) for g in range(n)])
        sizes, phi, psi = _chunk_phi_psi(masks, P)
        keys = key_of(sizes)
        for j, val in enumerate(score(phi, psi)):
            for key in np.unique(keys):
                sel = keys == key
                v = val[sel].min()
                w = masks[sel][val[sel] == v].min()
                if v < best[j, key] or (v == best[j, key] and w < witness[j, key]):
                    best[j, key], witness[j, key] = v, w
    return best, witness


def iso_profile(
    group: FiniteGroup,
    mu: StepDistribution,
    mode: str = "exhaustive",
    sample_rounds: int = 2000,
    sample_seed: int = 0,
    chunk: int = 65536,
) -> ProfileTable:
    """Isoperimetric profile Phi(r) and root profile psi(r).

    Exhaustive mode covers every subset with |A| <= |G|/2 (cap |G| <= 24),
    evaluating one per translation orbit plus the translates of near-minima;
    sampled mode explores random subsets plus greedy swaps and reports
    non-certified upper bounds.
    """
    n = group.order
    if n < 2:
        raise ParameterError(f"profiles need |G| >= 2, got {n}")
    P = transition_matrix(group, mu)
    half = n // 2
    best_phi = np.full(half + 1, np.inf)
    best_psi = np.full(half + 1, np.inf)
    wit_phi = [0] * (half + 1)
    wit_psi = [0] * (half + 1)

    def absorb(masks: np.ndarray):
        sizes, phi, psi = _chunk_phi_psi(masks, P)
        for s in np.unique(sizes):
            if s < 1 or s > half:
                continue
            sel = sizes == s
            i = int(np.argmin(np.where(sel, phi, np.inf)))
            if phi[i] < best_phi[s]:
                best_phi[s] = phi[i]
                wit_phi[s] = int(masks[i])
            j = int(np.argmin(np.where(sel, psi, np.inf)))
            if psi[j] < best_psi[s]:
                best_psi[s] = psi[j]
                wit_psi[s] = int(masks[j])

    if mode == "exhaustive":
        if n > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive profiles need |G| <= {EXHAUSTIVE_CAP}, got {n}"
            )
        best, wit = _orbit_minima(
            group, P, 1, half, lambda phi, psi: (phi, psi), by_size=True, chunk=chunk
        )
        best_phi, best_psi = best
        wit_phi, wit_psi = wit.tolist()
        certified = True
    elif mode == "sampled":
        rng = np.random.default_rng(np.random.SeedSequence(entropy=sample_seed))
        for s in range(1, half + 1):
            cand = np.empty(sample_rounds, dtype=np.int64)
            for i in range(sample_rounds):
                picks = rng.choice(n, size=s, replace=False)
                cand[i] = mask_of(picks)
            absorb(cand)
            # greedy single-swap descent from the current best phi witness
            cur = wit_phi[s]
            improved = True
            while improved and cur:
                improved = False
                members = list(set_of(cur))
                outside = [x for x in range(n) if not (cur >> x) & 1]
                trial = []
                for a in members:
                    for b in outside:
                        trial.append((cur ^ (1 << a)) | (1 << b))
                trial = np.array(trial, dtype=np.int64)
                before = best_phi[s]
                absorb(trial)
                if best_phi[s] < before:
                    cur = wit_phi[s]
                    improved = True
        certified = False
    else:
        raise ParameterError(f"unknown profile mode {mode!r}")

    # running minima make both profiles nonincreasing in r by construction
    rs = np.arange(1, half + 1, dtype=float) / n
    phi = np.minimum.accumulate(best_phi[1:])
    psi = np.minimum.accumulate(best_psi[1:])
    phi_w, psi_w = [], []
    cur_fw = wit_phi[1]
    cur_pw = wit_psi[1]
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
        certified=certified,
    )


def psi_phi_inequality_check(group: FiniteGroup, mu: StepDistribution) -> float:
    """Worst slack of psi(W) >= mu_0^2 Phi(W)^2 / (2 (1-mu_0)^2) over proper W.

    Requires |G| >= 2 and a lazy atom 0 < mu_0 = mu(e) < 1; returns min over
    all nonempty proper subsets of the left side minus the right side.
    """
    n = group.order
    if n < 2:
        raise ParameterError(f"the psi-phi inequality needs |G| >= 2, got {n}")
    mu0 = mu.prob(group.identity)
    if not 0.0 < mu0 < 1.0:
        raise DomainError("the psi-phi inequality needs 0 < mu(e) < 1")
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive check needs |G| <= {EXHAUSTIVE_CAP}")
    P = transition_matrix(group, mu)
    factor = mu0**2 / (2.0 * (1.0 - mu0) ** 2)
    best, _ = _orbit_minima(
        group, P, 1, n - 1, lambda phi, psi: (psi - factor * phi**2,), by_size=False
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
    n = group.order
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(f"exhaustive psi needs |G| <= {EXHAUSTIVE_CAP}")
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
        prod = {
            group.mul(w, group.mul(a, group.inv(b)))
            for w in W
            for a in mu.support
            for b in mu.support
        }
        witness_fixed = prod == set(W)
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
