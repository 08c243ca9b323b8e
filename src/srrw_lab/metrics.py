"""Distance curves, Monte Carlo estimators, spectral quantities, and
mixing-time extraction.

Every Monte Carlo estimator is a view over one pass, ``_forest_chunks``: it
grows the percolated forests in replica chunks, hands each grid time's
cluster-size histogram to the estimator's ``terms``, sums the returned terms
into per-grid arrays of the chunk and yields the chunks' arrays in chunk
order.  ``_forest_sums`` adds them up in that order; ``_forest_moments``
also merges the chunks' centred second moments pairwise, for the cycle
curve and the Fourier bound.  The estimator then
reduces those sums to values and delta-method stderrs.

The cycle estimator Rao-Blackwellizes over spins: conditionally on the
cluster sizes of the forest, the walk's Fourier coefficient at frequency k
is the product of cos(2 pi k |C|/L) over clusters, so averaging those exact
conditional laws over sampled forests kills all spin noise.  The hypercube
estimator reduces to the Hamming-weight marginal: conditionally on the
number of odd clusters m, the endpoint is a lazy coordinate-flip walk run
for m steps, whose weight law follows an Ehrenfest recursion; it is compared
with the Binomial(d, 1/2) law in exact integer arithmetic, and its stderr is
the spread of one scalar per observed m.  The module needs numpy only.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dist import write_csv
from .errors import CapacityError, DomainError, ParameterError
from .forest import evolve_size_histograms
from .groups import TABLE_CAP, FiniteGroup, StepDistribution, transition_matrix
from .streams import chunk_ranges, stream

# ---------------------------------------------------------------------------
# Curves and scan results
# ---------------------------------------------------------------------------


@dataclass
class DistanceCurve:
    group_desc: str
    alpha: float
    estimator: str
    replicas: int
    seed: int | None
    ns: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray

    CSV_FIELDS = ("seed", "group", "alpha", "estimator", "n", "value", "stderr", "replicas")

    def __post_init__(self):
        self.ns = np.asarray(self.ns, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        self.stderrs = np.asarray(self.stderrs, dtype=float)
        if self.ns.size == 0 or np.any(np.diff(self.ns) <= 0):
            raise ParameterError("curve grid must be nonempty and strictly increasing")
        if self.values.shape != self.ns.shape or self.stderrs.shape != self.ns.shape:
            raise ParameterError("values/stderrs must match the grid")

    def value_at(self, n: int) -> float:
        pos = np.searchsorted(self.ns, n)
        if pos >= self.ns.size or self.ns[pos] != n:
            raise ParameterError(f"n={n} not on the curve grid")
        return float(self.values[pos])

    def csv_rows(self):
        """One mapping per grid point, keyed by ``CSV_FIELDS``."""
        seed = "" if self.seed is None else int(self.seed)
        alpha = f"{self.alpha:.17g}"
        for n, v, se in zip(self.ns, self.values, self.stderrs):
            cells = (
                seed, self.group_desc, alpha, self.estimator,
                int(n), f"{v:.17g}", f"{se:.17g}", self.replicas,
            )
            yield dict(zip(self.CSV_FIELDS, cells))

    def to_csv(self, path):
        write_csv(path, self.CSV_FIELDS, self.csv_rows())


@dataclass
class MixingEstimate:
    epsilon: float
    t_mix: int
    horizon: int
    exceedances: list
    guard_triggered: bool

    def to_json_dict(self):
        return {
            "epsilon": self.epsilon,
            "t_mix": int(self.t_mix),
            "horizon": int(self.horizon),
            "exceedances": [int(x) for x in self.exceedances],
            "guard_triggered": bool(self.guard_triggered),
        }


def mixing_time_scan(curve: DistanceCurve, epsilon: float, horizon: int | None = None) -> MixingEstimate:
    """Operationalize the 'distance stays below epsilon for all later times' rule.

    Returns 1 + (largest grid n whose value exceeds epsilon), or 1 if the
    curve never exceeds it.  If an exceedance falls in the last 10% of the
    horizon the estimate cannot be trusted (the curve might rise again past
    the grid), so the guard flag is raised.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    horizon = int(curve.ns[-1]) if horizon is None else int(horizon)
    exceed = curve.ns[curve.values > epsilon]
    if exceed.size == 0:
        return MixingEstimate(epsilon, 1, horizon, [], False)
    guard = bool(exceed[-1] >= 0.9 * horizon)
    return MixingEstimate(epsilon, int(exceed[-1]) + 1, horizon, list(exceed), guard)


def geometric_grid(n_max: int, points_per_decade: int = 40, dense_upto: int = 16) -> np.ndarray:
    """Integer grid, exhaustive up to ``dense_upto`` then ~log-spaced."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    head = np.arange(1, min(dense_upto, n_max) + 1)
    if n_max <= dense_upto:
        return head
    decades = math.log10(n_max / dense_upto)
    count = max(2, int(math.ceil(decades * points_per_decade)))
    tail = np.unique(
        np.round(np.geomspace(dense_upto + 1, n_max, count)).astype(np.int64)
    )
    return np.unique(np.concatenate([head, tail, [n_max]]))


def smooth_curve(curve: DistanceCurve, bandwidth: float = 2.0) -> DistanceCurve:
    """Gaussian smoothing over grid index; presentation only, never pre-scan."""
    if bandwidth <= 0:
        raise ParameterError("bandwidth must be positive")
    idx = np.arange(curve.ns.size)
    w = np.exp(-0.5 * ((idx[:, None] - idx[None, :]) / bandwidth) ** 2)
    sm = (w @ curve.values) / w.sum(axis=1)
    return DistanceCurve(
        group_desc=curve.group_desc,
        alpha=curve.alpha,
        estimator=curve.estimator + "+smoothed",
        replicas=curve.replicas,
        seed=curve.seed,
        ns=curve.ns.copy(),
        values=sm,
        stderrs=curve.stderrs.copy(),
    )


@dataclass
class DecayFit:
    c: float
    rho: float
    r_squared: float
    points_used: int
    trimmed: int


def decay_rate_fit(curve: DistanceCurve, alpha: float, window: tuple | None = None) -> DecayFit:
    """Least-squares fit of log D(n) against (1 - alpha) * n.

    Nonpositive values inside the window are trimmed (and reported) since
    their logs are undefined; the model is D(n) ~ C * rho^((1-alpha) n).
    """
    ns = curve.ns
    vals = curve.values
    if window is not None:
        lo, hi = window
        keep = (ns >= lo) & (ns <= hi)
        ns, vals = ns[keep], vals[keep]
    positive = vals > 0.0
    trimmed = int((~positive).sum())
    ns, vals = ns[positive], vals[positive]
    if ns.size < 2:
        raise DomainError("fit window has fewer than 2 positive values")
    x = (1.0 - alpha) * ns.astype(float)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        c=float(np.exp(intercept)),
        rho=float(np.exp(slope)),
        r_squared=r2,
        points_used=int(ns.size),
        trimmed=trimmed,
    )


# ---------------------------------------------------------------------------
# Spectral gap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralGap:
    lambda_star: float
    gamma_star: float


def _fwht(v: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform (unnormalized)."""
    v = v.copy()
    h = 1
    n = v.size
    while h < n:
        for start in range(0, n, 2 * h):
            a = v[start : start + h].copy()
            b = v[start + h : start + 2 * h].copy()
            v[start : start + h] = a + b
            v[start + h : start + 2 * h] = a - b
        h *= 2
    return v


SPECTRAL_GEN_CAP = 512


def spectral_gap(group: FiniteGroup, mu: StepDistribution) -> SpectralGap:
    """Absolute spectral gap of P_mu.

    Cyclic groups use the DFT closed form; hypercubes use character sums
    (closed form for weight-one supports, Walsh-Hadamard for d <= 16);
    otherwise a dense eigensolver bounded by the documented caps.
    """
    if group.kind == "cyclic":
        L = group.order
        ks = np.arange(1, L)
        lam = np.zeros(L - 1, dtype=complex)
        for g, p in mu.items:
            lam += p * np.exp(2j * np.pi * ks * g / L)
        lam_star = float(np.abs(lam).max())
        return SpectralGap(lam_star, 1.0 - lam_star)

    if group.kind == "hypercube":
        d = group.d
        support = mu.support
        basis = {1 << k for k in range(d)}
        if set(support) <= basis | {0}:
            # characters give lambda_T = 1 - 2 * sum_{k in T} mu(e_k); the
            # modulus is maximized at the extreme subsets
            ws = np.array([p for g, p in mu.items if g != 0])
            if ws.size == 0:
                return SpectralGap(1.0, 0.0)  # mu = delta_e: no gap
            cand = [abs(1.0 - 2.0 * ws.min()), abs(1.0 - 2.0 * ws.sum())]
            lam_star = float(max(cand))
            return SpectralGap(lam_star, 1.0 - lam_star)
        if d <= 16:
            lam = _fwht(mu.dense)
            lam_star = float(np.abs(lam[1:]).max())
            return SpectralGap(lam_star, 1.0 - lam_star)
        raise CapacityError("hypercube spectral gap needs weight<=1 support or d <= 16")

    if all(abs(p - mu.prob(group.inv(g))) <= 1e-12 for g, p in mu.items):
        eig, cap, limit = np.linalg.eigvalsh, TABLE_CAP, "symmetric eigensolver capped at"
    else:
        eig, cap = np.linalg.eigvals, SPECTRAL_GEN_CAP
        limit = "general eigensolver unsupported beyond order"
    if group.order > cap:
        raise CapacityError(f"{limit} {cap}")
    lam = eig(transition_matrix(group, mu))
    order = np.argsort(np.abs(lam - 1.0))
    lam_star = float(np.abs(lam[order[1:]]).max())
    return SpectralGap(lam_star, 1.0 - lam_star)


# ---------------------------------------------------------------------------
# Naive endpoint estimator
# ---------------------------------------------------------------------------


def empirical_tv_estimator(
    samples: np.ndarray,
    group: FiniteGroup,
    bootstrap_bins: int = 64,
    bootstrap_rounds: int = 256,
    bootstrap_seed: int = 0,
) -> tuple[float, float]:
    """Plug-in TV of an endpoint sample against uniform, with bootstrap stderr.

    The plug-in estimate is biased upward by O(sqrt(|G|/R)); a replica floor
    of R >= 100 |G| keeps that bias in the last digit shown on the figures,
    and falling below it triggers a warning.  The stderr comes from
    resampling `bootstrap_bins` sample batches with replacement.
    """
    samples = np.asarray(samples)
    R = samples.size
    if R < 100 * group.order:
        warnings.warn(
            f"empirical TV with R={R} < 100*|G|={100 * group.order}: "
            "upward bias O(sqrt(|G|/R)) may dominate",
            stacklevel=2,
        )
    hist = np.bincount(samples, minlength=group.order).astype(float)
    value = 0.5 * np.abs(hist / R - 1.0 / group.order).sum()
    nbins = min(bootstrap_bins, R)
    batches = np.array_split(samples, nbins)
    batch_hists = np.stack(
        [np.bincount(b, minlength=group.order) for b in batches]
    ).astype(float)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=bootstrap_seed))
    tvs = np.empty(bootstrap_rounds)
    for i in range(bootstrap_rounds):
        pick = rng.integers(0, nbins, size=nbins)
        h = batch_hists[pick].sum(axis=0)
        tot = h.sum()
        tvs[i] = 0.5 * np.abs(h / tot - 1.0 / group.order).sum()
    return float(value), float(tvs.std(ddof=1))


# ---------------------------------------------------------------------------
# Rao-Blackwellized cycle estimator
# ---------------------------------------------------------------------------


class _CycleTables:
    """Coefficient tables over cluster-size residues mod 2L (odd L).

    phi frequencies cos(2 pi k s / L) have period L in s, and the Fourier
    upper-bound factors cos^2(pi k s / L) have period 2L, so one mod-2L
    histogram of cluster sizes serves both.
    """

    def __init__(self, L: int):
        if L < 3 or L % 2 == 0:
            raise ParameterError(f"cycle estimator needs odd L >= 3, got {L}")
        self.L = L
        self.K = (L - 1) // 2
        rho = np.arange(2 * L)
        ks = np.arange(1, self.K + 1)
        c2 = np.cos(2.0 * np.pi * np.outer(ks, rho) / L)
        # |cos| is never 0 here for odd L; the clip only guards float dust
        self.logmag = np.log(np.maximum(np.abs(c2), 1e-300)).T  # (2L, K)
        self.negmask = (c2 < 0).astype(float).T
        c1sq = np.cos(np.pi * np.outer(ks, rho) / L) ** 2
        self.logbound = np.log(np.maximum(c1sq, 1e-300)).T  # (2L, K)
        # DFT: P(S_n = m) - 1/L = (2/L) sum_k cos(2 pi k m / L) phi_k
        self.dft = np.cos(2.0 * np.pi * np.outer(np.arange(L), ks) / L)  # (L, K)

    def phi(self, histo: np.ndarray) -> np.ndarray:
        """Conditional Fourier coefficients, one row per replica."""
        h = histo.astype(float)
        logmag = h @ self.logmag
        negs = h @ self.negmask
        sign = np.where((np.rint(negs).astype(np.int64) & 1) == 1, -1.0, 1.0)
        return sign * np.exp(logmag)

    def bound_terms(self, histo: np.ndarray) -> np.ndarray:
        """Per-replica value of (1/2) sum_k prod_j cos^2(pi k |C_j| / L)."""
        h = histo.astype(float)
        return 0.5 * np.exp(h @ self.logbound).sum(axis=1)

    def distribution_from_phi(self, phi: np.ndarray) -> np.ndarray:
        return 1.0 / self.L + (2.0 / self.L) * (self.dft @ phi)


def _forest_chunks(alpha, grid, modulus, replicas, master_seed, chunk, threads, terms):
    """Each replica chunk's per-grid sums of ``terms(histo)``, in chunk order.

    Every estimator is a view over this one pass.  Replicas evolve in chunks
    (chunk ci on RNG stream ci); at each grid time ``terms`` maps the chunk's
    cluster-size histogram mod `modulus` to a tuple of arrays, already summed
    over the chunk's replicas.  Yields, per chunk of ``chunk_ranges(replicas,
    chunk)``, one array per term, indexed by grid position first.  Chunks come
    in chunk-index order for every thread count.
    """
    grid = np.asarray(grid, dtype=np.int64)

    def work(task):
        ci, (start, stop) = task
        sums = []

        def collect(gi, t, histo):
            parts = terms(histo)
            if not sums:
                sums.extend(np.zeros((grid.size, *np.shape(p)), np.result_type(p)) for p in parts)
            for acc, p in zip(sums, parts):
                acc[gi] += p

        rng = stream(master_seed, ci)
        evolve_size_histograms(alpha, grid, modulus, stop - start, rng, collect)
        return sums

    tasks = enumerate(chunk_ranges(replicas, chunk))
    parallel = bool(threads) and threads > 1
    with ThreadPoolExecutor(max_workers=threads if parallel else 1) as pool:
        yield from (pool.map if parallel else map)(work, tasks)


def _forest_sums(alpha, grid, modulus, replicas, master_seed, chunk, threads, terms):
    """Per-grid sums over all replicas of ``terms(histo)`` (see ``_forest_chunks``).

    The chunks' sums are added in chunk-index order, so the totals are
    bit-identical for every thread count.
    """
    chunks = _forest_chunks(alpha, grid, modulus, replicas, master_seed, chunk, threads, terms)
    totals = next(chunks)
    for sums in chunks:
        for acc, part in zip(totals, sums):
            acc += part
    return totals


def _forest_moments(alpha, grid, modulus, replicas, master_seed, chunk, threads, rows):
    """Per-grid sum and centred second moment of the replicas' ``rows(histo)``.

    ``rows`` maps a chunk's cluster-size histogram to one row per replica,
    shape (R, K).  Each chunk sums its rows, and the outer products of its
    rows, around the chunk's first row, so equal rows give exactly 0; the
    chunks' means and centred second moments are merged in chunk order by
    the pairwise update of Chan, Golub and LeVeque.  Returns (sum, M2) of
    shapes (grid, K) and (grid, K, K); the sums are added in chunk order as
    in ``_forest_sums``.
    """

    def terms(histo):
        x = rows(histo)
        dx = x - x[0]
        return x.sum(axis=0), x[0], dx.sum(axis=0), dx.T @ dx

    chunks = _forest_chunks(alpha, grid, modulus, replicas, master_seed, chunk, threads, terms)
    n = 0
    for (start, stop), (s, shift, ds, dd) in zip(chunk_ranges(replicas, chunk), chunks):
        m = stop - start
        mean_c = shift + ds / m
        m2_c = dd - ds[:, :, None] * ds[:, None, :] / m
        if n == 0:
            total, mean, m2 = s, mean_c, m2_c
        else:
            total += s
            delta = mean_c - mean
            m2 += m2_c + (n * m / (n + m)) * delta[:, :, None] * delta[:, None, :]
            mean += (m / (n + m)) * delta
        n += m
    return total, m2


def rao_blackwell_cycle_curve(
    L: int,
    alpha: float,
    grid,
    replicas: int,
    master_seed: int,
    chunk: int = 512,
    threads: int = 1,
) -> DistanceCurve:
    """TV-to-uniform curve for the reinforced simple walk on an odd cycle.

    Spin randomness is integrated exactly per forest (length-L DFT), so the
    only Monte Carlo noise is over forests.  Stderr by the delta method from
    the replica covariance of the conditional Fourier coefficients.
    """
    tables = _CycleTables(L)
    grid = np.asarray(grid, dtype=np.int64)

    total, m2 = _forest_moments(
        alpha, grid, 2 * L, replicas, master_seed, chunk, threads, tables.phi
    )
    phi_mean = total / replicas
    C = (2.0 / L) * tables.dft
    values = np.empty(grid.size)
    stderrs = np.zeros(grid.size)
    for i in range(grid.size):
        dev = C @ phi_mean[i]
        values[i] = 0.5 * float(np.abs(dev).sum())
        if replicas >= 2:
            grad = 0.5 * (C.T @ np.sign(dev))
            var = float(grad @ m2[i] @ grad) / (replicas * (replicas - 1))
            stderrs[i] = math.sqrt(max(var, 0.0))
    return DistanceCurve(
        group_desc=f"cyclic(L={L})",
        alpha=alpha,
        estimator="rao-blackwell",
        replicas=replicas,
        seed=master_seed,
        ns=grid,
        values=values,
        stderrs=stderrs,
    )


def rao_blackwell_cycle_distribution(
    L: int,
    alpha: float,
    n: int,
    replicas: int,
    master_seed: int,
    chunk: int = 512,
    threads: int = 1,
):
    """Estimate of the endpoint law P(S_n = .) on the cycle.

    The averaged conditional laws are unbiased cell by cell; the result is
    projected onto the simplex (clip at 0, renormalize) so it is a valid
    distribution even when Monte Carlo noise dips a near-zero cell negative.
    TV curves bypass this projection and use the raw deviations.
    """
    from .dist import DistributionVector
    from .groups import CyclicGroup

    tables = _CycleTables(L)
    (total,) = _forest_sums(
        alpha, [n], 2 * L, replicas, master_seed, chunk, threads,
        lambda histo: (tables.phi(histo).sum(axis=0),),
    )
    probs = tables.distribution_from_phi(total[0] / replicas)
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()
    return DistributionVector(CyclicGroup(L), probs)


def fourier_tv_bound_cycle(
    L: int,
    alpha: float,
    n: int,
    replicas: int,
    master_seed: int,
    chunk: int = 512,
    threads: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of the Fourier upper bound on TV^2.

    The bound is (1/2) sum_{k=1}^{(L-1)/2} E prod_j cos^2(pi k |C_j| / L);
    returns (estimate, stderr) with the stderr sqrt(sum_r (v_r - mean)^2) / R
    over the replicas' terms v_r.
    """
    tables = _CycleTables(L)
    total, m2 = _forest_moments(
        alpha, [n], 2 * L, replicas, master_seed, chunk, threads,
        lambda histo: tables.bound_terms(histo)[:, None],
    )
    return float(total[0, 0]) / replicas, math.sqrt(max(float(m2[0, 0, 0]), 0.0)) / replicas


# ---------------------------------------------------------------------------
# Hypercube weight-chain estimator
# ---------------------------------------------------------------------------


def hypercube_weight_chain_table(d: int, m_max: int) -> np.ndarray:
    """Weight laws q_0..q_{m_max} of the lazy coordinate-flip walk from weight 0.

    Row m of the (m_max+1, d+1) matrix is the law after m steps.  One step
    from weight w: stay with probability 1/2, w -> w+1 with probability
    (d-w)/(2d), w -> w-1 with probability w/(2d).
    """
    ws = np.arange(d + 1, dtype=float)
    up = (d - ws) / (2.0 * d)
    down = ws / (2.0 * d)
    table = np.zeros((m_max + 1, d + 1))
    table[0, 0] = 1.0
    for m in range(1, m_max + 1):
        q = table[m - 1]
        nxt = 0.5 * q.copy()
        nxt[1:] += q[:-1] * up[:-1]
        nxt[:-1] += q[1:] * down[1:]
        table[m] = nxt
    return table


def hypercube_stationary_weights(d: int) -> np.ndarray:
    """Binomial(d, 1/2) weight marginal of the uniform law, correctly rounded."""
    # int true division rounds correctly, even where 2**d overflows a float
    return np.array([math.comb(d, w) / 2**d for w in range(d + 1)])


def hypercube_tv_curve(
    d: int,
    alpha: float,
    grid,
    replicas: int,
    master_seed: int,
    chunk: int = 2048,
    threads: int = 1,
) -> DistanceCurve:
    """TV curve of the reinforced lazy walk on the hypercube, weight-marginal form.

    Per replica, only the odd-cluster count N_J(n) is sampled; conditionally
    on N_J(n) = m the endpoint is the lazy walk after m steps, and the law of
    the walk is invariant under coordinate permutations, so TV reduces to the
    Hamming-weight marginal.  Works up to d = 1024.
    """
    if d < 1 or d > 1024:
        raise ParameterError("hypercube estimator supports 1 <= d <= 1024")
    grid = np.asarray(grid, dtype=np.int64)
    horizon = int(grid[-1])
    (counts,) = _forest_sums(
        alpha, grid, 2, replicas, master_seed, chunk, threads,
        lambda histo: (np.bincount(histo[:, 1], minlength=horizon + 2),),
    )
    qtable = hypercube_weight_chain_table(d, horizon + 1)
    pi = hypercube_stationary_weights(d)
    values = np.empty(grid.size)
    stderrs = np.zeros(grid.size)
    for i in range(grid.size):
        p_hat = (counts[i].astype(float) @ qtable) / replicas
        dev = p_hat - pi
        values[i] = 0.5 * np.abs(dev).sum()
        if replicas >= 2:
            # delta method: the estimator averages the rows q_{N_J} of the
            # weight-chain table, so its variance is the weighted variance of
            # the scalar q_{N_J} . grad over the observed N_J, over R - 1
            nz = np.nonzero(counts[i])[0]
            w = counts[i, nz].astype(float) / replicas
            s = qtable[nz] @ (0.5 * np.sign(dev))
            stderrs[i] = math.sqrt(float(w @ (s - w @ s) ** 2) / (replicas - 1))
    return DistanceCurve(
        group_desc=f"hypercube(d={d})",
        alpha=alpha,
        estimator="hypercube-weight",
        replicas=replicas,
        seed=master_seed,
        ns=grid,
        values=values,
        stderrs=stderrs,
    )


# ---------------------------------------------------------------------------
# Mixing times with horizon retries
# ---------------------------------------------------------------------------


@dataclass
class MixingRun:
    estimate: MixingEstimate
    curve: DistanceCurve
    horizons_tried: list = field(default_factory=list)


def _scan_with_retries(build_curve, epsilon, horizon0, max_doublings, curves=None):
    """Scan ``build_curve(horizon)`` at `epsilon`, doubling the horizon while
    the guard fires.

    ``curves`` memoizes the curves by horizon.  A curve depends only on the
    seed, the replicas and the horizon's grid, so scans at several epsilons
    over one (alpha, size, seed) may share a memo and evolve each horizon's
    forests once; scans over anything else must not.
    """
    curves = {} if curves is None else curves
    horizon = int(horizon0)
    tried = []
    while True:
        if horizon not in curves:
            curves[horizon] = build_curve(horizon)
        curve = curves[horizon]
        tried.append(horizon)
        est = mixing_time_scan(curve, epsilon, horizon)
        if not est.guard_triggered or len(tried) > max_doublings:
            return MixingRun(estimate=est, curve=curve, horizons_tried=tried)
        horizon *= 2


def cycle_mixing_time(
    L: int,
    alpha: float,
    epsilon: float,
    replicas: int,
    master_seed: int,
    horizon0: int,
    points_per_decade: int = 40,
    max_doublings: int = 3,
    chunk: int = 512,
    threads: int = 1,
    curves: dict | None = None,
) -> MixingRun:
    def build(horizon):
        grid = geometric_grid(horizon, points_per_decade)
        return rao_blackwell_cycle_curve(
            L, alpha, grid, replicas, master_seed, chunk=chunk, threads=threads
        )

    return _scan_with_retries(build, epsilon, horizon0, max_doublings, curves)


def hypercube_mixing_time(
    d: int,
    alpha: float,
    epsilon: float,
    replicas: int,
    master_seed: int,
    horizon0: int,
    points_per_decade: int = 40,
    max_doublings: int = 3,
    chunk: int = 2048,
    threads: int = 1,
    curves: dict | None = None,
) -> MixingRun:
    def build(horizon):
        grid = geometric_grid(horizon, points_per_decade)
        return hypercube_tv_curve(
            d, alpha, grid, replicas, master_seed, chunk=chunk, threads=threads
        )

    return _scan_with_retries(build, epsilon, horizon0, max_doublings, curves)
