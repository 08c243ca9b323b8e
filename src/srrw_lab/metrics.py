"""Distance curves, Monte Carlo estimators, spectral quantities, and
mixing-time extraction.

The forest-pass estimators (the cycle curve, the hypercube curve and the
cluster-size counts) are views over one pass, ``_forest_chunks``: it grows
the percolated forests in replica chunks, hands each grid time's
cluster-size histogram to the estimator's ``terms``, stores the returned
terms in per-grid arrays of the chunk and yields the chunks' arrays in
chunk order.  For the cycle curve, ``_forest_moments`` adds up the chunks'
sums in that order and merges their centred second moments pairwise; the
curve reduces them to values and delta-method stderrs.  The hypercube curve
and ``cluster_size_counts`` keep their terms per replica, one row per grid
point, and reduce each grid point's row on its own.  Each estimator first
checks its pass with ``check_estimator_pass``, as ``validate_config`` does,
so a pass over the cap allocates nothing.

The cycle estimator Rao-Blackwellizes over spins: conditionally on the
cluster sizes of the forest, the walk's Fourier coefficient at frequency k
is the product of cos(2 pi k |C|/L) over clusters, so averaging those exact
conditional laws over sampled forests kills all spin noise.  The hypercube
estimator reduces to the Hamming-weight marginal: conditionally on the
number of odd clusters m, the endpoint is a lazy coordinate-flip walk run
for m steps, whose weight law follows an Ehrenfest recursion; it is compared
with the Binomial(d, 1/2) law in exact integer arithmetic.  Its stderr, like
the endpoint estimator's, is the delta-method rule of ``_mixture_tv``: the
spread of one scalar per observed category.  The module needs numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dist import write_csv
from .errors import CapacityError, DomainError, ParameterError
from .forest import _time_dtype, buffer_nbytes, evolve_size_histograms, state_nbytes
from .groups import TABLE_CAP, FiniteGroup, StepDistribution, transition_matrix
from .special import cutoff_constant
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


def mixing_time_scan(curve: DistanceCurve, epsilon: float) -> MixingEstimate:
    """Operationalize the 'distance stays below epsilon for all later times' rule.

    Returns 1 + (largest grid n whose value exceeds epsilon), or 1 if the
    curve never exceeds it.  If an exceedance falls in the last 10% of the
    horizon, the curve's last grid point, the estimate cannot be trusted (the
    curve might rise again past the grid), so the guard flag is raised.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    horizon = int(curve.ns[-1])
    exceed = curve.ns[curve.values > epsilon]
    if exceed.size == 0:
        return MixingEstimate(epsilon, 1, horizon, [], False)
    guard = bool(exceed[-1] >= 0.9 * horizon)
    return MixingEstimate(epsilon, int(exceed[-1]) + 1, horizon, list(exceed), guard)


def geometric_grid(n_max: int, points_per_decade: int = 40) -> np.ndarray:
    """Integer grid, exhaustive up to 16 then ~log-spaced."""
    if n_max < 1:
        raise ParameterError("n_max must be >= 1")
    dense = 16
    head = np.arange(1, min(dense, n_max) + 1)
    if n_max <= dense:
        return head
    decades = math.log10(n_max / dense)
    count = max(2, int(math.ceil(decades * points_per_decade)))
    tail = np.round(np.geomspace(dense + 1, n_max, count)).astype(np.int64)
    # the points are nondecreasing, so keeping each one above its predecessor
    # dedupes them (without np.unique, which imports numpy.ma)
    grid = np.concatenate([head, tail, [n_max]])
    return grid[np.diff(grid, prepend=0) > 0]


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
    """Walsh-Hadamard transform (unnormalized) of a copy of v."""
    v = v.copy()
    h = 1
    while h < v.size:
        pairs = v.reshape(-1, 2, h)
        a, b = pairs[:, 0], pairs[:, 1]
        pairs[:, 0], pairs[:, 1] = a + b, a - b
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
            if ws.size < d:
                return SpectralGap(1.0, 0.0)  # a coordinate outside supp mu never moves
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
# Mixtures over observed categories; the endpoint estimator
# ---------------------------------------------------------------------------


def _mixture_tv(w, dev, scores, replicas) -> tuple[float, float]:
    """TV of the mixture sum_c w_c q_c over observed categories c, and its stderr.

    ``dev`` is the mixture minus the target, w_c the share of the replicas in
    category c, and ``scores(grad)`` gives s_c = q_c . grad at the TV gradient
    grad = sign(dev) / 2.  By the delta method the variance is the w-weighted
    variance of the s_c over R - 1.
    """
    value = 0.5 * float(np.abs(dev).sum())
    if replicas < 2:
        return value, 0.0
    s = scores(0.5 * np.sign(dev))
    # w sums to 1 only up to rounding; this centre is exactly every s_c when they are all equal
    c = s[0] + w @ (s - s[0])
    return value, math.sqrt(float(w @ (s - c) ** 2) / (replicas - 1))


def empirical_tv_estimator(samples: np.ndarray, group: FiniteGroup) -> tuple[float, float]:
    """Plug-in TV of an endpoint sample against uniform, with delta-method stderr.

    The plug-in estimate is biased upward by O(sqrt(|G|/R)); a replica floor
    of R >= 100 |G| keeps that bias in the last digit shown on the figures,
    and falling below it triggers a warning.  The categories are the observed
    endpoints and each law is a point mass, so s_x = sign(dev_x) / 2 (see
    ``_mixture_tv``); no random numbers are drawn.
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
    nz = np.nonzero(hist)[0]
    return _mixture_tv(hist[nz] / R, hist / R - 1.0 / group.order, lambda grad: grad[nz], R)


# ---------------------------------------------------------------------------
# Rao-Blackwellized cycle estimator
# ---------------------------------------------------------------------------


class _CycleTables:
    """Coefficient tables over cluster-size residues mod L (odd L).

    The phi factors cos(2 pi k s / L) have period L in s, so a mod-L
    histogram of cluster sizes determines phi.
    """

    def __init__(self, L: int):
        if L < 3 or L % 2 == 0:
            raise ParameterError(f"cycle estimator needs odd L >= 3, got {L}")
        self.L = L
        self.K = (L - 1) // 2
        ks = np.arange(1, self.K + 1)
        # DFT: P(S_n = m) - 1/L = (2/L) sum_k cos(2 pi k m / L) phi_k
        self.dft = np.cos(2.0 * np.pi * np.outer(np.arange(L), ks) / L)  # (L, K)
        # |cos| is never 0 here for odd L; the clip only guards float dust
        self.logmag = np.log(np.maximum(np.abs(self.dft), 1e-300))
        self.negmask = (self.dft < 0).astype(float)

    def phi(self, histo: np.ndarray) -> np.ndarray:
        """Conditional Fourier coefficients, one row per replica."""
        h = histo.astype(float)
        logmag = h @ self.logmag
        negs = h @ self.negmask
        sign = np.where((np.rint(negs).astype(np.int64) & 1) == 1, -1.0, 1.0)
        return sign * np.exp(logmag)


STATE_BUDGET = 256 << 20  # bytes of forest state a scan may keep between horizons
FOREST_BYTES_CAP = 1 << 30  # bytes a forest pass may hold: its workers' and checkpoint's states
CYCLE_CHUNK = 512  # replicas per chunk of the cycle estimator's forest pass
HYPERCUBE_CHUNK = 2048  # of the hypercube estimator's
CLUSTER_K_MAX = 10  # forest-stats reports N_1..N_k for k up to this, and the odd count


def _states_nbytes(horizon: int, modulus: int, replicas: int, chunk: int) -> int:
    """Bytes of every chunk's forest state at `horizon`."""
    ranges = chunk_ranges(replicas, chunk)
    return sum(state_nbytes(stop - start, horizon, modulus) for start, stop in ranges)


def forest_tallies(estimator, modulus, horizon, points, replicas, chunk, k_max=CLUSTER_K_MAX):
    """Bytes of the per-grid arrays of an estimator's forest pass: a chunk's, and its merge's.

    ``rao-blackwell``: per grid point a chunk's terms are three float64
    K-vectors and the K x K sum of outer products (K = (modulus - 1) / 2);
    the merge holds the running sum and mean, the centred second moment
    and one K x K product buffer per grid point, and the estimator its
    three L x K coefficient tables.  ``hypercube-weight``: one odd-cluster
    count per replica and grid point, int16 below t = 2**15 and int32
    above, for a chunk's replicas and for all of them.  ``forest-mc``: the
    int64 counts N_1..N_k_max and the odd count per replica and grid point,
    likewise.
    """
    if estimator == "rao-blackwell":
        K = (modulus - 1) // 2
        tables = 3 * modulus * K * 8
        return points * 8 * (3 * K + K * K), points * 8 * (2 * K + 2 * K * K) + tables
    if estimator == "hypercube-weight":
        per_replica = np.dtype(_time_dtype(horizon)).itemsize  # a count is at most t
    else:
        per_replica = 8 * (k_max + 1)
    return points * min(replicas, chunk) * per_replica, points * replicas * per_replica


def check_forest_pass(
    horizon: int, modulus: int, replicas: int, chunk: int, threads: int, checkpoint=None,
    tallies=(0, 0),
) -> None:
    """Raise ``CapacityError`` if a forest pass to `horizon` may hold over ``FOREST_BYTES_CAP``.

    Each of its workers grows one chunk of min(replicas, chunk) forests at a
    time, holding their state (``state_nbytes`` at the horizon), their
    histogram and buffers (``buffer_nbytes``) and the per-grid arrays their
    terms fill, ``tallies[0]`` (see ``forest_tallies``).  One more chunk's
    arrays are held while the estimator merges them, and the merge holds
    ``tallies[1]``.  A pass given a `checkpoint` also holds states outside
    its workers: those the checkpoint brought, until their chunks start,
    and its own once done, if they fit in ``STATE_BUDGET``.  A chunk's new
    state is larger than its old one, so these never exceed the larger of
    the two sums.  A resumed chunk grows its root times in place unless
    they widen to int32, so there its old root times are counted twice, in
    the brought sum and inside its new state; the bound stays conservative.
    """
    count = min(replicas, chunk)
    workers = min(threads or 1, -(-replicas // chunk))
    per_chunk, merged = tallies
    per_worker = state_nbytes(count, horizon, modulus) + buffer_nbytes(count, horizon, modulus)
    nbytes = workers * (per_worker + per_chunk) + per_chunk + merged
    if checkpoint is not None:
        brought = sum(
            s.root_time.nbytes + s.residue.nbytes for s in checkpoint.states if s is not None
        )
        kept = _states_nbytes(horizon, modulus, replicas, chunk)
        nbytes += max(brought, kept if kept <= STATE_BUDGET else 0)
    if nbytes > FOREST_BYTES_CAP:
        raise CapacityError(
            f"a forest pass to n = {horizon} may hold {nbytes} bytes"
            f" ({workers} x {count} forests at a time), over the cap of {FOREST_BYTES_CAP}"
        )


def check_estimator_pass(
    estimator, size, horizon, points, replicas, chunk=None, threads=1, checkpoint=None,
    k_max=CLUSTER_K_MAX,
) -> int:
    """Run ``check_forest_pass`` on the pass of `estimator` to `horizon`; return its modulus.

    The modulus is the cycle's L (`size`) for ``rao-blackwell``, 2 for
    ``hypercube-weight`` and horizon + 1, which no cluster reaches, for
    ``forest-mc``; `chunk` defaults to the estimator's.  Each estimator
    calls this before it allocates, and ``validate_config`` before a run.
    """
    modulus = {"rao-blackwell": size, "hypercube-weight": 2}.get(estimator, horizon + 1)
    chunk = chunk or (HYPERCUBE_CHUNK if estimator == "hypercube-weight" else CYCLE_CHUNK)
    tallies = forest_tallies(estimator, modulus, horizon, points, replicas, chunk, k_max)
    check_forest_pass(horizon, modulus, replicas, chunk, threads, checkpoint, tallies)
    return modulus


@dataclass
class Checkpoint:
    """Every chunk's forest state where a resumable pass stopped.

    A scan keeps one between the horizons it tries.  A pass given a
    checkpoint with states continues those forests, collecting only at grid
    times after theirs.  It leaves its own states behind if they fit in
    ``STATE_BUDGET``, and none otherwise, so that the next pass starts over
    from t = 2; the stream layout makes both ways give the same bytes.
    """

    states: list = field(default_factory=list)


def _forest_chunks(
    alpha, grid, modulus, replicas, master_seed, chunk, threads, terms, checkpoint=None
):
    """Each replica chunk's per-grid ``terms(histo)``, in chunk order.

    Every estimator is a view over this one pass.  Replicas evolve in chunks
    (chunk ci on RNG stream ci); at each grid time ``terms`` maps the chunk's
    cluster-size histogram mod `modulus` to a tuple of arrays, summed over
    the chunk's replicas or one row per replica.  Yields, per chunk of
    ``chunk_ranges(replicas, chunk)``, one array per term, indexed by grid
    position first.  Chunks come in chunk-index order for every thread
    count.  A pass that resumes ``checkpoint`` needs a grid that starts
    after the states' time.  The estimator has checked the pass
    (``check_estimator_pass``) before it calls this.
    """
    grid = np.asarray(grid, dtype=np.int64)
    ranges = chunk_ranges(replicas, chunk)
    states = (checkpoint and checkpoint.states) or [None] * len(ranges)
    if states[0] is not None and grid[0] <= states[0].t:
        raise ParameterError("a resumed pass collects only after its checkpoint's time")
    keep = checkpoint is not None and (
        _states_nbytes(int(grid[-1]), modulus, replicas, chunk) <= STATE_BUDGET
    )
    if checkpoint is not None:
        checkpoint.states = [None] * len(ranges) if keep else []

    def work(task):
        ci, (start, stop) = task
        sums = []

        def collect(gi, t, histo):
            parts = terms(histo)
            if not sums:
                sums.extend(np.zeros((grid.size, *np.shape(p)), np.result_type(p)) for p in parts)
            for acc, p in zip(sums, parts):
                acc[gi] += p

        state, states[ci] = states[ci], None
        rng = None if state else stream(master_seed, ci)
        state = evolve_size_histograms(alpha, grid, modulus, stop - start, rng, collect, state)
        if keep:
            checkpoint.states[ci] = state
        return sums

    tasks = enumerate(ranges)
    if not threads or threads <= 1:
        yield from map(work, tasks)
        return
    from concurrent.futures import ThreadPoolExecutor  # only threaded passes pay its import

    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(work, tasks)


def _forest_moments(alpha, grid, modulus, replicas, master_seed, chunk, threads, rows, checkpoint):
    """Per-grid sum and centred second moment of the replicas' ``rows(histo)``.

    ``rows`` maps a chunk's cluster-size histogram to one row per replica,
    shape (R, K): the cycle curve's conditional Fourier coefficients phi.
    Each chunk sums its rows, and the outer products of its rows, around the
    chunk's first row, so equal rows give exactly 0; the chunks' means and
    centred second moments are merged in chunk order by the pairwise update
    of Chan, Golub and LeVeque, in place, with one (grid, K, K) product
    buffer.  Returns (sum, M2) of shapes (grid, K) and (grid, K, K); the
    sums are added in chunk order, so the totals are bit-identical for every
    thread count, and the merge is elementwise per grid point.
    """

    def terms(histo):
        x = rows(histo)
        dx = x - x[0]
        return x.sum(axis=0), x[0], dx.sum(axis=0), dx.T @ dx

    chunks = _forest_chunks(
        alpha, grid, modulus, replicas, master_seed, chunk, threads, terms, checkpoint
    )
    n = 0
    for (start, stop), (s, shift, ds, dd) in zip(chunk_ranges(replicas, chunk), chunks):
        m = stop - start
        mean_c = shift + ds / m
        if n == 0:
            outer = np.empty_like(dd)
        np.multiply(ds[:, :, None], ds[:, None, :], out=outer)
        outer /= m
        dd -= outer  # the chunk's centred second moment
        if n == 0:
            total, mean, m2 = s, mean_c, dd
        else:
            total += s
            delta = mean_c - mean
            np.multiply((n * m / (n + m)) * delta[:, :, None], delta[:, None, :], out=outer)
            outer += dd
            m2 += outer
            mean += (m / (n + m)) * delta
        n += m
    return total, m2


def rao_blackwell_cycle_curve(
    L: int,
    alpha: float,
    grid,
    replicas: int,
    master_seed: int,
    chunk: int = CYCLE_CHUNK,
    threads: int = 1,
    checkpoint: Checkpoint | None = None,
) -> DistanceCurve:
    """TV-to-uniform curve for the reinforced simple walk on an odd cycle.

    Spin randomness is integrated exactly per forest (length-L DFT), so the
    only Monte Carlo noise is over forests.  Stderr by the delta method from
    the replica covariance of the conditional Fourier coefficients.
    """
    grid = np.asarray(grid, dtype=np.int64)
    check_estimator_pass(
        "rao-blackwell", L, int(grid[-1]), grid.size, replicas, chunk, threads, checkpoint
    )
    tables = _CycleTables(L)
    total, m2 = _forest_moments(
        alpha, grid, L, replicas, master_seed, chunk, threads, tables.phi, checkpoint
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


# ---------------------------------------------------------------------------
# Hypercube weight-chain estimator
# ---------------------------------------------------------------------------


def hypercube_weight_chain_table(d: int, m_max: int, rows=None) -> np.ndarray:
    """Weight laws q_0..q_{m_max} of the lazy coordinate-flip walk from weight 0.

    Row m of the (m_max+1, d+1) matrix is the law after m steps; given
    `rows`, ascending step counts in 0..m_max, only those rows are returned.
    One step from weight w: stay with probability 1/2, w -> w+1 with
    probability (d-w)/(2d), w -> w-1 with probability w/(2d).  The
    recursion holds two rows at a time.
    """
    ws = np.arange(d + 1, dtype=float)
    up = (d - ws) / (2.0 * d)
    down = ws / (2.0 * d)
    rows = range(m_max + 1) if rows is None else np.asarray(rows).tolist()
    table = np.empty((len(rows), d + 1))
    q, nxt, flow = np.zeros(d + 1), np.empty(d + 1), np.empty(d)
    q[0] = 1.0
    m = 0
    for k, want in enumerate(rows):
        for m in range(m + 1, want + 1):
            np.multiply(q, 0.5, out=nxt)
            nxt[1:] += np.multiply(q[:-1], up[:-1], out=flow)
            nxt[:-1] += np.multiply(q[1:], down[1:], out=flow)
            q, nxt = nxt, q
        m = want
        table[k] = q
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
    chunk: int = HYPERCUBE_CHUNK,
    threads: int = 1,
    checkpoint: Checkpoint | None = None,
) -> DistanceCurve:
    """TV curve of the reinforced lazy walk on the hypercube, weight-marginal form.

    Per replica, only the odd-cluster count N_J(n) is sampled; conditionally
    on N_J(n) = m the endpoint is the lazy walk after m steps, and the law of
    the walk is invariant under coordinate permutations, so TV reduces to the
    Hamming-weight marginal.  The categories of ``_mixture_tv`` are the
    observed odd-cluster counts m, with laws q_m.  The pass keeps one row
    per grid point of every replica's count (int16 below t = 2**15, int32
    above), and a grid point's categories are the ``np.bincount`` of its
    row.  The weight-chain table keeps the rows of the counts observed at
    some grid point, the largest at most the horizon (reached at alpha = 0,
    where N_J(n) = n).  Works up to d = 1024.
    """
    if d < 1 or d > 1024:
        raise ParameterError("hypercube estimator supports 1 <= d <= 1024")
    grid = np.asarray(grid, dtype=np.int64)
    horizon = int(grid[-1])
    check_estimator_pass(
        "hypercube-weight", d, horizon, grid.size, replicas, chunk, threads, checkpoint
    )
    dtype = _time_dtype(horizon)  # an odd-cluster count is at most t, like a root time
    chunks = _forest_chunks(
        alpha, grid, 2, replicas, master_seed, chunk, threads,
        lambda histo: (histo[:, 1].astype(dtype),), checkpoint,
    )
    odd = np.empty((grid.size, replicas), dtype=dtype)
    for (start, stop), (rows,) in zip(chunk_ranges(replicas, chunk), chunks):
        odd[:, start:stop] = rows
    seen = np.zeros(horizon + 1, dtype=bool)
    for row in odd:
        seen[row] = True
    observed = np.flatnonzero(seen)
    qtable = hypercube_weight_chain_table(d, int(observed[-1]), observed)
    pi = hypercube_stationary_weights(d)
    values = np.empty(grid.size)
    stderrs = np.zeros(grid.size)
    for i, row in enumerate(odd):
        # the estimate averages the rows q_{N_J} of the weight-chain table over
        # the observed N_J only, whatever the horizon
        counts = np.bincount(row)
        nz = np.flatnonzero(counts)
        w = counts[nz] / replicas
        q = qtable[np.searchsorted(observed, nz)]
        values[i], stderrs[i] = _mixture_tv(w, w @ q - pi, lambda grad: q @ grad, replicas)
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
# Cluster-size statistics
# ---------------------------------------------------------------------------


def cluster_size_counts(alpha, grid, replicas, master_seed, k_max, threads=1):
    """Per-replica cluster counts N_1..N_k_max and odd-cluster counts at each grid time.

    Returns (counts, odd) of shapes (grid, replicas, k_max) and (grid,
    replicas).  The pass runs at modulus max(grid) + 1, which no cluster
    reaches, so its residue histogram is the exact size histogram; each
    chunk's per-replica rows go to its replicas' slots.
    """
    grid = np.asarray(grid, dtype=np.int64)
    modulus = check_estimator_pass(
        "forest-mc", None, int(grid[-1]), grid.size, replicas, CYCLE_CHUNK, threads, k_max=k_max
    )
    chunks = _forest_chunks(
        alpha, grid, modulus, replicas, master_seed, CYCLE_CHUNK, threads,
        lambda histo: (histo[:, 1 : k_max + 1], histo[:, 1::2].sum(axis=1)),
    )
    counts = np.zeros((grid.size, replicas, k_max), dtype=np.int64)  # sizes past max(grid): 0
    odd = np.empty((grid.size, replicas), dtype=np.int64)
    for (start, stop), (c, o) in zip(chunk_ranges(replicas, CYCLE_CHUNK), chunks):
        counts[:, start:stop, : c.shape[2]] = c
        odd[:, start:stop] = o
    return counts, odd


# ---------------------------------------------------------------------------
# Mixing times with horizon retries
# ---------------------------------------------------------------------------


@dataclass
class MixingRun:
    estimate: MixingEstimate
    curve: DistanceCurve
    horizons_tried: list = field(default_factory=list)


MAX_REACH = 8  # a scan's last horizon is at most MAX_REACH * horizon0


def cycle_horizon0(L: int, alpha: float) -> int:
    """The first horizon of a cycle scan; the retry loop extends it while the guard fires."""
    if alpha > 0.5:
        return max(128, int(1.5 * L ** (1.0 / alpha)))
    if alpha == 0.5:
        return max(128, int(0.8 * L * L / math.log(L)))
    return max(128, int(0.45 * L * L))


def hypercube_horizon0(d: int, alpha: float) -> int:
    """The first horizon of a hypercube scan."""
    c = 1.2 if alpha == 0.0 else cutoff_constant(alpha)
    return max(64, int(c * d * (math.log(d) + 4.0)))


def _scan_with_retries(build_curve, epsilon, horizon0, points_per_decade, curves=None):
    """Scan a curve at `epsilon`, extending the horizon while the guard fires.

    The first curve is ``build_curve(grid, checkpoint)`` on
    ``geometric_grid(horizon0, points_per_decade)``.  An extended curve, to
    h', is the shorter curve to h followed by a curve on the points of the
    geometric grid to h' that lie above h; that curve's pass continues the
    shorter pass's forests from its checkpoint.  Every estimator reduces
    each grid point on its own, so the extended curve is the curve a single
    pass would give on the extended grid.  While the checkpoint holds the
    shorter pass's states, h' is ceil(5h / 4): a fired guard's crossing
    usually lies a few grid steps on, and the pass evolves only the steps
    from h.  Once the states are dropped (over ``STATE_BUDGET``) the pass
    regrows the forests from t = 2, so h' is 2h.  Either way h' is at most
    ``MAX_REACH * horizon0``, the last horizon a scan tries.

    ``curves`` memoizes (curve, checkpoint, next horizon) by horizon; the
    longest curve keeps its checkpoint while an extension from it is still
    possible.  A curve depends only on the seed, the replicas and its grid,
    so scans at several epsilons over one (alpha, size, seed) may share a
    memo and evolve each horizon's forests once; scans over anything else
    must not.
    """
    curves = {} if curves is None else curves
    horizon, reach = int(horizon0), MAX_REACH * int(horizon0)
    tried = []
    while True:
        if horizon not in curves:
            grid = geometric_grid(horizon, points_per_decade)
            shorter, checkpoint = None, Checkpoint()
            if tried:
                shorter, checkpoint, following = curves[tried[-1]]
                curves[tried[-1]] = (shorter, None, following)
                grid = grid[grid > tried[-1]]
            curve = build_curve(grid, checkpoint)
            if shorter is not None:
                curve = replace(curve, **{
                    k: np.concatenate([getattr(shorter, k), getattr(curve, k)])
                    for k in ("ns", "values", "stderrs")
                })
            following = min(-(-5 * horizon // 4) if checkpoint.states else 2 * horizon, reach)
            curves[horizon] = (curve, checkpoint if horizon < reach else None, following)
        curve, _, following = curves[horizon]
        tried.append(horizon)
        est = mixing_time_scan(curve, epsilon)
        if not est.guard_triggered or horizon >= reach:
            return MixingRun(estimate=est, curve=curve, horizons_tried=tried)
        horizon = following


def cycle_mixing_time(
    L: int,
    alpha: float,
    epsilon: float,
    replicas: int,
    master_seed: int,
    horizon0: int,
    points_per_decade: int = 40,
    chunk: int = CYCLE_CHUNK,
    threads: int = 1,
    curves: dict | None = None,
) -> MixingRun:
    def build(grid, checkpoint):
        return rao_blackwell_cycle_curve(
            L, alpha, grid, replicas, master_seed, chunk=chunk, threads=threads,
            checkpoint=checkpoint,
        )

    return _scan_with_retries(build, epsilon, horizon0, points_per_decade, curves)


def hypercube_mixing_time(
    d: int,
    alpha: float,
    epsilon: float,
    replicas: int,
    master_seed: int,
    horizon0: int,
    points_per_decade: int = 40,
    chunk: int = HYPERCUBE_CHUNK,
    threads: int = 1,
    curves: dict | None = None,
) -> MixingRun:
    def build(grid, checkpoint):
        return hypercube_tv_curve(
            d, alpha, grid, replicas, master_seed, chunk=chunk, threads=threads,
            checkpoint=checkpoint,
        )

    return _scan_with_retries(build, epsilon, horizon0, points_per_decade, curves)
