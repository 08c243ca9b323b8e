import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw_lab import forest as F
from srrw_lab import metrics as M
from srrw_lab import special as sp
from srrw_lab.errors import CapacityError, ParameterError
from srrw_lab.streams import stream

# the worked seven-vertex configuration: u2=u3=1, u4=2, u5=3, u6=u7=4,
# edges kept except at vertices 3, 4, 5
FIG_XI = [1, 0, 0, 0, 1, 1]
FIG_U = [1, 1, 2, 3, 4, 4]


class TestForestConstruction:
    def test_worked_configuration_labels(self):
        f = F.forest_from_choices(FIG_XI, FIG_U, alpha=0.5)
        assert f.labels.tolist() == [1, 1, 3, 4, 5, 4, 4]

    def test_worked_configuration_cluster_sizes(self):
        f = F.forest_from_choices(FIG_XI, FIG_U, alpha=0.5)
        st = F.cluster_statistics(f)
        assert st.size_counts == {1: 2, 2: 1, 3: 1}
        assert st.isolated == 2
        assert st.odd_count == 3

    def test_all_fresh_gives_singletons(self):
        rng = stream(0, 0)
        f = F.grow_forest(50, 0.0, rng)
        st = F.cluster_statistics(f)
        assert st.isolated == 50 and st.size_counts == {1: 50}

    def test_forced_spanning_tree(self):
        n = 40
        xi = [1] * (n - 1)
        u = [1] * (n - 1)
        f = F.forest_from_choices(xi, u)
        st = F.cluster_statistics(f)
        assert st.size_counts == {n: 1} and st.cluster_count == 1

    def test_label_recursion_invariant(self):
        rng = stream(5, 0)
        f = F.grow_forest(500, 0.6, rng)
        assert f.labels[0] == 1
        for j in range(2, f.n + 1):
            if f.xi[j - 2]:
                assert f.labels[j - 1] == f.labels[f.u[j - 2] - 1]
            else:
                assert f.labels[j - 1] == j

    def test_cluster_count_identity(self):
        rng = stream(6, 0)
        f = F.grow_forest(300, 0.4, rng)
        st = F.cluster_statistics(f)
        assert st.cluster_count == 1 + int((~f.xi).sum())

    def test_sizes_sum_to_n(self):
        for seed in range(5):
            f = F.grow_forest(200, 0.7, stream(seed, 0))
            st = F.cluster_statistics(f)
            assert sum(k * c for k, c in st.size_counts.items()) == 200

    def test_alpha_range(self):
        with pytest.raises(ParameterError):
            F.grow_forest(5, 1.0, stream(0, 0))
        with pytest.raises(ParameterError):
            F.grow_forest(5, -0.1, stream(0, 0))

    def test_bad_choices_rejected(self):
        with pytest.raises(ParameterError):
            F.forest_from_choices([0, 0], [1, 5])


class TestClusterStatistics:
    def test_block_count_all_singletons(self):
        f = F.grow_forest(25, 0.0, stream(1, 0))
        st = F.cluster_statistics(f, block_lengths=[1, 2, 5])
        assert st.blocks[1] == 25
        assert st.blocks[2] == 12
        assert st.blocks[5] == 5

    def test_block_count_spanning_tree_zero(self):
        f = F.forest_from_choices([1] * 11, [1] * 11)
        st = F.cluster_statistics(f, block_lengths=[2, 3])
        assert st.blocks[2] == 0 and st.blocks[3] == 0

    def test_block_count_respects_time_truncation(self):
        # vertex 5 joins 1's cluster only at time 5; I^(2)(4) looks at F_4,
        # where vertices 1..4 are all still isolated
        xi = [0, 0, 0, 1]
        u = [1, 1, 1, 1]
        f = F.forest_from_choices(xi, u)
        st = F.cluster_statistics(f, block_lengths=[2])
        assert st.blocks[2] == 2

    def test_window_counts(self):
        f = F.forest_from_choices(FIG_XI, FIG_U)
        st = F.cluster_statistics(f, windows=[(96, 24), (96, 4)])
        # (L=96, k=24): window [4/96*24=1? -> L/(96k)=96/2304~0.04, L/(2k)=2): sizes 1
        assert st.windows[(96, 24)] == 2
        # (L=96, k=4): [0.25, 12): all four clusters
        assert st.windows[(96, 4)] == 4

    def test_single_cluster_window_zero(self):
        f = F.forest_from_choices([1] * 9, [1] * 9)
        st = F.cluster_statistics(f, windows=[(8, 1)])
        # upper bound L/2 = 4 < 10: no cluster inside
        assert st.windows[(8, 1)] == 0

    def test_y_n_definition(self):
        f = F.grow_forest(100, 0.5, stream(2, 0))
        st = F.cluster_statistics(f)
        assert st.y_n == pytest.approx(st.isolated / 100 - (0.5 / 1.5), abs=1e-15)


class TestExpectedIsolated:
    def test_n1(self):
        assert F.expected_isolated_exact(1, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_n2_closed_form(self):
        for a in (0.0, 0.3, 0.5, 0.9):
            assert F.expected_isolated_exact(2, a) == pytest.approx(
                2 * (1 - a), abs=1e-12
            )

    def test_large_n_no_overflow(self):
        v = F.expected_isolated_exact(10**9, 0.5)
        assert np.isfinite(v) and v == pytest.approx((0.5 / 1.5) * 1e9, rel=1e-6)

    def test_monte_carlo_mean_within_4_sigma(self):
        n, R = 1000, 20_000
        for a in (0.2, 0.5, 0.8):
            counts = M.cluster_size_counts(a, [n], R, 101, k_max=1)[0][0, :, 0]
            mean = counts.mean()
            se = counts.std(ddof=1) / np.sqrt(R)
            assert abs(mean - F.expected_isolated_exact(n, a)) < 4 * se + 1e-9


class TestGrowthFactor:
    def test_trivial(self):
        assert sp.growth_ratio(9, 9, 0.4) == pytest.approx(1.0, abs=1e-14)
        assert sp.growth_ratio(1, 2, 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_monte_carlo_cross_check(self):
        # mean final size of clusters isolated at time t, vs a_n / a_t
        t, n, alpha, R = 100, 400, 0.5, 4000
        target = sp.growth_ratio(t, n, alpha)
        labels = F.batch_root_labels(*F.sample_batch_choices(n, alpha, R, stream(77, 0)))
        reps = []
        for r in range(R):
            at_t = np.bincount(labels[r, :t], minlength=n + 1)
            iso_roots = np.nonzero(at_t == 1)[0]
            final = np.bincount(labels[r], minlength=n + 1)
            reps.append(final[iso_roots].mean())
        reps = np.array(reps)
        se = reps.std(ddof=1) / np.sqrt(R)
        assert abs(reps.mean() - target) < 3 * se

    def test_probability_isolated_stays_linear(self):
        # P(I(n) <= (1-alpha) n / 8) is tiny at n = 500
        n, R = 500, 10_000
        for a in (0.2, 0.5, 0.8):
            counts = M.cluster_size_counts(a, [n], R, 55, k_max=1)[0][0, :, 0]
            frac = float((counts <= (1 - a) * n / 8).mean())
            assert frac <= 0.01


class TestThetaDensities:
    def test_size_densities_match_theta(self):
        # smaller sibling of the acceptance run: n=20000, R=60
        n, R, a = 20_000, 60, 0.5
        counts, odd = M.cluster_size_counts(a, [n], R, master_seed=31, k_max=5)
        means = counts[0].mean(axis=0) / n
        for k in range(1, 6):
            assert abs(means[k - 1] - sp.theta_k(a, k)) < 0.01
        assert abs(odd[0].mean() / n - sp.odd_cluster_density(a)) < 0.005

    def test_batch_over_the_cap_raises_before_drawing(self, monkeypatch):
        # 10 forests grown to n = 11 at modulus 12 hold their state and buffers
        need = F.state_nbytes(10, 11, 12) + F.buffer_nbytes(10, 11, 12)
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need)
        assert M.cluster_size_counts(0.5, [11], 10, 3, k_max=2)[0].shape == (1, 10, 2)
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need - 1)
        monkeypatch.setattr(M, "stream", lambda *a: pytest.fail("the draw started"))
        with pytest.raises(CapacityError, match=f"hold {need} bytes"):
            M.cluster_size_counts(0.5, [11], 10, 3, k_max=2)
        # a chunk holds the forests of its own replicas only
        chunk = M.CYCLE_CHUNK
        monkeypatch.setattr(
            M, "FOREST_BYTES_CAP", F.state_nbytes(chunk, 11, 12) + F.buffer_nbytes(chunk, 11, 12)
        )
        M.check_forest_pass(11, 12, 10**6, chunk, 1)


def reference_evolve(alpha, grid, modulus, count, rng, collect):
    """Column-per-time evolution with boolean-compacted histogram updates.

    The straightforward form of ``evolve_size_histograms``: the same uniforms
    in the same time-major order, drawn at once, with xi = U < alpha and
    u = 1 + floor((U / alpha) (t - 1)) clamped to t - 1; labels and sizes
    stored replica-major as (count, horizon + 1).
    """
    grid = np.asarray(grid, dtype=np.int64)
    horizon = int(grid[-1])
    labels = np.zeros((count, horizon + 1), dtype=np.int32)
    sizes = np.zeros((count, horizon + 1), dtype=np.int32)
    histo = np.zeros((count, modulus), dtype=np.int64)
    rows = np.arange(count)
    labels[:, 1] = 1
    sizes[:, 1] = 1
    histo[:, 1 % modulus] += 1
    grid_pos = {int(t): i for i, t in enumerate(grid)}
    if 1 in grid_pos:
        collect(grid_pos[1], 1, histo)
    U = rng.random((horizon - 1, count))
    for tt in range(2, horizon + 1):
        xi = U[tt - 2] < alpha
        u = np.ones(count, dtype=np.int64)
        if alpha > 0:
            u = np.minimum(1 + np.floor(U[tt - 2] / alpha * (tt - 1)), tt - 1).astype(np.int64)
        root = labels[rows, u]
        r = rows[xi]
        rt = root[xi]
        s_old = sizes[r, rt]
        histo[r, s_old % modulus] -= 1
        sizes[r, rt] = s_old + 1
        histo[r, (s_old + 1) % modulus] += 1
        labels[:, tt] = np.where(xi, root, tt)
        f = rows[~xi]
        sizes[f, tt] = 1
        histo[f, 1 % modulus] += 1
        if tt in grid_pos:
            collect(grid_pos[tt], tt, histo)


def ufunc_at_evolve(alpha, grid, modulus, count, rng, collect):
    """The per-step form of ``evolve_size_histograms`` it replaced, as a reference.

    The same draws in blocks of 128 steps; the state time-major (slot
    t * count + r for both root times and residues), and the histogram moved
    at every step by one ``np.subtract.at`` and one ``np.add.at``.  Returns
    (histo, root_time, residue).
    """
    grid = np.asarray(grid, dtype=np.int64)
    horizon = int(grid[-1])
    slots = (horizon + 1) * count
    root_time = np.zeros(slots, dtype=np.int32)
    residue = np.zeros(slots, dtype=np.int64)
    histo = np.zeros((count, modulus), dtype=np.int64)
    succ = np.arange(1, modulus + 1) % modulus
    histo_flat = histo.reshape(-1)
    rows = np.arange(count, dtype=np.intp)
    histo_rows = rows * modulus
    grid_pos = {int(t): i for i, t in enumerate(grid)}
    root_time[count : 2 * count] = 1
    residue[count : 2 * count] = 1 % modulus
    histo[:, 1 % modulus] += 1
    if 1 in grid_pos:
        collect(grid_pos[1], 1, histo)
    t = 2
    while t <= horizon:
        t_hi = min(t + 128, horizon + 1)
        times = np.arange(t, t_hi, dtype=np.intp)[:, None]
        xi_blk, u_blk = F.choices_from_uniforms(rng.random((t_hi - t, count)), alpha, times)
        u_blk += ~xi_blk
        u_blk *= count
        u_blk += rows
        root_time[t * count : t_hi * count].reshape(-1, count)[:] = times
        xi_int = xi_blk.astype(np.int64)
        for i in range(t_hi - t):
            tt = t + i
            root_t = root_time.take(u_blk[i])
            root_time[tt * count : (tt + 1) * count] = root_t
            root = root_t.astype(np.intp) * count + rows
            r_old = residue.take(root)
            r_new = succ.take(r_old)
            residue[root] = r_new
            np.subtract.at(histo_flat, histo_rows + r_old, xi_int[i])
            np.add.at(histo_flat, histo_rows + r_new, 1)
            if tt in grid_pos:
                collect(grid_pos[tt], tt, histo)
        t = t_hi
    return histo, root_time, residue


class TestEvolveHistograms:
    GRID = [1, 2, 3, 5, 8, 40, 127, 128, 129, 200, 301]

    @pytest.mark.parametrize("modulus", [1, 2, 3, 66, 300])
    @pytest.mark.parametrize("alpha", [0.0, 0.55, 0.9])
    @pytest.mark.parametrize("count", [1, 6, 513])
    def test_matches_the_per_step_ufunc_at_loop(self, modulus, alpha, count, monkeypatch):
        seed = 7 * modulus + count
        want = []
        histo, root_time, residue = ufunc_at_evolve(
            alpha, self.GRID, modulus, count, stream(seed, 0),
            lambda gi, t, h: want.append((gi, t, h.copy())),
        )
        rng = stream(seed, 0)
        rng.random((self.GRID[-1] - 1, count))
        position = rng.random()
        # one pass, and passes resumed after grid points on both sides of 128
        for block in (1, 7, 32, 128):
            monkeypatch.setattr(F, "RNG_BLOCK", block)
            for cuts in ([], [7], [6, 8], [9, 10]):
                got, state = [], None
                for cut in [*cuts, len(self.GRID)]:
                    state = F.evolve_size_histograms(
                        alpha, self.GRID[:cut], modulus, count,
                        None if state else stream(seed, 0),
                        lambda gi, t, h: got.append((gi, t, h.copy())), state,
                    )
                assert [(gi, t) for gi, t, _ in got] == [(gi, t) for gi, t, _ in want]
                for (_, t, a), (_, _, b) in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (block, cuts, t)
                assert np.array_equal(state.histo, histo)
                if modulus == 2:
                    # each root's parity is the sign of its own root-time slot
                    assert np.array_equal(np.abs(state.root_time), root_time)
                    is_root = root_time == np.arange(root_time.size) // count
                    assert np.array_equal(state.root_time[is_root] < 0, residue[is_root] == 1)
                    assert (state.root_time[~is_root] > 0).all() and state.residue.size == 0
                else:
                    assert np.array_equal(state.root_time, root_time)
                    # residues replica-major, the reference's time-major
                    assert np.array_equal(state.residue, residue.reshape(-1, count).T)
                assert state.rng.random() == position

    # grid points on both sides of the first two RNG block boundaries
    BLOCK_TIMES = (1, 2, F.RNG_BLOCK, F.RNG_BLOCK + 1, F.RNG_BLOCK + 2, 2 * F.RNG_BLOCK + 6)

    @pytest.mark.parametrize("modulus", [2, 66, 300])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95])
    @pytest.mark.parametrize("count", [1, 5])
    def test_matches_reference_loop_exactly(self, modulus, alpha, count):
        for horizon in self.BLOCK_TIMES:
            times = [t for t in self.BLOCK_TIMES if t <= horizon]
            for grid in (times, times[1:]):
                if not grid:
                    continue
                got, want = [], []
                seed = 1000 * modulus + count
                F.evolve_size_histograms(
                    alpha, np.array(grid), modulus, count, stream(seed, 0),
                    lambda gi, t, h: got.append((gi, t, h.copy())),
                )
                reference_evolve(
                    alpha, np.array(grid), modulus, count, stream(seed, 0),
                    lambda gi, t, h: want.append((gi, t, h.copy())),
                )
                assert [(gi, t) for gi, t, _ in got] == [(gi, t) for gi, t, _ in want]
                for (_, t, a), (_, _, b) in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (horizon, grid, t)

    def test_histogram_weighted_sizes_sum_to_time(self):
        # with modulus > horizon the histogram is the exact size distribution
        alpha, R = 0.6, 17
        got = {}

        def collect(gi, t, histo):
            got[t] = histo.copy()

        F.evolve_size_histograms(alpha, np.array([100, 257]), 300, R, stream(12, 0), collect)
        assert set(got) == {100, 257}
        sizes = np.arange(300)
        for t, h in got.items():
            assert (h >= 0).all()
            assert np.array_equal(h @ sizes, np.full(R, t))

    def test_mod2_histogram_counts_odd_clusters(self):
        alpha, n, R = 0.5, 400, 50
        res = {}

        def collect(gi, t, histo):
            res[t] = histo[:, 1].copy()

        F.evolve_size_histograms(alpha, np.array([n]), 2, R, stream(3, 0), collect)
        odd = res[n]
        assert odd.shape == (50,)
        assert (odd >= 1).all()  # cluster of vertex 1's parity or a singleton exists

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            F.evolve_size_histograms(0.5, np.array([5, 5]), 2, 3, stream(0, 0), lambda *a: None)


class TestDrawRule:
    """Stream layout v2: one uniform per vertex gives both xi and u."""

    @pytest.mark.parametrize("alpha", [1e-9, 1 / 3, 0.5, 0.7, 0.999999, 1.0])
    def test_u_stays_in_range_just_below_alpha(self, alpha):
        t = 10**6
        U = np.array([np.nextafter(alpha, 0.0), 0.0, alpha, 1.0 - 2**-53])
        xi, u = F.choices_from_uniforms(U, alpha, t)
        assert xi.tolist() == [True, True, False, alpha == 1.0]
        assert ((1 <= u) & (u <= t - 1)).all()
        assert u[1] == 1

    @given(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(2, 2**31),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_clamp_binds_only_for_fresh_vertices(self, alpha, frac, j):
        # U < alpha gives fl(U / alpha) <= 1 - 2^-53, so the product stays
        # below j - 1 and a retained vertex keeps floor(product); U >= alpha
        # gives a product >= j - 1, which the clamp maps to j - 1
        pred = math.nextafter(alpha, 0.0)
        retained = [pred, max(math.nextafter(pred, 0.0), 0.0), min(frac * alpha, pred)]
        fresh = [alpha, max(frac, alpha)]
        for U in retained:
            assert U < alpha and (U / alpha) * (j - 1) < j - 1
        for U in fresh:
            assert (U / alpha) * (j - 1) >= j - 1
        U = np.array(retained + fresh)
        want = np.floor((U[:3] / alpha) * (j - 1)).astype(np.intp) + 1
        xi, u = F.choices_from_uniforms(U, alpha, j)
        assert xi.tolist() == [True] * 3 + [False] * 2
        assert u[:3].tolist() == want.tolist() and u[3:].tolist() == [j - 1] * 2

    def test_alpha_zero_is_all_fresh_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi, u = F.choices_from_uniforms(stream(1, 0).random((50, 40)), 0.0, np.arange(2, 42))
            got = []
            F.evolve_size_histograms(
                0.0, [1, 7, 300], 2, 5, stream(1, 0), lambda gi, t, h: got.append(h.copy())
            )
        assert not xi.any() and (u == np.arange(1, 41)).all()
        assert [h[:, 1].tolist() for h in got] == [[1] * 5, [7] * 5, [300] * 5]

    def test_u_uniform_and_xi_bernoulli(self):
        # chi-square of u given xi against uniform on 1..t-1, for a few t, and a
        # z-test of the retained share; both are far from their 1e-4 quantiles
        from scipy import stats

        alpha, t, R = 0.3, 12, 200_000
        xi, u = F.choices_from_uniforms(stream(5, 0).random(R), alpha, t)
        k = int(xi.sum())
        assert abs(k - alpha * R) < 4 * math.sqrt(R * alpha * (1 - alpha))
        counts = np.bincount(u[xi], minlength=t)[1:]
        assert counts.sum() == k and counts.size == t - 1
        chi2 = float(((counts - k / (t - 1)) ** 2).sum() / (k / (t - 1)))
        assert chi2 < stats.chi2.ppf(1 - 1e-4, t - 2)

    def test_batch_choices_draw_one_uniform_per_vertex_replica_major(self):
        n, alpha, count = 30, 0.6, 7
        xi, u = F.sample_batch_choices(n, alpha, count, stream(9, 0))
        want_xi, want_u = F.choices_from_uniforms(
            stream(9, 0).random((count, n - 1)), alpha, np.arange(2, n + 1)
        )
        assert np.array_equal(xi, want_xi) and np.array_equal(u, want_u)
        assert u.dtype == np.int32

    @pytest.mark.parametrize("modulus", [1, 2, 3, 66])
    def test_evolved_histograms_match_forests_rebuilt_from_the_draws(self, modulus):
        # the same (xi, u), taken time-major from the stream, through forest_from_choices
        count, grid = 6, [1, 2, 9, 40, 333]
        horizon = grid[-1]
        times = np.arange(2, horizon + 1)[:, None]
        for alpha in (0.0, 0.55):
            got = {}
            F.evolve_size_histograms(
                alpha, grid, modulus, count, stream(4, 0),
                lambda gi, t, h: got.__setitem__(t, h.copy()),
            )
            U = stream(4, 0).random((horizon - 1, count))
            xi, u = F.choices_from_uniforms(U, alpha, times)
            for r in range(count):
                forest = F.forest_from_choices(xi[:, r], u[:, r], alpha)
                for t in grid:
                    sizes = forest.cluster_sizes_at(t)
                    want = np.bincount(sizes[sizes > 0] % modulus, minlength=modulus)
                    assert np.array_equal(got[t][r], want), (alpha, r, t)


class TestResumableEvolution:
    GRID = [1, 2, 3, 5, 8, 40, 127, 128, 129, 300, 301, 700]

    def _run(self, alpha, modulus, count, seed, grids):
        """Evolve through ``grids`` in turn, each call resuming the last state."""
        seen, state = [], None
        for grid in grids:
            rng = None if state else stream(seed, 0)
            state = F.evolve_size_histograms(
                alpha, grid, modulus, count, rng,
                lambda gi, t, h: seen.append((gi, t, h.copy())), state,
            )
        return seen, state

    @pytest.mark.parametrize("modulus", [2, 66, 300])
    def test_resumed_run_matches_one_pass(self, modulus):
        alpha, count = 0.6, 9
        full = self.GRID
        one, s1 = self._run(alpha, modulus, count, 3, [full])
        split, s2 = self._run(alpha, modulus, count, 3, [full[:6], full[:9], full])
        assert [(gi, t) for gi, t, _ in split] == [(gi, t) for gi, t, _ in one]
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(split, one))
        assert s1.t == s2.t == full[-1]
        for name in ("root_time", "residue", "histo"):
            a, b = getattr(s1, name), getattr(s2, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert s1.residue.dtype == (np.int8 if modulus <= 128 else np.int16)
        assert s1.rng.random() == s2.rng.random()

    def test_resume_across_the_wider_root_time_type(self):
        # root times are int16 below t = 2**15 and int32 from there on; at
        # modulus 2 the negative slots of odd roots survive the widening
        for modulus in (2, 6):
            one, s1 = self._run(0.4, modulus, 2, 5, [[30_000, 40_000]])
            split, s2 = self._run(0.4, modulus, 2, 5, [[30_000], [30_000, 40_000]])
            assert [t for _, t, _ in split] == [30_000, 40_000]
            assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(split, one))
            assert s1.root_time.dtype == s2.root_time.dtype == np.int32
            assert np.array_equal(s1.root_time, s2.root_time)
            assert (s2.root_time[: 30_001 * 2] < 0).any() == (modulus == 2)

    @pytest.mark.parametrize("modulus", [2, 66])
    def test_rng_block_sets_memory_only(self, modulus, monkeypatch):
        seen = {}
        for block in (1, 7, 32, 128, 512):
            monkeypatch.setattr(F, "RNG_BLOCK", block)
            got, _ = self._run(0.5, modulus, 11, 8, [self.GRID])
            seen[block] = got
        for block in (7, 32, 128, 512):
            assert [t for _, t, _ in seen[block]] == self.GRID
            assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(seen[1], seen[block]))

    @pytest.mark.parametrize("modulus", [2, 66])
    def test_a_resumed_pass_allocates_only_its_state_and_buffers(self, modulus):
        # tracemalloc's peak over a resumed pass from t = 10 to 110, at two
        # counts: per replica it grows by exactly the new state plus
        # buffer_nbytes less the histogram the state brings.  A step that
        # allocated even one byte per replica (a gather copying its `out`, a
        # cast of its indices) would add the difference of the counts, 8192
        # bytes.  numpy's cast buffers are shrunk to 16 elements, so that
        # they cannot hide such a copy under the peak; what does not grow
        # with the count stays under 64 KiB.
        import tracemalloc

        excess = []
        bufsize = np.setbufsize(16)
        try:
            for count in (8192, 16384):
                _, state = self._run(0.5, modulus, count, 5, [[10]])
                tracemalloc.start()
                try:
                    F.evolve_size_histograms(
                        0.5, [20, 33, 50, 75, 110], modulus, count, None, lambda *a: None, state
                    )
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                held = F.state_nbytes(count, 110, modulus) + F.buffer_nbytes(count, 110, modulus)
                excess.append(peak - (held - state.histo.nbytes))
        finally:
            np.setbufsize(bufsize)
        assert 0 <= excess[0] < 64 << 10
        assert abs(excess[1] - excess[0]) < 1024

    def test_a_pass_at_a_large_modulus_stays_under_its_bound(self):
        # at modulus n + 1 the histogram and the successor table hold a cell
        # per size; the pass's traced peak stays within state_nbytes plus
        # buffer_nbytes, which count them, and the 64 KiB of the tests above.
        # Building the successor table through int64 temporaries of `modulus`
        # entries would add 312 KiB here
        import tracemalloc

        n, count = 20_000, 200
        rng = stream(5, 0)  # created outside the trace: numpy.random's first import allocates
        bufsize = np.setbufsize(16)  # numpy's cast buffers, as above
        try:
            tracemalloc.start()
            try:
                F.evolve_size_histograms(0.5, [n], n + 1, count, rng, lambda *a: None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            np.setbufsize(bufsize)
        held = F.state_nbytes(count, n, n + 1) + F.buffer_nbytes(count, n, n + 1)
        assert peak <= held + (64 << 10)

    @pytest.mark.parametrize("modulus", [2, 66])
    @pytest.mark.parametrize("start,stop", [(10, 110), (1000, 1100)])
    def test_a_resumed_pass_grows_its_root_times_in_place(self, modulus, start, stop):
        # traced from before the first pass, so that the old state counts: a
        # resumed pass's peak rises by at most the state's growth, its
        # buffers less the histogram the state brings, and at modulus 66 the
        # residues, which are still copied.  A copy of the root times beside
        # the old ones adds 2 * (start + 1) bytes per replica, which at
        # start = 1000 no buffer covers
        import tracemalloc

        bufsize = np.setbufsize(16)  # numpy's cast buffers, as above
        try:
            for count in (8192, 16384):
                tracemalloc.start()
                try:
                    _, state = self._run(0.5, modulus, count, 5, [[start]])
                    old = state.root_time.nbytes + state.residue.nbytes
                    copied = state.residue.nbytes
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    F.evolve_size_histograms(
                        0.5, [stop], modulus, count, None, lambda *a: None, state
                    )
                    rise = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
                grown = F.state_nbytes(count, stop, modulus) - old
                held = grown + F.buffer_nbytes(count, stop, modulus) - state.histo.nbytes + copied
                assert rise - held < 64 << 10
        finally:
            np.setbufsize(bufsize)

    def test_a_widening_resume_stays_under_the_pass_bound(self, monkeypatch):
        # int16 -> int32 at t = 2**15 is the one resume that copies its root
        # times.  The pass's traced peak plus the state it brought, held
        # throughout (an overcount), stays under what check_forest_pass counts
        import re
        import tracemalloc

        from srrw_lab import metrics as M

        count = 64
        _, state = self._run(0.4, 2, count, 5, [[30_000]])
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", 0)
        with pytest.raises(CapacityError) as err:
            M.check_forest_pass(40_000, 2, count, count, 1, M.Checkpoint([state]))
        bound = int(re.search(r"hold (\d+) bytes", str(err.value))[1])
        brought = state.root_time.nbytes
        tracemalloc.start()
        try:
            F.evolve_size_histograms(0.4, [40_000], 2, count, None, lambda *a: None, state)
            peak = tracemalloc.get_traced_memory()[1] + brought
        finally:
            tracemalloc.stop()
        assert state.root_time.dtype == np.int32 and peak < bound

    @pytest.mark.parametrize("modulus", [2, 66])
    def test_a_state_grows_in_place_or_is_refused_before_any_draw(self, modulus):
        _, state = self._run(0.5, modulus, 3, 0, [[5]])
        view = state.root_time[:3]
        rng_state, root_time = state.rng.bit_generator.state, state.root_time.copy()
        with pytest.raises(ParameterError, match="referenced elsewhere"):
            F.evolve_size_histograms(0.5, [9], modulus, 3, None, lambda *a: None, state)
        assert state.t == 5 and state.rng.bit_generator.state == rng_state
        assert np.array_equal(state.root_time, root_time)
        del view  # then the same array grows, as one pass would have grown it
        ident = id(state.root_time)
        _, one = self._run(0.5, modulus, 3, 0, [[9]])
        F.evolve_size_histograms(0.5, [9], modulus, 3, None, lambda *a: None, state)
        assert id(state.root_time) == ident and np.array_equal(state.root_time, one.root_time)

    def test_resume_checks_its_arguments(self):
        _, state = self._run(0.5, 2, 3, 0, [[5]])
        with pytest.raises(ParameterError):  # the state holds its own generator
            F.evolve_size_histograms(0.5, [9], 2, 3, stream(0, 0), lambda *a: None, state)
        with pytest.raises(ParameterError):
            F.evolve_size_histograms(0.5, [9], 4, 3, None, lambda *a: None, state)
        with pytest.raises(ParameterError):
            F.evolve_size_histograms(0.5, [4], 2, 3, None, lambda *a: None, state)

    def test_state_nbytes_counts_slots(self):
        _, state = self._run(0.5, 66, 10, 0, [[100]])
        assert F.state_nbytes(10, 100, 66) == state.root_time.nbytes + state.residue.nbytes
        assert F.state_nbytes(10, 100, 66) == 101 * 10 * 3
        assert F.state_nbytes(10, 100, 300) == 101 * 10 * 4
        assert F.state_nbytes(10, 2**15, 300) == (2**15 + 1) * 10 * 6
        # at modulus 2 a root's parity is the sign of its root time: no residues
        _, state = self._run(0.5, 2, 10, 0, [[100]])
        assert F.state_nbytes(10, 100, 2) == state.root_time.nbytes + state.residue.nbytes
        assert F.state_nbytes(10, 100, 2) == 101 * 10 * 2
        assert F.state_nbytes(10, 2**15, 2) == (2**15 + 1) * 10 * 4
