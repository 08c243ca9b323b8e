import numpy as np
import pytest

from srrw_lab import forest as F
from srrw_lab import special as sp
from srrw_lab.errors import ParameterError
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
            counts = F.sample_cluster_size_counts(n, a, R, 101, k_max=1, chunk=5000)[0][:, 0]
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
            counts = F.sample_cluster_size_counts(n, a, R, 55, k_max=1, chunk=5000)[0][:, 0]
            frac = float((counts <= (1 - a) * n / 8).mean())
            assert frac <= 0.01


class TestThetaDensities:
    def test_size_densities_match_theta(self):
        # smaller sibling of the acceptance run: n=20000, R=60
        n, R, a = 20_000, 60, 0.5
        counts, odd = F.sample_cluster_size_counts(n, a, R, master_seed=31, k_max=5)
        means = counts.mean(axis=0) / n
        for k in range(1, 6):
            assert abs(means[k - 1] - sp.theta_k(a, k)) < 0.01
        assert abs(odd.mean() / n - sp.odd_cluster_density(a)) < 0.005


def reference_evolve(alpha, grid, modulus, count, rng, collect):
    """Column-per-time evolution with boolean-compacted histogram updates.

    The straightforward form of ``evolve_size_histograms``: same draws in the
    same order, labels and sizes stored replica-major as (count, horizon + 1).
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
    t = 2
    while t <= horizon:
        t_hi = min(t + F.RNG_BLOCK, horizon + 1)
        nsteps = t_hi - t
        xi_blk = rng.random((nsteps, count)) < alpha
        u_blk = rng.integers(
            1, np.arange(t, t_hi, dtype=np.int64)[:, None], size=(nsteps, count)
        )
        for i in range(nsteps):
            tt = t + i
            xi = xi_blk[i]
            root = labels[rows, u_blk[i]]
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
        t = t_hi


class TestEvolveHistograms:
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
