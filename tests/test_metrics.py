import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw_lab import groups as G
from srrw_lab import metrics as M
from srrw_lab import oracle as O
from srrw_lab.errors import CapacityError, DomainError, ParameterError
from srrw_lab.forest import evolve_size_histograms
from srrw_lab.streams import chunk_ranges, stream


def make_curve(ns, values, **kw):
    ns = np.asarray(ns)
    defaults = dict(
        group_desc="test",
        alpha=0.5,
        estimator="exact",
        replicas=0,
        seed=None,
        ns=ns,
        values=np.asarray(values, dtype=float),
        stderrs=np.zeros(len(ns)),
    )
    defaults.update(kw)
    return M.DistanceCurve(**defaults)


class TestDistanceCurve:
    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            make_curve([1, 3, 2], [0.1, 0.1, 0.1])

    def test_csv_carries_provenance(self, tmp_path):
        c = make_curve([1, 2], [0.5, 0.25], seed=99, estimator="rao-blackwell", replicas=10)
        path = tmp_path / "c.csv"
        c.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "seed,group,alpha,estimator,n,value,stderr,replicas"
        assert all(row.startswith("99,test,0.5,rao-blackwell") for row in lines[1:])


class TestMixingScan:
    def test_z2_exact_example(self):
        z2 = G.make_group("cyclic", 2)
        curve = O.exact_tv_curve(z2, G.uniform_mu(z2), 0.5, 6)
        assert M.mixing_time_scan(curve, 0.3).t_mix == 1
        est = M.mixing_time_scan(curve, 0.2)
        assert est.t_mix == 3 and est.t_mix > 2
        assert est.exceedances == [2]

    def test_all_zero_curve(self):
        c = make_curve([1, 2, 3], [0.0, 0.0, 0.0])
        assert M.mixing_time_scan(c, 0.5).t_mix == 1

    def test_guard_triggers_on_late_exceedance(self):
        c = make_curve([1, 50, 95, 100], [0.9, 0.1, 0.3, 0.1])
        est = M.mixing_time_scan(c, 0.25)
        assert est.guard_triggered and est.t_mix == 96

    def test_estimate_within_horizon_when_quiet(self):
        c = make_curve([1, 2, 3, 100], [0.9, 0.4, 0.1, 0.05])
        est = M.mixing_time_scan(c, 0.25)
        assert not est.guard_triggered
        assert est.t_mix == 3 <= est.horizon

    @given(st.lists(st.floats(0.0, 0.2), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_appending_quiet_points_is_invariant(self, tail):
        base_ns = [1, 2, 3, 4]
        base_vals = [0.9, 0.5, 0.3, 0.01]
        c1 = make_curve(base_ns, base_vals)
        est1 = M.mixing_time_scan(c1, 0.25)
        ns2 = base_ns + [5 + i for i in range(len(tail))]
        c2 = make_curve(ns2, base_vals + list(tail))
        est2 = M.mixing_time_scan(c2, 0.25)
        assert est2.t_mix == est1.t_mix

    def test_epsilon_validation(self):
        c = make_curve([1], [0.0])
        with pytest.raises(ParameterError):
            M.mixing_time_scan(c, 1.5)


class TestDecayFit:
    def test_recovers_synthetic_rate(self):
        alpha = 0.3
        ns = np.arange(1, 60)
        vals = 0.5 * 0.9 ** ((1 - alpha) * ns)
        fit = M.decay_rate_fit(make_curve(ns, vals), alpha)
        assert fit.rho == pytest.approx(0.9, abs=1e-6)
        assert fit.c == pytest.approx(0.5, rel=1e-6)
        assert fit.r_squared > 0.999999

    def test_trims_nonpositive(self):
        # the zero at n=3 is dropped; the remaining points stay on 0.5 * 2^-n
        ns = [1, 2, 3, 4, 5]
        vals = [0.5, 0.25, 0.0, 0.0625, 0.03125]
        fit = M.decay_rate_fit(make_curve(ns, vals), 0.0)
        assert fit.trimmed == 1 and fit.points_used == 4
        assert fit.rho == pytest.approx(0.5, abs=1e-9)

    def test_window_selection(self):
        ns = np.arange(1, 30)
        vals = np.concatenate([np.full(9, 0.7), 0.7 * 0.8 ** np.arange(20)])
        fit = M.decay_rate_fit(make_curve(ns, vals), 0.0, window=(10, 29))
        assert fit.rho == pytest.approx(0.8, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            M.decay_rate_fit(make_curve([1, 2], [0.0, 0.0]), 0.5)


class TestSpectralGap:
    def test_z3_simple(self):
        z3 = G.make_group("cyclic", 3)
        sg = M.spectral_gap(z3, G.simple_cycle_mu(z3))
        assert sg.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert sg.gamma_star == pytest.approx(0.5, abs=1e-12)

    def test_z2_lazy_uniform(self):
        z2 = G.make_group("cyclic", 2)
        sg = M.spectral_gap(z2, G.uniform_mu(z2))
        assert sg.lambda_star == pytest.approx(0.0, abs=1e-12)
        assert sg.gamma_star == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_lazy_hypercube_gap(self, d):
        h = G.make_group("hypercube", d)
        sg = M.spectral_gap(h, G.lazy_hypercube_mu(h))
        assert sg.gamma_star == pytest.approx(1.0 / d, abs=1e-12)

    def test_hypercube_closed_form_matches_eigensolver(self):
        h = G.make_group("hypercube", 2)
        mu = G.lazy_hypercube_mu(h)
        sg = M.spectral_gap(h, mu)
        lam = np.linalg.eigvalsh(G.transition_matrix(h, mu))
        dense_star = float(np.abs(np.sort(lam)[:-1]).max())
        assert sg.lambda_star == pytest.approx(dense_star, abs=1e-12)

    def test_hypercube_walsh_path(self):
        h = G.make_group("hypercube", 3)
        # support includes a weight-2 element: forces the transform path
        mu = G.StepDistribution(h, {0: 0.5, 1: 0.2, 2: 0.2, 3: 0.1})
        sg = M.spectral_gap(h, mu)
        lam = np.linalg.eigvalsh(G.transition_matrix(h, mu))
        dense_star = float(np.abs(np.sort(lam)[:-1]).max())
        assert sg.lambda_star == pytest.approx(dense_star, abs=1e-12)

    def test_symmetric_dense_path(self):
        s3 = G.make_group("symmetric", 3)
        sg = M.spectral_gap(s3, G.uniform_mu(s3))
        assert sg.lambda_star == pytest.approx(0.0, abs=1e-12)

    def test_general_dense_path_value(self):
        # non-symmetric mu generating S_3: the sign character gives 0 and the
        # 2-dimensional irrep has eigenvalues 0 and -1/2
        s3 = G.make_group("symmetric", 3)
        mu = G.StepDistribution(s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 2, 3)): 0.5})
        assert not G.distribution_predicates(s3, mu).symmetric
        sg = M.spectral_gap(s3, mu)
        assert sg.lambda_star == pytest.approx(0.5, abs=1e-12)
        assert sg.gamma_star == pytest.approx(0.5, abs=1e-12)

    def test_capacity_for_general_matrices(self):
        lam = G.make_group("lamplighter", 8)  # order 2048 > 512, non-symmetric mu
        mu = G.StepDistribution(
            lam, {lam.encode(0, 0): 0.5, lam.encode(1, 0): 0.3, lam.encode(0, 1): 0.2}
        )
        with pytest.raises(CapacityError):
            M.spectral_gap(lam, mu)

    def test_z5_simple_value(self):
        z5 = G.make_group("cyclic", 5)
        sg = M.spectral_gap(z5, G.simple_cycle_mu(z5))
        assert sg.lambda_star == pytest.approx(math.cos(math.pi / 5), abs=1e-12)


class TestEmpiricalTv:
    def test_point_mass_samples(self):
        z3 = G.make_group("cyclic", 3)
        v, se = M.empirical_tv_estimator(np.zeros(1000, dtype=int), z3)
        assert v == pytest.approx(1 - 1 / 3, abs=1e-12)

    def test_uniform_synthetic_bias_small(self):
        z3 = G.make_group("cyclic", 3)
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 3, size=10**6)
        v, _ = M.empirical_tv_estimator(samples, z3)
        assert v < 0.005

    def test_warns_below_replica_floor(self):
        z3 = G.make_group("cyclic", 3)
        with pytest.warns(UserWarning):
            M.empirical_tv_estimator(np.zeros(100, dtype=int), z3)

    def test_against_oracle_three_sigma(self):
        from srrw_lab import walk as W

        z3 = G.make_group("cyclic", 3)
        mu = G.simple_cycle_mu(z3)
        exact = O.exact_endpoint_distribution(z3, mu, 0.5, 2).tv_to_uniform()
        ends = W.sample_endpoints_direct(z3, mu, 0.5, 2, 10**6, 13)
        v, se = M.empirical_tv_estimator(ends, z3)
        assert abs(v - exact) < 3 * se + 1e-4


@pytest.fixture(scope="module")
def z3_oracle_curves():
    z3 = G.make_group("cyclic", 3)
    mu = G.simple_cycle_mu(z3)
    return {
        (a, n): O.exact_endpoint_distribution(z3, mu, a, n)
        for a in (0.5,)
        for n in range(1, 8)
    }


class TestRaoBlackwell:
    def test_single_step_profile(self):
        dv = M.rao_blackwell_cycle_distribution(5, 0.5, 1, 64, 3)
        assert dv.probs[0] == pytest.approx(0.0, abs=1e-12)
        assert dv.probs[1] == pytest.approx(0.5, abs=1e-12)
        assert dv.probs[4] == pytest.approx(0.5, abs=1e-12)

    def test_multiple_of_L_contributes_unit_factor(self):
        tab = M._CycleTables(5)
        h = np.zeros((1, 10), dtype=np.int64)
        h[0, 0] = 3  # three clusters of size = 0 mod 2L (i.e. multiples of 10)
        assert np.abs(tab.phi(h) - 1.0).max() < 1e-12
        h2 = np.zeros((1, 10), dtype=np.int64)
        h2[0, 5] = 1  # one cluster of size = L mod 2L: cos(2 pi k) = 1 as well
        assert np.abs(tab.phi(h2) - 1.0).max() < 1e-12

    def test_full_enumeration_matches_oracle(self, z3_oracle_curves):
        tab = M._CycleTables(3)
        for n in (2, 4, 6, 7):
            acc = np.zeros(tab.K)
            for ef in O.enumerate_forests(n, 0.5):
                sizes = ef.forest.cluster_sizes_at()
                live = sizes[sizes > 0]
                h = np.bincount(live % 6, minlength=6)[None, :]
                acc += ef.weight * tab.phi(h)[0]
            probs = tab.distribution_from_phi(acc)
            exact = z3_oracle_curves[(0.5, n)].probs
            assert np.abs(probs - exact).max() < 1e-10

    def test_monte_carlo_against_oracle(self, z3_oracle_curves):
        exact = z3_oracle_curves[(0.5, 6)].tv_to_uniform()
        curve = M.rao_blackwell_cycle_curve(3, 0.5, [6], 8000, 17, chunk=1000)
        assert abs(curve.values[0] - exact) < 4 * curve.stderrs[0] + 5e-3

    def test_curve_values_in_range(self):
        curve = M.rao_blackwell_cycle_curve(9, 0.7, [1, 5, 20, 80], 2000, 23, chunk=500)
        assert (curve.values >= 0).all() and (curve.values <= 1).all()
        assert (np.diff(curve.ns) > 0).all()

    def test_even_L_rejected(self):
        with pytest.raises(ParameterError):
            M.rao_blackwell_cycle_distribution(6, 0.5, 3, 10, 0)

    def test_stderr_zero_when_every_replica_has_the_same_forest(self):
        # alpha = 0: every cluster is a singleton, so every replica has one phi
        grid = [1, 2, 3, 4, 5, 6, 7, 40, 300]
        curve = M.rao_blackwell_cycle_curve(9, 0.0, grid, 1000, 7, chunk=300)
        assert curve.stderrs.tolist() == [0.0] * len(grid)

    def test_stderr_matches_centred_per_replica_reference(self):
        # reference: the two-pass variance of the per-replica scalar phi . grad,
        # over every replica's phi taken from the chunks' own forest streams.
        # Tolerance: the rounding floor of a quadratic form in a centred second
        # moment, eps |grad|^2 sum_r |phi_r - mean|^2, which matters where every
        # replica has the same phi . grad (n <= 6 here) although phi differs
        L, alpha, replicas, seed, chunk = 9, 0.6, 1000, 7, 300
        grid = [1, 2, 3, 4, 5, 6, 17, 40, 300]
        curve = M.rao_blackwell_cycle_curve(L, alpha, grid, replicas, seed, chunk=chunk)
        tab = M._CycleTables(L)
        phis = [[] for _ in grid]
        for ci, (start, stop) in enumerate(chunk_ranges(replicas, chunk)):
            evolve_size_histograms(
                alpha, grid, 2 * L, stop - start, stream(seed, ci),
                lambda gi, t, histo: phis[gi].append(tab.phi(histo)),
            )
        C = (2.0 / L) * tab.dft
        pairs = replicas * (replicas - 1)
        for i, parts in enumerate(phis):
            phi = np.concatenate(parts)
            grad = 0.5 * (C.T @ np.sign(C @ phi.mean(axis=0)))
            x = phi @ grad
            ref = math.sqrt(float(((x - x.mean()) ** 2).sum()) / pairs)
            spread = float(((phi - phi.mean(axis=0)) ** 2).sum())
            floor = math.sqrt(np.finfo(float).eps * float(grad @ grad) * spread / pairs)
            assert abs(curve.stderrs[i] - ref) <= 4 * floor + 1e-12 * ref + 1e-16


class TestFourierBound:
    def test_single_step_value(self):
        b, se = M.fourier_tv_bound_cycle(3, 0.5, 1, 32, 0)
        assert b == pytest.approx(0.125, abs=1e-12)
        exact_tv = 1.0 / 3.0
        assert b >= exact_tv**2

    def test_cycle_spanning_clusters_do_not_decay(self):
        tab = M._CycleTables(5)
        h = np.zeros((1, 10), dtype=np.int64)
        h[0, 5] = 4  # all clusters have size L: cos^2(pi k) = 1 per frequency
        assert tab.bound_terms(h)[0] == pytest.approx(tab.K / 2.0, abs=1e-12)

    def test_bound_dominates_rb_tv_squared(self):
        L, alpha, n, R = 33, 0.75, 2000, 3000
        bound, bse = M.fourier_tv_bound_cycle(L, alpha, n, R, 7, chunk=750)
        curve = M.rao_blackwell_cycle_curve(L, alpha, [n], R, 7, chunk=750)
        tv = float(curve.values[0])
        combined = 4 * (bse + 2 * tv * curve.stderrs[0])
        assert bound >= tv**2 - combined

    def test_bound_dominates_on_small_fixture(self, z3_oracle_curves):
        for n in (2, 4, 6):
            bound, _ = M.fourier_tv_bound_cycle(3, 0.5, n, 4000, 29, chunk=1000)
            exact_tv = z3_oracle_curves[(0.5, n)].tv_to_uniform()
            assert bound >= exact_tv**2 - 4e-3

    def test_stderr_zero_when_every_replica_has_the_same_forest(self):
        # alpha = 0: every cluster is a singleton, so every replica has one term
        bound, se = M.fourier_tv_bound_cycle(9, 0.0, 7, 1000, 7, chunk=300)
        assert bound > 0.0 and se == 0.0

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 300])
    def test_stderr_matches_centred_per_replica_reference(self, n):
        # reference: the two-pass spread of the per-replica terms, over every
        # replica's term taken from the chunks' own forest streams; a sum of R
        # terms carries at most about R eps relative rounding
        L, alpha, replicas, seed, chunk = 9, 0.6, 1000, 7, 300
        _, se = M.fourier_tv_bound_cycle(L, alpha, n, replicas, seed, chunk=chunk)
        tab = M._CycleTables(L)
        parts = []
        for ci, (start, stop) in enumerate(chunk_ranges(replicas, chunk)):
            evolve_size_histograms(
                alpha, [n], 2 * L, stop - start, stream(seed, ci),
                lambda gi, t, histo: parts.append(tab.bound_terms(histo)),
            )
        v = np.concatenate(parts)
        ref = math.sqrt(float(((v - v.mean()) ** 2).sum())) / replicas
        assert se == pytest.approx(ref, rel=replicas * np.finfo(float).eps, abs=0.0)


class TestWeightChain:
    def test_zero_steps(self):
        q = M.hypercube_weight_chain_table(5, 0)[0]
        assert q[0] == 1.0 and q[1:].sum() == 0.0

    def test_one_step_d2(self):
        q = M.hypercube_weight_chain_table(2, 1)[1]
        assert np.allclose(q, [0.5, 0.5, 0.0], atol=1e-15)

    def test_mass_conserved_per_step(self):
        table = M.hypercube_weight_chain_table(17, 400)
        assert np.abs(table.sum(axis=1) - 1.0).max() < 1e-14
        assert table.min() >= 0.0

    def test_long_run_reaches_binomial(self):
        d = 12
        m = int(10 * d * math.log(d))
        q = M.hypercube_weight_chain_table(d, m)[m]
        pi = M.hypercube_stationary_weights(d)
        assert 0.5 * np.abs(q - pi).sum() < 1e-6

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 1024])
    def test_stationary_weights_correctly_rounded(self, d):
        pi = M.hypercube_stationary_weights(d)
        assert pi.tolist() == [math.comb(d, w) / 2**d for w in range(d + 1)]
        assert math.fsum(pi) == 1.0


class TestHypercubeEstimator:
    def test_n1_matches_single_lazy_step(self):
        d = 7
        v = M.hypercube_tv_curve(d, 0.3, [1], 500, 3, chunk=100).values[0]
        q1 = M.hypercube_weight_chain_table(d, 1)[1]
        pi = M.hypercube_stationary_weights(d)
        assert v == pytest.approx(0.5 * np.abs(q1 - pi).sum(), abs=1e-12)

    def test_d2_against_oracle(self):
        h2 = G.make_group("hypercube", 2)
        mu = G.lazy_hypercube_mu(h2)
        exact = O.exact_endpoint_distribution(h2, mu, 0.5, 4).tv_to_uniform()
        curve = M.hypercube_tv_curve(2, 0.5, [4], 40_000, 5, chunk=5000)
        v, se = curve.values[0], curve.stderrs[0]
        assert abs(v - exact) < 3 * se + 2e-3

    def test_classical_crossing_near_half_dlogd(self):
        d = 64
        target = 0.5 * d * math.log(d)
        grid = M.geometric_grid(int(target + 3 * d), 60)
        curve = M.hypercube_tv_curve(d, 0.0, grid, 8, 1)  # alpha=0: deterministic
        est = M.mixing_time_scan(curve, 0.25)
        assert abs(est.t_mix - target) <= 1.5 * d

    @pytest.mark.parametrize(
        "d, alpha, horizon, replicas, seed",
        [(64, 0.5, 600, 1000, 5), (128, 0.3, 1500, 500, 4)],
    )
    def test_stderr_matches_quadratic_form(self, d, alpha, horizon, replicas, seed):
        # reference: grad^T cov grad with the (d+1)^2 multinomial covariance
        # of the rows q_{N_J}; compared where it is above 1e-9 and does not
        # cancel more than 6 digits (E[(q.grad)^2] / Var < 1e6)
        grid = M.geometric_grid(horizon, 20)
        curve = M.hypercube_tv_curve(d, alpha, grid, replicas, seed)
        (counts,) = M._forest_sums(
            alpha, grid, 2, replicas, seed, 2048, 1,
            lambda histo: (np.bincount(histo[:, 1], minlength=horizon + 2),),
        )
        qtable = M.hypercube_weight_chain_table(d, horizon + 1)
        pi = M.hypercube_stationary_weights(d)
        compared = 0
        for i, c in enumerate(counts):
            p_hat = (c.astype(float) @ qtable) / replicas
            grad = 0.5 * np.sign(p_hat - pi)
            nz = np.nonzero(c)[0]
            A = qtable[nz]
            second = A.T @ ((c[nz] / replicas)[:, None] * A)
            cov = (second - np.outer(p_hat, p_hat)) / (replicas - 1)
            ref = math.sqrt(max(float(grad @ cov @ grad), 0.0))
            spread = float(grad @ second @ grad) / ((replicas - 1) * ref**2) if ref else math.inf
            if ref > 1e-9 and spread < 1e6:
                assert curve.stderrs[i] == pytest.approx(ref, rel=1e-8, abs=0)
                compared += 1
        assert compared >= 15

    def test_stderr_zero_when_every_replica_has_one_odd_count(self):
        # alpha = 0: every cluster is a singleton, so N_J(n) = n in every replica
        grid = M.geometric_grid(400, 40)
        curve = M.hypercube_tv_curve(64, 0.0, grid, 1000, 1)
        assert curve.stderrs.tolist() == [0.0] * grid.size

    def test_exchangeability_reconstruction_d2(self):
        # full-enumeration weight marginal equals the oracle's, n <= 6
        h2 = G.make_group("hypercube", 2)
        mu = G.lazy_hypercube_mu(h2)
        qtab = M.hypercube_weight_chain_table(2, 8)
        for n in (1, 2, 3, 4, 5, 6):
            pw = np.zeros(3)
            for ef in O.enumerate_forests(n, 0.5):
                sizes = ef.forest.cluster_sizes_at()
                live = sizes[sizes > 0]
                nj = int((live % 2 == 1).sum())
                pw += ef.weight * qtab[nj]
            exact = O.exact_endpoint_distribution(h2, mu, 0.5, n).probs
            # element law from the weight marginal: split weight-w mass evenly
            recon = np.array([pw[0], pw[1] / 2, pw[1] / 2, pw[2]])
            assert np.abs(recon - exact).max() < 1e-10


SHARED_SCANS = [
    # (mixing-time function, estimator it builds curves with, size, alpha, horizon0)
    (M.cycle_mixing_time, "rao_blackwell_cycle_curve", 5, 0.6, 8),
    (M.hypercube_mixing_time, "hypercube_tv_curve", 8, 0.5, 16),
]


class TestSharedCurveScan:
    EPSILONS = (0.5, 0.25, 0.05)

    @pytest.mark.parametrize("mixing_time, estimator, size, alpha, horizon0", SHARED_SCANS)
    def test_shared_memo_matches_independent_scans(
        self, mixing_time, estimator, size, alpha, horizon0
    ):
        args = (size, alpha)
        solo = [mixing_time(*args, eps, 300, 11, horizon0) for eps in self.EPSILONS]
        curves = {}
        shared = [
            mixing_time(*args, eps, 300, 11, horizon0, curves=curves) for eps in self.EPSILONS
        ]
        assert any(len(run.horizons_tried) > 1 for run in solo)  # a guard doubled
        for a, b in zip(solo, shared):
            assert a.estimate == b.estimate
            assert a.horizons_tried == b.horizons_tried
            assert np.array_equal(a.curve.values, b.curve.values)
            assert np.array_equal(a.curve.stderrs, b.curve.stderrs)

    @pytest.mark.parametrize("mixing_time, estimator, size, alpha, horizon0", SHARED_SCANS)
    def test_each_horizon_is_built_once(
        self, monkeypatch, mixing_time, estimator, size, alpha, horizon0
    ):
        built = []
        original = getattr(M, estimator)

        def counting(*args, **kwargs):
            built.append(int(np.asarray(args[2])[-1]))  # grid max = horizon
            return original(*args, **kwargs)

        monkeypatch.setattr(M, estimator, counting)
        curves = {}
        runs = [
            mixing_time(size, alpha, eps, 300, 11, horizon0, curves=curves)
            for eps in self.EPSILONS
        ]
        tried = {h for run in runs for h in run.horizons_tried}
        assert sorted(built) == sorted(tried)  # once per distinct horizon
        assert len(built) < sum(len(run.horizons_tried) for run in runs)


def _view_arrays(out):
    if isinstance(out, M.DistanceCurve):
        return [out.ns, out.values, out.stderrs]
    if isinstance(out, tuple):
        return [np.asarray(out)]
    return [out.probs]


class TestForestSums:
    # every view over the shared pass, over several chunks with a short last one; at
    # these seeds, adding the chunks in another order changes the float results
    @pytest.mark.parametrize(
        "view",
        [
            lambda thr: M.rao_blackwell_cycle_curve(
                9, 0.6, [1, 2, 17, 40, 300], 1100, 7, chunk=300, threads=thr
            ),
            lambda thr: M.rao_blackwell_cycle_distribution(
                11, 0.4, 37, 1300, 9, chunk=110, threads=thr
            ),
            lambda thr: M.fourier_tv_bound_cycle(7, 0.7, 23, 1000, 8, chunk=90, threads=thr),
            lambda thr: M.hypercube_tv_curve(
                12, 0.5, [1, 3, 64, 65, 200], 3000, 10, chunk=700, threads=thr
            ),
        ],
        ids=["rb-curve", "rb-distribution", "fourier-bound", "hypercube-curve"],
    )
    def test_bit_identical_across_thread_counts(self, view):
        serial, threaded = _view_arrays(view(1)), _view_arrays(view(3))
        for a, b in zip(serial, threaded):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestEstimatorOracleBattery:
    def test_rb_within_4se_in_99_of_100(self, z3_oracle_curves):
        exact = z3_oracle_curves[(0.5, 5)].tv_to_uniform()
        fails = 0
        for seed in range(100):
            curve = M.rao_blackwell_cycle_curve(3, 0.5, [5], 1600, seed, chunk=200)
            if abs(curve.values[0] - exact) > 4 * curve.stderrs[0]:
                fails += 1
        assert fails <= 1

    def test_hypercube_within_4se_in_99_of_100(self):
        h2 = G.make_group("hypercube", 2)
        mu = G.lazy_hypercube_mu(h2)
        exact = O.exact_endpoint_distribution(h2, mu, 0.5, 4).tv_to_uniform()
        fails = 0
        for seed in range(100):
            curve = M.hypercube_tv_curve(2, 0.5, [4], 1600, seed, chunk=200)
            v, se = curve.values[0], curve.stderrs[0]
            if abs(v - exact) > 4 * se:
                fails += 1
        assert fails <= 1


class TestSmoothing:
    def test_preserves_constants(self):
        c = make_curve([1, 2, 3, 4], [0.3, 0.3, 0.3, 0.3])
        sm = M.smooth_curve(c, bandwidth=2.0)
        assert np.allclose(sm.values, 0.3, atol=1e-12)
        assert sm.estimator.endswith("+smoothed")

    def test_moves_crossing_hence_never_prescan(self):
        c = make_curve([1, 2, 3, 4, 5], [0.9, 0.9, 0.26, 0.01, 0.01])
        sm = M.smooth_curve(c, bandwidth=1.0)
        assert not np.allclose(sm.values, c.values)

    def test_bandwidth_validation(self):
        with pytest.raises(ParameterError):
            M.smooth_curve(make_curve([1], [0.1]), bandwidth=0.0)


class TestGeometricGrid:
    def test_small_dense(self):
        assert M.geometric_grid(10).tolist() == list(range(1, 11))

    def test_strictly_increasing_and_covers(self):
        g = M.geometric_grid(5000, 40)
        assert g[0] == 1 and g[-1] == 5000
        assert (np.diff(g) > 0).all()


@pytest.mark.slow
class TestCycleNonMonotonicity:
    def test_alpha_09_has_local_maxima_after_first_crossing(self):
        # strong reinforcement produces drift populations that re-concentrate
        # periodically; the TV curve rises again after first falling below 0.5
        grid = M.geometric_grid(30_000, 40)
        curve = M.rao_blackwell_cycle_curve(101, 0.9, grid, 4000, 7, chunk=512)
        vals, ns, ses = curve.values, curve.ns, curve.stderrs
        first = int(np.nonzero(vals < 0.5)[0][0])
        maxima = [
            int(ns[i])
            for i in range(first + 1, len(vals) - 1)
            if vals[i] > vals[i - 1]
            and vals[i] > vals[i + 1]
            and vals[i] - max(vals[i - 1], vals[i + 1]) > 2 * ses[i]
        ]
        assert len(maxima) >= 1
