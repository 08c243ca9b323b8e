import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw_lab import forest as F
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
        h2, h3 = G.make_group("hypercube", 2), G.make_group("hypercube", 3)
        cases = [
            (h2, G.lazy_hypercube_mu(h2)),
            # e_3 carries no mass and never moves: lambda* = 1
            (h3, G.StepDistribution(h3, {0: 0.5, 1: 0.25, 2: 0.25})),
            # no mass at the identity: the walk is periodic, lambda* = 1
            (h3, G.StepDistribution(h3, {1: 0.3, 2: 0.3, 4: 0.4})),
        ]
        for h, mu in cases:
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

    def test_walsh_transform_matches_the_butterfly_loop(self):
        # the block-pair loop the reshaped transform replaced: same adds, same order
        def loop(v):
            v, h = v.copy(), 1
            while h < v.size:
                for start in range(0, v.size, 2 * h):
                    a, b = v[start : start + h].copy(), v[start + h : start + 2 * h].copy()
                    v[start : start + h], v[start + h : start + 2 * h] = a + b, a - b
                h *= 2
            return v

        rng = np.random.default_rng(5)
        for d in range(11):
            v = rng.standard_normal(1 << d)
            assert M._fwht(v).tobytes() == loop(v).tobytes()

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
        assert se == 0.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stderr_zero_when_every_category_has_the_same_score(self, seed):
        # every endpoint of the lazy walk on Z_300 at n = 6 is over-represented, so each
        # replica's score is 1/2; the shares of the 13 categories sum to 1 only up to rounding
        from srrw_lab import walk as W

        z300 = G.make_group("cyclic", 300)
        ends = W.sample_endpoints_direct(z300, G.lazy_cycle_mu(z300), 0.7, [6], 2400, seed)[0]
        assert (np.bincount(ends) * 300 != 2400).all()
        assert M.empirical_tv_estimator(ends, z300)[1] == 0.0

    def test_stderr_is_the_two_pass_per_replica_spread(self):
        # the delta-method stderr of the plug-in TV: the spread over replicas of
        # s_r = sign(p_hat - 1/|G|) / 2 at replica r's endpoint, over sqrt(R)
        z5 = G.make_group("cyclic", 5)
        samples = np.random.default_rng(3).choice(5, size=800, p=[0.3, 0.25, 0.2, 0.15, 0.1])
        v, se = M.empirical_tv_estimator(samples, z5)
        p_hat = np.bincount(samples, minlength=5) / samples.size
        s = 0.5 * np.sign(p_hat - 1 / 5)[samples]
        assert se > 0.0
        assert se == pytest.approx(s.std(ddof=1) / math.sqrt(samples.size), rel=1e-12)
        assert v == 0.5 * np.abs(p_hat - 1 / 5).sum()

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
        ends = W.sample_endpoints_direct(z3, mu, 0.5, [2], 10**6, 13)[0]
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
        # S_1 is +-1 with probability 1/2 each on Z_5: TV = 3/5 for every forest
        curve = M.rao_blackwell_cycle_curve(5, 0.5, [1], 64, 3)
        assert curve.values[0] == pytest.approx(0.6, abs=1e-12)
        assert curve.stderrs[0] == 0.0

    def test_multiple_of_L_contributes_unit_factor(self):
        tab = M._CycleTables(5)
        for clusters in (1, 3):
            h = np.zeros((1, 5), dtype=np.int64)
            h[0, 0] = clusters  # clusters of size = 0 mod L: cos(2 pi k m) = 1
            assert np.abs(tab.phi(h) - 1.0).max() < 1e-12

    def test_full_enumeration_matches_oracle(self, z3_oracle_curves):
        tab = M._CycleTables(3)
        for n in (2, 4, 6, 7):
            acc = np.zeros(tab.K)
            for ef in O.enumerate_forests(n, 0.5):
                sizes = ef.forest.cluster_sizes_at()
                live = sizes[sizes > 0]
                h = np.bincount(live % 3, minlength=3)[None, :]
                acc += ef.weight * tab.phi(h)[0]
            probs = 1.0 / 3 + (2.0 / 3) * (tab.dft @ acc)
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
            M.rao_blackwell_cycle_curve(6, 0.5, [3], 10, 0)

    def test_forests_evolve_at_modulus_L(self, monkeypatch):
        # phi depends on the cluster sizes mod L only; at L <= 128 the
        # residues then fit in one byte
        calls = []
        original = M.evolve_size_histograms

        def spy(*args):
            state = original(*args)
            calls.append((args[2], args[3], state))
            return state

        monkeypatch.setattr(M, "evolve_size_histograms", spy)
        M.rao_blackwell_cycle_curve(101, 0.5, [1, 7, 30], 50, 4, chunk=20)
        assert len(calls) == 3
        for modulus, count, state in calls:
            assert modulus == 101 and state.residue.itemsize == 1
            nbytes = state.root_time.nbytes + state.residue.nbytes
            assert nbytes == F.state_nbytes(count, 30, 101)

    def test_forest_pass_over_the_cap_raises_before_evolving(self, monkeypatch):
        # 50 replicas in chunks of 20 on 2 threads: 2 workers, each growing 20 forests to n = 30
        need = 2 * (F.state_nbytes(20, 30, 101) + F.buffer_nbytes(20, 30, 101))
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need)
        M.rao_blackwell_cycle_curve(101, 0.5, [1, 7, 30], 50, 4, chunk=20, threads=2)
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need - 1)
        monkeypatch.setattr(M, "evolve_size_histograms", lambda *a: pytest.fail("evolve entered"))
        with pytest.raises(CapacityError, match=f"hold {need} bytes"):
            next(M._forest_chunks(0.5, [1, 7, 30], 101, 50, 4, 20, 2, lambda h: (h.sum(0),)))
        with pytest.raises(CapacityError):
            M.rao_blackwell_cycle_curve(101, 0.5, [1, 7, 30], 50, 4, chunk=20, threads=2)
        # one thread holds one chunk's forests at a time
        M.check_forest_pass(30, 101, 50, 20, 1)

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
                alpha, grid, L, stop - start, stream(seed, ci),
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

    def test_rows_follow_the_one_step_recursion_bit_for_bit(self):
        # each row is 0.5 q, then + q_{w-1} up_{w-1}, then + q_{w+1} down_{w+1}
        d = 9
        table = M.hypercube_weight_chain_table(d, 50)
        ws = np.arange(d + 1, dtype=float)
        up, down = (d - ws) / (2.0 * d), ws / (2.0 * d)
        for m in range(1, 51):
            q = table[m - 1]
            want = 0.5 * q
            want[1:] += q[:-1] * up[:-1]
            want[:-1] += q[1:] * down[1:]
            assert table[m].tobytes() == want.tobytes()

    def test_kept_rows_are_the_full_tables_rows(self):
        table = M.hypercube_weight_chain_table(11, 60)
        for rows in ([0], [60], [0, 1, 2], [3, 17, 18, 59], np.arange(0, 61, 7)):
            kept = M.hypercube_weight_chain_table(11, int(np.max(rows)), rows)
            assert kept.tobytes() == table[rows].tobytes()

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

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_table_up_to_the_largest_count_gives_the_full_tables_bytes(self, alpha, monkeypatch):
        # the curve builds the table only up to the largest observed N_J; at
        # alpha = 0, N_J(n) = n, so that is the horizon
        d, grid = 16, M.geometric_grid(300, 20)
        heights, kept = [], []
        table = M.hypercube_weight_chain_table

        def spy(d, m_max, rows):
            heights.append(m_max)
            kept.append(rows)
            return table(d, m_max, rows)

        monkeypatch.setattr(M, "hypercube_weight_chain_table", spy)
        curve = M.hypercube_tv_curve(d, alpha, grid, 300, 8)
        # the full table's rows of the same counts
        monkeypatch.setattr(
            M, "hypercube_weight_chain_table", lambda d, m, rows: table(d, 301)[rows]
        )
        full = M.hypercube_tv_curve(d, alpha, grid, 300, 8)
        assert curve.values.tobytes() == full.values.tobytes()
        assert curve.stderrs.tobytes() == full.stderrs.tobytes()
        assert heights[0] <= 300 and (heights[0] == 300) == (alpha == 0.0)
        assert kept[0][-1] == heights[0] and np.all(np.diff(kept[0]) > 0)

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


class TestClusterSizeCounts:
    @pytest.mark.parametrize("grid", [[3, 7], [1, 2, 7, 40, 150]])
    @pytest.mark.parametrize("k_max", [1, 10])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9])
    def test_counts_are_those_of_the_forests_rebuilt_from_the_draws(self, alpha, k_max, grid):
        # two chunks, the second short; chunk ci's forests are rebuilt from
        # the uniforms of stream ci, taken time-major; sizes past max(grid)
        # count 0
        R, seed, n = M.CYCLE_CHUNK + 37, 12, grid[-1]
        counts, odd = M.cluster_size_counts(alpha, grid, R, seed, k_max)
        assert counts.shape == (len(grid), R, k_max) and odd.shape == (len(grid), R)
        for ci, (start, stop) in enumerate(chunk_ranges(R, M.CYCLE_CHUNK)):
            U = stream(seed, ci).random((n - 1, stop - start)).T
            labels = F.batch_root_labels(*F.choices_from_uniforms(U, alpha, np.arange(2, n + 1)))
            for gi, t in enumerate(grid):
                for r in range(stop - start):
                    sizes = np.bincount(labels[r, :t])
                    live = sizes[sizes > 0]
                    want = np.bincount(live, minlength=k_max + 1)[1 : k_max + 1]
                    assert np.array_equal(counts[gi, start + r], want), (ci, r, t)
                    assert odd[gi, start + r] == (live % 2).sum(), (ci, r, t)


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
        assert any(len(run.horizons_tried) > 1 for run in solo)  # a guard extended
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


class TestResumedScans:
    """An extension resumes the shorter curve's forests; a grid's bytes never depend on it."""

    EPSILONS = (0.5, 0.25, 0.05)

    @staticmethod
    def _scans(mixing_time, size, alpha, horizon0, epsilons, **kw):
        curves = {}
        runs = [
            mixing_time(size, alpha, eps, 300, 11, horizon0, chunk=128, curves=curves, **kw)
            for eps in epsilons
        ]
        return runs, curves

    @staticmethod
    def _same(a, b):
        assert a.estimate == b.estimate and a.horizons_tried == b.horizons_tried
        for name in ("ns", "values", "stderrs"):
            x, y = getattr(a.curve, name), getattr(b.curve, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    @pytest.mark.parametrize("mixing_time, estimator, size, alpha, horizon0", SHARED_SCANS)
    def test_resumed_curve_matches_one_pass_on_the_extended_grid(
        self, mixing_time, estimator, size, alpha, horizon0
    ):
        runs, curves = self._scans(mixing_time, size, alpha, horizon0, self.EPSILONS)
        longest = max(curves)
        assert longest > horizon0
        curve = curves[longest][0]
        # the states fit, so each horizon is a quarter past the last; the extended
        # grid is each shorter curve's grid followed by the geometric points to
        # the next horizon that lie above it
        chain = sorted(curves)
        assert chain[1:] == [-(-5 * h // 4) for h in chain[:-1]]
        want = []
        for last, h in zip([0, *chain], chain):
            fine = M.geometric_grid(h, 40)
            want.extend(fine[fine > last].tolist())
            assert np.array_equal(curves[h][0].ns, want)
        one_pass = getattr(M, estimator)(size, alpha, curve.ns, 300, 11, chunk=128)
        assert np.array_equal(one_pass.values, curve.values)
        assert np.array_equal(one_pass.stderrs, curve.stderrs)

    @pytest.mark.parametrize("mixing_time, estimator, size, alpha, horizon0", SHARED_SCANS)
    def test_rebuilds_above_the_budget_double_and_give_one_pass_bytes(
        self, monkeypatch, mixing_time, estimator, size, alpha, horizon0
    ):
        starts = []  # the time each evolve call starts from: 1 for a new forest
        original = M.evolve_size_histograms

        def spy(*args):
            starts.append(args[6].t if len(args) > 6 and args[6] is not None else 1)
            return original(*args)

        monkeypatch.setattr(M, "evolve_size_histograms", spy)
        resumed, _ = self._scans(mixing_time, size, alpha, horizon0, self.EPSILONS)
        assert max(starts) > 1
        starts.clear()
        monkeypatch.setattr(M, "STATE_BUDGET", 0)
        rebuilt, _ = self._scans(mixing_time, size, alpha, horizon0, self.EPSILONS)
        assert starts and set(starts) == {1}
        for a, b in zip(resumed, rebuilt):
            if len(a.horizons_tried) == 1:  # no extension: the same first curve
                self._same(a, b)
            # a rebuilt ladder doubles; its curve is the doubled grid's, made of
            # each shorter grid and the geometric points above it, in one pass
            tried = b.horizons_tried
            assert tried == [horizon0 << i for i in range(len(tried))]
            want = []
            for last, h in zip([0, *tried], tried):
                fine = M.geometric_grid(h, 40)
                want.extend(fine[fine > last].tolist())
            for run in (a, b):
                one_pass = getattr(M, estimator)(size, alpha, run.curve.ns, 300, 11, chunk=128)
                assert np.array_equal(one_pass.values, run.curve.values)
                assert np.array_equal(one_pass.stderrs, run.curve.stderrs)
            assert np.array_equal(b.curve.ns, want)

    @pytest.mark.parametrize("mixing_time, estimator, size, alpha, horizon0", SHARED_SCANS)
    def test_threads_and_epsilon_order_do_not_change_the_bytes(
        self, mixing_time, estimator, size, alpha, horizon0
    ):
        base, _ = self._scans(mixing_time, size, alpha, horizon0, self.EPSILONS)
        # more workers than chunks and cores, switching often: every chunk's
        # state must land in its own checkpoint slot
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 5):
                runs, _ = self._scans(
                    mixing_time, size, alpha, horizon0, self.EPSILONS, threads=threads
                )
                for a, b in zip(base, runs):
                    self._same(a, b)
        finally:
            sys.setswitchinterval(interval)
        for order in itertools.permutations(range(len(self.EPSILONS))):
            runs, _ = self._scans(
                mixing_time, size, alpha, horizon0, [self.EPSILONS[i] for i in order]
            )
            for i, run in zip(order, runs):
                self._same(base[i], run)

    @pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace])
    @pytest.mark.parametrize("mixing_time, estimator, size, alpha, horizon0", SHARED_SCANS)
    def test_a_profile_or_trace_hook_does_not_change_the_bytes(
        self, hook, mixing_time, estimator, size, alpha, horizon0
    ):
        # under a hook ndarray.resize refuses any array, so a resumed pass copies
        # its root times instead of growing them in place
        base, _ = self._scans(mixing_time, size, alpha, horizon0, self.EPSILONS)
        assert any(len(run.horizons_tried) > 1 for run in base)
        hook(lambda *args: None)
        try:
            runs, _ = self._scans(mixing_time, size, alpha, horizon0, self.EPSILONS)
        finally:
            hook(None)
        for a, b in zip(base, runs):
            self._same(a, b)

    def test_checkpoint_is_kept_only_while_an_extension_is_possible(self, monkeypatch):
        monkeypatch.setattr(M, "MAX_REACH", 2)
        curves = {}
        M.hypercube_mixing_time(8, 0.5, 0.9, 300, 11, 16, curves=curves)
        assert list(curves) == [16] and curves[16][1].states
        run = M.hypercube_mixing_time(8, 0.5, 1e-6, 300, 11, 16, curves=curves)
        assert run.horizons_tried == [16, 20, 25, 32]
        assert all(checkpoint is None for _, checkpoint, _ in curves.values())

    @pytest.mark.parametrize("budget, ladder", [
        (None, [16, 20, 25, 32, 40, 50, 63, 79, 99, 124, 128]),  # a quarter on, clamped
        (0, [16, 32, 64, 128]),  # every pass regrows its forests: doubling
    ])
    def test_a_firing_guard_ends_at_the_reach(self, monkeypatch, budget, ladder):
        if budget is not None:
            monkeypatch.setattr(M, "STATE_BUDGET", budget)
        run = M.hypercube_mixing_time(8, 0.5, 1e-6, 300, 11, 16)
        assert run.horizons_tried == ladder and ladder[-1] == M.MAX_REACH * 16
        assert run.estimate.guard_triggered and run.estimate.horizon == ladder[-1]

    def test_the_cutoff_workload_extends_by_a_quarter(self):
        # d = 64, alpha = 1/2, R = 4096: eps = 0.05 crosses just past horizon0 = 675,
        # and its extended curve keeps the first curve's bytes at n <= 675
        horizon0, curves = M.hypercube_horizon0(64, 0.5), {}
        runs = [
            M.hypercube_mixing_time(64, 0.5, eps, 4096, 11, horizon0, curves=curves)
            for eps in (0.9, 0.25, 0.1, 0.05)
        ]
        assert horizon0 == 675
        assert [run.horizons_tried for run in runs] == [[675]] * 3 + [[675, 844]]
        assert not any(run.estimate.guard_triggered for run in runs)
        first, last = runs[0].curve, runs[-1].curve
        head = last.ns <= horizon0
        for name in ("ns", "values", "stderrs"):
            assert np.array_equal(getattr(last, name)[head], getattr(first, name)), name

    def test_a_resumed_pass_over_the_budget_drops_its_states(self, monkeypatch):
        # the states fit at h = 10 but not at h = 40: the pass still resumes and
        # keeps nothing, so the next pass starts over from t = 2; each pass gives
        # the bytes of one pass over its own points
        checkpoint = M.Checkpoint()
        M.hypercube_tv_curve(8, 0.5, [1, 5, 10], 50, 3, chunk=20, checkpoint=checkpoint)
        assert len(checkpoint.states) == 3
        monkeypatch.setattr(M, "STATE_BUDGET", F.state_nbytes(50, 20, 2))
        for grid in ([20, 40], [90]):
            curve = M.hypercube_tv_curve(8, 0.5, grid, 50, 3, chunk=20, checkpoint=checkpoint)
            assert checkpoint.states == []
            one_pass = M.hypercube_tv_curve(8, 0.5, grid, 50, 3, chunk=20)
            assert np.array_equal(curve.values, one_pass.values)
            assert np.array_equal(curve.stderrs, one_pass.stderrs)

    def test_paper_scale_ladder_doubles_once_its_states_are_dropped(self):
        # d = 1024, alpha = 1/2, R = 4096: at 2 bytes a slot the states fit
        # STATE_BUDGET up to 28 298 (232 MB); at 35 373 the root times widen to
        # int32 (580 MB) and are dropped, so from there each pass regrows its
        # forests and the ladder doubles, up to the reach
        horizon0 = M.hypercube_horizon0(1024, 0.5)

        def build(grid, checkpoint):
            horizon = int(grid[-1])
            fits = M._states_nbytes(horizon, 2, 4096, M.HYPERCUBE_CHUNK) <= M.STATE_BUDGET
            checkpoint.states = [horizon] if fits else []
            ones = np.ones(grid.size)
            return M.DistanceCurve("", 0.5, "", 4096, 0, grid, ones, 0 * ones)  # guard fires

        run = M._scan_with_retries(build, 0.25, horizon0, 40)
        assert run.horizons_tried == [14_488, 18_110, 22_638, 28_298, 35_373, 70_746, 115_904]
        assert run.horizons_tried[-1] == M.MAX_REACH * horizon0
        assert M._states_nbytes(28_298, 2, 4096, M.HYPERCUBE_CHUNK) == 2 * 2048 * 28_299 * 2

    def test_an_extension_over_the_cap_raises_before_it_evolves(self, monkeypatch):
        # 300 replicas in one chunk: the first pass to 16 fits the cap with the
        # checkpoint it keeps, the extension to 20 does not
        need = 2 * F.state_nbytes(300, 16, 2) + F.buffer_nbytes(300, 16, 2)
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need)
        horizons = []
        original = M.evolve_size_histograms

        def spy(alpha, grid, *args):
            horizons.append(int(grid[-1]))
            return original(alpha, grid, *args)

        monkeypatch.setattr(M, "evolve_size_histograms", spy)
        with pytest.raises(CapacityError, match="n = 20 may hold"):
            M.hypercube_mixing_time(8, 0.5, 1e-6, 300, 11, 16)
        assert horizons == [16]

    def test_the_cap_counts_the_states_a_checkpoint_brings(self, monkeypatch):
        # three chunks' states at t = 10; the pass to 40 keeps none of its own
        checkpoint = M.Checkpoint()
        M.hypercube_tv_curve(8, 0.5, [1, 5, 10], 50, 3, chunk=20, checkpoint=checkpoint)
        monkeypatch.setattr(M, "STATE_BUDGET", 0)
        brought = sum(F.state_nbytes(count, 10, 2) for count in (20, 20, 10))
        need = F.state_nbytes(20, 40, 2) + F.buffer_nbytes(20, 40, 2) + brought
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need)
        M.check_forest_pass(40, 2, 50, 20, 1, checkpoint)
        monkeypatch.setattr(M, "FOREST_BYTES_CAP", need - 1)
        with pytest.raises(CapacityError, match=f"hold {need} bytes"):
            M.hypercube_tv_curve(8, 0.5, [20, 40], 50, 3, chunk=20, checkpoint=checkpoint)
        assert len(checkpoint.states) == 3  # refused before it started a chunk

    def test_resumed_pass_needs_an_extended_grid(self):
        checkpoint = M.Checkpoint()
        M.hypercube_tv_curve(8, 0.5, [1, 5, 10], 50, 3, checkpoint=checkpoint)
        assert checkpoint.states and {s.t for s in checkpoint.states} == {10}
        for grid in ([1, 5, 10, 20], [10, 20], [5]):
            with pytest.raises(ParameterError):
                M.hypercube_tv_curve(8, 0.5, grid, 50, 3, checkpoint=checkpoint)
        curve = M.hypercube_tv_curve(8, 0.5, [11, 20], 50, 3, checkpoint=checkpoint)
        one_pass = M.hypercube_tv_curve(8, 0.5, [1, 5, 10, 11, 20], 50, 3)
        assert np.array_equal(curve.values, one_pass.values[3:])
        assert np.array_equal(curve.stderrs, one_pass.stderrs[3:])


class TestForestSums:
    # every view over the shared pass, over several chunks with a short last one; at
    # these seeds, adding the chunks in another order changes the float results
    @pytest.mark.parametrize(
        "view",
        [
            lambda thr: M.rao_blackwell_cycle_curve(
                9, 0.6, [1, 2, 17, 40, 300], 1100, 7, chunk=300, threads=thr
            ),
            lambda thr: M.hypercube_tv_curve(
                12, 0.5, [1, 3, 64, 65, 200], 3000, 10, chunk=700, threads=thr
            ),
        ],
        ids=["rb-curve", "hypercube-curve"],
    )
    def test_bit_identical_across_thread_counts(self, view):
        serial, threaded = view(1), view(3)
        for name in ("ns", "values", "stderrs"):
            a, b = getattr(serial, name), getattr(threaded, name)
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

    def test_endpoint_within_4se_in_99_of_100(self, z3_oracle_curves):
        from srrw_lab import walk as W

        z3 = G.make_group("cyclic", 3)
        mu = G.simple_cycle_mu(z3)
        grid = [2, 3, 5]
        exact = [z3_oracle_curves[(0.5, n)].tv_to_uniform() for n in grid]
        fails = np.zeros(len(grid), dtype=int)
        for seed in range(100):
            ends = W.sample_endpoints_direct(z3, mu, 0.5, grid, 1600, seed)
            for i, row in enumerate(ends):
                v, se = M.empirical_tv_estimator(row, z3)
                fails[i] += abs(v - exact[i]) > 4 * se
        assert fails.max() <= 1

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


class TestGeometricGrid:
    def test_small_dense(self):
        assert M.geometric_grid(10).tolist() == list(range(1, 11))

    def test_strictly_increasing_and_covers(self):
        g = M.geometric_grid(5000, 40)
        assert g[0] == 1 and g[-1] == 5000
        assert (np.diff(g) > 0).all()

    @pytest.mark.parametrize("ppd", [10, 40, 60])
    def test_matches_the_unique_formulation(self, ppd):
        def reference(n_max):
            head = np.arange(1, min(16, n_max) + 1)
            if n_max <= 16:
                return head
            count = max(2, int(math.ceil(math.log10(n_max / 16) * ppd)))
            tail = np.unique(np.round(np.geomspace(17, n_max, count)).astype(np.int64))
            return np.unique(np.concatenate([head, tail, [n_max]]))

        for n_max in range(1, 3001):
            got, ref = M.geometric_grid(n_max, ppd), reference(n_max)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


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
