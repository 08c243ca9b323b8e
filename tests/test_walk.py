import numpy as np
import pytest

from srrw_lab import forest as F
from srrw_lab import groups as G
from srrw_lab import oracle as O
from srrw_lab import walk as W
from srrw_lab.errors import CapacityError, ContractError, ParameterError
from srrw_lab.streams import stream


@pytest.fixture(scope="module")
def z3():
    return G.make_group("cyclic", 3)


@pytest.fixture(scope="module")
def mu3(z3):
    return G.simple_cycle_mu(z3)


class TestDirectSampler:
    def test_position_recursion(self, z3, mu3):
        p = W.sample_path_direct(z3, mu3, 0.5, 30, stream(0, 0))
        assert p.positions[0] == 0
        for j in range(30):
            assert p.positions[j + 1] == z3.mul(int(p.positions[j]), int(p.steps[j]))

    def test_deterministic_bytes(self, z3, mu3):
        a = W.sample_path_direct(z3, mu3, 0.5, 100, stream(42, 0))
        b = W.sample_path_direct(z3, mu3, 0.5, 100, stream(42, 0))
        assert a.steps.tobytes() == b.steps.tobytes()
        assert a.positions.tobytes() == b.positions.tobytes()
        c = W.sample_path_direct(z3, mu3, 0.5, 100, stream(43, 0))
        assert c.steps.tobytes() != a.steps.tobytes()

    def test_forced_full_replication_is_power_of_first_step(self, z3, mu3):
        n = 12
        p = W.sample_path_direct(z3, mu3, 0.5, n, stream(3, 0), forced_xi=[1] * (n - 1))
        assert (p.steps == p.steps[0]).all()
        expect = 0
        for _ in range(n):
            expect = z3.mul(expect, int(p.steps[0]))
        assert p.endpoint() == expect

    def test_alpha_zero_steps_iid(self, z3, mu3):
        ends = W.sample_endpoints_direct(z3, mu3, 0.0, [1], 40_000, 7)[0]
        freq = np.bincount(ends, minlength=3) / 40_000
        # X_1 ~ mu: mass 1/2 on +1 and -1
        assert freq[0] < 3 * np.sqrt(0.25 / 40_000)
        assert abs(freq[1] - 0.5) < 3 * np.sqrt(0.25 / 40_000)

    def test_z2_law_after_two_steps(self):
        z2 = G.make_group("cyclic", 2)
        mu2 = G.uniform_mu(z2)
        for a in (0.0, 0.5, 0.7):
            ends = W.sample_endpoints_direct(z2, mu2, a, [2], 10**6, 11)[0]
            p0 = float((ends == 0).mean())
            target = (1 + a) / 2
            se = np.sqrt(target * (1 - target) / 10**6)
            assert abs(p0 - target) < 3 * se + 1e-9

    def test_alpha_validation(self, z3, mu3):
        with pytest.raises(ParameterError):
            W.sample_path_direct(z3, mu3, 1.0, 5, stream(0, 0))

    def test_single_point_endpoints_keep_their_bytes(self):
        # the endpoints the sampler drew, one pass per n, before it took a grid
        s3 = G.make_group("symmetric", 3)
        ends = W.sample_endpoints_direct(s3, G.uniform_mu(s3), 0.6, [7], 12, 4, chunk=5)
        assert ends.tolist() == [[0, 4, 0, 3, 5, 1, 5, 3, 3, 2, 0, 0]]
        z5 = G.make_group("cyclic", 5)
        ends = W.sample_endpoints_direct(z5, G.lazy_cycle_mu(z5), 0.3, [1], 6, 9)
        assert ends.tolist() == [[0, 0, 4, 0, 0, 0]]

    def test_each_row_of_a_grid_pass_is_a_pass_to_its_n(self):
        s3 = G.make_group("symmetric", 3)
        mu, grid = G.uniform_mu(s3), [1, 2, 5, 9, 30]
        ends = W.sample_endpoints_direct(s3, mu, 0.6, grid, 50, 8, chunk=20)
        assert ends.shape == (len(grid), 50)
        for row, n in zip(ends, grid):
            one = W.sample_endpoints_direct(s3, mu, 0.6, [n], 50, 8, chunk=20)[0]
            assert row.tobytes() == one.tobytes()
        for bad in ([], [0, 3], [4, 4]):
            with pytest.raises(ParameterError):
                W.sample_endpoints_direct(s3, mu, 0.6, bad, 50, 8)

    def test_step_table_over_the_cap_raises_before_the_pass(self, z3, mu3, monkeypatch):
        # the steps of Z_3 take one byte each: 10 replicas to n = 9 hold 100 bytes
        monkeypatch.setattr(W, "STEP_TABLE_CAP", 100)
        assert W.sample_endpoints_direct(z3, mu3, 0.5, [9], 10, 1).shape == (1, 10)
        monkeypatch.setattr(W, "STEP_TABLE_CAP", 99)
        monkeypatch.setattr(W, "stream", lambda *a: pytest.fail("the pass started"))
        with pytest.raises(CapacityError):
            W.sample_endpoints_direct(z3, mu3, 0.5, [3, 9], 10, 1)
        # a chunk holds the steps of its own replicas only
        W.check_step_table(z3, 10**6, 9, chunk=9)


class TestForestSampler:
    def test_worked_configuration_product(self, z3, mu3):
        f = F.forest_from_choices([1, 0, 0, 0, 1, 1], [1, 1, 2, 3, 4, 4], alpha=0.5)
        spins = {1: 1, 3: 2, 4: 1, 5: 2}
        walk = W.walk_from_forest(z3, f, spins)
        # S_7 = g1^2 g3 g4 g5 g4^2
        g = {1: 1, 3: 2, 4: 1, 5: 2}
        expect = (2 * g[1] + g[3] + 3 * g[4] + g[5]) % 3
        assert walk.endpoint() == expect
        assert walk.steps.tolist() == [g[1], g[1], g[3], g[4], g[5], g[4], g[4]]

    def test_alpha_zero_is_iid_product(self, z3, mu3):
        f, spins, walk = W.sample_path_forest(z3, mu3, 0.0, 20, stream(5, 0))
        assert np.array_equal(f.labels, np.arange(1, 21))
        assert len(spins) == 20

    def test_both_constructions_agree_with_oracle(self, z3, mu3):
        n, R = 5, 100_000
        exact = O.exact_endpoint_distribution(z3, mu3, 0.5, n).probs
        e1 = W.sample_endpoints_direct(z3, mu3, 0.5, [n], R, 21)[0]
        e2 = W.sample_endpoints_forest(z3, mu3, 0.5, n, R, 22)
        h1 = np.bincount(e1, minlength=3) / R
        h2 = np.bincount(e2, minlength=3) / R
        assert 0.5 * np.abs(h1 - h2).sum() < 0.015
        assert 0.5 * np.abs(h1 - exact).sum() < 0.015
        assert 0.5 * np.abs(h2 - exact).sum() < 0.015


class TestConditionalKernelProduct:
    def test_all_isolated_reduces_to_matrix_power(self, z3, mu3):
        n = 4
        f = F.forest_from_choices([0] * (n - 1), [1] * (n - 1), alpha=0.0)
        out = W.conditional_kernel_product(z3, mu3, f, {})
        P = G.transition_matrix(z3, mu3)
        delta = np.zeros(3)
        delta[0] = 1
        expect = delta @ np.linalg.matrix_power(P, n)
        assert np.abs(out.probs - expect).max() < 1e-14

    def test_uniform_is_fixed_point(self, z3, mu3):
        # uniform in, uniform out, for every kernel pattern
        f = F.forest_from_choices([1, 0, 1, 0], [1, 1, 3, 2], alpha=0.5)
        spins = {1: 2, 3: 1}
        P = G.transition_matrix(z3, mu3)
        u = np.full(3, 1 / 3)
        v = u.copy()
        idx = np.arange(3)
        for j in range(1, f.n + 1):
            root = int(f.labels[j - 1])
            if root in spins:
                perm = z3.mul(idx, z3.inv(spins[root]))
                v = v[perm]
            else:
                v = v @ P
        assert np.abs(v - u).max() < 1e-15

    def test_probability_vector_output(self, z3, mu3):
        rng = stream(8, 0)
        for _ in range(20):
            f = F.grow_forest(7, 0.6, rng)
            roots = [int(r) for r in f.roots()]
            sizes = f.cluster_sizes_at()
            spins = {r: int(rng.integers(0, 3)) for r in roots if sizes[r] >= 2}
            out = W.conditional_kernel_product(z3, mu3, f, spins)
            assert out.probs.min() >= -1e-15
            assert abs(out.probs.sum() - 1.0) < 1e-12

    def test_missing_spin_contract_error(self, z3, mu3):
        f = F.forest_from_choices([1, 1], [1, 1], alpha=0.5)  # one cluster of 3
        with pytest.raises(ContractError):
            W.conditional_kernel_product(z3, mu3, f, {})

    def test_group_above_the_table_cap_rejected(self):
        # the transition matrix's cap is the one limit on the group order
        z = G.make_group("cyclic", 5000)
        f = F.forest_from_choices([0, 0], [1, 2], alpha=0.0)
        with pytest.raises(CapacityError, match="transition matrix needs order <= 4096"):
            W.conditional_kernel_product(z, G.simple_cycle_mu(z), f, {})

    @pytest.mark.parametrize(
        "kind, size, make_mu",
        [
            ("cyclic", 3, G.simple_cycle_mu),
            (
                "symmetric",
                3,
                lambda s3: G.StepDistribution(
                    s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3, 2)): 0.5}
                ),
            ),
            ("hypercube", 2, G.lazy_hypercube_mu),
        ],
        ids=["z3", "s3", "h2"],
    )
    def test_mixture_over_spins_and_forests_matches_oracle(self, kind, size, make_mu):
        # the kernel product summed over every configuration and spin assignment
        # equals the oracle, which integrates spins once per distinct forest
        group = G.make_group(kind, size)
        mu = make_mu(group)
        n = 5
        alpha = 0.4
        total = np.zeros(group.order)
        import itertools

        for ef in O.enumerate_forests(n, alpha):
            sizes = ef.forest.cluster_sizes_at()
            big = [r for r in range(1, n + 1) if sizes[r] >= 2]
            for combo in itertools.product(mu.support, repeat=len(big)):
                w = 1.0
                for g in combo:
                    w *= mu.prob(g)
                spins = dict(zip(big, combo))
                out = W.conditional_kernel_product(group, mu, ef.forest, spins)
                total += ef.weight * w * out.probs
        exact = O.exact_endpoint_distribution(group, mu, alpha, n).probs
        assert np.abs(total - exact).max() < 1e-10


class TestChiSquareAgreement:
    def test_goodness_of_fit_both_samplers(self, z3, mu3):
        from scipy import stats

        n, R = 6, 100_000
        for alpha, seed in ((0.3, 31), (0.7, 32)):
            exact = O.exact_endpoint_distribution(z3, mu3, alpha, n).probs
            for ends in (
                W.sample_endpoints_direct(z3, mu3, alpha, [n], R, seed)[0],
                W.sample_endpoints_forest(z3, mu3, alpha, n, R, seed + 100),
            ):
                counts = np.bincount(ends, minlength=3)
                res = stats.chisquare(counts, f_exp=exact * R)
                assert res.pvalue > 1e-3
