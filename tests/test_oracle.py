import itertools
import math

import numpy as np
import pytest

from srrw_lab import dist as D
from srrw_lab import forest as F
from srrw_lab import groups as G
from srrw_lab import oracle as O
from srrw_lab import walk as W
from srrw_lab.errors import CapacityError


class TestEnumeration:
    def test_n1_single_configuration(self):
        lst = list(O.enumerate_forests(1, 0.5))
        assert len(lst) == 1 and lst[0].weight == 1.0

    def test_n3_has_eight_configurations(self):
        lst = list(O.enumerate_forests(3, 0.3))
        assert len(lst) == 8
        assert abs(math.fsum(ef.weight for ef in lst) - 1.0) < 1e-12

    def test_n7_count(self):
        assert sum(1 for _ in O.enumerate_forests(7, 0.5)) == 46080

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9])
    def test_weights_sum_to_one(self, alpha):
        for n in (2, 4, 6):
            assert abs(O.enumeration_weight_sum(n, alpha) - 1.0) < 1e-10

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(O.enumerate_forests(10, 0.5))

    def test_each_configuration_distinct(self):
        seen = set()
        for ef in O.enumerate_forests(4, 0.5):
            key = (tuple(ef.forest.xi.tolist()), tuple(ef.forest.u.tolist()))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 2**3 * 6

    @pytest.mark.parametrize(
        "n, bell", enumerate([1, 2, 5, 15, 52, 203, 877, 4140, 21147], start=1)
    )
    def test_distinct_forests_are_counted_by_bell_numbers(self, n, bell):
        seqs, weights = O._forest_weights(n, 0.5)
        assert seqs.shape == (bell, n)
        assert len({row.tobytes() for row in seqs}) == bell
        assert weights.min() > 0 and abs(weights.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    def test_forest_weights_sum_the_configurations(self, alpha):
        for n in (6, 7):
            by_labels = {}
            for ef in O.enumerate_forests(n, alpha):
                by_labels.setdefault(tuple(ef.forest.labels.tolist()), []).append(ef.weight)
            seqs, weights = O._forest_weights(n, alpha)
            assert [tuple(row) for row in seqs.tolist()] == sorted(by_labels)
            expect = [math.fsum(by_labels[tuple(row)]) for row in seqs.tolist()]
            assert np.abs(weights - expect).max() < 1e-16


class TestExactEndpoint:
    def test_z2_two_step_law(self):
        z2 = G.make_group("cyclic", 2)
        mu = G.uniform_mu(z2)
        for a in (0.0, 0.3, 0.5, 0.7):
            d = O.exact_endpoint_distribution(z2, mu, a, 2)
            assert d.probs[0] == pytest.approx((1 + a) / 2, abs=1e-12)

    def test_n1_is_mu(self):
        z5 = G.make_group("cyclic", 5)
        mu = G.simple_cycle_mu(z5)
        d = O.exact_endpoint_distribution(z5, mu, 0.8, 1)
        assert np.abs(d.probs - mu.dense).max() < 1e-15

    def test_alpha_zero_is_convolution(self):
        z3 = G.make_group("cyclic", 3)
        mu = G.simple_cycle_mu(z3)
        d = O.exact_endpoint_distribution(z3, mu, 0.0, 3)
        v = mu.dense
        conv = np.zeros(3)
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    conv[(x + y + z) % 3] += v[x] * v[y] * v[z]
        assert np.abs(d.probs - conv).max() < 1e-14

    def test_nonabelian_group(self):
        s3 = G.make_group("symmetric", 3)
        mu = G.StepDistribution(
            s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3, 2)): 0.5}
        )
        d = O.exact_endpoint_distribution(s3, mu, 0.5, 4)
        assert abs(d.probs.sum() - 1) < 1e-12 and d.probs.min() >= 0

    def test_oracle_vs_sampler_tv_bound(self):
        z3 = G.make_group("cyclic", 3)
        mu = G.simple_cycle_mu(z3)
        R = 100_000
        bound = 4 * math.sqrt(3 / R)
        for alpha in (0.3, 0.7):
            exact = O.exact_endpoint_distribution(z3, mu, alpha, 6).probs
            ends = W.sample_endpoints_direct(z3, mu, alpha, [6], R, 5)[0]
            emp = np.bincount(ends, minlength=3) / R
            assert D.tv_distance(emp, exact) < bound


def reference_endpoint_law(group, mu, alpha, n):
    """The endpoint law as first written: spins integrated with tile and take_along_axis."""
    P = G.transition_matrix(group, mu)
    support = np.array(mu.support, dtype=np.int64)
    sup_probs = np.array([p for _, p in mu.items])
    idx = np.arange(group.order)
    perm = np.vstack([group.mul(idx, group.inv(int(g))) for g in support])
    delta = np.zeros(group.order)
    delta[group.identity] = 1.0
    laws = []
    for labels, weight in zip(*O._forest_weights(n, alpha)):
        sizes = np.bincount(labels, minlength=n + 1)
        big_roots = [r for r in range(1, n + 1) if sizes[r] >= 2]
        B = len(big_roots)
        combos = list(itertools.product(range(support.size), repeat=B))
        ids = np.array(combos, dtype=np.int64).reshape(len(combos), B)
        wts = np.prod(sup_probs[ids], axis=1) if B else np.ones(1)
        V = np.tile(delta, (ids.shape[0], 1))
        for root in labels.tolist():
            if root in big_roots:
                V = np.take_along_axis(V, perm[ids[:, big_roots.index(root)]], axis=1)
            else:
                V = V @ P
        laws.append(weight * (wts @ V))
    return np.array([math.fsum(c) for c in np.stack(laws, axis=1)])


def pinned_law_cases():
    s3 = G.make_group("symmetric", 3)
    z5 = G.make_group("cyclic", 5)
    return [
        pytest.param(s3, G.StepDistribution(s3, {0: 0.3, 1: 0.45, 4: 0.25}), id="S3"),
        pytest.param(z5, G.lazy_cycle_mu(z5), id="lazy-Z5"),
    ]


def wider_law_cases():
    h3 = G.make_group("hypercube", 3)
    z7 = G.make_group("cyclic", 7)
    return [
        pytest.param(h3, G.lazy_hypercube_mu(h3), id="lazy-H3"),
        pytest.param(z7, G.lazy_cycle_mu(z7), id="lazy-Z7"),
    ]


class TestEndpointLawBits:
    @pytest.mark.parametrize("group,mu", pinned_law_cases())
    @pytest.mark.parametrize("alpha", [0.0, 0.35, 0.5, 0.8])
    def test_matches_the_reference_integration(self, group, mu, alpha):
        for n in range(1, 7):
            got = O.exact_endpoint_distribution(group, mu, alpha, n).probs
            assert got.tobytes() == reference_endpoint_law(group, mu, alpha, n).tobytes()

    @pytest.mark.parametrize("group,mu", wider_law_cases())
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    def test_matches_the_reference_integration_to_n7(self, group, mu, alpha):
        for n in range(1, 8):
            got = O.exact_endpoint_distribution(group, mu, alpha, n).probs
            assert got.tobytes() == reference_endpoint_law(group, mu, alpha, n).tobytes()

    def test_one_forest_per_batch_gives_the_same_laws(self, monkeypatch):
        cases = [p.values for p in pinned_law_cases() + wider_law_cases()]
        args = [(g, mu, a, n) for g, mu in cases for a in (0.3, 0.5, 0.9) for n in range(1, 8)]
        batched = [O.exact_endpoint_distribution(*a).probs.tobytes() for a in args]
        monkeypatch.setattr(O, "BATCH_BYTES", 1)
        assert O._batch_bytes(cases[0][1], 0.5, 7) == 1
        for a, law in zip(args, batched):
            assert O.exact_endpoint_distribution(*a).probs.tobytes() == law


class TestSpinCap:
    def test_raises_before_enumerating(self, monkeypatch):
        # S4 with uniform mu at n = 8: 24**4 spin combinations in the pairing forest
        s4 = G.make_group("symmetric", 4)
        mu = G.uniform_mu(s4)

        def enumerate_nothing(*args):
            raise AssertionError("the enumeration was entered")

        monkeypatch.setattr(O, "_forest_weights", enumerate_nothing)
        with pytest.raises(CapacityError, match=r"24\*\*4"):
            O.exact_endpoint_distribution(s4, mu, 0.5, 8)
        with pytest.raises(CapacityError):
            O.exact_tv_curve(s4, mu, 0.5, 8)

    def test_memory_cap_raises_before_enumerating(self, monkeypatch):
        z5 = G.make_group("cyclic", 5)
        mu = G.lazy_cycle_mu(z5)

        def enumerate_nothing(*args):
            raise AssertionError("the enumeration was entered")

        monkeypatch.setattr(O, "_forest_weights", enumerate_nothing)
        monkeypatch.setattr(O, "SPIN_BYTES_CAP", 1000)
        with pytest.raises(CapacityError, match="over the cap of 1000"):
            O.exact_endpoint_distribution(z5, mu, 0.5, 4)
        with pytest.raises(CapacityError, match="over the cap of 1000"):
            O.exact_tv_curve(z5, mu, 0.5, 4)

    def test_memory_bound_counts_the_forests_of_nonzero_weight(self, monkeypatch):
        # Z_5, lazy cycle (3 steps), n = 4: transition matrix, 3^2 spins x 3, Bell(4) laws x 2
        mu = G.lazy_cycle_mu(G.make_group("cyclic", 5))
        monkeypatch.setattr(O, "SPIN_BYTES_CAP", 8 * 5 * (5 + 3 * 9 + 2 * 15))
        assert O.check_spin_cap(mu, 0.5, 4) is None
        monkeypatch.setattr(O, "SPIN_BYTES_CAP", 8 * 5 * (5 + 3 * 9 + 2 * 15) - 1)
        with pytest.raises(CapacityError):
            O.check_spin_cap(mu, 0.5, 4)
        # at alpha = 0 and 1 a single forest has nonzero weight
        monkeypatch.setattr(O, "SPIN_BYTES_CAP", 8 * 5 * (5 + 3 * 3 + 2))
        O.check_spin_cap(mu, 1.0, 4)
        O.check_spin_cap(mu, 0.0, 4)

    def test_bound_is_the_largest_number_of_big_clusters(self, monkeypatch):
        s4 = G.make_group("symmetric", 4)
        mu = G.uniform_mu(s4)
        O.check_spin_cap(mu, 0.0, 9)  # all singletons
        O.check_spin_cap(mu, 1.0, 9)  # one cluster
        O.check_spin_cap(mu, 0.5, 7)  # 24**3
        with pytest.raises(CapacityError):
            O.check_spin_cap(mu, 1e-6, 8)
        # the bound is reached: at n = 7 a forest has three clusters of size >= 2
        monkeypatch.setattr(O, "SPIN_CAP", 24**3)
        assert O.check_spin_cap(mu, 0.5, 7) is None
        monkeypatch.setattr(O, "SPIN_CAP", 24**3 - 1)
        with pytest.raises(CapacityError):
            O.exact_endpoint_distribution(s4, mu, 0.5, 7)


class TestNoConfigurationEnumeration:
    def test_library_paths_never_label_configurations(self, monkeypatch):
        # the library reads the Bell(n) forests only, never the (xi, u) space
        def label_nothing(*args):
            raise AssertionError("(xi, u) configurations were labelled")

        monkeypatch.setattr(O, "batch_root_labels", label_nothing)
        z5 = G.make_group("cyclic", 5)
        O.exact_endpoint_distribution(z5, G.lazy_cycle_mu(z5), 0.5, 6)
        O.oracle_expected_isolated(6, 0.5)
        O.negative_correlation_check(0.5, 6, 2, 2)
        with pytest.raises(AssertionError):
            next(O.enumerate_forests(6, 0.5))


class TestExactTvCurve:
    def test_z2_values(self):
        z2 = G.make_group("cyclic", 2)
        mu = G.uniform_mu(z2)
        curve = O.exact_tv_curve(z2, mu, 0.5, 4)
        assert curve.value_at(1) == pytest.approx(0.0, abs=1e-14)
        assert curve.value_at(2) == pytest.approx(0.25, abs=1e-14)

    def test_z3_first_step(self):
        z3 = G.make_group("cyclic", 3)
        mu = G.simple_cycle_mu(z3)
        for a in (0.1, 0.6):
            curve = O.exact_tv_curve(z3, mu, a, 2)
            assert curve.value_at(1) == pytest.approx(1 / 3, abs=1e-14)

    def test_z2_alpha0_always_uniform(self):
        z2 = G.make_group("cyclic", 2)
        mu = G.uniform_mu(z2)
        curve = O.exact_tv_curve(z2, mu, 0.0, 5)
        assert np.abs(curve.values).max() < 1e-14


class TestMarginalConsistency:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_expected_isolated_matches_closed_form(self, alpha):
        for n in range(1, 8):
            assert abs(
                O.oracle_expected_isolated(n, alpha)
                - F.expected_isolated_exact(n, alpha)
            ) < 1e-10


class TestNegativeCorrelation:
    def test_exhaustive_check_small(self):
        rep = O.negative_correlation_check(0.5, 6, 2, 2)
        assert rep.max_violation_ge <= 1e-10
        assert rep.max_violation_lt <= 1e-10
        assert rep.prefixes == 2

    def test_alpha_zero_everything_deterministic(self):
        rep = O.negative_correlation_check(0.0, 5, 2, 2)
        assert rep.max_violation_ge <= 1e-12
        assert rep.max_violation_lt <= 1e-12

    def test_at_the_cap(self):
        rep = O.negative_correlation_check(0.5, 8, 4, 3)
        assert rep.max_violation_ge <= 1e-10
        assert rep.max_violation_lt <= 1e-10
        assert rep.prefixes == 15  # Bell(4) forests F_4
        # Stirling numbers S(4, R) of forests with R roots, 2^R - 1 subsets each
        assert rep.subsets_checked == 1 * 1 + 7 * 3 + 6 * 7 + 1 * 15

    def test_cap(self):
        with pytest.raises(CapacityError):
            O.negative_correlation_check(0.5, 9, 4, 3)

    def test_worst_excess_against_every_subset(self):
        rng = np.random.default_rng(3)
        R = 4
        masks = rng.integers(0, 1 << R, size=40)
        probs = rng.random(40)
        probs /= probs.sum()
        contains = [(masks & J) == J for J in range(1 << R)]
        marg = [probs[contains[1 << i]].sum() for i in range(R)]
        expect = max(
            probs[contains[J]].sum() - np.prod([marg[i] for i in range(R) if J >> i & 1])
            for J in range(1, 1 << R)
        )
        assert O._worst_excess(masks, probs, R) == pytest.approx(expect, abs=1e-15)
        # two indicators that always agree are positively correlated
        assert O._worst_excess(np.array([0, 3]), np.array([0.5, 0.5]), 2) == 0.25

    def test_singletons_have_zero_violation(self):
        # |J| = 1 entries contribute exactly zero; overall max stays ~0 here
        rep = O.negative_correlation_check(0.4, 5, 3, 2)
        assert rep.subsets_checked > 0
        assert rep.max_violation_ge <= 1e-10
