import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw_lab import groups as G
from srrw_lab.errors import (
    CapacityError,
    DomainError,
    ParameterError,
    ReducibilityError,
)


def small_groups():
    return [
        G.make_group("cyclic", 2),
        G.make_group("cyclic", 3),
        G.make_group("cyclic", 7),
        G.make_group("hypercube", 1),
        G.make_group("hypercube", 3),
        G.make_group("symmetric", 3),
        G.make_group("symmetric", 4),
        G.make_group("lamplighter", 2),
        G.make_group("lamplighter", 3),
    ]


class TestGroupAxioms:
    @pytest.mark.parametrize("group", small_groups(), ids=lambda g: g.describe())
    def test_axioms_exhaustive_small(self, group):
        # identity, inverses, associativity for every |G| <= 256 fixture
        n = group.order
        assert n <= 256
        e = group.identity
        for a in range(n):
            assert group.mul(a, e) == a
            assert group.mul(e, a) == a
            assert group.mul(a, group.inv(a)) == e
        for a in range(n):
            for b in range(n):
                ab = group.mul(a, b)
                for c in range(0, n, max(1, n // 8)):
                    assert group.mul(ab, c) == group.mul(a, group.mul(b, c))

    def test_full_associativity_tiny(self):
        for group in (G.make_group("symmetric", 3), G.make_group("lamplighter", 2)):
            n = group.order
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert group.mul(group.mul(a, b), c) == group.mul(
                            a, group.mul(b, c)
                        )

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
    @settings(max_examples=200)
    def test_axioms_randomized_hypercube_d20(self, a, b, c):
        group = G.make_group("hypercube", 20)
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.inv(a)) == 0

    @given(st.data())
    @settings(max_examples=200)
    def test_axioms_randomized_large_lamplighter(self, data):
        group = G.make_group("lamplighter", 10)
        n = group.order
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.inv(a)) == 0
        assert group.mul(group.inv(a), a) == 0

    @pytest.mark.parametrize("group", small_groups(), ids=lambda g: g.describe())
    def test_mul_vec_matches_scalar(self, group):
        # mul on index arrays against the law stated on scalars in pure Python
        law = stated_law(group)
        rng = np.random.default_rng(0)
        a = rng.integers(0, group.order, 200)
        b = rng.integers(0, group.order, 200)
        vec = group.mul(a, b)
        assert all(int(v) == law(int(x), int(y)) for v, x, y in zip(vec, a, b))


def dihedral5(a, b):
    """D_5 on index s*5 + r (rotation r, reflection s): (r, s)(r', s') = (r +- r', s ^ s')."""
    (s1, r1), (s2, r2) = divmod(a, 5), divmod(b, 5)
    return (s1 ^ s2) * 5 + (r1 + (-r2 if s1 else r2)) % 5


def stated_law(group):
    """The group law of ``group`` stated in pure Python on index scalars, apart from ``mul``."""
    if group.kind == "cyclic":
        return lambda a, b: (a + b) % group.order
    if group.kind == "hypercube":
        return lambda a, b: a ^ b
    if group.kind == "symmetric":
        index = {p: i for i, p in enumerate(group.perms)}
        perms = group.perms
        return lambda a, b: index[tuple(perms[b][perms[a][i]] for i in range(group.m))]
    if group.kind == "lamplighter":
        L = group.L

        def lamplighter(a, b):
            # (f, j) * (h, k) = (phi, j + k), phi(i) = f(i) + h(i - j) mod 2
            (fa, ja), (fb, jb) = divmod(a, L), divmod(b, L)
            phi = sum((((fa >> i) & 1) ^ ((fb >> ((i - ja) % L)) & 1)) << i for i in range(L))
            return phi * L + (ja + jb) % L

        return lamplighter
    return dihedral5


def law_groups():
    groups = [G.make_group("cyclic", L) for L in (2, 7, 64)]
    groups += [G.make_group("hypercube", d) for d in (1, 6)]
    groups += [G.make_group("symmetric", m) for m in (1, 3, 4, 5)]
    groups += [G.make_group("lamplighter", L) for L in (2, 3, 5)]
    cayley = [[dihedral5(a, b) for b in range(10)] for a in range(10)]
    return groups + [G.make_group("table", np.array(cayley))]


def law_mus(group):
    """Uniform, a random full-support and (where the family has one) the builtin walk."""
    w = np.random.default_rng(group.order).random(group.order)
    mus = [G.uniform_mu(group), G.StepDistribution(group, dict(enumerate(w / w.sum())))]
    builtin = {
        "cyclic": G.lazy_cycle_mu,
        "hypercube": G.lazy_hypercube_mu,
        "lamplighter": G.lamplighter_example_mu,
    }.get(group.kind)
    return mus + ([builtin(group)] if builtin else [])


class TestOneLaw:
    """``mul``, ``table`` and ``transition_matrix`` against the law stated apart from them."""

    @pytest.mark.parametrize("group", law_groups(), ids=lambda g: g.describe())
    def test_mul_matches_stated_law(self, group):
        law = stated_law(group)
        rng = np.random.default_rng(1)
        a = rng.integers(0, group.order, 300)
        b = rng.integers(0, group.order, 300)
        expect = [law(int(x), int(y)) for x, y in zip(a, b)]
        assert [int(group.mul(int(x), int(y))) for x, y in zip(a, b)] == expect
        assert group.mul(a, b).tolist() == expect
        # broadcasting: a column of left factors against a row of right factors
        grid = group.mul(a[:7, None], b[:5])
        assert grid.tolist() == [[law(int(x), int(y)) for y in b[:5]] for x in a[:7]]

    @pytest.mark.parametrize("group", law_groups(), ids=lambda g: g.describe())
    def test_table_matches_double_loop(self, group):
        law, n = stated_law(group), group.order
        t = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            for b in range(n):
                t[a, b] = law(a, b)
        assert group.table.dtype == np.int32 and group.table.tobytes() == t.tobytes()

    @pytest.mark.parametrize("group", law_groups(), ids=lambda g: g.describe())
    def test_transition_matrix_matches_double_loop(self, group):
        law, n = stated_law(group), group.order
        for mu in law_mus(group):
            P = np.zeros((n, n))
            for g, p in mu.items:
                for x in range(n):
                    P[x, law(x, g)] += p
            assert G.transition_matrix(group, mu).tobytes() == P.tobytes()

    @pytest.mark.parametrize("d", [64, 1024])
    def test_hypercube_law_exact_on_python_ints(self, d):
        h = G.make_group("hypercube", d)
        top = 2 ** (d - 1)
        assert h.mul(top, 1) == top + 1 and type(h.mul(top, 1)) is int
        assert h.mul(2**1023, 1) == 2**1023 + 1
        for x in (top, top + 1, 2**d - 1):
            assert h.inv(x) == x and h.mul(x, h.inv(x)) == 0

    def test_s7_mul_on_index_arrays(self):
        s7 = G.make_group("symmetric", 7)
        assert not s7.has_table
        law = stated_law(s7)
        rng = np.random.default_rng(7)
        a = rng.integers(0, s7.order, 300)
        b = rng.integers(0, s7.order, 300)
        assert s7.mul(a, b).tolist() == [law(int(x), int(y)) for x, y in zip(a, b)]
        assert int(s7.mul(int(a[0]), int(b[0]))) == law(int(a[0]), int(b[0]))


class TestMakeGroup:
    def test_cyclic_examples(self):
        z3 = G.make_group("cyclic", 3)
        assert z3.order == 3 and z3.identity == 0
        assert z3.mul(2, 2) == 1

    def test_lamplighter_order(self):
        assert G.make_group("lamplighter", 3).order == 24

    def test_lamplighter_operation_formula(self):
        lam = G.make_group("lamplighter", 3)
        # (f, j) * (h, k) = (phi, j + k), phi(i) = f(i) + h(i - j) mod 2
        for a in range(lam.order):
            for b in range(lam.order):
                fa, ja = lam.decode(a)
                fb, jb = lam.decode(b)
                phi = 0
                for i in range(3):
                    bit = ((fa >> i) & 1) ^ ((fb >> ((i - ja) % 3)) & 1)
                    phi |= bit << i
                assert lam.mul(a, b) == lam.encode(phi, (ja + jb) % 3)

    def test_size_errors(self):
        with pytest.raises(ParameterError):
            G.make_group("cyclic", 1)
        with pytest.raises(ParameterError):
            G.make_group("hypercube", 0)
        with pytest.raises(ParameterError):
            G.make_group("symmetric", 9)
        with pytest.raises(CapacityError):
            G.make_group("lamplighter", 21)
        with pytest.raises(ParameterError):
            G.make_group("nosuch", 3)

    def test_sizes_must_be_integers(self):
        for kind, size in [
            ("cyclic", 2.5),
            ("cyclic", 3.0),
            ("hypercube", True),
            ("symmetric", "3"),
            ("lamplighter", None),
        ]:
            with pytest.raises(ParameterError, match="integer"):
                G.make_group(kind, size)
        assert G.make_group("cyclic", np.int64(5)).order == 5

    def test_table_group_checks(self):
        z3 = G.make_group("cyclic", 3)
        tg = G.make_group("table", z3.table)
        assert tg.order == 3 and tg.mul(2, 2) == 1 and tg.inv(1) == 2
        bad = np.array([[0, 1], [1, 1]])
        with pytest.raises(ParameterError):
            G.make_group("table", bad)

    def test_element_names_roundtrip(self):
        for group in small_groups():
            for a in range(group.order):
                assert group.element_index(group.element_name(a)) == a

    def test_symmetric_cycle_notation(self):
        s3 = G.make_group("symmetric", 3)
        assert s3.element_name(0) == "e"
        g = s3.from_cycles((1, 3, 2))
        assert s3.element_name(g) == "(132)"
        assert s3.element_index("(132)") == g


class TestStepDistribution:
    def test_sum_validation(self):
        z3 = G.make_group("cyclic", 3)
        with pytest.raises(DomainError):
            G.StepDistribution(z3, {0: 0.5, 1: 0.6})
        with pytest.raises(DomainError):
            G.StepDistribution(z3, {0: -0.1, 1: 1.1})

    def test_support_is_exact(self):
        z3 = G.make_group("cyclic", 3)
        mu = G.StepDistribution(z3, {0: 0.5, 1: 0.5, 2: 0.0})
        assert mu.support == (0, 1)

    def test_z2_builtin_walks_merge_coinciding_steps(self):
        # on Z_2, +1 and -1 are one element, which carries both masses
        z2 = G.make_group("cyclic", 2)
        assert G.lazy_cycle_mu(z2).items == ((0, 0.5), (1, 0.5))
        assert G.simple_cycle_mu(z2).items == ((1, 1.0),)

    def test_from_names(self):
        h = G.make_group("hypercube", 2)
        mu = G.StepDistribution.from_names(h, {"00": 0.5, "10": 0.25, "01": 0.25})
        assert mu.prob(0) == 0.5 and mu.prob(1) == 0.25 and mu.prob(2) == 0.25


class TestTransitionMatrix:
    def test_z3_simple(self):
        z3 = G.make_group("cyclic", 3)
        P = G.transition_matrix(z3, G.simple_cycle_mu(z3))
        assert P[0, 1] == 0.5 and P[0, 2] == 0.5 and P[0, 0] == 0.0

    def test_lazy_hypercube_diagonal(self):
        h = G.make_group("hypercube", 2)
        P = G.transition_matrix(h, G.lazy_hypercube_mu(h))
        assert np.allclose(np.diag(P), 0.5)

    @pytest.mark.parametrize("group", small_groups(), ids=lambda g: g.describe())
    def test_doubly_stochastic(self, group):
        rng = np.random.default_rng(1)
        w = rng.random(group.order)
        mu = G.StepDistribution(group, dict(enumerate(w / w.sum())))
        P = G.transition_matrix(group, mu)
        assert np.abs(P.sum(axis=0) - 1).max() < 1e-12
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-12


class TestIrreducibilityCertificate:
    def test_z3_simple(self):
        z3 = G.make_group("cyclic", 3)
        cert = G.irreducibility_certificate(G.transition_matrix(z3, G.simple_cycle_mu(z3)))
        assert cert.m_star == 2 and cert.eps_star == pytest.approx(0.25, abs=1e-15)

    def test_z2_periodic_fails(self):
        z2 = G.make_group("cyclic", 2)
        P = G.transition_matrix(z2, G.StepDistribution(z2, {1: 1.0}))
        with pytest.raises(ReducibilityError):
            G.irreducibility_certificate(P)

    def test_z2_lazy(self):
        z2 = G.make_group("cyclic", 2)
        cert = G.irreducibility_certificate(G.transition_matrix(z2, G.uniform_mu(z2)))
        assert cert.m_star == 1 and cert.eps_star == pytest.approx(0.5, abs=1e-15)

    def test_minimality(self):
        z5 = G.make_group("cyclic", 5)
        P = G.transition_matrix(z5, G.simple_cycle_mu(z5))
        cert = G.irreducibility_certificate(P)
        assert (np.linalg.matrix_power(P, cert.m_star) > 0).all()
        assert not (np.linalg.matrix_power(P, cert.m_star - 1) > 0).all()


class TestConjugacy:
    def test_abelian_all_singletons(self):
        z6 = G.make_group("cyclic", 6)
        assert all(len(c) == 1 for c in G.conjugacy_classes(z6))

    def test_s3_class_sizes(self):
        s3 = G.make_group("symmetric", 3)
        sizes = sorted(len(c) for c in G.conjugacy_classes(s3))
        assert sizes == [1, 2, 3]

    def test_s3_class_count_matches_character_count(self):
        assert len(G.conjugacy_classes(G.make_group("symmetric", 3))) == 3

    def test_classes_partition(self):
        s4 = G.make_group("symmetric", 4)
        classes = G.conjugacy_classes(s4)
        flat = sorted(x for c in classes for x in c)
        assert flat == list(range(24))


def fixture_battery():
    """(group, mu) pairs with an irreducible aperiodic kernel, >= 20 of them."""
    out = []
    for L in (2, 3, 4, 5, 7, 9):
        z = G.make_group("cyclic", L)
        out.append((z, G.lazy_cycle_mu(z) if L >= 3 else G.uniform_mu(z)))
    z5 = G.make_group("cyclic", 5)
    out.append((z5, G.simple_cycle_mu(z5)))
    z7 = G.make_group("cyclic", 7)
    out.append((z7, G.StepDistribution(z7, {1: 0.5, 3: 0.5})))
    out.append((z7, G.StepDistribution(z7, {0: 0.2, 1: 0.8})))
    for d in (1, 2, 3, 4):
        h = G.make_group("hypercube", d)
        out.append((h, G.lazy_hypercube_mu(h)))
    s3 = G.make_group("symmetric", 3)
    out.append((s3, G.StepDistribution(s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3, 2)): 0.5})))
    out.append((s3, G.StepDistribution(s3, {0: 0.25, s3.from_cycles((1, 2)): 0.75})))
    out.append((s3, G.uniform_mu(s3)))
    s4 = G.make_group("symmetric", 4)
    out.append((s4, G.StepDistribution(s4, {0: 0.5, s4.from_cycles((1, 2)): 0.25, s4.from_cycles((1, 2, 3, 4)): 0.25})))
    out.append((s4, G.uniform_mu(s4)))
    for L in (2, 3):
        lam = G.make_group("lamplighter", L)
        out.append((lam, G.lamplighter_example_mu(lam)))
    h2 = G.make_group("hypercube", 2)
    out.append((h2, G.StepDistribution(h2, {0: 0.1, 1: 0.4, 2: 0.3, 3: 0.2})))
    return out


class TestPredicates:
    def test_battery_size(self):
        assert len(fixture_battery()) >= 20

    def test_s3_remark_fixture(self):
        s3 = G.make_group("symmetric", 3)
        mu = G.StepDistribution(
            s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3, 2)): 0.5}
        )
        closure = G.gamma_gamma_inv_closure(s3, mu.support)
        names = sorted(s3.element_name(x) for x in closure)
        assert names == ["(13)", "e"]
        preds = G.distribution_predicates(s3, mu)
        assert not preds.gamma_gamma_inv_generates
        other = G.gamma_inv_gamma_closure(s3, mu.support)
        assert sorted(s3.element_name(x) for x in other) == ["(23)", "e"]
        assert not preds.gamma_inv_gamma_generates

    def test_abelian_always_class_function(self):
        rng = np.random.default_rng(3)
        for L in (2, 5, 8):
            z = G.make_group("cyclic", L)
            w = rng.random(L)
            mu = G.StepDistribution(z, dict(enumerate(w / w.sum())))
            assert G.distribution_predicates(z, mu).class_function

    def test_lazy_atom_implies_generates_under_certificate(self):
        for group, mu in fixture_battery():
            preds = G.distribution_predicates(group, mu)
            if not preds.identity_in_support:
                continue
            try:
                G.irreducibility_certificate(G.transition_matrix(group, mu))
            except ReducibilityError:
                continue
            assert preds.gamma_gamma_inv_generates

    def test_cases_imply_generation(self):
        # each of: symmetric support, union of classes, identity atom
        checked = 0
        for group, mu in fixture_battery():
            try:
                G.irreducibility_certificate(G.transition_matrix(group, mu))
            except ReducibilityError:
                continue
            preds = G.distribution_predicates(group, mu)
            if preds.support_symmetric or preds.support_union_of_classes or preds.identity_in_support:
                checked += 1
                assert preds.gamma_gamma_inv_generates, group.describe()
        assert checked >= 15

    def test_lemma_equivalence_of_closures(self):
        # <Gamma Gamma^-1> = G iff <Gamma^-1 Gamma> = G (under the certificate)
        for group, mu in fixture_battery():
            try:
                G.irreducibility_certificate(G.transition_matrix(group, mu))
            except ReducibilityError:
                continue
            preds = G.distribution_predicates(group, mu)
            assert preds.gamma_gamma_inv_generates == preds.gamma_inv_gamma_generates

    def test_symmetric_predicate(self):
        z5 = G.make_group("cyclic", 5)
        assert G.distribution_predicates(z5, G.simple_cycle_mu(z5)).symmetric
        mu = G.StepDistribution(z5, {1: 0.7, 4: 0.3})
        preds = G.distribution_predicates(z5, mu)
        assert not preds.symmetric and preds.support_symmetric

    def test_s3_non_class_function_example(self):
        # positive on identity and unequal across a conjugacy class
        s3 = G.make_group("symmetric", 3)
        mu = G.StepDistribution(
            s3,
            {
                0: 0.4,
                s3.from_cycles((1, 2)): 0.3,
                s3.from_cycles((1, 3)): 0.2,
                s3.from_cycles((2, 3)): 0.1,
            },
        )
        preds = G.distribution_predicates(s3, mu)
        assert not preds.class_function
        assert preds.identity_in_support and preds.gamma_gamma_inv_generates


class TestRandomizedAxioms100k:
    @pytest.mark.parametrize(
        "group",
        [G.make_group("hypercube", 50), G.make_group("lamplighter", 12)],
        ids=lambda g: g.describe(),
    )
    def test_100k_random_triples(self, group):
        rng = np.random.default_rng(12345)
        hi = min(group.order, 2**62)
        a = rng.integers(0, hi, 100_000)
        b = rng.integers(0, hi, 100_000)
        c = rng.integers(0, hi, 100_000)
        left = group.mul(group.mul(a, b), c)
        right = group.mul(a, group.mul(b, c))
        assert np.array_equal(left, right)
        e = group.mul(a, np.array([group.inv(int(x)) for x in a[:100]] + [0] * (100_000 - 100)))
        assert (e[:100] == 0).all()
