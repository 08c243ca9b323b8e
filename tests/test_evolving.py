import itertools
import math

import numpy as np
import pytest

from srrw_lab import evolving as E
from srrw_lab import forest as F
from srrw_lab import groups as G
from srrw_lab.errors import CapacityError, DomainError, ParameterError
from srrw_lab.streams import stream


@pytest.fixture(scope="module")
def z3_kernel():
    z3 = G.make_group("cyclic", 3)
    mu = G.simple_cycle_mu(z3)
    return z3, mu, G.transition_matrix(z3, mu)


@pytest.fixture(scope="module")
def lazy_z5_kernel():
    z5 = G.make_group("cyclic", 5)
    mu = G.lazy_cycle_mu(z5)
    return z5, mu, G.transition_matrix(z5, mu)


def all_nonempty_subsets(n):
    for mask in range(1, 1 << n):
        yield [i for i in range(n) if mask >> i & 1]


class TestEvolvingStep:
    def test_full_set_absorbing(self, z3_kernel):
        z3, _, P = z3_kernel
        for u in (0.01, 0.5, 0.99):
            assert E.evolving_step({0, 1, 2}, P, u) == frozenset({0, 1, 2})

    def test_z2_uniform_threshold(self):
        z2 = G.make_group("cyclic", 2)
        P = G.transition_matrix(z2, G.uniform_mu(z2))
        assert E.evolving_step({0}, P, 0.4) == frozenset({0, 1})
        assert E.evolving_step({0}, P, 0.5) == frozenset({0, 1})
        assert E.evolving_step({0}, P, 0.6) == frozenset()

    def test_deterministic_kernel_translates(self, z3_kernel):
        z3, _, _ = z3_kernel
        g = 2
        P = np.zeros((3, 3))
        for x in range(3):
            P[x, z3.mul(x, g)] = 1.0
        for u in (0.1, 0.5, 0.9):
            out = E.evolving_step({0, 1}, P, u)
            assert out == frozenset({z3.mul(0, g), z3.mul(1, g)})

    def test_u_validation(self, z3_kernel):
        _, _, P = z3_kernel
        with pytest.raises(ParameterError):
            E.evolving_step({0}, P, 0.0)


class TestStepLaw:
    def test_z2_uniform_law(self):
        z2 = G.make_group("cyclic", 2)
        P = G.transition_matrix(z2, G.uniform_mu(z2))
        law = dict((s, p) for p, s in E.step_law({0}, P))
        assert law[frozenset()] == pytest.approx(0.5)
        assert law[frozenset({0, 1})] == pytest.approx(0.5)

    def test_law_sums_to_one(self, lazy_z5_kernel):
        _, _, P = lazy_z5_kernel
        for members in all_nonempty_subsets(5):
            total = math.fsum(p for p, _ in E.step_law(members, P))
            assert abs(total - 1.0) < 1e-12

    def test_martingale_all_subsets_z3(self, z3_kernel):
        _, _, P = z3_kernel
        for members in all_nonempty_subsets(3):
            assert abs(E.expected_size_one_step(members, P) - len(members)) < 1e-12

    def test_martingale_all_subsets_lazy_z5(self, lazy_z5_kernel):
        _, _, P = lazy_z5_kernel
        for members in all_nonempty_subsets(5):
            assert abs(E.expected_size_one_step(members, P) - len(members)) < 1e-12

    def test_doob_consistency(self, lazy_z5_kernel):
        _, _, P = lazy_z5_kernel
        for members in all_nonempty_subsets(5):
            assert abs(E.doob_consistency(members, P) - 1.0) < 1e-12


class TestComplementDuality:
    def test_z2_uniform(self):
        z2 = G.make_group("cyclic", 2)
        P = G.transition_matrix(z2, G.uniform_mu(z2))
        assert E.complement_duality_check(z2, P, {0}) < 1e-12

    def test_empty_and_full(self, z3_kernel):
        z3, _, P = z3_kernel
        assert E.complement_duality_check(z3, P, set()) < 1e-15
        assert E.complement_duality_check(z3, P, {0, 1, 2}) < 1e-15

    def test_all_proper_subsets_z3(self, z3_kernel):
        z3, _, P = z3_kernel
        for members in all_nonempty_subsets(3):
            if len(members) == 3:
                continue
            assert E.complement_duality_check(z3, P, members) < 1e-12

    def test_lazy_z5(self, lazy_z5_kernel):
        z5, _, P = lazy_z5_kernel
        for members in all_nonempty_subsets(5):
            assert E.complement_duality_check(z5, P, members) < 1e-12


class TestRootProfile:
    def test_full_set_zero(self, z3_kernel):
        _, _, P = z3_kernel
        assert E.root_profile_psi({0, 1, 2}, P) == pytest.approx(0.0, abs=1e-15)

    def test_z2_uniform_value(self):
        z2 = G.make_group("cyclic", 2)
        P = G.transition_matrix(z2, G.uniform_mu(z2))
        assert E.root_profile_psi({0}, P) == pytest.approx(
            1.0 - math.sqrt(2) / 2.0, abs=1e-12
        )

    def test_nonnegative_everywhere(self, lazy_z5_kernel):
        _, _, P = lazy_z5_kernel
        for members in all_nonempty_subsets(5):
            assert E.root_profile_psi(members, P) >= -1e-15

    def test_empty_set_rejected(self, z3_kernel):
        _, _, P = z3_kernel
        with pytest.raises(DomainError):
            E.root_profile_psi(set(), P)


class TestIsoProfile:
    def test_z3_simple_values(self, z3_kernel):
        z3, mu, _ = z3_kernel
        table = E.iso_profile(z3, mu)
        assert table.certified
        # singletons lose all their mass: Phi = 1 at r = 1/3 (the only size <= 1/2)
        assert table.phi_at(1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
        assert table.phi_at(0.5) == pytest.approx(1.0, abs=1e-12)
        assert table.phi_at(0.75) == table.phi_at(0.5)  # constant beyond 1/2

    def test_lazy_z5_singleton(self, lazy_z5_kernel):
        z5, mu, _ = lazy_z5_kernel
        table = E.iso_profile(z5, mu)
        assert table.phi[0] == pytest.approx(0.5, abs=1e-12)

    def test_profiles_nonincreasing(self):
        lam = G.make_group("lamplighter", 2)
        mu = G.lamplighter_example_mu(lam)
        table = E.iso_profile(lam, mu)
        assert (np.diff(table.phi) <= 1e-15).all()
        assert (np.diff(table.psi) <= 1e-15).all()

    def test_witnesses_reproduce_values(self, lazy_z5_kernel):
        z5, mu, P = lazy_z5_kernel
        table = E.iso_profile(z5, mu)
        for i, mask in enumerate(table.phi_witness):
            members = E.set_of(mask)
            Q = P[sorted(members), :].sum(axis=0)
            inside = Q[sorted(members)].sum()
            phi = (len(members) - inside) / len(members)
            assert phi == pytest.approx(table.phi[i], abs=1e-12)
        for i, mask in enumerate(table.psi_witness):
            assert E.root_profile_psi(E.set_of(mask), P) == pytest.approx(
                table.psi[i], abs=1e-12
            )

    def test_sampled_mode_upper_bounds(self, lazy_z5_kernel):
        z5, mu, _ = lazy_z5_kernel
        exact = E.iso_profile(z5, mu, mode="exhaustive")
        sampled = E.iso_profile(z5, mu, mode="sampled", sample_rounds=50)
        assert not sampled.certified
        assert (sampled.phi >= exact.phi - 1e-12).all()
        assert (sampled.psi >= exact.psi - 1e-12).all()

    def test_capacity_cap(self):
        h5 = G.make_group("hypercube", 5)  # order 32 > 24
        with pytest.raises(CapacityError):
            E.iso_profile(h5, G.lazy_hypercube_mu(h5))

    def test_csv(self, tmp_path, z3_kernel):
        z3, mu, _ = z3_kernel
        table = E.iso_profile(z3, mu)
        path = tmp_path / "prof.csv"
        table.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "r,phi,psi,phi_witness_mask,psi_witness_mask"

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_order_one_group_rejected(self, mode):
        trivial = G.make_group("table", np.array([[0]]))
        with pytest.raises(ParameterError):
            E.iso_profile(trivial, G.uniform_mu(trivial), mode=mode)


def brute_orbit_minima(group, P, lo, hi, score, by_size, chunk=65536):
    """Reference for E._orbit_minima: every mask in increasing order, chunked."""
    nkeys = hi + 1 if by_size else 1
    best, witness = None, None
    all_masks = np.arange(1, 1 << group.order, dtype=np.int64)
    for start in range(0, all_masks.size, chunk):
        masks = all_masks[start : start + chunk]
        sizes, phi, psi = E._chunk_phi_psi(masks, P)
        vals = score(phi, psi)
        if best is None:
            best = np.full((len(vals), nkeys), np.inf)
            witness = np.zeros((len(vals), nkeys), dtype=np.int64)
        keys = sizes if by_size else np.zeros_like(sizes)
        inside = (sizes >= lo) & (sizes <= hi)
        for j, val in enumerate(vals):
            for key in np.unique(keys[inside]):
                i = int(np.argmin(np.where(inside & (keys == key), val, np.inf)))
                if val[i] < best[j, key]:  # first minimum = smallest mask
                    best[j, key], witness[j, key] = val[i], masks[i]
    return best, witness


def orbit_sweep_cases():
    z16 = G.make_group("cyclic", 16)
    z17 = G.make_group("cyclic", 17)
    z19 = G.make_group("cyclic", 19)
    s3 = G.make_group("symmetric", 3)
    lam = G.make_group("lamplighter", 2)
    h4 = G.make_group("hypercube", 4)
    tab = G.make_group("table", G.make_group("symmetric", 3).table)
    return [
        # the smallest mask attaining the least phi of size 6 lies in an orbit
        # whose representative evaluates a few ulps above another orbit's
        pytest.param(z16, G.StepDistribution(z16, {0: 0.4, 1: 0.2, 3: 0.4}), id="Z16"),
        pytest.param(z17, G.StepDistribution(z17, {0: 0.3, 1: 0.2, 3: 0.1, 6: 0.4}), id="Z17"),
        pytest.param(z19, G.StepDistribution(z19, {0: 0.3, 1: 0.2, 3: 0.1, 6: 0.4}), id="Z19"),
        pytest.param(s3, G.StepDistribution(s3, {0: 0.3, 1: 0.45, 4: 0.25}), id="S3"),
        pytest.param(lam, G.lamplighter_example_mu(lam), id="lamplighter2"),
        pytest.param(h4, G.lazy_hypercube_mu(h4), id="H4"),
        pytest.param(tab, G.StepDistribution(tab, {0: 0.1, 2: 0.6, 3: 0.3}), id="table"),
    ]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestOrbitSweep:
    @pytest.mark.parametrize("group,mu", orbit_sweep_cases())
    def test_matches_sweep_of_every_mask(self, group, mu, monkeypatch):
        got_table = E.iso_profile(group, mu)
        got_check = E.psi_phi_inequality_check(group, mu)
        got_report = E.psi_positivity_vs_generation(group, mu)
        small_chunks = E.iso_profile(group, mu, chunk=256)
        monkeypatch.setattr(E, "_orbit_minima", brute_orbit_minima)
        ref_table = E.iso_profile(group, mu)
        ref_check = E.psi_phi_inequality_check(group, mu)
        ref_report = E.psi_positivity_vs_generation(group, mu)
        assert _bits(got_table.phi) == _bits(ref_table.phi)
        assert _bits(got_table.psi) == _bits(ref_table.psi)
        assert got_table.phi_witness == ref_table.phi_witness
        assert got_table.psi_witness == ref_table.psi_witness
        assert _bits(small_chunks.phi) == _bits(ref_table.phi)
        assert _bits(small_chunks.psi) == _bits(ref_table.psi)
        assert small_chunks.phi_witness == ref_table.phi_witness
        assert small_chunks.psi_witness == ref_table.psi_witness
        assert _bits(got_check) == _bits(ref_check)
        assert _bits(got_report.psi_half) == _bits(ref_report.psi_half)
        assert got_report == ref_report

    @pytest.mark.parametrize("group,mu", orbit_sweep_cases())
    def test_one_representative_per_orbit(self, group, mu):
        n = group.order
        lut = E._translation_luts(group)
        reps = np.concatenate(list(E._orbit_representatives(lut, 1, n, 4096)))
        assert (reps & 1).all()  # every representative contains the identity
        # Burnside: a left translation by g fixes 2^(cycles of x -> gx) subsets
        fixed = 0
        for g in range(n):
            seen, cycles = set(), 0
            for x in range(n):
                if x not in seen:
                    cycles += 1
                    while x not in seen:
                        seen.add(x)
                        x = group.mul(g, x)
            fixed += 2**cycles
        assert reps.size == fixed // n - 1  # orbits of nonempty subsets
        # no representative is a translate of another one
        translates = np.stack([E._translate(reps, lut[g]) for g in range(n)], axis=1)
        assert ((translates == reps[:, None]) | ~np.isin(translates, reps)).all()

    def test_translation_tables(self):
        s3 = G.make_group("symmetric", 3)
        lut = E._translation_luts(s3)
        for g in range(s3.order):
            for mask in range(1 << s3.order):
                expect = E.mask_of(s3.mul(g, x) for x in E.set_of(mask))
                got = int(E._translate(np.array([mask], dtype=np.int64), lut[g])[0])
                assert got == expect


class TestPsiPhiInequality:
    def test_lazy_z5_all_subsets(self, lazy_z5_kernel):
        z5, mu, _ = lazy_z5_kernel
        assert E.psi_phi_inequality_check(z5, mu) >= -1e-12

    def test_lazy_z2_hand_value(self):
        z2 = G.make_group("cyclic", 2)
        mu = G.uniform_mu(z2)
        P = G.transition_matrix(z2, mu)
        # psi({0}) = 1 - sqrt(2)/2 ~ 0.2929 >= mu0^2 Phi^2 / (2 (1-mu0)^2) = 1/8
        psi0 = E.root_profile_psi({0}, P)
        assert psi0 >= 0.125 - 1e-12
        assert E.psi_phi_inequality_check(z2, mu) >= -1e-12

    def test_lamplighter2(self):
        lam = G.make_group("lamplighter", 2)
        mu = G.lamplighter_example_mu(lam)
        assert E.psi_phi_inequality_check(lam, mu) >= -1e-12

    def test_requires_lazy_atom(self, z3_kernel):
        z3, mu, _ = z3_kernel
        with pytest.raises(DomainError):
            E.psi_phi_inequality_check(z3, mu)

    def test_order_one_group_rejected(self):
        trivial = G.make_group("table", np.array([[0]]))
        with pytest.raises(ParameterError):
            E.psi_phi_inequality_check(trivial, G.uniform_mu(trivial))

    def test_point_mass_at_identity_rejected(self):
        z3 = G.make_group("cyclic", 3)
        with pytest.raises(DomainError):
            E.psi_phi_inequality_check(z3, G.StepDistribution(z3, {0: 1.0}))


def generation_battery():
    """(group, mu) pairs for the psi-positivity equivalence, both verdicts."""
    out = []
    s3 = G.make_group("symmetric", 3)
    transpositions = [(1, 2), (1, 3), (2, 3)]
    three_cycles = [(1, 2, 3), (1, 3, 2)]
    for t in transpositions:
        for c in three_cycles:
            mu = G.StepDistribution(
                s3, {s3.from_cycles(t): 0.5, s3.from_cycles(c): 0.5}
            )
            out.append((s3, mu))  # expected psi(1/2) = 0
    z5 = G.make_group("cyclic", 5)
    out.append((z5, G.simple_cycle_mu(z5)))
    out.append((z5, G.lazy_cycle_mu(z5)))
    z3 = G.make_group("cyclic", 3)
    out.append((z3, G.simple_cycle_mu(z3)))
    z2 = G.make_group("cyclic", 2)
    out.append((z2, G.uniform_mu(z2)))
    out.append((s3, G.uniform_mu(s3)))
    out.append(
        (s3, G.StepDistribution(s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3)): 0.5}))
    )
    h2 = G.make_group("hypercube", 2)
    out.append((h2, G.lazy_hypercube_mu(h2)))
    lam = G.make_group("lamplighter", 2)
    out.append((lam, G.lamplighter_example_mu(lam)))
    return out


class TestGenerationCriterion:
    def test_battery_size_and_both_verdicts(self):
        battery = generation_battery()
        assert len(battery) >= 12
        reports = [E.psi_positivity_vs_generation(g, m) for g, m in battery]
        assert any(r.generates for r in reports)
        assert any(not r.generates for r in reports)
        for r in reports:
            assert r.equivalent

    def test_s3_obstruction_witness(self):
        s3 = G.make_group("symmetric", 3)
        mu = G.StepDistribution(
            s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3, 2)): 0.5}
        )
        rep = E.psi_positivity_vs_generation(s3, mu)
        assert not rep.generates
        assert rep.psi_half <= 1e-12
        assert rep.witness_mask is not None and rep.witness_fixed
        closure = G.gamma_gamma_inv_closure(s3, mu.support)
        assert sorted(s3.element_name(x) for x in closure) == ["(13)", "e"]

    def test_z5_simple_positive(self):
        z5 = G.make_group("cyclic", 5)
        rep = E.psi_positivity_vs_generation(z5, G.simple_cycle_mu(z5))
        assert rep.generates and rep.psi_half > 1e-12 and rep.witness_mask is None

    def test_lazy_mu_always_positive(self):
        for group, mu in generation_battery():
            if mu.prob(group.identity) > 0:
                rep = E.psi_positivity_vs_generation(group, mu)
                assert rep.generates and rep.psi_half > 1e-12


class TestTrajectories:
    def test_absorbing_states(self, z3_kernel):
        z3, mu, _ = z3_kernel
        f = F.grow_forest(5, 0.5, stream(1, 0))
        roots = [int(r) for r in f.roots()]
        spins = {r: 1 for r in roots}
        sizes = E.evolving_trajectory(f, spins, z3, mu, stream(2, 0), {0, 1, 2})
        assert (sizes == 3).all()
        sizes0 = E.evolving_trajectory(f, spins, z3, mu, stream(3, 0), set())
        assert (sizes0 == 0).all()

    def test_martingale_monte_carlo(self, z3_kernel):
        z3, mu, _ = z3_kernel
        f = F.forest_from_choices([0, 0], [1, 2], alpha=0.0)  # all isolated, n=3
        vals = []
        rng = stream(4, 0)
        for _ in range(20_000):
            vals.append(E.evolving_trajectory(f, {}, z3, mu, rng, {0})[-1])
        vals = np.array(vals, dtype=float)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 3 * se + 1e-12

    def test_spinless_big_cluster_rejected(self, z3_kernel):
        z3, mu, _ = z3_kernel
        f = F.forest_from_choices([1, 1], [1, 1], alpha=0.5)
        with pytest.raises(DomainError):
            E.evolving_trajectory(f, {}, z3, mu, stream(5, 0), {0})

    def test_group_above_the_table_cap_rejected(self):
        # the transition matrix's cap is the one limit on the group order
        z = G.make_group("cyclic", 5000)
        f = F.forest_from_choices([0, 0], [1, 2], alpha=0.0)
        with pytest.raises(CapacityError, match="transition matrix needs order <= 4096"):
            E.evolving_trajectory(f, {}, z, G.simple_cycle_mu(z), stream(6, 0), {0})


@pytest.mark.slow
class TestLamplighterDemo:
    def test_exhaustive_profile_at_the_cap(self):
        # |G| = 24 is the documented exhaustive cap: 2^23 masks hold the identity
        lam = G.make_group("lamplighter", 3)
        mu = G.lamplighter_example_mu(lam)
        table = E.iso_profile(lam, mu)
        assert table.certified
        assert (np.diff(table.phi) <= 1e-15).all()
        assert table.phi[-1] > 0.0  # the chain is connected: positive conductance
        assert table.psi[-1] > 1e-12  # lazy kernel: psi(1/2) > 0
