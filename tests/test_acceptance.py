"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy criteria (A6, A7) are marked slow but still run by
default; the whole module takes a few minutes on a laptop-class machine.
"""

import math

import numpy as np
import pytest
from scipy import stats

from srrw_lab import evolving as E
from srrw_lab import forest as F
from srrw_lab import groups as G
from srrw_lab import metrics as M
from srrw_lab import oracle as O
from srrw_lab import special as sp
from srrw_lab import walk as W


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    return ok


def test_a1_exact_z2_two_step_law():
    z2 = G.make_group("cyclic", 2)
    mu = G.uniform_mu(z2)
    worst = 0.0
    for a in (0.0, 0.3, 0.5, 0.7):
        d = O.exact_endpoint_distribution(z2, mu, a, 2)
        worst = max(worst, abs(d.probs[0] - (1 + a) / 2))
    assert report("A1 exact Z2 law", worst < 1e-12, f"max |P(S2=0)-(1+a)/2| = {worst:.2e}")


def test_a2_construction_equivalence():
    z3 = G.make_group("cyclic", 3)
    mu = G.simple_cycle_mu(z3)
    n, R = 6, 100_000
    ok = True
    details = []
    for alpha, seed in ((0.3, 201), (0.7, 202)):
        exact = O.exact_endpoint_distribution(z3, mu, alpha, n).probs
        hd = np.bincount(
            W.sample_endpoints_direct(z3, mu, alpha, [n], R, seed)[0], minlength=3
        )
        hf = np.bincount(
            W.sample_endpoints_forest(z3, mu, alpha, n, R, seed + 50), minlength=3
        )
        tv_cross = 0.5 * np.abs(hd / R - hf / R).sum()
        tv_d = 0.5 * np.abs(hd / R - exact).sum()
        tv_f = 0.5 * np.abs(hf / R - exact).sum()
        p_d = stats.chisquare(hd, f_exp=exact * R).pvalue
        p_f = stats.chisquare(hf, f_exp=exact * R).pvalue
        ok &= tv_cross < 0.015 and tv_d < 0.015 and tv_f < 0.015
        ok &= p_d > 1e-3 and p_f > 1e-3
        details.append(f"a={alpha}: tv={tv_d:.4f}/{tv_f:.4f} p={p_d:.3f}/{p_f:.3f}")
    assert report("A2 construction equivalence", ok, "; ".join(details))


def test_a3_expected_isolated_formula():
    worst = 0.0
    for alpha in (0.3, 0.5, 0.9):
        for n in range(1, 10):
            worst = max(
                worst,
                abs(
                    O.oracle_expected_isolated(n, alpha)
                    - F.expected_isolated_exact(n, alpha)
                ),
            )
    ok = worst < 1e-10
    mc_ok = True
    n, R = 10_000, 10_000
    for alpha in (0.3, 0.5, 0.9):
        counts = M.cluster_size_counts(alpha, [n], R, 301, k_max=1)[0][0, :, 0]
        se = counts.std(ddof=1) / math.sqrt(R)
        dev = abs(counts.mean() - F.expected_isolated_exact(n, alpha))
        mc_ok &= dev < 4 * se
    assert report(
        "A3 E I(n) closed form",
        ok and mc_ok,
        f"oracle max err {worst:.1e}; MC within 4 sigma: {mc_ok}",
    )


def test_a4_cluster_size_densities():
    n, R, alpha = 100_000, 200, 0.5
    counts, odd = M.cluster_size_counts(alpha, [n], R, master_seed=41, k_max=5)
    counts, odd = counts[0], odd[0]
    means = counts.mean(axis=0) / n
    worst_k = max(abs(means[k - 1] - sp.theta_k(alpha, k)) for k in range(1, 6))
    odd_dev = abs(odd.mean() / n - 0.3864)
    ok = worst_k < 0.01 and odd_dev < 0.005
    assert report(
        "A4 theta_k and odd-cluster density",
        ok,
        f"max |N_k/n - theta_k| = {worst_k:.4f}; |N_odd/n - 0.3864| = {odd_dev:.4f}",
    )


def test_a5_hypergeometric_identities():
    grid = np.linspace(0.01, 0.99, 99)
    worst = max(abs(sp.hyp2f1_half(a) - sp.hyp2f1_half_pochhammer(a)) for a in grid)
    bounds_ok = all(2 / (1 + a) < sp.hyp2f1_half(a) < 2 for a in grid)
    c = sp.cutoff_constant(0.5)
    ok = worst < 1e-12 and bounds_ok and abs(c - 1.294) <= 1e-3
    assert report(
        "A5 2F1 identities",
        ok,
        f"series agree to {worst:.1e}; bounds {bounds_ok}; c_0.5 = {c:.4f}",
    )


@pytest.mark.slow
def test_a6_cycle_phase_transition_slopes():
    windows = {0.25: (1.75, 2.25), 0.75: (1.08, 1.58)}
    horizons = {
        (33, 0.25): 490,
        (65, 0.25): 1901,
        (129, 0.25): 7488,
        (33, 0.75): 158,
        (65, 0.75): 392,
        (129, 0.75): 977,
    }
    ok = True
    details = []
    for alpha, window in windows.items():
        ts = []
        for L in (33, 65, 129):
            run = M.cycle_mixing_time(
                L, alpha, 0.25, 20_000, 601, horizons[(L, alpha)], points_per_decade=40
            )
            assert not run.estimate.guard_triggered
            ts.append(run.estimate.t_mix)
        slope = float(np.polyfit(np.log([33, 65, 129]), np.log(ts), 1)[0])
        ok &= window[0] <= slope <= window[1]
        details.append(f"a={alpha}: t={ts}, slope={slope:.3f} in {window}")
    assert report("A6 cycle phase transition", ok, "; ".join(details))


@pytest.mark.slow
def test_a7_hypercube_cutoff_constant():
    d, alpha, R = 256, 0.5, 10_000
    c_alpha = sp.cutoff_constant(alpha)
    run = M.hypercube_mixing_time(
        d, alpha, 0.25, R, 701, int(c_alpha * d * (math.log(d) + 4)), points_per_decade=40
    )
    assert not run.estimate.guard_triggered
    ratio = run.estimate.t_mix / (d * math.log(d))
    ok = abs(ratio - c_alpha) <= 0.25 * c_alpha
    assert report(
        "A7 hypercube cutoff constant",
        ok,
        f"t(0.25)/(d log d) = {ratio:.4f} vs c_0.5 = {c_alpha:.4f}",
    )


def test_a7_exact_alpha0_window_explains_the_narrowing_ratio():
    # The narrowing criterion below asks t(0.1)/t(0.9) <= 1.3 at d = 256.  The
    # exact alpha = 0 lazy walk, whose TV(n) is the TV between row n of the
    # weight-chain table and Binomial(d, 1/2), gives 221/62, 486/164 and
    # 1062/411 at d = 64, 128, 256: the O(d) cutoff window is still wide there.
    ratios = []
    for d in (64, 128, 256):
        n_max = int(3 * d * math.log(d))
        q = M.hypercube_weight_chain_table(d, n_max)
        tv = 0.5 * np.abs(q - M.hypercube_stationary_weights(d)).sum(axis=1)
        ns = np.arange(1, n_max + 1)
        curve = M.DistanceCurve(
            f"hypercube(d={d})", 0.0, "exact", 0, None, ns, tv[1:], np.zeros(n_max)
        )
        t_01, t_09 = (M.mixing_time_scan(curve, eps) for eps in (0.1, 0.9))
        assert not t_01.guard_triggered
        ratios.append(t_01.t_mix / t_09.t_mix)
    assert ratios[0] > ratios[1] > ratios[2]
    ok = 2.4 <= ratios[2] <= 2.8
    assert report(
        "A7 exact alpha = 0 window", ok, "t(0.1)/t(0.9) = " + ", ".join(f"{r:.3f}" for r in ratios)
    )


@pytest.mark.slow
def test_a7_hypercube_cutoff_narrowing():
    # Known to fail at desk scale: the TV cutoff window is ~(log d +- 2.5)/log d
    # wide, so even the exact alpha=0 curve has t(0.1)/t(0.9) ~ 2.5 at d=256.
    d, alpha, R = 256, 0.5, 10_000
    c_alpha = sp.cutoff_constant(alpha)
    horizon = int(1.6 * c_alpha * d * (math.log(d) + 4))
    grid = M.geometric_grid(horizon, 40)
    curve = M.hypercube_tv_curve(d, alpha, grid, R, 702)
    t_01 = M.mixing_time_scan(curve, 0.1).t_mix
    t_09 = M.mixing_time_scan(curve, 0.9).t_mix
    ratio = t_01 / t_09
    ok = ratio <= 1.3
    report("A7 cutoff narrowing t(0.1)/t(0.9) <= 1.3", ok, f"ratio = {ratio:.3f}")
    assert ok, (
        f"cutoff narrowing ratio {ratio:.3f} > 1.3 at d={d}: the TV window at "
        "desk scale is still several times wider than the criterion allows "
        "(the exact alpha=0 computation gives ~2.5 as well)"
    )


def test_a8_spectral_gaps():
    z3 = G.make_group("cyclic", 3)
    sg3 = M.spectral_gap(z3, G.simple_cycle_mu(z3))
    ok = abs(sg3.gamma_star - 0.5) < 1e-12
    details = [f"Z3 gamma={sg3.gamma_star:.15f}"]
    for d in (2, 8, 64):
        h = G.make_group("hypercube", d)
        sg = M.spectral_gap(h, G.lazy_hypercube_mu(h))
        ok &= abs(sg.gamma_star - 1.0 / d) < 1e-12
        details.append(f"d={d} gamma={sg.gamma_star:.12f}")
    # eigensolver cross-check where the dense matrix is available
    h2 = G.make_group("hypercube", 2)
    lam = np.linalg.eigvalsh(G.transition_matrix(h2, G.lazy_hypercube_mu(h2)))
    dense_star = float(np.abs(np.sort(lam)[:-1]).max())
    ok &= abs(dense_star - (1 - 1.0 / 2)) < 1e-12
    assert report("A8 spectral gaps", ok, "; ".join(details))


def test_a9_evolving_set_exactness():
    z3 = G.make_group("cyclic", 3)
    z5 = G.make_group("cyclic", 5)
    fixtures = [
        (z3, G.simple_cycle_mu(z3)),
        (z5, G.lazy_cycle_mu(z5)),
    ]
    worst_mart = 0.0
    worst_dual = 0.0
    for group, mu in fixtures:
        P = G.transition_matrix(group, mu)
        for mask in range(1, 1 << group.order):
            members = [i for i in range(group.order) if mask >> i & 1]
            worst_mart = max(
                worst_mart, abs(E.expected_size_one_step(members, P) - len(members))
            )
            worst_dual = max(worst_dual, E.complement_duality_check(group, P, members))
    slack = E.psi_phi_inequality_check(z5, G.lazy_cycle_mu(z5))
    ok = worst_mart < 1e-12 and worst_dual < 1e-12 and slack >= -1e-12
    assert report(
        "A9 evolving sets",
        ok,
        f"martingale err {worst_mart:.1e}; duality err {worst_dual:.1e}; "
        f"psi-phi slack {slack:.3e}",
    )


def test_a10_generation_criterion():
    s3 = G.make_group("symmetric", 3)
    mu = G.StepDistribution(
        s3, {s3.from_cycles((1, 2)): 0.5, s3.from_cycles((1, 3, 2)): 0.5}
    )
    closure = G.gamma_gamma_inv_closure(s3, mu.support)
    names = sorted(s3.element_name(x) for x in closure)
    rep = E.psi_positivity_vs_generation(s3, mu)
    ok = names == ["(13)", "e"]
    ok &= rep.psi_half <= 1e-12 and rep.witness_mask is not None and rep.witness_fixed
    z5 = G.make_group("cyclic", 5)
    rep5 = E.psi_positivity_vs_generation(z5, G.simple_cycle_mu(z5))
    ok &= rep5.generates and rep5.psi_half > 1e-12
    assert report(
        "A10 generation criterion",
        ok,
        f"S3 closure={{{','.join(names)}}}, psi(1/2)={rep.psi_half:.1e}, "
        f"witness fixed={rep.witness_fixed}; Z5 psi(1/2)={rep5.psi_half:.4f}",
    )


def test_a11_exponential_decay_fit():
    grid = np.arange(20, 201)
    curve = M.rao_blackwell_cycle_curve(5, 0.5, grid, 50_000, 1101, chunk=4096)
    fit = M.decay_rate_fit(curve, 0.5, window=(20, 200))
    ok = fit.r_squared > 0.95 and 0.0 < fit.rho < 1.0
    z5 = G.make_group("cyclic", 5)
    lam_star = M.spectral_gap(z5, G.simple_cycle_mu(z5)).lambda_star
    curve0 = M.rao_blackwell_cycle_curve(5, 0.0, grid, 64, 1102, chunk=32)
    fit0 = M.decay_rate_fit(curve0, 0.0, window=(20, 200))
    ok &= abs(fit0.rho - lam_star) < 0.02
    assert report(
        "A11 exponential decay",
        ok,
        f"a=0.5: rho={fit.rho:.4f}, R2={fit.r_squared:.4f}; "
        f"a=0: rho={fit0.rho:.6f} vs lambda*={lam_star:.6f}",
    )


def test_a12_negative_correlation():
    worst = -np.inf
    for K in (2, 3):
        rep = O.negative_correlation_check(0.5, 6, 2, K)
        worst = max(worst, rep.max_violation_ge, rep.max_violation_lt)
    ok = worst <= 1e-10
    assert report("A12 negative correlation", ok, f"max violation = {worst:.2e}")


def test_a13_non_monotonicity_and_scan():
    z2 = G.make_group("cyclic", 2)
    curve = O.exact_tv_curve(z2, G.uniform_mu(z2), 0.5, 6)
    d1, d2 = curve.value_at(1), curve.value_at(2)
    scan_03 = M.mixing_time_scan(curve, 0.3)
    scan_02 = M.mixing_time_scan(curve, 0.2)
    ok = abs(d1) < 1e-12 and abs(d2 - 0.25) < 1e-12
    ok &= scan_03.t_mix == 1 and scan_02.t_mix > 2
    ok &= scan_02.t_mix == 1 + max(scan_02.exceedances)
    assert report(
        "A13 non-monotonicity + scan",
        ok,
        f"D(1)={d1:.3f}, D(2)={d2:.3f}, t(0.3)={scan_03.t_mix}, t(0.2)={scan_02.t_mix}",
    )
