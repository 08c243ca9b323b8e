"""Closed-form constants for the reinforced-walk analysis.

All quantities are parameterized by the reinforcement strength ``alpha``:
limiting cluster-size densities ``theta_k``, the hypergeometric constant
``F(alpha) = 2F1(1, 1/alpha; 1/alpha + 1; 1/2)`` that controls the odd-cluster
density, the hypercube cutoff constant ``c_alpha``, and the product sequences
``beta_n`` and ``a_n`` that drive isolated-vertex and cluster-growth means.
Everything is evaluated through log-gamma so it stays finite up to n = 1e9.
"""

from __future__ import annotations

import math

from .errors import ParameterError

# Series length for the hypergeometric constant; the terms are dominated by
# 2^-m so the tail after 64 terms is below double-precision resolution.
_F_SERIES_TERMS = 64


def _check_alpha_open(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must lie in [0, 1), got {alpha}")
    return alpha


def theta_k(alpha: float, k: int) -> float:
    """Limiting density of size-k clusters, (1-alpha)/alpha * B(k, 1 + 1/alpha)."""
    alpha = _check_alpha_open(alpha)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    inv = 1.0 / alpha
    log_beta = (
        math.lgamma(k) + math.lgamma(1.0 + inv) - math.lgamma(k + 1.0 + inv)
    )
    return (1.0 - alpha) / alpha * math.exp(log_beta)


def theta_partial_sum(alpha: float, k_max: int) -> float:
    """Sum of theta_k for k = 1..k_max; converges to 1 - alpha from below."""
    alpha = _check_alpha_open(alpha)
    total = 0.0
    comp = 0.0
    for k in range(1, k_max + 1):
        term = theta_k(alpha, k) - comp
        new = total + term
        comp = (new - total) - term
        total = new
    return total


def hyp2f1_half(alpha: float) -> float:
    """F(alpha) = 2F1(1, 1/alpha; 1/alpha + 1; 1/2) via its simple series.

    Equals sum_m 2^-m / (1 + m*alpha); strictly decreasing on (0,1) with
    limits 2 (alpha -> 0) and 2*log(2) (alpha -> 1).
    """
    alpha = _check_alpha_open(alpha)
    total = 0.0
    half = 1.0
    for m in range(_F_SERIES_TERMS):
        total += half / (1.0 + m * alpha)
        half *= 0.5
    return total


def hyp2f1_half_pochhammer(alpha: float) -> float:
    """Same constant from the rising-factorial series, for cross-validation."""
    alpha = _check_alpha_open(alpha)
    b = 1.0 / alpha
    c = b + 1.0
    term = 1.0  # (1)_m (b)_m / (c)_m * (1/2)^m / m!
    total = 0.0
    for m in range(_F_SERIES_TERMS):
        total += term
        term *= (1.0 + m) * (b + m) / (c + m) * 0.5 / (m + 1.0)
    return total


def cutoff_constant(alpha: float) -> float:
    """Hypercube cutoff constant 1 / ((1 - alpha) * F(alpha)); ~1.294 at alpha=0.5."""
    alpha = _check_alpha_open(alpha)
    return 1.0 / ((1.0 - alpha) * hyp2f1_half(alpha))


def beta_n(n: int, alpha: float) -> float:
    """beta_n = Gamma(n - alpha) / (Gamma(1 - alpha) * Gamma(n + 1)), beta_1 = 1."""
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n == 1:
        return 1.0
    return math.exp(
        math.lgamma(n - alpha) - math.lgamma(1.0 - alpha) - math.lgamma(n + 1.0)
    )


def beta_n_product(n: int, alpha: float) -> float:
    """beta_n by direct multiplication of (1 - (1+alpha)/(k+1)); small-n check."""
    alpha = _check_alpha(alpha)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    out = 1.0
    for k in range(1, n):
        out *= 1.0 - (1.0 + alpha) / (k + 1.0)
    return out


def growth_a(m: int, alpha: float) -> float:
    """a_m = prod_{k<m} (1 + alpha/k) = Gamma(m + alpha) / (Gamma(1+alpha) Gamma(m))."""
    alpha = _check_alpha(alpha)
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return math.exp(
        math.lgamma(m + alpha) - math.lgamma(1.0 + alpha) - math.lgamma(m)
    )


def growth_a_product(m: int, alpha: float) -> float:
    """a_m by direct multiplication; small-m cross-check of growth_a."""
    alpha = _check_alpha(alpha)
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    out = 1.0
    for k in range(1, m):
        out *= 1.0 + alpha / k
    return out


def growth_ratio(t: int, n: int, alpha: float) -> float:
    """a_n / a_t, the conditional mean size at time n of a cluster isolated at t."""
    alpha = _check_alpha(alpha)
    if not 1 <= t <= n:
        raise ParameterError(f"need 1 <= t <= n, got t={t}, n={n}")
    return math.exp(
        math.lgamma(n + alpha)
        - math.lgamma(n)
        - math.lgamma(t + alpha)
        + math.lgamma(t)
    )


def odd_cluster_density(alpha: float) -> float:
    """Limit of (number of odd-size clusters)/n: (1-alpha)/2 * F(alpha)."""
    alpha = _check_alpha_open(alpha)
    return 0.5 * (1.0 - alpha) * hyp2f1_half(alpha)

