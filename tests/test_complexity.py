import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from unibound.complexity import (
    comparison_report,
    gaussian_mc,
    rademacher_exact,
    rademacher_mc,
)
from unibound.errors import DomainError, ResourceError
from unibound.rng import stream


def random_dyadic_set(seed, k, n, denom=64):
    rng = stream(seed, "dyadic-set")
    return rng.integers(0, denom + 1, size=(k, n)).astype(np.float64) / denom


# ---------------------------------------------------------------------------
# exact enumeration

def test_exact_zero_and_singleton():
    assert rademacher_exact([[0.0, 0.0, 0.0]]).value == 0.0
    assert rademacher_exact([[0.3, -0.7, 0.1]]).value == 0.0


def test_exact_pair_in_one_dimension():
    est = rademacher_exact([[1.0], [-1.0]])
    assert est.value == 1.0 and est.method == "exact" and est.stderr is None


def test_exact_two_basis_vectors():
    # enumerate the 4 sign patterns by hand: max(e1, e2) averages to 1/2
    assert rademacher_exact([[1.0, 0.0], [0.0, 1.0]]).value == 0.5


def test_exact_matches_brute_force_enumeration():
    # independent oracle: plain loop over all sign vectors
    y = random_dyadic_set(1, 5, 6)
    total = 0.0
    for code in range(2**6):
        signs = np.array([1.0 if code >> i & 1 else -1.0 for i in range(6)])
        total += (y @ signs).max()
    assert rademacher_exact(y).value == pytest.approx(total / 2**6, abs=1e-12)


def test_exact_dimension_cap():
    with pytest.raises(ResourceError):
        rademacher_exact(np.zeros((2, 21)))


# ---------------------------------------------------------------------------
# Monte Carlo

def test_mc_zero_set_exact():
    est = rademacher_mc(np.zeros((1, 4)), 1000, 0)
    assert est.value == 0.0 and est.stderr == 0.0


def test_mc_sign_pair_is_constant():
    est = rademacher_mc([[1.0], [-1.0]], 10_000, 0)
    assert est.value == 1.0 and est.stderr == 0.0 and est.draws == 10_000


def test_mc_close_to_exact():
    y = random_dyadic_set(2, 12, 10)
    exact = rademacher_exact(y).value
    est = rademacher_mc(y, 20_000, 5)
    assert abs(est.value - exact) <= 4.0 * est.stderr
    assert est.stderr > 0.0


def test_mc_seed_coverage_sweep():
    # |estimate - exact| <= 4 stderr in >= 99% of seeds
    y = random_dyadic_set(3, 8, 6)
    exact = rademacher_exact(y).value
    hits = 0
    for seed in range(100):
        est = rademacher_mc(y, 2000, seed)
        hits += abs(est.value - exact) <= 4.0 * est.stderr
    assert hits >= 99


def test_mc_draw_floor():
    with pytest.raises(DomainError):
        rademacher_mc([[1.0]], 50, 0)
    with pytest.raises(DomainError):
        gaussian_mc([[1.0]], 99, 0)


# ---------------------------------------------------------------------------
# Gaussian analytic oracles

def half_normal_mean_by_quadrature():
    val, _ = integrate.quad(lambda t: abs(t) * norm.pdf(t), -10, 10)
    return val


def max_of_two_normals_by_quadrature():
    # max(g1, g2) of independent standard normals has density 2 phi(t) Phi(t)
    val, _ = integrate.quad(lambda t: 2.0 * t * norm.pdf(t) * norm.cdf(t), -8, 8)
    return val


def test_gaussian_singleton_centered():
    est = gaussian_mc([[0.4, -0.2]], 1000, 1)
    assert abs(est.value) <= 4.0 * est.stderr + 1e-15


def test_gaussian_sign_pair_hits_half_normal_mean():
    target = half_normal_mean_by_quadrature()
    assert target == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-10)
    est = gaussian_mc([[1.0], [-1.0]], 100_000, 2)
    assert abs(est.value - target) <= 4.0 * est.stderr


def test_gaussian_two_basis_vectors_hit_max_mean():
    target = max_of_two_normals_by_quadrature()
    assert target == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-8)
    est = gaussian_mc([[1.0, 0.0], [0.0, 1.0]], 100_000, 3)
    assert abs(est.value - target) <= 4.0 * est.stderr


# ---------------------------------------------------------------------------
# structural invariants (dyadic data keeps the arithmetic exact)

def test_positive_homogeneity_exact():
    y = random_dyadic_set(4, 6, 7)
    base = rademacher_exact(y).value
    for alpha in (0.0, 0.5, 2.0):
        assert rademacher_exact(alpha * y).value == alpha * base


def test_positive_homogeneity_mc_shared_seed():
    y = random_dyadic_set(5, 6, 7)
    base = rademacher_mc(y, 2000, 11).value
    for alpha in (0.5, 2.0):
        scaled = rademacher_mc(alpha * y, 2000, 11).value
        assert abs(scaled - alpha * base) <= 1e-12


def test_translation_invariance_exact_and_mc():
    y = random_dyadic_set(6, 5, 6)
    shift = random_dyadic_set(7, 1, 6)[0]
    assert rademacher_exact(y + shift).value == rademacher_exact(y).value
    a = rademacher_mc(y, 2000, 13).value
    b = rademacher_mc(y + shift, 2000, 13).value
    assert a == b
    ga = gaussian_mc(y, 2000, 13).value
    gb = gaussian_mc(y + shift, 2000, 13).value
    assert ga == gb


def test_monotonicity_under_inclusion():
    y = random_dyadic_set(8, 6, 5)
    bigger = np.vstack([y, random_dyadic_set(9, 3, 5)])
    assert rademacher_exact(y).value <= rademacher_exact(bigger).value
    small = rademacher_mc(y, 2000, 17).value
    large = rademacher_mc(bigger, 2000, 17).value
    assert small <= large + 1e-15


def test_estimates_nonnegative():
    for seed in range(10):
        y = stream(seed, "nonneg").random((7, 6)) - 0.3
        assert rademacher_exact(y).value >= 0.0
        assert rademacher_mc(y, 500, seed).value >= 0.0
        assert gaussian_mc(y, 500, seed).value >= 0.0


# ---------------------------------------------------------------------------
# comparison inequalities

def test_comparison_on_basis_pair():
    rep = comparison_report(np.asarray([[1.0, 0.0], [0.0, 1.0]]), 20_000, 21)
    assert rep.rademacher.method == "exact"
    assert rep.rademacher.value == 0.5
    assert math.sqrt(math.pi / 2.0) * rep.gaussian.value >= rep.rademacher.value
    assert rep.ok


def test_comparison_exact_up_to_the_cap():
    # 2^19 sign-pattern pairs fit the enumeration cap at n = 20; 2^20 do not at n = 21.
    assert comparison_report(np.eye(2, 20), 200, 23).rademacher.method == "exact"
    rep = comparison_report(np.eye(2, 21), 200, 23)
    assert rep.rademacher.method == "monte-carlo"
    assert rep.rademacher.draws == 200


def test_comparison_singleton_trivial():
    rep = comparison_report(np.asarray([[0.2, 0.8, 0.5]]), 2000, 22)
    assert rep.ok


def test_comparison_random_sweep():
    flags = 0
    for seed in range(20):
        rng = stream(seed, "classes")
        y = rng.random((16, 8))
        rep = comparison_report(y, 4000, seed)
        flags += not rep.ok
    assert flags == 0


def test_comparison_needs_two_coordinates():
    with pytest.raises(DomainError):
        comparison_report(np.asarray([[1.0], [0.5]]), 2000, 23)
