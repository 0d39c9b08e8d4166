import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from unibound.complexity import (
    _antithetic_means,
    _binomial_shares,
    _merged_columns,
    comparison_report,
    gaussian_averages,
    gaussian_from_counts,
    gaussian_mc,
    mean_stderr,
    rademacher_exact,
    rademacher_mc,
)
from unibound.config import load_config, resolve
from unibound.errors import DomainError, ResourceError
from unibound.rng import as_stream, stream

ROOT = Path(__file__).resolve().parent.parent


def random_dyadic_set(seed, k, n, denom=64):
    rng = stream(seed, "dyadic-set")
    return rng.integers(0, denom + 1, size=(k, n)).astype(np.float64) / denom


def distinct_columns(k, n):
    """A (k, n) set with no two columns equal: its patterns are the 2^n signs."""
    return np.arange(k * n, dtype=np.float64).reshape(k, n) / (k * n)


def finite_image(seed, k, size, n):
    """A (k, n) image on ``size`` support points: column i is the values of
    k members at a random support point, so columns repeat."""
    rng = stream(seed, "finite-image")
    support = rng.integers(0, 65, size=(k, size)).astype(np.float64) / 64
    return support[:, rng.integers(0, size, size=n)]


def brute_force_rademacher(y):
    """Independent oracle: a plain loop over all 2^n sign vectors."""
    n = y.shape[1]
    total = 0.0
    for code in range(2**n):
        signs = np.array([1.0 if code >> i & 1 else -1.0 for i in range(n)])
        total += (y @ signs).max()
    return total / 2**n


# ---------------------------------------------------------------------------
# exact enumeration

def test_exact_zero_and_singleton():
    assert rademacher_exact([[0.0, 0.0, 0.0]]).value == 0.0
    assert rademacher_exact([[0.3, -0.7, 0.1]]).value == 0.0
    assert rademacher_exact(finite_image(1, 1, 3, 12)).value == 0.0    # merged columns


def test_exact_pair_in_one_dimension():
    est = rademacher_exact([[1.0], [-1.0]])
    assert est.value == 1.0 and est.method == "exact" and est.stderr is None


def test_exact_two_basis_vectors():
    # enumerate the 4 sign patterns by hand: max(e1, e2) averages to 1/2
    assert rademacher_exact([[1.0, 0.0], [0.0, 1.0]]).value == 0.5


def test_exact_matches_brute_force_enumeration():
    y = random_dyadic_set(1, 5, 6)
    assert rademacher_exact(y).value == pytest.approx(brute_force_rademacher(y), abs=1e-12)


def test_exact_dimension_cap():
    # 21 distinct columns: 2^20 sign-pattern pairs exceed the enumeration cap.
    with pytest.raises(ResourceError):
        rademacher_exact(distinct_columns(2, 21))


@pytest.mark.parametrize("seed", range(8))
def test_count_patterns_match_brute_force_on_repeated_columns(seed):
    rng = stream(seed, "shape")
    k, size, n = int(rng.integers(1, 7)), int(rng.integers(1, 5)), int(rng.integers(2, 13))
    y = finite_image(seed, k, size, n)
    assert rademacher_exact(y).value == pytest.approx(brute_force_rademacher(y), abs=1e-12)


def test_exact_at_n_64_on_five_support_points():
    # 64 coordinates on 5 points: at most 14^4 * 13 count patterns, not 2^64.
    rep = comparison_report(finite_image(2, 8, 5, 64), 2000, 24)
    assert rep.rademacher.method == "exact"
    assert rep.ok


@pytest.mark.parametrize("counts", [(600, 600), (1100, 100)], ids=["even", "one-column-1100"])
def test_exact_past_n_1024_is_finite_and_matches_monte_carlo(counts):
    # At n = 1200 the products prod_j C(m_j, b_j) pass the largest double,
    # and C(1100, b) alone does; the weights are taken per column over 2^(m_j).
    rng = stream(6, "two-points")
    y = rng.random((4, 2))[:, rng.permutation(np.repeat([0, 1], counts))]
    exact = rademacher_exact(y)
    est = rademacher_mc(y, 20_000, 5)
    assert math.isfinite(exact.value)
    assert abs(est.value - exact.value) <= 4.0 * est.stderr
    rep = comparison_report(y, 2000, 7)
    assert rep.rademacher.method == "exact"
    assert rep.ok


@pytest.mark.parametrize("c", [1, 2, 21, 1022, 1023, 5000])
def test_binomial_shares_are_the_binomial_law(c):
    shares = _binomial_shares(c)
    exact = np.array([math.comb(c, k) / (1 << c) for k in range(c + 1)])
    assert shares.shape == (c + 1,)
    assert np.allclose(shares, exact, rtol=1e-12, atol=1e-300)
    if c <= 1022:
        assert np.array_equal(shares, exact)


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


def test_gaussian_without_repeated_columns_is_unchanged():
    # Seven distinct columns: n normals per draw, the value of the n-wide
    # estimator bit for bit.
    y = random_dyadic_set(10, 5, 7)
    est = gaussian_mc(y, 2000, 31)
    assert est.value == 0.8750127963311088
    assert est.stderr == 0.012891630633511956
    direct = _antithetic_means(y, 2000, as_stream(31, "gaussian-mc"), gaussian=True)
    assert (est.value, est.stderr) == (float(direct.mean()), mean_stderr(direct))


def test_columns_merge_in_order_of_first_appearance():
    # Columns a b a c b d, with -0.0 in the second copy of a, which merges,
    # and d equal to a in its first entry only; sorted by value, b would
    # come first.
    a, b, c, d = [0.5, 0.0], [0.25, 1.0], [0.75, 0.5], [0.5, 0.25]
    y = np.array([a, b, [0.5, -0.0], c, b, d]).T
    ((keep, mult),) = _merged_columns(y[None])
    assert keep.tolist() == [0, 1, 3, 5]
    assert mult.tolist() == [2, 2, 1, 1]


def test_merged_columns_of_a_stack_are_each_image_merged_alone():
    images = np.stack([finite_image(seed, 4, size, 9) for seed, size in enumerate([1, 3, 3, 5, 2, 3])])
    merged = _merged_columns(images)
    assert len(merged) == len(images)
    for image, (keep, mult) in zip(images, merged):
        ((alone_keep, alone_mult),) = _merged_columns(image[None])
        assert np.array_equal(keep, alone_keep) and np.array_equal(mult, alone_mult)
        assert mult.sum() == image.shape[1]


def test_gaussian_averages_of_a_stack_are_each_image_alone():
    images = np.stack([finite_image(seed, 5, size, 12) for seed, size in enumerate([2, 4, 4, 1, 12])])
    values = gaussian_averages(images, 600, [stream(3, "stack", i) for i in range(len(images))])
    alone = [gaussian_mc(image, 600, stream(3, "stack", i)).value for i, image in enumerate(images)]
    assert values.tolist() == alone


def test_merged_gaussian_agrees_with_the_n_wide_estimator():
    # Merging changes the draws, not the law: over 200 seeds the two means
    # agree within 4 standard errors of their difference.
    y = finite_image(3, 6, 3, 12)
    merged = np.asarray([gaussian_mc(y, 200, seed).value for seed in range(200)])
    wide = np.asarray([
        _antithetic_means(y, 200, stream(seed, "n-wide"), gaussian=True).mean() for seed in range(200)
    ])
    spread = math.sqrt(merged.var(ddof=1) / 200 + wide.var(ddof=1) / 200)
    assert abs(merged.mean() - wide.mean()) <= 4.0 * spread


# ---------------------------------------------------------------------------
# exact G on one or two support points, from support counts

def _image(support, counts):
    """The image of the point with these support counts: each support
    column repeated its count times."""
    return np.repeat(np.asarray(support, dtype=np.float64), counts, axis=1)


# name -> ((K, s) support matrix, support counts of one point)
EXACT_G_CASES = {
    "one-member": ([[0.3, 0.9]], [5, 7]),
    "two-members": ([[0.1, 0.8], [0.6, 0.2]], [4, 9]),
    "equal-columns": ([[0.2, 0.2], [0.7, 0.7], [0.5, 0.5]], [6, 5]),
    "a-count-of-zero": (random_dyadic_set(8, 9, 2).tolist(), [0, 12]),
    "one-point-support": ([[0.25], [0.75], [0.5]], [10]),
    "eight-members": (random_dyadic_set(9, 8, 2).tolist(), [7, 9]),
}


@pytest.mark.parametrize("name", sorted(EXACT_G_CASES))
def test_exact_gaussian_lies_within_four_standard_errors_of_monte_carlo(name):
    support, counts = EXACT_G_CASES[name]
    (exact,) = gaussian_from_counts(support, np.array([counts]))
    est = gaussian_mc(_image(support, counts), 100_000, 41)
    assert abs(exact - est.value) <= 4.0 * est.stderr + 1e-15
    if name == "one-member":
        assert exact == 0.0 and est.value == 0.0


def test_exact_gaussian_of_a_segment_is_its_length_over_root_two_pi():
    # Two members: the segment between their scaled points, whatever the count.
    support = np.array([[0.1, 0.8], [0.6, 0.2]])
    counts = np.array([[4, 9], [13, 0], [0, 13]])
    lengths = np.sqrt(counts[:, 0] * 0.5**2 + counts[:, 1] * 0.6**2)
    np.testing.assert_allclose(gaussian_from_counts(support, counts),
                               lengths / math.sqrt(2.0 * math.pi), rtol=1e-15)
    # One support point: one column of multiplicity n.
    assert gaussian_from_counts([[0.25], [0.75]], np.array([[16]]))[0] == 4.0 * 0.5 / math.sqrt(2.0 * math.pi)


def test_exact_gaussian_rows_do_not_depend_on_each_other():
    support = random_dyadic_set(9, 8, 2)
    counts = np.stack([np.arange(17), 16 - np.arange(17)], axis=1)
    together = gaussian_from_counts(support, counts)
    alone = [gaussian_from_counts(support, row[None])[0] for row in counts]
    assert together.tolist() == alone
    # Members' order and repeats leave the hull, so the value, unchanged.
    shuffled = np.concatenate([support[::-1], support[:3]])
    np.testing.assert_allclose(gaussian_from_counts(shuffled, counts), together, rtol=1e-14)


def test_exact_gaussian_refuses_three_support_points():
    with pytest.raises(DomainError):
        gaussian_from_counts([[0.1, 0.2, 0.3]], np.array([[1, 1, 1]]))


# The exact E_X G(F(X)) of the shipped two-point configurations at their own
# seeds and of the ustat-report benchmark shape: the mean of the exact G
# over the n + 1 count types, each weighed by its binomial mass.
EXACT_EXPECTED_G = {
    "deviate_mean": 1.3152416,
    "deviate_variance": 1.3527745,
    "full_report": 1.2958626,
    "ustat-report": 1.7984906,
}
USTAT_REPORT_SHAPE = {
    "kind": "deviate", "seed": 1, "n": 16,
    "law": {"space": {"kind": "finite", "support": [
        {"label": "0", "value": 0.0}, {"label": "1", "value": 1.0}]}},
    "class": {"random_lookup": {"count": 16}}, "statistic": {"name": "mean"},
    "constants": {"route": "closed-form"}, "delta": 0.1, "replications": 100,
}


@pytest.mark.parametrize("name", sorted(EXACT_EXPECTED_G))
def test_expected_exact_gaussian_over_count_types(name):
    raw = USTAT_REPORT_SHAPE if name == "ustat-report" else load_config(ROOT / "configs" / f"{name}.yaml")
    exp = resolve(raw)
    n, (w0, w1) = exp.n, exp.law.weight_matrix[0]
    c0 = np.arange(n + 1)
    pmf = np.array([math.comb(n, k) * w0**k * w1 ** (n - k) for k in range(n + 1)])
    g = gaussian_from_counts(exp.fc.support_matrix(), np.stack([c0, n - c0], axis=1))
    assert float((pmf * g).sum()) == pytest.approx(EXACT_EXPECTED_G[name], abs=1e-7)


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
    # With distinct columns, 2^19 sign-pattern pairs fit the enumeration cap
    # at n = 20; 2^20 do not at n = 21.
    assert comparison_report(distinct_columns(2, 20), 200, 23).rademacher.method == "exact"
    rep = comparison_report(distinct_columns(2, 21), 200, 23)
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
