import numpy as np
import pytest
from scipy.stats import chisquare

from unibound import functionals, spaces
from unibound.errors import DomainError
from unibound.rng import as_stream, open_uniforms
from unibound.spaces import (
    COMPARE_MAX_SIZE,
    ProductLaw,
    bernoulli,
    beta_family,
    draw_batch,
    draw_counts,
    finite_space,
    finite_weights,
    iid_law,
    interval_space,
    point_mass_law,
    sample,
    support_counts,
    uniform_on,
    vector_from_values,
)

BITS = finite_space([("0", 0.0), ("1", 1.0)])


def test_point_mass_law_is_degenerate():
    law = point_mass_law([0.7, 0.7, 0.7])
    x = sample(law, 5)
    assert np.array_equal(x.values, [0.7, 0.7, 0.7])


def test_sample_deterministic_given_seed():
    law = iid_law(uniform_on(BITS), 2)
    a = sample(law, 99)
    b = sample(law, 99)
    assert np.array_equal(a.values, b.values)
    assert set(a.values) <= {0.0, 1.0}


def test_sample_varies_across_seeds():
    law = iid_law(uniform_on(BITS), 8)
    draws = {tuple(sample(law, s).values) for s in range(32)}
    assert len(draws) > 8


def test_empirical_frequencies_match_weights():
    # n=4, uniform on {0, 0.5, 1}: coordinate frequencies within 0.01 of 1/3.
    space = finite_space([("lo", 0.0), ("mid", 0.5), ("hi", 1.0)])
    law = iid_law(uniform_on(space), 4)
    idx = draw_batch(law, 100_000, 7)
    for i in range(4):
        counts = np.bincount(idx[:, i], minlength=3)
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 1.0 / 3.0) < 0.01)
        # chi-square should not reject the exact weights
        assert chisquare(counts).pvalue > 1e-9


def test_weight_validation():
    with pytest.raises(DomainError):
        finite_weights(BITS, [0.6, 0.6])
    with pytest.raises(DomainError):
        finite_weights(BITS, [-0.1, 1.1])
    with pytest.raises(DomainError):
        finite_weights(BITS, [1.0])
    # NaN fails every comparison, so the sum check alone would pass it.
    with pytest.raises(DomainError, match="finite"):
        finite_weights(BITS, [np.nan, 1.0])


def test_support_validation():
    with pytest.raises(DomainError):
        finite_space([])
    with pytest.raises(DomainError):
        finite_space([("a", 1.5)])
    with pytest.raises(DomainError):
        finite_space([("a", 0.1), ("a", 0.2)])


def test_product_law_invariants():
    with pytest.raises(DomainError):
        ProductLaw((uniform_on(BITS),))
    other = finite_space([("x", 0.5)])
    with pytest.raises(DomainError):
        ProductLaw((uniform_on(BITS), uniform_on(other)))


def test_interval_families():
    for coord, lo, hi in [
        (uniform_on(interval_space()), 0.0, 1.0),
        (bernoulli(0.25), 0.0, 1.0),
        (beta_family(2.0, 3.0), 0.0, 1.0),
    ]:
        law = iid_law(coord, 4)
        vals = draw_batch(law, 20_000, 11)
        assert vals.dtype == np.float64    # values, not support indices
        assert vals.min() >= lo and vals.max() <= hi
    vals = draw_batch(iid_law(bernoulli(0.25), 2), 50_000, 3)
    assert set(np.unique(vals)) <= {0.0, 1.0}
    assert abs(vals.mean() - 0.25) < 0.01
    vals = draw_batch(iid_law(beta_family(2.0, 3.0), 2), 50_000, 4)
    assert abs(vals.mean() - 0.4) < 0.01  # beta(2,3) mean = 2/5


@pytest.mark.parametrize("coord, top", [
    (finite_weights(BITS, [0.3, 0.7]), 1.0),
    # Cumulative weights that end short of 1, so only the clamp keeps u = 1.0
    # on the last support point.
    (finite_weights(finite_space([("a", 0.2), ("b", 0.5), ("c", 0.9)]),
                    [0.2, 0.2, 0.6 - 1e-13]), 0.9),
    (uniform_on(interval_space()), 1.0),
    (bernoulli(0.3), 0.0),
    (beta_family(2.0, 3.0), 1.0),
], ids=["finite", "finite-short-sum", "uniform", "bernoulli", "beta"])
def test_invert_maps_one_into_the_space(coord, top):
    # open_uniforms can return exactly 1.0.
    drawn = coord.invert(np.array([1.0]))
    values = coord.space.support_values[drawn] if coord.space.kind == "finite" else drawn
    assert values.tolist() == [top]


def test_family_parameter_validation():
    with pytest.raises(DomainError):
        bernoulli(1.5)
    with pytest.raises(DomainError):
        beta_family(0.0, 1.0)
    for a, b in [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)]:
        with pytest.raises(DomainError):
            beta_family(a, b)


def test_vector_from_values_matches_support():
    x = vector_from_values(BITS, [0.0, 1.0, 0.0])
    assert np.array_equal(x.point, [0, 1, 0])
    assert np.array_equal(x.values, [0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        vector_from_values(BITS, [0.5])
    with pytest.raises(DomainError):
        vector_from_values(interval_space(), [1.2])
    with pytest.raises(DomainError):
        vector_from_values(interval_space(), [0.5, np.nan])


FIVE = finite_space([(str(j), j / 4) for j in range(5)])


def _mixed_law():
    rng = np.random.default_rng(0)
    skewed = [finite_weights(FIVE, rng.dirichlet(np.ones(5))) for _ in range(3)]
    return ProductLaw(tuple(skewed[i % 3] if i % 4 else uniform_on(FIVE) for i in range(10)))


@pytest.mark.parametrize("law", [
    iid_law(uniform_on(FIVE), 10),
    point_mass_law([0.1, 0.7, 0.1, 0.3, 0.7, 0.9, 0.3, 0.1]),
    _mixed_law(),
    ProductLaw((bernoulli(0.3), beta_family(2.0, 3.0), bernoulli(0.3), uniform_on(interval_space()))),
], ids=["iid", "point-mass", "mixed", "interval-mixed"])
def test_draw_batch_matches_per_coordinate_inversion(law, monkeypatch):
    # A 4 KiB budget cuts the 1000 rows into slices of at most 32 rows.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 12)
    drawn = draw_batch(law, 1000, 17)
    # One array: support indices on a finite space, values on the interval.
    finite = law.space.kind == "finite"
    assert drawn.shape == (1000, law.n)
    assert drawn.dtype == (np.int64 if finite else np.float64)
    u = open_uniforms(as_stream(17, "draw-batch"), (1000, law.n))
    for i, coord in enumerate(law.coordinates):
        assert drawn[:, i].tobytes() == coord.invert(u[:, i]).tobytes()
    # A sample is the one row of its own draw; on a finite space its values
    # are the support values at that row's indices.
    x = sample(law, 17)
    assert x.point.tobytes() == draw_batch(law, 1, as_stream(17, "sample"))[0].tobytes()
    if finite:
        assert np.array_equal(x.values, law.space.support_values[x.point])


def _two_group_law(size, n):
    """Every other coordinate uniform on ``size`` points, the rest skewed."""
    space = finite_space([(str(j), j / (size - 1)) for j in range(size)])
    skewed = finite_weights(space, np.random.default_rng(size).dirichlet(np.ones(size)))
    return ProductLaw(tuple(skewed if i % 2 else uniform_on(space) for i in range(n)))


DRAW_COUNT_LAWS = {
    "iid": lambda: iid_law(uniform_on(FIVE), 10),
    "mixed": _mixed_law,
    # Zero weights, so cumulative weights tie.
    "point-mass": lambda: point_mass_law([0.1, 0.7, 0.1, 0.3, 0.7, 0.9, 0.3, 0.1]),
    "short-sum": lambda: iid_law(finite_weights(FIVE, [0.2, 0.2, 0.2, 0.2, 0.2 - 1e-13]), 10),
    **{f"s={size}": (lambda size=size: _two_group_law(size, 9))
       for size in (2, COMPARE_MAX_SIZE, COMPARE_MAX_SIZE + 1)},
}


@pytest.mark.parametrize("budget", [functionals.BATCH_BYTES, 1 << 12])
@pytest.mark.parametrize("name", sorted(DRAW_COUNT_LAWS))
def test_draw_counts_are_the_counts_of_draw_batch(name, budget, monkeypatch):
    # A 4 KiB budget cuts the 1001 rows into slices of 12 to 16 rows and a
    # shorter last one.
    monkeypatch.setattr(functionals, "BATCH_BYTES", budget)
    law = DRAW_COUNT_LAWS[name]()
    if name == "short-sum":
        # Every other uniform within 1e-12 of 1, so some lie past the last
        # cumulative weight, 1 - 1e-13, and only the clamp keeps them on
        # the last support point.
        drawn = []

        def near_one(rng, size):
            u = open_uniforms(rng, size)
            u.flat[::2] = 1.0 - 1e-12 * u.flat[::2]
            drawn.append(u)
            return u

        monkeypatch.setattr(spaces, "open_uniforms", near_one)
    reference = support_counts(draw_batch(law, 1001, 17), law.space.size)
    assert np.array_equal(draw_counts(law, 1001, 17), reference)
    if name == "short-sum":
        assert any(np.any(u > law.coordinates[0]._cumulative[-1]) for u in drawn)


def test_draw_counts_need_a_finite_space():
    with pytest.raises(DomainError):
        draw_counts(iid_law(bernoulli(0.3), 2), 10, 1)
    with pytest.raises(DomainError):
        draw_counts(iid_law(uniform_on(FIVE), 2), 0, 1)
