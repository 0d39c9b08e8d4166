import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unibound.classes import (
    FunctionClass,
    ThresholdMember,
    constant_member,
    lookup_member,
    random_lookup_class,
    separation_labels,
)
from unibound.config import validate_config
from unibound.derivative_bounds import (
    ConstantsReport,
    closed_form_constants,
    estimate_constants_numeric,
)
from unibound.deviation import (
    ExpectationOracle,
    assemble_bound,
    bounded_difference_tail,
    deviation_experiment,
    expectation_oracle,
    squared_swing_sum,
    swap_process_probe,
    symmetrization_check_mean,
    tail_term,
    tail_term_variant,
    uniform_deviation,
)
from unibound.errors import DomainError, OverrideRequiredError, ResourceError
from unibound import complexity, deviation, functionals
from unibound.functionals import (
    Statistic,
    class_separation_statistic,
    constant_kernel,
    identity_kernel,
    mean_statistic,
    product_kernel,
    sample_variance_statistic,
    smoothed_min_kernel,
    squared_difference_kernel,
    u_statistic,
)
from unibound.rng import as_stream, stream
from unibound.runner import EXIT_OK, run_experiment
from unibound.spaces import (
    ProductLaw,
    beta_family,
    draw_batch,
    finite_space,
    finite_weights,
    iid_law,
    point_mass_law,
    sample,
    support_counts,
    uniform_on,
    vector_from_values,
)

BITS = finite_space([("0", 0.0), ("1", 1.0)])
IDENTITY_TABLE = {"0": 0.0, "1": 1.0}


def bit_law(n):
    return iid_law(uniform_on(BITS), n)


# ---------------------------------------------------------------------------
# expectation oracle

def test_oracle_point_mass_is_exact_evaluation():
    law = point_mass_law([0.25, 0.75, 0.5, 1.0])
    fc = random_lookup_class(law.space, 3, 2)
    stat = sample_variance_statistic(4)
    oracle = expectation_oracle(law, fc, stat)
    assert oracle.method == "analytic"
    x = sample(law, 0)
    img = fc.image_matrix(x)
    assert np.allclose(oracle.values, stat(img), atol=1e-15)
    exact = expectation_oracle(law, fc, stat, "exact")
    assert exact.method == "exact-enumeration"
    assert np.allclose(exact.values, oracle.values, atol=1e-15)


def test_oracle_mean_matches_coordinatewise_expectations():
    # independent oracle: E mean(f(X)) = (1/n) sum_i E f(X_i)
    n = 5
    law = bit_law(n)
    fc = random_lookup_class(BITS, 6, 3)
    oracle = expectation_oracle(law, fc, mean_statistic(n))
    weights = law.weight_matrix
    for k, member in enumerate(fc.members):
        fv = member.on_support(BITS)
        per_coord = weights @ fv
        assert oracle.values[k] == pytest.approx(per_coord.mean(), abs=1e-12)


def test_oracle_exact_vs_monte_carlo_variance():
    n = 4
    law = bit_law(n)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    fc = FunctionClass(BITS, (member,))
    stat = sample_variance_statistic(n)
    exact = expectation_oracle(law, fc, stat, "exact")
    mc = expectation_oracle(law, fc, stat, "monte-carlo", replicas=100_000, seed=5)
    # closed form for iid bits: E (s - s')^2 / 2 per pair = (1 - 0)^2 / 4
    assert exact.values[0] == pytest.approx(0.25, abs=1e-12)
    assert abs(mc.values[0] - exact.values[0]) <= 4.0 * mc.stderrs[0]


def test_oracle_exact_cap():
    space = finite_space([(str(j), j / 2.0) for j in range(3)])
    law = iid_law(uniform_on(space), 13)  # 3^13 > 1e6
    fc = random_lookup_class(space, 2, 7)
    with pytest.raises(ResourceError):
        expectation_oracle(law, fc, mean_statistic(13), "exact")


def test_oracle_auto_switches_to_monte_carlo():
    # no closed form: an opaque statistic past the enumeration cap is sampled
    space = finite_space([(str(j), j / 2.0) for j in range(3)])
    law = iid_law(uniform_on(space), 13)
    fc = random_lookup_class(space, 2, 7)
    opaque = Statistic("opaque-mean", 13, mean_statistic(13).evaluate)
    oracle = expectation_oracle(law, fc, opaque, "auto", replicas=2000, seed=1)
    assert oracle.method == "monte-carlo" and oracle.replicas == 2000


def test_oracle_auto_analytic_past_the_enumeration_cap():
    space = finite_space([(str(j), j / 2.0) for j in range(3)])
    law = iid_law(uniform_on(space), 13)  # 3^13 > 1e6
    fc = random_lookup_class(space, 2, 7)
    oracle = expectation_oracle(law, fc, mean_statistic(13), "auto", replicas=2000, seed=1)
    assert oracle.method == "analytic"
    assert oracle.stderrs is None and oracle.replicas is None
    weights = law.weight_matrix
    for k, member in enumerate(fc.members):
        per_coord = weights @ member.on_support(space)
        assert oracle.values[k] == pytest.approx(per_coord.mean(), abs=1e-15)


def test_oracle_opaque_statistic_still_enumerates():
    n = 4
    law = bit_law(n)
    fc = random_lookup_class(BITS, 3, 2)
    builtin = sample_variance_statistic(n)
    opaque = Statistic("opaque-variance", n, builtin.evaluate)
    oracle = expectation_oracle(law, fc, opaque)
    assert oracle.method == "exact-enumeration"
    assert np.allclose(oracle.values, expectation_oracle(law, fc, builtin).values, atol=1e-15)


def test_oracle_u_statistic_past_its_tuple_cap_is_sampled():
    space = finite_space([(str(j), j / 100.0) for j in range(101)])
    law = iid_law(uniform_on(space), 3)
    fc = random_lookup_class(space, 2, 4)
    stat = u_statistic(3, product_kernel(3))  # 101^3 kernel tuples > 1e6
    with pytest.raises(ResourceError):
        stat.product_expectation(fc.support_matrix(), law.weight_matrix)
    oracle = expectation_oracle(law, fc, stat, replicas=500, seed=2)
    assert oracle.method == "monte-carlo" and oracle.replicas == 500


FIVE_POINTS = finite_space([(str(j), j / 4.0) for j in range(5)])


def five_point_law(n, seed):
    """A non-iid law on five support points."""
    rng = np.random.default_rng(seed)
    return ProductLaw(tuple(finite_weights(FIVE_POINTS, rng.dirichlet(np.ones(5))) for _ in range(n)))


def test_sliced_draws_match_one_batch():
    law = five_point_law(7, 0)
    values, indices = draw_batch(law, 1001, stream(6, "draws"))
    rng = stream(6, "draws")
    parts = [draw_batch(law, count, rng) for count in (337, 1, 663)]
    assert np.array_equal(np.concatenate([v for v, _ in parts]), values)
    sliced = np.concatenate([support_counts(idx, 5) for _, idx in parts])
    assert np.array_equal(sliced, support_counts(indices, 5))


@pytest.mark.parametrize("name", ["mean", "variance", "smoothed-min", "product-3"])
def test_oracle_count_path_matches_the_row_path(name, monkeypatch):
    # An opaque wrapper of the same statistic has no count form, so it images
    # the same draws row by row. The budget splits the count path's draws
    # into 85-row slices and its members into one per call.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 15)
    n = 12
    law = five_point_law(n, 1)
    fc = random_lookup_class(FIVE_POINTS, 6, 2)
    calls = []
    stat = _spied(STATISTICS[name](n), calls)
    opaque = Statistic(f"opaque-{name}", n, stat.evaluate, row_bytes=stat.row_bytes)
    counted, rows = (
        expectation_oracle(law, fc, s, "monte-carlo", replicas=3000, seed=stream(4, "oracle"))
        for s in (stat, opaque)
    )
    assert calls == [3000] * len(fc)    # one per member, none on zero rows
    assert counted.method == rows.method == "monte-carlo"
    assert np.allclose(counted.values, rows.values, rtol=0.0, atol=1e-14)
    assert np.allclose(counted.stderrs, rows.stderrs, rtol=1e-9, atol=0.0)


def _spied(stat, calls):
    """The statistic with a count form that records each call."""
    def count_form(support, counts):
        calls.append(counts.shape[0])
        return stat.count_form(support, counts)

    return dataclasses.replace(stat, count_form=count_form)


@pytest.mark.parametrize("name, size, n", [
    ("mean", 50, 3),
    ("variance", 50, 3),
    ("product-2", 12, 8),     # C(13, 2) = 78 multisets > C(8, 2) = 28 subsets
    ("product-3", 101, 3),    # C(103, 3) multisets > C(3, 3) = 1 subset
    ("product-3", 200, 3),    # C(202, 3) multisets > 1e6
])
def test_oracle_takes_the_row_path_where_counting_costs_more(name, size, n):
    space = finite_space([(str(j), j / (size - 1)) for j in range(size)])
    law = iid_law(uniform_on(space), n)
    fc = random_lookup_class(space, 2, 4)
    calls = []
    stat = _spied(STATISTICS[name](n), calls)
    opaque = Statistic("opaque", n, stat.evaluate, row_bytes=stat.row_bytes)
    oracle, rows = (
        expectation_oracle(law, fc, s, "monte-carlo", replicas=500, seed=2) for s in (stat, opaque)
    )
    assert calls == []
    assert np.array_equal(oracle.values, rows.values)
    assert np.array_equal(oracle.stderrs, rows.stderrs)


def test_oracle_row_path_images_one_batch_of_draws():
    # Class separation has no count form: the oracle images one draw_batch.
    n = 6
    law = five_point_law(n, 3)
    fc = random_lookup_class(FIVE_POINTS, 3, 5)
    stat = class_separation_statistic(n, separation_labels([2, 4]))
    oracle = expectation_oracle(law, fc, stat, "monte-carlo", replicas=500, seed=3)
    vals, idx = draw_batch(law, 500, as_stream(3, "expectation-oracle"))
    phis = [stat(fc.member_image(k, vals, idx)) for k in range(len(fc))]
    assert np.array_equal(oracle.values, [p.mean() for p in phis])


STATISTICS = {
    "mean": mean_statistic,
    "variance": sample_variance_statistic,
    "class-separation": lambda n: class_separation_statistic(n, separation_labels([1, n - 1])),
    "squared-difference": lambda n: u_statistic(n, squared_difference_kernel()),
    "product-2": lambda n: u_statistic(n, product_kernel(2)),
    "product-3": lambda n: u_statistic(n, product_kernel(3)),
    "smoothed-min": lambda n: u_statistic(n, smoothed_min_kernel(3.0)),
    "constant": lambda n: u_statistic(n, constant_kernel(0.7, 3)),
    "identity": lambda n: u_statistic(n, identity_kernel()),
}


@st.composite
def finite_laws(draw):
    """Non-iid product laws with 2-5 support points and n <= 8, kept to
    lattices of at most 2^14 points so enumeration stays quick."""
    size = draw(st.integers(2, 5))
    n = draw(st.integers(3, min(8, int(14 / math.log2(size)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space = finite_space([(str(j), float(v)) for j, v in enumerate(rng.random(size))])
    coordinates = tuple(finite_weights(space, rng.dirichlet(np.ones(size))) for _ in range(n))
    return ProductLaw(coordinates), int(rng.integers(1, 5))


@pytest.mark.parametrize("name", sorted(STATISTICS))
@settings(max_examples=15, deadline=None)
@given(case=finite_laws(), seed=st.integers(0, 1000))
def test_oracle_analytic_matches_enumeration(name, case, seed):
    law, count = case
    stat = STATISTICS[name](law.n)
    fc = random_lookup_class(law.space, count, seed)
    analytic = expectation_oracle(law, fc, stat)
    exact = expectation_oracle(law, fc, stat, "exact")
    assert analytic.method == "analytic" and exact.method == "exact-enumeration"
    assert np.allclose(analytic.values, exact.values, rtol=0.0, atol=1e-12)


def _traced_peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def order_three_product_config(kind, n, **keys):
    """The order-3 product U-statistic of 8 lookup members on 5 support points.

    Each evaluated row gathers (C(n,3), 3) doubles: 1 MB at n = 64.
    """
    return {
        "kind": kind, "seed": 3, "n": n,
        "law": {"space": {"kind": "finite", "support": [
            {"label": str(j), "value": j / 4.0} for j in range(5)
        ]}},
        "class": {"random_lookup": {"count": 8}},
        "statistic": {"name": "u-statistic", "kernel": {"name": "product", "order": 3}},
        "constants": {"route": "derived-bound"},
        **keys,
    }


DEVIATE_KEYS = {"c": 1.0, "delta": 0.1, "replications": 100, "gaussian_draws": 200}


def test_oracle_bounded_memory_for_order_three_product_at_n64(tmp_path):
    raw = order_three_product_config("deviate", 64, **DEVIATE_KEYS, oracle={"method": "auto"})
    assert validate_config(raw) == []
    (code, record, _), peak = _traced_peak(lambda: run_experiment(raw, out_dir=tmp_path))
    assert code == EXIT_OK
    assert record["results"]["deviation"]["oracle"]["method"] == "analytic"
    assert peak < 64 * 2**20


@pytest.mark.parametrize("kind, n, keys", [
    ("deviate", 64, {**DEVIATE_KEYS, "oracle": {"method": "monte-carlo", "replicas": 100}}),
    ("constants", 32, {"constants": {"route": "numeric", "probes": 1}}),
    ("tail", 12, {"t_grid": [0.0, 0.1], "tail_replicas": 100}),
    ("probe", 16, {"s_grid": [0.0, 0.1], "draws": 8192, "probe_pairs": 1}),
], ids=["deviate-monte-carlo", "constants-numeric", "tail", "probe"])
def test_order_three_product_runs_in_bounded_memory(tmp_path, kind, n, keys):
    raw = order_three_product_config(kind, n, **keys)
    assert validate_config(raw) == []
    (code, _, _), peak = _traced_peak(lambda: run_experiment(raw, out_dir=tmp_path))
    assert code == EXIT_OK
    assert peak < 64 * 2**20


def test_monte_carlo_oracle_counts_in_bounded_memory():
    # The oracle-mc benchmark's shape. Its 100 000 draws of 64 coordinates
    # cost about 150 MiB as uniforms, values and indices; as support counts
    # they cost 4 MB.
    law = iid_law(uniform_on(FIVE_POINTS), 64)
    fc = random_lookup_class(FIVE_POINTS, 256, 1)
    stat = sample_variance_statistic(64)
    oracle, peak = _traced_peak(
        lambda: expectation_oracle(law, fc, stat, "monte-carlo", replicas=100_000, seed=1)
    )
    assert oracle.method == "monte-carlo" and oracle.replicas == 100_000
    assert peak < 32 * 2**20


@pytest.mark.parametrize("name", ["mean", "variance"])
def test_tail_counts_in_bounded_memory(name):
    # 200 000 tail draws of 64 coordinates cost about 300 MiB as uniforms,
    # values and indices; as support counts on 5 points they cost 8 MB.
    law = iid_law(uniform_on(FIVE_POINTS), 64)
    member = random_lookup_class(FIVE_POINTS, 1, 2).members[0]
    stat = STATISTICS[name](64)
    rep, peak = _traced_peak(
        lambda: bounded_difference_tail(law, stat, member, [0.0, 0.05], 200_000, 1)
    )
    assert rep.replicas == 200_000 and not rep.swing_is_exact
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# uniform deviation

def test_deviation_zero_under_point_mass():
    law = point_mass_law([0.5, 0.25, 0.75])
    fc = random_lookup_class(law.space, 4, 11)
    stat = mean_statistic(3)
    oracle = expectation_oracle(law, fc, stat)
    value, label = uniform_deviation(fc.image_matrix(sample(law, 1)), fc, stat, oracle)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert label == fc.labels[0]  # ties resolve to the first member


def test_deviation_single_member_needs_no_sup():
    law = bit_law(6)
    fc = FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.1, "1": 0.8}),))
    stat = mean_statistic(6)
    oracle = expectation_oracle(law, fc, stat)
    x = sample(law, 3)
    value, label = uniform_deviation(fc.image_matrix(x), fc, stat, oracle)
    assert label == "f"
    assert value == pytest.approx(oracle.values[0] - float(stat(fc.image_matrix(x)[0])), abs=1e-15)


def test_deviation_matches_brute_force():
    # independent path: plain python loop, mean recomputed per member
    n = 6
    law = bit_law(n)
    fc = random_lookup_class(BITS, 4, 13)
    stat = mean_statistic(n)
    oracle = expectation_oracle(law, fc, stat)
    x = sample(law, 29)
    value, label = uniform_deviation(fc.image_matrix(x), fc, stat, oracle)
    gaps = []
    for k, member in enumerate(fc.members):
        image = [member.table[int(i)] for i in x.indices]
        gaps.append(oracle.values[k] - sum(image) / n)
    assert value == pytest.approx(max(gaps), abs=1e-14)
    assert label == fc.labels[int(np.argmax(gaps))]


def test_deviation_dominates_every_member_gap():
    n = 8
    law = bit_law(n)
    fc = random_lookup_class(BITS, 6, 17)
    stat = sample_variance_statistic(n)
    oracle = expectation_oracle(law, fc, stat)
    for seed in range(10):
        img = fc.image_matrix(sample(law, seed))
        value, _ = uniform_deviation(img, fc, stat, oracle)
        for k in range(len(fc)):
            assert value >= oracle.values[k] - float(stat(img[k])) - 1e-15


def test_deviation_monotone_in_class_extension():
    n = 6
    law = bit_law(n)
    fc = random_lookup_class(BITS, 5, 19)
    stat = mean_statistic(n)
    oracle = expectation_oracle(law, fc, stat)
    sub = fc.subclass(fc.labels[:3])
    sub_oracle = ExpectationOracle(oracle.method, sub.labels, oracle.values[:3])
    for seed in range(10):
        x = sample(law, seed)
        small, _ = uniform_deviation(sub.image_matrix(x), sub, stat, sub_oracle)
        large, _ = uniform_deviation(fc.image_matrix(x), fc, stat, oracle)
        assert large >= small


def test_deviation_oracle_class_mismatch():
    law = bit_law(4)
    fc = random_lookup_class(BITS, 3, 23)
    stat = mean_statistic(4)
    oracle = expectation_oracle(law, fc, stat)
    other = random_lookup_class(BITS, 4, 29)
    x = sample(law, 0)
    with pytest.raises(DomainError):
        uniform_deviation(other.image_matrix(x), other, stat, oracle)
    with pytest.raises(DomainError):
        uniform_deviation(fc.image_matrix(x)[:1], fc, stat, oracle)  # one row short


# ---------------------------------------------------------------------------
# bound assembly

def test_bound_reduces_to_mean_form_bit_for_bit():
    # with c = 2 and the mean's constants, the assembled bound equals
    # (2/n) eg + sqrt(ln(1/delta) / (2n)); exact for power-of-two n
    for n in (16, 64):
        constants = closed_form_constants(mean_statistic(n))
        for eg, delta in ((2.0, 0.1), (0.731, 0.05)):
            lib = assemble_bound(constants, eg, 2.0, delta, n)
            direct = (2.0 / n) * eg + math.sqrt(math.log(1.0 / delta) / (2.0 * n))
            assert lib == direct


def test_bound_degenerate_class_leaves_tail():
    constants = ConstantsReport(0.25, 0.0, "closed-form")
    b = assemble_bound(constants, 0.0, 1.0, 0.1, 9)
    assert b == tail_term(constants, 0.1, 9)


def test_bound_arithmetic_example():
    n = 16
    constants = ConstantsReport(2.0 / n, 2.0 / math.sqrt(n * (n - 1)), "closed-form")
    b = assemble_bound(constants, 2.0, 1.0, 0.1, n)
    expected = (0.125 + 2.0 / math.sqrt(240.0)) * 2.0 + 0.125 * math.sqrt(16.0 * math.log(10.0) / 2.0)
    assert b == pytest.approx(expected, rel=1e-12)
    assert b == pytest.approx(1.0447, abs=5e-4)


def test_bound_refuses_numeric_constants_without_override():
    numeric = estimate_constants_numeric(mean_statistic(4), probes=5, seed=0)
    with pytest.raises(OverrideRequiredError):
        assemble_bound(numeric, 1.0, 1.0, 0.1, 4)
    assert assemble_bound(numeric, 1.0, 1.0, 0.1, 4, allow_numeric=True) > 0.0


def test_bound_parameter_validation():
    constants = ConstantsReport(0.1, 0.0, "closed-form")
    with pytest.raises(DomainError):
        assemble_bound(constants, 1.0, 1.0, 1.5, 4)
    with pytest.raises(DomainError):
        assemble_bound(constants, 1.0, 0.0, 0.1, 4)


def test_bound_monotonicity():
    base = ConstantsReport(0.1, 0.05, "closed-form")
    b = assemble_bound(base, 1.0, 1.0, 0.1, 16)
    assert assemble_bound(ConstantsReport(0.2, 0.05, "closed-form"), 1.0, 1.0, 0.1, 16) > b
    assert assemble_bound(ConstantsReport(0.1, 0.10, "closed-form"), 1.0, 1.0, 0.1, 16) > b
    assert assemble_bound(base, 2.0, 1.0, 0.1, 16) > b
    assert assemble_bound(base, 1.0, 2.0, 0.1, 16) > b
    assert assemble_bound(base, 1.0, 1.0, 0.1, 25) > b
    assert assemble_bound(base, 1.0, 1.0, 0.05, 16) > b


def test_tail_term_variant_is_smaller_by_sqrt2():
    constants = ConstantsReport(0.25, 0.0, "closed-form")
    assert tail_term_variant(constants, 0.1, 16) == pytest.approx(
        tail_term(constants, 0.1, 16) / math.sqrt(2.0), rel=1e-15
    )


# ---------------------------------------------------------------------------
# deviation experiment

def test_experiment_point_mass_trivial():
    law = point_mass_law([0.25, 0.5, 0.75, 1.0])
    fc = random_lookup_class(law.space, 4, 31)
    stat = mean_statistic(4)
    constants = closed_form_constants(stat)
    rep = deviation_experiment(law, fc, stat, constants, 1.0, 0.1, 100, 7, gaussian_draws=200)
    assert rep.dev_mean == 0.0 and rep.dev_stderr == 0.0
    assert rep.violation_rate == 0.0 and rep.coverage_ok
    assert rep.c_hat == 0.0
    assert rep.bound >= rep.tail  # the complexity term never subtracts


def test_experiment_mean_deviation_shrinks_with_n():
    fc = random_lookup_class(BITS, 8, 37)
    reports = {}
    for n in (16, 64):
        stat = mean_statistic(n)
        rep = deviation_experiment(
            bit_law(n), fc, stat, closed_form_constants(stat),
            1.0, 0.1, 200, 41, gaussian_draws=400,
        )
        reports[n] = rep
    slack = 4.0 * (reports[16].dev_stderr + reports[64].dev_stderr)
    assert reports[64].dev_mean <= reports[16].dev_mean + slack


def test_experiment_replication_floor():
    stat = mean_statistic(4)
    fc = random_lookup_class(BITS, 2, 5)
    with pytest.raises(DomainError):
        deviation_experiment(bit_law(4), fc, stat, closed_form_constants(stat), 1.0, 0.1, 50, 1)


# ---------------------------------------------------------------------------
# symmetrization check

def test_symmetrization_degenerate_class():
    fc = FunctionClass(BITS, (constant_member("half", 0.5),))
    rep = symmetrization_check_mean(bit_law(8), fc, 8, 100, 3)
    assert rep.dev_mean == pytest.approx(0.0, abs=1e-15)
    assert rep.rad_mean == pytest.approx(0.0, abs=1e-15)
    assert rep.holds


def test_symmetrization_random_class_holds():
    fc = random_lookup_class(BITS, 16, 47)
    rep = symmetrization_check_mean(bit_law(12), fc, 12, 300, 9)
    assert rep.holds
    assert rep.dev_mean <= rep.bound_side + rep.allowance


def test_symmetrization_singleton():
    fc = FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.2, "1": 0.9}),))
    rep = symmetrization_check_mean(bit_law(10), fc, 10, 200, 11)
    assert abs(rep.dev_mean) <= 4.0 * rep.dev_stderr
    assert rep.holds


def test_symmetrization_rejects_mismatched_n():
    fc = random_lookup_class(BITS, 4, 53)
    with pytest.raises(DomainError):
        symmetrization_check_mean(bit_law(6), fc, 7, 100, 1)


def test_symmetrization_monte_carlo_past_the_cap():
    # Point masses at 22 distinct values image to 22 distinct columns, whose
    # 2^21 sign-pattern pairs exceed the enumeration cap: R is sampled, so
    # at the law's one point its value varies only with the draws.
    law = point_mass_law(np.linspace(0.0, 1.0, 22))
    fc = random_lookup_class(law.space, 4, 59)
    rep = symmetrization_check_mean(law, fc, 22, 100, 13)
    assert rep.rad_stderr > 0.0
    assert rep.holds


def test_symmetrization_exact_past_n_20_on_two_support_points(monkeypatch):
    # On bits the image has two distinct columns, so at n = 22 its at most
    # 12 * 12 count patterns are enumerated and no Monte Carlo R is drawn.
    def refuse(*args, **kwargs):
        raise AssertionError("Monte Carlo R drawn")

    monkeypatch.setattr(complexity, "rademacher_mc", refuse)
    fc = random_lookup_class(BITS, 4, 59)
    rep = symmetrization_check_mean(bit_law(22), fc, 22, 100, 13)
    assert rep.rad_mean > 0.0
    assert rep.holds


# ---------------------------------------------------------------------------
# swing sums

def test_swing_constant_for_the_mean_on_bits():
    n = 6
    stat = mean_statistic(n)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    for seed in range(5):
        x = sample(bit_law(n), seed)
        rep = squared_swing_sum(stat, member, BITS, x)
        assert rep.at_point == pytest.approx(1.0 / n, rel=1e-12)
    rep = squared_swing_sum(stat, member, BITS)
    assert rep.sup_is_exact
    assert rep.sup_norm == pytest.approx(1.0 / n, rel=1e-12)


def test_swing_zero_for_constant_statistic():
    stat = u_statistic(4, constant_kernel(3.0))
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    rep = squared_swing_sum(stat, member, BITS)
    assert rep.sup_norm == pytest.approx(0.0, abs=1e-15)


def brute_force_swing(stat, member, space, indices):
    fv = member.on_support(space)
    total = 0.0
    for k in range(len(indices)):
        values = []
        for j in range(space.size):
            modified = list(indices)
            modified[k] = j
            values.append(float(stat(fv[np.asarray(modified)])))
        best = max(
            (a - b) ** 2 for a in values for b in values
        )
        total += best
    return total


def test_swing_matches_brute_force_for_variance():
    stat = sample_variance_statistic(3)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    x = vector_from_values(BITS, [0.0, 0.0, 1.0])
    rep = squared_swing_sum(stat, member, BITS, x)
    assert rep.at_point == pytest.approx(brute_force_swing(stat, member, BITS, [0, 0, 1]), abs=1e-14)
    # exact sup: maximize the brute force over the whole lattice
    best = max(
        brute_force_swing(stat, member, BITS, [a, b, c])
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    )
    assert rep.sup_norm == pytest.approx(best, abs=1e-14)


def test_swing_sampled_fallback_flags_lower_bound():
    n = 25  # 2^25 lattice exceeds the enumeration cap
    stat = mean_statistic(n)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    rep = squared_swing_sum(stat, member, BITS, seed=3)
    assert not rep.sup_is_exact
    assert rep.sup_norm == pytest.approx(1.0 / n, rel=1e-12)


def test_swing_needs_finite_space():
    from unibound.spaces import interval_space
    from unibound.classes import identity_member

    with pytest.raises(DomainError):
        squared_swing_sum(mean_statistic(3), identity_member(), interval_space())


# ---------------------------------------------------------------------------
# bounded-difference tail

def test_tail_degenerate_law():
    law = point_mass_law([0.5, 0.5, 0.5])
    member = constant_member("c", 0.5)
    stat = mean_statistic(3)
    rep = bounded_difference_tail(law, stat, member, [0.1, 0.2], 200, 5)
    assert np.all(rep.empirical == 0.0)
    assert rep.ok


def test_tail_zero_threshold_trivial():
    law = bit_law(6)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    stat = mean_statistic(6)
    rep = bounded_difference_tail(law, stat, member, [0.0], 500, 7)
    assert rep.bound[0] == 1.0
    assert rep.ok


def test_tail_reports_oracle_method():
    law = bit_law(6)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    stat = mean_statistic(6)
    rep = bounded_difference_tail(law, stat, member, [0.1], 200, 7)
    assert rep.oracle_method == "analytic"
    assert rep.expected_value == pytest.approx(0.5, abs=1e-15)
    rep = bounded_difference_tail(law, stat, member, [0.1], 200, 7, oracle_method="monte-carlo")
    assert rep.oracle_method == "monte-carlo"


def test_tail_expected_value_matches_class_oracle():
    law = bit_law(4)
    fc = random_lookup_class(BITS, 3, 5)
    stat = mean_statistic(4)
    oracle = expectation_oracle(law, fc, stat)
    rep = bounded_difference_tail(law, stat, fc.members[1], [0.1], 200, 1)
    assert rep.expected_value == pytest.approx(oracle.values[1], abs=1e-15)


def test_tail_rejects_negative_thresholds():
    law = bit_law(4)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    with pytest.raises(DomainError):
        bounded_difference_tail(law, mean_statistic(4), member, [-0.1], 200, 1)


# ---------------------------------------------------------------------------
# process probe

def test_probe_identical_values_distinct_labels():
    n = 5
    law = bit_law(n)
    twin_a = lookup_member("a", BITS, {"0": 0.3, "1": 0.6})
    twin_b = lookup_member("b", BITS, {"0": 0.3, "1": 0.6})
    stat = sample_variance_statistic(n)
    constants = closed_form_constants(stat)
    x = sample(law, stream(1, "x"))
    x_alt = sample(law, stream(1, "x-alt"))
    rep = swap_process_probe(x, x_alt, twin_a, twin_b, stat, constants, [0.05, 0.1], 200, 3)
    assert rep.distance == 0.0
    assert np.all(rep.empirical == 0.0)
    assert np.all(rep.bound == 0.0)  # s > 0 with zero distance
    assert rep.ok


def test_probe_requires_distinct_members():
    member = lookup_member("a", BITS, IDENTITY_TABLE)
    stat = mean_statistic(4)
    constants = closed_form_constants(stat)
    law = bit_law(4)
    x = sample(law, 1)
    with pytest.raises(DomainError):
        swap_process_probe(x, x, member, member, stat, constants, [0.1], 200, 1)


def test_mean_process_closed_form():
    # for the mean, the process value is (1/n) sum (2 sigma - 1)(f(x) - f(x'))
    n = 6
    stat = mean_statistic(n)
    rng = stream(5, "sigma")
    fx = rng.random(n)
    fx_alt = rng.random(n)
    for _ in range(20):
        sigma = rng.integers(0, 2, size=n).astype(np.float64)
        mix = sigma * fx + (1.0 - sigma) * fx_alt
        mix_swapped = sigma * fx_alt + (1.0 - sigma) * fx
        direct = float(stat(mix)) - float(stat(mix_swapped))
        formula = float(((2.0 * sigma - 1.0) * (fx - fx_alt)).sum() / n)
        assert direct == pytest.approx(formula, abs=1e-14)


def test_probe_variance_no_tail_violations():
    n = 10
    law = bit_law(n)
    fc = random_lookup_class(BITS, 6, 59)
    stat = sample_variance_statistic(n)
    constants = closed_form_constants(stat)
    x = sample(law, stream(2, "x"))
    x_alt = sample(law, stream(2, "x-alt"))
    s_grid = np.linspace(0.02, 0.3, 8)
    rep = swap_process_probe(
        x, x_alt, fc.members[0], fc.members[1], stat, constants, s_grid, 20_000, 11
    )
    assert not rep.violations.any()
    assert rep.zero_mean_ok
    # tails are non-increasing in s and the probe records its inputs
    assert np.all(np.diff(rep.empirical) <= 0.0)
    assert np.all(np.diff(rep.bound) <= 0.0)
    assert np.array_equal(rep.x_values, x.values)
    assert np.array_equal(rep.x_alt_values, x_alt.values)
    # determinism under a repeated seed
    again = swap_process_probe(
        x, x_alt, fc.members[0], fc.members[1], stat, constants, s_grid, 20_000, 11
    )
    assert np.array_equal(rep.empirical, again.empirical)
    assert rep.process_mean == again.process_mean


# ---------------------------------------------------------------------------
# tail, swing and probe: support counts against rows

def _rows_only(stat):
    """The statistic without its count form, so every stage images rows."""
    return dataclasses.replace(stat, count_form=None, count_row_bytes=None)


def bit_mixed_law(n):
    return ProductLaw(tuple(finite_weights(BITS, [p, 1.0 - p]) for p in np.linspace(0.2, 0.7, n)))


COUNTED_STAGES = ["mean", "variance", "smoothed-min", "squared-difference", "product-3"]
# (support, law by n and seed, n with an enumerable lattice, n past the cap)
SUPPORTS = {
    "2-point-iid": (BITS, lambda n, seed: bit_law(n), 10, 20),
    "2-point-mixed": (BITS, lambda n, seed: bit_mixed_law(n), 10, 20),
    "5-point-iid": (FIVE_POINTS, lambda n, seed: iid_law(uniform_on(FIVE_POINTS), n), 7, 9),
    "5-point-mixed": (FIVE_POINTS, five_point_law, 7, 9),
}
# Values of statistics on [0, 1]: the count path may round each differently.
TOL = {"rtol": 1e-12, "atol": 1e-12}


@pytest.mark.parametrize("support", sorted(SUPPORTS))
@pytest.mark.parametrize("name", COUNTED_STAGES)
def test_tail_swing_and_probe_counts_match_rows(name, support):
    space, law_of, n, _ = SUPPORTS[support]
    law = law_of(n, 4)
    fc = random_lookup_class(space, 3, 6)
    stat = STATISTICS[name](n)
    rows = _rows_only(stat)
    assert deviation._counted(space, stat) and not deviation._counted(space, rows)

    oracles = [expectation_oracle(law, fc, s, "exact") for s in (stat, rows)]
    np.testing.assert_allclose(oracles[0].values, oracles[1].values, **TOL)

    single = fc.subclass([fc.labels[0]])
    excess = [next(deviation._phis_of_draws(law, single, s, 2000, stream(3, "tail/x")))
              for s in (stat, rows)]
    np.testing.assert_allclose(*excess, **TOL)
    tails = [bounded_difference_tail(law, s, fc.members[0], [0.0, 0.01, 0.03], 2000, 3)
             for s in (stat, rows)]
    assert tails[0].expected_value == tails[1].expected_value
    assert np.array_equal(tails[0].empirical, tails[1].empirical)
    np.testing.assert_allclose(tails[0].swing_norm, tails[1].swing_norm, **TOL)

    x = sample(law, stream(5, "x"))
    swings = [squared_swing_sum(s, fc.members[1], space, x) for s in (stat, rows)]
    np.testing.assert_allclose(swings[0].at_point, swings[1].at_point, **TOL)
    np.testing.assert_allclose(swings[0].sup_norm, swings[1].sup_norm, **TOL)
    assert swings[0].sup_is_exact and swings[1].sup_is_exact

    x_alt = sample(law, stream(5, "x-alt"))
    pair = fc.subclass(fc.labels[1:])
    processes = [deviation._swap_process(s, pair, x, x_alt, 2000, stream(7, "sigma"))
                 for s in (stat, rows)]
    for counted, imaged in zip(*processes):
        np.testing.assert_allclose(counted, imaged, **TOL)


# Not product-3 on two points: its C(20, 3) subsets per row make the row
# reference too slow there.
@pytest.mark.parametrize("name, support", [
    *((name, "5-point-iid") for name in COUNTED_STAGES),
    *((name, "2-point-iid") for name in COUNTED_STAGES if name != "product-3"),
])
def test_sampled_swing_counts_match_rows(name, support):
    space, _, _, n = SUPPORTS[support]
    member = random_lookup_class(space, 1, 8).members[0]
    stat = STATISTICS[name](n)
    counted, imaged = (squared_swing_sum(s, member, space, seed=2) for s in (stat, _rows_only(stat)))
    assert not counted.sup_is_exact and not imaged.sup_is_exact
    np.testing.assert_allclose(counted.sup_norm, imaged.sup_norm, **TOL)


def test_row_path_keeps_its_values():
    # An interval space and class separation have no count form. These
    # values are those of the row-by-row probe, tail and exact oracle before
    # the count path existed.
    n = 8
    law = iid_law(beta_family(2.0, 3.0), n)
    stat = sample_variance_statistic(n)
    f, g = ThresholdMember("low", 0.2, 0.5), ThresholdMember("high", 0.5, 0.3)
    x, x_alt = sample(law, stream(7, "x")), sample(law, stream(7, "x-alt"))
    probe = swap_process_probe(x, x_alt, f, g, stat, closed_form_constants(stat), [0.05, 0.1],
                               20_000, 5)
    assert repr(probe.process_mean) == "-9.331861132469398e-06"

    n = 6
    stat = class_separation_statistic(n, separation_labels([2, 4]))
    member = random_lookup_class(FIVE_POINTS, 2, 8).members[1]
    tail = bounded_difference_tail(five_point_law(n, 3), stat, member, [0.0, 0.02, 0.05, 0.1],
                                   20_000, 9)
    assert repr(tail.expected_value) == "0.002680297821321805"
    assert [repr(float(v)) for v in tail.empirical] == ["0.46915", "0.04475", "0.0", "0.0"]
    oracle = expectation_oracle(five_point_law(n, 3), random_lookup_class(FIVE_POINTS, 2, 8),
                                stat, "exact")
    assert [repr(float(v)) for v in oracle.values] == [
        "-0.009276185473620911", "0.002680297821321824"]


@pytest.mark.parametrize("name", ["variance", "class-separation"])
def test_exact_oracle_member_batches_match_single_members(monkeypatch, name):
    # A budget this small splits both the lattice and the 40 members into
    # batches; each member's value must not depend on its batch.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 2048)
    n = 8
    law = bit_mixed_law(n)
    fc = random_lookup_class(BITS, 40, 12)
    stat = STATISTICS[name](n)
    whole = expectation_oracle(law, fc, stat, "exact").values
    alone = [expectation_oracle(law, fc.subclass([lab]), stat, "exact").values[0]
             for lab in fc.labels]
    np.testing.assert_allclose(whole, alone, **TOL)


def _counting_evaluate(stat, calls):
    """The statistic with an ``evaluate`` that records each call."""
    def evaluate(s):
        calls.append(s.shape[0])
        return stat.evaluate(s)

    return dataclasses.replace(stat, evaluate=evaluate)


@pytest.mark.parametrize("name, evaluated", [
    ("variance", False), ("smoothed-min", False), ("product-3", False), ("class-separation", True),
])
def test_tail_swing_and_probe_evaluate_rows_only_without_counts(name, evaluated):
    n = 8
    law = bit_law(n)
    fc = random_lookup_class(BITS, 2, 3)
    calls = []
    stat = _counting_evaluate(STATISTICS[name](n), calls)
    constants = ConstantsReport(1.0, 1.0, "closed-form")
    x, x_alt = sample(law, stream(1, "x")), sample(law, stream(1, "x-alt"))
    expectation_oracle(law, fc, stat, "exact")
    bounded_difference_tail(law, stat, fc.members[0], [0.1], 500, 1, oracle_method="monte-carlo")
    squared_swing_sum(stat, fc.members[0], BITS, x)
    swap_process_probe(x, x_alt, *fc.members, stat, constants, [0.1], 500, 1)
    assert bool(calls) == evaluated
