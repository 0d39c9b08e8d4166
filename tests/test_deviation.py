import ast
import dataclasses
import itertools
import math
import re
import time
import tracemalloc
from pathlib import Path

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
)
from unibound.config import load_config, resolve, validate_config
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

ROOT = Path(__file__).resolve().parent.parent
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
    assert exact.method == "exact"
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
    assert oracle.method == "exact"
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
    indices = draw_batch(law, 1001, stream(6, "draws"))
    rng = stream(6, "draws")
    parts = [draw_batch(law, count, rng) for count in (337, 1, 663)]
    values = FIVE_POINTS.support_values
    assert np.array_equal(values[np.concatenate(parts)], values[indices])
    sliced = np.concatenate([support_counts(idx, 5) for idx in parts])
    assert np.array_equal(sliced, support_counts(indices, 5))


@pytest.mark.parametrize("name", ["mean", "variance", "smoothed-min", "product-3"])
def test_oracle_count_path_matches_the_row_path(name, monkeypatch):
    # An opaque wrapper of the same statistic has no count form, so it images
    # the same draws row by row. The budget splits the count path's draws
    # into 85-row slices and its members into batches.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 15)
    n = 12
    law = five_point_law(n, 1)
    fc = random_lookup_class(FIVE_POINTS, 6, 2)
    calls = []
    stat = _spied(STATISTICS[name](n), calls)
    opaque = Statistic(f"opaque-{name}", n, stat.evaluate, eval_bytes=stat.eval_bytes)
    typed = []
    count_types = deviation._count_types
    monkeypatch.setattr(deviation, "_count_types",
                        lambda counts, n: typed.append(len(counts)) or count_types(counts, n))
    counted, rows = (
        expectation_oracle(law, fc, s, "monte-carlo", replicas=3000, seed=stream(4, "oracle"))
        for s in (stat, opaque)
    )
    # Every call is on the distinct count rows of the same 3000 draws, which
    # the one stream gives as one batch, and the calls cover each member once.
    indices = draw_batch(law, 3000, as_stream(stream(4, "oracle"), "expectation-oracle"))
    distinct = len(np.unique(support_counts(indices, FIVE_POINTS.size), axis=0))
    assert 0 < distinct < 3000
    assert [rows for _, rows in calls] == [distinct] * len(calls)
    assert sum(members for members, _ in calls) == len(fc)
    assert typed == [3000]    # the draws are typed once, not once per member batch
    assert counted.method == rows.method == "monte-carlo"
    assert np.allclose(counted.values, rows.values, rtol=0.0, atol=1e-14)
    assert np.allclose(counted.stderrs, rows.stderrs, rtol=1e-9, atol=0.0)


def _spied(stat, calls):
    """The statistic with a count form that records each call's numbers of
    members and count rows."""
    def count_form(support, counts):
        calls.append((support.shape[0], counts.shape[0]))
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
    opaque = Statistic("opaque", n, stat.evaluate, eval_bytes=stat.eval_bytes)
    oracle, rows = (
        expectation_oracle(law, fc, s, "monte-carlo", replicas=500, seed=2) for s in (stat, opaque)
    )
    assert calls == []
    assert np.array_equal(oracle.values, rows.values)
    assert np.array_equal(oracle.stderrs, rows.stderrs)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_counting_is_chosen_where_a_row_of_counts_costs_no_more(order):
    # A row of counts costs the mean and the variance s doubles against n,
    # and a U-statistic (m + 3) doubles per support multiset against as many
    # per subset.
    for s in (1, 2, 3, 5, 8, 13, 40):
        space = finite_space([(str(j), j / max(s - 1, 1)) for j in range(s)])
        for n in (3, 4, 5, 8, 12, 13, 40):
            for stat in (mean_statistic(n), sample_variance_statistic(n)):
                assert deviation._counted(space, stat) == (s <= n)
            stat = u_statistic(n, product_kernel(order))
            multisets, subsets = math.comb(s + order - 1, order), math.comb(n, order)
            assert deviation._counted(space, stat) == (multisets <= subsets), (s, n)
    assert not deviation._counted(interval_space(), mean_statistic(4))


def test_oracle_row_path_images_one_batch_of_draws():
    # Class separation has no count form: the oracle images one draw_batch.
    n = 6
    law = five_point_law(n, 3)
    fc = random_lookup_class(FIVE_POINTS, 3, 5)
    stat = class_separation_statistic([2, 4])
    oracle = expectation_oracle(law, fc, stat, "monte-carlo", replicas=500, seed=3)
    idx = draw_batch(law, 500, as_stream(3, "expectation-oracle"))
    phis = stat(fc.images(idx)).T
    assert np.array_equal(oracle.values, [p.mean() for p in phis])


@pytest.mark.parametrize("name", ["variance", "smoothed-min", "rows", "interval"])
def test_phis_at_a_member_slice_is_those_rows_of_the_whole_class(name):
    # Each path, counts or images, evaluates a member the same whatever
    # batch of members it shares the call with.
    n = 6
    if name == "interval":
        law = iid_law(beta_family(2.0, 3.0), n)
        ramps = tuple(ThresholdMember(f"t{j}", j / 8.0, 0.25) for j in range(7))
        fc = FunctionClass(law.space, ramps)
    else:
        law = five_point_law(n, 4)
        fc = random_lookup_class(FIVE_POINTS, 7, 3)
    stat = STATISTICS["smoothed-min" if name == "smoothed-min" else "variance"](n)
    if name == "rows":
        stat = _rows_only(stat)
    draws = draw_batch(law, 50, 4)
    whole = deviation._phis_at(stat, fc, draws)
    assert whole.shape == (7, 50)
    for members in (slice(2, 5), slice(6, 7), slice(None)):
        part = deviation._phis_at(stat, fc, draws, members=members)
        assert part.tobytes() == whole[members].tobytes()


STATISTICS = {
    "mean": mean_statistic,
    "variance": sample_variance_statistic,
    "class-separation": lambda n: class_separation_statistic([1, n - 1]),
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
    assert analytic.method == "analytic" and exact.method == "exact"
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
    # they cost 4 MB. The oracle peaks at 11.1 MiB; fresh arrays for the
    # deviations and their squares took it to 14.8 MiB, and a member batch
    # budgeted for its values alone to 20.6 MiB.
    law = iid_law(uniform_on(FIVE_POINTS), 64)
    fc = random_lookup_class(FIVE_POINTS, 256, 1)
    stat = sample_variance_statistic(64)
    oracle, peak = _traced_peak(
        lambda: expectation_oracle(law, fc, stat, "monte-carlo", replicas=100_000, seed=1)
    )
    assert oracle.method == "monte-carlo" and oracle.replicas == 100_000
    assert peak < 12 * 2**20


def test_row_path_monte_carlo_oracle_holds_its_draws_once():
    # Class separation has no count form, so the oracle images its 200 000
    # draws of 64 coordinates member by member. The draws come in budgeted
    # slices on one stream, so the oracle peaks near 5.9 MiB whatever the
    # number of draws.
    law = iid_law(uniform_on(FIVE_POINTS), 64)
    fc = random_lookup_class(FIVE_POINTS, 4, 1)
    stat = class_separation_statistic([32, 32])
    assert not deviation._counted(law.space, stat)
    oracle, peak = _traced_peak(
        lambda: expectation_oracle(law, fc, stat, "monte-carlo", replicas=200_000, seed=1)
    )
    assert oracle.method == "monte-carlo" and oracle.replicas == 200_000
    assert peak < 8 * 2**20


def test_row_path_tail_holds_its_draws_once():
    # The tail's twin: its 200 000 draws are imaged in slices, and only
    # each draw's excess and weight are kept, 3.2 MB. With its sampled swing
    # the tail peaks near 14.4 MiB.
    law = iid_law(uniform_on(FIVE_POINTS), 64)
    member = random_lookup_class(FIVE_POINTS, 1, 1).members[0]
    stat = class_separation_statistic([32, 32])
    assert not deviation._counted(law.space, stat)
    rep, peak = _traced_peak(
        lambda: bounded_difference_tail(law, stat, member, [0.0, 0.01], 200_000, 1)
    )
    assert rep.replicas == 200_000
    assert peak < 24 * 2**20


def test_counted_swing_holds_one_batch_of_variants(monkeypatch):
    # At s = 128 one point's s^3 variant counts take 16 MiB, past
    # BATCH_BYTES; evaluated all at once they peaked at 24.3 MiB. A batch
    # of (point, present value) pairs, s^2 counts each, peaks near 8.3 MiB.
    space = finite_space([(str(j), j / 127.0) for j in range(128)])
    member = random_lookup_class(space, 1, 3).members[0]
    stat = sample_variance_statistic(200)
    assert deviation._counted(space, stat)
    monkeypatch.setattr(deviation, "SWING_SAMPLES", 1)
    rep, peak = _traced_peak(lambda: squared_swing_sum(stat, member, space, seed=4))
    assert not rep.sup_is_exact and rep.sup_norm > 0.0
    assert peak < 4 * functionals.BATCH_BYTES


@pytest.mark.parametrize("name", ["mean", "variance"])
def test_tail_counts_in_bounded_memory(name, monkeypatch):
    # 200 000 tail draws of 64 coordinates cost about 300 MiB as uniforms,
    # values and indices; as support counts on 5 points they cost 8 MB.
    law = iid_law(uniform_on(FIVE_POINTS), 64)
    member = random_lookup_class(FIVE_POINTS, 1, 2).members[0]
    stat = STATISTICS[name](64)
    # The swing sup is exact over the C(68, 4) = 814 385 count types, decoded
    # in slices.
    rep, peak = _traced_peak(
        lambda: bounded_difference_tail(law, stat, member, [0.0, 0.05], 200_000, 1)
    )
    assert rep.replicas == 200_000 and rep.swing_is_exact
    assert peak < 64 * 2**20
    # With the cap below the types the sup is sampled, a lower bound (for
    # the mean, equal up to the order of its terms).
    monkeypatch.setattr(functionals, "ENUM_CAP", 1000)
    sampled = squared_swing_sum(stat, member, FIVE_POINTS, seed=1)
    assert not sampled.sup_is_exact
    assert rep.swing_norm >= sampled.sup_norm * (1.0 - TOL["rtol"])


# ---------------------------------------------------------------------------
# uniform deviation

def deviation_at(x, fc, stat, oracle):
    """The uniform deviation and its label at the one point x, from each
    member's image row."""
    (value,), (label,) = uniform_deviation(stat(fc.image_matrix(x))[:, None], fc, oracle)
    return value, label


def test_deviation_zero_under_point_mass():
    law = point_mass_law([0.5, 0.25, 0.75])
    fc = random_lookup_class(law.space, 4, 11)
    stat = mean_statistic(3)
    oracle = expectation_oracle(law, fc, stat)
    value, label = deviation_at(sample(law, 1), fc, stat, oracle)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert label == fc.labels[0]  # ties resolve to the first member


def test_deviation_single_member_needs_no_sup():
    law = bit_law(6)
    fc = FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.1, "1": 0.8}),))
    stat = mean_statistic(6)
    oracle = expectation_oracle(law, fc, stat)
    x = sample(law, 3)
    value, label = deviation_at(x, fc, stat, oracle)
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
    value, label = deviation_at(x, fc, stat, oracle)
    gaps = []
    for k, member in enumerate(fc.members):
        image = [member.table[int(i)] for i in x.point]
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
        x = sample(law, seed)
        img = fc.image_matrix(x)
        value, _ = deviation_at(x, fc, stat, oracle)
        for k in range(len(fc)):
            assert value >= oracle.values[k] - float(stat(img[k])) - 1e-15


def test_deviation_monotone_in_class_extension():
    n = 6
    law = bit_law(n)
    fc = random_lookup_class(BITS, 5, 19)
    stat = mean_statistic(n)
    oracle = expectation_oracle(law, fc, stat)
    sub = FunctionClass(fc.space, fc.members[:3])
    sub_oracle = ExpectationOracle(oracle.method, sub.labels, oracle.values[:3])
    for seed in range(10):
        x = sample(law, seed)
        small, _ = deviation_at(x, sub, stat, sub_oracle)
        large, _ = deviation_at(x, fc, stat, oracle)
        assert large >= small


def test_deviation_oracle_class_mismatch():
    law = bit_law(4)
    fc = random_lookup_class(BITS, 3, 23)
    stat = mean_statistic(4)
    oracle = expectation_oracle(law, fc, stat)
    other = random_lookup_class(BITS, 4, 29)
    x = sample(law, 0)
    with pytest.raises(DomainError):
        deviation_at(x, other, stat, oracle)
    phis = stat(fc.image_matrix(x))[:, None]
    with pytest.raises(DomainError):
        uniform_deviation(phis[:1], fc, oracle)  # one row short
    with pytest.raises(DomainError):
        uniform_deviation(phis[:, 0], fc, oracle)  # not one row per member


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


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_bound_refuses_a_non_finite_c(c):
    # A NaN bound is never exceeded, so coverage would read as kept.
    with pytest.raises(DomainError, match="c must be a finite positive number"):
        assemble_bound(ConstantsReport(0.1, 0.0, "closed-form"), 1.0, c, 0.1, 4)
    stat = mean_statistic(4)
    fc = random_lookup_class(BITS, 2, 5)
    with pytest.raises(DomainError, match="c must be a finite positive number"):
        deviation_experiment(bit_law(4), fc, stat, closed_form_constants(stat), c, 0.1, 100, 1,
                             gaussian_draws=100)


@pytest.mark.parametrize("c, delta, method, refusal", [
    (math.nan, 0.1, "closed-form", DomainError),
    (1.0, 1.5, "closed-form", DomainError),
    (1.0, 0.1, "numeric-estimate", OverrideRequiredError),
])
def test_deviation_experiment_refuses_before_any_work(monkeypatch, c, delta, method, refusal):
    # Each refusal of the bound's inputs comes before the oracle and the
    # replications, and is the refusal ``assemble_bound`` makes.
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the bound's inputs were checked")

    monkeypatch.setattr(deviation, "expectation_oracle", oracle)
    constants = ConstantsReport(0.1, 0.0, method)
    with pytest.raises(refusal) as assembled:
        assemble_bound(constants, 1.0, c, delta, 4)
    with pytest.raises(refusal, match=re.escape(str(assembled.value))):
        deviation_experiment(bit_law(4), random_lookup_class(BITS, 2, 5), mean_statistic(4),
                             constants, c, delta, 100, 1, gaussian_draws=100)


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
# the replications run in slices, each value as one replication alone gives it

def _one_at_a_time(law, fc, stat, oracle, replications, seed, tag, average):
    """(deviations, argmax labels, averages) of the replications run one at
    a time: sample, Phi at the one point, uniform deviation, then
    ``average(x, r)``."""
    devs, labels, averages = [], [], []
    for r in range(replications):
        x = sample(law, stream(seed, f"{tag}/x", r))
        (dev,), (label,) = uniform_deviation(deviation._phis_at(stat, fc, x.point[None]), fc, oracle)
        devs.append(dev)
        labels.append(label)
        averages.append(average(x, r))
    return np.asarray(devs), tuple(labels), np.asarray(averages)


THRESHOLDS = FunctionClass(interval_space(), tuple(
    ThresholdMember(f"t{j}", theta, width)
    for j, (theta, width) in enumerate([(0.0, 0.5), (0.2, 0.3), (0.5, 0.5), (0.9, 0.05)])
))
# name -> (law, class, statistic, Gaussian draws)
REPLICATION_CASES = {
    "variance-64": lambda: (
        iid_law(uniform_on(FIVE_POINTS), 16), random_lookup_class(FIVE_POINTS, 64, 3),
        sample_variance_statistic(16), 400),
    "smoothed-min": lambda: (
        bit_law(8), random_lookup_class(BITS, 8, 5), u_statistic(8, smoothed_min_kernel()), 400),
    # Bernoulli draws are 0 or 1, so an image's columns repeat on the row path.
    "interval-mean": lambda: (iid_law(bernoulli(0.3), 6), THRESHOLDS, mean_statistic(6), 400),
    # A one-row product may go to gemv.
    "one-member": lambda: (
        bit_law(6), FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.1, "1": 0.8}),)),
        mean_statistic(6), 400),
    # A pair costs 8 (s + 600) bytes, so the 1000 pairs take two slices.
    "split-pairs": lambda: (
        iid_law(uniform_on(FIVE_POINTS), 3), random_lookup_class(FIVE_POINTS, 600, 7),
        mean_statistic(3), 2000),
}


@pytest.mark.parametrize("name", sorted(REPLICATION_CASES))
def test_sliced_replications_match_one_replication_at_a_time(name, monkeypatch):
    law, fc, stat, draws = REPLICATION_CASES[name]()
    seed, replications = 5, 150
    slices = []

    def counted(phis, *args):
        slices.append(phis.shape[1])
        return uniform_deviation(phis, *args)

    monkeypatch.setattr(deviation, "uniform_deviation", counted)
    if len(fc) >= 64:    # a replication costs over 5 kB: several slices of 256 kB
        monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 18)
    rep = deviation_experiment(law, fc, stat, ConstantsReport(1.0, 1.0, "closed-form"), 1.0, 0.1,
                               replications, seed, gaussian_draws=draws, oracle_replicas=5000)
    assert sum(slices) == replications and max(slices) > 1
    if len(fc) >= 64:
        assert len(slices) >= 2
    if law.space.kind == "finite" and law.space.size <= 2:
        assert rep.image_g_method == "exact"
        average = lambda x, r: complexity.gaussian_from_counts(
            fc.support_matrix(), support_counts(x.point[None], law.space.size))[0]
    else:
        assert rep.image_g_method == "monte-carlo"
        average = lambda x, r: complexity.gaussian_mc(
            fc.image_matrix(x), draws, stream(seed, "deviation/g", r)).value
    devs, labels, g = _one_at_a_time(law, fc, stat, rep.oracle, replications, seed, "deviation", average)
    assert rep.dev_samples.tobytes() == devs.tobytes()
    assert rep.argmax_labels == labels
    assert rep.image_g_samples.tobytes() == g.tobytes()


def test_sliced_symmetrization_matches_one_replication_at_a_time():
    n, seed, replications = 12, 9, 150
    law, fc, stat = bit_law(n), random_lookup_class(BITS, 16, 47), mean_statistic(n)
    rep = symmetrization_check_mean(law, fc, replications, seed)
    oracle = expectation_oracle(law, fc, stat, seed=stream(seed, "symmetrization/oracle"))
    devs, _, rads = _one_at_a_time(
        law, fc, stat, oracle, replications, seed, "symmetrization",
        lambda x, r: complexity.rademacher_average(
            fc.image_matrix(x), deviation.SYMMETRIZATION_DRAWS, stream(seed, "symmetrization/r", r)).value,
    )
    assert (rep.dev_mean, rep.dev_stderr) == (float(devs.mean()), complexity.mean_stderr(devs))
    assert (rep.rad_mean, rep.rad_stderr) == (float(rads.mean()), complexity.mean_stderr(rads))


# ---------------------------------------------------------------------------
# symmetrization check

def test_symmetrization_degenerate_class():
    fc = FunctionClass(BITS, (constant_member("half", 0.5),))
    rep = symmetrization_check_mean(bit_law(8), fc, 100, 3)
    assert rep.dev_mean == pytest.approx(0.0, abs=1e-15)
    assert rep.rad_mean == pytest.approx(0.0, abs=1e-15)
    assert rep.holds


def test_symmetrization_random_class_holds():
    fc = random_lookup_class(BITS, 16, 47)
    rep = symmetrization_check_mean(bit_law(12), fc, 300, 9)
    assert rep.holds
    assert rep.dev_mean <= rep.bound_side + rep.allowance


def test_symmetrization_singleton():
    fc = FunctionClass(BITS, (lookup_member("f", BITS, {"0": 0.2, "1": 0.9}),))
    rep = symmetrization_check_mean(bit_law(10), fc, 200, 11)
    assert abs(rep.dev_mean) <= 4.0 * rep.dev_stderr
    assert rep.holds


def test_symmetrization_monte_carlo_past_the_cap():
    # Point masses at 22 distinct values image to 22 distinct columns, whose
    # 2^21 sign-pattern pairs exceed the enumeration cap: R is sampled, so
    # at the law's one point its value varies only with the draws.
    law = point_mass_law(np.linspace(0.0, 1.0, 22))
    fc = random_lookup_class(law.space, 4, 59)
    rep = symmetrization_check_mean(law, fc, 100, 13)
    assert rep.rad_stderr > 0.0
    assert rep.holds
    assert (rep.rad_mean, rep.rad_stderr) == (1.378878165845679, 0.0005849695451159118)


def test_symmetrization_exact_past_n_20_on_two_support_points(monkeypatch):
    # On bits the image has two distinct columns, so at n = 22 its at most
    # 12 * 12 count patterns are enumerated and no Monte Carlo R is drawn.
    def refuse(*args, **kwargs):
        raise AssertionError("Monte Carlo R drawn")

    monkeypatch.setattr(complexity, "rademacher_mc", refuse)
    fc = random_lookup_class(BITS, 4, 59)
    rep = symmetrization_check_mean(bit_law(22), fc, 100, 13)
    assert rep.rad_mean > 0.0
    assert rep.holds


# ---------------------------------------------------------------------------
# swing sums

def test_swing_constant_for_the_mean_on_bits():
    n = 6
    stat = mean_statistic(n)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    single = FunctionClass(BITS, (member,))
    for seed in range(5):
        x = sample(bit_law(n), seed)
        at_point = deviation._swing_at_indices(stat, single, x.point[None, :])[0]
        assert at_point == pytest.approx(1.0 / n, rel=1e-12)
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
    at_point = deviation._swing_at_indices(stat, FunctionClass(BITS, (member,)), x.point[None, :])[0]
    assert at_point == pytest.approx(brute_force_swing(stat, member, BITS, [0, 0, 1]), abs=1e-14)
    rep = squared_swing_sum(stat, member, BITS)
    # exact sup: maximize the brute force over the whole lattice
    best = max(
        brute_force_swing(stat, member, BITS, [a, b, c])
        for a in (0, 1) for b in (0, 1) for c in (0, 1)
    )
    assert rep.sup_norm == pytest.approx(best, abs=1e-14)


def _points(size):
    return finite_space([(str(j), j / (size - 1)) for j in range(size)])


SWING_STATISTICS = ["mean", "variance", "smoothed-min", "product-2"]


def _counted_swing_shapes(size, ns):
    """(name, n, stat) of the swing statistics that count on ``size`` points
    at each n of ``ns`` whose size^n lattice fits the enumeration cap."""
    space = _points(size)
    for name in SWING_STATISTICS:
        for n in ns:
            stat = STATISTICS[name](n)
            if size**n <= functionals.ENUM_CAP and deviation._counted(space, stat):
                yield name, n, stat


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_type_swing_sup_matches_the_lattice(size):
    # One non-decreasing point per count type against every lattice point,
    # both evaluated from counts: a type's points add the same terms in other
    # orders, so the sups may differ in their last bits only.
    space = _points(size)
    single = FunctionClass(space, random_lookup_class(space, 1, 8).members[:1])
    shapes = list(_counted_swing_shapes(size, range(2, 20)))
    assert {name for name, _, _ in shapes} == set(SWING_STATISTICS)
    for name, n, stat in shapes:
        rep = squared_swing_sum(stat, single.members[0], space)
        assert rep.sup_is_exact, (name, n)
        types = rep.sup_norm
        lattice = deviation._lattice_swing_sup(stat, single, size**n)
        np.testing.assert_allclose(types, lattice, rtol=2e-15, atol=0.0, err_msg=f"{name} n={n}")


@pytest.mark.parametrize("config", ["configs/full_report.yaml",
                                    "perfbench/workloads/ustat-report.yaml"])
def test_type_swing_sup_keeps_the_lattice_bits_on_the_shipped_shapes(config):
    exp = resolve(load_config(ROOT / config))
    single = FunctionClass(exp.law.space, exp.fc.members[:1])
    size = exp.law.space.size
    rep = squared_swing_sum(exp.stat, single.members[0], exp.law.space)
    assert rep.sup_is_exact
    assert rep.sup_norm == deviation._lattice_swing_sup(exp.stat, single, size**exp.n)


def test_type_swing_sup_keeps_the_sampled_bits_of_the_tail_mean():
    # Every point of the 2^25 lattice adds 25 equal squared spreads of 1/25,
    # so the sampled sup, which the tail_mean record held, was already this.
    exp = resolve(load_config(ROOT / "configs/tail_mean.yaml"))
    rep = squared_swing_sum(exp.stat, exp.fc.members[0], exp.law.space)
    assert rep.sup_is_exact and repr(rep.sup_norm) == "0.04000000000000009"


# At n <= 4 the mean and the variance count on at most 4 points and the
# U-statistics of order 2 on at most 3, so 5 points give no shape.
@pytest.mark.parametrize("size", [2, 3, 4])
def test_type_swing_sup_matches_brute_force(size):
    space = _points(size)
    member = random_lookup_class(space, 1, 9).members[0]
    shapes = list(_counted_swing_shapes(size, range(2, 5)))
    assert shapes
    for name, n, stat in shapes:
        best = max(brute_force_swing(stat, member, space, list(point))
                   for point in itertools.product(range(size), repeat=n))
        rep = squared_swing_sum(stat, member, space)
        assert rep.sup_is_exact
        assert rep.sup_norm == pytest.approx(best, rel=1e-12, abs=1e-14), (name, n)


def test_type_swing_sup_bounds_the_sampled_sup(monkeypatch):
    # 5^12 lattice points and C(16, 4) = 1820 count types of 12 coordinates
    # on 5 points. With the cap below the types the sup falls back to
    # SWING_SAMPLES points, which understate it.
    stat = sample_variance_statistic(12)
    member = random_lookup_class(FIVE_POINTS, 1, 2).members[0]
    exact = squared_swing_sum(stat, member, FIVE_POINTS, seed=1)
    monkeypatch.setattr(functionals, "ENUM_CAP", 1000)
    sampled = squared_swing_sum(stat, member, FIVE_POINTS, seed=1)
    assert exact.sup_is_exact and not sampled.sup_is_exact
    assert exact.sup_norm >= sampled.sup_norm


def test_swing_sampled_fallback_flags_lower_bound():
    # 2^25 lattice points exceed the enumeration cap, and the mean's 26 count
    # types do not: counted, the sup is exact; imaged row by row, sampled.
    n = 25
    stat = mean_statistic(n)
    member = lookup_member("id", BITS, IDENTITY_TABLE)
    rep = squared_swing_sum(stat, member, BITS, seed=3)
    assert rep.sup_is_exact
    assert rep.sup_norm == pytest.approx(1.0 / n, rel=1e-12)
    rep = squared_swing_sum(_rows_only(stat), member, BITS, seed=3)
    assert not rep.sup_is_exact
    assert rep.sup_norm == pytest.approx(1.0 / n, rel=1e-12)
    # Past the type cap too the counted sup is sampled: C(63, 31) types.
    n, space = 32, finite_space([(str(j), j / 31) for j in range(32)])
    member = random_lookup_class(space, 1, 5).members[0]
    assert deviation._counted(space, mean_statistic(n))
    rep = squared_swing_sum(mean_statistic(n), member, space, seed=3)
    assert not rep.sup_is_exact and 0.0 < rep.sup_norm <= 1.0 / n


def test_swing_needs_finite_space():
    from unibound.spaces import interval_space
    from unibound.classes import identity_member

    with pytest.raises(DomainError):
        squared_swing_sum(mean_statistic(3), identity_member(), interval_space())


# ---------------------------------------------------------------------------
# bounded-difference tail

def test_exceedance_counts_as_the_masked_sums_do():
    # Ties with the thresholds, unsorted and repeated thresholds, NaN excess
    # (exceeding no threshold) and integer or unit weights.
    rng = np.random.default_rng(30)
    for case in range(200):
        points, count = int(rng.integers(1, 300)), int(rng.integers(1, 20))
        excess = np.round(rng.normal(size=points), 1)
        excess[rng.random(points) < 0.05] = np.nan
        thresholds = np.round(np.abs(rng.normal(size=count)), 1)
        weights = rng.integers(1, 50, size=points) if case % 2 else np.ones(points)
        masked = np.asarray([weights[excess > t].sum() for t in thresholds]) / weights.sum()
        assert np.array_equal(deviation._exceedance(excess, weights, thresholds, 0.3)[0], masked)
    # Thresholds x points masks of this took minutes.
    start = time.perf_counter()
    deviation._exceedance(rng.normal(size=10**5), np.ones(10**5), np.linspace(0.0, 1.0, 10**6), 1.0)
    assert time.perf_counter() - start < 2.0


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


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_tail_and_probe_refuse_a_non_finite_threshold(threshold):
    # No frequency exceeds a NaN threshold, so the check would read as kept.
    law = bit_law(4)
    stat = mean_statistic(4)
    f = lookup_member("f", BITS, IDENTITY_TABLE)
    g = lookup_member("g", BITS, {"0": 0.5, "1": 0.2})
    message = "thresholds must be finite and nonnegative"
    with pytest.raises(DomainError, match=message):
        bounded_difference_tail(law, stat, f, [threshold, 0.1], 200, 1)
    x = sample(law, stream(1, "x"))
    x_alt = sample(law, stream(1, "x-alt"))
    with pytest.raises(DomainError, match=message):
        swap_process_probe(x, x_alt, f, g, stat, closed_form_constants(stat), [threshold], 200, 1)


def test_every_draw_count_is_held_to_one_floor():
    law = bit_law(4)
    stat = mean_statistic(4)
    constants = closed_form_constants(stat)
    fc = random_lookup_class(BITS, 2, 5)
    f, g = fc.members
    x = sample(law, stream(1, "x"))
    image = fc.image_matrix(x)
    refusals = [
        ("replicas", lambda: expectation_oracle(law, fc, stat, "monte-carlo", replicas=99)),
        ("replications", lambda: deviation_experiment(law, fc, stat, constants, 1.0, 0.1, 99, 1)),
        ("replicas", lambda: bounded_difference_tail(law, stat, f, [0.1], 99, 1)),
        ("draws", lambda: swap_process_probe(x, x, f, g, stat, constants, [0.1], 99, 1)),
        ("draws", lambda: complexity.rademacher_mc(image, 99, 1)),
        ("draws", lambda: complexity.gaussian_mc(image, 99, 1)),
    ]
    for name, refuse in refusals:
        with pytest.raises(DomainError, match=f"^{name} must be >= 100$"):
            refuse()


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

    # The tail's draws, evaluated at every draw on both paths.
    draws = draw_batch(law, 2000, stream(3, "tail/x"))
    phis = [deviation._phis_at(s, fc, draws, members=slice(0, 1))[0] for s in (stat, rows)]
    np.testing.assert_allclose(*phis, **TOL)
    grid = [0.0, 0.01, 0.03]
    tails = [bounded_difference_tail(law, s, fc.members[0], grid, 2000, 3) for s in (stat, rows)]
    assert tails[0].expected_value == tails[1].expected_value
    # A weighted count of integers is exact: each path's frequencies are
    # those over every draw, bit for bit.
    for tail, phi in zip(tails, phis):
        every_draw = [(phi - tail.expected_value > t).mean() for t in grid]
        assert np.array_equal(tail.empirical, every_draw)
    assert np.array_equal(tails[0].empirical, tails[1].empirical)
    np.testing.assert_allclose(tails[0].swing_norm, tails[1].swing_norm, **TOL)

    x = sample(law, stream(5, "x"))
    second = FunctionClass(space, fc.members[1:2])
    at_x = [deviation._swing_at_indices(s, second, x.point[None, :]) for s in (stat, rows)]
    np.testing.assert_allclose(*at_x, **TOL)
    swings = [squared_swing_sum(s, fc.members[1], space) for s in (stat, rows)]
    np.testing.assert_allclose(swings[0].sup_norm, swings[1].sup_norm, **TOL)
    assert swings[0].sup_is_exact and swings[1].sup_is_exact
    # At a point on one support value every other value is absent.
    lone = np.zeros((1, n), dtype=np.int64)
    at_lone = [deviation._swing_at_indices(s, second, lone) for s in (stat, rows)]
    np.testing.assert_allclose(*at_lone, **TOL)

    x_alt = sample(law, stream(5, "x-alt"))
    pair = FunctionClass(space, fc.members[1:])
    processes = [deviation._swap_process(s, pair, x, x_alt, 2000, stream(7, "sigma"))
                 for s in (stat, rows)]
    for counted, imaged in zip(*processes):
        np.testing.assert_allclose(counted, imaged, **TOL)


@pytest.mark.parametrize("support", ["2-point-iid", "5-point-mixed"])
@pytest.mark.parametrize("name", COUNTED_STAGES)
def test_replicated_deviations_count_as_rows_do(name, support):
    # The replications take Phi from support counts where the statistic
    # counts, and each deviation is the row path's to rounding; G does not
    # read the statistic, so it keeps its bits.
    space, law_of, n, _ = SUPPORTS[support]
    law, fc, stat = law_of(n, 4), random_lookup_class(space, 6, 9), STATISTICS[name](n)
    reports = [deviation_experiment(law, fc, s, ConstantsReport(1.0, 1.0, "closed-form"), 1.0, 0.1,
                                    120, 3, gaussian_draws=200, oracle_method="exact")
               for s in (stat, _rows_only(stat))]
    np.testing.assert_allclose(reports[0].oracle.values, reports[1].oracle.values, **TOL)
    np.testing.assert_allclose(reports[0].dev_samples, reports[1].dev_samples, **TOL)
    assert reports[0].image_g_samples.tobytes() == reports[1].image_g_samples.tobytes()
    assert reports[0].image_g_method == ("exact" if space.size == 2 else "monte-carlo")


def test_probe_evaluates_each_distinct_mix_once(monkeypatch):
    # At the ustat-report shape, a slice of sign draws mixes two points into
    # at most n + 1 distinct count rows; evaluating each once and gathering
    # keeps the bits of evaluating every draw's row.
    n = 16
    law, stat = bit_law(n), STATISTICS["smoothed-min"](n)
    pair = FunctionClass(BITS, random_lookup_class(BITS, 2, 3).members)
    x, x_alt = sample(law, stream(1, "x")), sample(law, stream(1, "x-alt"))
    rows = []
    counted = dataclasses.replace(
        stat, count_form=lambda support, counts: rows.append(len(counts)) or stat.count_form(support, counts))
    typed = deviation._swap_process(counted, pair, x, x_alt, 20_000, stream(7, "sigma"))
    assert max(rows) <= n + 1
    monkeypatch.setattr(deviation, "_count_types", lambda counts, n: (counts, np.arange(len(counts))))
    every = deviation._swap_process(stat, pair, x, x_alt, 20_000, stream(7, "sigma"))
    for a, b in zip(typed, every):
        assert a.tobytes() == b.tobytes()


# Not product-3 on two points: its C(20, 3) subsets per row make the row
# reference too slow there.
@pytest.mark.parametrize("name, support", [
    *((name, "5-point-iid") for name in COUNTED_STAGES),
    *((name, "2-point-iid") for name in COUNTED_STAGES if name != "product-3"),
])
def test_sampled_swing_counts_match_rows(name, support):
    # Past the lattice cap the row path samples, while the count path is
    # exact over the count types, so it bounds the sample from above.
    space, _, _, n = SUPPORTS[support]
    member = random_lookup_class(space, 1, 8).members[0]
    stat = STATISTICS[name](n)
    counted, imaged = (squared_swing_sum(s, member, space, seed=2) for s in (stat, _rows_only(stat)))
    assert counted.sup_is_exact and not imaged.sup_is_exact
    assert counted.sup_norm >= imaged.sup_norm * (1.0 - TOL["rtol"])


@pytest.mark.parametrize("name", ["mean", "variance", "squared-difference"])
def test_sampled_swing_counts_match_rows_past_the_type_cap(name, monkeypatch):
    # C(14, 4) = 1001 count types of 10 coordinates on 5 points pass a cap of
    # 1000, so both paths sample the same points.
    n = 10
    member = random_lookup_class(FIVE_POINTS, 1, 8).members[0]
    stat = STATISTICS[name](n)
    assert deviation._counted(FIVE_POINTS, stat)
    monkeypatch.setattr(functionals, "ENUM_CAP", 1000)
    counted, imaged = (squared_swing_sum(s, member, FIVE_POINTS, seed=2)
                       for s in (stat, _rows_only(stat)))
    assert not counted.sup_is_exact and not imaged.sup_is_exact
    np.testing.assert_allclose(counted.sup_norm, imaged.sup_norm, **TOL)


@pytest.mark.parametrize("stat, space, cap, expected", [
    (sample_variance_statistic(10), FIVE_POINTS, 1000, "0.016955963751048724"),
    (_rows_only(sample_variance_statistic(20)), BITS, None, "3.617467191370685e-06"),
], ids=["counted-past-the-type-cap", "imaged-past-the-lattice-cap"])
def test_sampled_swing_sup_keeps_its_bits(stat, space, cap, expected, monkeypatch):
    # Past the cap the sup is the largest swing sum at SWING_SAMPLES points
    # drawn from the seed: C(14, 4) = 1001 count types pass a cap of 1000,
    # and 2^20 lattice points pass the default cap. Any change to the draws
    # or to the max moves these bits.
    if cap is not None:
        monkeypatch.setattr(functionals, "ENUM_CAP", cap)
    member = random_lookup_class(space, 1, 8).members[0]
    rep = squared_swing_sum(stat, member, space, seed=2)
    assert not rep.sup_is_exact and repr(rep.sup_norm) == expected


def test_row_path_keeps_its_values():
    # An interval space and class separation have no count form. These
    # values are those of the row-by-row probe, tail and exact oracle before
    # the count path existed; the exact oracle's first member moved in its
    # last digit when its sum left the BLAS dot for a numpy pairwise sum, and
    # class separation's values moved in their last digits when it left its
    # sign matrix for group sums.
    n = 8
    law = iid_law(beta_family(2.0, 3.0), n)
    stat = sample_variance_statistic(n)
    f, g = ThresholdMember("low", 0.2, 0.5), ThresholdMember("high", 0.5, 0.3)
    x, x_alt = sample(law, stream(7, "x")), sample(law, stream(7, "x-alt"))
    probe = swap_process_probe(x, x_alt, f, g, stat, closed_form_constants(stat), [0.05, 0.1],
                               20_000, 5)
    assert repr(probe.process_mean) == "-9.331861132469398e-06"

    n = 6
    stat = class_separation_statistic([2, 4])
    member = random_lookup_class(FIVE_POINTS, 2, 8).members[1]
    tail = bounded_difference_tail(five_point_law(n, 3), stat, member, [0.0, 0.02, 0.05, 0.1],
                                   20_000, 9)
    assert repr(tail.expected_value) == "0.0026802978213217236"
    assert [repr(float(v)) for v in tail.empirical] == ["0.46915", "0.04475", "0.0", "0.0"]
    oracle = expectation_oracle(five_point_law(n, 3), random_lookup_class(FIVE_POINTS, 2, 8),
                                stat, "exact")
    assert [repr(float(v)) for v in oracle.values] == [
        "-0.009276185473620918", "0.002680297821321842"]


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
    alone = [expectation_oracle(law, FunctionClass(BITS, (member,)), stat, "exact").values[0]
             for member in fc.members]
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
    squared_swing_sum(stat, fc.members[0], BITS)
    deviation._swing_at_indices(stat, FunctionClass(BITS, fc.members[:1]), x.point[None, :])
    swap_process_probe(x, x_alt, *fc.members, stat, constants, [0.1], 500, 1)
    assert bool(calls) == evaluated



def _swap_process_of_both_mixes(stat, pair, x, x_alt, draws, rng):
    """``_swap_process`` with each mix formed and evaluated on its own."""
    y = np.empty((2, draws))
    for part in functionals.batches(draws, 5 * 8 * stat.n):
        swap = rng.integers(0, 2, size=(part.stop - part.start, stat.n)) == 1
        y[:, part] = (deviation._phis_at(stat, pair, np.where(swap, x.point, x_alt.point))
                      - deviation._phis_at(stat, pair, np.where(swap, x_alt.point, x.point)))
    return y[0], y[1]


@pytest.mark.parametrize("name", ["mean", "variance", "smoothed-min"])
def test_swap_process_counts_the_complementary_mix_bit_for_bit(name, monkeypatch):
    # A 4 KiB budget splits the 3000 draws into slices of 10 rows.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 12)
    n = 10
    law = five_point_law(n, 2)
    stat = STATISTICS[name](n)
    assert deviation._counted(FIVE_POINTS, stat)
    pair = random_lookup_class(FIVE_POINTS, 2, 8)
    x, x_alt = sample(law, stream(3, "x")), sample(law, stream(3, "x-alt"))
    y_f, y_g = deviation._swap_process(stat, pair, x, x_alt, 3000, stream(3, "sigma"))
    ref_f, ref_g = _swap_process_of_both_mixes(stat, pair, x, x_alt, 3000, stream(3, "sigma"))
    assert np.array_equal(y_f, ref_f)
    assert np.array_equal(y_g, ref_g)

# ---------------------------------------------------------------------------
# count types: Phi once per distinct count row, bit for bit

@pytest.mark.parametrize("n, size", [(6, 5), (16, 2), (64, 5), (3, 1), (40, 20), (12, 40)])
def test_count_types_are_the_distinct_rows(n, size):
    rng = np.random.default_rng(n * size)
    # Random rows, and the rows with every count but one or two at zero,
    # where a code in a smaller base would collide.
    unit = np.eye(size, dtype=np.int64)
    edges = (n - 1) * unit[:, None, :] + unit[None, :, :]
    counts = np.concatenate([rng.multinomial(n, rng.dirichlet(np.ones(size)), size=3000),
                             edges.reshape(-1, size)])
    types, inverse = deviation._count_types(counts, n)
    # Ordered as by np.unique over whole rows, since each code and rank
    # keeps the rows' lexicographic order; at n = 40 on 20 points the codes
    # are ranked before a step, as 41^19 > 2^63.
    assert np.array_equal(types, np.unique(counts, axis=0))
    assert np.array_equal(types[inverse], counts)


def _one_type_law(n):
    """Coordinate i a point mass at support point i mod 5: one count type."""
    return ProductLaw(tuple(finite_weights(FIVE_POINTS, np.eye(5)[i % 5]) for i in range(n)))


def _twenty_point_law(n):
    space = finite_space([(str(j), j / 19.0) for j in range(20)])
    return iid_law(uniform_on(space), n)


# (law, members, whether the lattice is enumerable)
TYPED_SHAPES = {
    "5-point-mixed": (lambda: five_point_law(6, 1), 12, True),
    "one-type": (lambda: _one_type_law(6), 12, True),
    "int64-overflow": (lambda: _twenty_point_law(40), 3, False),    # 41^19 > 2^63
}


def _typed_outputs(law, members, enumerable, stat):
    """Every count-path output the types feed, by name."""
    fc = random_lookup_class(law.space, members, 5)
    mc = expectation_oracle(law, fc, stat, "monte-carlo", replicas=1000, seed=stream(2, "oracle"))
    # The swing only scales the bound, so a fixed one skips its sampled sup.
    grid = [0.0, 0.01, 0.03]
    tail = bounded_difference_tail(law, stat, fc.members[0], grid, 1000, 4,
                                   oracle_method="monte-carlo", oracle_replicas=1000,
                                   swing=deviation.SwingReport(1.0, True))
    counts = draw_counts(law, 1000, stream(4, "tail/x"))
    phis = deviation._phis_at(stat, fc, counts=counts, members=slice(0, 1))[0]
    outputs = {
        "oracle values": mc.values,
        "oracle stderrs": mc.stderrs,
        "tail empirical": tail.empirical,
        "tail every draw": [(phis - tail.expected_value > t).mean() for t in grid],
    }
    if enumerable:
        outputs["exact"] = expectation_oracle(law, fc, stat, "exact").values
    return outputs


@pytest.mark.parametrize("shape", sorted(TYPED_SHAPES))
@pytest.mark.parametrize("name", ["mean", "variance", "smoothed-min"])
def test_count_types_keep_the_bits_of_every_row(monkeypatch, name, shape):
    # A budget this small splits the draws and the lattice into many slices
    # and the members into several batches per slice. The reference types
    # every point as its own row of weight 1, so count_form runs on every
    # row as it did before types.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 12)
    law_of, members, enumerable = TYPED_SHAPES[shape]
    law = law_of()
    stat = STATISTICS[name](law.n)
    assert deviation._counted(law.space, stat)
    # Each distinct count row of the draws weighs as many draws as have it.
    (at, weights), = deviation._weighted_points(law, stat, "monte-carlo", 1000, stream(4, "tail/x"))
    assert list(at) == ["counts"]
    types = at["counts"]
    expected = np.unique(draw_counts(law, 1000, stream(4, "tail/x")), axis=0, return_counts=True)
    assert weights.dtype.kind == "i" and weights.sum() == 1000
    assert np.array_equal(types, expected[0]) and np.array_equal(weights, expected[1])
    if shape == "one-type":
        assert weights.tolist() == [1000]
    typed = _typed_outputs(law, members, enumerable, stat)
    monkeypatch.setattr(deviation, "_count_types",
                        lambda counts, n: (counts, np.arange(counts.shape[0])))
    every_row = _typed_outputs(law, members, enumerable, stat)
    # Types change only the order of the sums, except in the tail's exact
    # counts, which match every draw's at the tail's own expected value.
    # With one type every draw has one value, so both standard errors are
    # rounding noise on a true 0, below the values' rounding.
    for out in (typed, every_row):
        assert np.array_equal(out["tail empirical"], out["tail every draw"])
    compared = ["oracle values", "oracle stderrs", "exact"]
    if shape == "one-type":
        compared.remove("oracle stderrs")
        for out in (typed, every_row):
            assert np.all(out["oracle stderrs"] <= 1e-15 * np.abs(out["oracle values"]))
    for key in compared:
        if key in typed:
            np.testing.assert_allclose(typed[key], every_row[key], rtol=1e-14, atol=0.0,
                                       err_msg=key)


def _row_path_case(case):
    """(law, class, statistic) of an oracle that images its draws row by row."""
    if case == "class-separation-5-point":
        law, stat = five_point_law(6, 3), class_separation_statistic([2, 4])
        fc = random_lookup_class(FIVE_POINTS, 3, 8)
    else:
        law, stat = iid_law(beta_family(2.0, 3.0), 8), sample_variance_statistic(8)
        fc = FunctionClass(law.space, (ThresholdMember("low", 0.2, 0.5),
                                       ThresholdMember("high", 0.5, 0.3)))
    assert not deviation._counted(law.space, stat)
    return law, fc, stat


@pytest.mark.parametrize("case", ["class-separation-5-point", "variance-interval"])
def test_row_path_monte_carlo_oracle_keeps_the_bits_of_every_draw(case):
    # Unit weights leave each member's mean and standard error those of its
    # values at every draw, bit for bit.
    law, fc, stat = _row_path_case(case)
    oracle = expectation_oracle(law, fc, stat, "monte-carlo", replicas=2000, seed=6)
    points = draw_batch(law, 2000, as_stream(6, "expectation-oracle"))
    for k in range(len(fc)):
        phis = stat(fc.images(points)[:, k])
        assert oracle.values[k] == phis.mean()
        assert oracle.stderrs[k] == complexity.mean_stderr(phis)


@pytest.mark.parametrize("case", ["class-separation-5-point", "variance-interval"])
def test_row_path_monte_carlo_oracle_in_slices_matches_one_slice(case, monkeypatch):
    # Each slice's squares are taken about the first slice's mean and
    # corrected to the overall mean, so the slices change only the order of
    # the sums.
    law, fc, stat = _row_path_case(case)

    def draw():
        return expectation_oracle(law, fc, stat, "monte-carlo", replicas=2000, seed=6)

    slices = []
    monkeypatch.setattr(deviation, "draw_batch",
                        lambda law, rows, rng: slices.append(rows) or draw_batch(law, rows, rng))
    whole = draw()
    assert slices == [2000]
    monkeypatch.setattr(functionals, "BATCH_BYTES", 150 * (2 * 8 * law.n + stat.eval_bytes))
    sliced = draw()
    assert len(slices) - 1 >= 10 and sum(slices) == 4000
    np.testing.assert_allclose(sliced.values, whole.values, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(sliced.stderrs, whole.stderrs, rtol=1e-13, atol=0.0)


def _deviation_calls():
    """The names each top-level function of ``deviation`` calls."""
    tree = ast.parse(Path(deviation.__file__).read_text(encoding="utf-8"))
    return {
        function.name: {node.func.id for node in ast.walk(function)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        for function in tree.body if isinstance(function, ast.FunctionDef)
    }


def test_every_expectation_takes_its_points_from_one_source():
    # The draws, their count types and the lattice reach an expectation only
    # through _weighted_points, so the oracle and the tail sum one kind of
    # slice whatever the method. The probe types its own mixed points, which
    # are no draws of the law.
    calls = _deviation_calls()
    sources = {"draw_batch", "draw_counts", "_count_types"}
    for source in sources:
        callers = {name for name, called in calls.items() if source in called}
        assert callers == ({"_weighted_points", "_swap_process"} if source == "_count_types"
                           else {"_weighted_points"})
    for name in ("expectation_oracle", "bounded_difference_tail"):
        assert "_weighted_points" in calls[name]
        assert not calls[name] & (sources | {"lattice_indices"}), name


def test_every_swing_sup_is_taken_in_one_function():
    # The count types, the per-point swing and the lattice sweep are reached
    # only from squared_swing_sum, so the swing has one entry and one max.
    calls = _deviation_calls()
    for route in ("multiset_points", "_swing_at_indices", "_lattice_swing_sup"):
        assert {name for name, called in calls.items() if route in called} == {"squared_swing_sum"}
