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
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unibound import functionals
from unibound.classes import ThresholdMember, random_lookup_class
from unibound.complexity import rademacher_exact
from unibound.deviation import SwingReport, bounded_difference_tail
from unibound.derivative_bounds import estimate_constants_numeric, fd_hessian
from unibound.errors import DomainError, ResourceError
from unibound.functionals import (
    Kernel,
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
from unibound.rng import stream
from unibound.runner import run_experiment
from unibound.spaces import beta_family, finite_space, iid_law, support_counts, uniform_on

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def dyadic(rng, shape, denom=32):
    # exactly representable values; sums and squares stay exact in doubles
    return rng.integers(0, denom + 1, size=shape).astype(np.float64) / denom


# ---------------------------------------------------------------------------
# values

def test_mean_values():
    stat = mean_statistic(4)
    assert stat([0.0, 1.0, 1.0, 0.0]) == 0.5
    assert stat([0.3, 0.3, 0.3, 0.3]) == pytest.approx(0.3, abs=1e-15)
    assert mean_statistic(3)([0.1, 0.2, 0.6]) == pytest.approx(0.3, abs=1e-15)


def test_variance_values():
    stat = sample_variance_statistic(5)
    assert stat([0.4] * 5) == pytest.approx(0.0, abs=1e-15)
    assert sample_variance_statistic(2)([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)


def test_variance_mixed_partial_is_constant():
    n = 6
    stat = sample_variance_statistic(n)
    rng = stream(0, "pts")
    for _ in range(5):
        h = fd_hessian(stat, rng.random(n))
        off = h[~np.eye(n, dtype=bool)]
        assert np.allclose(off, -2.0 / (n * (n - 1)), rtol=0.0, atol=1e-8)


def test_u_statistic_order_one_is_mean():
    n = 7
    u = u_statistic(n, identity_kernel())
    m = mean_statistic(n)
    pts = stream(1, "pts").random((50, n))
    assert np.allclose(u(pts), m(pts), atol=1e-14)


def test_u_statistic_squared_difference_is_variance():
    n = 7
    u = u_statistic(n, squared_difference_kernel())
    v = sample_variance_statistic(n)
    pts = stream(2, "pts").random((200, n))
    assert np.max(np.abs(u(pts) - v(pts))) <= 1e-12


def test_u_statistic_constant_kernel():
    u = u_statistic(6, constant_kernel(3.0))
    pts = stream(3, "pts").random((10, 6))
    assert np.allclose(u(pts), 3.0, atol=1e-15)


def test_u_statistic_permutation_invariance():
    n = 8
    u = u_statistic(n, smoothed_min_kernel(4.0))
    rng = stream(4, "pts")
    s = rng.random(n)
    for _ in range(10):
        perm = rng.permutation(n)
        assert abs(float(u(s[perm])) - float(u(s))) <= 1e-12


def test_class_separation_all_plus_is_variance():
    n = 6
    sep = class_separation_statistic([n])
    var = sample_variance_statistic(n)
    pts = stream(5, "pts").random((100, n))
    assert np.allclose(sep(pts), var(pts), atol=1e-13)


def test_class_separation_values():
    sep = class_separation_statistic([1, 1])
    assert sep([0.0, 1.0]) == pytest.approx(-0.5, abs=1e-15)
    sep5 = class_separation_statistic([2, 3])
    assert sep5([0.7] * 5) == pytest.approx(0.0, abs=1e-15)


def sign_matrix_reference(sizes):
    """Class separation as its sum over pairs, sum_{i<j} r_ij (s_i - s_j)^2
    / (n(n-1)) with r_ij = +1 within a group and -1 across, and that sum's
    product-law expectation."""
    n = sum(sizes)
    group = np.repeat(np.arange(len(sizes)), sizes)
    i, j = np.triu_indices(n, 1)
    r = np.where(group[i] == group[j], 1.0, -1.0)

    def evaluate(s):
        return ((s[..., i] - s[..., j]) ** 2 * r).sum(axis=-1) / (n * (n - 1))

    def expectation(support, weights):
        # E (s_i - s_j)^2 = m2_i + m2_j - 2 mu_i mu_j for independent coordinates.
        mu = support @ weights.T
        m2 = (support * support) @ weights.T
        return ((m2[:, i] + m2[:, j] - 2.0 * mu[:, i] * mu[:, j]) * r).sum(axis=1) / (n * (n - 1))

    return evaluate, expectation


@pytest.mark.parametrize("sizes", [[1, 5], [2, 4], [3, 3], [1, 1, 1, 1]],
                         ids=["1-5", "2-4", "3-3", "1-1-1-1"])
def test_class_separation_matches_sign_matrix_reference(sizes):
    stat = class_separation_statistic(sizes)
    evaluate, expectation = sign_matrix_reference(sizes)
    rng = stream(9, f"sign-matrix/{sizes}")
    rows = rng.random((500, stat.n))
    np.testing.assert_allclose(stat(rows), evaluate(rows), rtol=0.0, atol=1e-14)
    support = rng.random((4, 5))
    weights = rng.dirichlet(np.ones(5), size=stat.n)
    np.testing.assert_allclose(stat.product_expectation(support, weights),
                               expectation(support, weights), rtol=0.0, atol=1e-14)


def test_class_separation_refuses_bad_group_sizes():
    with pytest.raises(DomainError, match="non-empty"):
        class_separation_statistic([])
    with pytest.raises(DomainError, match="positive"):
        class_separation_statistic([2, 0])
    with pytest.raises(DomainError, match="n >= 2"):
        class_separation_statistic([1])


def test_class_separation_memory_grows_with_n_not_n_squared():
    # A 6000 x 6000 sign matrix alone would take 275 MiB.
    tracemalloc.start()
    try:
        stat = class_separation_statistic([3000, 3000])
        stat(stream(10, "wide").random((10, stat.n)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# closed-form constants vs the numeric route

@pytest.mark.parametrize(
    "make",
    [
        lambda: mean_statistic(5),
        lambda: sample_variance_statistic(5),
        lambda: class_separation_statistic([2, 3]),
    ],
)
def test_closed_form_derivatives_match_finite_differences(make):
    # These statistics are quadratic, so the numeric route finds their
    # suprema up to rounding. Class separation shares the variance's (L, M),
    # but its largest partial, 2 |sum_l r_kl (s_k - s_l)| / (n(n-1)) with
    # |sum| <= 3 for a coordinate of the group of two, stays below 2/n.
    stat = make()
    lip, mixed = stat.closed_form_constants
    rep = estimate_constants_numeric(stat, probes=20, seed=6)
    assert rep.mixed == pytest.approx(mixed, abs=1e-4)
    attained = 0.3 if stat.name == "class-separation" else lip
    assert rep.lipschitz == pytest.approx(attained, abs=1e-4)
    assert attained <= lip


# ---------------------------------------------------------------------------
# exact translation behaviour on dyadic inputs

def test_mean_translation_covariance_exact():
    rng = stream(7, "dyadic")
    s = dyadic(rng, 8) / 2.0
    c = 0.25
    assert float(mean_statistic(8)(s + c)) == float(mean_statistic(8)(s)) + c


def test_variance_translation_invariance_exact():
    rng = stream(8, "dyadic")
    stat = sample_variance_statistic(8)
    s = dyadic(rng, 8) / 2.0
    assert float(stat(s + 0.25)) == float(stat(s))


# ---------------------------------------------------------------------------
# contracts

def test_u_statistic_rejects_large_order():
    with pytest.raises(DomainError):
        u_statistic(3, product_kernel(4))


def test_u_statistic_subset_cap():
    with pytest.raises(ResourceError):
        u_statistic(40, product_kernel(9))  # C(40, 9) ~ 2.7e8


def _cap_comparisons(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every comparison naming ENUM_CAP or
    MAX_COUNT, outside the module-level assignments that define constants."""
    caps = {"ENUM_CAP", "MAX_COUNT"}
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if isinstance(node, ast.Compare) and any(
                getattr(name, "id", getattr(name, "attr", None)) in caps for name in ast.walk(node)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for statement in tree.body:
        if not isinstance(statement, ast.Assign):
            visit(statement, None)
    return found


def test_every_count_limit_is_compared_in_one_check():
    # An enumeration is refused past ENUM_CAP only by check_enumeration, and a
    # count past MAX_COUNT only by check_count, so each refusal reads the same
    # wherever it is reached.
    found = {}
    for path in sorted(Path(functionals.__file__).parent.glob("*.py")):
        for function, line in _cap_comparisons(ast.parse(path.read_text(encoding="utf-8"))):
            found[f"{path.name}:{line}"] = function
    assert set(found.values()) == {"check_enumeration", "check_count"}, found


def test_u_statistic_subsets_stop_at_the_enumeration_cap():
    # C(1415, 2) = 1 000 405 subsets exceed ENUM_CAP; C(1414, 2) = 998 991 fit
    # it, and their (C(n, 2), 2) index table alone is 15 MiB.
    assert math.comb(1414, 2) <= functionals.ENUM_CAP < math.comb(1415, 2)
    with pytest.raises(ResourceError, match="enumeration cap"):
        u_statistic(1415, squared_difference_kernel())
    tracemalloc.start()
    try:
        stat = u_statistic(1414, squared_difference_kernel())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stat.eval_bytes == math.comb(1414, 2) * 5 * 8
    assert peak < 32 * 2**20


def test_a_statistic_states_one_row_cost():
    # eval_bytes batches the statistic's rows and is what a row of counts is
    # weighed against; it is n doubles unless given.
    names = [f.name for f in dataclasses.fields(functionals.Statistic) if f.name.endswith("bytes")]
    assert names == ["eval_bytes", "count_row_bytes"]
    assert functionals.mean_statistic(7).eval_bytes == 7 * 8


def test_lattice_indices_list_each_code_in_base_size_most_significant_first():
    idx = functionals.lattice_indices(slice(5, 27), 3, 3)
    assert np.array_equal(idx, np.stack(np.unravel_index(np.arange(5, 27), (3, 3, 3)), axis=1))


@pytest.mark.parametrize("k, size", [(1, 1), (4, 1), (1, 5), (3, 2), (5, 3), (4, 6), (7, 4), (2, 30)])
def test_multiset_points_rank_multisets_in_combinations_with_replacement_order(k, size):
    count = functionals.multiset_count(k, size)
    assert count == math.comb(k + size - 1, size - 1)
    rows = functionals.multiset_points(slice(0, count), k, size)
    assert rows.shape == (count, k)
    assert np.all(np.diff(rows, axis=1) >= 0)
    assert len({tuple(row) for row in rows.tolist()}) == count
    assert rows.tolist() == [list(c) for c in itertools.combinations_with_replacement(range(size), k)]
    # Any slice decodes on its own.
    for step in (1, 2, 7):
        parts = [functionals.multiset_points(slice(a, min(a + step, count)), k, size)
                 for a in range(0, count, step)]
        assert np.array_equal(np.concatenate(parts), rows)
    # Their support counts are every composition of k into size parts.
    # Stars and bars: size - 1 bars among k + size - 1 places.
    compositions = set()
    for bars in itertools.combinations(range(k + size - 1), size - 1):
        edges = (-1, *bars, k + size - 1)
        compositions.add(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    counts = support_counts(rows, size)
    assert {tuple(c) for c in counts.tolist()} == compositions and len(counts) == len(compositions)


@pytest.mark.parametrize("k, size", [(16, 32), (10**6, 10**6), (10**18, 3)])
def test_multiset_points_refuse_past_the_enumeration_cap_before_allocating(k, size):
    # C(47, 31) = 1.5e12 multisets at n = 16 on 32 points; a count past the
    # cap at huge k or size is never formed in full.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceError, match="support multisets exceed the enumeration cap"):
            functionals.multiset_points(slice(0, 10), k, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16 and time.perf_counter() - start < 1.0


def test_combinations_with_replacement_has_one_decoder():
    # Every support multiset comes from functionals.multiset_points, so the
    # count form and the swing sup rank them alike.
    for path in sorted(Path(functionals.__file__).parent.glob("*.py")):
        names = {getattr(node, "attr", getattr(node, "id", None))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))}
        assert "combinations_with_replacement" not in names, path.name


def test_u_statistic_batches_hold_what_evaluating_them_allocates():
    # A smoothed-min row holds its (120, 2) subset gather and the kernel's
    # temporaries, 5 x 120 doubles; batched by the gather alone, a batch
    # held about 2.5 times BATCH_BYTES.
    stat = u_statistic(16, smoothed_min_kernel())
    assert stat.eval_bytes == 5 * 120 * 8
    rows = stream(4, "u-batches").random((20_000, 16))
    tracemalloc.start()
    try:
        stat(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * functionals.BATCH_BYTES


@pytest.mark.parametrize("n, order", [(1414, 1412), (1100, 1098)])
def test_u_statistic_subset_table_stops_at_its_cap(n, order):
    # Few subsets, but each holds order indices: C(1414, 1412) x 1412 needs
    # 10.5 GiB and C(1100, 1098) x 1098 needs 5.3 GB. Both are refused before
    # the table or the symmetry check allocates anything large.
    assert math.comb(n, order) <= functionals.ENUM_CAP
    assert math.comb(n, order) * order > functionals.SUBSET_TABLE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="subset table cap"):
            u_statistic(n, product_kernel(order))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_u_statistic_subset_table_cap_keeps_every_order_up_to_half_n():
    # The largest table of an order m <= n / 2 that passes ENUM_CAP, and the
    # order-1099 table at n = 1100 (9.7 MB), both fit. Past n = 1414 only
    # m = 1 passes ENUM_CAP, with at most ENUM_CAP entries.
    largest = 0
    for n in range(2, 1415):
        for m in range(1, n // 2 + 1):    # C(n, m) grows with m up to n / 2
            subsets = math.comb(n, m)
            if subsets > functionals.ENUM_CAP:
                break
            largest = max(largest, subsets * m)
    assert largest == math.comb(22, 11) * 11 <= functionals.SUBSET_TABLE_CAP
    assert 1100 * 1099 <= functionals.SUBSET_TABLE_CAP


def test_asymmetric_kernel_rejected():
    bad = Kernel("lopsided", 2, lambda a: a[..., 0] - 0.5 * a[..., 1])
    with pytest.raises(DomainError):
        u_statistic(4, bad)


def test_arity_checked_on_call():
    with pytest.raises(DomainError):
        mean_statistic(4)([0.1, 0.2])


# ---------------------------------------------------------------------------
# batch budget

def _run_outputs(name, out, **changes):
    raw = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    raw.update(changes)
    _, record, _ = run_experiment(raw, out_dir=out)
    del record["wall_clock"], record["config"]["out"]
    return record, (out / "table.csv").read_bytes()


def _full_report_outputs(out, **changes):
    return _run_outputs("full_report", out, replications=100, draws=2000, tail_replicas=1000,
                        **changes)


SMOOTHED_MIN_REPORT = {
    "statistic": {"name": "u-statistic", "kernel": {"name": "smoothed-min"}},
    "constants": {"route": "derived-bound"},
}


# 36 support multisets of a U-statistic of order 2, fewer than its C(16, 2)
# subsets, so its Monte Carlo oracle takes the count form.
EIGHT_POINT_LAW = {"space": {"kind": "finite", "support": [
    {"label": str(j), "value": j / 7} for j in range(8)
]}}


def _row_path_tails():
    """Tails whose draws are imaged row by row, in slices: class separation
    on five points, with its analytic oracle, and the variance of beta draws,
    with a Monte Carlo oracle on the interval. That oracle sums its slices in
    budget order, so its expected value may move in its last digits and is
    left out; the tail's frequencies keep their bits. The swing only scales
    the bound, so a fixed one skips its sampled sup."""
    five = finite_space([(str(j), j / 4.0) for j in range(5)])
    beta = iid_law(beta_family(2.0, 3.0), 8)
    tails = [
        bounded_difference_tail(iid_law(uniform_on(five), 12), class_separation_statistic([5, 7]),
                                random_lookup_class(five, 1, 3).members[0], [0.0, 0.01, 0.03],
                                2000, 3, swing=SwingReport(1.0, True)),
        bounded_difference_tail(beta, sample_variance_statistic(8), ThresholdMember("low", 0.2, 0.5),
                                [0.0, 0.01, 0.03], 2000, 3, oracle_replicas=2000,
                                swing=SwingReport(1.0, True)),
    ]
    return ([tails[0].expected_value]
            + [(t.oracle_method, t.empirical.tolist(), t.stderr.tolist()) for t in tails])


def test_results_do_not_depend_on_the_batch_budget(tmp_path, monkeypatch):
    y = stream(5, "budget").random((6, 17))

    def outputs(tag):
        return (
            _full_report_outputs(tmp_path / tag),
            _full_report_outputs(tmp_path / f"{tag}-u", **SMOOTHED_MIN_REPORT),
            _run_outputs("deviate_variance", tmp_path / f"{tag}-mc", replications=100,
                         oracle={"method": "monte-carlo", "replicas": 1000}),
            _run_outputs("deviate_variance", tmp_path / f"{tag}-mc-u", replications=100,
                         oracle={"method": "monte-carlo", "replicas": 1000},
                         law=EIGHT_POINT_LAW, **SMOOTHED_MIN_REPORT),
            # The count path of the tail's draws and of the swing's type
            # decoder (26 types of 25 coordinates, in slices), and of the
            # probe on five support points.
            _run_outputs("tail_mean", tmp_path / f"{tag}-tail", tail_replicas=2000),
            _run_outputs("probe_variance", tmp_path / f"{tag}-probe", draws=2000),
            _row_path_tails(),
            rademacher_exact(y).value,
        )

    default = outputs("default")
    # One to five rows per batch; one row for the U-statistic (C(12, 2) pairs);
    # one draw per slice and one member per call of the oracle's count form,
    # one multiset per batch of the U-statistic's; one draw of signs per
    # probe slice and one type per slice of the swing's decoder; one draw
    # or two per slice of the row-path tails.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 512)
    assert outputs("small") == default


@pytest.mark.parametrize("kernel", [
    smoothed_min_kernel(), squared_difference_kernel(), product_kernel(3),
], ids=["smoothed-min", "squared-difference", "product-3"])
def test_u_statistic_row_does_not_depend_on_its_batch(kernel):
    stat = u_statistic(12, kernel)
    rows = stream(4, "u-batch").random((8, 12))
    alone = [stat.evaluate(row[None, :])[0] for row in rows]
    assert np.array_equal(stat.evaluate(rows), alone)


# ---------------------------------------------------------------------------
# count forms

COUNTED = {
    "mean": mean_statistic,
    "variance": sample_variance_statistic,
    "squared-difference": lambda n: u_statistic(n, squared_difference_kernel()),
    "product-2": lambda n: u_statistic(n, product_kernel(2)),
    "product-3": lambda n: u_statistic(n, product_kernel(3)),
    "smoothed-min": lambda n: u_statistic(n, smoothed_min_kernel(3.0)),
    "constant": lambda n: u_statistic(n, constant_kernel(0.7, 3)),
    "identity": lambda n: u_statistic(n, identity_kernel()),
}


@pytest.mark.parametrize("name", sorted(COUNTED))
@settings(max_examples=25, deadline=None)
@given(size=st.integers(1, 6), n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
def test_count_form_matches_row_evaluation(name, size, n, seed):
    stat = COUNTED[name](n)
    rng = np.random.default_rng(seed)
    support = rng.random((int(rng.integers(1, 5)), size))
    indices = rng.integers(0, size, size=(int(rng.integers(1, 20)), n))
    counted = stat.count_form(support, support_counts(indices, size))
    rows = np.stack([stat(np.take(member, indices)) for member in support])
    assert counted.shape == rows.shape
    assert np.allclose(counted, rows, rtol=0.0, atol=1e-12)


def test_support_counts_tally_each_row():
    indices = np.array([[0, 2, 2, 1], [3, 3, 3, 3]])
    assert support_counts(indices, 4).tolist() == [[1, 1, 2, 0], [0, 0, 0, 4]]


def test_u_statistic_count_form_is_vectorised_over_multisets():
    # C(1000 + 1, 2) = 500 500 multisets for one row and one member: a
    # Python loop over them took tens of seconds.
    stat = u_statistic(1414, squared_difference_kernel())
    rng = np.random.default_rng(3)
    support = rng.random((1, 1000))
    counts = rng.multinomial(1414, np.full(1000, 1e-3), size=1)
    start = time.perf_counter()
    counted = stat.count_form(support, counts)
    elapsed = time.perf_counter() - start
    row = stat(np.repeat(support[0], counts[0]))
    assert counted.shape == (1, 1)
    assert counted[0, 0] == pytest.approx(row, rel=1e-12)
    assert elapsed < 1.0


def test_u_statistic_builds_at_high_order():
    # C(1030, 515) passes the largest double; the binomial table stops at
    # C(n, m) = 1030, so it stays finite and builds at once.
    start = time.perf_counter()
    stat = u_statistic(1030, product_kernel(1029))
    elapsed = time.perf_counter() - start
    rng = np.random.default_rng(4)
    support = np.array([[0.999, 0.9995]])    # products of 1029 stay far from underflow
    indices = rng.integers(0, 2, size=(5, 1030))
    counted = stat.count_form(support, support_counts(indices, 2))
    rows = stat(np.take(support[0], indices))
    assert np.allclose(counted[0], rows, rtol=0.0, atol=1e-12)
    assert elapsed < 1.0


def test_u_statistic_count_form_is_fast_at_high_order():
    # Two support points at order 1099: a multiset has at most two distinct
    # points, so its weight takes two binomial factors, not 1099.
    stat = u_statistic(1100, product_kernel(1099))
    rng = np.random.default_rng(5)
    support = np.array([[0.999, 0.9995]])    # products of 1099 stay far from underflow
    indices = rng.integers(0, 2, size=(2000, 1100))
    counts = support_counts(indices, 2)
    start = time.perf_counter()
    counted = stat.count_form(support, counts)
    elapsed = time.perf_counter() - start
    assert counted.shape == (1, 2000)
    rows = stat(np.take(support[0], indices[:5]))
    assert np.allclose(counted[0, :5], rows, rtol=0.0, atol=1e-12)
    assert elapsed < 1.0


def test_u_statistic_count_form_refuses_past_the_multiset_cap():
    stat = u_statistic(3, product_kernel(3))
    support = np.full((1, 200), 0.5)    # C(202, 3) multisets > 1e6
    with pytest.raises(ResourceError, match=re.escape(
            "C(3+200-1, 199) support multisets exceed the enumeration cap 1000000")):
        stat.count_form(support, np.zeros((0, 200), dtype=np.int64))
