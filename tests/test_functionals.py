import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unibound import functionals
from unibound.complexity import rademacher_exact
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
from unibound.spaces import support_counts

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
    assert stat.row_bytes == math.comb(1414, 2) * 2 * 8
    assert peak < 32 * 2**20


def test_u_statistic_batches_hold_what_evaluating_them_allocates():
    # A smoothed-min row holds its (120, 2) subset gather and the kernel's
    # temporaries, 5 x 120 doubles; batched by the gather alone, a batch
    # held about 2.5 times BATCH_BYTES.
    stat = u_statistic(16, smoothed_min_kernel())
    assert stat.eval_bytes == 5 * stat.row_bytes // 2
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
            # The count path of the tail's draws and of the sampled swing
            # (2^25 points), and of the probe on five support points.
            _run_outputs("tail_mean", tmp_path / f"{tag}-tail", tail_replicas=2000),
            _run_outputs("probe_variance", tmp_path / f"{tag}-probe", draws=2000),
            rademacher_exact(y).value,
        )

    default = outputs("default")
    # One to five rows per batch; one row for the U-statistic (C(12, 2) pairs);
    # one draw per slice and one member per call of the oracle's count form,
    # one multiset per batch of the U-statistic's; one draw of signs per
    # probe slice and eight points per slice of the sampled swing.
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
    with pytest.raises(ResourceError):
        stat.count_form(support, np.zeros((0, 200), dtype=np.int64))
