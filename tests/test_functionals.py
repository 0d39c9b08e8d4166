import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from unibound import functionals
from unibound.complexity import rademacher_exact
from unibound.derivative_bounds import fd_gradient, fd_hessian
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
from unibound.classes import separation_labels
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
        h = stat.hessian(rng.random(n))
        off = h[~np.eye(n, dtype=bool)]
        assert np.allclose(off, -2.0 / (n * (n - 1)), atol=1e-15)


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
    sep = class_separation_statistic(n, separation_labels([n]))
    var = sample_variance_statistic(n)
    pts = stream(5, "pts").random((100, n))
    assert np.allclose(sep(pts), var(pts), atol=1e-13)


def test_class_separation_values():
    sep = class_separation_statistic(2, separation_labels([1, 1]))
    assert sep([0.0, 1.0]) == pytest.approx(-0.5, abs=1e-15)
    sep5 = class_separation_statistic(5, separation_labels([2, 3]))
    assert sep5([0.7] * 5) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# derivatives vs finite differences

@pytest.mark.parametrize(
    "make",
    [
        lambda: mean_statistic(5),
        lambda: sample_variance_statistic(5),
        lambda: class_separation_statistic(5, separation_labels([2, 3])),
    ],
)
def test_closed_form_derivatives_match_finite_differences(make):
    stat = make()
    rng = stream(6, f"fd/{stat.name}")
    for _ in range(100):
        p = 0.1 + 0.8 * rng.random(stat.n)
        assert np.max(np.abs(stat.gradient(p) - fd_gradient(stat, p, 1e-5))) <= 1e-5
        hess_fd = fd_hessian(stat, p, 1e-4)
        off = ~np.eye(stat.n, dtype=bool)
        assert np.max(np.abs(stat.hessian(p)[off] - hess_fd[off])) <= 1e-5


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


def test_asymmetric_kernel_rejected():
    bad = Kernel("lopsided", 2, lambda a: a[..., 0] - 0.5 * a[..., 1])
    with pytest.raises(DomainError):
        u_statistic(4, bad)


def test_sign_matrix_validation():
    with pytest.raises(DomainError):
        class_separation_statistic(3, np.ones((2, 2)))
    bad = np.ones((3, 3))
    bad[0, 1] = -1.0  # asymmetric
    with pytest.raises(DomainError):
        class_separation_statistic(3, bad)
    bad2 = np.ones((3, 3))
    bad2[0, 1] = bad2[1, 0] = 0.5
    with pytest.raises(DomainError):
        class_separation_statistic(3, bad2)


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


def test_results_do_not_depend_on_the_batch_budget(tmp_path, monkeypatch):
    y = stream(5, "budget").random((6, 17))

    def outputs(tag):
        return (
            _full_report_outputs(tmp_path / tag),
            _full_report_outputs(tmp_path / f"{tag}-u", **SMOOTHED_MIN_REPORT),
            _run_outputs("deviate_variance", tmp_path / f"{tag}-mc", replications=100,
                         oracle={"method": "monte-carlo", "replicas": 1000}),
            rademacher_exact(y).value,
        )

    default = outputs("default")
    # One to five rows per batch; one row for the U-statistic (C(12, 2) pairs);
    # one draw per slice and one member per call of the oracle's count form.
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
    rows = np.stack([stat(np.take(member, indices)) for member in support], axis=1)
    assert counted.shape == rows.shape
    assert np.allclose(counted, rows, rtol=0.0, atol=1e-12)


def test_support_counts_tally_each_row():
    indices = np.array([[0, 2, 2, 1], [3, 3, 3, 3]])
    assert support_counts(indices, 4).tolist() == [[1, 1, 2, 0], [0, 0, 0, 4]]


def test_u_statistic_count_form_refuses_past_the_multiset_cap():
    stat = u_statistic(3, product_kernel(3))
    support = np.full((1, 200), 0.5)    # C(202, 3) multisets > 1e6
    with pytest.raises(ResourceError):
        stat.count_form(support, np.zeros((0, 200), dtype=np.int64))
