from pathlib import Path

import numpy as np
import pytest
import yaml

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

FULL_REPORT = Path(__file__).resolve().parent.parent / "configs" / "full_report.yaml"


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

def _full_report_outputs(out):
    raw = yaml.safe_load(FULL_REPORT.read_text())
    raw.update(replications=100, draws=2000, tail_replicas=1000)
    _, record, _ = run_experiment(raw, out_dir=out)
    del record["wall_clock"], record["config"]["out"]
    return record, (out / "table.csv").read_bytes()


def test_results_do_not_depend_on_the_batch_budget(tmp_path, monkeypatch):
    y = stream(5, "budget").random((6, 17))
    default = _full_report_outputs(tmp_path / "default"), rademacher_exact(y).value
    monkeypatch.setattr(functionals, "BATCH_BYTES", 512)  # one to five rows per batch
    assert (_full_report_outputs(tmp_path / "small"), rademacher_exact(y).value) == default
