import math
import tracemalloc

import numpy as np
import pytest

from unibound import functionals
from unibound.derivative_bounds import (
    closed_form_constants,
    estimate_constants_numeric,
    fd_hessian,
    u_statistic_constant_bounds,
)
from unibound.errors import DomainError, ResourceError, UnsupportedStatisticError
from unibound.functionals import (
    Statistic,
    class_separation_statistic,
    identity_kernel,
    mean_statistic,
    product_kernel,
    sample_variance_statistic,
    smoothed_min_kernel,
    squared_difference_kernel,
    u_statistic,
)
from unibound.rng import stream


def test_closed_form_mean():
    rep = closed_form_constants(mean_statistic(10))
    assert rep.lipschitz == 0.1 and rep.mixed == 0.0
    assert rep.method == "closed-form" and not rep.is_lower_bound


def test_closed_form_variance():
    rep = closed_form_constants(sample_variance_statistic(5))
    assert rep.lipschitz == pytest.approx(0.4, abs=0)
    assert rep.mixed == pytest.approx(2.0 / math.sqrt(20.0), abs=0)


def test_closed_form_class_separation_matches_variance():
    sep = closed_form_constants(class_separation_statistic([2, 3]))
    var = closed_form_constants(sample_variance_statistic(5))
    assert sep.lipschitz == var.lipschitz and sep.mixed == var.mixed


def test_closed_form_requires_constants():
    with pytest.raises(UnsupportedStatisticError):
        closed_form_constants(u_statistic(4, squared_difference_kernel()))


def test_derived_bounds_squared_difference_equal_variance_closed_form():
    for n in (4, 9, 16):
        derived = u_statistic_constant_bounds(n, squared_difference_kernel())
        closed = closed_form_constants(sample_variance_statistic(n))
        assert derived.lipschitz == closed.lipschitz
        assert derived.mixed == closed.mixed
        assert derived.method == "derived-bound"


def test_derived_bounds_order_one_has_zero_mixed():
    rep = u_statistic_constant_bounds(12, identity_kernel())
    assert rep.mixed == 0.0


def test_derived_bounds_order_three_arithmetic():
    rep = u_statistic_constant_bounds(30, product_kernel(3))
    assert rep.lipschitz == pytest.approx(0.1, abs=1e-15)
    assert rep.mixed == pytest.approx(6.0 / math.sqrt(870.0), rel=1e-15)


def test_derived_bounds_need_kernel_data():
    from unibound.functionals import Kernel

    blank = Kernel("blank", 2, lambda a: a[..., 0] * 0.0)
    with pytest.raises(UnsupportedStatisticError):
        u_statistic_constant_bounds(6, Kernel("nod1", 2, blank.fn, sup_d1=None))
    with pytest.raises(UnsupportedStatisticError):
        u_statistic_constant_bounds(6, Kernel("nod12", 2, blank.fn, sup_d1=1.0, sup_d12=None))


# ---------------------------------------------------------------------------
# numeric estimation

def test_numeric_mean_constants():
    rep = estimate_constants_numeric(mean_statistic(6), probes=20, seed=1)
    assert abs(rep.lipschitz - 1.0 / 6.0) <= 1e-8
    assert rep.mixed <= 1e-6
    assert rep.is_lower_bound and rep.method == "numeric-estimate"


def test_numeric_variance_matches_closed_form():
    n = 6
    rep = estimate_constants_numeric(sample_variance_statistic(n), probes=200, seed=2)
    assert abs(rep.mixed - 2.0 / math.sqrt(n * (n - 1))) <= 1e-4
    assert abs(rep.lipschitz - 2.0 / n) <= 1e-4


def test_numeric_u_statistic_below_derived_bounds():
    n = 8
    kernel = product_kernel(2)
    rep = estimate_constants_numeric(u_statistic(n, kernel), probes=500, seed=3)
    bound = u_statistic_constant_bounds(n, kernel)
    assert rep.lipschitz <= 2.0 / 8.0 + 1e-9
    assert rep.mixed <= 2.0 / math.sqrt(56.0) + 1e-6
    # FD noise allowance: the sampled estimate may exceed the bound by ~1e-8
    assert rep.lipschitz <= bound.lipschitz + 1e-6
    assert rep.mixed <= bound.mixed + 1e-6


@pytest.mark.parametrize(
    "make",
    [
        lambda: mean_statistic(5),
        lambda: sample_variance_statistic(5),
        lambda: class_separation_statistic([2, 3]),
    ],
)
def test_numeric_never_exceeds_closed_form_materially(make):
    stat = make()
    rep = estimate_constants_numeric(stat, probes=60, seed=4)
    lip, mixed = stat.closed_form_constants
    assert rep.lipschitz <= lip + 1e-4
    assert rep.mixed <= mixed + 1e-4


@pytest.mark.parametrize("kernel_make", [squared_difference_kernel, product_kernel,
                                         lambda: smoothed_min_kernel(4.0)])
def test_derived_bound_dominates_numeric(kernel_make):
    n = 6
    kernel = kernel_make()
    stat = u_statistic(n, kernel)
    rep = estimate_constants_numeric(stat, probes=120, seed=5)
    bound = u_statistic_constant_bounds(n, kernel)
    assert rep.lipschitz <= bound.lipschitz + 1e-6
    assert rep.mixed <= bound.mixed + 1e-6


def test_numeric_detail_fields():
    rep = estimate_constants_numeric(sample_variance_statistic(4), probes=30, seed=6)
    d = rep.detail
    assert d.grad_sup.shape == (4,)
    assert d.mixed_rowsq.shape == (4,)
    # variance: all mixed entries equal, so the entrywise and rowwise aggregates agree
    assert d.mixed_entry_aggregate == pytest.approx(rep.mixed, rel=1e-6)


def test_numeric_parameter_contracts():
    stat = mean_statistic(4)
    with pytest.raises(DomainError):
        estimate_constants_numeric(stat, probes=0)
    with pytest.raises(DomainError):
        estimate_constants_numeric(stat, fd_step=1e-8)
    with pytest.raises(DomainError):
        estimate_constants_numeric(stat, fd_step=0.5)


def test_numeric_reports_non_finite_probe():
    from unibound.errors import NumericError
    from unibound.functionals import Statistic

    bad = Statistic("bad", 3, lambda s: np.log(s.sum(axis=-1) - 5.0))
    with pytest.raises(NumericError, match="probe"), pytest.warns(RuntimeWarning):
        estimate_constants_numeric(bad, probes=3, seed=8)


def _whole_stencil_mixed(stat, p, step):
    # Every mixed partial from one (4, n(n-1)/2, n) stencil.
    eye = step * np.eye(stat.n)
    iu, ju = np.triu_indices(stat.n, 1)
    ek, el = eye[iu], eye[ju]
    vals = stat(np.stack([p + ek + el, p + ek - el, p - ek + el, p - ek - el]))
    return iu, ju, (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * step**2)


@pytest.mark.parametrize("make", [
    lambda: mean_statistic(7),
    lambda: sample_variance_statistic(9),
    lambda: u_statistic(6, smoothed_min_kernel(4.0)),
    lambda: class_separation_statistic([3, 5]),
], ids=["mean", "variance", "smoothed-min", "class-separation"])
def test_fd_hessian_slices_keep_the_whole_stencil_bits(make, monkeypatch):
    stat = make()
    p = stream(9, "hessian-probe").random(stat.n)
    iu, ju, mixed = _whole_stencil_mixed(stat, p, 1e-4)
    # A 1 KiB budget cuts the pairs into slices of 4 to 5 pairs.
    monkeypatch.setattr(functionals, "BATCH_BYTES", 1 << 10)
    h = fd_hessian(stat, p, 1e-4)
    assert h[iu, ju].tobytes() == mixed.tobytes()
    assert h[ju, iu].tobytes() == mixed.tobytes()


def test_fd_hessian_memory_is_bounded_by_the_batch_budget():
    # The whole stencil at n = 120 is 4 * 7140 * 120 doubles, about 26 MiB,
    # and peaked at 65.7 MiB with its temporaries; 4 MiB slices peak near 8.
    stat = sample_variance_statistic(120)
    p = stream(10, "hessian-probe").random(120)
    tracemalloc.start()
    try:
        fd_hessian(stat, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_fd_hessian_refuses_pairs_past_the_enumeration_cap():
    # C(1415, 2) = 1 000 405 coordinate pairs pass the cap of 1e6; the
    # refusal comes before the statistic sees a single row.
    rows = []
    stat = Statistic("counting", 1415, lambda s: rows.append(s) or np.zeros(s.shape[:-1]))
    with pytest.raises(ResourceError, match=r"C\(1415,2\) = 1000405 coordinate pairs"):
        fd_hessian(stat, np.full(1415, 0.5))
    assert rows == []
