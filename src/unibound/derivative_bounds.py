"""Derivative constants (L, M) for a statistic.

Three routes, in decreasing order of authority:

* closed-form   -- the statistic carries (L, M) analytically.
* derived-bound -- U-statistics: L <= (m/n) sup|d1 kappa| and every mixed
                   entry is bounded by m(m-1)/(n(n-1)) sup|d12 kappa|, which
                   aggregates to M = m(m-1)/sqrt(n(n-1)) * sup|d12 kappa|.
* numeric-estimate -- central finite differences at sampled points. Sampled
                   suprema UNDER-estimate true suprema, so this route is
                   flagged as a lower bound and bound assembly refuses it
                   unless explicitly overridden.

The numeric route augments the uniform probes with Hessian-guided candidate
points: at each probe the finite-difference Hessian row defines an affine
surrogate of d Phi / d s_k whose extremizers over the box are evaluated as
extra candidates. Every reported value is an actual finite-difference
derivative at a point inside the box, so the estimate stays a lower bound;
for statistics of total degree <= 2 the surrogate is exact and the estimate
matches the true supremum up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, UnsupportedStatisticError
from .functionals import Kernel, Statistic
from .rng import as_stream

# The routes a configuration names; a numeric estimate reports NUMERIC_ESTIMATE.
CLOSED_FORM = "closed-form"
DERIVED_BOUND = "derived-bound"
NUMERIC = "numeric"
NUMERIC_ESTIMATE = "numeric-estimate"

DEFAULT_PROBES = 200
DEFAULT_FD_STEP = 1e-4
FD_STEP_RANGE = (1e-7, 1e-2)
# The range as messages state it: "[1e-7, 1e-2]".
FD_STEP_RANGE_TEXT = "[{}, {}]".format(
    *(np.format_float_scientific(v, trim="-", exp_digits=1) for v in FD_STEP_RANGE)
)


@dataclass(frozen=True, eq=False)
class ConstantsDetail:
    """Per-coordinate evidence behind a numeric estimate.

    grad_sup[k]       max observed |d Phi / d s_k|
    mixed_rowsq[k]    max observed sum_{l != k} (d^2 Phi / ds_l ds_k)^2
    mixed_entry_aggregate   sqrt(sum over k != l of (max |entry|)^2); the
                            coarser entrywise aggregate, reported only
    """

    grad_sup: np.ndarray
    mixed_rowsq: np.ndarray
    mixed_entry_aggregate: float


@dataclass(frozen=True, eq=False)
class ConstantsReport:
    lipschitz: float
    mixed: float
    method: str
    detail: ConstantsDetail | None = None

    def __post_init__(self):
        if self.lipschitz < 0.0 or self.mixed < 0.0:
            raise DomainError("constants must be nonnegative")

    @property
    def is_lower_bound(self) -> bool:
        """Numeric estimates under-estimate the true suprema."""
        return self.method == NUMERIC_ESTIMATE


def closed_form_constants(stat: Statistic) -> ConstantsReport:
    """Return the statistic's analytic (L, M) pair."""
    if stat.closed_form_constants is None:
        raise UnsupportedStatisticError(f"{stat.name} carries no closed-form constants")
    lip, mixed = stat.closed_form_constants
    return ConstantsReport(lip, mixed, CLOSED_FORM)


def u_statistic_constant_bounds(n: int, kernel: Kernel) -> ConstantsReport:
    """Derived (L, M) bounds for the order-m U-statistic of ``kernel``."""
    n = int(n)
    m = kernel.order
    if m > n:
        raise DomainError(f"kernel order {m} exceeds n = {n}")
    if kernel.sup_d1 is None:
        raise UnsupportedStatisticError(f"kernel {kernel.name} states no first-derivative bound")
    lip = (m / n) * kernel.sup_d1
    if m == 1:
        mixed = 0.0
    else:
        if kernel.sup_d12 is None:
            raise UnsupportedStatisticError(
                f"kernel {kernel.name} states no mixed-derivative bound"
            )
        # Entrywise bound m(m-1)/(n(n-1)) * sup_d12 aggregated over the
        # n(n-1) off-diagonal slots.
        mixed = m * (m - 1) / math.sqrt(n * (n - 1)) * kernel.sup_d12
    return ConstantsReport(lip, mixed, DERIVED_BOUND)


# ---------------------------------------------------------------------------
# Finite differences

def fd_gradient(stat: Statistic, point: np.ndarray, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient at one point."""
    p = np.asarray(point, dtype=np.float64)
    n = stat.n
    eye = step * np.eye(n)
    vals_plus = stat(p + eye)
    vals_minus = stat(p - eye)
    return (vals_plus - vals_minus) / (2.0 * step)


def fd_hessian(stat: Statistic, point: np.ndarray, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Hessian (diagonal included) at one point."""
    p = np.asarray(point, dtype=np.float64)
    n = stat.n
    f0 = float(stat(p))
    eye = step * np.eye(n)
    fp = stat(p + eye)
    fm = stat(p - eye)
    h = np.empty((n, n))
    np.fill_diagonal(h, (fp - 2.0 * f0 + fm) / step**2)
    iu, ju = np.triu_indices(n, 1)
    if iu.size:
        ek = eye[iu]
        el = eye[ju]
        stencil = np.stack([p + ek + el, p + ek - el, p - ek + el, p - ek - el])
        vals = stat(stencil)  # (4, npairs)
        mixed = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * step**2)
        h[iu, ju] = mixed
        h[ju, iu] = mixed
    return h


def _surrogate_extremizers(point: np.ndarray, hess_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Box extremizers of the affine surrogate of one partial derivative.
    # A zero slope leaves that coordinate at the probe.
    hi = np.where(hess_row > 0.0, 1.0, np.where(hess_row < 0.0, 0.0, point))
    lo = np.where(hess_row > 0.0, 0.0, np.where(hess_row < 0.0, 1.0, point))
    return hi, lo


def estimate_constants_numeric(
    stat: Statistic,
    probes: int = DEFAULT_PROBES,
    fd_step: float = DEFAULT_FD_STEP,
    seed=0,
) -> ConstantsReport:
    """Sampled finite-difference estimate of (L, M), flagged as a lower bound.

    Draws ``probes`` points uniformly from the unit box. At each point all
    first and second partials are formed by central differences; L is the
    largest observed |d Phi / d s_k| over probes, coordinates, and the
    Hessian-guided candidate points, and M is the exact aggregate
    sqrt(sum_k max_probe sum_{l != k} entry^2) with the supremum replaced by
    the sampled maximum. The statistic must be evaluable within ``fd_step``
    of the box; every built-in is.
    """
    if probes < 1:
        raise DomainError("probes must be >= 1")
    if not (FD_STEP_RANGE[0] <= fd_step <= FD_STEP_RANGE[1]):
        raise DomainError(f"fd_step must lie in {FD_STEP_RANGE_TEXT}")
    n = stat.n
    rng = as_stream(seed, "constants-numeric")
    points = rng.random((probes, n))

    grad_sup = np.zeros(n)
    rowsq_sup = np.zeros(n)
    entry_sup = np.zeros((n, n))

    for p in points:
        grad = fd_gradient(stat, p, fd_step)
        hess = fd_hessian(stat, p, fd_step)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise NumericError(f"non-finite finite difference at probe {p.tolist()}")
        off = hess.copy()
        np.fill_diagonal(off, 0.0)
        rowsq = (off * off).sum(axis=1)

        np.maximum(grad_sup, np.abs(grad), out=grad_sup)
        np.maximum(rowsq_sup, rowsq, out=rowsq_sup)
        np.maximum(entry_sup, np.abs(off), out=entry_sup)

        # Candidate refinement: evaluate each partial at the box points that
        # extremize its affine surrogate. Exact for degree <= 2 statistics.
        candidates = np.empty((2 * n, n))
        for k in range(n):
            hi, lo = _surrogate_extremizers(p, hess[k])
            candidates[2 * k] = hi
            candidates[2 * k + 1] = lo
        steps = fd_step * np.eye(n)
        which = np.repeat(np.arange(n), 2)
        plus = candidates + steps[which]
        minus = candidates - steps[which]
        vals = stat(np.concatenate([plus, minus]))
        if not np.all(np.isfinite(vals)):
            raise NumericError(f"non-finite finite difference at probe {p.tolist()}")
        derivs = (vals[: 2 * n] - vals[2 * n :]) / (2.0 * fd_step)
        np.maximum.at(grad_sup, which, np.abs(derivs))

    detail = ConstantsDetail(
        grad_sup=grad_sup,
        mixed_rowsq=rowsq_sup,
        mixed_entry_aggregate=float(np.sqrt((entry_sup**2).sum())),
    )
    lip = float(grad_sup.max())
    mixed = float(np.sqrt(rowsq_sup.sum()))
    return ConstantsReport(lip, mixed, NUMERIC_ESTIMATE, detail)
