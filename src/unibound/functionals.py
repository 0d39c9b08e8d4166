"""The nonlinear statistics the deviation machinery is built around.

Each statistic is a smooth map from [0, 1]^n to the reals: the arithmetic
mean, the pairwise sample variance, general m-th order U-statistics of a
symmetric kernel, and the signed class-separation functional. Where closed
forms exist the statistic also carries its gradient, its Hessian, and the
pair (L, M) of derivative constants:

    L  bounds every first partial derivative uniformly on the box,
    M  = sqrt( sum_k sup_s sum_{l != k} (d^2 Phi / ds_l ds_k)^2 ).

Under a product law, mean, variance and class separation are quadratic
forms in the image, so their expectations need only per-coordinate first
and second moments; a U-statistic is linear in its kernel terms, so its
expectation sums the kernel over support^m tuples weighted by elementary
symmetric sums of the coordinate laws (Hoeffding 1948).

``evaluate`` accepts batches of shape (..., n). All built-ins are global
smooth functions, so finite-difference stencils may step slightly outside
the unit box.

Memory follows one policy: every batched loop in the library takes its row
slices from ``batches``, which fits each slice into ``BATCH_BYTES`` given
the bytes one row costs. A statistic states its own row cost, so calling it
on any number of rows stays within the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceError
from .rng import stream

MAX_SUBSETS = 10_000_000
# Largest product-law lattice the library enumerates: support^n points for
# the exact oracle and the swing sup, support^m kernel tuples for the
# closed-form U-statistic expectation.
ENUM_CAP = 1_000_000
_SYMMETRY_TOL = 1e-12
# Bytes one batch of rows may cost, at the row cost each loop states: the
# rows it holds at once. A variance row at n = 64 costs 64 doubles, so it is
# evaluated 2^13 rows at a time.
BATCH_BYTES = 4 << 20
# Kernel order and smoothed-min sharpness when none is given.
DEFAULT_KERNEL_ORDER = 2
DEFAULT_SHARPNESS = 4.0


def batches(count: int, row_bytes: int):
    """Slices covering range(count), each of max(1, BATCH_BYTES // row_bytes) rows."""
    step = max(1, BATCH_BYTES // row_bytes)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


@dataclass(frozen=True, eq=False)
class Statistic:
    """An evaluable statistic with optional analytic derivative data.

    evaluate : batch map (..., n) -> (...)
    gradient : point map (n,) -> (n,) or None
    hessian  : point map (n,) -> (n, n), diagonal included, or None
    closed_form_constants : (L, M) pair or None
    product_expectation : map (support (K, s), weights (n, s)) -> (K,), or
        None. Row k of ``support`` holds member k's values on the s support
        points and row i of ``weights`` the law of coordinate i; the result
        is E Phi(f_k(X)) for X with independent coordinates.
    row_bytes : bytes one row costs ``evaluate``, or None for n doubles.
        Calling the statistic evaluates batches of rows that fit BATCH_BYTES.
    """

    name: str
    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    closed_form_constants: tuple[float, float] | None = None
    product_expectation: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    row_bytes: int | None = None

    def __call__(self, s) -> np.ndarray:
        arr = np.asarray(s, dtype=np.float64)
        if arr.shape[-1] != self.n:
            raise DomainError(f"{self.name} expects vectors of length {self.n}")
        rows = arr.reshape(-1, self.n)
        out = np.empty(rows.shape[0])
        for part in batches(rows.shape[0], self.row_bytes or 8 * self.n):
            out[part] = self.evaluate(rows[part])
        return out.reshape(arr.shape[:-1])[()]


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric kernel of ``order`` variables with stated derivative bounds.

    sup_d1 bounds |d kappa / d s_1| and sup_d12 bounds the mixed second
    partial on [0, 1]^order. The bounds are supplied, not computed; the
    numeric constants estimator cross-checks them from below.
    """

    name: str
    order: int
    fn: Callable[[np.ndarray], np.ndarray]
    sup_d1: float | None = None
    sup_d12: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("kernel order must be >= 1")
        for bound in (self.sup_d1, self.sup_d12):
            if bound is not None and bound < 0.0:
                raise DomainError("derivative bounds must be nonnegative")

    def __call__(self, args) -> np.ndarray:
        arr = np.asarray(args, dtype=np.float64)
        if arr.shape[-1] != self.order:
            raise DomainError(f"kernel {self.name} takes {self.order} arguments")
        return self.fn(arr)


def check_kernel_symmetry(kernel: Kernel, trials: int = 16, seed: int = 0) -> None:
    """Spot-check invariance under argument permutation (tolerance 1e-12)."""
    if kernel.order == 1:
        return
    rng = stream(seed, f"kernel-symmetry/{kernel.name}")
    pts = rng.random((trials, kernel.order))
    base = kernel(pts)
    for _ in range(3):
        perm = rng.permutation(kernel.order)
        permuted = kernel(pts[:, perm])
        if np.max(np.abs(permuted - base)) > _SYMMETRY_TOL:
            raise DomainError(f"kernel {kernel.name} is not permutation-symmetric")


# ---------------------------------------------------------------------------
# Built-in kernels

def squared_difference_kernel() -> Kernel:
    """kappa(s, t) = (s - t)^2 / 2. Derivative sups on the unit square: 1, 1."""
    return Kernel(
        "squared-difference", 2,
        lambda a: 0.5 * (a[..., 0] - a[..., 1]) ** 2,
        sup_d1=1.0, sup_d12=1.0,
    )


def product_kernel(order: int = DEFAULT_KERNEL_ORDER) -> Kernel:
    """kappa = product of the arguments; both derivative sups equal 1."""
    return Kernel(
        "product", int(order),
        lambda a: np.prod(a, axis=-1),
        sup_d1=1.0, sup_d12=1.0 if order >= 2 else 0.0,
    )


def smoothed_min_kernel(sharpness: float = DEFAULT_SHARPNESS) -> Kernel:
    """Soft minimum -log(exp(-b s) + exp(-b t)) / b with b = sharpness.

    First partials are sigmoids (sup 1); the mixed partial is b * sig * (1 - sig),
    so its sup on the square is sharpness / 4.
    """
    b = float(sharpness)
    if b <= 0.0:
        raise DomainError("sharpness must be positive")

    def fn(a):
        return -np.logaddexp(-b * a[..., 0], -b * a[..., 1]) / b

    return Kernel("smoothed-min", 2, fn, sup_d1=1.0, sup_d12=b / 4.0)


def constant_kernel(value: float, order: int = DEFAULT_KERNEL_ORDER) -> Kernel:
    v = float(value)
    return Kernel(
        "constant", int(order),
        lambda a: np.full(a.shape[:-1], v),
        sup_d1=0.0, sup_d12=0.0,
    )


def identity_kernel() -> Kernel:
    return Kernel("identity", 1, lambda a: a[..., 0], sup_d1=1.0, sup_d12=0.0)


# ---------------------------------------------------------------------------
# Built-in statistics

def mean_statistic(n: int) -> Statistic:
    """Arithmetic mean. L = 1/n, M = 0."""
    if n < 1:
        raise DomainError("mean needs n >= 1")
    n = int(n)

    def evaluate(s):
        return s.mean(axis=-1)

    def gradient(s):
        return np.full(n, 1.0 / n)

    def hessian(s):
        return np.zeros((n, n))

    def product_expectation(support, weights):
        return (support @ weights.T).mean(axis=1)

    return Statistic("mean", n, evaluate, gradient, hessian, (1.0 / n, 0.0), product_expectation)


def sample_variance_statistic(n: int) -> Statistic:
    """Pairwise sample variance sum_{i<j} (s_i - s_j)^2 / (n(n-1)).

    Evaluation uses the algebraic identity n*sum(s^2) - (sum s)^2 over
    n(n-1), which is an independent route from the subset-enumerating
    U-statistic form. L = 2/n, M = 2/sqrt(n(n-1)).
    """
    if n < 2:
        raise DomainError("sample variance needs n >= 2")
    n = int(n)
    denom = float(n * (n - 1))

    def evaluate(s):
        total = s.sum(axis=-1)
        sq = (s * s).sum(axis=-1)
        return (n * sq - total * total) / denom

    def gradient(s):
        return 2.0 * (n * s - s.sum()) / denom

    def hessian(s):
        h = np.full((n, n), -2.0 / denom)
        np.fill_diagonal(h, 2.0 / n)
        return h

    def product_expectation(support, weights):
        # E (sum s)^2 = sum m2 + (sum mu)^2 - sum mu^2 for independent coordinates.
        mu = support @ weights.T
        m2 = (support * support) @ weights.T
        total = mu.sum(axis=1)
        return ((n - 1) * m2.sum(axis=1) - total * total + (mu * mu).sum(axis=1)) / denom

    constants = (2.0 / n, 2.0 / math.sqrt(n * (n - 1)))
    return Statistic("variance", n, evaluate, gradient, hessian, constants, product_expectation)


def u_statistic(n: int, kernel: Kernel, *, max_subsets: int = MAX_SUBSETS) -> Statistic:
    """Average of the kernel over all m-subsets in increasing-index order.

    Refuses when the subset count exceeds ``max_subsets``. No analytic
    derivatives are attached; the constants module estimates or bounds them.
    The product-law expectation is attached; it refuses supports whose
    support^m kernel tuples exceed ENUM_CAP.
    """
    n = int(n)
    m = kernel.order
    if m > n:
        raise DomainError(f"kernel order {m} exceeds n = {n}")
    count = math.comb(n, m)
    if count > max_subsets:
        raise ResourceError(f"C({n},{m}) = {count} subsets exceed the cap {max_subsets}")
    check_kernel_symmetry(kernel)
    combos = np.asarray(list(itertools.combinations(range(n), m)), dtype=np.intp)

    def evaluate(s):
        sub = s[..., combos]            # (..., count, m)
        vals = kernel.fn(sub)           # (..., count)
        # np.sum reduces pairwise, which keeps cancellation error in check
        # across the many same-magnitude subset terms.
        return np.sum(vals, axis=-1) / count

    def product_expectation(support, weights):
        size = support.shape[1]
        tuples = size**m
        if tuples > ENUM_CAP:
            raise ResourceError(
                f"support^{m} = {tuples} kernel tuples exceed the enumeration cap {ENUM_CAP}"
            )
        # chains[r][t] sums prod_j weights[i_j, t_j] over index chains
        # i_1 < ... < i_r among the coordinates seen so far; descending r
        # uses each coordinate at most once per chain.
        chains = [np.ones(())] + [np.zeros((size,) * r) for r in range(1, m + 1)]
        for w in weights:
            for r in range(m, 0, -1):
                chains[r] += np.multiply.outer(chains[r - 1], w)
        tuple_weights = chains[m].ravel()
        grid = np.indices((size,) * m).reshape(m, -1).T    # (tuples, m) support indices
        out = np.empty(support.shape[0])
        for part in batches(support.shape[0], tuples * m * 8):
            out[part] = kernel.fn(support[part][:, grid]) @ tuple_weights
        return out / count

    return Statistic(
        f"u-statistic[{kernel.name},m={m}]", n, evaluate,
        product_expectation=product_expectation, row_bytes=count * m * 8,
    )


def class_separation_statistic(n: int, signs: np.ndarray) -> Statistic:
    """Signed pairwise functional sum_{i<j} r_ij (s_i - s_j)^2 / (n(n-1)).

    ``signs`` must be a symmetric n x n matrix with +/-1 off the diagonal
    (the diagonal is ignored). With all signs +1 this is exactly the sample
    variance. Same constants as the variance: L = 2/n, M = 2/sqrt(n(n-1)).
    """
    n = int(n)
    if n < 2:
        raise DomainError("class separation needs n >= 2")
    r = np.asarray(signs, dtype=np.float64)
    if r.shape != (n, n):
        raise DomainError(f"sign matrix must be {n} x {n}")
    if not np.array_equal(r, r.T):
        raise DomainError("sign matrix must be symmetric")
    off = ~np.eye(n, dtype=bool)
    if not np.all(np.abs(r[off]) == 1.0):
        raise DomainError("off-diagonal signs must be +1 or -1")
    r = r.copy()
    np.fill_diagonal(r, 0.0)
    row = r.sum(axis=1)
    denom = float(n * (n - 1))

    def evaluate(s):
        quad = ((s @ r) * s).sum(axis=-1)
        return ((s * s) @ row - quad) / denom

    def gradient(s):
        return 2.0 * (row * s - r @ s) / denom

    def hessian(s):
        h = -2.0 * r / denom
        np.fill_diagonal(h, 2.0 * row / denom)
        return h

    def product_expectation(support, weights):
        # The zero diagonal of r leaves only products of distinct, hence
        # independent, coordinates in the quadratic term.
        mu = support @ weights.T
        m2 = (support * support) @ weights.T
        return (m2 @ row - ((mu @ r) * mu).sum(axis=1)) / denom

    constants = (2.0 / n, 2.0 / math.sqrt(n * (n - 1)))
    return Statistic(
        "class-separation", n, evaluate, gradient, hessian, constants, product_expectation
    )
