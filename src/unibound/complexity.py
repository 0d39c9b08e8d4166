"""Rademacher and Gaussian averages of finite point sets.

For a finite Y in R^n,

    R(Y) = E sup_{y in Y} sum_i eps_i y_i,   eps_i uniform in {-1, +1},
    G(Y) = E sup_{y in Y} sum_i gam_i y_i,   gam_i standard normal.

R is computed exactly by enumerating sign patterns when n <= 20 and by
Monte Carlo otherwise; G by Monte Carlo. Monte Carlo draws are antithetic:
each eps (or gamma) is paired with its negation, the estimate is the mean
of per-pair means, and the standard error is the sample standard deviation
of the iid pair means over sqrt(pairs). Pairing keeps the estimator
unbiased, makes every pair mean nonnegative (take the same maximizer on
both sides), and makes translation invariance hold exactly under a shared
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import ClassImage
from .errors import DomainError, ResourceError
from .functionals import batches
from .rng import as_stream, rademacher_signs, standard_normals

EXACT = "exact"
MONTE_CARLO = "monte-carlo"
RADEMACHER = "rademacher"
GAUSSIAN = "gaussian"

EXACT_DIM_CAP = 20
MIN_DRAWS = 100


@dataclass(frozen=True, eq=False)
class ComplexityEstimate:
    """A scalar estimate of R(Y) or G(Y).

    ``stderr`` is present only for Monte Carlo estimates and equals the
    sample standard deviation of the per-pair suprema means over
    sqrt(pairs); it is 0 when the pair means are constant (degenerate Y).
    """

    value: float
    kind: str
    method: str
    draws: int | None = None
    stderr: float | None = None

    def __post_init__(self):
        if self.method == EXACT and self.stderr is not None:
            raise DomainError("exact estimates carry no standard error")
        if self.method == MONTE_CARLO and (self.stderr is None or self.stderr < 0.0):
            raise DomainError("Monte Carlo estimates need a nonnegative standard error")


def _as_matrix(y) -> np.ndarray:
    if isinstance(y, ClassImage):
        y = y.vectors
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise DomainError("Y must be a non-empty set of equal-length vectors")
    return arr


def rademacher_exact(y, *, dim_cap: int = EXACT_DIM_CAP) -> ComplexityEstimate:
    """R(Y) by full sign-pattern enumeration; refuses beyond n = ``dim_cap``.

    Patterns are enumerated in antithetic halves (each pattern summed with
    its negation), so singletons come out exactly zero. The per-pattern
    sums, at most 2^(dim_cap - 1) doubles, are kept and added in one
    pairwise sum, so the value does not depend on the batch size.
    """
    mat = _as_matrix(y)
    n = mat.shape[1]
    if n > dim_cap:
        raise ResourceError(f"exact enumeration needs n <= {dim_cap}, got {n}")
    half = 1 << (n - 1) if n >= 1 else 1
    powers = 1 << np.arange(n, dtype=np.int64)
    pair_sums = np.empty(half)
    for part in batches(half, 8 * (n + mat.shape[0])):    # sign and product rows
        codes = np.arange(part.start, part.stop, dtype=np.int64)
        signs = 2.0 * ((codes[:, None] & powers[None, :]) > 0).astype(np.float64) - 1.0
        prod = signs @ mat.T
        pair_sums[part] = prod.max(axis=1) + (-prod).max(axis=1)
    value = float(np.sum(pair_sums)) / (2.0 * half)
    return ComplexityEstimate(value, RADEMACHER, EXACT)


def _antithetic_mc(mat: np.ndarray, draws: int, rng, gaussian: bool) -> tuple[float, float, int]:
    n = mat.shape[1]
    pairs = draws // 2
    if pairs < 1:
        raise DomainError("too few draws for a single antithetic pair")
    means = np.empty(pairs)
    for part in batches(pairs, 8 * (n + mat.shape[0])):    # coefficient and product rows
        shape = (part.stop - part.start, n)
        coeff = standard_normals(rng, shape) if gaussian else rademacher_signs(rng, shape)
        prod = coeff @ mat.T
        means[part] = 0.5 * (prod.max(axis=1) + (-prod).max(axis=1))
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(pairs))
    return value, stderr, 2 * pairs


def rademacher_mc(y, draws: int, seed) -> ComplexityEstimate:
    """Monte Carlo R(Y); deterministic given the seed."""
    mat = _as_matrix(y)
    if draws < MIN_DRAWS:
        raise DomainError(f"draws must be >= {MIN_DRAWS}")
    rng = as_stream(seed, "rademacher-mc")
    value, stderr, used = _antithetic_mc(mat, draws, rng, gaussian=False)
    return ComplexityEstimate(value, RADEMACHER, MONTE_CARLO, used, stderr)


def gaussian_mc(y, draws: int, seed) -> ComplexityEstimate:
    """Monte Carlo G(Y); normals come from the inversion sampler."""
    mat = _as_matrix(y)
    if draws < MIN_DRAWS:
        raise DomainError(f"draws must be >= {MIN_DRAWS}")
    rng = as_stream(seed, "gaussian-mc")
    value, stderr, used = _antithetic_mc(mat, draws, rng, gaussian=True)
    return ComplexityEstimate(value, GAUSSIAN, MONTE_CARLO, used, stderr)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Joint check of R(Y) <= sqrt(pi/2) G(Y) and G(Y) <= 3 ln(n) R(Y).

    Each slack must be >= -allowance, where the allowance combines four
    standard errors of both estimates; a violation beyond that is flagged.
    """

    rademacher: ComplexityEstimate
    gaussian: ComplexityEstimate
    slack_r_vs_g: float
    allowance_r_vs_g: float
    slack_g_vs_r: float
    allowance_g_vs_r: float

    @property
    def r_vs_g_ok(self) -> bool:
        return self.slack_r_vs_g >= -self.allowance_r_vs_g

    @property
    def g_vs_r_ok(self) -> bool:
        return self.slack_g_vs_r >= -self.allowance_g_vs_r

    @property
    def ok(self) -> bool:
        return self.r_vs_g_ok and self.g_vs_r_ok


def comparison_report(y, draws: int, seed) -> ComparisonReport:
    """Estimate R and G and check the comparison inequalities within slack."""
    mat = _as_matrix(y)
    n = mat.shape[1]
    if n < 2:
        raise DomainError("the logarithmic comparison needs n >= 2")
    if n <= EXACT_DIM_CAP:
        r = rademacher_exact(mat)
    else:
        r = rademacher_mc(mat, draws, as_stream(seed, "comparison-r"))
    g = gaussian_mc(mat, draws, as_stream(seed, "comparison-g"))
    r_err = r.stderr or 0.0
    g_err = g.stderr or 0.0
    root = math.sqrt(math.pi / 2.0)
    logn = 3.0 * math.log(n)
    slack_rg = root * g.value - r.value
    allow_rg = 4.0 * (root * g_err + r_err)
    slack_gr = logn * r.value - g.value
    allow_gr = 4.0 * (logn * r_err + g_err)
    return ComparisonReport(r, g, slack_rg, allow_rg, slack_gr, allow_gr)
