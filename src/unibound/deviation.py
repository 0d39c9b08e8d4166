"""Empirical-process harness for uniform deviations.

Pieces, in dependency order:

* expectation oracle: E Phi(f(X')) per class member, in closed form from
  per-coordinate moments for the built-in statistics on finite spaces, by
  exact product-law enumeration on small finite lattices, or by Monte Carlo
  with per-member standard errors (from the draws' support counts when the
  statistic is coordinate-symmetric and the space finite).
* uniform deviation: sup over the class of (expected minus realised)
  statistic at a sample point, with the first maximizing label.
* bound assembly: c (L + M) Eg + L sqrt(n ln(1/delta) / 2), where Eg
  estimates the expected Gaussian average of the class image. Two
  circulating forms of the tail term differ by sqrt(2) in the radicand;
  the larger one (the one the bounded difference inequality yields for a
  per-coordinate range of L) is used, and the halved-radicand variant is
  reported alongside for comparison.
* replicated deviation experiment: coverage of the bound at level delta and
  the empirical constant c_hat = mean deviation / ((L + M) Eg).
* bounded-difference tail and swapped-coordinate process probes: direct
  Monte Carlo checks of the sub-Gaussian tail bounds the theory rests on.

The exact and Monte Carlo oracles, the tail (the oracle's draw loop for
one member), the swing (at a point, at sampled points and over the
lattice) and the probe (at its mixed points) evaluate Phi through one
function, which picks counts or rows once: a coordinate-symmetric
statistic on a finite space is evaluated from support counts where a row
of counts costs it no more than a row of values, and every other one from
the members' images. Only the replications image rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import FunctionClass
from .complexity import (EXACT, GAUSSIAN, MIN_DRAWS, MONTE_CARLO, ComplexityEstimate, gaussian_mc,
                         mean_stderr, rademacher_average)
from .derivative_bounds import NUMERIC_ESTIMATE, ConstantsReport
from .errors import DomainError, OverrideRequiredError, ResourceError
from .functionals import ENUM_CAP, Statistic, batches, mean_statistic
from .rng import as_stream, stream
from .spaces import (
    FINITE,
    ProductLaw,
    SampleSpace,
    SampleVector,
    draw_batch,
    sample,
    support_counts,
)

ANALYTIC = "analytic"
EXACT_ENUMERATION = "exact-enumeration"
# The methods a caller may ask the expectation oracle for; ``auto`` picks
# analytic, exact enumeration or Monte Carlo.
AUTO = "auto"
ORACLE_METHODS = (AUTO, EXACT, MONTE_CARLO)
DEFAULT_ORACLE_METHOD = AUTO

# Monte Carlo oracle draws and per-replication Gaussian draws when the caller
# names none; past the enumeration cap, the lattice points sampled for a
# swing sup and the per-replication draws of the symmetrization check's R.
DEFAULT_ORACLE_REPLICAS = 100_000
DEFAULT_GAUSSIAN_DRAWS = 2000
SWING_SAMPLES = 4096
SYMMETRIZATION_DRAWS = 20_000


# ---------------------------------------------------------------------------
# Expectation oracle

@dataclass(frozen=True, eq=False)
class ExpectationOracle:
    """Cached E Phi(f(X')) for every member of a class."""

    method: str
    labels: tuple[str, ...]
    values: np.ndarray
    stderrs: np.ndarray | None = None
    replicas: int | None = None


def _lattice_indices(part: slice, n: int, size: int) -> np.ndarray:
    # Mixed-radix decomposition of the flat lattice codes in ``part`` into
    # per-coordinate support indices, most significant coordinate first.
    rem = np.arange(part.start, part.stop, dtype=np.int64)
    idx = np.empty((rem.shape[0], n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        idx[:, pos] = rem % size
        rem //= size
    return idx


def _finite_expectations(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DomainError("the statistic produced non-finite expectations")
    return values


def _counted(space: SampleSpace, stat: Statistic) -> bool:
    """Whether Phi is evaluated from support counts on ``space``: the space
    is finite and a row of counts costs the count form no more than a row of
    values costs ``evaluate``, so the counts never outweigh the points. A
    U-statistic's multisets then number at most its subsets, which
    ``u_statistic`` keeps under ENUM_CAP, so its count form never refuses."""
    return (
        space.kind == FINITE and stat.count_form is not None
        and stat.count_row_bytes(space.size) <= stat.row_bytes
    )


def _phis_at(stat: Statistic, fc: FunctionClass, values, indices, *, counts=None) -> np.ndarray:
    """Phi(f_k(x)) for every member k of the class at a batch of points x,
    as a (rows, K) array whose member columns are contiguous.

    The points come as their ``values`` and support ``indices``, as
    ``draw_batch`` gives them; on a finite space members read only the
    indices, so ``values`` may be None there. Where the statistic counts on
    the class's space (``_counted``), Phi is evaluated from the points'
    support counts, which a caller that holds only those passes as
    ``counts``; otherwise from each member's image of the points.
    """
    if _counted(fc.space, stat):
        if counts is None:
            counts = support_counts(indices, fc.space.size)
        return stat.count_form(fc.support_matrix(), counts)
    return np.stack([stat(fc.member_image(k, values, indices)) for k in range(len(fc))]).T


def _phis_of_draws(law: ProductLaw, fc: FunctionClass, stat: Statistic, replicas: int, rng):
    """Phi(f_k(X)) over ``replicas`` draws from ``rng``, member by member.

    Where the statistic counts, only the draws' support counts are held,
    ``replicas`` x s of them: the draws come in slices from the one stream,
    so they match one ``draw_batch`` of them all. Otherwise the draws are
    held whole and each member images them.
    """
    values = indices = counts = None
    if _counted(law.space, stat):
        counts = np.empty((replicas, law.space.size), dtype=np.int64)
        # A draw costs its integers, uniforms, values and indices, n of each.
        for part in batches(replicas, 4 * 8 * law.n):
            _, sliced = draw_batch(law, part.stop - part.start, rng)
            counts[part] = support_counts(sliced, law.space.size)
    else:
        values, indices = draw_batch(law, replicas, rng)
    for part in batches(len(fc), 8 * replicas):    # a member's column of values
        members = fc.subclass(fc.labels[part])
        yield from _phis_at(stat, members, values, indices, counts=counts).T


def expectation_oracle(
    law: ProductLaw,
    fc: FunctionClass,
    stat: Statistic,
    method: str = DEFAULT_ORACLE_METHOD,
    *,
    replicas: int = DEFAULT_ORACLE_REPLICAS,
    seed=0,
) -> ExpectationOracle:
    """Build the per-member expectation cache.

    ``auto`` on a finite space takes the statistic's closed-form product-law
    expectation when it carries one (method ``analytic``, no standard
    errors). Otherwise it enumerates exactly when the space is finite and
    support^n fits under ENUM_CAP, and averages over ``replicas`` fresh
    draws beyond it. ``exact`` always enumerates, and requesting it beyond
    the cap is a resource error; ``monte-carlo`` always draws. On a finite
    space a statistic with a count form is evaluated from the draws'
    support counts rather than from their images.
    """
    if law.space != fc.space:
        raise DomainError("law and class live in different sample spaces")
    if stat.n != law.n:
        raise DomainError("statistic arity does not match the law")
    n = law.n
    finite = law.space.kind == FINITE
    points = law.space.size**n if finite else None
    if method == EXACT:
        method = EXACT_ENUMERATION
    if method == AUTO:
        if finite and stat.product_expectation is not None:
            try:
                values = stat.product_expectation(fc.support_matrix(), law.weight_matrix)
            except ResourceError:
                pass  # the closed form's own tuples pass the cap; sample below
            else:
                return ExpectationOracle(ANALYTIC, fc.labels, _finite_expectations(values))
        method = EXACT_ENUMERATION if finite and points <= ENUM_CAP else MONTE_CARLO
    if method == EXACT_ENUMERATION:
        if not finite:
            raise DomainError("exact enumeration needs a finite sample space")
        if points > ENUM_CAP:
            raise ResourceError(f"support^n = {points} exceeds the enumeration cap {ENUM_CAP}")
        weights = law.weight_matrix            # (n, s)
        values = np.zeros(len(fc))
        size = law.space.size
        # A point costs its index, weight and image rows of n values.
        for part in batches(points, 3 * 8 * n):
            idx = _lattice_indices(part, n, size)
            w = weights[np.arange(n)[None, :], idx]
            w = np.multiply.reduce(w, axis=1)
            # One dot per member column keeps the row path's summation order.
            for members in batches(len(fc), 8 * len(idx)):    # a member's column of Phi
                phis = _phis_at(stat, fc.subclass(fc.labels[members]), None, idx)
                for k, column in enumerate(phis.T, members.start):
                    values[k] += float(w @ column)
        return ExpectationOracle(EXACT_ENUMERATION, fc.labels, _finite_expectations(values))
    if method != MONTE_CARLO:
        raise DomainError(f"unknown oracle method {method!r}")
    if replicas < MIN_DRAWS:
        raise DomainError(f"Monte Carlo oracle needs replicas >= {MIN_DRAWS}")
    values = np.empty(len(fc))
    stderrs = np.empty(len(fc))
    draws = _phis_of_draws(law, fc, stat, replicas, as_stream(seed, "expectation-oracle"))
    for k, phis in enumerate(draws):
        values[k] = float(phis.mean())
        stderrs[k] = mean_stderr(phis)
    return ExpectationOracle(MONTE_CARLO, fc.labels, _finite_expectations(values), stderrs, replicas)


def uniform_deviation(
    image: np.ndarray, fc: FunctionClass, stat: Statistic, oracle: ExpectationOracle
) -> tuple[float, str]:
    """sup over the class of E Phi(f(X')) - Phi(f(x)), with the first
    maximizing label; ``image`` is the class image ``fc.image_matrix(x)``."""
    if oracle.labels != fc.labels:
        raise DomainError("oracle was built for a different class")
    if len(image) != len(fc):
        raise DomainError("the image needs one row per class member")
    gaps = oracle.values - stat(image)
    best = int(np.argmax(gaps))
    return float(gaps[best]), fc.labels[best]


# ---------------------------------------------------------------------------
# Bound assembly

def tail_term(constants: ConstantsReport, delta: float, n: int) -> float:
    return constants.lipschitz * math.sqrt(n * math.log(1.0 / delta) / 2.0)


def tail_term_variant(constants: ConstantsReport, delta: float, n: int) -> float:
    """The halved-radicand variant; reported for comparison, never used."""
    return constants.lipschitz * math.sqrt(n * math.log(1.0 / delta) / 2.0 / 2.0)


def assemble_bound(
    constants: ConstantsReport,
    image_g: float,
    c: float,
    delta: float,
    n: int,
    *,
    allow_numeric: bool = False,
) -> float:
    """B = c (L + M) image_g + L sqrt(n ln(1/delta) / 2).

    Numeric-estimate constants are refused without ``allow_numeric``: they
    are lower bounds on the true (L, M) and would silently weaken the bound.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie strictly between 0 and 1")
    if c <= 0.0:
        raise DomainError("c must be positive")
    if constants.method == NUMERIC_ESTIMATE and not allow_numeric:
        raise OverrideRequiredError(
            "numeric-estimate constants are lower bounds; pass allow_numeric=True "
            "(CLI: --override-numeric-constants) to use them anyway"
        )
    return c * (constants.lipschitz + constants.mixed) * image_g + tail_term(constants, delta, n)


# ---------------------------------------------------------------------------
# Replicated deviation experiment

@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Replicated uniform deviations against the assembled bound."""

    dev_samples: np.ndarray
    argmax_labels: tuple[str, ...]
    dev_mean: float
    dev_stderr: float
    image_g_samples: np.ndarray
    image_g: ComplexityEstimate
    constants: ConstantsReport
    c_used: float
    delta: float
    n: int
    bound: float
    tail: float
    tail_variant: float
    violation_rate: float
    violation_allowance: float
    coverage_ok: bool
    c_hat: float | None
    c_hat_rel_stderr: float | None
    oracle: ExpectationOracle


def _replicate(law: ProductLaw, fc: FunctionClass, stat: Statistic, replications: int,
               seed: int, tag: str, average, *, oracle_method: str, oracle_replicas: int):
    """(oracle, deviations, argmax labels, averages) over the replications.

    Replication r samples x on the stream (seed, tag + "/x", r), images the
    class at x once, and hands that image to the uniform deviation and to
    ``average(image, r)``.
    """
    if replications < MIN_DRAWS:
        raise DomainError(f"replications must be >= {MIN_DRAWS}")
    oracle = expectation_oracle(
        law, fc, stat, oracle_method,
        replicas=oracle_replicas, seed=stream(seed, f"{tag}/oracle"),
    )

    rows = []
    for r in range(replications):
        image = fc.image_matrix(sample(law, stream(seed, f"{tag}/x", r)))
        rows.append((*uniform_deviation(image, fc, stat, oracle), average(image, r)))
    devs, labels, averages = zip(*rows)
    return oracle, np.asarray(devs), labels, np.asarray(averages)


def deviation_experiment(
    law: ProductLaw,
    fc: FunctionClass,
    stat: Statistic,
    constants: ConstantsReport,
    c: float,
    delta: float,
    replications: int,
    seed: int,
    *,
    gaussian_draws: int = DEFAULT_GAUSSIAN_DRAWS,
    oracle_method: str = DEFAULT_ORACLE_METHOD,
    oracle_replicas: int = DEFAULT_ORACLE_REPLICAS,
    allow_numeric_constants: bool = False,
) -> DeviationReport:
    """Replicate the uniform deviation and check bound coverage.

    Each replication draws one sample, records the uniform deviation, and
    estimates the Gaussian average of the class image at that sample; the
    image average across replications estimates E_X G(F(X)) on the same
    draws the deviations use. Replication r derives its streams from
    (seed, tag, r).
    """

    def gaussian(image: np.ndarray, r: int) -> float:
        return gaussian_mc(image, gaussian_draws, stream(seed, "deviation/g", r)).value

    oracle, devs, labels, g_vals = _replicate(
        law, fc, stat, replications, seed, "deviation", gaussian,
        oracle_method=oracle_method, oracle_replicas=oracle_replicas,
    )
    dev_mean = float(devs.mean())
    dev_stderr = mean_stderr(devs)
    g_mean = float(g_vals.mean())
    g_stderr = mean_stderr(g_vals)
    image_g = ComplexityEstimate(g_mean, GAUSSIAN, MONTE_CARLO, replications, g_stderr)

    bound = assemble_bound(
        constants, g_mean, c, delta, law.n, allow_numeric=allow_numeric_constants
    )
    violation_rate = float((devs > bound).mean())
    allowance = 4.0 * math.sqrt(delta * (1.0 - delta) / replications)

    spread = (constants.lipschitz + constants.mixed) * g_mean
    if spread > 0.0:
        c_hat = dev_mean / spread
    elif dev_mean == 0.0:
        c_hat = 0.0
    else:
        c_hat = None
    if c_hat is not None and dev_mean > 0.0 and g_mean > 0.0:
        rel = math.sqrt((dev_stderr / dev_mean) ** 2 + (g_stderr / g_mean) ** 2)
    else:
        rel = None

    return DeviationReport(
        dev_samples=devs,
        argmax_labels=labels,
        dev_mean=dev_mean,
        dev_stderr=dev_stderr,
        image_g_samples=g_vals,
        image_g=image_g,
        constants=constants,
        c_used=c,
        delta=delta,
        n=law.n,
        bound=bound,
        tail=tail_term(constants, delta, law.n),
        tail_variant=tail_term_variant(constants, delta, law.n),
        violation_rate=violation_rate,
        violation_allowance=allowance,
        coverage_ok=violation_rate <= delta + allowance,
        c_hat=c_hat,
        c_hat_rel_stderr=rel,
        oracle=oracle,
    )


# ---------------------------------------------------------------------------
# Symmetrization check for the arithmetic mean

@dataclass(frozen=True, eq=False)
class SymmetrizationReport:
    dev_mean: float
    dev_stderr: float
    rad_mean: float
    rad_stderr: float
    bound_side: float
    allowance: float
    holds: bool


def symmetrization_check_mean(
    law: ProductLaw,
    fc: FunctionClass,
    n: int,
    replications: int,
    seed: int,
    *,
    oracle_method: str = DEFAULT_ORACLE_METHOD,
    oracle_replicas: int = DEFAULT_ORACLE_REPLICAS,
) -> SymmetrizationReport:
    """Check mean deviation <= (2/n) * mean Rademacher average + slack.

    The statistic is the arithmetic mean, the only one the check is valid
    for. Each replication's Rademacher average is exact when it fits the
    enumeration cap and takes SYMMETRIZATION_DRAWS Monte Carlo draws beyond.
    """
    if n != law.n:
        raise DomainError("n does not match the law")
    stat = mean_statistic(n)

    def rademacher(image: np.ndarray, r: int) -> float:
        rng = stream(seed, "symmetrization/r", r)
        return rademacher_average(image, SYMMETRIZATION_DRAWS, rng).value

    _, devs, _, rads = _replicate(
        law, fc, stat, replications, seed, "symmetrization", rademacher,
        oracle_method=oracle_method, oracle_replicas=oracle_replicas,
    )
    dev_mean = float(devs.mean())
    dev_stderr = mean_stderr(devs)
    rad_mean = float(rads.mean())
    rad_stderr = mean_stderr(rads)
    bound_side = (2.0 / n) * rad_mean
    allowance = 4.0 * (dev_stderr + (2.0 / n) * rad_stderr)
    return SymmetrizationReport(
        dev_mean, dev_stderr, rad_mean, rad_stderr,
        bound_side, allowance, dev_mean <= bound_side + allowance,
    )


# ---------------------------------------------------------------------------
# Bounded-difference machinery

@dataclass(frozen=True, eq=False)
class SwingReport:
    """Sum over coordinates of the squared worst one-coordinate change.

    ``sup_norm`` is exact when the full lattice fit under the cap, otherwise
    a sampled lower bound (flagged by ``sup_is_exact = False``).
    """

    at_point: float | None
    sup_norm: float
    sup_is_exact: bool


def _swing_at_indices(stat: Statistic, single: FunctionClass, idx: np.ndarray) -> np.ndarray:
    """The swing sum of the one member of ``single`` at each row of ``idx``,
    a (batch, n) array of support indices."""
    batch, n = idx.shape
    size = single.space.size
    total = np.zeros(batch)
    if _counted(single.space, stat):
        # Phi reads only the counts, so coordinate k's range depends only on
        # its support value a: the s x s variants of each point's counts, a
        # replaced by j, give every range at once. Where a is absent from
        # the point a present value is replaced instead, so every variant
        # keeps n coordinates; that range is never read.
        counts = support_counts(idx, size)
        unit = np.eye(size, dtype=counts.dtype)
        spread = np.empty((batch, size))
        for part in batches(batch, 8 * size**3):    # a point's s^2 variant counts
            c = counts[part]
            drop = np.where(c > 0, np.arange(size), c.argmax(axis=1)[:, None])
            variants = (c[:, None, :] - unit[drop])[:, :, None, :] + unit
            phi = _phis_at(stat, single, None, None, counts=variants.reshape(-1, size))
            phi = phi.reshape(-1, size, size)
            spread[part] = phi.max(axis=2) - phi.min(axis=2)
        squared = spread**2
        points = np.arange(batch)
        for k in range(n):
            total += squared[points, idx[:, k]]
        return total
    for part in batches(batch, 8 * size * n):    # a point's s variants
        for k in range(n):
            variants = np.repeat(idx[part, None, :], size, axis=1)    # (points, s, n)
            variants[:, :, k] = np.arange(size)
            phi = _phis_at(stat, single, None, variants.reshape(-1, n)).reshape(-1, size)
            total[part] += (phi.max(axis=1) - phi.min(axis=1)) ** 2
    return total


def squared_swing_sum(
    stat: Statistic,
    member,
    space: SampleSpace,
    x: SampleVector | None = None,
    *,
    seed=0,
) -> SwingReport:
    """Per-coordinate squared swings of Phi(f(.)) on a finite space.

    The swing at x sums, over coordinates k, the squared range of
    Phi(f(x with coordinate k replaced)) as the replacement runs over the
    support. The sup over all lattice points is enumerated exactly when
    support^n <= ENUM_CAP and otherwise maximized over SWING_SAMPLES points.
    """
    if space.kind != FINITE:
        raise DomainError("swing sums need a finite sample space")
    n = stat.n
    size = space.size
    single = FunctionClass(space, (member,))
    at_point = None
    if x is not None:
        if x.space != space:
            raise DomainError("sample vector lives in a different sample space")
        at_point = float(_swing_at_indices(stat, single, x.indices[None, :])[0])

    points = size**n
    if points <= ENUM_CAP:
        phi_flat = np.empty(points)
        for part in batches(points, 2 * 8 * n):    # index and image rows
            phi_flat[part] = _phis_at(stat, single, None, _lattice_indices(part, n, size))[:, 0]
        lattice = phi_flat.reshape((size,) * n)
        acc = np.zeros((size,) * n)
        for k in range(n):
            swing = lattice.max(axis=k) - lattice.min(axis=k)
            acc += np.expand_dims(swing * swing, axis=k)
        return SwingReport(at_point, float(acc.max()), True)

    rng = as_stream(seed, "swing-sup")
    idx = rng.integers(0, size, size=(SWING_SAMPLES, n))
    return SwingReport(at_point, float(_swing_at_indices(stat, single, idx).max()), False)


def _threshold_grid(grid, name: str) -> np.ndarray:
    """``grid`` as a float vector, refused unless non-empty and nonnegative."""
    t = np.asarray(grid, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise DomainError(f"{name} must be a non-empty vector")
    if np.any(t < 0.0):
        raise DomainError("thresholds must be nonnegative")
    return t


def _exceedance(excess: np.ndarray, thresholds: np.ndarray, scale: float, draws: int):
    """(empirical, bound, stderr, violations) per threshold t.

    The empirical frequency of excess > t is checked against the bound
    exp(-t^2 / scale), 1 at t = 0 and 0 beyond when the scale is 0; it
    violates the bound by more than four binomial standard errors.
    """
    empirical = np.asarray([(excess > t).mean() for t in thresholds])
    if scale > 0.0:
        bound = np.exp(-(thresholds * thresholds) / scale)
    else:
        bound = np.where(thresholds > 0.0, 0.0, 1.0)
    stderr = np.sqrt(empirical * (1.0 - empirical) / draws)
    return empirical, bound, stderr, empirical > bound + 4.0 * stderr


@dataclass(frozen=True, eq=False)
class TailReport:
    """Empirical tail of Phi(f(X)) - E Phi(f(X')) against exp(-2 t^2 / swing)."""

    t_grid: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    stderr: np.ndarray
    violations: np.ndarray
    expected_value: float
    swing_norm: float
    swing_is_exact: bool
    replicas: int
    oracle_method: str

    @property
    def ok(self) -> bool:
        return not bool(self.violations.any())


def bounded_difference_tail(
    law: ProductLaw,
    stat: Statistic,
    member,
    t_grid,
    replicas: int,
    seed: int,
    *,
    oracle_method: str = DEFAULT_ORACLE_METHOD,
    oracle_replicas: int = DEFAULT_ORACLE_REPLICAS,
    swing: SwingReport | None = None,
) -> TailReport:
    """Simulate the one-function tail and compare to the sub-Gaussian bound.

    The empirical exceedance frequency at each t must stay below
    exp(-2 t^2 / swing_norm) plus four binomial standard errors.
    """
    t = _threshold_grid(t_grid, "t_grid")
    if replicas < MIN_DRAWS:
        raise DomainError(f"replicas must be >= {MIN_DRAWS}")
    single = FunctionClass(law.space, (member,))
    oracle = expectation_oracle(
        law, single, stat, oracle_method,
        replicas=oracle_replicas, seed=stream(seed, "tail/oracle"),
    )
    expected = float(oracle.values[0])
    if swing is None:
        swing = squared_swing_sum(stat, member, law.space, seed=stream(seed, "tail/swing"))
    excess = next(_phis_of_draws(law, single, stat, replicas, stream(seed, "tail/x"))) - expected
    # exp(-2 t^2 / swing); halving the swing is exact.
    empirical, bound, stderr, violations = _exceedance(excess, t, swing.sup_norm / 2.0, replicas)
    return TailReport(
        t, empirical, bound, stderr, violations,
        expected, swing.sup_norm, swing.sup_is_exact, replicas, oracle.method,
    )


# ---------------------------------------------------------------------------
# Swapped-coordinate process probe

@dataclass(frozen=True, eq=False)
class ProcessProbe:
    """Tail of the difference of two swapped-coordinate processes.

    For a uniformly random swap pattern sigma in {0,1}^n, the process value
    of a member f is Phi at the sigma-mix of (x, x_alt) images minus Phi at
    the complementary mix; it has mean zero by symmetry. The difference of
    the f and g processes must satisfy the sub-Gaussian tail
    exp(-s^2 / (8 (L^2 + M^2) d^2)) in the image pseudo-distance d.
    """

    f_label: str
    g_label: str
    x_values: np.ndarray
    x_alt_values: np.ndarray
    distance: float
    s_grid: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    stderr: np.ndarray
    violations: np.ndarray
    process_mean: float
    process_stderr: float
    zero_mean_ok: bool
    draws: int

    @property
    def ok(self) -> bool:
        return self.zero_mean_ok and not bool(self.violations.any())


def _mix(swap: np.ndarray, x: SampleVector, x_alt: SampleVector):
    """The points that take x's coordinates where ``swap`` is set and
    x_alt's elsewhere, as (values, indices): the indices alone on a finite
    space, where members read only those."""
    if x.indices is None:
        return np.where(swap, x.values, x_alt.values), None
    return None, np.where(swap, x.indices, x_alt.indices)


def _swap_process(stat: Statistic, pair: FunctionClass, x: SampleVector, x_alt: SampleVector,
                  draws: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The process values (y_f, y_g) of the pair's two members over ``draws``
    swap patterns sigma from ``rng``.

    The sigma-mix of two points is itself a point, and a member's image of
    it is the sigma-mix of the member's images, since sigma is 0 or 1; so
    Phi is evaluated at the mixed points.
    """
    n = stat.n
    y_f = np.empty(draws)
    y_g = np.empty(draws)
    # The slices fix how the sign draws split; a draw costs its signs, its
    # two mixed points and a member's images of them.
    for part in batches(draws, 5 * 8 * n):
        swap = rng.integers(0, 2, size=(part.stop - part.start, n)) == 1
        mixed = _phis_at(stat, pair, *_mix(swap, x, x_alt))
        swapped = _phis_at(stat, pair, *_mix(swap, x_alt, x))
        y_f[part] = mixed[:, 0] - swapped[:, 0]
        y_g[part] = mixed[:, 1] - swapped[:, 1]
    return y_f, y_g


def swap_process_probe(
    x: SampleVector,
    x_alt: SampleVector,
    f,
    g,
    stat: Statistic,
    constants: ConstantsReport,
    s_grid,
    draws: int,
    seed: int,
) -> ProcessProbe:
    """Probe the two-member swapped process tail at fixed (x, x_alt)."""
    if f.label == g.label:
        raise DomainError("the probe needs two distinct members")
    s = _threshold_grid(s_grid, "s_grid")
    if draws < MIN_DRAWS:
        raise DomainError(f"draws must be >= {MIN_DRAWS}")
    if x.space != x_alt.space:
        raise DomainError("the two sample vectors live in different spaces")
    n = stat.n
    if x.n != n or x_alt.n != n:
        raise DomainError("sample vectors do not match the statistic arity")

    pair = FunctionClass(x.space, (f, g))
    fx, gx = pair.image_matrix(x)
    fx_alt, gx_alt = pair.image_matrix(x_alt)
    distance = float(np.sqrt(((fx - gx) ** 2).sum() + ((fx_alt - gx_alt) ** 2).sum()))

    y_f, y_g = _swap_process(stat, pair, x, x_alt, draws, as_stream(seed, "process-probe"))

    scale = 8.0 * (constants.lipschitz**2 + constants.mixed**2) * distance**2
    empirical, bound, stderr, violations = _exceedance(y_f - y_g, s, scale, draws)

    mean_f = float(y_f.mean())
    stderr_f = mean_stderr(y_f)
    zero_ok = abs(mean_f) <= 4.0 * stderr_f
    return ProcessProbe(
        f.label, g.label, x.values.copy(), x_alt.values.copy(), distance,
        s, empirical, bound, stderr, violations, mean_f, stderr_f, zero_ok, draws,
    )
