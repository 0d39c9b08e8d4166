"""Empirical-process harness for uniform deviations.

Pieces, in dependency order:

* expectation oracle: E Phi(f(X')) per class member, in closed form from
  per-coordinate moments for the built-in statistics on finite spaces, by
  exact product-law enumeration on small finite lattices, or by Monte Carlo
  with per-member standard errors (from the draws' support counts, which
  ``spaces.draw_counts`` forms straight from the uniforms, when the
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
  The tail's swing sup is exact over one point per count type where the
  statistic counts, over the lattice where it does not, and a sampled lower
  bound past the enumeration cap.

The exact and Monte Carlo oracles, the tail (the oracle's draws for one
member), the swing (at its count types, at sampled points and over the
lattice) and the probe (at its mixed points) evaluate Phi through one
function, which takes a batch of members as a slice of the class's rows and
picks counts or rows once: a coordinate-symmetric statistic on a finite
space is evaluated from support counts where a row of counts costs it no
more than a row of values, and every other one from the members' images. An
expectation or a tail frequency is a weighted sum over the slices of one
point source, with three kinds of weight: a lattice point of the exact
oracle weighs its product mass, a distinct count row of the draws (the
count path) weighs how many draws have it, and a draw (the row path) weighs
1, so one slice keeps the bits of a per-draw average. The probe counts only
its sigma-mix: the complementary mix's counts are the two points' counts
less the mix's, and each distinct mix is evaluated once.

The replications run in slices of replications, and take their Phi from
the same function. Each draws its point on its own stream; one call gives
a slice's Phi, from support counts where the statistic counts, and every
deviation, and one call averages the slice, so a value does not depend on
the slice it falls in. On a support of one or two points the average is the
exact G of each point's image from its support counts
(``complexity.gaussian_from_counts``), and the replications draw no normals;
only Phi of a statistic that does not count, Monte Carlo G (on three or more
points or on the interval) and the symmetrization check's R image the class,
one ``images`` call a slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import FunctionClass
# gaussian_mc stays importable here: perfbench traces each layer through the
# names this module imports, though the replications call gaussian_averages.
from .complexity import (EXACT, EXACT_GAUSSIAN_SUPPORT, GAUSSIAN, MONTE_CARLO, ComplexityEstimate,
                         check_draws, gaussian_averages, gaussian_bytes, gaussian_from_counts,
                         gaussian_mc, mean_stderr, rademacher_average)
from .derivative_bounds import ConstantsReport
from .errors import DomainError, OverrideRequiredError, ResourceError
from .functionals import (Statistic, batches, check_enumeration, lattice_indices, mean_statistic,
                          multiset_count, multiset_points)
from .rng import as_stream, stream
from .spaces import (FINITE, ProductLaw, SampleSpace, SampleVector, draw_batch, draw_counts, sample,
                     support_counts)

ANALYTIC = "analytic"
# The methods a caller may ask the expectation oracle for; ``auto`` picks
# analytic, exact or Monte Carlo.
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


def lattice_points(space: SampleSpace, n: int) -> int:
    """The support^n points of the lattice of ``space``, refused on the
    interval and past ENUM_CAP. Any support of two or more points passes the
    cap by n = 64, so support^n is never formed past it."""
    if space.kind != FINITE:
        raise DomainError("exact enumeration needs a finite sample space")
    check_enumeration(space.size ** min(n, 64), f"{space.size}^{n} lattice points")
    return space.size**n


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
        and stat.count_row_bytes(space.size) <= stat.eval_bytes
    )


def _count_types(counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(types, inverse): the distinct rows of ``counts``, a (rows, s) array
    of support counts that each sum to n, in increasing order, and the row
    of ``types`` each point has, so that ``types[inverse]`` equals ``counts``.

    Each row gets one int64 code by Horner's rule in base n + 1 over its
    first s - 1 counts; the last is n minus the rest. Where the next step
    could overflow int64, the running code is first replaced by its dense
    rank, which keeps the rows' order, so one path covers every s.
    """
    base = n + 1
    code = np.zeros(counts.shape[0], dtype=np.int64)
    top = 0    # the largest value the running code can take
    for j in range(counts.shape[1] - 1):
        if top * base + n > np.iinfo(np.int64).max:
            distinct, code = np.unique(code, return_inverse=True)
            top = len(distinct) - 1
        code = code * base + counts[:, j]
        top = top * base + n
    distinct, inverse = np.unique(code, return_inverse=True)
    # One point of each type; np.unique's return_index would sort stably,
    # which took 14 ms against 5 ms at 1e5 codes.
    first = np.empty(len(distinct), dtype=np.intp)
    first[inverse] = np.arange(len(inverse))
    return counts[first], inverse


def _phis_at(stat: Statistic, fc: FunctionClass, points=None, counts=None, images=None,
             members: slice = slice(None)) -> np.ndarray:
    """Phi(f_k(x)) for the class members k in the slice ``members`` (all by default) at a
    batch of points x, as a (members, rows) array, one contiguous row per member.

    The ``points`` come as ``draw_batch`` gives them: support indices on a
    finite space, values on the interval. Where the statistic counts on the
    class's space (``_counted``), Phi is evaluated from the points' support
    counts, which a caller that holds only those passes as ``counts``.
    Otherwise it is evaluated in one call from the members' images: the
    caller's (points, |class|, n) stack ``images`` where it holds one, else
    ``fc.images`` of the points; each row's value is the same either way.
    """
    if _counted(fc.space, stat):
        if counts is None:
            counts = support_counts(points, fc.space.size)
        return stat.count_form(fc.support_matrix()[members], counts)
    images = fc.images(points, members) if images is None else images[:, members]
    return np.ascontiguousarray(stat(images).T)


def _weighted_points(law: ProductLaw, stat: Statistic, method: str, replicas: int, rng):
    """The points of an expectation under ``law`` in slices (at, weights),
    ``at`` the keyword arguments of ``_phis_at(stat, fc, **at)``. ``exact``
    gives the lattice, weighted by product mass. Otherwise the points are
    ``replicas`` draws from ``rng``: where the statistic counts, their
    distinct count rows in one slice, weighted by how many draws have each;
    else the draws, weight 1 each, in slices on the one stream."""
    n = law.n
    if method == EXACT:
        points, weights = lattice_points(law.space, n), law.weight_matrix    # (n, s)
        # A point costs its index, weight and image rows of n values.
        for part in batches(points, 3 * 8 * n):
            idx = lattice_indices(part, n, law.space.size)
            yield {"points": idx}, np.multiply.reduce(weights[np.arange(n)[None, :], idx], axis=1)
    elif _counted(law.space, stat):
        types, inverse = _count_types(draw_counts(law, replicas, rng), n)
        weights = np.bincount(inverse)
        del inverse    # one row index per draw, freed before the caller sums
        yield {"counts": types}, weights
    else:
        # A draw costs its point, a member's image of it and the statistic's
        # evaluation of that image.
        for part in batches(replicas, 2 * 8 * n + stat.eval_bytes):
            rows = part.stop - part.start
            yield {"points": draw_batch(law, rows, rng)}, np.ones(rows)


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
    the cap is a resource error; ``monte-carlo`` always draws. Both sum over
    the slices of ``_weighted_points``.
    """
    if law.space != fc.space:
        raise DomainError("law and class live in different sample spaces")
    if stat.n != law.n:
        raise DomainError("statistic arity does not match the law")
    if method == AUTO:
        if law.space.kind == FINITE and stat.product_expectation is not None:
            try:
                values = stat.product_expectation(fc.support_matrix(), law.weight_matrix)
            except ResourceError:
                pass  # the closed form's own tuples pass the cap; sample below
            else:
                return ExpectationOracle(ANALYTIC, fc.labels, _finite_expectations(values))
        try:
            lattice_points(law.space, law.n)
            method = EXACT
        except (DomainError, ResourceError):
            method = MONTE_CARLO
    if method not in (EXACT, MONTE_CARLO):
        raise DomainError(f"unknown oracle method {method!r}")
    drawn = method == MONTE_CARLO
    if drawn:
        check_draws(replicas, "replicas")
    rng = as_stream(seed, "expectation-oracle") if drawn else None
    # Squares are taken about each member's mean in the first slice and
    # corrected to the overall mean at the end (Chan, Golub and LeVeque
    # 1983); with one slice the correction is exactly 0.
    sums, squares, shift = np.zeros(len(fc)), np.zeros(len(fc)), np.empty(len(fc))
    # A member's row costs its value and weighted term, which the deviations and squares
    # overwrite, and on the row path its image and the image's copy. Each member sums its
    # own row in numpy, not in a BLAS dot, so no value depends on its batch or on BLAS
    # threads, and in one slice of unit weights a mean and standard error keep the bits
    # of ``phis.mean()`` and ``mean_stderr``.
    member_row = 16 if _counted(law.space, stat) else 16 + 2 * 8 * law.n
    for i, (at, weights) in enumerate(_weighted_points(law, stat, method, replicas, rng)):
        for part in batches(len(fc), member_row * len(weights)):
            phis = _phis_at(stat, fc, **at, members=part)
            terms = np.multiply(phis, weights)
            sums[part] += terms.sum(axis=1)
            if not drawn:
                continue
            if i == 0:
                shift[part] = sums[part] / weights.sum()
            np.subtract(phis, shift[part, None], out=phis)
            np.multiply(phis, phis, out=phis)
            np.multiply(phis, weights, out=terms)
            squares[part] += terms.sum(axis=1)
    if not drawn:
        return ExpectationOracle(EXACT, fc.labels, _finite_expectations(sums))
    values = sums / replicas
    # Rounding may take a true 0 below it.
    squares = np.maximum(squares - replicas * (values - shift) ** 2, 0.0)
    stderrs = np.sqrt(squares / (replicas - 1)) / math.sqrt(replicas)
    return ExpectationOracle(MONTE_CARLO, fc.labels, _finite_expectations(values), stderrs, replicas)


def uniform_deviation(
    phis: np.ndarray, fc: FunctionClass, oracle: ExpectationOracle
) -> tuple[np.ndarray, tuple[str, ...]]:
    """sup over the class of E Phi(f(X')) - Phi(f(x)) at each point x of a
    batch, with the first maximizing label; ``phis`` is the (|class|, points)
    array ``_phis_at`` gives, one row per member."""
    if oracle.labels != fc.labels:
        raise DomainError("oracle was built for a different class")
    if phis.ndim != 2 or phis.shape[0] != len(fc):
        raise DomainError("Phi needs one row per class member")
    gaps = oracle.values[:, None] - phis
    best = np.argmax(gaps, axis=0)
    return gaps[best, np.arange(len(best))], tuple(fc.labels[k] for k in best.tolist())


# ---------------------------------------------------------------------------
# Bound assembly

def tail_term(constants: ConstantsReport, delta: float, n: int) -> float:
    return constants.lipschitz * math.sqrt(n * math.log(1.0 / delta) / 2.0)


def tail_term_variant(constants: ConstantsReport, delta: float, n: int) -> float:
    """The halved-radicand variant; reported for comparison, never used."""
    return constants.lipschitz * math.sqrt(n * math.log(1.0 / delta) / 2.0 / 2.0)


def check_c(c: float) -> None:
    """Refuse a multiplier c of the bound that is not finite and positive."""
    if not (0.0 < c < math.inf):
        raise DomainError("c must be a finite positive number")


def check_delta(delta: float) -> None:
    """Refuse a confidence level delta outside (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must lie strictly inside (0, 1)")


def check_bound_inputs(constants: ConstantsReport, c: float, delta: float,
                       allow_numeric: bool = False) -> None:
    """Refuse what ``assemble_bound`` refuses: c and delta out of range, and
    numeric-estimate constants without ``allow_numeric``. Those are lower
    bounds on the true (L, M) and would silently weaken the bound."""
    check_c(c)
    check_delta(delta)
    if constants.is_lower_bound and not allow_numeric:
        raise OverrideRequiredError(
            "numeric-estimate constants are lower bounds; pass allow_numeric=True "
            "(CLI: --override-numeric-constants) to use them anyway"
        )


def assemble_bound(
    constants: ConstantsReport,
    image_g: float,
    c: float,
    delta: float,
    n: int,
    *,
    allow_numeric: bool = False,
) -> float:
    """B = c (L + M) image_g + L sqrt(n ln(1/delta) / 2), once
    ``check_bound_inputs`` accepts its inputs."""
    check_bound_inputs(constants, c, delta, allow_numeric)
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
    image_g_method: str    # how each replication's G(F(x)) was found: exact or Monte Carlo
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
               seed: int, tag: str, average, average_bytes: int, imaged: bool, *,
               oracle_method: str = DEFAULT_ORACLE_METHOD,
               oracle_replicas: int = DEFAULT_ORACLE_REPLICAS):
    """(oracle, deviations, argmax labels, averages) over the replications.

    The replications run in slices. Replication r samples x on the stream (seed, tag +
    "/x", r); a slice stacks its points, images the class at them in one call where the
    average is ``imaged`` or Phi needs images, takes their Phi from ``_phis_at`` (from
    support counts where the statistic counts, from the images otherwise), forms its
    uniform deviations, and hands the points and images (or None) to ``average(points,
    images, part)``, one value per replication in ``part``.

    A slice holds at most BATCH_BYTES. A replication counts its point and its
    copy in the stack; its images and their gather where imaged; per member
    its Phi, their stacked copy and its gap; what evaluating Phi holds, its
    counts and a count row per member or the statistic's evaluation of an
    image row; and the ``average_bytes`` its average holds.
    """
    check_draws(replications, "replications")
    oracle = expectation_oracle(law, fc, stat, oracle_method, replicas=oracle_replicas,
                                seed=stream(seed, f"{tag}/oracle"))

    devs = np.empty(replications)
    labels = []
    averages = np.empty(replications)
    n, members = law.n, len(fc)
    if _counted(law.space, stat):
        phi_bytes = 8 * law.space.size + members * stat.count_row_bytes(law.space.size)
    else:
        imaged, phi_bytes = True, stat.eval_bytes
    image_bytes = 16 * members * n if imaged else 0
    for part in batches(replications, 16 * n + image_bytes + 24 * members + phi_bytes + average_bytes):
        points = np.stack([sample(law, stream(seed, f"{tag}/x", r)).point
                           for r in range(part.start, part.stop)])
        images = fc.images(points) if imaged else None
        devs[part], best = uniform_deviation(_phis_at(stat, fc, points, images=images), fc, oracle)
        labels.extend(best)
        averages[part] = average(points, images, part)
    return oracle, devs, tuple(labels), averages


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
    finds the Gaussian average G(F(x)) of the class image at that sample;
    the image average across replications estimates E_X G(F(X)) on the same
    draws the deviations use. On a support of at most EXACT_GAUSSIAN_SUPPORT
    points G(F(x)) is exact, from the sample's support counts
    (``gaussian_from_counts``), and ``gaussian_draws`` goes unused;
    elsewhere it averages ``gaussian_draws`` normals on the stream
    (seed, "deviation/g", r) of replication r. ``image_g_method`` says which
    ran. The bound's inputs and the draws are checked before any
    replication.
    """
    check_bound_inputs(constants, c, delta, allow_numeric_constants)
    check_draws(gaussian_draws, "gaussian_draws")
    space, members = law.space, len(fc)
    if space.kind == FINITE and space.size <= EXACT_GAUSSIAN_SUPPORT:
        g_method, support = EXACT, fc.support_matrix()

        def gaussian(points: np.ndarray, images: None, part: slice) -> np.ndarray:
            return gaussian_from_counts(support, support_counts(points, space.size))

        # Its counts, and a length and its square per hull edge: at most one
        # edge per member, or a segment's two.
        g_bytes = 8 * space.size + 16 * (members + 1)
    else:
        g_method = MONTE_CARLO

        def gaussian(points: np.ndarray, images: np.ndarray, part: slice) -> np.ndarray:
            rngs = [stream(seed, "deviation/g", r) for r in range(part.start, part.stop)]
            return gaussian_averages(images, gaussian_draws, rngs)

        g_bytes = gaussian_bytes(members, law.n)

    oracle, devs, labels, g_vals = _replicate(
        law, fc, stat, replications, seed, "deviation", gaussian, g_bytes, g_method == MONTE_CARLO,
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
        image_g_method=g_method,
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


def symmetrization_check_mean(law: ProductLaw, fc: FunctionClass, replications: int,
                              seed: int) -> SymmetrizationReport:
    """Check mean deviation <= (2/n) * mean Rademacher average + slack.

    The statistic is the arithmetic mean of the law's n coordinates, the only
    one the check is valid for, and its oracle takes the default method. Each
    replication's Rademacher average is exact when it fits the enumeration
    cap and takes SYMMETRIZATION_DRAWS Monte Carlo draws beyond.
    """
    n = law.n
    stat = mean_statistic(n)

    def rademacher(points: np.ndarray, images: np.ndarray, part: slice) -> list[float]:
        return [
            rademacher_average(image, SYMMETRIZATION_DRAWS, stream(seed, "symmetrization/r", r)).value
            for image, r in zip(images, range(part.start, part.stop))
        ]

    # Each image's Rademacher average runs alone, in its own batches.
    _, devs, _, rads = _replicate(law, fc, stat, replications, seed, "symmetrization", rademacher, 0, True)
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
    """The sup over the lattice of the swing sum: over coordinates, the sum
    of the squared worst one-coordinate change of Phi(f(.)).

    ``sup_norm`` is exact (``sup_is_exact``) when the points to enumerate
    fit under ENUM_CAP, one per count type for a statistic that counts and
    every lattice point otherwise; past the cap it is a sampled lower bound,
    flagged by ``sup_is_exact = False``.
    """

    sup_norm: float
    sup_is_exact: bool


def _swing_at_indices(stat: Statistic, single: FunctionClass, idx: np.ndarray) -> np.ndarray:
    """The swing sum of the one member of ``single`` at each row of ``idx``,
    a (batch, n) array of support indices.

    Where Phi reads only the counts, coordinate k's range depends only on
    its support value a, so each (point, present value a) pair evaluates
    its s variants once: the point's counts with one coordinate moved from a
    to each support value. Otherwise each (point, coordinate) pair evaluates
    the point with that coordinate at each support value.
    """
    batch, n = idx.shape
    size = single.space.size
    total = np.zeros(batch)
    if _counted(single.space, stat):
        counts = support_counts(idx, size)
        unit = np.eye(size, dtype=counts.dtype)
        present = np.flatnonzero(counts)    # (point, value) pairs, flat
        spread = np.zeros(counts.size)
        for part in batches(len(present), 8 * size * size):    # a pair's s variant counts
            point, value = np.divmod(present[part], size)
            variants = (counts[point] - unit[value])[:, None, :] + unit
            phi = _phis_at(stat, single, counts=variants.reshape(-1, size))[0].reshape(-1, size)
            spread[present[part]] = phi.max(axis=1) - phi.min(axis=1)
        squared = (spread**2).reshape(batch, size)
        points = np.arange(batch)
        for k in range(n):
            total += squared[points, idx[:, k]]
        return total
    for part in batches(batch, 8 * size * n):    # a point's s variants
        for k in range(n):
            variants = np.repeat(idx[part, None, :], size, axis=1)    # (points, s, n)
            variants[:, :, k] = np.arange(size)
            phi = _phis_at(stat, single, variants.reshape(-1, n))[0].reshape(-1, size)
            total[part] += (phi.max(axis=1) - phi.min(axis=1)) ** 2
    return total


def check_swing_space(space: SampleSpace) -> None:
    """Refuse swing sums off a finite space, whose support they run through."""
    if space.kind != FINITE:
        raise DomainError("swing sums need a finite sample space")


def _lattice_swing_sup(stat: Statistic, single: FunctionClass, points: int) -> float:
    """The sup of the swing sum over every one of the ``points`` lattice
    points: Phi at each, then each coordinate's spread along its axis."""
    n, size = stat.n, single.space.size
    phi = np.empty(points)
    for part in batches(points, 2 * 8 * n):    # index and image rows
        phi[part] = _phis_at(stat, single, lattice_indices(part, n, size))[0]
    # Coordinate k is the middle axis of the (size^k, size, -1) view of the
    # flat lattice; the swings add in coordinate order.
    acc = np.zeros(points)
    for k in range(n):
        lattice, total = phi.reshape(size**k, size, -1), acc.reshape(size**k, size, -1)
        swing = lattice.max(axis=1) - lattice.min(axis=1)
        total += (swing * swing)[:, None]
    return float(acc.max())


def squared_swing_sum(stat: Statistic, member, space: SampleSpace, *, seed=0) -> SwingReport:
    """The sup over the lattice of the swing sum of Phi(f(.)), on a finite space.

    The swing sum at x adds, over coordinates k, the squared range of
    Phi(f(x with coordinate k replaced)) as the replacement runs over the
    support. The sup is exact up to ENUM_CAP points to enumerate: where the
    statistic counts (``_counted``), one point per count type, C(n+s-1, s-1)
    of them (``multiset_points``), since every point of a type adds the same
    terms in coordinate order; otherwise every one of the s^n lattice points.
    Past the cap it is the largest swing sum at SWING_SAMPLES points drawn
    from ``seed``, a lower bound.
    """
    check_swing_space(space)
    n, size = stat.n, space.size
    single = FunctionClass(space, (member,))
    counted = _counted(space, stat)
    try:
        points = multiset_count(n, size) if counted else lattice_points(space, n)
    except ResourceError:
        rng = as_stream(seed, "swing-sup")
        at, exact = [rng.integers(0, size, size=(SWING_SAMPLES, n))], False
    else:
        if not counted:
            return SwingReport(_lattice_swing_sup(stat, single, points), True)
        # A type's point costs its indices and their offset copy while it is
        # counted, and its counts, spreads, squares and present pairs.
        at = (multiset_points(part, n, size) for part in batches(points, 8 * (2 * n + 4 * size)))
        exact = True
    return SwingReport(float(max(_swing_at_indices(stat, single, idx).max() for idx in at)), exact)


def threshold_grid(grid, name: str) -> np.ndarray:
    """``grid``, a vector or a ``{min, max, count}`` range of evenly spaced
    thresholds, as a float vector, refused unless non-empty, finite and
    nonnegative. A range of more than ENUM_CAP thresholds is refused before
    it is built."""
    if isinstance(grid, dict):
        count = grid["count"]
        check_enumeration(count, f"{name} thresholds")
        # A count below 1 gives the empty grid, refused below.
        grid = np.linspace(float(grid["min"]), float(grid["max"]), max(count, 0))
    t = np.asarray(grid, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise DomainError(f"{name} must be a non-empty vector")
    if not np.all((t >= 0.0) & (t < np.inf)):
        raise DomainError("thresholds must be finite and nonnegative")
    return t


def _exceedance(excess: np.ndarray, weights: np.ndarray, thresholds: np.ndarray, scale: float):
    """(empirical, bound, stderr, violations) per threshold t.

    The empirical frequency of excess > t, each point counted ``weights``
    times out of their sum, is checked against the bound exp(-t^2 / scale),
    1 at t = 0 and 0 beyond when the scale is 0; it violates the bound by
    more than four binomial standard errors. Integer weights count exactly,
    so the frequency is the one over every draw. Each point is binned once
    by the sorted thresholds it exceeds; a NaN excess exceeds none.
    """
    draws = weights.sum()
    order = np.argsort(thresholds, kind="stable")
    above = np.searchsorted(thresholds[order], excess, side="left")
    above[np.isnan(excess)] = 0
    # binned[j] weighs the points exceeding exactly the j smallest thresholds.
    binned = np.bincount(above, weights, minlength=thresholds.size + 1)
    empirical = np.empty(thresholds.size)
    empirical[order] = np.cumsum(binned[::-1])[::-1][1:] / draws
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
    t = threshold_grid(t_grid, "t_grid")
    check_draws(replicas, "replicas")
    single = FunctionClass(law.space, (member,))
    oracle = expectation_oracle(law, single, stat, oracle_method, replicas=oracle_replicas,
                                seed=stream(seed, "tail/oracle"))
    expected = float(oracle.values[0])
    if swing is None:
        swing = squared_swing_sum(stat, member, law.space, seed=stream(seed, "tail/swing"))
    slices = [(_phis_at(stat, single, **at)[0] - expected, weights) for at, weights
              in _weighted_points(law, stat, MONTE_CARLO, replicas, stream(seed, "tail/x"))]
    excess, weights = (np.concatenate(part) for part in zip(*slices))
    # exp(-2 t^2 / swing); halving the swing is exact.
    empirical, bound, stderr, violations = _exceedance(excess, weights, t, swing.sup_norm / 2.0)
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


def _swap_process(stat: Statistic, pair: FunctionClass, x: SampleVector, x_alt: SampleVector,
                  draws: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The process values (y_f, y_g) of the pair's two members over ``draws``
    swap patterns sigma from ``rng``.

    The sigma-mix of two points is itself a point, and a member's image of
    it is the sigma-mix of the member's images, since sigma is 0 or 1; so
    Phi is evaluated at the mixed points. Where Phi reads counts, the two
    mixes together hold every coordinate of x and x_alt, so the
    complementary mix's counts are the two points' counts less the mix's,
    and Phi is evaluated once per distinct count row of a slice.
    """
    n = stat.n
    a, b = x.point, x_alt.point
    counted = _counted(pair.space, stat)
    if counted:
        size = pair.space.size
        both = support_counts(np.stack([a, b]), size).sum(axis=0)
    y_f = np.empty(draws)
    y_g = np.empty(draws)
    # The slices fix how the sign draws split; a draw costs its signs, its
    # two mixed points and the pair's images of one of them.
    for part in batches(draws, 5 * 8 * n):
        swap = rng.integers(0, 2, size=(part.stop - part.start, n)) == 1
        if counted:
            types, inverse = _count_types(support_counts(np.where(swap, a, b), size), n)
            mixed = _phis_at(stat, pair, counts=types)[:, inverse]
            swapped = _phis_at(stat, pair, counts=both - types)[:, inverse]
        else:
            mixed = _phis_at(stat, pair, np.where(swap, a, b))
            swapped = _phis_at(stat, pair, np.where(swap, b, a))
        y_f[part] = mixed[0] - swapped[0]
        y_g[part] = mixed[1] - swapped[1]
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
    s = threshold_grid(s_grid, "s_grid")
    check_draws(draws, "draws")
    if x.space != x_alt.space:
        raise DomainError("the two sample vectors live in different spaces")
    n = stat.n
    if x.n != n or x_alt.n != n:
        raise DomainError("sample vectors do not match the statistic arity")

    pair = FunctionClass(x.space, (f, g))
    (fx, gx), (fx_alt, gx_alt) = pair.images(np.stack([x.point, x_alt.point]))
    distance = float(np.sqrt(((fx - gx) ** 2).sum() + ((fx_alt - gx_alt) ** 2).sum()))

    y_f, y_g = _swap_process(stat, pair, x, x_alt, draws, as_stream(seed, "process-probe"))

    scale = 8.0 * (constants.lipschitz**2 + constants.mixed**2) * distance**2
    empirical, bound, stderr, violations = _exceedance(y_f - y_g, np.ones(draws), s, scale)

    mean_f = float(y_f.mean())
    stderr_f = mean_stderr(y_f)
    zero_ok = abs(mean_f) <= 4.0 * stderr_f
    return ProcessProbe(
        f.label, g.label, x.values.copy(), x_alt.values.copy(), distance,
        s, empirical, bound, stderr, violations, mean_f, stderr_f, zero_ok, draws,
    )
