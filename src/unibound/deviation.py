"""Empirical-process harness for uniform deviations.

Pieces, in dependency order:

* expectation oracle: E Phi(f(X')) per class member, in closed form from
  per-coordinate moments for the built-in statistics on finite spaces, by
  exact product-law enumeration on small finite lattices, or by Monte Carlo
  with per-member standard errors.
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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classes import FunctionClass
from .complexity import EXACT_DIM_CAP, MIN_DRAWS, ComplexityEstimate
from .complexity import gaussian_mc, rademacher_exact, rademacher_mc
from .derivative_bounds import NUMERIC_ESTIMATE, ConstantsReport
from .errors import DomainError, OverrideRequiredError, ResourceError
from .functionals import ENUM_CAP, Statistic, batches, mean_statistic
from .rng import as_stream, stream
from .spaces import FINITE, ProductLaw, SampleSpace, SampleVector, draw_batch, sample

ANALYTIC = "analytic"
EXACT_ENUMERATION = "exact-enumeration"
MONTE_CARLO = "monte-carlo"
# The methods a caller may ask the expectation oracle for; ``auto`` picks
# one of the three above.
AUTO = "auto"
EXACT = "exact"
ORACLE_METHODS = (AUTO, EXACT, MONTE_CARLO)
DEFAULT_ORACLE_METHOD = AUTO

# Monte Carlo oracle draws and per-replication Gaussian draws when the caller
# names none.
DEFAULT_ORACLE_REPLICAS = 100_000
DEFAULT_GAUSSIAN_DRAWS = 2000


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


def expectation_oracle(
    law: ProductLaw,
    fc: FunctionClass,
    stat: Statistic,
    method: str = DEFAULT_ORACLE_METHOD,
    *,
    replicas: int = DEFAULT_ORACLE_REPLICAS,
    enum_cap: int = ENUM_CAP,
    seed=0,
) -> ExpectationOracle:
    """Build the per-member expectation cache.

    ``auto`` on a finite space takes the statistic's closed-form product-law
    expectation when it carries one (method ``analytic``, no standard
    errors). Otherwise it enumerates exactly when the space is finite and
    support^n fits under ``enum_cap``, and averages over ``replicas`` fresh
    draws beyond it. ``exact`` always enumerates, and requesting it beyond
    the cap is a resource error; ``monte-carlo`` always draws.
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
        method = EXACT_ENUMERATION if finite and points <= enum_cap else MONTE_CARLO
    if method == EXACT_ENUMERATION:
        if not finite:
            raise DomainError("exact enumeration needs a finite sample space")
        if points > enum_cap:
            raise ResourceError(f"support^n = {points} exceeds the enumeration cap {enum_cap}")
        support = fc.support_matrix()          # (K, s)
        weights = law.weight_matrix            # (n, s)
        values = np.zeros(len(fc))
        size = law.space.size
        # A point costs its index, weight and image rows of n values.
        for part in batches(points, 3 * 8 * n):
            idx = _lattice_indices(part, n, size)
            w = weights[np.arange(n)[None, :], idx]
            w = np.multiply.reduce(w, axis=1)
            for k in range(len(fc)):
                values[k] += float(w @ stat(support[k][idx]))
        return ExpectationOracle(EXACT_ENUMERATION, fc.labels, _finite_expectations(values))
    if method != MONTE_CARLO:
        raise DomainError(f"unknown oracle method {method!r}")
    if replicas < MIN_DRAWS:
        raise DomainError(f"Monte Carlo oracle needs replicas >= {MIN_DRAWS}")
    vals, idx = draw_batch(law, replicas, as_stream(seed, "expectation-oracle"))
    values = np.empty(len(fc))
    stderrs = np.empty(len(fc))
    for k, member in enumerate(fc.members):
        image = member.apply(vals, idx)
        phis = stat(image)
        values[k] = float(phis.mean())
        stderrs[k] = float(phis.std(ddof=1) / math.sqrt(replicas))
    return ExpectationOracle(MONTE_CARLO, fc.labels, _finite_expectations(values), stderrs, replicas)


def uniform_deviation(
    x: SampleVector, fc: FunctionClass, stat: Statistic, oracle: ExpectationOracle
) -> tuple[float, str]:
    """sup over the class of E Phi(f(X')) - Phi(f(x)), with the first
    maximizing label."""
    if oracle.labels != fc.labels:
        raise DomainError("oracle was built for a different class")
    image = fc.image_matrix(x)
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


def _map_replications(worker, replications: int, workers: int):
    if workers <= 1:
        return [worker(r) for r in range(replications)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(replications)))


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
    oracle: ExpectationOracle | None = None,
    oracle_method: str = DEFAULT_ORACLE_METHOD,
    oracle_replicas: int = DEFAULT_ORACLE_REPLICAS,
    allow_numeric_constants: bool = False,
    workers: int = 1,
) -> DeviationReport:
    """Replicate the uniform deviation and check bound coverage.

    Each replication draws one sample, records the uniform deviation, and
    estimates the Gaussian average of the class image at that sample; the
    image average across replications estimates E_X G(F(X)) on the same
    draws the deviations use. Replication r derives its streams from
    (seed, tag, r), so results are identical for any worker count.
    """
    if replications < MIN_DRAWS:
        raise DomainError(f"replications must be >= {MIN_DRAWS}")
    if oracle is None:
        oracle = expectation_oracle(
            law, fc, stat, oracle_method,
            replicas=oracle_replicas, seed=stream(seed, "deviation/oracle"),
        )

    def one(r: int):
        x = sample(law, stream(seed, "deviation/x", r))
        dev, label = uniform_deviation(x, fc, stat, oracle)
        g = gaussian_mc(fc.image_matrix(x), gaussian_draws, stream(seed, "deviation/g", r))
        return dev, label, g.value

    rows = _map_replications(one, replications, workers)
    devs = np.asarray([row[0] for row in rows])
    labels = tuple(row[1] for row in rows)
    g_vals = np.asarray([row[2] for row in rows])

    dev_mean = float(devs.mean())
    dev_stderr = float(devs.std(ddof=1) / math.sqrt(replications))
    g_mean = float(g_vals.mean())
    g_stderr = float(g_vals.std(ddof=1) / math.sqrt(replications))
    image_g = ComplexityEstimate(g_mean, "gaussian", MONTE_CARLO, replications, g_stderr)

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
    stat: Statistic | None = None,
    rademacher_draws: int = 20_000,
    oracle_method: str = DEFAULT_ORACLE_METHOD,
    oracle_replicas: int = DEFAULT_ORACLE_REPLICAS,
    workers: int = 1,
) -> SymmetrizationReport:
    """Check mean deviation <= (2/n) * mean Rademacher average + slack.

    Valid for the arithmetic mean only; the statistic is built internally
    and a caller-supplied one is rejected unless it is that mean.
    """
    if n != law.n:
        raise DomainError("n does not match the law")
    if stat is not None and stat.name != "mean":
        raise DomainError("the symmetrization check applies to the arithmetic mean only")
    stat = mean_statistic(n)
    if replications < MIN_DRAWS:
        raise DomainError(f"replications must be >= {MIN_DRAWS}")
    oracle = expectation_oracle(
        law, fc, stat, oracle_method,
        replicas=oracle_replicas, seed=stream(seed, "symmetrization/oracle"),
    )

    def one(r: int):
        x = sample(law, stream(seed, "symmetrization/x", r))
        dev, _ = uniform_deviation(x, fc, stat, oracle)
        image = fc.image_matrix(x)
        if n <= EXACT_DIM_CAP:
            rad = rademacher_exact(image).value
        else:
            rad = rademacher_mc(image, rademacher_draws, stream(seed, "symmetrization/r", r)).value
        return dev, rad

    rows = _map_replications(one, replications, workers)
    devs = np.asarray([row[0] for row in rows])
    rads = np.asarray([row[1] for row in rows])
    dev_mean = float(devs.mean())
    dev_stderr = float(devs.std(ddof=1) / math.sqrt(replications))
    rad_mean = float(rads.mean())
    rad_stderr = float(rads.std(ddof=1) / math.sqrt(replications))
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


def _swing_at_indices(
    stat: Statistic, member, space: SampleSpace, idx: np.ndarray
) -> np.ndarray:
    # idx: (batch, n) support indices. Returns the swing sum per row.
    batch, n = idx.shape
    size = space.size
    fv = member.on_support(space)
    base_img = fv[idx]
    total = np.zeros(batch)
    for k in range(n):
        variants = np.repeat(base_img[:, None, :], size, axis=1)  # (batch, s, n)
        variants[:, :, k] = fv[None, :]
        phi = stat(variants.reshape(batch * size, n)).reshape(batch, size)
        total += (phi.max(axis=1) - phi.min(axis=1)) ** 2
    return total


def squared_swing_sum(
    stat: Statistic,
    member,
    space: SampleSpace,
    x: SampleVector | None = None,
    *,
    enum_cap: int = ENUM_CAP,
    sup_samples: int = 4096,
    seed=0,
) -> SwingReport:
    """Per-coordinate squared swings of Phi(f(.)) on a finite space.

    The swing at x sums, over coordinates k, the squared range of
    Phi(f(x with coordinate k replaced)) as the replacement runs over the
    support. The sup over all lattice points is enumerated exactly when
    support^n <= enum_cap and otherwise maximized over sampled points.
    """
    if space.kind != FINITE:
        raise DomainError("swing sums need a finite sample space")
    n = stat.n
    size = space.size
    at_point = None
    if x is not None:
        if x.space != space:
            raise DomainError("sample vector lives in a different sample space")
        at_point = float(_swing_at_indices(stat, member, space, x.indices[None, :])[0])

    points = size**n
    if points <= enum_cap:
        fv = member.on_support(space)
        phi_flat = np.empty(points)
        for part in batches(points, 2 * 8 * n):    # index and image rows
            phi_flat[part] = stat(fv[_lattice_indices(part, n, size)])
        lattice = phi_flat.reshape((size,) * n)
        acc = np.zeros((size,) * n)
        for k in range(n):
            swing = lattice.max(axis=k) - lattice.min(axis=k)
            acc += np.expand_dims(swing * swing, axis=k)
        return SwingReport(at_point, float(acc.max()), True)

    rng = as_stream(seed, "swing-sup")
    idx = rng.integers(0, size, size=(sup_samples, n))
    sup = max(
        float(_swing_at_indices(stat, member, space, idx[part]).max())
        for part in batches(sup_samples, 8 * size * n)    # a point's s variants
    )
    return SwingReport(at_point, sup, False)


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
    oracle: ExpectationOracle | None = None,
    oracle_method: str = DEFAULT_ORACLE_METHOD,
    oracle_replicas: int = DEFAULT_ORACLE_REPLICAS,
    swing: SwingReport | None = None,
    swing_samples: int = 4096,
) -> TailReport:
    """Simulate the one-function tail and compare to the sub-Gaussian bound.

    The empirical exceedance frequency at each t must stay below
    exp(-2 t^2 / swing_norm) plus four binomial standard errors. A supplied
    ``oracle`` must have been built for ``member`` alone.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("t_grid must be a non-empty vector")
    if np.any(t < 0.0):
        raise DomainError("thresholds must be nonnegative")
    if replicas < MIN_DRAWS:
        raise DomainError(f"replicas must be >= {MIN_DRAWS}")
    single = FunctionClass(law.space, (member,))
    if oracle is None:
        oracle = expectation_oracle(
            law, single, stat, oracle_method,
            replicas=oracle_replicas, seed=stream(seed, "tail/oracle"),
        )
    elif oracle.labels != single.labels:
        raise DomainError("oracle was built for a different class than the tail member")
    expected = float(oracle.values[0])
    if swing is None:
        swing = squared_swing_sum(
            stat, member, law.space, sup_samples=swing_samples, seed=stream(seed, "tail/swing")
        )
    vals, idx = draw_batch(law, replicas, stream(seed, "tail/x"))
    excess = stat(member.apply(vals, idx)) - expected
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
    s = np.asarray(s_grid, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("s_grid must be a non-empty vector")
    if np.any(s < 0.0):
        raise DomainError("thresholds must be nonnegative")
    if draws < MIN_DRAWS:
        raise DomainError(f"draws must be >= {MIN_DRAWS}")
    if x.space != x_alt.space:
        raise DomainError("the two sample vectors live in different spaces")
    n = stat.n
    if x.n != n or x_alt.n != n:
        raise DomainError("sample vectors do not match the statistic arity")

    fx = f.apply(x.values, x.indices)
    fx_alt = f.apply(x_alt.values, x_alt.indices)
    gx = g.apply(x.values, x.indices)
    gx_alt = g.apply(x_alt.values, x_alt.indices)
    distance = float(np.sqrt(((fx - gx) ** 2).sum() + ((fx_alt - gx_alt) ** 2).sum()))

    rng = as_stream(seed, "process-probe")
    y_f = np.empty(draws)
    y_g = np.empty(draws)
    for part in batches(draws, 5 * 8 * n):    # sign and four mixed rows
        sigma = rng.integers(0, 2, size=(part.stop - part.start, n)).astype(np.float64)
        mix_f = sigma * fx + (1.0 - sigma) * fx_alt
        mix_f_swapped = sigma * fx_alt + (1.0 - sigma) * fx
        mix_g = sigma * gx + (1.0 - sigma) * gx_alt
        mix_g_swapped = sigma * gx_alt + (1.0 - sigma) * gx
        y_f[part] = stat(mix_f) - stat(mix_f_swapped)
        y_g[part] = stat(mix_g) - stat(mix_g_swapped)

    scale = 8.0 * (constants.lipschitz**2 + constants.mixed**2) * distance**2
    empirical, bound, stderr, violations = _exceedance(y_f - y_g, s, scale, draws)

    mean_f = float(y_f.mean())
    stderr_f = float(y_f.std(ddof=1) / math.sqrt(draws))
    zero_ok = abs(mean_f) <= 4.0 * stderr_f
    return ProcessProbe(
        f.label, g.label, x.values.copy(), x_alt.values.copy(), distance,
        s, empirical, bound, stderr, violations, mean_f, stderr_f, zero_ok, draws,
    )
