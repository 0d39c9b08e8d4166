"""Sample spaces, per-coordinate distributions, and product laws.

A sample space is either a finite set of labelled points with values in
[0, 1] or the unit interval itself. Coordinates of a product law are
independent but need not be identically distributed; they do share one
sample space. All draws are inversion-based on the derived uniform stream.
A finite space's draws are their support indices, and its support counts
come straight from the uniforms (``draw_counts``), bit for bit those of
``draw_batch``'s draws, without forming the indices. A ``SampleVector``
holds one draw as that same array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .functionals import batches, check_count
from .rng import as_stream, open_uniforms

FINITE = "finite"
INTERVAL = "interval"

WEIGHT_TOL = 1e-12
# The parametric families of interval coordinates, each with the names of
# its parameters in order.
FAMILIES = {"uniform": (), "bernoulli": ("p",), "beta": ("a", "b")}


@dataclass(frozen=True)
class SampleSpace:
    """Either a finite support (labels + values in [0, 1]) or [0, 1] itself."""

    kind: str
    labels: tuple[str, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in (FINITE, INTERVAL):
            raise DomainError(f"unknown sample space kind {self.kind!r}")
        if self.kind == FINITE:
            if len(self.labels) == 0:
                raise DomainError("finite sample space needs at least one support point")
            if len(self.labels) != len(self.values):
                raise DomainError("labels and values must align")
            if len(set(self.labels)) != len(self.labels):
                raise DomainError("support labels must be unique")
            if any(not (0.0 <= v <= 1.0) for v in self.values):
                raise DomainError("support values must lie in [0, 1]")
        else:
            if self.labels or self.values:
                raise DomainError("interval space carries no support points")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def support_values(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def finite_space(points) -> SampleSpace:
    """Finite space from (label, value) pairs or a mapping label -> value."""
    if isinstance(points, dict):
        points = list(points.items())
    labels = tuple(str(lab) for lab, _ in points)
    values = tuple(float(v) for _, v in points)
    return SampleSpace(FINITE, labels, values)


def interval_space() -> SampleSpace:
    return SampleSpace(INTERVAL)


@dataclass(frozen=True)
class CoordinateDistribution:
    """One coordinate's law: a weight vector on a finite support, or a named
    parametric family (uniform, bernoulli, beta) on the interval."""

    space: SampleSpace
    weights: tuple[float, ...] | None = None
    family: str | None = None
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.space.kind == FINITE:
            if self.family is not None:
                raise DomainError("finite coordinates are specified by weights, not a family")
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (self.space.size,):
                raise DomainError(f"weight vector must match the support size {self.space.size}")
            if not np.all(np.isfinite(w)):
                raise DomainError("weights must be finite")
            if np.any(w < 0.0):
                raise DomainError("weights must be nonnegative")
            if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
                raise DomainError(f"weights must sum to 1 within {WEIGHT_TOL}")
        else:
            if self.weights is not None:
                raise DomainError("interval coordinates are specified by a family, not weights")
            if self.family not in FAMILIES:
                raise DomainError(f"unknown family {self.family!r}; choose from {tuple(FAMILIES)}")
            if self.family == "bernoulli":
                (p,) = self.params
                if not (0.0 <= p <= 1.0):
                    raise DomainError("bernoulli parameter must lie in [0, 1]")
            elif self.family == "beta":
                a, b = self.params
                if not (0.0 < a < np.inf and 0.0 < b < np.inf):
                    raise DomainError("beta parameters must be finite and positive")
            elif self.params:
                raise DomainError("uniform family takes no parameters")

    @functools.cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.weights, dtype=np.float64))

    def invert(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in (0, 1], of any shape, to draws elementwise: their
        support indices on a finite space, their values on the interval."""
        if self.space.kind == FINITE:
            idx = np.searchsorted(self._cumulative, u, side="left")
            return np.minimum(idx, self.space.size - 1)
        if self.family == "uniform":
            return u
        if self.family == "bernoulli":
            return (u < self.params[0]).astype(np.float64)
        from scipy.special import betaincinv  # only the beta family pays its import

        return betaincinv(self.params[0], self.params[1], u)


def finite_weights(space: SampleSpace, weights) -> CoordinateDistribution:
    return CoordinateDistribution(space, weights=tuple(float(w) for w in weights))


def uniform_on(space: SampleSpace) -> CoordinateDistribution:
    if space.kind == FINITE:
        return finite_weights(space, [1.0 / space.size] * space.size)
    return CoordinateDistribution(space, family="uniform")


def bernoulli(p: float) -> CoordinateDistribution:
    return CoordinateDistribution(interval_space(), family="bernoulli", params=(float(p),))


def beta_family(a: float, b: float) -> CoordinateDistribution:
    return CoordinateDistribution(interval_space(), family="beta", params=(float(a), float(b)))


def check_coordinates(n: int) -> None:
    """Refuse a product law of fewer than two coordinates, or of more than
    an array can hold."""
    if n < 2:
        raise DomainError("a product law needs n >= 2 coordinates")
    check_count(n, "n")


@dataclass(frozen=True)
class ProductLaw:
    """n independent coordinates on a shared sample space, n >= 2."""

    coordinates: tuple[CoordinateDistribution, ...]

    def __post_init__(self):
        check_coordinates(len(self.coordinates))
        space = self.coordinates[0].space
        if any(c.space != space for c in self.coordinates):
            raise DomainError("all coordinates must share one sample space")

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def space(self) -> SampleSpace:
        return self.coordinates[0].space

    @functools.cached_property
    def _groups(self) -> tuple[tuple[CoordinateDistribution, np.ndarray | slice], ...]:
        """Each distinct coordinate law with the coordinates that follow it,
        as a slice when they are all of them (an iid law)."""
        groups: dict[CoordinateDistribution, list[int]] = {}
        for i, coord in enumerate(self.coordinates):
            groups.setdefault(coord, []).append(i)
        if len(groups) == 1:
            return ((self.coordinates[0], slice(None)),)
        return tuple((coord, np.asarray(cols)) for coord, cols in groups.items())

    def invert(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map a (rows, n) array of uniforms in (0, 1] to draws, into ``out``
        when given: support indices on a finite space, values on the
        interval. Each distinct coordinate law inverts its coordinates'
        uniforms in one call; inversion is elementwise, so the draws are
        those of inverting row by row or coordinate by coordinate."""
        if out is None:
            out = np.empty(u.shape, dtype=np.int64 if self.space.kind == FINITE else np.float64)
        for coord, cols in self._groups:
            out[:, cols] = coord.invert(u[:, cols])
        return out

    @property
    def weight_matrix(self) -> np.ndarray:
        """(n, support size) weight rows; finite spaces only."""
        if self.space.kind != FINITE:
            raise DomainError("weight matrix exists only for finite spaces")
        return np.asarray([c.weights for c in self.coordinates], dtype=np.float64)


def iid_law(coordinate: CoordinateDistribution, n: int) -> ProductLaw:
    return ProductLaw(tuple([coordinate] * int(n)))


def point_mass_law(values) -> ProductLaw:
    """Degenerate law: coordinate i is a point mass at values[i].

    Realised on the finite space whose support is the distinct values.
    """
    vals = [float(v) for v in values]
    distinct = sorted(set(vals))
    space = finite_space([(f"p{j}", v) for j, v in enumerate(distinct)])
    coords = []
    for v in vals:
        w = [1.0 if u == v else 0.0 for u in distinct]
        coords.append(finite_weights(space, w))
    return ProductLaw(tuple(coords))


@dataclass(frozen=True, eq=False)
class SampleVector:
    """A realised point of X^n as the one array ``draw_batch`` gives for it:
    support indices on a finite space, values on the interval. Treat the
    array as immutable."""

    space: SampleSpace
    point: np.ndarray

    @property
    def n(self) -> int:
        return int(self.point.shape[0])

    @property
    def values(self) -> np.ndarray:
        """The coordinate values; on a finite space, the support values at the indices."""
        if self.space.kind == FINITE:
            return self.space.support_values[self.point]
        return self.point


def sample(law: ProductLaw, seed) -> SampleVector:
    """Draw one vector from the law; identical seeds give identical vectors.

    The one-row case of ``draw_batch``, on the stream tagged ``sample``.
    """
    return SampleVector(law.space, draw_batch(law, 1, as_stream(seed, "sample"))[0])


def draw_batch(law: ProductLaw, count: int, seed) -> np.ndarray:
    """Draw ``count`` vectors at once as one (count, n) array: support
    indices on a finite space, values on the interval.

    The uniforms come in slices of rows, each from one call on the one
    stream, so they are those of one call, and ``ProductLaw.invert`` maps a
    slice's uniforms to its draws.
    """
    check_count(count, "count")
    rng = as_stream(seed, "draw-batch")
    drawn = np.empty((count, law.n), dtype=np.int64 if law.space.kind == FINITE else np.float64)
    # A row's inversion holds its uniforms, one law's gather of them, their
    # search positions and the draws.
    for part in batches(count, 4 * 8 * law.n):
        law.invert(open_uniforms(rng, (part.stop - part.start, law.n)), out=drawn[part])
    return drawn


def support_counts(indices: np.ndarray, size: int) -> np.ndarray:
    """(rows, size) support counts of a batch of draws: entry (r, j) is how
    many coordinates of row r of ``indices`` take support point j."""
    rows = indices.shape[0]
    flat = indices + size * np.arange(rows)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * size).reshape(rows, size)


# The largest support that ``draw_counts`` counts by comparisons, which cost
# O(s) per coordinate against the search's O(log s). On one 4 MiB slice at
# n = 16-256 (2 vCPUs, numpy 2.4.6), comparisons took 0.15-0.75 of the time
# of search plus bincount at s <= 32, 0.8-1.4 at s = 64 and 1.2-3.0 at
# s >= 96.
COMPARE_MAX_SIZE = 32


def draw_counts(law: ProductLaw, count: int, seed) -> np.ndarray:
    """The (count, s) support counts of ``count`` draws from a finite law,
    equal to ``support_counts(draw_batch(law, count, seed), s)``.

    The draws come in slices of rows, each from one call for its uniforms
    on the one stream, so they are those of one ``draw_batch``. Up to
    COMPARE_MAX_SIZE support points no index is formed: a uniform u lands
    past support point j exactly when u > c_j, the j-th cumulative weight,
    for j < s - 1, which is what the search with its clamp to the last
    point counts. So a slice's counts are differences of how many of its
    coordinates lie above each c_j.
    """
    if law.space.kind != FINITE:
        raise DomainError("support counts need a finite sample space")
    check_count(count, "count")
    rng = as_stream(seed, "draw-batch")
    size = law.space.size
    counts = np.empty((count, size), dtype=np.int64)
    # A draw holds its integers, uniforms, their transposed copy and their
    # mask, n of each, or draw_batch's uniforms, positions and indices.
    for part in batches(count, 4 * 8 * law.n):
        rows = part.stop - part.start
        if size > COMPARE_MAX_SIZE:
            counts[part] = support_counts(draw_batch(law, rows, rng), size)
            continue
        # One row per coordinate, so each sum runs along contiguous rows.
        ut = np.ascontiguousarray(open_uniforms(rng, (rows, law.n)).T)
        # above[j] counts a draw's coordinates past support point j - 1.
        above = np.zeros((size + 1, rows), dtype=np.int64)
        above[0] = law.n
        for coord, cols in law._groups:
            group = ut[cols]
            mask = np.empty(group.shape, dtype=bool)
            for j, c in enumerate(coord._cumulative[:-1]):
                above[j + 1] += np.sum(np.greater(group, c, out=mask), axis=0)
        counts[part] = (above[:-1] - above[1:]).T
    return counts


def vector_from_values(space: SampleSpace, values) -> SampleVector:
    """Wrap raw coordinate values, resolved to support indices on finite spaces.

    A value that matches no support point (tolerance 1e-12) is outside the
    sample space and raises DomainError.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1:
        raise DomainError("a sample vector is one-dimensional")
    if space.kind == INTERVAL:
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise DomainError("coordinates must lie in [0, 1]")
        return SampleVector(space, vals)
    support = space.support_values
    idx = np.empty(vals.shape[0], dtype=np.int64)
    for i, v in enumerate(vals):
        hits = np.nonzero(np.abs(support - v) <= 1e-12)[0]
        if hits.size == 0:
            raise DomainError(f"coordinate {i} value {v!r} is not a support point")
        idx[i] = hits[0]
    return SampleVector(space, idx)
