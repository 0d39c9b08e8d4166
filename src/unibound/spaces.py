"""Sample spaces, per-coordinate distributions, and product laws.

A sample space is either a finite set of labelled points with values in
[0, 1] or the unit interval itself. Coordinates of a product law are
independent but need not be identically distributed; they do share one
sample space. All draws are inversion-based on the derived uniform stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .errors import DomainError
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
                raise DomainError("weight vector must match the support size")
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
                if a <= 0.0 or b <= 0.0:
                    raise DomainError("beta parameters must be positive")
            elif self.params:
                raise DomainError("uniform family takes no parameters")

    def invert(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Map open-(0,1) uniforms to draws; returns (values, indices-or-None)."""
        if self.space.kind == FINITE:
            cum = np.cumsum(np.asarray(self.weights, dtype=np.float64))
            idx = np.searchsorted(cum, u, side="left")
            idx = np.minimum(idx, self.space.size - 1)
            return self.space.support_values[idx], idx
        if self.family == "uniform":
            return u, None
        if self.family == "bernoulli":
            return (u < self.params[0]).astype(np.float64), None
        return betaincinv(self.params[0], self.params[1], u), None


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


@dataclass(frozen=True)
class ProductLaw:
    """n independent coordinates on a shared sample space, n >= 2."""

    coordinates: tuple[CoordinateDistribution, ...]

    def __post_init__(self):
        if len(self.coordinates) < 2:
            raise DomainError("a product law needs n >= 2 coordinates")
        space = self.coordinates[0].space
        if any(c.space != space for c in self.coordinates):
            raise DomainError("all coordinates must share one sample space")

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def space(self) -> SampleSpace:
        return self.coordinates[0].space

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
    """A realised point of X^n. ``indices`` is present for finite spaces and
    indexes the support; treat the arrays as immutable."""

    space: SampleSpace
    values: np.ndarray
    indices: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def sample(law: ProductLaw, seed) -> SampleVector:
    """Draw one vector from the law; identical seeds give identical vectors.

    The one-row case of ``draw_batch``, on the stream tagged ``sample``.
    """
    values, indices = draw_batch(law, 1, as_stream(seed, "sample"))
    return SampleVector(law.space, values[0], None if indices is None else indices[0])


def draw_batch(law: ProductLaw, count: int, seed) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw ``count`` vectors at once; returns (values (count, n), indices)."""
    if count < 1:
        raise DomainError("count must be positive")
    rng = as_stream(seed, "draw-batch")
    u = open_uniforms(rng, (count, law.n))
    values = np.empty((count, law.n), dtype=np.float64)
    indices = np.empty((count, law.n), dtype=np.int64) if law.space.kind == FINITE else None
    for i, coord in enumerate(law.coordinates):
        v, idx = coord.invert(u[:, i])
        values[:, i] = v
        if indices is not None:
            indices[:, i] = idx
    return values, indices


def support_counts(indices: np.ndarray, size: int) -> np.ndarray:
    """(rows, size) support counts of a batch of draws: entry (r, j) is how
    many coordinates of row r of ``indices`` take support point j."""
    rows = indices.shape[0]
    flat = indices + size * np.arange(rows)[:, None]
    return np.bincount(flat.ravel(), minlength=rows * size).reshape(rows, size)


def vector_from_values(space: SampleSpace, values) -> SampleVector:
    """Wrap raw coordinate values, resolving support indices on finite spaces.

    A value that matches no support point (tolerance 1e-12) is outside the
    sample space and raises DomainError.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1:
        raise DomainError("a sample vector is one-dimensional")
    if space.kind == INTERVAL:
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise DomainError("coordinates must lie in [0, 1]")
        return SampleVector(space, vals, None)
    support = space.support_values
    idx = np.empty(vals.shape[0], dtype=np.int64)
    for i, v in enumerate(vals):
        hits = np.nonzero(np.abs(support - v) <= 1e-12)[0]
        if hits.size == 0:
            raise DomainError(f"coordinate {i} value {v!r} is not a support point")
        idx[i] = hits[0]
    return SampleVector(space, support[idx], idx)
