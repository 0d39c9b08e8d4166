"""Finite function classes and their image sets.

Members map the sample space into [0, 1], either as lookup tables over a
finite support or as parametric forms on values (threshold ramps and clipped
affine maps). The image of a class at a sample vector x is the finite set
{ (f(x_1), ..., f(x_n)) : f in class }, one row per member with duplicates
retained; complexity averages act on that set. Members are imaged only
through their class: ``images`` at a batch of points (``image_matrix`` at
one sample vector's point), ``member_image`` for one member over a batch of
draws. A batch of members is a slice of the class's rows, never a class of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .rng import as_stream
from .spaces import FINITE, SampleSpace, SampleVector

_INTERVAL_GRID = 1000


@dataclass(frozen=True, eq=False)
class LookupMember:
    """Table of one value in [0, 1] per support point of a finite space."""

    label: str
    table: tuple[float, ...]

    def on_support(self, space: SampleSpace) -> np.ndarray:
        if len(self.table) != space.size:
            raise DomainError(f"lookup member {self.label!r} does not match the support")
        return np.asarray(self.table, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class ThresholdMember:
    """x -> clamp((x - theta) / width, 0, 1); a ramp starting at theta."""

    label: str
    theta: float
    width: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise DomainError("threshold width must be positive")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.clip((values - self.theta) / self.width, 0.0, 1.0)

    def on_support(self, space: SampleSpace) -> np.ndarray:
        return self.apply(space.support_values)


@dataclass(frozen=True, eq=False)
class AffineClippedMember:
    """x -> clamp(slope * x + intercept, 0, 1)."""

    label: str
    slope: float
    intercept: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        return np.clip(self.slope * values + self.intercept, 0.0, 1.0)

    def on_support(self, space: SampleSpace) -> np.ndarray:
        return self.apply(space.support_values)


def lookup_member(label: str, space: SampleSpace, mapping: dict) -> LookupMember:
    """Build a lookup table from a label -> value mapping covering the support."""
    if space.kind != FINITE:
        raise DomainError("lookup members exist only on finite spaces")
    missing = [lab for lab in space.labels if lab not in mapping]
    if missing:
        raise DomainError(f"lookup table for {label!r} misses support labels {missing}")
    extra = [lab for lab in mapping if lab not in space.labels]
    if extra:
        raise DomainError(f"lookup table for {label!r} names unknown labels {extra}")
    return LookupMember(label, tuple(float(mapping[lab]) for lab in space.labels))


def constant_member(label: str, value: float) -> AffineClippedMember:
    return AffineClippedMember(label, 0.0, float(value))


def identity_member(label: str = "identity") -> AffineClippedMember:
    return AffineClippedMember(label, 1.0, 0.0)


@dataclass(frozen=True, eq=False)
class FunctionClass:
    """A finite, explicitly enumerable class of [0, 1]-valued functions."""

    space: SampleSpace
    members: tuple
    # Member labels, in member order.
    labels: tuple[str, ...] = field(init=False, repr=False)
    # (|class|, support size) member values on a finite support, read-only.
    _support: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", _member_labels(self.members))
        # Range check: exhaustive on finite supports, on a grid for the interval.
        if self.space.kind == FINITE:
            rows = []
            for m in self.members:
                rows.append(m.on_support(self.space))
                if np.any(rows[-1] < 0.0) or np.any(rows[-1] > 1.0):
                    raise DomainError(f"member {m.label!r} leaves [0, 1] on the support")
            support = np.stack(rows)
            support.flags.writeable = False
            object.__setattr__(self, "_support", support)
        else:
            grid = np.linspace(0.0, 1.0, _INTERVAL_GRID + 1)
            for m in self.members:
                if isinstance(m, LookupMember):
                    raise DomainError("lookup members exist only on finite spaces")
                out = m.apply(grid)
                if np.any(out < 0.0) or np.any(out > 1.0):
                    raise DomainError(f"member {m.label!r} leaves [0, 1] on the grid")

    def __len__(self) -> int:
        return len(self.members)

    def image_matrix(self, x: SampleVector) -> np.ndarray:
        """The image F(x): a (|class|, n) matrix, row k member k's image of x,
        in the order of ``labels``; the one-point case of ``images``."""
        if x.space != self.space:
            raise DomainError("sample vector lives in a different sample space")
        return self.images(x.point[None])[0]

    def images(self, points: np.ndarray) -> np.ndarray:
        """The images F(x) at a (count, n) batch of points, as ``draw_batch``
        gives them: a C-contiguous (count, |class|, n) array, one
        ``image_matrix`` per point."""
        count, n = points.shape
        if self._support is not None:
            # Rows stay C-contiguous, so row sums add in the same order as on
            # per-member images; a [:, idx] gather is F-ordered and does not.
            return np.ascontiguousarray(np.take(self._support, points, axis=1).transpose(1, 0, 2))
        out = np.empty((count, len(self), n))
        for k, m in enumerate(self.members):
            out[:, k] = m.apply(points)
        return out

    def member_image(self, k: int, points: np.ndarray) -> np.ndarray:
        """Member k's image of a batch of points of any shape, as
        ``draw_batch`` gives them: support indices on a finite space, values
        on the interval."""
        if self._support is not None:
            return np.take(self._support[k], points)
        return self.members[k].apply(points)

    def support_matrix(self) -> np.ndarray:
        """(|class|, support size) member values per support point, read-only."""
        if self._support is None:
            raise DomainError("support matrix exists only for finite spaces")
        return self._support


def _member_labels(members) -> tuple[str, ...]:
    """The members' labels, which must be at least one and unique."""
    if len(members) == 0:
        raise DomainError("a function class needs at least one member")
    labels = tuple(m.label for m in members)
    if len(set(labels)) != len(labels):
        raise DomainError("member labels must be unique")
    return labels


def random_lookup_labels(count: int) -> list[str]:
    """Member labels of a random lookup class: f00, f01, ... zero-padded to
    the width of the largest index, at least two digits."""
    width = max(2, len(str(count - 1)))
    return [f"f{j:0{width}d}" for j in range(count)]


def random_lookup_class(space: SampleSpace, count: int, seed) -> FunctionClass:
    """``count`` lookup tables with independent uniform [0, 1] entries."""
    if space.kind != FINITE:
        raise DomainError("random lookup classes need a finite space")
    if count < 1:
        raise DomainError("count must be positive")
    rng = as_stream(seed, "random-lookup-class")
    tables = rng.random((count, space.size))
    members = tuple(
        LookupMember(label, tuple(float(v) for v in row))
        for label, row in zip(random_lookup_labels(count), tables)
    )
    return FunctionClass(space, members)
