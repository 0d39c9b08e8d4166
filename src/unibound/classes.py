"""Finite function classes and their image sets.

Members map the sample space into [0, 1], either as lookup tables over a
finite support or as parametric forms on values (threshold ramps and clipped
affine maps). The image of a class at a sample vector x is the finite set
{ (f(x_1), ..., f(x_n)) : f in class }, one row per member with duplicates
retained; complexity averages act on that set. Members are imaged only
through their class, by ``images`` at a batch of points (``image_matrix`` at
one sample vector's point), from one table of one row per member: its values
at the support points on a finite space, its ramp (a, b, theta, w) on the
interval. A batch of members is a slice of the class's rows, never a class
of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .functionals import batches, check_count, check_enumeration
from .rng import as_stream
from .spaces import FINITE, SampleSpace, SampleVector

_INTERVAL_GRID = 1000


@dataclass(frozen=True, eq=False)
class LookupMember:
    """Table of one value in [0, 1] per support point of a finite space: a
    tuple, or a read-only row of a drawn table."""

    label: str
    table: tuple[float, ...] | np.ndarray

    def on_support(self, space: SampleSpace) -> np.ndarray:
        if len(self.table) != space.size:
            raise DomainError(f"lookup member {self.label!r} does not match the support")
        return np.asarray(self.table, dtype=np.float64)


def _ramp(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """clip(((a x + b) - theta) / w, 0, 1) per row (a, b, theta, w) on the last axis of ``rows``,
    against ``values``: a threshold (1, 0, theta, w) or an affine map (a, b, 0, 1), bit for bit."""
    a, b, theta, w = np.moveaxis(rows, -1, 0)
    out = a * values
    out += b
    out -= theta
    out /= w
    return np.clip(out, 0.0, 1.0, out=out)


class _RampMember:
    """A member imaged by ``_ramp`` from its ``row``."""

    def apply(self, values: np.ndarray) -> np.ndarray:
        return _ramp(np.asarray(self.row, dtype=np.float64), values)

    def on_support(self, space: SampleSpace) -> np.ndarray:
        return self.apply(space.support_values)


@dataclass(frozen=True, eq=False)
class ThresholdMember(_RampMember):
    """x -> clamp((x - theta) / width, 0, 1); a ramp starting at theta."""

    label: str
    theta: float
    width: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise DomainError("threshold width must be positive")

    @property
    def row(self) -> tuple[float, float, float, float]:
        return (1.0, 0.0, self.theta, self.width)


@dataclass(frozen=True, eq=False)
class AffineClippedMember(_RampMember):
    """x -> clamp(slope * x + intercept, 0, 1)."""

    label: str
    slope: float
    intercept: float

    @property
    def row(self) -> tuple[float, float, float, float]:
        return (self.slope, self.intercept, 0.0, 1.0)


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


def _check_unit(labels, values: np.ndarray, where: str) -> None:
    """Refuse member values outside [0, 1], NaN included: row k of
    ``values`` holds member labels[k]'s, and the first row that leaves
    names its member."""
    inside = np.all((values >= 0.0) & (values <= 1.0), axis=-1)
    if not np.all(inside):
        raise DomainError(f"member {labels[int(np.argmin(inside))]!r} leaves [0, 1]{where}")


def constant_member(label: str, value: float) -> AffineClippedMember:
    """The member equal to ``value`` everywhere; a value outside [0, 1] is
    refused, not clipped."""
    _check_unit((label,), np.array([float(value)]), "")
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
    # One read-only row per member: its support values, or on the interval its ramp row.
    _table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", _member_labels(self.members))
        if self.space.kind == FINITE:
            table = np.stack([m.on_support(self.space) for m in self.members])
            grid, where = np.arange(self.space.size)[None], " on the support"
        elif any(isinstance(m, LookupMember) for m in self.members):
            raise DomainError("lookup members exist only on finite spaces")
        else:
            table = np.array([m.row for m in self.members], dtype=np.float64)
            grid, where = np.linspace(0.0, 1.0, _INTERVAL_GRID + 1)[None], " on the grid"
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)
        # Range check on the whole support or the interval's grid; a member holds its image and masks.
        for part in batches(len(self), 2 * 8 * grid.size):
            _check_unit(self.labels[part], self.images(grid, part)[0], where)

    def __len__(self) -> int:
        return len(self.members)

    def image_matrix(self, x: SampleVector) -> np.ndarray:
        """The image F(x): a (|class|, n) matrix, row k member k's image of x,
        in the order of ``labels``; the one-point case of ``images``."""
        if x.space != self.space:
            raise DomainError("sample vector lives in a different sample space")
        return self.images(x.point[None])[0]

    def images(self, points: np.ndarray, members: slice = slice(None)) -> np.ndarray:
        """The images F(x) of the members in the slice ``members`` (all by default) at a
        (count, n) batch of points as ``draw_batch`` gives them: one C-contiguous (count,
        members, n) array, gathered on a finite space, broadcast on the interval."""
        if self.space.kind == FINITE:
            by_member = np.take(self._table[members], points, axis=1)
        else:
            by_member = _ramp(self._table[members, None, None], points)
        # C-contiguous rows sum in the order of one image row; an F-ordered gather would not.
        return np.ascontiguousarray(by_member.transpose(1, 0, 2))

    def support_matrix(self) -> np.ndarray:
        """(|class|, support size) member values per support point, read-only."""
        if self.space.kind != FINITE:
            raise DomainError("support matrix exists only for finite spaces")
        return self._table


def _member_labels(members) -> tuple[str, ...]:
    """The members' labels, which must be at least one and unique."""
    if len(members) == 0:
        raise DomainError("a function class needs at least one member")
    labels = tuple(m.label for m in members)
    if len(set(labels)) != len(labels):
        raise DomainError("member labels must be unique")
    return labels


def random_lookup_class(space: SampleSpace, count: int, seed) -> FunctionClass:
    """``count`` lookup tables with independent uniform [0, 1] entries,
    labelled f00, f01, ... zero-padded to the width of the largest index, at
    least two digits. More than ENUM_CAP table entries are refused before
    any is drawn."""
    if space.kind != FINITE:
        raise DomainError("random lookup classes need a finite space")
    check_enumeration(count * space.size, f"count x {space.size} table entries")
    check_count(count, "count")
    rng = as_stream(seed, "random-lookup-class")
    tables = rng.random((count, space.size))
    tables.flags.writeable = False
    width = max(2, len(str(count - 1)))
    members = tuple(LookupMember(f"f{j:0{width}d}", row) for j, row in enumerate(tables))
    return FunctionClass(space, members)
