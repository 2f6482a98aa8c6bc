"""Discrete time base: rational stamp grids and partitions.

A grid fixes stamps t_0 < ... < t_m.  Cell k covers the span between stamps k
and k+1, so a grid with m+1 stamps has m cells.  A prefix is named by its
length, the int k: the first k cells, the discrete counterpart of an initial
time interval.  A partition picks stamp indices (always containing both ends);
it is also the chain of prefixes ending at its stamps past the origin,
shortest first, along which the chain functions project.

Stamps are exact rationals, never binary floats, so grids such as
(0, 1, 4/3, 3/2, 2) compare exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError


class TimeGrid(NamedTuple("TimeGrid", [("stamps", tuple[Fraction, ...])])):
    """Strictly increasing rational stamps; at least two."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, stamps: tuple[Fraction, ...]) -> TimeGrid:
        if len(stamps) < 2:
            raise ValidationError("a grid needs at least two stamps")
        for a, b in zip(stamps, stamps[1:]):
            if a >= b:
                raise ValidationError(f"grid stamps must be strictly increasing ({a} before {b})")
        return tuple.__new__(cls, (stamps,))

    @property
    def cells(self) -> int:
        return len(self.stamps) - 1

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.stamps, self.stamps[1:]))

    def check_prefix(self, n: int) -> None:
        if n < 1:
            raise ValidationError(f"prefix length must be positive, got {n}")
        if n > self.cells:
            raise ValidationError(f"prefix of {n} cells does not fit a grid of {self.cells} cells")

    def check_partition(self, delta: Partition) -> None:
        if delta.indices[-1] != self.cells:
            raise ValidationError(f"partition must end at the final stamp index {self.cells}, got {delta.indices[-1]}")


def grid(*stamps) -> TimeGrid:
    """Build a grid, coercing stamps to exact rationals."""
    return TimeGrid(tuple(Fraction(s) for s in stamps))


class Partition(NamedTuple("Partition", [("indices", tuple[int, ...])])):
    """Strictly increasing grid-stamp indices from 0; `TimeGrid.check_partition` requires the final stamp last."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, indices: tuple[int, ...]) -> Partition:
        if len(indices) < 2:
            raise ValidationError("a partition needs at least two stamp indices")
        if indices[0] != 0:
            raise ValidationError("a partition must start at stamp index 0")
        for a, b in zip(indices, indices[1:]):
            if a >= b:
                raise ValidationError("partition indices must be strictly increasing")
        return tuple.__new__(cls, (indices,))

    @property
    def steps(self) -> int:
        return len(self.indices) - 1


def full_partition(g: TimeGrid) -> Partition:
    return Partition(tuple(range(g.cells + 1)))
