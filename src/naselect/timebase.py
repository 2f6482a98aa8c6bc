"""Discrete time base: rational stamp grids, prefixes, partitions, prefix chains.

A grid fixes stamps t_0 < ... < t_m.  Cell k covers the span between stamps k
and k+1, so a grid with m+1 stamps has m cells.  A prefix of length k stands
for the first k cells: the discrete counterpart of an initial time interval.
A partition picks stamp indices (always containing both ends); its prefix
chain lists the prefixes ending at each chosen stamp past the origin.

Stamps are exact rationals, never binary floats, so grids such as
(0, 1, 4/3, 3/2, 2) compare exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError


class Prefix(NamedTuple("Prefix", [("len", int)])):
    """The first `len` cells of a grid; prefixes order by length."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, len: int) -> Prefix:
        if len < 1:
            raise ValidationError(f"prefix length must be positive, got {len}")
        return tuple.__new__(cls, (len,))


class TimeGrid(NamedTuple("TimeGrid", [("stamps", tuple[Fraction, ...])])):
    """Strictly increasing rational stamps; at least two."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

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

    def prefixes(self) -> tuple[Prefix, ...]:
        """Every prefix of this grid, shortest first."""
        return tuple(Prefix(k) for k in range(1, self.cells + 1))

    def check_prefix(self, p: Prefix) -> None:
        if p.len > self.cells:
            raise ValidationError(f"prefix of {p.len} cells does not fit a grid of {self.cells} cells")


def grid(*stamps) -> TimeGrid:
    """Build a grid, coercing stamps to exact rationals."""
    return TimeGrid(tuple(Fraction(s) for s in stamps))


class Partition(NamedTuple("Partition", [("indices", tuple[int, ...])])):
    """Strictly increasing grid-stamp indices starting at 0; the last one must be the final stamp."""

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


class PrefixChain(NamedTuple("PrefixChain", [("prefixes", tuple[Prefix, ...])])):
    """Non-empty, strictly increasing run of prefixes."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, prefixes: tuple[Prefix, ...]) -> PrefixChain:
        if not prefixes:
            raise ValidationError("a prefix chain must not be empty")
        for a, b in zip(prefixes, prefixes[1:]):
            if a.len >= b.len:
                raise ValidationError("chain prefixes must strictly increase")
        return tuple.__new__(cls, (prefixes,))


def partition_to_chain(g: TimeGrid, delta: Partition) -> PrefixChain:
    """Prefixes ending at each partition stamp past the origin, shortest first.

    A stamp index i contributes the prefix of the i leading cells, so the full
    partition of a grid yields every prefix and the coarsest partition yields
    only the full one.
    """
    if delta.indices[-1] != g.cells:
        raise ValidationError(
            f"partition must end at the final stamp index {g.cells}, got {delta.indices[-1]}"
        )
    return PrefixChain(tuple(Prefix(i) for i in delta.indices[1:]))


def full_partition(g: TimeGrid) -> Partition:
    return Partition(tuple(range(g.cells + 1)))
