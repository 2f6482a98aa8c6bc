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

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class Prefix:
    """The first `len` cells of a grid."""

    len: int

    def __post_init__(self) -> None:
        if self.len < 1:
            raise ValidationError(f"prefix length must be positive, got {self.len}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing rational stamps; at least two."""

    stamps: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.stamps) < 2:
            raise ValidationError("a grid needs at least two stamps")
        for a, b in zip(self.stamps, self.stamps[1:]):
            if a >= b:
                raise ValidationError(f"grid stamps must be strictly increasing ({a} before {b})")

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


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid-stamp indices starting at 0; the last one must be the final stamp."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) < 2:
            raise ValidationError("a partition needs at least two stamp indices")
        if self.indices[0] != 0:
            raise ValidationError("a partition must start at stamp index 0")
        for a, b in zip(self.indices, self.indices[1:]):
            if a >= b:
                raise ValidationError("partition indices must be strictly increasing")

    @property
    def steps(self) -> int:
        return len(self.indices) - 1


@dataclass(frozen=True)
class PrefixChain:
    """Non-empty, strictly increasing run of prefixes."""

    prefixes: tuple[Prefix, ...]

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ValidationError("a prefix chain must not be empty")
        for a, b in zip(self.prefixes, self.prefixes[1:]):
            if a.len >= b.len:
                raise ValidationError("chain prefixes must strictly increase")


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


def full_prefix_chain(g: TimeGrid) -> PrefixChain:
    return partition_to_chain(g, full_partition(g))
