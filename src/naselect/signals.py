"""Finite families of cell-valued signals, their prefix index and equivalence classes.

A signal carries one opaque token per grid cell.  Restricting it to a prefix
keeps the leading tokens; two signals are equivalent at a prefix when their
restrictions coincide.  Each family builds one `PrefixIndex` on first use,
so every layer names restrictions by small key ids instead of hashing token
tuples.  Tokens are plain strings with their natural total order, which
keeps every derived set printable in a deterministic order.  Scenario
builders that need numeric payloads format them as canonical rational
strings, so exact payload equality and token equality agree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, count
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .timebase import Prefix

Token = str
RestrictionKey = tuple[Token, ...]
_MIRROR = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte with its bits reversed
_DIGIT = bytes.maketrans(b"01", b"\0\1")

ROLE_DISTURBANCE = "disturbance"
ROLE_TRAJECTORY = "trajectory"


@dataclass(frozen=True)
class Signal:
    """One token per grid cell."""

    cells: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValidationError("a signal needs at least one cell")
        for c in self.cells:
            if not isinstance(c, str):
                raise ValidationError(f"signal cells must be strings, got {type(c).__name__}")

    @classmethod
    def _trusted(cls, cells: tuple[Token, ...]) -> Signal:
        """Wrap cells the caller has checked: a non-empty tuple of strings."""
        out = object.__new__(cls)
        out.__dict__["cells"] = cells
        return out


class PrefixIndex:
    """Prefix classes of one family, from its signals sorted once.

    In lexicographic order the members that agree on the first `length`
    cells form a run, broken wherever two neighbours share fewer leading
    cells.  A member's run number is the key id of its restriction: ids
    ascend with the restriction, so the smallest id names the smallest key.

    A set of members is one int, member i at bit 2·rank[i]: at each length a
    run is a block of bits whose top (odd) bit no member uses, so `(v + F) & G`
    (`keys`, with `masks`) is the keyset of v, the tops of the runs it meets.
    """

    def __init__(self, fam: SignalFamily):
        cells = [s.cells for s in fam.signals]
        self.order = sorted(range(len(cells)), key=cells.__getitem__)
        self.sorted_cells = [cells[i] for i in self.order]
        # lcp[k]: leading cells shared by the k-th and (k+1)-th sorted signals
        self.lcp = [
            next(compress(count(), map(ne, s, t)), len(s)) for s, t in zip(self.sorted_cells, self.sorted_cells[1:])
        ]
        self._ids: dict[int, list[int]] = {}
        self._starts: dict[int, list[int]] = {}
        self._masks: dict[int, tuple[int, int, int]] = {}
        self._classes: dict[int, dict[int, tuple[int, ...]]] = {}

    def ids(self, length: int) -> list[int]:
        """Key id of each member's restriction to `length` cells, by member index."""
        if length not in self._ids:
            ids = self._ids[length] = [0] * len(self.order)
            for i, run in zip(self.order, accumulate(map(length.__gt__, self.lcp), initial=0)):
                ids[i] = run
        return self._ids[length]

    def starts(self, length: int) -> list[int]:
        """Run starts at `length` in `order`, then `len(order)`: key id k is `order[starts[k]:starts[k + 1]]`."""
        if length not in self._starts:
            breaks = (k for k, shared in enumerate(self.lcp, start=1) if shared < length)
            self._starts[length] = [0, *breaks, len(self.order)]
        return self._starts[length]

    def masks(self, length: int) -> tuple[int, int, int]:
        """`(F, G, U)` at `length`: G holds each run's top bit, F every other bit, U is for `fill`."""
        if length not in self._masks:
            # base 4, most significant first: "2" at place p is bit 2p + 1, the top of a run ending at p
            g = int("2" + "".join("2" if shared < length else "0" for shared in reversed(self.lcp)), 4)
            everything = (1 << 2 * len(self.order)) - 1
            self._masks[length] = everything ^ g, g, self._mirror(everything & ~(g << 1 | 1))
        return self._masks[length]

    def keys(self, v: int, length: int) -> int:
        """The keyset of `v` at `length`: the top bit of each run it meets, so key id k is bit 2·starts[k + 1] - 1."""
        try:  # one subscript, no second call: walks call this once per member per level
            f, g, _ = self._masks[length]
        except KeyError:
            f, g, _ = self.masks(length)
        return (v + f) & g

    def fill(self, keys: int, length: int) -> int:
        """Every bit of the runs at `length` whose tops are in `keys`; mirrored, tops are bottoms and carry up U."""
        up = self.masks(length)[2]
        return self._mirror((self._mirror(keys) + up) ^ up)

    def _mirror(self, v: int) -> int:  # v with its bits reversed over whole bytes
        return int.from_bytes(v.to_bytes((len(self.order) + 3) // 4, "little").translate(_MIRROR), "big")

    @cached_property
    def rank(self) -> list[int]:
        """Each member's place in `order`, by index: member i is bit 2·rank[i] of a set."""
        return sorted(range(len(self.order)), key=self.order.__getitem__)

    @cached_property
    def _gather(self) -> itemgetter:
        return itemgetter(*self.rank, len(self.order))  # the spare place keeps a one-member family's result a tuple

    def _places(self, sets: Iterable[int]) -> bytes:
        """One 0/1 byte per place of each set, row after row, each row ending in a spare 0."""
        top = 1 << 2 * len(self.order) + 1  # past the spare place, so every row has the same length
        return "".join(format(v | top, "b")[::-2] for v in sets).encode().translate(_DIGIT)

    def pack(self, members: Iterable[int]) -> int:
        """The int of a set of member indices."""
        return self.pack_places(map(self.rank.__getitem__, members))

    def pack_places(self, places: Iterable[int]) -> int:
        """The int of a set of places in `order`; the spare place `len(order)` is dropped."""
        digits = bytearray(b"0" * (len(self.order) + 1))  # base 4, least significant first
        for p in places:
            digits[p] = 49  # "1": bit 2p
        return int(digits[-2::-1], 4)

    def select(self, items: Sequence, v: int) -> Iterator:
        """The items at the indices of the members in `v`, in index order."""
        if v.bit_count() * 10 < len(self.order) + 40:  # below this, member by member beats one gather (measured)
            order, found = self.order, []
            while v:  # top member first: v shrinks to the next member's bit, one xor per member
                b = v.bit_length() - 1
                found.append(order[b >> 1])
                v ^= 1 << b
            return map(items.__getitem__, sorted(found))
        return compress(items, self._gather(self._places((v,))))

    def select_all(self, items: Sequence, sets: Sequence[int]) -> list[Iterator]:
        """`select(items, v)` for each v of `sets`; sets of few members, on average, are taken one by one."""
        if sum(map(int.bit_count, sets)) * 10 < len(sets) * (len(self.order) + 40):
            return [self.select(items, v) for v in sets]
        return [compress(items, row) for row in self._by_index(sets)]

    def _by_index(self, sets: Sequence[int]) -> list[bytes]:
        """Each set's 0/1 flags by member index, then a spare 0: the place flags, one row per set, are
        sliced into columns, the columns gathered once by `rank`, and each row sliced back out."""
        n, w = len(self.order) + 1, len(sets)
        flags = self._places(sets)
        by_index = b"".join(self._gather([flags[p::n] for p in range(n)]))
        return [by_index[r::w] for r in range(w)]

    def classes(self, length: int) -> dict[int, tuple[int, ...]]:
        """Classes at `length` by key id, in first-appearance order, members in index order."""
        if length not in self._classes:
            groups: dict[int, list[int]] = {}
            for i, run in enumerate(self.ids(length)):
                groups.setdefault(run, []).append(i)
            self._classes[length] = {run: tuple(g) for run, g in groups.items()}
        return self._classes[length]

    def members(self, key: RestrictionKey) -> tuple[int, ...]:
        """The class of the members whose restriction to `len(key)` cells is `key`, else ()."""
        k = bisect_left(self.sorted_cells, key)
        if k == len(self.order) or self.sorted_cells[k][: len(key)] != key:
            return ()
        return self.classes(len(key))[self.ids(len(key))[self.order[k]]]


@dataclass(frozen=True)
class SignalFamily:
    """Indexed, duplicate-free signals of equal length; `role` tags the modelled side.

    Duplicate signals are rejected rather than merged so indices stay stable.
    """

    role: str
    names: tuple[str, ...]
    signals: tuple[Signal, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.role not in (ROLE_DISTURBANCE, ROLE_TRAJECTORY):
            raise ValidationError(f"unknown family role {self.role!r}")
        if not self.signals:
            raise ValidationError("a signal family must not be empty")
        if len(self.names) != len(self.signals):
            raise ValidationError("family needs exactly one name per signal")
        index = {n: i for i, n in enumerate(self.names)}
        if len(index) != len(self.names):
            raise ValidationError("family names must be unique")
        object.__setattr__(self, "_index", index)
        if len(set(self.signals)) != len(self.signals):
            raise ValidationError("duplicate signals are not allowed")
        if len({len(s.cells) for s in self.signals}) != 1:
            raise ValidationError("all signals of a family must have the same length")

    def __len__(self) -> int:
        return len(self.signals)

    @property
    def width(self) -> int:
        return len(self.signals[0].cells)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown {self.role} name {name!r}") from None

    @cached_property
    def prefix_index(self) -> PrefixIndex:
        """The family's prefix index, built on first use and kept out of equality, hash and repr."""
        return PrefixIndex(self)


def signal_classes(fam: SignalFamily, a: Prefix) -> tuple[tuple[int, ...], ...]:
    """The partition of all indices by restriction at `a`, in first-appearance order."""
    return tuple(fam.prefix_index.classes(a.len).values())
