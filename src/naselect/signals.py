"""Finite families of cell-valued signals, their prefix index and equivalence classes.

A signal is a tuple of one opaque token per grid cell.  Restricting it to a prefix
keeps the leading tokens; two signals are equivalent at a prefix when their
restrictions coincide.  Each family builds one `PrefixIndex` on first use,
so every layer names a restriction by its run of sorted members instead of
hashing token tuples.  Tokens are plain strings with their natural total
order, which keeps every derived set printable in a deterministic order.
Scenario builders that need numeric payloads format them as canonical
rational strings, so exact payload equality and token equality agree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError
from .timebase import Prefix

Token = str
RestrictionKey = tuple[Token, ...]
_MIRROR = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte with its bits reversed
_DIGIT = bytes.maketrans(b"01", b"\0\1")


class PrefixIndex:
    """Prefix classes of one family, from its signals sorted once.

    In lexicographic order the members that agree on the first `length`
    cells form a run, broken wherever two neighbours share fewer leading
    cells.  A run is read off `lcp` when asked: `runs` scans for the runs of
    two or more members, `run` walks out from one member, and nothing is
    kept per member or per length but `masks` and the shared `classes`.

    A set of members is one int, member i at bit 2·rank[i]: at each length a
    run is a block of bits whose top (odd) bit no member uses, so `(v + F) & G`
    (`keys`, with `masks`) is the keyset of v, the tops of the runs it meets.
    """

    def __init__(self, fam: SignalFamily):
        self.order = sorted(range(len(fam)), key=fam.signals.__getitem__)
        self.sorted_cells = list(map(fam.signals.__getitem__, self.order))
        # lcp[k]: leading cells shared by the k-th and (k+1)-th sorted signals
        self.lcp = [
            next(compress(count(), map(ne, s, t)), len(s)) for s, t in zip(self.sorted_cells, self.sorted_cells[1:])
        ]
        self.deepest = max(self.lcp, default=0)  # the longest prefix two members share; past it all are alone
        self._masks: dict[int, tuple[int, int, int]] = {}
        self._shared: dict[int, list[tuple[int, ...]]] = {}
        # by a set's int, its names in index order, kept when a loaded file listed it so (`fileio` keeps and reads these)
        self.listed: dict[int, tuple[str, ...]] = {}

    def runs(self, length: int) -> list[tuple[int, int]]:
        """The runs of two or more members at `length`, as slices `(lo, hi)` of `order`, in sorted order."""
        starts = [0, *compress(count(1), map(length.__gt__, self.lcp)), len(self.order)]
        return [(lo, hi) for lo, hi in zip(starts, starts[1:]) if hi - lo > 1]

    def run(self, i: int, length: int) -> tuple[int, int]:
        """Member i's run at `length`, as a slice `(lo, hi)` of `order`: walked out from rank[i], in O(run size)."""
        lcp, lo = self.lcp, self.rank[i]
        hi, end = lo, len(lcp)
        while lo and lcp[lo - 1] >= length:
            lo -= 1
        while hi < end and lcp[hi] >= length:
            hi += 1
        return lo, hi + 1

    def classes(self, length: int) -> list[tuple[int, ...]]:
        """The classes of two or more members at `length`, members in index order, classes by first member;
        kept for each length up to `deepest`, the lengths that have some, so nothing is kept past it."""
        if length > self.deepest:
            return []
        if length not in self._shared:
            self._shared[length] = sorted(tuple(sorted(self.order[lo:hi])) for lo, hi in self.runs(length))
        return self._shared[length]

    def masks(self, length: int) -> tuple[int, int, int]:
        """`(F, G, U)` at `length`: G holds each run's top bit, F every other bit, U is for `fill`."""
        if length not in self._masks:
            # base 4, most significant first: "2" at place p is bit 2p + 1, the top of a run ending at p
            g = int("2" + "".join("2" if shared < length else "0" for shared in reversed(self.lcp)), 4)
            everything = (1 << 2 * len(self.order)) - 1
            self._masks[length] = everything ^ g, g, self._mirror(everything & ~(g << 1 | 1))
        return self._masks[length]

    def keys(self, v: int, length: int) -> int:
        """The keyset of `v` at `length`: the top bit of each run it meets, bit 2·hi - 1 for the run `order[lo:hi]`."""
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

    def indices(self, v: int) -> list[int]:
        """The indices of the members in `v`, ascending."""
        if v.bit_count() * 10 < len(self.order) + 40:  # below this, member by member beats one gather (measured)
            order, found = self.order, []
            while v:  # top member first: v shrinks to the next member's bit, one xor per member
                b = v.bit_length() - 1
                found.append(order[b >> 1])
                v ^= 1 << b
            found.sort()
            return found
        return list(compress(range(len(self.order)), self._gather(self._places((v,)))))

    def first(self, v: int) -> int:
        """The smallest index of a member in `v`, which must not be empty."""
        if v.bit_count() ** 2 > len(self.order):  # then a scan in index order hits early, listing no members (measured)
            return next(i for i, r in enumerate(self.rank) if v >> 2 * r & 1)
        return self.indices(v)[0]

    def select_all(self, items: Sequence, sets: Sequence[int]) -> list[Iterator]:
        """The items at the indices of each set's members, in index order.  Sets of few members, on average,
        are taken one by one; else the place flags, one row per set, are sliced into columns, the columns
        gathered once by `rank`, and each row, by member index and then a spare 0, sliced back out."""
        if sum(map(int.bit_count, sets)) * 10 < len(sets) * (len(self.order) + 40):
            return [map(items.__getitem__, self.indices(v)) for v in sets]
        n, w = len(self.order) + 1, len(sets)
        flags = self._places(sets)
        by_index = b"".join(self._gather([flags[p::n] for p in range(n)]))
        return [compress(items, by_index[r::w]) for r in range(w)]


class Record:
    """Equality, hash and repr over the attributes `_fields` names, in order, as a frozen dataclass has them,
    and `AttributeError` on assignment.  Other attributes, such as caches, stay out of equality, hash and repr."""

    _fields: tuple[str, ...]

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class SignalFamily(Record):
    """Indexed, duplicate-free signals of equal length, each a tuple of string tokens.

    Duplicate signals are rejected rather than merged so indices stay stable.
    A family carries no side: it is Ω or Z by the `Instance` field that holds it,
    and one family may hold both.
    """

    _fields = ("names", "signals")

    def __init__(self, names: tuple[str, ...], signals: tuple[tuple[Token, ...], ...]) -> None:
        if not (isinstance(names, tuple) and isinstance(signals, tuple)):  # hash() needs tuples
            raise ValidationError("family names and signals must be tuples")
        if not signals:
            raise ValidationError("a signal family must not be empty")
        if len(names) != len(signals):
            raise ValidationError("family needs exactly one name per signal")
        if not all(map(isinstance, names, repeat(str))):
            raise ValidationError("family names must be strings")
        index = {n: i for i, n in enumerate(names)}
        if len(index) != len(names):
            raise ValidationError("family names must be unique")
        # each check is one pass in C, and each runs only on what the checks before it allow
        if not all(map(isinstance, signals, repeat(tuple))):
            raise ValidationError("each signal must be a tuple of cells")
        if len(set(map(len, signals))) != 1:
            raise ValidationError("all signals of a family must have the same length")
        if not signals[0]:
            raise ValidationError("a signal needs at least one cell")
        if not all(map(isinstance, chain.from_iterable(signals), repeat(str))):
            raise ValidationError("signal cells must be strings")
        if len(set(signals)) != len(signals):
            raise ValidationError("duplicate signals are not allowed")
        self.__dict__.update(names=names, signals=signals, _index=index)

    def __len__(self) -> int:
        return len(self.signals)

    @property
    def width(self) -> int:
        return len(self.signals[0])

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown name {name!r}") from None

    @cached_property
    def prefix_index(self) -> PrefixIndex:
        """The family's prefix index, built on first use and kept out of equality, hash and repr."""
        return PrefixIndex(self)


def signal_classes(fam: SignalFamily, a: Prefix) -> tuple[tuple[int, ...], ...]:
    """The partition of all indices by restriction at `a`, in first-appearance order, from the shared classes."""
    of = {i: cls for cls in fam.prefix_index.classes(a.len) for i in cls}  # a member alone is in none
    return tuple(cls for i in range(len(fam)) if (cls := of.get(i, (i,)))[0] == i)
