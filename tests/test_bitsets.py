"""Value sets as ints against frozenset algebra and the naive pairwise definitions.

Besides the hypothesis shapes, random instances at 3% and 97% density take
both branches of `PrefixIndex.indices`, `first` and `select_all`, each checked
against a bit scan: a few members are listed one by one, many are gathered
(`indices`), scanned for (`first`) or permuted in one bulk gather for every
set (`select_all`).  One-trajectory families have a single two-bit run at
every length.
"""

import functools
import os
import random
import tempfile

import pytest
from hypothesis import given, settings

from naselect import (
    Multifunction,
    PrefixChain,
    compose_chain,
    dom,
    is_prefix_na,
    is_total,
    mf_le,
    mf_meet,
    nonanticipation,
    project,
    random_instance,
    signal_classes,
)
from naselect.fileio import load, na_flags, save

from conftest import (
    edge_instances,
    full_chain,
    naive_compose,
    naive_is_prefix_na,
    naive_na_witness,
    naive_project,
    small_instances,
)

SHAPES = settings(max_examples=100, deadline=None, derandomize=True)
EXTREMES = [(kind, seed) for kind in ("sparse", "dense", "one-z") for seed in range(3)]


@functools.cache
def _extreme(kind: str, seed: int):
    """30×120 instances at 3% or 97% density, or 6 disturbances over a single trajectory."""
    alphabet, cells = ((2, 7), (3, 5))[seed % 2]
    if kind == "one-z":
        return random_instance(seed, 6, 1, 3, 2, 0.5)
    return random_instance(seed, 30, 120, cells, alphabet, 0.03 if kind == "sparse" else 0.97)


def _check_round_trip(inst, a):
    z, n = inst.z.prefix_index, len(inst.z)
    tops = int("2" * n, 4)  # the odd bit above every member's bit
    for v, bits in zip(a.values, a.bits):
        assert bits & tops == 0
        assert {j for j in range(n) if bits >> 2 * z.rank[j] & 1} == v
        assert z.pack(v) == bits
        assert z.indices(bits) == sorted(v)
    again = Multifunction._trusted(inst, a.bits).values
    assert type(again) is tuple and again == a.values
    assert Multifunction(inst, again).bits == a.bits


def _check_algebra(inst, a):
    rng = random.Random(len(a.bits))
    x, y = (Multifunction(inst, [{j for j in v if rng.random() < 0.5} for v in a.values]) for _ in "xy")
    for p, q in [(x, y), (y, x), (x, a), (a, x), (y, y)]:
        assert mf_le(p, q) == all(u <= v for u, v in zip(p.values, q.values))
    assert mf_meet([x, y, a]).values == tuple(u & v for u, v in zip(x.values, y.values))
    for m in (x, y, a):
        assert dom(m) == frozenset(w for w, v in enumerate(m.values) if v)
        assert is_total(m) == all(m.values)


def _check_equality_and_hash(inst, a):
    built = Multifunction(inst, a.values)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.json")
        save(path, inst, a)
        _, loaded = load(path)
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded.values == built.values
    if any(a.values):
        fewer = Multifunction(inst, [sorted(v)[1:] for v in a.values])
        assert fewer != loaded


def _check_against_naive(inst, a):
    for p in inst.grid.prefixes():
        assert project(a, p).values == naive_project(a, p).values
        report, expected = is_prefix_na(a, p), naive_na_witness(a, p)
        if expected is None:
            assert report.holds and report.witness is None
        else:
            w = report.witness
            assert (w.prefix, w.omega, w.omega_prime, w.key, w.key_holder) == (p, *expected)
    assert na_flags(a) == {str(p.len): naive_is_prefix_na(a, p) for p in inst.grid.prefixes()}
    everything = full_chain(inst.grid).prefixes
    rng = random.Random(len(everything))
    chains = [PrefixChain(everything)] + [
        PrefixChain(tuple(sorted(rng.sample(everything, rng.randint(1, len(everything)))))) for _ in range(3)
    ]
    for chain in chains:
        assert compose_chain(a, chain).values == naive_compose(a, chain).values


def _check_naming(inst, a):
    """Whole multifunctions named at once: the per-set path, the one permutation, and a bit scan agree."""
    z, n = inst.z.prefix_index, len(inst.z)
    full = z.pack(range(n))
    for sets in [list(a.bits), [0], [full], [0, full, *a.bits], [full] * 3 + list(a.bits)]:
        scanned = [[j for j in range(n) if v >> 2 * z.rank[j] & 1] for v in sets]
        assert [z.indices(v) for v in sets] == scanned
        assert [z.first(v) for v in sets if v] == [js[0] for js in scanned if js]
        for items in (range(n), inst.z.names):
            want = [[items[j] for j in js] for js in scanned]
            assert list(map(list, z.select_all(items, sets))) == want


CHECKS = [_check_round_trip, _check_algebra, _check_equality_and_hash, _check_against_naive, _check_naming]


@SHAPES
@given(edge_instances())
def test_edge_instances_agree_with_frozensets_and_naive_helpers(data):
    for check in CHECKS:
        check(*data)


@SHAPES
@given(small_instances())
def test_small_instances_agree_with_frozensets_and_naive_helpers(data):
    for check in CHECKS:
        check(*data)


@pytest.mark.parametrize("kind, seed", EXTREMES, ids=[f"{k}-{s}" for k, s in EXTREMES])
def test_extreme_densities_agree_with_frozensets_and_naive_helpers(kind, seed):
    inst, a = _extreme(kind, seed)
    density = sum(map(len, a.values)) / (len(inst.omega) * len(inst.z))
    assert {"sparse": density <= 0.05, "dense": density >= 0.95, "one-z": len(inst.z) == 1}[kind]
    for check in CHECKS:
        check(inst, a)


def _most_runs_cleared(inst, a) -> int:
    """The most restrictions one value set loses in one projection, from the raw cells."""
    most = 0
    for p in inst.grid.prefixes():
        cut = p.len
        for cls in signal_classes(inst.omega, p):
            keys = [{inst.z.signals[j][:cut] for j in a.values[w]} for w in cls]
            core = set.intersection(*keys)
            most = max(most, *(len(k - core) for k in keys))
    return most


def test_some_projection_clears_several_runs_of_one_value_set():
    assert max(_most_runs_cleared(*_extreme(kind, seed)) for kind, seed in EXTREMES) >= 2


def test_the_na_check_stops_at_the_first_failing_class(monkeypatch):
    inst, a = random_instance(3, 30, 120, 7, 2, 0.5)
    seen = []
    original = nonanticipation._keysets

    def counted(*args):
        for cls, keysets in original(*args):
            seen.append(cls)
            yield cls, keysets

    monkeypatch.setattr(nonanticipation, "_keysets", counted)
    stopped_early = looked_at = 0
    for p in inst.grid.prefixes():
        shared = [cls for cls in signal_classes(inst.omega, p) if len(cls) > 1]
        seen.clear()
        report = is_prefix_na(a, p)
        if report.holds:
            assert seen == shared
        else:
            failing = next(cls for cls in shared if report.witness.omega in cls)
            assert seen == shared[: shared.index(failing) + 1]
            stopped_early += len(seen) < len(shared)
        looked_at += len(seen)
    assert stopped_early >= 2
    seen.clear()
    na_flags(a)
    assert len(seen) == looked_at
