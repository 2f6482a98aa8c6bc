"""The prefix index and the library's unchecked construction against naive references.

`edge_instances` draws the shapes a sorted index gets wrong first: one
cell, a one-token alphabet, empty value sets and prefixes of full width.
Mid-size random instances (30 disturbances, 120 trajectories, 6 or 7 cells)
have classes of several members at several prefixes, so one composition
narrows the same value sets at several levels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    Multifunction,
    Partition,
    PrefixChain,
    ProcedureStuckError,
    ValidationError,
    compose_chain,
    full_prefix_chain,
    is_prefix_na,
    legal_extensions,
    project,
    random_instance,
    run_exhaustive,
    signal_classes,
)
from naselect.fileio import from_jsonable, na_flags

from conftest import (
    edge_instances,
    naive_compose,
    naive_is_prefix_na,
    naive_legal_extensions,
    naive_na_witness,
    naive_project,
    naive_replay,
    to_jsonable,
)

EDGE = settings(max_examples=150, deadline=None, derandomize=True)


def _chains(inst):
    """Every non-empty prefix chain of a grid of at most three cells."""
    everything = full_prefix_chain(inst.grid).prefixes
    return [
        PrefixChain(tuple(p for k, p in enumerate(everything) if mask >> k & 1))
        for mask in range(1, 2 ** len(everything))
    ]


def _partitions(inst):
    """Every partition of the grid: the chains that end at the full prefix."""
    full = inst.grid.cells
    return [
        Partition((0, *(p.len for p in chain.prefixes)))
        for chain in _chains(inst)
        if chain.prefixes[-1].len == full
    ]


@EDGE
@given(edge_instances())
def test_projection_and_na_check_match_the_naive_definitions(data):
    inst, a = data
    for p in inst.grid.prefixes():
        assert project(a, p).values == naive_project(a, p).values
        report = is_prefix_na(a, p)
        assert report.holds == naive_is_prefix_na(a, p)
        expected = naive_na_witness(a, p)
        if expected is None:
            assert report.witness is None
        else:
            w = report.witness
            assert (w.omega, w.omega_prime, w.key, w.key_holder) == expected
    assert na_flags(a) == {str(p.len): naive_is_prefix_na(a, p) for p in inst.grid.prefixes()}


@EDGE
@given(edge_instances())
def test_composition_matches_naive_projections(data):
    inst, a = data
    for chain in _chains(inst):
        assert compose_chain(a, chain).values == naive_compose(a, chain).values


@EDGE
@given(edge_instances())
def test_classes_and_extensions_match_a_scan_of_every_disturbance(data):
    inst, _ = data
    m = inst.grid.cells
    for p in inst.grid.prefixes():
        first_seen: dict[tuple, list[int]] = {}
        for i, s in enumerate(inst.omega.signals):
            first_seen.setdefault(s[: p.len], []).append(i)
        assert signal_classes(inst.omega, p) == tuple(map(tuple, first_seen.values()))
    for w, s in enumerate(inst.omega.signals):
        for n in range(m + 1):
            for new_len in range(n, m + 1):
                assert legal_extensions(inst, w, n, new_len) == naive_legal_extensions(inst, s[:n], new_len)


@EDGE
@given(edge_instances(), st.sampled_from([("lex", 0), ("random", 0), ("random", 5)]))
def test_exhaustive_picks_match_a_linear_replay(data, policy_seed):
    inst, a = data
    policy, seed = policy_seed
    for delta in _partitions(inst):
        expected = naive_replay(a, delta, policy, seed)
        stuck = [run[-1] for run in expected.values() if run[-1][0] == "stuck"]
        if stuck:
            with pytest.raises(ProcedureStuckError) as e:
                run_exhaustive(a, delta, policy, seed, check=False)
            assert ("stuck", e.value.step, e.value.omega) == stuck[0]
            continue
        traces = run_exhaustive(a, delta, policy, seed, check=False)
        assert {w: [(s.omega, s.h) for s in t.steps] for w, t in traces.items()} == expected


@EDGE
@given(edge_instances())
def test_library_built_values_pass_the_public_constructor(data):
    inst, a = data
    _, loaded = from_jsonable(to_jsonable(inst, a))
    built = [loaded] + [project(a, p) for p in inst.grid.prefixes()]
    built += [compose_chain(a, chain) for chain in _chains(inst)]
    for r in built:
        assert type(r.values) is tuple
        assert all(type(v) is frozenset for v in r.values)
        assert Multifunction(inst, r.values).values == r.values
    assert loaded.values == a.values


def test_the_public_constructor_still_validates():
    inst, a = random_instance(2, 4, 5, 3)
    with pytest.raises(ValidationError, match="out of range"):
        Multifunction(inst, ({len(inst.z)},) + a.values[1:])
    with pytest.raises(ValidationError, match="out of range"):
        Multifunction(inst, ({-1},) + a.values[1:])
    with pytest.raises(ValidationError, match="exactly one value set"):
        Multifunction(inst, a.values[:-1])
    with pytest.raises(ValidationError, match="exactly one value set"):
        Multifunction(inst, a.values + (frozenset(),))


def _check_starts_and_masks(fam):
    index = fam.prefix_index
    n, width = len(fam), fam.width
    everything = (1 << 2 * n) - 1
    assert [index.rank[i] for i in index.order] == list(range(n))
    for length in range(1, width + 1):
        starts = index.starts(length)
        assert starts[0] == 0 and starts[-1] == n
        by_key: dict[int, list[int]] = {}
        for i, k in enumerate(index.ids(length)):
            by_key.setdefault(k, []).append(i)
        assert len(starts) == len(by_key) + 1
        for k, members in by_key.items():
            assert sorted(index.order[starts[k] : starts[k + 1]]) == members
            assert {fam.signals[i][:length] for i in members} == {index.sorted_cells[starts[k]][:length]}
        f, g, _ = index.masks(length)
        tops = [1 << 2 * end - 1 for end in starts[1:]]
        assert f & g == 0 and f | g == everything and g == sum(tops)
        for i, k in enumerate(index.ids(length)):
            assert (index.pack([i]) + f) & g == tops[k]  # a member's keyset is its run's top
        # keys(v) is the run tops of v's key ids: singletons, whole classes, every other member, all, none
        sets = [[i] for i in range(n)] + list(by_key.values()) + [range(0, n, 2), range(n), []]
        for members in sets:
            ids = {index.ids(length)[j] for j in members}
            assert index.keys(index.pack(members), length) == sum(tops[k] for k in ids)
        for k, top in enumerate(tops):
            assert index.fill(top, length) == (1 << 2 * starts[k + 1]) - (1 << 2 * starts[k])
        assert index.fill(g, length) == everything and index.fill(0, length) == 0


@EDGE
@given(edge_instances())
def test_run_starts_and_masks_match_the_key_ids(data):
    inst, _ = data
    _check_starts_and_masks(inst.omega)
    _check_starts_and_masks(inst.z)


@pytest.mark.parametrize("alphabet, cells", [(2, 7), (3, 6)])  # 2**6 < 120 signals
def test_run_starts_and_masks_on_a_mid_size_family(alphabet, cells):
    inst, _ = random_instance(alphabet, 2, 120, cells, alphabet)
    _check_starts_and_masks(inst.z)


def _shared_levels(inst, chain) -> int:
    """Chain prefixes, but the shortest, with a class of two or more disturbances."""
    index = inst.omega.prefix_index
    return sum(any(len(cls) > 1 for cls in index.classes(p.len).values()) for p in chain.prefixes[1:])


@pytest.mark.parametrize("seed", range(12))
def test_composition_carries_keysets_like_naive_projections(seed):
    alphabet, cells = ((2, 7), (3, 6))[seed % 2]
    inst, a = random_instance(seed, 30, 120, cells, alphabet, 0.3 + 0.05 * (seed % 8))
    rng = random.Random(seed)
    everything = full_prefix_chain(inst.grid).prefixes
    chains = [PrefixChain(everything)] + [
        PrefixChain(tuple(sorted(rng.sample(everything, rng.randint(2, 5))))) for _ in range(4)
    ]
    assert _shared_levels(inst, chains[0]) >= 2
    for chain in chains:
        composed = compose_chain(a, chain)
        assert composed.values == naive_compose(a, chain).values
        for mf in (a, composed):
            assert na_flags(mf) == {str(p.len): naive_is_prefix_na(mf, p) for p in inst.grid.prefixes()}
