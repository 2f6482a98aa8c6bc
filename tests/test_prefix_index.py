"""The prefix index and the library's unchecked construction against naive references.

`edge_instances` draws the shapes a sorted index gets wrong first: one
cell, a one-token alphabet, empty value sets and prefixes of full width.
Mid-size random instances (30 disturbances, 120 trajectories, 6 or 7 cells)
have classes of several members at several prefixes, so one composition
narrows the same value sets at several levels.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    Multifunction,
    Partition,
    ProcedureStuckError,
    ValidationError,
    compose_chain,
    greatest_na,
    is_prefix_na,
    legal_extensions,
    project,
    random_instance,
    run_exhaustive,
    signal_classes,
)
from naselect import fileio
from naselect.fileio import from_jsonable, na_flags

from conftest import (
    counting,
    edge_instances,
    naive_compose,
    naive_is_prefix_na,
    naive_legal_extensions,
    naive_na_witness,
    naive_project,
    naive_replay,
    partition_of,
    to_jsonable,
)

EDGE = settings(max_examples=150, deadline=None, derandomize=True)


def _chains(inst):
    """Every non-empty prefix chain of a grid of at most three cells, as its lengths, shortest first."""
    cells = inst.grid.cells
    return [[n for n in range(1, cells + 1) if mask >> n - 1 & 1] for mask in range(1, 2**cells)]


def _partitions(inst):
    """Every partition of the grid: the chains that end at the full prefix."""
    return [Partition((0, *lens)) for lens in _chains(inst) if lens[-1] == inst.grid.cells]


@EDGE
@given(edge_instances())
def test_projection_and_na_check_match_the_naive_definitions(data):
    inst, a = data
    for p in range(1, inst.grid.cells + 1):
        assert project(a, p).values == naive_project(a, p).values
        report = is_prefix_na(a, p)
        assert report.holds == naive_is_prefix_na(a, p)
        expected = naive_na_witness(a, p)
        if expected is None:
            assert report.witness is None
        else:
            w = report.witness
            assert (w.omega, w.omega_prime, w.key, w.key_holder) == expected
    assert na_flags(a) == {str(p): naive_is_prefix_na(a, p) for p in range(1, inst.grid.cells + 1)}


@EDGE
@given(edge_instances())
def test_composition_matches_naive_projections(data):
    inst, a = data
    for lens in _chains(inst):
        assert compose_chain(a, partition_of(inst.grid, lens)).values == naive_compose(a, lens).values


@EDGE
@given(edge_instances())
def test_classes_and_extensions_match_a_scan_of_every_disturbance(data):
    inst, _ = data
    m, index = inst.grid.cells, inst.omega.prefix_index
    for p in range(1, inst.grid.cells + 1):
        first_seen: dict[tuple, list[int]] = {}
        for i, s in enumerate(inst.omega.signals):
            first_seen.setdefault(s[:p], []).append(i)
        assert signal_classes(inst.omega, p) == tuple(map(tuple, first_seen.values()))
        for w, s in enumerate(inst.omega.signals):  # each member's run holds its class
            assert sorted(index.order[slice(*index.run(w, p))]) == first_seen[s[:p]]
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
    built = [loaded] + [project(a, p) for p in range(1, inst.grid.cells + 1)]
    built += [compose_chain(a, partition_of(inst.grid, lens)) for lens in _chains(inst)]
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


def _check_runs_and_masks(fam):
    index = fam.prefix_index
    n, width = len(fam), fam.width
    everything = (1 << 2 * n) - 1
    assert [index.rank[i] for i in index.order] == list(range(n))
    assert index.sorted_cells == sorted(fam.signals) == [fam.signals[i] for i in index.order]
    for length in range(width + 1):
        # every run, singletons too, by a scan of the sorted cells
        runs: list[list[int]] = []
        for k, cells in enumerate(index.sorted_cells):
            if runs and index.sorted_cells[runs[-1][0]][:length] == cells[:length]:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1])
        runs = [tuple(r) for r in runs]
        assert index.runs(length) == [(lo, hi) for lo, hi in runs if hi - lo > 1]
        run_of = {index.order[k]: (lo, hi) for lo, hi in runs for k in range(lo, hi)}
        for i in range(n):
            assert index.run(i, length) == run_of[i]
        for lo, hi in runs:
            assert {s[:length] for s in index.sorted_cells[lo:hi]} == {index.sorted_cells[lo][:length]}
        shared = [tuple(sorted(index.order[lo:hi])) for lo, hi in runs if hi - lo > 1]
        assert index.classes(length) == sorted(shared, key=lambda cls: cls[0])
        f, g, _ = index.masks(length)
        tops = {r: 1 << 2 * r[1] - 1 for r in runs}
        assert f & g == 0 and f | g == everything and g == sum(tops.values())
        for i in range(n):
            assert (index.pack([i]) + f) & g == tops[run_of[i]]  # a member's keyset is its run's top
        # keys(v) is the tops of the runs v meets: singletons, whole classes, every other member, all, none
        sets = [[i] for i in range(n)] + [index.order[lo:hi] for lo, hi in runs] + [range(0, n, 2), range(n), []]
        for members in sets:
            met = {run_of[j] for j in members}
            assert index.keys(index.pack(members), length) == sum(tops[r] for r in met)
        for (lo, hi), top in tops.items():
            assert index.fill(top, length) == (1 << 2 * hi) - (1 << 2 * lo)
        assert index.fill(g, length) == everything and index.fill(0, length) == 0


@EDGE
@given(edge_instances())
def test_runs_and_masks_match_a_scan_of_the_sorted_cells(data):
    inst, _ = data
    _check_runs_and_masks(inst.omega)
    _check_runs_and_masks(inst.z)


@pytest.mark.parametrize("alphabet, cells", [(2, 7), (3, 6)])  # 2**6 < 120 signals
def test_runs_and_masks_on_a_mid_size_family(alphabet, cells):
    inst, _ = random_instance(alphabet, 2, 120, cells, alphabet)
    _check_runs_and_masks(inst.z)


def test_na_flags_on_a_long_grid_keeps_nothing_past_the_deepest_shared_prefix():
    _, a = random_instance(1, 2, 2, 20000, 2)
    g = greatest_na(a)
    tracemalloc.start()
    try:
        na_flags(g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


@pytest.mark.parametrize("disturbances", [2, 8])
def test_na_flags_on_a_long_grid_checks_no_prefix_past_the_deepest_shared_one(monkeypatch, disturbances):
    _, a = random_instance(1, disturbances, 2, 20000, 2)
    deepest = a.instance.omega.prefix_index.deepest
    for mf in (a, greatest_na(a)):
        reference = {str(p): is_prefix_na(mf, p).holds for p in range(1, mf.instance.grid.cells + 1)}
        checked = counting(monkeypatch, "is_prefix_na", [fileio])
        assert na_flags(mf) == reference
        assert len(checked) <= deepest
        monkeypatch.undo()
    assert not all(na_flags(a).values())  # the unprojected map fails some prefix within the deepest


def _shared_levels(inst, lens) -> int:
    """Chain prefix lengths, but the shortest, with a class of two or more disturbances."""
    return sum(bool(inst.omega.prefix_index.classes(n)) for n in lens[1:])


@pytest.mark.parametrize("seed", range(12))
def test_composition_carries_keysets_like_naive_projections(seed):
    alphabet, cells = ((2, 7), (3, 6))[seed % 2]
    inst, a = random_instance(seed, 30, 120, cells, alphabet, 0.3 + 0.05 * (seed % 8))
    rng = random.Random(seed)
    everything = list(range(1, inst.grid.cells + 1))
    chains = [everything] + [sorted(rng.sample(everything, rng.randint(2, 5))) for _ in range(4)]
    assert _shared_levels(inst, chains[0]) >= 2
    for lens in chains:
        composed = compose_chain(a, partition_of(inst.grid, lens))
        assert composed.values == naive_compose(a, lens).values
        for mf in (a, composed):
            assert na_flags(mf) == {str(p): naive_is_prefix_na(mf, p) for p in range(1, inst.grid.cells + 1)}
