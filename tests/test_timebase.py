from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    Partition,
    Prefix,
    PrefixChain,
    TimeGrid,
    ValidationError,
    grid,
    partition_to_chain,
)


def test_grid_needs_two_increasing_stamps():
    with pytest.raises(ValidationError):
        grid(0)
    with pytest.raises(ValidationError):
        grid(0, 0)
    with pytest.raises(ValidationError):
        grid(0, 2, 1)


def test_grid_cells_and_widths():
    g = grid(0, 1, "4/3", "3/2", 2)
    assert g.cells == 4
    assert g.widths() == (Fraction(1), Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))
    assert [p.len for p in g.prefixes()] == [1, 2, 3, 4]


def test_prefix_positive():
    with pytest.raises(ValidationError):
        Prefix(0)


def test_partition_invariants():
    with pytest.raises(ValidationError):
        Partition((0,))
    with pytest.raises(ValidationError):
        Partition((1, 2))
    with pytest.raises(ValidationError):
        Partition((0, 2, 2))


def test_chain_invariants():
    with pytest.raises(ValidationError):
        PrefixChain(())
    with pytest.raises(ValidationError):
        PrefixChain((Prefix(2), Prefix(2)))


def test_full_partition_yields_all_prefixes():
    g = grid(0, 1, 2, 3)
    chain = partition_to_chain(g, Partition((0, 1, 2, 3)))
    assert [p.len for p in chain.prefixes] == [1, 2, 3]


def test_coarsest_partition_yields_only_full_prefix():
    g = grid(0, 1, 2, 3)
    chain = partition_to_chain(g, Partition((0, 3)))
    assert [p.len for p in chain.prefixes] == [3]


def test_partition_to_chain_on_uneven_grid():
    # stamp indices {0, 2, 4} of (0, 1, 4/3, 3/2, 2) cover 2 and 4 leading cells
    g = grid(0, 1, "4/3", "3/2", 2)
    chain = partition_to_chain(g, Partition((0, 2, 4)))
    assert [p.len for p in chain.prefixes] == [2, 4]


def test_partition_must_end_at_final_stamp():
    g = grid(0, 1, 2, 3)
    with pytest.raises(ValidationError):
        partition_to_chain(g, Partition((0, 2)))
    with pytest.raises(ValidationError):
        partition_to_chain(g, Partition((0, 5)))


@st.composite
def _grid_and_partitions(draw):
    cells = draw(st.integers(1, 7))
    g = TimeGrid(tuple(Fraction(k) for k in range(cells + 1)))
    interior = st.sets(st.integers(1, cells - 1)) if cells > 1 else st.just(set())
    small = draw(interior)
    extra = draw(interior)
    d1 = Partition(tuple(sorted({0, cells} | small)))
    d2 = Partition(tuple(sorted({0, cells} | small | extra)))
    return g, d1, d2


@given(_grid_and_partitions())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_partition_refinement_is_chain_monotone(data):
    g, coarse, fine = data
    lens_coarse = {p.len for p in partition_to_chain(g, coarse).prefixes}
    lens_fine = {p.len for p in partition_to_chain(g, fine).prefixes}
    assert lens_coarse <= lens_fine


@given(_grid_and_partitions())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_chains_strictly_increase(data):
    g, d1, _ = data
    chain = partition_to_chain(g, d1)
    lens = [p.len for p in chain.prefixes]
    assert lens == sorted(set(lens))
