from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    Instance,
    Multifunction,
    Partition,
    SignalFamily,
    TimeGrid,
    ValidationError,
    compose_chain,
    full_partition,
    grid,
)

from conftest import naive_compose


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


def test_prefix_positive():
    """`check_prefix` is the one check of a prefix length: 1 to `cells` pass, any other length raises."""
    g = grid(0, 1, 2, 3)
    for n in range(1, g.cells + 1):
        g.check_prefix(n)
    for n, message in [
        (0, "prefix length must be positive, got 0"),
        (-1, "prefix length must be positive, got -1"),
        (4, "prefix of 4 cells does not fit a grid of 3 cells"),
    ]:
        with pytest.raises(ValidationError) as e:
            g.check_prefix(n)
        assert str(e.value) == message


def test_partition_invariants():
    with pytest.raises(ValidationError):
        Partition((0,))
    with pytest.raises(ValidationError):
        Partition((1, 2))
    with pytest.raises(ValidationError):
        Partition((0, 2, 2))


def test_full_partition_yields_all_prefixes():
    g = grid(0, 1, 2, 3)
    chain = full_partition(g)
    g.check_partition(chain)
    assert list(chain.indices[1:]) == [1, 2, 3]


def test_coarsest_partition_yields_only_full_prefix():
    g = grid(0, 1, 2, 3)
    chain = Partition((0, 3))
    g.check_partition(chain)
    assert list(chain.indices[1:]) == [3]


def test_partition_to_chain_on_uneven_grid():
    # stamp indices {0, 2, 4} of (0, 1, 4/3, 3/2, 2) cover 2 and 4 leading cells
    g = grid(0, 1, "4/3", "3/2", 2)
    chain = Partition((0, 2, 4))
    g.check_partition(chain)
    assert list(chain.indices[1:]) == [2, 4]
    # w1 and w2 share 2 leading cells, where h1 and h2 differ: the prefix of 2 cells empties both value sets
    omega = SignalFamily(("w1", "w2"), (("a", "a", "a", "a"), ("a", "a", "b", "b")))
    z = SignalFamily(("h1", "h2"), (("x", "x", "x", "x"), ("x", "y", "x", "x")))
    a = Multifunction(Instance(g, omega, z), ({0}, {1}))
    assert compose_chain(a, chain).values == naive_compose(a, [2, 4]).values == (set(), set())
    assert compose_chain(a, Partition((0, 1, 4))).values == naive_compose(a, [1, 4]).values == ({0}, {1})


def test_partition_must_end_at_final_stamp():
    g = grid(0, 1, 2, 3)
    with pytest.raises(ValidationError) as e:
        g.check_partition(Partition((0, 2)))
    assert str(e.value) == "partition must end at the final stamp index 3, got 2"
    with pytest.raises(ValidationError):
        g.check_partition(Partition((0, 5)))


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
    g.check_partition(coarse)
    g.check_partition(fine)
    lens_coarse = set(coarse.indices[1:])
    lens_fine = set(fine.indices[1:])
    assert lens_coarse <= lens_fine


@given(_grid_and_partitions())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_chains_strictly_increase(data):
    g, d1, _ = data
    g.check_partition(d1)
    lens = list(d1.indices[1:])
    assert lens == sorted(set(lens))
