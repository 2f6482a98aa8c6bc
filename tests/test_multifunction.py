from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    Instance,
    InstanceMismatchError,
    Multifunction,
    Prefix,
    SignalFamily,
    ValidationError,
    alpha_rho,
    build_example1,
    build_example3,
    build_example4,
    dom,
    greatest_na,
    grid,
    is_total,
    mf_le,
    mf_meet,
    project,
    random_instance,
)

from conftest import full_chain, mf_to_names, naive_join, small_instances


def test_le_is_reflexive():
    _, beta = build_example1()
    assert mf_le(beta, beta)


def test_projection_sits_below_the_source():
    _, beta = build_example1()
    assert mf_le(project(beta, Prefix(1)), beta)


def test_le_detects_a_larger_entry():
    inst, beta = build_example1()
    smaller = Multifunction(inst, (frozenset({0}),) + beta.values[1:])
    assert mf_le(smaller, beta)
    assert not mf_le(beta, smaller)


def test_cross_instance_operations_fail():
    _, beta = build_example1()
    _, other = random_instance(0, 3, 3, 3)
    with pytest.raises(InstanceMismatchError):
        mf_le(beta, other)
    with pytest.raises(InstanceMismatchError):
        mf_meet([beta, other])


def test_an_instance_names_the_side_of_a_family_off_the_grid():
    short, fits = SignalFamily(("a",), (("x", "y"),)), SignalFamily(("b",), (("x", "y", "z"),))
    with pytest.raises(ValidationError, match="^disturbance signals have 2 cells, the grid has 3$"):
        Instance(grid(0, 1, 2, 3), short, fits)
    with pytest.raises(ValidationError, match="^trajectory signals have 2 cells, the grid has 3$"):
        Instance(grid(0, 1, 2, 3), fits, short)


def test_join_and_meet_of_singleton():
    _, beta = build_example1()
    assert naive_join([beta]).values == beta.values
    assert mf_meet([beta]).values == beta.values


def test_join_and_meet_reject_empty_input():
    with pytest.raises(ValidationError, match="^meet needs at least one multifunction$"):
        mf_meet([])
    with pytest.raises(ValidationError, match="^meet needs at least one multifunction$"):
        mf_meet(iter(()))


def test_meet_of_truncated_projections_collapses():
    # the meet over all prefix projections equals the projection at the
    # shortest prefix past the waiting period
    inst, a = build_example3(4)
    chain = full_chain(inst.grid)
    met = mf_meet([project(a, p) for p in chain.prefixes])
    assert met.values == project(a, Prefix(2)).values


def test_dom_of_all_empty_is_empty():
    inst, a = random_instance(1, 3, 4, 3, density=0.0)
    assert dom(a) == frozenset()
    assert not is_total(a)


def test_optimal_level_responses_stay_total_after_projection():
    sys = build_example4()
    _, a = alpha_rho(sys, Fraction(-7, 2))
    assert is_total(greatest_na(a))


def test_below_optimal_level_responses_lose_totality():
    sys = build_example4()
    _, a = alpha_rho(sys, Fraction(-15, 4))
    assert not is_total(greatest_na(a))


@st.composite
def _mfs_below(draw):
    """An instance with three random multiselectors of its multifunction."""
    import random as _r

    inst, a = draw(small_instances())
    outs = []
    for s in draw(st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))):
        rng = _r.Random(s)
        outs.append(
            Multifunction(
                inst, tuple(frozenset(j for j in v if rng.random() < 0.6) for v in a.values)
            )
        )
    return inst, a, outs


@given(_mfs_below())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_partial_order_laws(data):
    _, _, (x, y, z) = data
    assert mf_le(x, x)
    if mf_le(x, y) and mf_le(y, x):
        assert x.values == y.values
    if mf_le(x, y) and mf_le(y, z):
        assert mf_le(x, z)


@given(_mfs_below())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_join_meet_are_least_and_greatest_bounds(data):
    _, a, ms = data
    j = naive_join(ms)
    m = mf_meet(ms)
    for x in ms:
        assert mf_le(x, j)
        assert mf_le(m, x)
    # every member sits below `a`, so the join must too; dually for the meet
    assert mf_le(j, a)
    for x in ms:
        assert mf_le(mf_meet([x, j]), x)


@given(_mfs_below())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_join_meet_match_direct_definitions(data):
    inst, _, ms = data
    m = mf_meet(ms)
    for k in range(len(inst.omega)):
        expect = ms[0].values[k]
        for x in ms[1:]:
            expect = expect & x.values[k]
        assert m.values[k] == expect


@pytest.mark.parametrize("index", ["x", 1.0, True, None, -1, 3], ids=repr)
def test_a_value_set_takes_only_int_indices_in_range(index):
    inst, beta = build_example1()  # three trajectories
    with pytest.raises(ValidationError, match=r"^trajectory index .* out of range 0\.\.2$"):
        Multifunction(inst, ({index},) + beta.values[1:])


def test_name_keyed_view_orders_by_index():
    _, beta = build_example1()
    assert mf_to_names(beta) == {
        "w1": ["h1", "h2"],
        "w2": ["h1", "h2", "h3"],
        "w3": ["h2", "h3"],
    }
