import hashlib

import pytest
from hypothesis import given, settings

from naselect import (
    BudgetExceededError,
    EnumBudget,
    Instance,
    Multifunction,
    Prefix,
    PrefixChain,
    Signal,
    SignalFamily,
    ValidationError,
    brute_greatest,
    build_example1,
    build_example2,
    compose_chain,
    enumerate_na_multiselectors,
    fixpoint_iterate,
    full_prefix_chain,
    grid,
    is_chain_na,
    mf_join,
    mf_le,
    project,
    random_instance,
)

from naselect import oracle
from naselect.signals import PrefixIndex

from conftest import bits_of, counting, naive_enumerate_na, small_instances


def test_all_empty_multifunction_enumerates_to_itself():
    inst, _ = build_example1()
    empty = Multifunction(inst, (frozenset(),) * 3)
    chain = full_prefix_chain(inst.grid)
    found = list(enumerate_na_multiselectors(empty, chain))
    assert len(found) == 1
    assert found[0].values == empty.values


def test_join_of_the_stream_is_the_projection():
    _, beta = build_example1()
    chain = PrefixChain((Prefix(1),))
    stream = list(enumerate_na_multiselectors(beta, chain))
    assert mf_join(stream).values == project(beta, Prefix(1)).values


def test_enumeration_matches_the_naive_product_filter():
    for seed in range(8):
        _, a = random_instance(seed, 3, 4, 3, density=0.5)
        chain = full_prefix_chain(a.instance.grid)
        mine = [z.values for z in enumerate_na_multiselectors(a, chain)]
        naive = naive_enumerate_na(a, chain)
        assert len(mine) == len(set(mine))
        assert set(mine) == set(naive)


def test_every_enumerated_multiselector_is_a_projection_fixed_point():
    _, a = random_instance(11, 3, 4, 3, density=0.5)
    chain = full_prefix_chain(a.instance.grid)
    for z in enumerate_na_multiselectors(a, chain):
        assert mf_le(z, a)
        for p in chain.prefixes:
            assert project(z, p).values == z.values


def test_budget_exhaustion_is_an_error():
    _, alpha = build_example2()
    chain = full_prefix_chain(alpha.instance.grid)
    with pytest.raises(BudgetExceededError):
        list(enumerate_na_multiselectors(alpha, chain, EnumBudget(max_multiselectors=50)))
    with pytest.raises(ValidationError):
        EnumBudget(max_multiselectors=0)


def test_brute_greatest_matches_composition_on_the_ramp_example():
    _, alpha = build_example2()
    chain = PrefixChain((Prefix(1), Prefix(2)))
    assert brute_greatest(alpha, chain).values == compose_chain(alpha, chain).values


def test_brute_greatest_with_single_disturbance_is_the_input():
    _, a = random_instance(2, 1, 4, 3, density=0.8)
    chain = full_prefix_chain(a.instance.grid)
    assert brute_greatest(a, chain).values == a.values


def test_brute_greatest_walks_more_disturbances_than_the_recursion_limit():
    g = grid(*range(12))
    omega = SignalFamily(
        "disturbance",
        tuple(f"w{k}" for k in range(1200)),
        tuple(Signal(tuple(f"{k:011b}")) for k in range(1200)),
    )
    z = SignalFamily("trajectory", ("h",), (Signal(("0",) * 11),))
    a = Multifunction(Instance(g, omega, z), (frozenset({0}),) * 1200)
    assert brute_greatest(a, PrefixChain((Prefix(11),))).values == a.values


# Minimal budgets on the full prefix chain and SHA-256 digests of the ordered
# streams, recorded before the lazy walk replaced the precomputed search plan.
PINNED_WALKS = {
    "example1": (76, 17, "257ae990d1353d429018e4956b91bbc9e970d5a6ac262a8ddfd4c71ec99337e0"),
    "example2": (8512, 8512, "b31f7d5090a3e9cf884fe5e4635b97bc1bd4b14ee3dd9a0781ff10fd6f24cd23"),
    "random7": (5664, 21, "88c998485ffcaf47ea0839a39fb244da8c9ceb5549d69f26a53917215369c800"),
}


def _pinned_input(name):
    if name == "example1":
        return build_example1()[1]
    if name == "example2":
        return build_example2()[1]
    return random_instance(7, 4, 5, 3, density=0.6)[1]


@pytest.mark.parametrize("name", PINNED_WALKS)
def test_visit_order_and_node_counts_are_pinned(name):
    enum_nodes, brute_nodes, digest = PINNED_WALKS[name]
    a = _pinned_input(name)
    chain = full_prefix_chain(a.instance.grid)
    stream = [
        [tuple(sorted(v)) for v in z.values]
        for z in enumerate_na_multiselectors(a, chain, EnumBudget(enum_nodes))
    ]
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == digest
    with pytest.raises(BudgetExceededError):
        list(enumerate_na_multiselectors(a, chain, EnumBudget(enum_nodes - 1)))
    brute_greatest(a, chain, EnumBudget(brute_nodes))
    with pytest.raises(BudgetExceededError):
        brute_greatest(a, chain, EnumBudget(brute_nodes - 1))


@pytest.mark.parametrize("name", PINNED_WALKS)
def test_members_held_as_places_walk_like_ready_ints(monkeypatch, name):
    a = _pinned_input(name)
    chain = full_prefix_chain(a.instance.grid)
    ready = [z.bits for z in enumerate_na_multiselectors(a, chain)]
    monkeypatch.setattr(oracle, "READY", 0)  # every position lists its members as bit places
    assert [z.bits for z in enumerate_na_multiselectors(a, chain)] == ready
    assert len(ready) > 1


@pytest.mark.parametrize("name", ["example2", "random7"])
def test_the_oracle_converts_nothing(monkeypatch, name):
    a = _pinned_input(name)
    a = Multifunction._trusted(a.instance, a.bits)  # drop the values view the constructor left
    chain = full_prefix_chain(a.instance.grid)
    constructed = counting(monkeypatch, "__post_init__", [Multifunction])
    packed = counting(monkeypatch, "pack", [PrefixIndex])
    list(enumerate_na_multiselectors(a, chain))
    brute_greatest(a, chain)
    assert constructed == [] and packed == []
    assert "values" not in a.__dict__


@given(small_instances())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_composition_equals_brute_force(data):
    inst, a = data
    if bits_of(a) > 14:
        return
    chain = full_prefix_chain(inst.grid)
    assert compose_chain(a, chain).values == brute_greatest(a, chain).values


# ---------------------------------------------------------------------------
# fixpoint sweeps


def test_descending_schedule_stabilizes_after_one_changing_sweep():
    _, alpha = build_example2()
    chain = PrefixChain((Prefix(1), Prefix(2)))
    run = fixpoint_iterate(alpha, chain, "descending")
    assert run.changed_sweeps == 1
    assert run.sweeps == 2
    assert run.result.values == compose_chain(alpha, chain).values


def test_ascending_schedule_detours_but_arrives():
    _, alpha = build_example2()
    chain = PrefixChain((Prefix(1), Prefix(2)))
    target = compose_chain(alpha, chain)
    one_sweep = project(project(alpha, Prefix(1)), Prefix(2))
    assert one_sweep.values != target.values
    run = fixpoint_iterate(alpha, chain, "ascending")
    assert run.changed_sweeps > 1
    assert run.result.values == target.values


def test_fixed_input_needs_no_changing_sweep():
    _, alpha = build_example2()
    chain = PrefixChain((Prefix(1), Prefix(2)))
    stable = compose_chain(alpha, chain)
    run = fixpoint_iterate(stable, chain, "descending")
    assert run.changed_sweeps == 0
    assert run.sweeps == 1


def test_schedules_share_the_stable_point():
    for seed in range(20):
        _, a = random_instance(seed, 3, 4, 3, density=0.5)
        chain = full_prefix_chain(a.instance.grid)
        target = brute_greatest(a, chain).values
        for schedule in ("descending", "ascending", "shuffled"):
            run = fixpoint_iterate(a, chain, schedule, seed=seed)
            assert run.result.values == target
            assert is_chain_na(run.result, chain).holds


def test_sweep_cap_is_enforced():
    _, alpha = build_example2()
    chain = PrefixChain((Prefix(1), Prefix(2)))
    with pytest.raises(BudgetExceededError):
        fixpoint_iterate(alpha, chain, "ascending", max_sweeps=1)
    with pytest.raises(ValidationError):
        fixpoint_iterate(alpha, chain, "sideways")
