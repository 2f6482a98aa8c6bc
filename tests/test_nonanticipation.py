import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    BudgetExceededError,
    EnumBudget,
    Instance,
    Multifunction,
    NaReport,
    Partition,
    SignalFamily,
    brute_greatest,
    build_example1,
    build_example2,
    build_example3,
    canonical_chain,
    compose_chain,
    feasible,
    full_partition,
    greatest_na,
    grid,
    is_chain_na,
    is_prefix_na,
    is_total,
    meet_of_projections,
    mf_le,
    mf_meet,
    project,
)

from conftest import (
    bits_of,
    enumerate_na_multiselectors,
    instance_with_chain,
    instance_with_prefix,
    mf_to_names,
    naive_compose,
    naive_enumerate_na,
    naive_is_chain_na,
    naive_is_prefix_na,
    naive_join,
    naive_na_witness,
    naive_project,
    naive_top,
    partition_of,
    small_instances,
)


def _named(mf):
    return {k: set(v) for k, v in mf_to_names(mf).items()}


# ---------------------------------------------------------------------------
# prefix predicate


def test_constant_multifunction_is_na_everywhere():
    inst, _ = build_example1()
    const = Multifunction(inst, (frozenset({0, 2}),) * 3)
    for p in range(1, inst.grid.cells + 1):
        assert is_prefix_na(const, p).holds


def test_incomparable_example_fails_at_the_short_prefix():
    inst, beta = build_example1()
    report = is_prefix_na(beta, 1)
    assert not report.holds
    w = report.witness
    assert w.prefix == 1
    # the smallest violating pair: the first two disturbances already differ
    assert (w.omega, w.omega_prime) == (0, 1)
    assert w.key in {("a",), ("d",)}


def test_projection_output_is_na_at_its_prefix():
    inst, beta = build_example1()
    for p in range(1, inst.grid.cells + 1):
        assert is_prefix_na(project(beta, p), p).holds


def test_chain_predicate_reports_first_failure():
    inst, alpha = build_example2()
    chain = full_partition(inst.grid)
    report = is_chain_na(alpha, chain)
    assert not report.holds
    assert report.witness.prefix == 1


def test_chain_predicate_on_singleton_chain_matches_prefix_predicate():
    inst, beta = build_example1()
    for p in range(1, inst.grid.cells + 1):
        single = partition_of(inst.grid, [p])
        assert is_chain_na(beta, single).holds == is_prefix_na(beta, p).holds


def test_composed_multiselector_is_chain_na():
    inst, alpha = build_example2()
    chain = Partition((0, 1, 2, 3))
    assert is_chain_na(compose_chain(alpha, chain), chain).holds


def test_empty_multifunction_is_vacuously_na():
    inst, beta = build_example1()
    empty = Multifunction(inst, (frozenset(),) * 3)
    assert is_chain_na(empty, full_partition(inst.grid)).holds


# ---------------------------------------------------------------------------
# projection displays


def test_projection_displays_on_the_incomparable_example():
    _, beta = build_example1()
    assert _named(project(beta, 1)) == {
        "w1": {"h1", "h2"},
        "w2": {"h1", "h2"},
        "w3": {"h2"},
    }
    assert _named(project(beta, 2)) == {
        "w1": {"h1", "h2"},
        "w2": {"h2", "h3"},
        "w3": {"h2", "h3"},
    }


def test_projections_at_different_prefixes_are_incomparable():
    _, beta = build_example1()
    p1 = project(beta, 1)
    p2 = project(beta, 2)
    assert not mf_le(p1, p2)
    assert not mf_le(p2, p1)


def test_projection_displays_on_the_ramp_example():
    _, alpha = build_example2()
    g1 = project(alpha, 1)
    g2 = project(alpha, 2)
    assert _named(g1) == {
        "w11": {"h11", "h12", "h21", "h32", "h41"},
        "w12": {"h21", "h22", "h11", "h32", "h42"},
        "w21": {"h31", "h32", "h12", "h21", "h41"},
        "w22": {"h41", "h42", "h12", "h22", "h31"},
    }
    assert _named(g2) == {
        "w11": {"h10", "h11", "h12", "h21", "h32", "h41"},
        "w12": {"h22", "h42"},
        "w21": {"h30", "h31", "h32", "h12", "h21", "h41"},
        "w22": {"h42", "h22"},
    }


def test_projection_orders_do_not_commute():
    _, alpha = build_example2()
    via_short_then_long = project(project(alpha, 1), 2)
    via_long_then_short = project(project(alpha, 2), 1)
    assert _named(via_short_then_long) == {
        "w11": {"h11", "h12", "h21", "h32", "h41"},
        "w12": {"h22", "h42"},
        "w21": {"h31", "h32", "h12", "h21", "h41"},
        "w22": {"h42", "h22"},
    }
    assert _named(via_long_then_short) == {
        "w11": {"h21", "h41"},
        "w12": {"h22", "h42"},
        "w21": {"h21", "h41"},
        "w22": {"h42", "h22"},
    }
    assert via_short_then_long.values != via_long_then_short.values


def test_compose_applies_largest_prefix_first():
    _, alpha = build_example2()
    chain = Partition((0, 1, 2, 3))
    composed = compose_chain(alpha, chain)
    assert composed.values == project(project(alpha, 2), 1).values
    assert _named(composed)["w11"] == {"h21", "h41"}


def test_compose_on_singleton_chain_is_projection():
    _, beta = build_example1()
    for p in range(1, beta.instance.grid.cells + 1):
        single = partition_of(beta.instance.grid, [p])
        assert compose_chain(beta, single).values == project(beta, p).values


# ---------------------------------------------------------------------------
# meet diagnostic


def test_chain_na_total_multifunction_survives_the_meet():
    inst, alpha = build_example2()
    chain = Partition((0, 1, 2, 3))
    stable = compose_chain(alpha, chain)
    met = meet_of_projections(stable, chain)
    assert is_total(met)
    assert mf_le(stable, met)


def test_compose_sits_below_the_meet():
    _, alpha = build_example2()
    chain = full_partition(alpha.instance.grid)
    assert mf_le(compose_chain(alpha, chain), meet_of_projections(alpha, chain))


def test_truncation_meets_shrink_to_one_control():
    for n in (2, 3, 5):
        inst, a = build_example3(n)
        chain = full_partition(inst.grid)
        met = meet_of_projections(a, chain)
        assert met.values[0] == a.values[n - 1]  # only the slowest-start control survives
        assert len(met.values[0]) == 1


# ---------------------------------------------------------------------------
# agreement prefixes and the canonical chain


def test_canonical_chain_of_the_ramp_example():
    inst, _ = build_example2()
    # lexicographic agreement: all pairs share one cell, one pair shares two,
    # identical pairs share all three
    assert list(canonical_chain(inst).indices[1:]) == [1, 2, 3]


def test_canonical_chain_matches_naive_pairwise_agreement():
    from naselect import random_instance

    for (n_omega, n_cells, alphabet), seed in itertools.product(
        [(4, 3, 2), (30, 6, 3), (60, 7, 2)], range(10)
    ):
        inst, _ = random_instance(seed, n_omega, 4, n_cells, alphabet)
        lens = set()
        for i in range(n_omega):
            for j in range(i, n_omega):
                si = inst.omega.signals[i]
                sj = inst.omega.signals[j]
                n = 0
                while n < len(si) and si[n] == sj[n]:
                    n += 1
                if n:
                    lens.add(n)
        assert list(canonical_chain(inst).indices[1:]) == sorted(lens)


def test_canonical_chain_of_the_push_pull_discretization():
    from fractions import Fraction

    from naselect import alpha_rho, build_example4

    inst, _ = alpha_rho(build_example4(), Fraction(-7, 2))
    # the two disturbances agree exactly on the first cell
    assert list(canonical_chain(inst).indices[1:]) == [1, 3]


def test_canonical_chain_of_single_disturbance_is_full_prefix():
    g = grid(0, 1, 2)
    fam = SignalFamily(("w1",), (("a", "b"),))
    z = SignalFamily(("h1",), (("x", "y"),))
    inst = Instance(g, fam, z)
    assert list(canonical_chain(inst).indices[1:]) == [2]


# ---------------------------------------------------------------------------
# greatest fully non-anticipative multiselector


def test_fully_na_multifunction_is_its_own_greatest():
    inst, _ = build_example1()
    const = Multifunction(inst, (frozenset({1}),) * 3)
    assert greatest_na(const).values == const.values


def test_greatest_is_na_at_every_prefix():
    for builder in (build_example1, build_example2):
        inst, a = builder()
        top = greatest_na(a)
        assert is_chain_na(top, full_partition(inst.grid)).holds


# ---------------------------------------------------------------------------
# feasibility


def test_truncations_are_feasible_for_any_partition():
    import itertools

    for n in (2, 3):
        inst, a = build_example3(n)
        m = inst.grid.cells
        for r in range(m):
            for combo in itertools.combinations(range(1, m), r):
                ok, witness = feasible(a, Partition((0,) + combo + (m,)))
                assert ok
                assert witness is not None and is_total(witness)


def test_total_fully_na_multifunction_is_always_feasible():
    inst, _ = build_example1()
    const = Multifunction(inst, (frozenset({0, 1}),) * 3)
    for delta in (Partition((0, 3)), Partition((0, 1, 3)), Partition((0, 1, 2, 3))):
        ok, witness = feasible(const, delta)
        assert ok and witness.values == const.values


def test_feasibility_is_antitone_in_the_partition():
    # refining a partition can only lose feasibility
    from naselect import random_instance

    for seed in range(30):
        inst, a = random_instance(seed, 3, 4, 3, density=0.4)
        coarse = Partition((0, 3))
        fine = Partition((0, 1, 2, 3))
        ok_coarse, _ = feasible(a, coarse)
        ok_fine, _ = feasible(a, fine)
        if not ok_coarse:
            assert not ok_fine


# ---------------------------------------------------------------------------
# operator laws (checked harder in the acceptance suite)


@given(instance_with_prefix())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_projection_is_nonexpansive_isotone_idempotent(data):
    inst, a, p = data
    g = project(a, p)
    assert mf_le(g, a)
    assert project(g, p).values == g.values
    smaller = Multifunction(inst, tuple(frozenset(sorted(v)[: len(v) // 2]) for v in a.values))
    assert mf_le(project(smaller, p), g)


@given(instance_with_prefix())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_projection_matches_the_naive_definition(data):
    _, a, p = data
    assert project(a, p).values == naive_project(a, p).values


@given(instance_with_prefix())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_prefix_predicate_matches_the_naive_definition(data):
    _, a, p = data
    assert is_prefix_na(a, p).holds == naive_is_prefix_na(a, p)


@given(instance_with_prefix(max_omega=9, max_z=8, max_cells=4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_prefix_witness_is_the_naive_lex_first_pair(data):
    _, a, p = data
    w = is_prefix_na(a, p).witness
    got = None if w is None else (w.omega, w.omega_prime, w.key, w.key_holder)
    assert got == naive_na_witness(a, p)


@given(instance_with_prefix())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fixed_points_are_exactly_the_na_multifunctions(data):
    _, a, p = data
    assert is_prefix_na(a, p).holds == (project(a, p).values == a.values)


@given(instance_with_chain())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_longer_prefix_na_survives_shorter_projection(data):
    _, a, chain = data
    p_long = chain.indices[-2] or chain.indices[-1]  # the longest prefix short of the full one, if any
    fixed = project(a, p_long)
    for p_short in range(1, a.instance.grid.cells + 1):
        if p_short >= p_long:
            break
        assert is_prefix_na(project(fixed, p_short), p_long).holds


@given(instance_with_chain(max_omega=9, max_z=8))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_chain_report_is_the_first_failing_prefix_report(data):
    _, a, h = data
    # a projection passes at its own prefix, so the first failure moves along the chain
    prefixes = h.indices[1:]
    for b in (a, *(project(a, p) for p in prefixes), compose_chain(a, h)):
        failing = [r for r in (is_prefix_na(b, p) for p in prefixes) if not r.holds]
        assert is_chain_na(b, h) == (failing[0] if failing else NaReport(True))


@st.composite
def _interleaved_chains(draw):
    """An instance, two or three distinct chains, and an order of calls that repeats each."""
    inst, a = draw(small_instances(max_omega=6, max_z=8))
    cells = inst.grid.cells
    picks = st.sets(st.integers(1, cells - 1)).map(lambda ns: (0, *sorted(ns), cells))
    chains = draw(st.lists(picks, min_size=2, max_size=3, unique=True))
    order = draw(st.permutations(list(range(len(chains))) * 2))
    return inst, a, chains, order


@given(_interleaved_chains())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_multifunction_keeps_each_chain_composition(data):
    inst, a, chains, order = data
    before = (hash(a), repr(a))
    first = {}
    for k in order:
        chain = Partition(chains[k])  # a fresh but equal partition finds the kept result
        g = compose_chain(a, chain)
        assert first.setdefault(k, g) is g
        assert g.values == naive_compose(a, chain.indices[1:]).values
        fresh = Multifunction(inst, g.values)
        assert g == fresh and hash(g) == hash(fresh)
    # what `a` keeps stays out of its equality, hash and repr
    assert a == Multifunction(inst, a.values) and (hash(a), repr(a)) == before


def test_meet_of_na_multiselectors_can_fail_na():
    # two one-prefix-na multiselectors whose meet is not one-prefix-na
    g = grid(0, 1, 2)
    omega = SignalFamily(
        ("w1", "w2"), (("p", "q"), ("p", "r"))
    )
    z = SignalFamily(("h1", "h2"), (("k", "s"), ("k", "t")))
    inst = Instance(g, omega, z)
    z1 = Multifunction(inst, (frozenset({0}), frozenset({1})))
    z2 = Multifunction(inst, (frozenset({1}), frozenset({1})))
    assert is_prefix_na(z1, 1).holds
    assert is_prefix_na(z2, 1).holds
    met = mf_meet([z1, z2])
    assert not is_prefix_na(met, 1).holds


@given(small_instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_full_top_projects_onto_itself_total(data):
    inst, _ = data
    top = naive_top(inst)
    composed = compose_chain(top, full_partition(inst.grid))
    assert is_total(composed)


@st.composite
def _lengths_short_of_the_full_prefix(draw):
    inst, a = draw(small_instances())
    return inst, a, sorted(draw(st.sets(st.integers(1, inst.grid.cells - 1), min_size=1)))


def _naive_walk_nodes(a: Multifunction, lens) -> int:
    """The subset assignments the oracle's walk tries for the prefix lengths `lens`: at each disturbance, in
    lexicographic signal order, every subset of its value set, once per assignment of the disturbances before it
    whose pairs agree on their restriction sets at each length where their signals agree."""
    omega, z = a.instance.omega.signals, a.instance.z.signals
    order = sorted(range(len(omega)), key=omega.__getitem__)
    partial, nodes = [()], 0
    for k, w in enumerate(order):
        subsets = [frozenset(c) for r in range(len(a.values[w]) + 1) for c in itertools.combinations(a.values[w], r)]
        nodes += len(partial) * len(subsets)
        partial = [
            p + (v,)
            for p in partial
            for v in subsets
            if all(
                omega[x][:n] != omega[w][:n] or {z[h][:n] for h in p[i]} == {z[h][:n] for h in v}
                for i, x in enumerate(order[:k])
                for n in lens
            )
        ]
    return nodes


@given(_lengths_short_of_the_full_prefix())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_a_chain_short_of_the_full_prefix_acts_as_its_partition(data):
    # at the full prefix every class has one member, so a chain that omits it is the partition that ends there
    inst, a, lens = data
    delta = Partition((0, *lens, inst.grid.cells))
    assert compose_chain(a, delta).values == naive_compose(a, lens).values
    assert is_chain_na(a, delta).holds == naive_is_chain_na(a, lens)
    met = tuple(frozenset.intersection(*vs) for vs in zip(*(naive_project(a, n).values for n in lens)))
    assert meet_of_projections(a, delta).values == met
    if bits_of(a) > 14:
        return
    naive = naive_enumerate_na(a, lens)
    assert brute_greatest(a, delta).values == naive_join(Multifunction(inst, vs) for vs in naive).values
    nodes = _naive_walk_nodes(a, lens)
    stream = [z.values for z in enumerate_na_multiselectors(a, delta, EnumBudget(nodes))]
    assert len(stream) == len(set(stream)) and set(stream) == set(naive)
    if nodes > 1:
        with pytest.raises(BudgetExceededError):
            list(enumerate_na_multiselectors(a, delta, EnumBudget(nodes - 1)))
