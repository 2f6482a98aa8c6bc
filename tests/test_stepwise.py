import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from naselect import stepwise
from naselect import (
    AdversaryError,
    InfeasibleError,
    Instance,
    Multifunction,
    Partition,
    ProcedureStuckError,
    ScriptedAdversary,
    Signal,
    SignalFamily,
    ValidationError,
    alpha_rho,
    build_example2,
    build_example3,
    build_example4,
    compose_chain,
    enumerate_omega_delta,
    feasible,
    grid,
    is_total,
    legal_extensions,
    partition_to_chain,
    run_exhaustive,
    run_stepwise,
    validate_trace,
    verify_witness,
)

from conftest import (
    counting,
    naive_consistent_tuples,
    naive_tuple_violations,
    naive_verify_witness,
    small_instances,
)


def _ex4_at_optimum():
    sys = build_example4()
    return alpha_rho(sys, Fraction(-7, 2))


def test_scripted_run_commits_half_then_full_push():
    inst, a = _ex4_at_optimum()
    delta = Partition((0, 1, 3))
    trace = run_stepwise(a, delta, ScriptedAdversary(inst.omega.signals[0]))
    assert inst.z.names[trace.final_h] == "u(1/2,1,1)"
    assert trace.consistent
    assert validate_trace(a, trace) == []
    # the first step commits before the disturbances separate
    assert inst.z.signals[trace.steps[0].h].cells[0] == "1/2"


def test_scripted_run_against_the_downward_disturbance():
    inst, a = _ex4_at_optimum()
    delta = Partition((0, 1, 3))
    trace = run_stepwise(a, delta, ScriptedAdversary(inst.omega.signals[1]))
    assert inst.z.names[trace.final_h] == "u(1/2,-1,-1)"
    assert validate_trace(a, trace) == []


def test_truncation_run_lands_in_the_admissible_set():
    inst, a = build_example3(3)
    # stamp indices (0, 3, 4) put one split right after the second disturbance jump
    delta = Partition((0, 3, 4))
    trace = run_stepwise(a, delta, ScriptedAdversary(inst.omega.signals[1]))
    assert trace.final_h in a.values[1]
    assert validate_trace(a, trace) == []


def test_single_disturbance_runs_trivially():
    g = grid(0, 1, 2)
    omega = SignalFamily("disturbance", ("w1",), (Signal(("a", "b")),))
    z = SignalFamily(
        "trajectory", ("h1", "h2"), (Signal(("x", "y")), Signal(("x", "z")))
    )
    inst = Instance(g, omega, z)
    a = Multifunction(inst, (frozenset({0, 1}),))
    trace = run_stepwise(a, Partition((0, 1, 2)), ScriptedAdversary(omega.signals[0]))
    assert trace.consistent
    assert trace.final_h == 0  # smallest admissible index under the default policy


def test_infeasible_conditions_raise_with_the_empty_witnesses():
    sys = build_example4()
    inst, a = alpha_rho(sys, Fraction(-4))
    with pytest.raises(InfeasibleError) as err:
        run_stepwise(a, Partition((0, 1, 3)), ScriptedAdversary(inst.omega.signals[0]))
    assert err.value.empty_omegas  # names the disturbances that lost every option
    assert err.value.witness is not None


def test_unchecked_run_gets_stuck_instead():
    sys = build_example4()
    inst, a = alpha_rho(sys, Fraction(-4))
    with pytest.raises(ProcedureStuckError):
        run_exhaustive(a, Partition((0, 1, 3)), check=False)


def test_adversary_must_stay_inside_the_family():
    inst, a = _ex4_at_optimum()

    class Rogue:
        def extend(self, step, revealed, new_len):
            return ("7",) * (new_len - len(revealed))

    with pytest.raises(AdversaryError):
        run_stepwise(a, Partition((0, 1, 3)), Rogue())


def test_adversary_extension_length_is_checked():
    inst, a = _ex4_at_optimum()

    class Short:
        def extend(self, step, revealed, new_len):
            return ()

    with pytest.raises(AdversaryError):
        run_stepwise(a, Partition((0, 1, 3)), Short())


def test_legal_extensions_list_the_split_futures():
    inst, _ = _ex4_at_optimum()
    assert legal_extensions(inst, (), 1) == (("0",),)
    assert legal_extensions(inst, ("0",), 3) == (("-1", "-1"), ("1", "0"))


def test_random_policy_is_reproducible():
    inst, a = build_example2()
    delta = Partition((0, 1, 3))
    t1 = run_stepwise(a, delta, ScriptedAdversary(inst.omega.signals[0]), policy="random", seed=7)
    t2 = run_stepwise(a, delta, ScriptedAdversary(inst.omega.signals[0]), policy="random", seed=7)
    assert t1 == t2
    with pytest.raises(ValidationError):
        run_stepwise(a, delta, ScriptedAdversary(inst.omega.signals[0]), policy="greedy")


def test_exhaustive_covers_every_disturbance():
    inst, a = _ex4_at_optimum()
    traces = run_exhaustive(a, Partition((0, 1, 3)))
    assert set(traces) == {0, 1}
    for w, trace in traces.items():
        assert trace.final_h in a.values[w]
        assert validate_trace(a, trace) == []


def _outcome(run):
    """What a run returns, or the type and identifying fields of what it raises."""
    try:
        return run()
    except InfeasibleError as e:
        return (type(e), str(e), e.empty_omegas, e.witness.values)
    except ProcedureStuckError as e:
        return (type(e), str(e), e.step, e.omega)


@st.composite
def instance_with_partition(draw):
    inst, a = draw(small_instances())
    m = inst.grid.cells
    inner = draw(st.sets(st.integers(1, m - 1)))
    return inst, a, Partition((0, *sorted(inner), m))


@given(instance_with_partition())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_exhaustive_equals_one_scripted_run_per_disturbance(data):
    inst, a, delta = data
    for policy, seed in (("lex", 0), ("random", 0), ("random", 7)):
        for check in (True, False):
            expected = _outcome(
                lambda: {
                    w: run_stepwise(a, delta, ScriptedAdversary(s), policy, seed, check)
                    for w, s in enumerate(inst.omega.signals)
                }
            )
            assert _outcome(lambda: run_exhaustive(a, delta, policy, seed, check)) == expected


@pytest.mark.parametrize("check", [True, False])
def test_exhaustive_composes_once(monkeypatch, check):
    inst, a = _ex4_at_optimum()
    calls = counting(monkeypatch, "compose_chain", [stepwise])
    assert len(run_exhaustive(a, Partition((0, 1, 3)), check=check)) == len(inst.omega) > 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# consistent disturbance tuples


def test_single_step_tuples_are_all_disturbances():
    inst, _ = build_example2()
    tuples = list(enumerate_omega_delta(inst, Partition((0, 3))))
    assert sorted(tuples) == [(0,), (1,), (2,), (3,)]


def test_tuple_enumeration_matches_the_naive_filter():
    inst, _ = build_example2()
    delta = Partition((0, 1, 2, 3))
    chain = partition_to_chain(inst.grid, delta)
    mine = sorted(enumerate_omega_delta(inst, delta))
    naive = naive_consistent_tuples(inst, chain)
    assert mine == naive
    assert len(mine) == 24


def test_distinct_first_cells_admit_only_constant_tuples():
    g = grid(0, 1, 2)
    omega = SignalFamily(
        "disturbance", ("w1", "w2"), (Signal(("a", "a")), Signal(("b", "a")))
    )
    z = SignalFamily("trajectory", ("h1",), (Signal(("x", "x")),))
    inst = Instance(g, omega, z)
    tuples = sorted(enumerate_omega_delta(inst, Partition((0, 1, 2))))
    assert tuples == [(0, 0), (1, 1)]


def test_tuples_longer_than_the_recursion_limit_come_in_walk_order():
    # the two disturbances share only cell 0, so only the first entry is free
    n = 1100
    g = grid(*range(n + 1))
    omega = SignalFamily(
        "disturbance",
        ("w1", "w2"),
        (Signal(("a",) * n), Signal(("a",) + ("b",) * (n - 1))),
    )
    z = SignalFamily("trajectory", ("h1",), (Signal(("x",) * n),))
    inst = Instance(g, omega, z)
    tuples = list(enumerate_omega_delta(inst, Partition(tuple(range(n + 1)))))
    assert tuples == [(0,) * n, (1,) + (0,) * (n - 1), (0,) + (1,) * (n - 1), (1,) * n]


# ---------------------------------------------------------------------------
# witness verification


def test_composed_constant_tuple_passes_when_feasible():
    inst, a = build_example2()
    delta = Partition((0, 1, 2, 3))
    ok, witness = feasible(a, delta)
    assert ok
    report = verify_witness([witness] * delta.steps, delta, a)
    assert report.ok


def test_unprojected_multifunction_fails_with_a_mismatch():
    inst, a = build_example2()
    delta = Partition((0, 1, 2, 3))
    report = verify_witness([a] * delta.steps, delta, a)
    assert not report.ok
    assert report.violation.kind == "restriction-mismatch"


def test_single_step_total_multiselector_passes():
    inst, a = build_example2()
    delta = Partition((0, 3))
    composed = compose_chain(a, partition_to_chain(inst.grid, delta))
    report = verify_witness([composed], delta, a)
    assert report.ok


def test_witness_length_must_match_the_partition():
    inst, a = build_example2()
    with pytest.raises(ValidationError):
        verify_witness([a], Partition((0, 1, 3)), a)


def test_witness_must_sit_below_the_target():
    inst, a = build_example2()
    delta = Partition((0, 3))
    from naselect import full_multifunction

    report = verify_witness([full_multifunction(inst)], delta, a)
    assert not report.ok
    assert report.violation.kind == "not-multiselector"


def test_empty_value_is_reported():
    inst, a = build_example2()
    delta = Partition((0, 3))
    hollow = Multifunction(inst, (frozenset(),) + a.values[1:])
    report = verify_witness([hollow], delta, a)
    assert not report.ok
    assert report.violation.kind == "empty-value"


@st.composite
def witness_candidates(draw):
    """An instance, a partition and per-step multifunctions: composed, `a`, or parts of `a`."""
    inst, a = draw(small_instances(max_omega=6, max_z=6, max_cells=4, min_omega=2))
    assume(is_total(a))  # an empty value at `a` would hide every later condition
    m = inst.grid.cells
    inner = draw(st.sets(st.integers(1, m - 1)))
    delta = Partition((0,) + tuple(sorted(inner)) + (m,))
    n = delta.steps
    composed = compose_chain(a, partition_to_chain(inst.grid, delta))

    def part():
        return Multifunction(
            inst,
            tuple(frozenset(draw(st.sets(st.sampled_from(sorted(v)), min_size=1))) for v in a.values),
        )

    mode = draw(st.sampled_from(["composed", "a", "mixed", "dropped"]))
    if mode == "composed":
        phis = [composed] * n
    elif mode == "a":
        phis = [a] * n
    elif mode == "dropped":  # one trajectory fewer at the last step: only its side can differ
        values = list(composed.values)
        w = draw(st.integers(0, len(values) - 1))
        if values[w]:
            values[w] = values[w] - {draw(st.sampled_from(sorted(values[w])))}
        phis = [composed] * (n - 1) + [Multifunction(inst, tuple(values))]
    else:
        phis = [
            draw(st.sampled_from([composed, a])) if draw(st.booleans()) else part() for _ in range(n)
        ]
    return inst, a, delta, phis


@settings(max_examples=300, deadline=None, derandomize=True)
@given(witness_candidates())
def test_witness_check_matches_full_tuple_enumeration(case):
    inst, a, delta, phis = case
    report = verify_witness(phis, delta, a)
    assert report.ok == naive_verify_witness(phis, delta, a)
    if not report.ok:
        v = report.violation
        chain = partition_to_chain(inst.grid, delta)
        assert v.omegas in naive_consistent_tuples(inst, chain)
        assert (v.kind, v.step) in naive_tuple_violations(phis, chain, v.omegas)


# ---------------------------------------------------------------------------
# the executable equivalence


def test_feasibility_matches_stepwise_and_witness_on_random_instances():
    from naselect import random_instance

    for seed in range(40):
        inst, a = random_instance(seed, 3, 4, 3, density=0.45)
        m = inst.grid.cells
        for r in range(m):
            for combo in itertools.combinations(range(1, m), r):
                delta = Partition((0,) + combo + (m,))
                ok, _ = feasible(a, delta)
                try:
                    run_exhaustive(a, delta, check=False)
                    stepwise_ok = True
                except (ProcedureStuckError, InfeasibleError):
                    stepwise_ok = False
                composed = compose_chain(a, partition_to_chain(inst.grid, delta))
                witness_ok = verify_witness([composed] * delta.steps, delta, a).ok
                assert ok == stepwise_ok == witness_ok, (seed, delta)
