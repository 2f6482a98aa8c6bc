import itertools
import random
import tracemalloc
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
    SignalFamily,
    ValidationError,
    alpha_rho,
    build_example2,
    build_example3,
    build_example4,
    compose_chain,
    enumerate_omega_delta,
    feasible,
    full_partition,
    grid,
    is_total,
    legal_extensions,
    partition_to_chain,
    random_instance,
    run_exhaustive,
    run_stepwise,
    validate_trace,
    verify_witness,
)

from conftest import (
    counting,
    naive_consistent_tuples,
    naive_replay,
    naive_top,
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
    assert inst.z.signals[trace.steps[0].h][0] == "1/2"


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


def _three_step_run():
    """Two disturbances apart only at the last cell; the composition drops h1 at two cells.

    h1 agrees with h0 on the first cell, so picking it at step 1 breaks only that step.
    """
    omega = SignalFamily(("w0", "w1"), (("a", "a", "a"), ("a", "a", "b")))
    z = SignalFamily(
        ("h0", "h1", "h2"),
        (("x", "x", "x"), ("x", "y", "x"), ("y", "y", "y")),
    )
    inst = Instance(grid(0, 1, 2, 3), omega, z)
    a = Multifunction(inst, (frozenset({0, 1, 2}), frozenset({0, 2})))
    return a, run_stepwise(a, Partition((0, 1, 2, 3)), ScriptedAdversary(omega.signals[0]))


def test_validate_trace_names_each_broken_condition():
    a, trace = _three_step_run()
    assert [(s.omega, s.h) for s in trace.steps] == [(0, 0)] * 3 and trace.final_h == 0
    assert validate_trace(a, trace) == []

    def with_step(i, **changes):
        steps = list(trace.steps)
        steps[i] = steps[i]._replace(**changes)
        return trace._replace(steps=tuple(steps), final_h=steps[-1].h)

    broken = {
        "trace has 2 steps for 3 control steps": trace._replace(steps=trace.steps[:2]),
        "step 1: trajectory outside the selection multifunction": with_step(0, h=1),
        "step 3: trajectory disagrees with the previous step": with_step(2, h=2),
        "final trajectory differs from the last step's pick": trace._replace(final_h=2),
    }
    for message, bad in broken.items():
        assert validate_trace(a, bad) == [message]
    # a step names no prefix apart from its disturbance's: picking w1 last reveals w1, and so traces w1 validly
    assert validate_trace(a, with_step(2, omega=1)) == []


def test_validate_trace_reports_a_negative_pick_outside_both_multifunctions():
    a, trace = _three_step_run()
    steps = (trace.steps[0]._replace(h=-1),) + trace.steps[1:]
    assert validate_trace(a, trace._replace(steps=steps)) == [
        "step 1: trajectory outside the selection multifunction",
        "step 1: trajectory outside the original multifunction",
        "step 2: trajectory disagrees with the previous step",
    ]


_NO_MATCH = "step {i}: picked disturbance does not match the revealed prefix"
_OUTSIDE = ["step {i}: trajectory outside the selection multifunction", "step {i}: trajectory outside the original multifunction"]


@pytest.mark.parametrize(
    "i, field, value, expected",
    [
        (3, "omega", -1, [_NO_MATCH, *_OUTSIDE, "step {i}: disturbance disagrees with the previous step"]),
        (2, "omega", 4, [_NO_MATCH, *_OUTSIDE, "step {i}: disturbance disagrees with the previous step", "step 3: disturbance disagrees with the previous step"]),
        (2, "h", 12, [*_OUTSIDE, "step {i}: trajectory disagrees with the previous step", "step 3: trajectory disagrees with the previous step"]),
    ],
    ids=["last-omega-minus-one", "omega-past-the-end", "h-past-the-end"],
)
def test_validate_trace_reports_an_index_outside_its_family(i, field, value, expected):
    inst, a = build_example2()
    trace = run_stepwise(a, Partition((0, 1, 2, 3)), ScriptedAdversary(inst.omega.signals[3]))
    assert [(s.omega, s.h) for s in trace.steps] == [(0, 4), (1, 5), (3, 5)] and validate_trace(a, trace) == []
    assert (len(inst.omega), len(inst.z)) == (4, 12)
    steps = list(trace.steps)
    steps[i - 1] = steps[i - 1]._replace(**{field: value})
    forged = trace._replace(steps=tuple(steps), final_h=steps[-1].h)
    assert validate_trace(a, forged) == [line.format(i=i) for line in expected]


def test_single_disturbance_runs_trivially():
    g = grid(0, 1, 2)
    omega = SignalFamily(("w1",), (("a", "b"),))
    z = SignalFamily(
        ("h1", "h2"), (("x", "y"), ("x", "z"))
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
        def extend(self, step, omega, n, new_len):
            return ("7",) * (new_len - n)

    with pytest.raises(AdversaryError):
        run_stepwise(a, Partition((0, 1, 3)), Rogue())


def test_a_rogue_step_names_the_whole_revealed_prefix():
    inst, a = _ex4_at_optimum()

    class Rogue:
        def extend(self, step, omega, n, new_len):
            return ("0",) if step == 1 else ("7",) * (new_len - n)

    with pytest.raises(AdversaryError) as err:
        run_stepwise(a, Partition((0, 1, 3)), Rogue())
    assert str(err.value) == "step 2: revealed prefix ('0', '7', '7') matches no disturbance"


def test_adversary_extension_length_is_checked():
    inst, a = _ex4_at_optimum()

    class Short:
        def extend(self, step, omega, n, new_len):
            return ()

    with pytest.raises(AdversaryError):
        run_stepwise(a, Partition((0, 1, 3)), Short())


def test_legal_extensions_list_the_split_futures():
    inst, _ = _ex4_at_optimum()
    assert legal_extensions(inst, 0, 0, 1) == (("0",),)
    assert legal_extensions(inst, 1, 1, 3) == (("-1", "-1"), ("1", "0"))


def _cells_sliced_by_a_scripted_run(cells: int) -> int:
    """Cells returned by the signal slices of one scripted run on the full partition and its validation."""
    sliced = [0]

    class Counted(tuple):
        def __getitem__(self, key):
            got = super().__getitem__(key)
            if isinstance(key, slice):
                sliced[0] += len(got)
            return got

    rng = random.Random(cells)
    rows = [("a",) * cells] + [tuple(rng.choice("ab") for _ in range(cells)) for _ in range(4)]
    omega = SignalFamily(("w0", "w1", "w2"), tuple(map(Counted, rows[:3])))
    z = SignalFamily(("h0", "h1"), tuple(map(Counted, rows[3:])))
    inst = Instance(grid(*range(cells + 1)), omega, z)
    a = naive_top(inst)
    sliced[0] = 0
    trace = run_stepwise(a, full_partition(inst.grid), ScriptedAdversary(tuple(omega.signals[0])))
    assert validate_trace(a, trace) == []
    return sliced[0]


def test_a_scripted_run_and_its_validation_slice_linearly_many_cells():
    # a run names its prefix as (disturbance, length) and validation skips comparing a signal with itself
    assert _cells_sliced_by_a_scripted_run(2000) <= 4 * _cells_sliced_by_a_scripted_run(500) + 100


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
            got = _outcome(lambda: run_exhaustive(a, delta, policy, seed, check))
            assert got == expected
            if isinstance(got, dict):  # the runs share one Step per node of the revelation tree
                assert len({id(s) for t in got.values() for s in t.steps}) == len(_revealed_prefixes(inst, delta))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_instances(max_omega=6, max_z=8), st.data())
def test_every_pick_matches_a_linear_replay(data, draw):
    """The admissible list handed to the policy is phi's run of the previous pick, in index order."""
    inst, a = data
    cuts = draw.draw(st.sets(st.integers(1, inst.grid.cells - 1)))
    delta = Partition((0, *sorted(cuts), inst.grid.cells))
    for policy, seed in [("lex", 0), ("random", 0), ("random", 7)]:
        expected = naive_replay(a, delta, policy, seed)
        stuck = [run[-1] for run in expected.values() if run[-1][0] == "stuck"]
        if stuck:
            with pytest.raises(ProcedureStuckError) as e:
                run_exhaustive(a, delta, policy, seed, check=False)
            assert ("stuck", e.value.step, e.value.omega) == stuck[0]
            continue
        traces = run_exhaustive(a, delta, policy, seed, check=False)
        assert {w: [(s.omega, s.h) for s in t.steps] for w, t in traces.items()} == expected
        assert all(t.consistent for t in traces.values())


@pytest.mark.parametrize("check", [True, False])
def test_exhaustive_composes_once(monkeypatch, check):
    inst, a = _ex4_at_optimum()
    calls = counting(monkeypatch, "compose_chain", [stepwise])
    assert len(run_exhaustive(a, Partition((0, 1, 3)), check=check)) == len(inst.omega) > 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the exhaustive run walks the revelation tree: one step per revealed prefix


def _revealed_prefixes(inst, delta):
    lens = [p.len for p in partition_to_chain(inst.grid, delta).prefixes]
    return {s[:n] for s in inst.omega.signals for n in lens}


def test_exhaustive_computes_one_step_per_revealed_prefix_on_ex4(monkeypatch):
    inst, a = _ex4_at_optimum()
    delta = Partition((0, 1, 3))
    computed = counting(monkeypatch, "Step", [stepwise])
    traces = run_exhaustive(a, delta)
    # both disturbances reveal ("0",) first, so they share the first step
    assert sum(len(t.steps) for t in traces.values()) == 4
    assert len(computed) == len(_revealed_prefixes(inst, delta)) == 3
    assert traces[0].steps[0] is traces[1].steps[0]


def test_exhaustive_computes_one_step_per_revealed_prefix_on_a_stepwise_shaped_file(monkeypatch):
    inst, a = random_instance(1, 100, 500, 8, alphabet=3, density=0.9)
    delta = Partition((0, 2, 4, 6, 8))
    expected = {
        w: run_stepwise(a, delta, ScriptedAdversary(s), check=False) for w, s in enumerate(inst.omega.signals)
    }
    computed = counting(monkeypatch, "Step", [stepwise])
    assert run_exhaustive(a, delta) == expected
    assert sum(len(t.steps) for t in expected.values()) == 400
    assert len(computed) == len(_revealed_prefixes(inst, delta)) == 260
    # deep paths: 120 binary cells split 20 disturbances within 7 cells, so nearly every node is one run's own
    inst, a = random_instance(1, 20, 50, 120, alphabet=2, density=0.9)
    delta = full_partition(inst.grid)
    for policy in ("lex", "random"):
        expected = {
            w: run_stepwise(a, delta, ScriptedAdversary(s), policy, 5, check=False)
            for w, s in enumerate(inst.omega.signals)
        }
        computed.clear()
        assert run_exhaustive(a, delta, policy, 5) == expected
        assert sum(len(t.steps) for t in expected.values()) == 2400
        assert len(computed) == len(_revealed_prefixes(inst, delta)) == 2335


def test_exhaustive_lex_steps_stop_once_a_disturbance_is_alone(monkeypatch):
    # past its last shared prefix a disturbance's class is itself, so every later lex pick is the one before
    steps = counting(monkeypatch, "_step", [stepwise])
    for cells in (200, 400):
        inst, a = random_instance(1, 4, 4, cells, 2, density=1.0)
        delta = full_partition(inst.grid)
        expected = {
            w: run_stepwise(a, delta, ScriptedAdversary(s), check=False) for w, s in enumerate(inst.omega.signals)
        }
        steps.clear()
        assert run_exhaustive(a, delta) == expected
        assert len(steps) <= len(inst.omega) * (inst.omega.prefix_index.deepest + 1)


def _splitting_instance():
    """Disturbances that share their first cells and then split; every trajectory is admissible."""
    g = grid(0, 1, 2, 3)
    cells = [("a", "a", "a"), ("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a"), ("a", "b", "b")]
    omega = SignalFamily(tuple(f"w{i}" for i in range(5)), tuple(cells))
    paths = list(itertools.product("xyz", repeat=3))
    z = SignalFamily(tuple(f"h{j}" for j in range(27)), tuple(paths))
    inst = Instance(g, omega, z)
    return inst, Multifunction(inst, [frozenset(range(27))] * 5)


def test_random_runs_that_leave_the_shared_path_pick_as_they_would_alone(monkeypatch):
    inst, a = _splitting_instance()
    delta = Partition((0, 1, 2, 3))
    computed = counting(monkeypatch, "Step", [stepwise])
    finals = set()
    for seed in range(21):
        alone = {
            w: run_stepwise(a, delta, ScriptedAdversary(s), "random", seed, check=False)
            for w, s in enumerate(inst.omega.signals)
        }
        computed.clear()
        assert run_exhaustive(a, delta, "random", seed) == alone
        assert len(computed) == len(_revealed_prefixes(inst, delta)) == 10 < 15
        finals.add(tuple(t.final_h for t in alone.values()))
    assert len(finals) > 1  # the seeds do steer the picks


def test_a_stuck_node_shared_by_two_disturbances_raises_as_the_first_scripted_run():
    g = grid(0, 1, 2)
    cells = [("b", "a"), ("a", "a"), ("b", "b"), ("a", "b")]
    omega = SignalFamily(("w0", "w1", "w2", "w3"), tuple(cells))
    z = SignalFamily(("h0", "h1"), (("x", "x"), ("y", "y")))
    inst = Instance(g, omega, z)
    # w1 and w3 reveal ("a",) first but want trajectories that split there: no choice serves both
    a = Multifunction(inst, [frozenset({0}), frozenset({0}), frozenset({0}), frozenset({1})])
    delta = Partition((0, 1, 2))
    for policy, seed in (("lex", 0), ("random", 0), ("random", 3)):
        scripted = []
        for s in inst.omega.signals:
            try:
                run_stepwise(a, delta, ScriptedAdversary(s), policy, seed, check=False)
            except ProcedureStuckError as e:
                scripted.append((str(e), e.step, e.omega))
        # w1 and w3 both get stuck at step 1, at the class's first member
        assert scripted == [("step 1: no admissible trajectory for w1", 1, 1)] * 2
        with pytest.raises(ProcedureStuckError) as err:
            run_exhaustive(a, delta, policy, seed)
        assert (str(err.value), err.value.step, err.value.omega) == scripted[0]


def test_random_walk_keeps_no_generator_state_per_node():
    inst, a = random_instance(3, n_omega=2000, n_z=30, n_cells=8, alphabet=3, density=1.0)
    delta = full_partition(inst.grid)
    assert len(_revealed_prefixes(inst, delta)) > 4000
    run_exhaustive(a, delta, "random", 5)  # warm-up: the prefix index's tables
    peaks = {}
    for policy in ("lex", "random"):
        tracemalloc.start()
        try:
            run_exhaustive(a, delta, policy, 5)
            peaks[policy] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one saved generator state is about 24 KB, so a state per node would need over 100 MB here
    assert peaks["random"] < 1.5 * peaks["lex"]


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
        ("w1", "w2"), (("a", "a"), ("b", "a"))
    )
    z = SignalFamily(("h1",), (("x", "x"),))
    inst = Instance(g, omega, z)
    tuples = sorted(enumerate_omega_delta(inst, Partition((0, 1, 2))))
    assert tuples == [(0, 0), (1, 1)]


def test_tuples_longer_than_the_recursion_limit_come_in_walk_order():
    # the two disturbances share only cell 0, so only the first entry is free
    n = 1100
    g = grid(*range(n + 1))
    omega = SignalFamily(
        ("w1", "w2"),
        (("a",) * n, ("a",) + ("b",) * (n - 1)),
    )
    z = SignalFamily(("h1",), (("x",) * n,))
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
    report = verify_witness([naive_top(inst)], delta, a)
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
