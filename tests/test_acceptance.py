"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every check is exact (set equality, rational equality); there are no
tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from naselect import (
    InfeasibleError,
    Multifunction,
    Partition,
    ProcedureStuckError,
    alpha_rho,
    brute_greatest,
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    compose_chain,
    feasible,
    full_partition,
    is_chain_na,
    is_prefix_na,
    is_total,
    meet_of_projections,
    mf_le,
    mf_meet,
    optimal_rho,
    project,
    random_instance,
    run_exhaustive,
    verify_witness,
)

from conftest import (
    enumerate_na_multiselectors,
    fixpoint_iterate,
    mf_to_names,
    naive_join,
    partition_of,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def _named(mf):
    return {k: set(v) for k, v in mf_to_names(mf).items()}


def _draw_instance(seed, max_omega=4, max_z=6, max_cells=4):
    rng = random.Random(seed)
    n_cells = rng.randint(2, max_cells)
    alphabet = rng.choice([2, 3])
    cap = alphabet**n_cells
    n_omega = rng.randint(2, min(max_omega, cap))
    n_z = rng.randint(2, min(max_z, cap))
    density = rng.choice([0.25, 0.4, 0.5, 0.6, 0.75])
    return random_instance(seed, n_omega, n_z, n_cells, alphabet, density)


def _bits(a: Multifunction) -> int:
    return sum(len(v) for v in a.values)


def _instances(count, offset=0, max_bits=None):
    """The first `count` seeded draws, optionally capped for enumeration work."""
    out = []
    seed = offset
    while len(out) < count:
        seed += 1
        inst, a = _draw_instance(seed)
        if max_bits is not None and _bits(a) > max_bits:
            continue
        out.append((inst, a))
    return out


def _all_partitions(cells):
    for r in range(cells):
        for combo in itertools.combinations(range(1, cells), r):
            yield Partition((0,) + combo + (cells,))


def test_criterion_1_incomparable_projections():
    with criterion(1, "short and long projections match the expected tables and are incomparable"):
        _, beta = build_example1()
        short = project(beta, 1)
        long = project(beta, 2)
        assert _named(short) == {"w1": {"h1", "h2"}, "w2": {"h1", "h2"}, "w3": {"h2"}}
        assert _named(long) == {
            "w1": {"h1", "h2"},
            "w2": {"h2", "h3"},
            "w3": {"h2", "h3"},
        }
        assert not mf_le(short, long)
        assert not mf_le(long, short)


def test_criterion_2_noncommuting_projections():
    with criterion(2, "all four ramp tables match; orders differ; descending result is chain-na"):
        _, alpha = build_example2()
        g1 = project(alpha, 1)
        g2 = project(alpha, 2)
        g21 = project(g1, 2)
        g12 = project(g2, 1)
        assert _named(g1) == {
            "w11": {"h11", "h12", "h21", "h32", "h41"},
            "w12": {"h11", "h21", "h22", "h32", "h42"},
            "w21": {"h12", "h21", "h31", "h32", "h41"},
            "w22": {"h12", "h22", "h31", "h41", "h42"},
        }
        assert _named(g2) == {
            "w11": {"h10", "h11", "h12", "h21", "h32", "h41"},
            "w12": {"h22", "h42"},
            "w21": {"h12", "h21", "h30", "h31", "h32", "h41"},
            "w22": {"h22", "h42"},
        }
        assert _named(g21) == {
            "w11": {"h11", "h12", "h21", "h32", "h41"},
            "w12": {"h22", "h42"},
            "w21": {"h12", "h21", "h31", "h32", "h41"},
            "w22": {"h22", "h42"},
        }
        assert _named(g12) == {
            "w11": {"h21", "h41"},
            "w12": {"h22", "h42"},
            "w21": {"h21", "h41"},
            "w22": {"h22", "h42"},
        }
        assert g12.values != g21.values
        chain = partition_of(alpha.instance.grid, [1, 2])
        assert compose_chain(alpha, chain).values == g12.values
        assert is_chain_na(g12, chain).holds


def test_criterion_3_truncated_catch_up_game():
    with criterion(3, "truncation formulas, collapse identity, feasibility, shrinking meets"):
        rng = random.Random(20240803)
        for n in (2, 3, 5, 8):
            inst, a = build_example3(n)
            cells = inst.grid.cells  # n + 1
            # closed forms for every grid prefix
            assert project(a, 1).values == a.values
            for k in range(2, cells + 1):
                i = n + 2 - k
                expected = tuple(a.values[max(j, i) - 1] for j in range(1, n + 1))
                assert project(a, k).values == expected, (n, k)
            # collapse identity and feasibility on sampled partitions
            interior = list(range(1, cells))
            all_deltas = [
                Partition((0,) + combo + (cells,))
                for r in range(len(interior) + 1)
                for combo in itertools.combinations(interior, r)
            ]
            if len(all_deltas) > 20:
                deltas = rng.sample(all_deltas, 20)
            else:
                deltas = all_deltas
            for delta in deltas:
                composed = compose_chain(a, delta)
                collapse_at = min(i for i in delta.indices if i >= 2)
                assert composed.values == project(a, collapse_at).values, (n, delta)
                ok, witness = feasible(a, delta)
                assert ok and is_total(witness)
            # the meet over the first n prefix projections pins down one control
            running = a
            sizes = []
            for k in range(1, n + 1):
                running = mf_meet([running, project(a, k)])
                sizes.append(len(running.values[0]))
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[-1] == 1


def test_criterion_4_guaranteed_result_search():
    with criterion(4, "optimal level is exactly -7/2 with the committed half-push witness"):
        sys = build_example4()
        res = optimal_rho(sys)
        assert res.rho_star == Fraction(-7, 2)
        w = res.witness
        inst = w.instance
        assert is_total(w)
        assert is_prefix_na(w, 1).holds
        for name, tail in (("v1", "1"), ("v2", "-1")):
            entry = w.values[inst.omega.index_of(name)]
            assert entry
            for j in entry:
                cells = inst.z.signals[j]
                assert cells[0] == "1/2"
                assert all(c == tail for c in cells[1:])
        below = res.candidates[-1]
        assert below < res.rho_star
        _, a_below = alpha_rho(sys, below)
        ok, _ = feasible(a_below, Partition((0, 1, 3)))
        assert not ok


def test_criterion_5_oracle_equivalence():
    with criterion(5, "composition equals brute force on 50 instances, full chain and 3 sub-chains"):
        rng = random.Random(20240805)
        for inst, a in _instances(50, offset=0, max_bits=13):
            full = full_partition(inst.grid)
            assert compose_chain(a, full).values == brute_greatest(a, full).values
            lens = list(full.indices[1:])
            for _ in range(3):
                k = rng.randint(1, len(lens))
                sub = partition_of(inst.grid, rng.sample(lens, k))
                assert compose_chain(a, sub).values == brute_greatest(a, sub).values


def _capped_cases(count, offset):
    return _instances(count, offset=offset, max_bits=10)


def test_criterion_6_operator_laws():
    with criterion(6, "eight operator laws hold on 200 exact random cases each"):
        cases = 200

        # non-expansive, idempotent, fixed-point characterization
        for k, (inst, a) in enumerate(_instances(cases, offset=10_000)):
            p = 1 + k % inst.grid.cells
            g = project(a, p)
            assert mf_le(g, a)
            assert project(g, p).values == g.values
            assert is_prefix_na(a, p).holds == (g.values == a.values)

        # isotonicity in the multifunction argument
        for k, (inst, b) in enumerate(_instances(cases, offset=20_000)):
            rng = random.Random(k)
            a = Multifunction(
                inst, tuple(frozenset(j for j in v if rng.random() < 0.7) for v in b.values)
            )
            p = 1 + k % inst.grid.cells
            assert mf_le(project(a, p), project(b, p))

        # maximality against the enumerated multiselectors
        for k, (inst, a) in enumerate(_capped_cases(cases, offset=30_000)):
            p = 1 + k % inst.grid.cells
            g = project(a, p)
            for z in enumerate_na_multiselectors(a, partition_of(inst.grid, [p])):
                assert mf_le(z, g)

        # projecting at a shorter prefix preserves longer-prefix na
        for k, (inst, a) in enumerate(_instances(cases, offset=40_000)):
            cells = inst.grid.cells
            long = 2 + k % (cells - 1)
            short = 1 + k % (long - 1) if long > 1 else 1
            fixed = project(a, long)
            assert is_prefix_na(project(fixed, short), long).holds

        # join-closure of chain-na multiselectors
        for k, (inst, a) in enumerate(_capped_cases(cases, offset=50_000)):
            chain = full_partition(inst.grid)
            stream = list(enumerate_na_multiselectors(a, chain))
            rng = random.Random(k)
            picked = [z for z in stream if rng.random() < 0.5] or stream[:1]
            joined = naive_join(picked)
            assert mf_le(joined, a)
            assert is_chain_na(joined, chain).holds

        # a non-total meet of projections rules out total multiselectors
        for k, (inst, a) in enumerate(_capped_cases(cases, offset=60_000)):
            chain = full_partition(inst.grid)
            if is_total(meet_of_projections(a, chain)):
                continue
            for z in enumerate_na_multiselectors(a, chain):
                assert not is_total(z)


def _scenario_instances():
    out = [build_example1(), build_example2(), build_example3(2), build_example3(3), build_example3(5)]
    sys = build_example4()
    res = optimal_rho(sys)
    out.append(alpha_rho(sys, res.rho_star))
    out.append(alpha_rho(sys, res.candidates[-1]))
    return out


def test_criterion_7_feasibility_equivalences():
    with criterion(7, "feasibility, exhaustive stepwise success, and witness checks agree"):
        rng = random.Random(20240807)

        def check(inst, a, delta):
            ok, _ = feasible(a, delta)
            try:
                traces = run_exhaustive(a, delta, check=False)
                stepwise_ok = all(t.consistent for t in traces.values())
            except (ProcedureStuckError, InfeasibleError):
                stepwise_ok = False
            composed = compose_chain(a, delta)
            witness_ok = verify_witness([composed] * delta.steps, delta, a).ok
            assert ok == stepwise_ok == witness_ok, (inst.omega.names, delta)

        for inst, a in _scenario_instances():
            cells = inst.grid.cells
            deltas = list(_all_partitions(cells))
            if len(deltas) > 16:
                deltas = rng.sample(deltas, 16)
            for delta in deltas:
                check(inst, a, delta)

        for inst, a in _instances(50, offset=70_000):
            for delta in _all_partitions(inst.grid.cells):
                check(inst, a, delta)


def test_criterion_8_schedule_independence():
    with criterion(8, "all sweep schedules stabilize at the composition; descending needs one sweep"):
        for k, (inst, a) in enumerate(_instances(50, offset=80_000)):
            chain = full_partition(inst.grid)
            target = compose_chain(a, chain).values
            for schedule in ("ascending", "shuffled"):
                run = fixpoint_iterate(a, chain, schedule, seed=k)
                assert run.result.values == target
            run = fixpoint_iterate(a, chain, "descending")
            assert run.result.values == target
            expected_changes = 0 if is_chain_na(a, chain).holds else 1
            assert run.changed_sweeps == expected_changes
