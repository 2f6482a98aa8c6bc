import random
from fractions import Fraction

import pytest

from naselect import (
    Partition,
    Prefix,
    Signal,
    ValidationError,
    alpha_rho,
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    build_scenario,
    example3_system,
    feasible,
    full_multifunction,
    greatest_na,
    integrate,
    is_prefix_na,
    is_total,
    mf_le,
    optimal_rho,
    random_instance,
)
from naselect import scenarios
from naselect.fileio import instance_digest

from conftest import counting, naive_alpha_rho, naive_optimal_rho


def test_integrate_on_the_catch_up_game():
    sys = example3_system(3)
    inst, _ = build_example3(3)
    u3 = inst.z.signals[2]
    v2 = inst.omega.signals[1]
    assert integrate(sys, u3, v2) == Fraction(1, 6)


def test_integrate_of_silence_returns_the_start():
    sys = example3_system(3)
    zero = Signal(("0",) * sys.grid.cells)
    assert integrate(sys, zero, zero) == sys.x0 == 0


def test_integrate_on_the_push_pull_system():
    sys = build_example4()
    u = Signal(("1/2", "1", "1"))
    v1 = sys.disturbances.signals[0]
    assert integrate(sys, u, v1) == Fraction(7, 2)


def test_integrate_is_linear_per_argument():
    sys = build_example4()
    v1, v2 = sys.disturbances.signals
    u_a = Signal(("1/2", "0", "-1"))
    u_b = Signal(("-1", "1", "1/2"))
    u_sum = Signal(tuple(str(Fraction(x) + Fraction(y)) for x, y in zip(u_a.cells, u_b.cells)))
    zero = Signal(("0",) * 3)
    assert integrate(sys, u_sum, zero) == integrate(sys, u_a, zero) + integrate(sys, u_b, zero)
    assert integrate(sys, u_a, v1) == integrate(sys, u_a, zero) + integrate(sys, zero, v1)
    assert integrate(sys, u_a, v2) == integrate(sys, u_a, zero) + integrate(sys, zero, v2)


def test_integrate_rejects_symbolic_cells():
    sys = build_example4()
    with pytest.raises(ValidationError):
        integrate(sys, Signal(("high", "0", "0")), sys.disturbances.signals[0])


# ---------------------------------------------------------------------------
# builders


def test_incomparable_instance_shape():
    inst, beta = build_example1()
    assert inst.omega.names == ("w1", "w2", "w3")
    assert inst.z.names == ("h1", "h2", "h3")
    assert not is_prefix_na(beta, Prefix(1)).holds


def test_ramp_instance_shape():
    inst, alpha = build_example2()
    assert len(inst.omega) == 4
    assert len(inst.z) == 12
    assert [str(s) for s in inst.grid.stamps] == ["0", "1", "2", "3"]
    assert all(len(v) == 6 for v in alpha.values)


def test_truncation_values_are_upper_tails():
    for n in (1, 2, 5):
        inst, a = build_example3(n)
        assert len(inst.omega) == len(inst.z) == n
        for j in range(n):
            assert a.values[j] == frozenset(range(j, n))
        assert inst.grid.cells == n + 1
    with pytest.raises(ValidationError):
        build_example3(0)


def test_truncation_grid_stamps():
    inst, _ = build_example3(3)
    assert [str(s) for s in inst.grid.stamps] == ["0", "1", "4/3", "3/2", "2"]


def test_level_grid_shape_and_bounds():
    sys = build_example4()
    assert len(sys.levels) == 5
    inst, a = alpha_rho(sys, Fraction(0))
    assert len(inst.z) == 125
    assert a.values == full_multifunction(inst).values
    with pytest.raises(ValidationError):
        build_example4(())
    with pytest.raises(ValidationError):
        build_example4((Fraction(2),))


def test_optimal_level_with_default_grid():
    res = optimal_rho(build_example4())
    assert res.rho_star == Fraction(-7, 2)
    assert res.candidates[-2:] == (Fraction(-7, 2), Fraction(-4))
    w = res.witness
    assert is_total(w)
    assert is_prefix_na(w, Prefix(1)).holds
    inst = w.instance
    for name, tail in (("v1", "1"), ("v2", "-1")):
        for j in w.values[inst.omega.index_of(name)]:
            cells = inst.z.signals[j].cells
            assert cells[0] == "1/2"
            assert all(c == tail for c in cells[1:])


def test_optimal_level_with_coarse_grid():
    res = optimal_rho(build_example4((Fraction(-1), Fraction(0), Fraction(1))))
    assert res.rho_star == Fraction(-3)


def test_responses_grow_with_the_level():
    sys = build_example4()
    _, lo = alpha_rho(sys, Fraction(-4))
    _, hi = alpha_rho(sys, Fraction(-3))
    assert mf_le(lo, hi)
    assert mf_le(greatest_na(lo), greatest_na(hi))


QUARTERS = tuple(Fraction(k, 4) for k in range(-4, 5))
RHO_SYSTEMS = {
    "default": build_example4(),
    "coarse": build_example4((Fraction(-1), Fraction(0), Fraction(1))),
    "half": build_example4((Fraction(1, 2),)),
    "extremes": build_example4((Fraction(-1), Fraction(1))),
    **{f"quarters{k}": build_example4(random.Random(k).sample(QUARTERS, k)) for k in range(2, 10)},
    **{f"ex3:{n}": example3_system(n) for n in range(1, 4)},
}


@pytest.mark.parametrize("name", RHO_SYSTEMS)
def test_rho_search_agrees_with_per_candidate_integration(name):
    sys = RHO_SYSTEMS[name]
    res, ref = optimal_rho(sys), naive_optimal_rho(sys)
    assert res.rho_star == ref.rho_star
    assert res.candidates == ref.candidates
    assert res.witness.values == ref.witness.values
    for rho in res.candidates:
        assert alpha_rho(sys, rho)[1].values == naive_alpha_rho(sys, rho)[1].values


def test_rho_search_integrates_each_pair_once(monkeypatch):
    calls = counting(monkeypatch, "integrate", [scenarios])
    optimal_rho(build_example4())
    assert len(calls) == 125 * 2
    calls.clear()
    build_scenario("ex4")
    # one table for the search, one for the responses at the optimum
    assert len(calls) == 2 * 125 * 2


def test_feasibility_fails_below_the_optimum():
    sys = build_example4()
    res = optimal_rho(sys)
    below = res.candidates[-1]
    assert below < res.rho_star
    _, a = alpha_rho(sys, below)
    ok, _ = feasible(a, Partition((0, 1, 3)))
    assert not ok


# ---------------------------------------------------------------------------
# random generation


def test_same_seed_same_instance():
    a = random_instance(123, 4, 5, 3)
    b = random_instance(123, 4, 5, 3)
    assert instance_digest(*a) == instance_digest(*b)


RECORDED_DIGESTS = {
    "random:0:3,4,3": "94f01bd50847f9e8e941472ad2a723ac55de815310be73b42a718d77222798ab",
    "ex4": "7ac51af1cf27dc777514db705fa7808d9dc2cfa9726d955f71366394ae3f06b4",
    "ex4:-1,-3/4,-1/4,0,1/4,1/2,1": "359c7482d594b628dbd373a06c72e5e49ef1f7681d21737b6fce9e3aec830d1e",
}


@pytest.mark.parametrize("name", RECORDED_DIGESTS)
def test_recorded_digest_for_the_reference_seed(name):
    inst, mf, _ = build_scenario(name)
    assert instance_digest(inst, mf) == RECORDED_DIGESTS[name]


def test_density_extremes():
    inst, full = random_instance(9, 3, 4, 3, density=1.0)
    assert all(v == frozenset(range(4)) for v in full.values)
    _, none = random_instance(9, 3, 4, 3, density=0.0)
    assert all(not v for v in none.values)


def test_random_instance_guards():
    with pytest.raises(ValidationError):
        random_instance(0, 9, 4, 2, alphabet=2)  # only 4 distinct signals exist
    with pytest.raises(ValidationError):
        random_instance(0, 2, 2, 2, density=1.5)
    with pytest.raises(ValidationError):
        random_instance(0, 0, 2, 2)


# ---------------------------------------------------------------------------
# name dispatch


def test_scenario_names_resolve():
    for name in ("ex1", "ex2", "ex3:3", "ex4", "ex4:-1,0,1", "random:7:3,4,3"):
        inst, mf, meta = build_scenario(name)
        assert meta["scenario"] == name


def test_scenario_ex4_records_the_level():
    _, _, meta = build_scenario("ex4")
    assert meta["rho"] == "-7/2"
    _, _, meta = build_scenario("ex4", rho=Fraction(-1))
    assert meta["rho"] == "-1"


def test_scenario_name_errors():
    for name in ("ex9", "ex3:x", "random:1", "random:1:2", "ex4:zz"):
        with pytest.raises(ValidationError):
            build_scenario(name)
    with pytest.raises(ValidationError):
        build_scenario("ex1", rho=Fraction(1))


def test_rho_is_rejected_before_a_non_ex4_scenario_is_built(monkeypatch):
    def unbuilt(*a, **kw):
        raise AssertionError("built the instance")

    monkeypatch.setattr(scenarios, "random_instance", unbuilt)
    with pytest.raises(ValidationError, match="only ex4 scenarios take a rho level"):
        build_scenario("random:1:3,4,3", rho=Fraction(1))
