import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    ControlSystem,
    Partition,
    SignalFamily,
    TimeGrid,
    ValidationError,
    alpha_rho,
    build_example1,
    build_example2,
    build_example3,
    build_example4,
    build_scenario,
    compose_chain,
    example3_system,
    feasible,
    greatest_na,
    integrate,
    is_prefix_na,
    is_total,
    mf_le,
    optimal_rho,
    random_instance,
)
from naselect import cli, nonanticipation, scenarios
from naselect.fileio import instance_digest
from naselect.scenarios import EXAMPLE4_LEVELS, _control_family, _responses, example3_grid
from naselect.signals import PrefixIndex

from conftest import counting, naive_alpha_rho, naive_optimal_rho, naive_top


def test_integrate_on_the_catch_up_game():
    sys = example3_system(3)
    inst, _ = build_example3(3)
    u3 = inst.z.signals[2]
    v2 = inst.omega.signals[1]
    assert integrate(sys, u3, v2) == Fraction(1, 6)


def test_integrate_of_silence_returns_the_start():
    sys = example3_system(3)
    zero = ("0",) * sys.grid.cells
    assert integrate(sys, zero, zero) == sys.x0 == 0


def test_integrate_on_the_push_pull_system():
    sys = build_example4()
    u = ("1/2", "1", "1")
    v1 = sys.disturbances.signals[0]
    assert integrate(sys, u, v1) == Fraction(7, 2)


def test_integrate_is_linear_per_argument():
    sys = build_example4()
    v1, v2 = sys.disturbances.signals
    u_a = ("1/2", "0", "-1")
    u_b = ("-1", "1", "1/2")
    u_sum = tuple(str(Fraction(x) + Fraction(y)) for x, y in zip(u_a, u_b))
    zero = ("0",) * 3
    assert integrate(sys, u_sum, zero) == integrate(sys, u_a, zero) + integrate(sys, u_b, zero)
    assert integrate(sys, u_a, v1) == integrate(sys, u_a, zero) + integrate(sys, zero, v1)
    assert integrate(sys, u_a, v2) == integrate(sys, u_a, zero) + integrate(sys, zero, v2)


def test_integrate_rejects_symbolic_cells():
    sys = build_example4()
    with pytest.raises(ValidationError):
        integrate(sys, ("high", "0", "0"), sys.disturbances.signals[0])


# ---------------------------------------------------------------------------
# builders


def test_incomparable_instance_shape():
    inst, beta = build_example1()
    assert inst.omega.names == ("w1", "w2", "w3")
    assert inst.z.names == ("h1", "h2", "h3")
    assert not is_prefix_na(beta, 1).holds


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
    assert a.values == naive_top(inst).values
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
    assert is_prefix_na(w, 1).holds
    inst = w.instance
    for name, tail in (("v1", "1"), ("v2", "-1")):
        for j in w.values[inst.omega.index_of(name)]:
            cells = inst.z.signals[j]
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
EX4, EX3 = build_example4(), example3_system(3)
RHO_SYSTEMS = {
    "default": EX4,
    "coarse": build_example4((Fraction(-1), Fraction(0), Fraction(1))),
    "half": build_example4((Fraction(1, 2),)),
    "extremes": build_example4((Fraction(-1), Fraction(1))),
    **{f"quarters{k}": build_example4(random.Random(k).sample(QUARTERS, k)) for k in range(2, 10)},
    **{f"ex3:{n}": example3_system(n) for n in range(1, 4)},
    # nonzero start states, on equal unit cells and on the uneven truncation grid
    "x0:u+v": ControlSystem(EX4.grid, QUARTERS[::2], EX4.disturbances, "u+v", x0=Fraction(2, 3)),
    "x0:u-v": ControlSystem(EX4.grid, EX4.levels, EX4.disturbances, "u-v", x0=Fraction(-5, 4)),
    "x0:ex3:3": ControlSystem(
        example3_grid(3), EX3.levels, EX3.disturbances, "u-v", x0=Fraction(1, 7)
    ),
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


@pytest.mark.parametrize("name", RHO_SYSTEMS)
def test_cost_table_matches_pairwise_integration(name):
    sys = RHO_SYSTEMS[name]
    _, costs, orders, d = _responses(sys)
    z = _control_family(sys).signals
    ref = [[-abs(integrate(sys, u, v)) for u in z] for v in sys.disturbances.signals]
    table = [[Fraction(c, d) for c in row] for row in costs]
    assert all(type(c) is int for row in costs for c in row)
    assert table == ref
    assert [[str(c) for c in row] for row in table] == [[str(c) for c in row] for row in ref]
    for row, order in zip(costs, orders):
        assert sorted(order) == list(range(len(z)))
        assert all(row[i] <= row[j] for i, j in zip(order, order[1:]))


ORDER_SYSTEMS = {
    "default": EX4,
    **{f"quarters{k}": build_example4(random.Random(k).sample(QUARTERS, k)) for k in range(3, 10)},
    **{f"ex3:{n}": example3_system(n) for n in range(1, 5)},
}


@pytest.mark.parametrize("name", ORDER_SYSTEMS)
def test_response_orders_equal_the_stable_fraction_sort(name):
    _, costs, orders, d = _responses(ORDER_SYSTEMS[name])
    table = [[Fraction(c, d) for c in row] for row in costs]
    assert orders == [sorted(range(len(row)), key=row.__getitem__) for row in table]
    if name == "default":
        assert any(len(set(row)) < len(row) for row in table)  # ties, so stability shows


WIDTHS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(5, 4))
# level denominators 3, 7 and 11 are pairwise coprime, so the common denominator is their product
LEVELS = tuple(sorted({Fraction(k, q) for q in (1, 3, 7, 11) for k in range(-2, 3)}))
PAYLOADS = tuple(sorted({Fraction(k, q) for q in (1, 5, 13) for k in (-3, -1, 0, 1, 2)}))
STARTS = (Fraction(-5, 4), Fraction(1, 9), Fraction(2, 3), Fraction(-7, 13))


@st.composite
def control_systems(draw):
    """Up to 27 controls on 1-4 uneven cells, 1-3 disturbances, a nonzero start and either dynamics."""
    cells = draw(st.integers(1, 4))
    widths = draw(st.lists(st.sampled_from(WIDTHS), min_size=cells, max_size=cells))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3 if cells < 4 else 2, unique=True))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(PAYLOADS), min_size=cells, max_size=cells).map(tuple),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    disturbances = SignalFamily(
        tuple(f"v{i}" for i in range(len(rows))),
        tuple(tuple(map(str, row)) for row in rows),
    )
    return ControlSystem(
        TimeGrid(tuple(itertools.accumulate(widths, initial=Fraction(0)))),
        tuple(sorted(levels)),
        disturbances,
        draw(st.sampled_from(("u+v", "u-v"))),
        x0=draw(st.sampled_from(STARTS)),
    )


@given(control_systems(), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_int_cost_table_agrees_with_pairwise_integration_and_the_naive_search(sys, data):
    _, costs, orders, d = _responses(sys)
    z = _control_family(sys).signals
    assert all(type(c) is int for row in costs for c in row)
    table = [[Fraction(c, d) for c in row] for row in costs]
    assert table == [[-abs(integrate(sys, u, v)) for u in z] for v in sys.disturbances.signals]
    on = data.draw(st.sampled_from(sorted({c for row in table for c in row} | {Fraction(0)})))
    # 17, 19 and 23 divide no denominator above, so off * d is no int and the cut takes a floor
    step = Fraction(data.draw(st.integers(1, 3)), data.draw(st.sampled_from((17, 19, 23))))
    off = on - step
    assert off < 0 and (off * d).denominator != 1
    for rho in (on, off, on + step, math.floor(on), min(min(r) for r in table) - step):
        assert alpha_rho(sys, rho)[1].values == naive_alpha_rho(sys, rho)[1].values
    res, ref = optimal_rho(sys), naive_optimal_rho(sys)
    assert (res.rho_star, res.candidates) == (ref.rho_star, ref.candidates)
    assert res.witness.values == ref.witness.values


def test_ex4_fills_one_cost_table_without_pairwise_quadrature(monkeypatch):
    integrations = counting(monkeypatch, "integrate", [scenarios])
    tables = counting(monkeypatch, "_responses", [scenarios])
    families = counting(monkeypatch, "_control_family", [scenarios])
    for rho in (None, Fraction(-15, 4)):
        build_scenario("ex4", rho=rho)
        assert (len(tables), len(families)) == (1, 1)
        tables.clear()
        families.clear()
    optimal_rho(EX4)
    alpha_rho(EX4, Fraction(-3))
    assert integrations == []


def test_the_level_scan_packs_each_control_at_most_twice_per_row(monkeypatch):
    table = _responses(build_example4([Fraction(k, 14) for k in range(-14, 15)]))
    inst, costs, _, _ = table
    places = []
    pack_places = PrefixIndex.pack_places

    def counted(self, ps):
        ps = list(ps)
        places.append(len(ps))
        return pack_places(self, ps)

    monkeypatch.setattr(PrefixIndex, "pack_places", counted)
    res = scenarios._search(*table)
    monkeypatch.undo()
    assert sum(places) <= 2 * len(costs) * len(inst.z) and len(res.candidates) > 40
    # the scan's sets against each candidate's own cut at both ends of the scan
    assert res.witness.bits == greatest_na(scenarios._within(*table, res.rho_star)).bits
    assert not is_total(greatest_na(scenarios._within(*table, res.candidates[-1])))
    assert res.candidates[-2] == res.rho_star


@pytest.mark.parametrize("q", [14, 28, None])
def test_the_level_search_sweeps_about_log2_of_the_levels(monkeypatch, q):
    table = _responses(build_example4(EXAMPLE4_LEVELS if q is None else [Fraction(k, q) for k in range(-q, q + 1)]))
    levels = {c for row in table[1] for c in row} | {0}
    sweeps = counting(monkeypatch, "_narrowed", [nonanticipation])
    res = scenarios._search(*table)
    monkeypatch.undo()
    # 71, 141 and 11 levels: 6, 8 and 3 sweeps, where the downward scan swept 51, 100 and 9
    assert len(sweeps) <= math.ceil(math.log2(len(levels))) + 1 and len(res.candidates) > 8
    assert res == scenarios.RhoSearchResult(res.rho_star, res.candidates, greatest_na(scenarios._within(*table, res.rho_star)))


def test_feasibility_fails_below_the_optimum():
    sys = build_example4()
    res = optimal_rho(sys)
    below = res.candidates[-1]
    assert below < res.rho_star
    _, a = alpha_rho(sys, below)
    delta = Partition((0, 1, 3))
    ok, g = feasible(a, delta)
    assert not ok
    # the non-total composite comes back, as `InfeasibleError` carries it
    assert g == compose_chain(a, delta)
    assert not is_total(g)


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
    "ex4:-1,-3/4,-1/2,-1/4,0,1/4,1/2,3/4,1": "aad86d264f2a5c40d8a799b383f52114a7b5b33d9bda89d58e2e3e9f70116b9a",
    # "@" separates a --rho override from the scenario name
    "ex4@-15/4": "1c326559f896b918881e261a416878c20f69364438550ee1d233fbe5c686812d",
}


@pytest.mark.parametrize("name", RECORDED_DIGESTS)
def test_recorded_digest_for_the_reference_seed(name):
    scenario, _, rho = name.partition("@")
    inst, mf, _ = build_scenario(scenario, rho=Fraction(rho) if rho else None)
    assert instance_digest(inst, mf) == RECORDED_DIGESTS[name]


# Instance digests recorded while `random_instance` still built the exact power
# alphabet**n_cells, and the signal pools it enumerates (one per family): 2**12
# signals fit the pool path, 2**13 take the rejection draws.
POOL_BOUNDARY = {
    12: ("8c289a54f3551a4ad0bffbe0a59ddae713df31d5dd00d9caffc707ad5df3d9a2", 2),
    13: ("58e623062dedc02b6b8a7990cc612b5f6322808e9f7b6221a414a67f4636acc1", 0),
}


@pytest.mark.parametrize("cells", POOL_BOUNDARY)
def test_random_instance_pool_boundary(monkeypatch, cells):
    digest, pools = POOL_BOUNDARY[cells]
    built = counting(monkeypatch, "product", [scenarios.itertools])
    assert instance_digest(*random_instance(5, 3, 4, cells, 2)) == digest
    assert len(built) == pools
    with pytest.raises(ValidationError, match="2 tokens over 2 cells cannot hold 5 distinct signals"):
        random_instance(0, 5, 1, 2, 2)


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


def test_control_system_guards():
    sys = build_example4()
    with pytest.raises(ValidationError, match="^a control system needs at least one control level$"):
        ControlSystem(sys.grid, (), sys.disturbances, "u+v")
    with pytest.raises(ValidationError, match=r"^unknown dynamics 'u\*v'$"):
        ControlSystem(sys.grid, sys.levels, sys.disturbances, "u*v")
    with pytest.raises(ValidationError, match="^disturbance signals do not fit the grid$"):
        ControlSystem(TimeGrid((Fraction(0), Fraction(1))), sys.levels, sys.disturbances, "u+v")
    with pytest.raises(ValidationError, match="^signals do not fit the system grid$"):
        integrate(sys, ("0", "0"), sys.disturbances.signals[0])


def test_scenario_name_errors():
    for name in ("ex9", "ex3:x", "random:1", "random:1:2", "ex4:zz", "ex1:junk", "ex2:5", "ex1:", "ex4:"):
        with pytest.raises(ValidationError):
            build_scenario(name)
    with pytest.raises(ValidationError):
        build_scenario("ex1", rho=Fraction(1))


@pytest.mark.parametrize(
    "name,message",
    [
        ("ex1:junk", "ex1 takes no arguments, got 'junk'"),
        ("ex2:5", "ex2 takes no arguments, got '5'"),
        ("ex4:", "bad level list ''"),
        ("ex3:", "ex3 needs a truncation level, got ''"),
    ],
)
def test_the_cli_rejects_arguments_a_scenario_would_ignore(tmp_path, capsys, name, message):
    path = tmp_path / "out.json"
    assert cli.cli(["scenario", name, "--emit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not path.exists()


def test_rho_is_rejected_before_a_non_ex4_scenario_is_built(monkeypatch):
    def unbuilt(*a, **kw):
        raise AssertionError("built the instance")

    monkeypatch.setattr(scenarios, "random_instance", unbuilt)
    with pytest.raises(ValidationError, match="only ex4 scenarios take a rho level"):
        build_scenario("random:1:3,4,3", rho=Fraction(1))


def test_a_level_exponent_past_every_printable_level_is_refused_before_it_is_raised(monkeypatch):
    def unbuilt(*a, **kw):
        raise AssertionError("raised ten to the exponent")

    monkeypatch.setattr(scenarios, "Fraction", unbuilt)
    for text in ("1e4302", "-7E-4303", " 0.5e+99999999999 ", "0e1_000_000_000"):
        with pytest.raises(ValidationError) as e:
            scenarios.parse_level(text, f"rho {text!r}")
        assert str(e.value) == f"bad rho {text!r}: a level's numerator and denominator have at most 4300 digits"
    monkeypatch.undo()
    # the bound is on the reduced fraction: 35/10**4301 keeps a 4301-digit denominator, 5/10**4300 does not
    for text in ("1e4301", "-1e-4301", "3.5e-4300"):
        with pytest.raises(ValidationError, match="at most 4300 digits$"):
            scenarios.parse_level(text, "level")
    assert scenarios.parse_level("-5e-4300", "level") == Fraction(-1, 2 * 10**4299)


CAP = scenarios.MAX_SCENARIO_CELLS
# (spec, cells it would allocate): just over the cap, then far over it
OVERSIZED = [
    ("ex3:578", 2 * 578 * 579 + 578 * 578),
    ("ex3:100000000", 2 * 10**8 * (10**8 + 1) + 10**16),
    ("ex4:" + ",".join(str(Fraction(k, 29)) for k in range(-29, 30)), 5 * 59**3 + 6),
    ("random:1:1,1,499999,3", 2 * 499999 + 1 + 3),
    ("random:1:2,2,2,999993", 4 * 2 + 4 + 999993),
    ("random:1:3,4,10000000000", 7 * 10**10 + 12),
]


@pytest.mark.parametrize("spec,cells", OVERSIZED, ids=[s[:20] for s, _ in OVERSIZED])
def test_oversized_specs_are_rejected_before_anything_is_built(monkeypatch, spec, cells):
    def unbuilt(*a, **kw):
        raise AssertionError("built the instance")

    for builder in ("build_example3", "build_example4", "random_instance", "_responses"):
        monkeypatch.setattr(scenarios, builder, unbuilt)
    assert cells > CAP
    with pytest.raises(ValidationError, match=f"allocate {cells} cells.*at most {CAP} "):
        build_scenario(spec)


def test_the_cli_exits_two_on_an_oversized_spec(tmp_path, capsys):
    path = tmp_path / "big.json"
    assert cli.cli(["scenario", "ex3:578", "--emit", str(path)]) == 2
    assert f"allocate 1003408 cells, value-set entries and tokens; at most {CAP} " in capsys.readouterr().err
    assert not path.exists()


def test_specs_at_the_cap_still_build(monkeypatch):
    built = []
    monkeypatch.setattr(scenarios, "build_example3", lambda n: built.append(n) or (None, None))
    build_scenario("ex3:577")  # 2*577*578 + 577**2 = 999935 cells
    monkeypatch.setattr(scenarios, "random_instance", lambda *a, **kw: (None, None))
    build_scenario("random:1:2,2,2,999988")  # exactly the cap
    assert built == [577]
