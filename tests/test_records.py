"""The public record classes: repr text, equality and hash, immutability, and validation messages.

Each record is built twice, fresh, so equality and hash are compared across
distinct objects; a record's hash is the hash of its field values in order.
"""

import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from naselect import (
    ControlSystem,
    EnumBudget,
    Instance,
    InteractiveAdversary,
    Multifunction,
    NaReport,
    NaWitness,
    Partition,
    Prefix,
    PrefixChain,
    RhoSearchResult,
    ScriptedAdversary,
    SignalFamily,
    Step,
    StepTrace,
    TimeGrid,
    ValidationError,
    WitnessReport,
    grid,
)
from naselect.stepwise import WitnessViolation

GRID = "TimeGrid(stamps=(Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)))"
OMEGA = "SignalFamily(names=('w1', 'w2'), signals=(('a', 'b'), ('a', 'c')))"
Z = "SignalFamily(names=('h1',), signals=(('x', 'y'),))"
INSTANCE = f"Instance(grid={GRID}, omega={OMEGA}, z={Z})"
WITNESS = "NaWitness(prefix=Prefix(len=1), omega=0, omega_prime=1, key=('x',), key_holder=0)"
STEP = "Step(index=1, omega=0, h=0, omega_consistent=True, h_consistent=True, h_admissible=False)"
VIOLATION = "WitnessViolation(kind='empty-value', step=1, omegas=(0, 0), detail='empty value at w1')"


def omega():
    return SignalFamily(("w1", "w2"), (("a", "b"), ("a", "c")))


def z():
    return SignalFamily(("h1",), (("x", "y"),))


def inst():
    return Instance(grid(0, 1, 2), omega(), z())


def mf(*values):
    return Multifunction(inst(), values or ({0}, ()))


def witness(key_holder=0):
    return NaWitness(Prefix(1), 0, 1, ("x",), key_holder)


def step(h_admissible=False):
    return Step(1, 0, 0, True, True, h_admissible)


def violation(step=1):
    return WitnessViolation("empty-value", step, (0, 0), "empty value at w1")


def system(dynamics="u+v"):
    return ControlSystem(grid(0, 1, 2), (Fraction(0), Fraction(1)), omega(), dynamics)


# name: (a fresh record, its repr, its fields in order, a fresh record that differs in one field)
RECORDS = {
    "Prefix": (lambda: Prefix(3), "Prefix(len=3)", ("len",), lambda: Prefix(4)),
    "TimeGrid": (lambda: grid(0, 1, 2), GRID, ("stamps",), lambda: grid(0, 1, 3)),
    "Partition": (
        lambda: Partition((0, 1, 2)), "Partition(indices=(0, 1, 2))", ("indices",), lambda: Partition((0, 2)),
    ),
    "PrefixChain": (
        lambda: PrefixChain((Prefix(1), Prefix(2))),
        "PrefixChain(prefixes=(Prefix(len=1), Prefix(len=2)))",
        ("prefixes",),
        lambda: PrefixChain((Prefix(2),)),
    ),
    "SignalFamily": (
        omega, OMEGA, ("names", "signals"), lambda: SignalFamily(("w1", "w3"), (("a", "b"), ("a", "c"))),
    ),
    "Instance": (inst, INSTANCE, ("grid", "omega", "z"), lambda: Instance(grid(0, 1, 2), omega(), omega())),
    "Multifunction": (
        mf, f"Multifunction(instance={INSTANCE}, bits=(1, 0))", ("instance", "bits"), lambda: mf({0}, {0}),
    ),
    "NaWitness": (
        witness, WITNESS, ("prefix", "omega", "omega_prime", "key", "key_holder"), lambda: witness(key_holder=1),
    ),
    "NaReport": (
        lambda: NaReport(False, witness()), f"NaReport(holds=False, witness={WITNESS})", ("holds", "witness"),
        lambda: NaReport(True),
    ),
    "EnumBudget": (
        EnumBudget, "EnumBudget(max_multiselectors=4194304)", ("max_multiselectors",), lambda: EnumBudget(5),
    ),
    "ControlSystem": (
        system,
        f"ControlSystem(grid={GRID}, levels=(Fraction(0, 1), Fraction(1, 1)), disturbances={OMEGA}, "
        "dynamics='u+v', x0=Fraction(0, 1))",
        ("grid", "levels", "disturbances", "dynamics", "x0"),
        lambda: system("u-v"),
    ),
    "RhoSearchResult": (
        lambda: RhoSearchResult(Fraction(-1, 2), (Fraction(0), Fraction(-1, 2)), mf()),
        "RhoSearchResult(rho_star=Fraction(-1, 2), candidates=(Fraction(0, 1), Fraction(-1, 2)), "
        f"witness=Multifunction(instance={INSTANCE}, bits=(1, 0)))",
        ("rho_star", "candidates", "witness"),
        lambda: RhoSearchResult(Fraction(0), (Fraction(0), Fraction(-1, 2)), mf()),
    ),
    "ScriptedAdversary": (
        lambda: ScriptedAdversary(("a", "b")), "ScriptedAdversary(signal=('a', 'b'))", ("signal",),
        lambda: ScriptedAdversary(("a", "c")),
    ),
    "Step": (
        step, STEP, ("index", "omega", "h", "omega_consistent", "h_consistent", "h_admissible"),
        lambda: step(h_admissible=True),
    ),
    "StepTrace": (
        lambda: StepTrace(Partition((0, 2)), (step(),), 0),
        f"StepTrace(delta=Partition(indices=(0, 2)), steps=({STEP},), final_h=0)",
        ("delta", "steps", "final_h"),
        lambda: StepTrace(Partition((0, 2)), (step(),), 1),
    ),
    "WitnessViolation": (violation, VIOLATION, ("kind", "step", "omegas", "detail"), lambda: violation(step=2)),
    "WitnessReport": (
        lambda: WitnessReport(False, violation()), f"WitnessReport(ok=False, violation={VIOLATION})",
        ("ok", "violation"), lambda: WitnessReport(True),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_prints_compares_and_hashes_by_its_fields(name):
    make, text, fields, other = RECORDS[name]
    rec, again = make(), make()
    assert type(rec).__name__ == name and rec is not again
    assert repr(rec) == text
    assert rec == again and not rec != again
    assert hash(rec) == hash(again) == hash(tuple(getattr(rec, f) for f in fields))
    assert rec != other() and not rec == other()
    assert rec != 3 and rec != object()


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment_to_a_field(name):
    make, _, fields, _ = RECORDS[name]
    rec = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, getattr(rec, f))
    assert rec == make()


def test_an_interactive_adversary_is_a_mutable_record_read_from_the_streams_at_construction(monkeypatch):
    infile, err = io.StringIO(), io.StringIO()
    adv = InteractiveAdversary(inst(), infile, err)
    assert repr(adv) == f"InteractiveAdversary(instance={INSTANCE}, infile={infile!r}, err={err!r})"
    assert adv == InteractiveAdversary(inst(), infile, err)
    assert adv != InteractiveAdversary(inst(), infile, io.StringIO())
    with pytest.raises(TypeError):
        hash(adv)
    adv.err = infile
    assert adv.err is infile and adv == InteractiveAdversary(inst(), infile, infile)
    monkeypatch.setattr(sys, "stdin", infile)
    monkeypatch.setattr(sys, "stderr", err)
    default = InteractiveAdversary(inst())
    assert default.infile is infile and default.err is err


def _signals(names, signals):
    return lambda: SignalFamily(names, signals)


INVALID = {
    "prefix": (lambda: Prefix(0), "prefix length must be positive, got 0"),
    "grid-one-stamp": (lambda: TimeGrid((Fraction(0),)), "a grid needs at least two stamps"),
    "grid-order": (lambda: grid(0, 2, 1), "grid stamps must be strictly increasing (2 before 1)"),
    "partition-short": (lambda: Partition((0,)), "a partition needs at least two stamp indices"),
    "partition-start": (lambda: Partition((1, 2)), "a partition must start at stamp index 0"),
    "partition-order": (lambda: Partition((0, 2, 2)), "partition indices must be strictly increasing"),
    "chain-empty": (lambda: PrefixChain(()), "a prefix chain must not be empty"),
    "chain-order": (lambda: PrefixChain((Prefix(2), Prefix(1))), "chain prefixes must strictly increase"),
    "family-lists": (_signals(["w"], (("a",),)), "family names and signals must be tuples"),
    "family-empty": (_signals((), ()), "a signal family must not be empty"),
    "family-names": (_signals(("w1", "w2"), (("a",),)), "family needs exactly one name per signal"),
    "family-name-type": (_signals((1,), (("a",),)), "family names must be strings"),
    "family-unique": (_signals(("w", "w"), (("a",), ("b",))), "family names must be unique"),
    "family-signal-type": (_signals(("w",), (["a"],)), "each signal must be a tuple of cells"),
    "family-lengths": (_signals(("w1", "w2"), (("a",), ("a", "b"))), "all signals of a family must have the same length"),
    "family-no-cell": (_signals(("w",), ((),)), "a signal needs at least one cell"),
    "family-cell-type": (_signals(("w",), ((1,),)), "signal cells must be strings"),
    "family-duplicate": (_signals(("w1", "w2"), (("a",), ("a",))), "duplicate signals are not allowed"),
    "instance-omega": (lambda: Instance(grid(0, 1), omega(), z()), "disturbance signals have 2 cells, the grid has 1"),
    "instance-z": (
        lambda: Instance(grid(0, 1, 2), omega(), SignalFamily(("h",), (("x",),))),
        "trajectory signals have 1 cells, the grid has 2",
    ),
    "mf-count": (lambda: mf({0}), "multifunction needs exactly one value set per disturbance"),
    "mf-range": (lambda: mf({1}, ()), "trajectory index 1 out of range 0..0"),
    "mf-bool": (lambda: mf({True}, ()), "trajectory index True out of range 0..0"),
    "budget": (lambda: EnumBudget(0), "budget must be positive"),
    "system-levels": (
        lambda: ControlSystem(grid(0, 1, 2), (), omega(), "u+v"), "a control system needs at least one control level",
    ),
    "system-dynamics": (lambda: system("u*v"), "unknown dynamics 'u*v'"),
    "system-grid": (
        lambda: ControlSystem(grid(0, 1), (Fraction(0),), omega(), "u+v"), "disturbance signals do not fit the grid",
    ),
}


@pytest.mark.parametrize("case", INVALID)
def test_a_record_that_breaks_a_rule_raises_its_message(case):
    make, message = INVALID[case]
    with pytest.raises(ValidationError) as e:
        make()
    assert str(e.value) == message


def test_a_report_holds_exactly_when_it_has_no_witness():
    with pytest.raises(AssertionError):
        NaReport(True, witness())
    with pytest.raises(AssertionError):
        NaReport(False)
    assert NaReport(True) and NaReport(True).witness is None
    assert not NaReport(False, witness())


def test_prefixes_order_by_length():
    assert sorted([Prefix(3), Prefix(1), Prefix(2)]) == [Prefix(1), Prefix(2), Prefix(3)]
    assert Prefix(1) < Prefix(2) <= Prefix(2) and Prefix(3) > Prefix(2) >= Prefix(2)
    assert max(Prefix(2), Prefix(5)) == Prefix(5)
    with pytest.raises(TypeError):
        Prefix(1) < 2


def test_a_record_is_a_tuple_of_its_fields():
    trace = StepTrace(Partition((0, 2)), (step(),), 0)
    delta, steps, final_h = trace
    assert (delta, steps, final_h) == (Partition((0, 2)), (step(),), 0) and len(trace) == 3
    assert trace == (Partition((0, 2)), (step(),), 0) and Prefix(3) == (3,)
    assert trace._replace(final_h=1) == StepTrace(Partition((0, 2)), (step(),), 1)
    assert type(Prefix(3)._replace(len=4)) is Prefix


REPLACED = {
    "prefix": (lambda: Prefix(3)._replace(len=0), "prefix length must be positive, got 0"),
    "grid": (
        lambda: grid(0, 1)._replace(stamps=(Fraction(1), Fraction(0))), "grid stamps must be strictly increasing (1 before 0)",
    ),
    "partition": (lambda: Partition((0, 1))._replace(indices=(1, 2)), "a partition must start at stamp index 0"),
    "chain": (lambda: PrefixChain((Prefix(1),))._replace(prefixes=()), "a prefix chain must not be empty"),
    "instance": (lambda: inst()._replace(grid=grid(0, 1)), "disturbance signals have 2 cells, the grid has 1"),
    "budget": (lambda: EnumBudget()._replace(max_multiselectors=0), "budget must be positive"),
    "system": (lambda: system()._replace(dynamics="u*v"), "unknown dynamics 'u*v'"),
}


@pytest.mark.parametrize("case", REPLACED)
def test_replace_checks_what_the_constructor_checks(case):
    make, message = REPLACED[case]
    with pytest.raises(ValidationError) as e:
        make()
    assert str(e.value) == message


def test_a_report_replaced_keeps_its_witness_rule():
    with pytest.raises(AssertionError):
        NaReport(False, witness())._replace(holds=True)


def test_importing_the_command_line_defines_no_dataclass():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys; sys.path.insert(0, sys.argv[1]); import naselect.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
