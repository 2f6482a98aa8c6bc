import pytest
from hypothesis import given, settings

from naselect import (
    Prefix,
    SignalFamily,
    ValidationError,
    build_example1,
    build_example2,
    random_instance,
    signal_classes,
)

from conftest import small_instances


def _names(inst, indices):
    return {inst.omega.names[i] for i in indices}


def _class(fam, idx, p):
    """The prefix index's class of member `idx` at `p`, checked to come in index order."""
    members = fam.prefix_index.classes(p.len)[fam.prefix_index.ids(p.len)[idx]]
    assert list(members) == sorted(members)
    return frozenset(members)


def test_ramp_disturbances_share_the_first_cell():
    inst, _ = build_example2()
    w11 = inst.omega.index_of("w11")
    w22 = inst.omega.index_of("w22")
    assert inst.omega.signals[w11][:1] == inst.omega.signals[w22][:1]


def test_ramp_classes_at_one_cell_cover_everything():
    inst, _ = build_example2()
    for idx in range(len(inst.omega)):
        assert _class(inst.omega, idx, Prefix(1)) == frozenset(range(4))


def test_ramp_classes_at_two_cells():
    inst, _ = build_example2()
    by_name = {
        name: _names(inst, _class(inst.omega, inst.omega.index_of(name), Prefix(2)))
        for name in inst.omega.names
    }
    assert by_name["w11"] == {"w11"}
    assert by_name["w21"] == {"w21"}
    assert by_name["w12"] == {"w12", "w22"}
    assert by_name["w22"] == {"w12", "w22"}


def test_distinct_signals_are_alone_at_full_length():
    inst, _ = build_example2()
    for idx in range(len(inst.omega)):
        assert _class(inst.omega, idx, Prefix(3)) == frozenset({idx})


def test_family_rejects_duplicates_and_mismatches():
    with pytest.raises(ValidationError):
        SignalFamily(("a", "b"), (("x",), ("x",)))
    with pytest.raises(ValidationError):
        SignalFamily(("a", "a"), (("x",), ("y",)))
    with pytest.raises(ValidationError):
        SignalFamily(("a",), (("x",), ("y",)))
    with pytest.raises(ValidationError):
        SignalFamily(("a", "b"), (("x",), ("y", "z")))
    with pytest.raises(ValidationError, match="^each signal must be a tuple of cells$"):
        SignalFamily(("a",), (["x"],))
    with pytest.raises(ValidationError, match="^a signal needs at least one cell$"):
        SignalFamily(("a",), ((),))
    with pytest.raises(ValidationError, match="^signal cells must be strings$"):
        SignalFamily(("a", "b"), (("x", "y"), ("x", 1)))
    for name in (1, ["a"]):
        with pytest.raises(ValidationError, match="^family names must be strings$"):
            SignalFamily((name,), (("x",),))
    for names, signals in ((["a"], (("x",),)), (("a",), [("x",)])):
        with pytest.raises(ValidationError, match="^family names and signals must be tuples$"):
            SignalFamily(names, signals)


def test_an_empty_family_is_rejected():
    with pytest.raises(ValidationError, match="^a signal family must not be empty$"):
        SignalFamily((), ())


def test_index_of_agrees_with_the_name_order():
    inst, _ = random_instance(3, 40, 60, 4, alphabet=3)
    for fam in (inst.omega, inst.z):
        assert [fam.index_of(n) for n in fam.names] == [fam.names.index(n) for n in fam.names]


def test_index_of_rejects_unknown_names():
    inst, _ = build_example2()
    with pytest.raises(ValidationError, match=r"^unknown name 'nope'$"):
        inst.omega.index_of("nope")
    with pytest.raises(ValidationError, match=r"^unknown name 'w11'$"):
        inst.z.index_of("w11")


def test_name_index_stays_out_of_equality_hash_and_repr():
    inst, _ = build_example2()
    fam = inst.omega
    twin = SignalFamily(tuple(fam.names), tuple(fam.signals))
    fam.prefix_index.classes(2)  # built and cached on one side only
    assert twin == fam and hash(twin) == hash(fam)
    assert "_index" not in repr(fam)
    assert repr(twin) == repr(fam)


@given(small_instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_longer_prefixes_refine_classes(data):
    inst, _ = data
    for idx in range(len(inst.omega)):
        previous = None
        for p in inst.grid.prefixes():
            cls = _class(inst.omega, idx, p)
            assert idx in cls
            if previous is not None:
                assert cls <= previous
            previous = cls


@given(small_instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_classes_partition_the_family(data):
    inst, _ = data
    for p in inst.grid.prefixes():
        classes = signal_classes(inst.omega, p)
        flat = [i for cls in classes for i in cls]
        assert sorted(flat) == list(range(len(inst.omega)))
        for cls in classes:
            for i in cls:
                assert _class(inst.omega, i, p) == frozenset(cls)


@given(small_instances())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_equal_restriction_means_same_class(data):
    inst, _ = data
    for p in inst.grid.prefixes():
        for i, s in enumerate(inst.omega.signals):
            for j, t in enumerate(inst.omega.signals):
                same = s[: p.len] == t[: p.len]
                assert same == (j in _class(inst.omega, i, p))
