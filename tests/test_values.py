"""The package's value types behave as frozen dataclasses: equality within
one class, hashing, repr text, immutability, construction, `match`
patterns, validation and copying."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import dyckperm
from dyckperm._insertion import ParkingFunction
from dyckperm.paths import DyckPath, WeightedDyckPath, slopes
from dyckperm.perms import AlternatingPermutation, membership_criteria
from dyckperm.verify import VerificationReport


def _uudd():
    return WeightedDyckPath(DyckPath("UUDD"), (0, 1, 1, 0))


# class name -> (a factory of equal values, a value of the same class that
# differs from them, the exact repr of the factory's value)
VALUES = {
    "DyckPath": (lambda: DyckPath("UUDD"), DyckPath("UDUD"), "DyckPath(steps='UUDD')"),
    "WeightedDyckPath": (
        _uudd, WeightedDyckPath(DyckPath("UUDD"), (0, 0, 1, 0)),
        "WeightedDyckPath(path=DyckPath(steps='UUDD'), weights=(0, 1, 1, 0))"),
    "SlopeDecomposition": (
        lambda: slopes(_uudd()), slopes(DyckPath("UUDD")),
        "SlopeDecomposition(up_slopes=(Slope(kind='U', start=1, length=2),), "
        "down_slopes=(Slope(kind='D', start=3, length=2),), peak_heights=(2,), "
        "valley_heights=(), peak_weights=((1, 1),), valley_weights=())"),
    "AlternatingPermutation": (
        lambda: AlternatingPermutation((1, 3, 2, 4)), AlternatingPermutation((1, 4, 2, 3)),
        "AlternatingPermutation(perm=(1, 3, 2, 4))"),
    "CriteriaBreakdown": (
        lambda: membership_criteria((1, 3, 2, 4)), membership_criteria((1, 2, 3, 4)),
        "CriteriaBreakdown(c1=True, c2=True, c3=True, c4=True)"),
    "ParkingFunction": (
        lambda: ParkingFunction((0, 0, 1)), ParkingFunction((0, 1, 1)),
        "ParkingFunction(values=(0, 0, 1))"),
    "VerificationReport": (
        lambda: VerificationReport("counts", (0, 3), 4, (), 0.5),
        VerificationReport("counts", (0, 3), 4, (), 0.25),
        "VerificationReport(suite='counts', n_range=(0, 3), checked=4, failures=(), "
        "elapsed=0.5)"),
}

FIELDS = {
    "DyckPath": ("steps",),
    "WeightedDyckPath": ("path", "weights"),
    "SlopeDecomposition": ("up_slopes", "down_slopes", "peak_heights", "valley_heights",
                           "peak_weights", "valley_weights"),
    "AlternatingPermutation": ("perm",),
    "CriteriaBreakdown": ("c1", "c2", "c3", "c4"),
    "ParkingFunction": ("values",),
    "VerificationReport": ("suite", "n_range", "checked", "failures", "elapsed"),
}

NAMES = list(VALUES)


def _fields(value):
    return tuple(getattr(value, f) for f in FIELDS[type(value).__name__])


@pytest.mark.parametrize("name", NAMES)
class TestValueTypes:
    def test_class_and_fields(self, name):
        value = VALUES[name][0]()
        assert type(value).__name__ == name
        assert type(value).__match_args__ == FIELDS[name]

    def test_equality(self, name):
        make, other, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != other and not a == other
        # another class, a plain tuple of the same fields, a string
        stranger = VALUES[NAMES[NAMES.index(name) - 1]][0]()
        for unlike in (stranger, _fields(a), repr(a)):
            assert a != unlike and unlike != a
            assert a.__eq__(unlike) is NotImplemented

    def test_hash(self, name):
        make, other, _ = VALUES[name]
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert {a, b, other} == {a, other} and len({a, b, other}) == 2
        assert {a: "a", other: "other"}[b] == "a"

    def test_repr(self, name):
        make, _, text = VALUES[name]
        assert repr(make()) == text

    def test_fields_cannot_be_set_or_deleted(self, name):
        a = VALUES[name][0]()
        before = _fields(a)
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(a, field))
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert _fields(a) == before

    def test_construction_by_position_and_keyword(self, name):
        a = VALUES[name][0]()
        cls, values = type(a), _fields(a)
        assert cls(*values) == a
        assert cls(**dict(zip(FIELDS[name], values))) == a

    def test_match_by_position(self, name):
        a = VALUES[name][0]()
        cls = type(a)
        match a:
            case cls(first):
                assert first == _fields(a)[0]
            case _:
                pytest.fail(f"{a!r} did not match {name}(first)")

    def test_copy_deepcopy_and_pickle(self, name):
        a = VALUES[name][0]()
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
            assert repr(twin) == repr(a)


def test_defaults():
    assert DyckPath() == DyckPath("") == DyckPath(steps="")
    assert WeightedDyckPath(DyckPath()) == WeightedDyckPath(DyckPath(""), ())
    assert repr(WeightedDyckPath(DyckPath())) == (
        "WeightedDyckPath(path=DyckPath(steps=''), weights=())")


def test_sequences_are_stored_as_tuples():
    assert WeightedDyckPath(DyckPath("UD"), [0, 0]).weights == (0, 0)
    assert type(WeightedDyckPath(DyckPath("UD"), [0, 0]).weights) is tuple
    assert type(AlternatingPermutation([1, 2]).perm) is tuple
    assert type(ParkingFunction([0, 0]).values) is tuple
    assert WeightedDyckPath(DyckPath("UD"), [0, 0]) == WeightedDyckPath(DyckPath("UD"), (0, 0))


@pytest.mark.parametrize("build, message", [
    (lambda: DyckPath("UDX"), "invalid step character 'X' at step 3"),
    (lambda: DyckPath("DU"), "path dips below ground at step 1"),
    (lambda: DyckPath("UUD"), "path does not return to ground level"),
    (lambda: WeightedDyckPath(DyckPath("UUDD"), (0,)), "4 steps but 1 weights"),
    (lambda: WeightedDyckPath(DyckPath("UD")), "2 steps but 0 weights"),
    (lambda: AlternatingPermutation((1, 1)), "not a permutation of 1..N"),
    (lambda: AlternatingPermutation((2, 1)), "permutation is not up-down"),
    (lambda: ParkingFunction((0, -1)), "value -1 at index 1 is not a non-negative integer"),
    (lambda: ParkingFunction((0, "a")), "value 'a' at index 1 is not a non-negative integer"),
    (lambda: ParkingFunction((0, 2)), "value 2 at index 1 exceeds 1"),
    (lambda: ParkingFunction((0, 1, 0)), "values decrease at index 2"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_trusted_equals_validated():
    trusted = WeightedDyckPath._trusted("UUDD", (0, 1, 1, 0))
    assert trusted == _uudd() and hash(trusted) == hash(_uudd())
    assert trusted.path == DyckPath("UUDD") and repr(trusted) == repr(_uudd())
    perm = AlternatingPermutation._trusted((1, 3, 2, 4))
    assert perm == AlternatingPermutation((1, 3, 2, 4))
    assert hash(perm) == hash(AlternatingPermutation((1, 3, 2, 4)))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a child process: pytest itself imports both
    src = os.path.dirname(os.path.dirname(dyckperm.__file__))
    code = "import sys, dyckperm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
