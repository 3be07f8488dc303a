"""The contract of the twelve immutable value classes, and a cold import.

Every value class is a record of its fields on one small base
(``starwick.algebra._Value``): construction as a call, equality within one
class, a hash over the fields, a ``Name(field=value, ...)`` repr,
immutability and pickling at every protocol, as the two slotted values,
``CoeffElement`` and ``Poly``, also pickle.  Importing the CLI loads none
of the modules that ``dataclasses`` would pull in.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from starwick import (
    AdjacencyMatrix,
    BernoulliGraph,
    CoeffElement,
    CoeffMonomial,
    FeynmanGraph,
    KernelGrid,
    Poly,
    PropagatorChangeTerm,
    PropagatorMatrix,
    PropagatorSymbol,
    QuadratureRule,
    TwoRowSSYT,
    VarMonomial,
    WickMonomialSpec,
    WickTheoremTerm,
)
from starwick.algebra import _Value

SRC = Path(__file__).resolve().parents[1] / "src"
PAIR = AdjacencyMatrix(((0, 1), (1, 0)))
K2 = PropagatorMatrix.family("K", 2)

# Per class: its fields, valid values for them, and the defaults.
CASES = {
    CoeffMonomial: (("hbar", "symbols"), (2, ((PropagatorSymbol("K", 1, 2), 3),)),
                    {"hbar": 0, "symbols": ()}),
    VarMonomial: (("items",), ((((0, 1), 2), ((1, 2), 1)),), {"items": ()}),
    AdjacencyMatrix: (("rows",), (((0, 2), (2, 0)),), {}),
    TwoRowSSYT: (("row1", "row2"), ((1, 1), (2, 3)), {}),
    PropagatorMatrix: (("dim", "entries"), (2, K2.entries), {}),
    PropagatorChangeTerm: (("coeff", "orders"), (CoeffElement.hbar(), ((1, 0), (0, 1))), {}),
    WickMonomialSpec: (("powers", "ordering", "product"),
                       ((1, 3), PropagatorMatrix.zero(2), K2), {}),
    WickTheoremTerm: (("matrix", "coeff", "orders"), (PAIR, CoeffElement.hbar(), (1, 1)), {}),
    KernelGrid: (("points", "kernel", "field", "hbar", "mode"),
                 (("a", "b"), ((1, Fraction(1, 2)), (0, -2)), (3, Fraction(-1, 3)),
                  Fraction(1, 2), "float"), {"mode": "rational"}),
    QuadratureRule: (("nodes", "weights"), ((("a",), ("b",)), (1, Fraction(1, 2))), {}),
    BernoulliGraph: (("boundary", "matrix"), (2, PAIR), {}),
    FeynmanGraph: (("vertices", "edges"), (3, ((1, 2, 1), (2, 3, 2))), {}),
}
CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


@CLASSES
def test_construction(cls):
    names, args, defaults = CASES[cls]
    value = cls(*args)
    assert fields_of(value, names) == args
    assert cls(**dict(zip(names, args))) == value
    assert cls(args[0], **dict(zip(names[1:], args[1:]))) == value
    required = len(names) - len(defaults)
    assert names[required:] == tuple(defaults)
    assert fields_of(cls(*args[:required]), names[required:]) == tuple(defaults.values())


@CLASSES
def test_missing_or_unknown_argument_is_a_type_error(cls):
    names, args, defaults = CASES[cls]
    required = len(names) - len(defaults)
    calls = [lambda: cls(*args, bogus=1), lambda: cls(*args, args[0]),
             lambda: cls(*args, **{names[0]: args[0]})]
    if required:
        calls.append(lambda: cls(*args[:required - 1]))
    for call in calls:
        with pytest.raises(TypeError, match=cls.__name__):
            call()


@CLASSES
def test_equal_fields_give_equal_values_and_hashes(cls):
    names, args, _ = CASES[cls]
    value, twin = cls(*args), cls(*copy.deepcopy(args))
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1


@CLASSES
def test_never_equal_to_another_class_with_the_same_fields(cls):
    names, args, _ = CASES[cls]
    value = cls(*args)
    other = type(cls.__name__, (_Value,), {"__annotations__": dict.fromkeys(names, "object")})
    sub = type(cls.__name__, (cls,), {})
    for stranger in (other(*args), sub(*args), args, args[0]):
        assert value != stranger and stranger != value
    assert fields_of(sub(*args), names) == args


@CLASSES
def test_assignment_and_deletion_refused(cls):
    names, args, _ = CASES[cls]
    value = cls(*args)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, args[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert fields_of(value, names) == args


@CLASSES
def test_repr(cls):
    names, args, _ = CASES[cls]
    body = ", ".join(f"{name}={arg!r}" for name, arg in zip(names, args))
    assert repr(cls(*args)) == f"{cls.__name__}({body})"


@CLASSES
def test_pickle_and_deepcopy_round_trip(cls):
    names, args, _ = CASES[cls]
    value = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and hash(back) == hash(value)
        assert fields_of(back, names) == args
    back = copy.deepcopy(value)
    assert back == value and hash(back) == hash(value) and fields_of(back, names) == args


@pytest.mark.parametrize("value", [
    CoeffElement.zero(), CoeffElement.hbar() * Fraction(-3, 2) + 1, Poly.zero(2), Poly.one(2),
    Poly.variable(1, 2) * CoeffElement.hbar() + Poly.variable(2, 2, block=1) * Fraction(1, 3),
], ids=["coeff-zero", "coeff", "poly-zero", "poly-one", "poly"])
def test_slotted_values_pickle_at_every_protocol(value):
    """``CoeffElement`` and ``Poly`` keep their fields in ``__slots__`` and
    pickle by their own state, the zero values included."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert str(back) == str(value)


def test_cold_import_loads_no_dataclasses():
    """``import starwick.cli`` runs at the start of every command, so it
    loads neither ``dataclasses`` nor the modules that it imports (those
    the interpreter loaded at start-up are not counted)."""
    code = ("import sys; before = set(sys.modules); import starwick.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
