"""The plain value classes keep the value semantics of the dataclasses they
replace: the constructor, equality, the hash of the frozen ones, and repr.

Each class is compared with a dataclass over the same fields, built here
with `dataclasses.make_dataclass`, frozen where the class is a `Value`.
"""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction as F

import pytest

import nexfuz
from nexfuz.logics.metric import _Layer, _Lit
from nexfuz.logics.probabilistic import MassBound
from nexfuz.lp import EQ, Constraint, LinSystem, LpError
from nexfuz.metricspace import MetricSpace
from nexfuz.numerics import UNIT, Comp, Interval, NumericError
from nexfuz.onestep import Conclusion, SearchSuccess
from nexfuz.prop_tableau import Closed, One, Saturated, Two
from nexfuz.records import Record, Value
from nexfuz.sequents import Sequent
from nexfuz.solver import SolverCaps, Verdict
from nexfuz.syntax import parse

HALF = Interval.make(F(1, 2), 1)
S1 = Sequent([(parse("dia a"), HALF)])
S2 = Sequent([(parse("dia a"), UNIT)])
C1 = Conclusion(((UNIT,),), (F(1),))
C2 = Conclusion(((HALF,),), (F(1),))
ROW = Constraint((F(1),), Comp.LE, F(1, 2))
LIT = _Lit(0, "l", F(1), HALF)

# Per class, field values that differ from the first entry's in one field
# each, and for most classes an entry equal to the first, built afresh.
SAMPLES = {
    Closed: [("Ax",), ("Ax0",), ("Ax",)],
    One: [("Neg", S1), ("Drop0", S1), ("Neg", S2), ("Neg", Sequent([(parse("dia a"), HALF)]))],
    Two: [("Min", S1, S2), ("Neg", S1, S2), ("Min", S2, S2), ("Min", S1, S1)],
    Saturated: [(), ()],
    Conclusion: [
        (((UNIT,),), (F(1),)), (((HALF,),), (F(1),)), (((UNIT,),), (F(1, 2),)),
        (((Interval.make(0, 1),),), (F(2, 2),)),
    ],
    SearchSuccess: [(C1, [0]), (C2, [0]), (C1, [1]), (Conclusion(((UNIT,),), (F(1),)), [0])],
    SolverCaps: [(8,), (3,), (8,)],
    Verdict: [(True, None, None), (False, None, None), (True, None, "s0")],
    Constraint: [
        ((F(1),), Comp.LE, F(1, 2)), ((F(2),), Comp.LE, F(1, 2)), ((F(1),), EQ, F(1, 2)),
        ((F(1),), Comp.LE, F(1)), ((F(1),), Comp.LE, F(2, 4)),
    ],
    LinSystem: [(1, [ROW]), (2, [ROW]), (1, []), (1, [Constraint((1,), Comp.LE, "1/2")])],
    _Lit: [
        (0, "l", F(1), HALF), (1, "l", F(1), HALF), (0, "m", F(1), HALF),
        (0, "l", F(1, 2), HALF), (0, "l", F(1), UNIT),
    ],
    _Layer: [
        ([LIT], [LIT], {0: ["l"]}, {0: set()}, {0: []}),
        ([], [LIT], {0: ["l"]}, {0: set()}, {0: []}),
        ([LIT], [], {0: ["l"]}, {0: set()}, {0: []}),
        ([LIT], [LIT], {0: []}, {0: set()}, {0: []}),
        ([LIT], [LIT], {0: ["l"]}, {0: {"l"}}, {0: []}),
        ([LIT], [LIT], {0: ["l"]}, {0: set()}, {0: [0]}),
    ],
    MassBound: [(Comp.GT, F(1, 2)), (Comp.GE, F(1, 2)), (Comp.GT, F(1, 3)), (Comp.GT, F(2, 4))],
    MetricSpace: [
        (("l", "m"), ((F(0), F(1, 2)), (F(1, 2), F(0)))),
        (("m", "l"), ((F(0), F(1, 2)), (F(1, 2), F(0)))),
        (("l", "m"), ((F(0), F(1)), (F(1), F(0)))),
        (("l", "m"), ((F(0), F(2, 4)), (F(1, 2), F(0)))),
    ],
}


def reference(cls):
    fields = list(cls._fields)
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=issubclass(cls, Value))


def nexfuz_classes():
    """Every class defined in a `nexfuz` module."""
    for info in pkgutil.walk_packages(nexfuz.__path__, "nexfuz."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__qualname__)
class TestAgainstDataclass:
    def test_fields_and_repr(self, cls):
        ref = reference(cls)
        for values in SAMPLES[cls]:
            obj, twin = cls(*values), ref(*values)
            assert [getattr(obj, name) for name in cls._fields] == [
                getattr(twin, field.name) for field in dataclasses.fields(twin)
            ]
            assert repr(obj) == repr(twin)

    def test_equality(self, cls):
        ref = reference(cls)
        samples = SAMPLES[cls]
        for x in samples:
            for y in samples:
                assert (cls(*x) == cls(*y)) == (ref(*x) == ref(*y)), (x, y)
                assert (cls(*x) != cls(*y)) == (ref(*x) != ref(*y)), (x, y)

    def test_hash(self, cls):
        ref = reference(cls)
        for values in SAMPLES[cls]:
            if issubclass(cls, Value):
                assert hash(cls(*values)) == hash(ref(*values))
            else:
                with pytest.raises(TypeError):
                    hash(cls(*values))
                with pytest.raises(TypeError):
                    hash(ref(*values))

    def test_other_classes_are_unequal(self, cls):
        obj = cls(*SAMPLES[cls][0])
        assert obj != SAMPLES[cls][0] and obj != object()
        assert obj.__eq__(SAMPLES[cls][0]) is NotImplemented


class TestValues:
    def test_a_class_is_not_its_sibling(self):
        class Empty(Value):
            __slots__ = ()

        assert Saturated() != Empty() and Empty() == Empty()
        assert Closed("Ax") != One("Ax", S1)

    def test_constraint_reads_its_numbers_on_construction(self):
        row = Constraint([1, "1/2"], Comp.LE, "2/4")
        assert row == Constraint((F(1), F(1, 2)), Comp.LE, F(1, 2))
        assert hash(row) == hash(Constraint((F(1), F(1, 2)), Comp.LE, F(1, 2)))
        assert type(row.coeffs) is tuple and all(type(v) is F for v in (*row.coeffs, row.rhs))
        with pytest.raises(LpError, match="unknown relation"):
            Constraint((1,), "<>", 1)
        with pytest.raises(NumericError):
            Constraint((0.5,), Comp.LE, 1)
        with pytest.raises(NumericError):
            Constraint((1,), EQ, 0.5)

    def test_verdict_truth_and_defaults(self):
        assert bool(Verdict(True)) and not Verdict(False)
        verdict = Verdict(False)
        assert verdict.model is None and verdict.state is None
        assert Verdict(True, state="s0") == Verdict(True, None, "s0")

    def test_solver_caps_default(self):
        caps = SolverCaps()
        assert caps.max_layer_literals == 8 and caps == SolverCaps(8)
        caps.max_layer_literals = 3
        assert caps == SolverCaps(max_layer_literals=3)


class TestStructure:
    def test_only_models_and_stats_are_dataclasses(self):
        found = {cls.__qualname__ for cls in nexfuz_classes() if hasattr(cls, "__dataclass_fields__")}
        assert found == {"FiniteModel", "SolveStats"}

    def test_every_record_is_slotted(self):
        records = {cls for cls in nexfuz_classes() if issubclass(cls, Record)}
        assert records - {Record, Value} == set(SAMPLES)
        for cls in records:
            # No instance dictionary: every class up to `Record` declares
            # `__slots__`.
            assert cls.__dictoffset__ == 0, cls
            assert set(cls._fields) <= set(cls.__slots__), cls
