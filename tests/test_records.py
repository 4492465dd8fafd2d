"""The contract every record class keeps: value equality within one class,
a hash equal to the hash of the compared fields, the dataclass-style repr,
immutability, and the validation each one runs on construction."""

import types

import pytest

from magicsq._record import record
from magicsq.cgmb import BlockDescriptor, Decomposition, MotiveTerm
from magicsq.jinv import JProfile
from magicsq.magictables import (
    GroupConditionRow,
    MagicCell,
    RostCondition,
    TitsConstructionRow,
    TitsIndexCase,
)
from magicsq.poincare import FlagVariety
from magicsq.polyring import IntPoly
from magicsq.qform import CompositionAlgebraR, DiagFormR
from magicsq.rootsys import CartanType, DiagramAut
from magicsq.verify import CheckResult, VerifyReport
from magicsq.weyl import DoubleCosetCell

from _reference import WeylElement

E6 = "CartanType(series='E', rank=6, outer_twist=1)"
CHECK = "CheckResult(name='n', claim='c', expected=3, actual=3, passed=True, runtime_ms=0.5)"

# (class, constructor arguments, compared field names, exact repr)
RECORDS = [
    (CartanType, ("E", 6), ("series", "rank", "outer_twist"), E6),
    (DiagramAut, ((2, 1),), ("node_permutation",), "DiagramAut(node_permutation=(2, 1))"),
    # the tests' reference element: a record outside the package
    (WeylElement, ((-2, 1),), ("action",), "WeylElement(action=(-2, 1))"),
    (
        DoubleCosetCell,
        (1, (-2, 1), 3, True),
        ("length", "simple_images", "orbit_size", "star_invariant"),
        "DoubleCosetCell(length=1, simple_images=(-2, 1), orbit_size=3, star_invariant=True)",
    ),
    (
        FlagVariety,
        (CartanType("E", 6), {1, 6}),
        ("ambient", "parabolic_type"),
        f"FlagVariety(ambient={E6}, parabolic_type=frozenset({{1, 6}}))",
    ),
    (
        MotiveTerm,
        ("upper", 2, IntPoly((1, 0, 0, 1))),
        ("kind", "shift", "block"),
        "MotiveTerm(kind='upper', shift=2, block=IntPoly([1, 0, 0, 1]))",
    ),
    (
        Decomposition,
        (IntPoly((1, 1)), (MotiveTerm("tate", 0),)),
        ("total", "terms"),
        "Decomposition(total=IntPoly([1, 1]), "
        "terms=(MotiveTerm(kind='tate', shift=0, block=None),))",
    ),
    (
        BlockDescriptor,
        ("cor-quadratic", "cor-quadratic", IntPoly((2,))),
        ("name", "kind", "poly"),
        "BlockDescriptor(name='cor-quadratic', kind='cor-quadratic', poly=IntPoly([2]))",
    ),
    (
        JProfile,
        ("2E6", (3, 6, 12), (1, 1, 1), (1, 0, 0)),
        ("group_label", "degrees", "caps", "values"),
        "JProfile(group_label='2E6', degrees=(3, 6, 12), caps=(1, 1, 1), values=(1, 0, 0))",
    ),
    (
        MagicCell,
        ("octonion", "octonion", "E8", 30),
        ("row_label", "col_label", "group_type", "invariant_degree"),
        "MagicCell(row_label='octonion', col_label='octonion', group_type='E8', "
        "invariant_degree=30)",
    ),
    (
        GroupConditionRow,
        ("E7", 4, (1,), (4,), "c", "e", None),
        (
            "group",
            "degree",
            "j_values",
            "j_degrees",
            "condition",
            "equivalent_condition",
            "parabolic",
        ),
        "GroupConditionRow(group='E7', degree=4, j_values=(1,), j_degrees=(4,), "
        "condition='c', equivalent_condition='e', parabolic=None)",
    ),
    (
        TitsIndexCase,
        (RostCondition.ZERO, frozenset({2}), "D4", True, False),
        ("rost_condition", "circled_nodes", "kernel_type", "quasi_split", "impossible"),
        "TitsIndexCase(rost_condition=<RostCondition.ZERO: 'zero'>, "
        "circled_nodes=frozenset({2}), kernel_type='D4', quasi_split=True, "
        "impossible=False)",
    ),
    (
        TitsConstructionRow,
        ("F4", "Tits", "J", "a", "=", "b", 3, "a = b"),
        (
            "group",
            "construction",
            "inputs",
            "condition_lhs",
            "condition_relation",
            "condition_rhs",
            "invariant_degree",
            "condition_text",
        ),
        "TitsConstructionRow(group='F4', construction='Tits', inputs='J', "
        "condition_lhs='a', condition_relation='=', condition_rhs='b', "
        "invariant_degree=3, condition_text='a = b')",
    ),
    (DiagFormR, (3, 1), ("pos", "neg"), "DiagFormR(pos=3, neg=1)"),
    (
        CompositionAlgebraR,
        ("octonion", False),
        ("kind", "definite"),
        "CompositionAlgebraR(kind='octonion', definite=False)",
    ),
    (
        CheckResult,
        ("n", "c", 3, 3, True, 0.5),
        ("name", "claim", "expected", "actual", "passed", "runtime_ms"),
        CHECK,
    ),
    (
        VerifyReport,
        ((CheckResult("n", "c", 3, 3, True, 0.5),),),
        ("checks",),
        f"VerifyReport(checks=({CHECK},))",
    ),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_class_is_covered():
    # the package's 16 and the reference's WeylElement
    assert len(set(IDS)) == len(IDS) == 17


@pytest.mark.parametrize("cls,args,fields,text", RECORDS, ids=IDS)
def test_record_equality_is_per_class(cls, args, fields, text):
    x, y = cls(*args), cls(*args)
    assert x == y and not x != y
    values = tuple(getattr(x, f) for f in fields)
    lookalike = types.SimpleNamespace(**dict(zip(fields, values)))
    assert x.__eq__(lookalike) is NotImplemented
    assert x != lookalike and lookalike != x
    assert x != values


@pytest.mark.parametrize("cls,args,fields,text", RECORDS, ids=IDS)
def test_record_hash_is_hash_of_compared_fields(cls, args, fields, text):
    x = cls(*args)
    assert hash(x) == hash(cls(*args)) == hash(tuple(getattr(x, f) for f in fields))


@pytest.mark.parametrize("cls,args,fields,text", RECORDS, ids=IDS)
def test_record_repr(cls, args, fields, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,args,fields,text", RECORDS, ids=IDS)
def test_record_is_immutable(cls, args, fields, text):
    x = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


def test_record_keyword_construction_and_defaults():
    assert CartanType("E", 6) == CartanType(series="E", rank=6, outer_twist=1)
    assert CartanType("E", 6).outer_twist == 1
    assert MotiveTerm("tate", 3).block is None
    assert MagicCell(
        col_label="b", row_label="a", group_type="G2", invariant_degree=2
    ) == MagicCell("a", "b", "G2", 2)
    for bad in (
        lambda: CartanType(),
        lambda: CartanType("E"),
        lambda: CartanType("E", 6, 1, 1),
        lambda: CartanType("E", 6, rank=6),
        lambda: CartanType("E", 6, twist=2),
    ):
        with pytest.raises(TypeError):
            bad()


def test_record_refuses_a_required_field_after_a_default():
    class Bad:
        a: int = 0
        b: int

    with pytest.raises(TypeError, match="without a default follows a default"):
        record(Bad)


def test_flag_variety_freezes_its_node_set():
    fv = FlagVariety(CartanType("E", 6), [6, 1, 6])
    assert fv.parabolic_type == frozenset({1, 6})
    assert type(fv.parabolic_type) is frozenset


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: CartanType("E", 9), "invalid Dynkin type E9"),
        (lambda: CartanType("Q", 2), "invalid Dynkin type Q2"),
        (lambda: CartanType("A", 3, 3), "outer twist must be 1 or 2, got 3"),
        (lambda: CartanType("B", 3, 2), "type B3 has no diagram involution"),
        (lambda: CartanType("A", 1, 2), "type A1 has no diagram involution"),
        (lambda: CartanType("E", 7, 2), "type E7 has no diagram involution"),
        (
            lambda: FlagVariety(CartanType("E", 6), ()),
            "parabolic type must be a nonempty node set",
        ),
        (
            lambda: FlagVariety(CartanType("E", 6), {0, 7}),
            r"nodes \[0, 7\] not within 1..6",
        ),
        (
            lambda: JProfile("E7", (2, 3), (1,), (0,)),
            "degrees, caps and values must have equal length",
        ),
        (lambda: JProfile("E7", (0,), (1,), (0,)), "degrees must be positive"),
        (
            lambda: JProfile("F4", (3,), (1,), (2,)),
            r"value vector \(2,\) violates bounds \(1,\)",
        ),
        (
            lambda: JProfile("2E6", (3, 6, 12), (1, 1, 1), (0, 1, 0)),
            r"value vector \(0, 1, 0\) violates the 2E6 monotonicity chain",
        ),
        (lambda: MotiveTerm("lower", 0), "unknown motive term kind 'lower'"),
        (lambda: MotiveTerm("tate", -1), "shift must be nonnegative"),
        (lambda: MotiveTerm("upper", 0), "upper block requires a nonzero polynomial"),
        (
            lambda: MotiveTerm("upper", 0, IntPoly()),
            "upper block requires a nonzero polynomial",
        ),
        (
            lambda: MotiveTerm("tate", 0, IntPoly((1,))),
            "tate term carries no polynomial",
        ),
        (lambda: DiagFormR(-1, 0), "entry counts must be nonnegative"),
        (lambda: DiagFormR(0, -1), "entry counts must be nonnegative"),
        (
            lambda: CompositionAlgebraR("sedenion", True),
            "unknown composition algebra kind 'sedenion'",
        ),
    ],
)
def test_record_validation_errors(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
