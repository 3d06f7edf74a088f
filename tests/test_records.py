"""Value semantics of the plain record classes: equality, hashing and
immutability of the frozen ones, defaults, refusals and ``repr``."""

import re
from fractions import Fraction

import pytest

from losnet import (
    AdsInstance,
    BlockDecomposition,
    GenConfig,
    InstanceParams,
    LosInstance,
    PhaseState,
    Solution,
    ValidationError,
    VerifyReport,
)
from losnet.core import Record, check_epsilon
from losnet.decomp import Part

P = InstanceParams(2, (4, 3), 3)

# One pair of equal-valued instances and one differing instance per class.
FROZEN = {
    "InstanceParams": (
        lambda: InstanceParams(2, [4, 3], 3),
        lambda: InstanceParams(2, (4, 3), 4),
    ),
    "GenConfig": (
        lambda: GenConfig(P, Fraction(1, 2), "uniform:1:5", 7),
        lambda: GenConfig(P, Fraction(1, 2), "uniform:1:5", 8),
    ),
    "AdsInstance": (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),)),
        lambda: AdsInstance(1, 2, 2, 1, ((1, 0),)),
    ),
    "Part": (lambda: Part(1, 2, ((1, 1),)), lambda: Part(1, 3, ((1, 1),))),
    "BlockDecomposition": (
        lambda: BlockDecomposition(0, 1, 1, 2, (Part(1, 2, ()),), ()),
        lambda: BlockDecomposition(1, 1, 1, 2, (Part(1, 2, ()),), ()),
    ),
}
MUTABLE = {
    "Solution": (
        lambda: Solution("brute", ((1, 1),), Fraction(2), {"k": 1}),
        lambda: Solution("brute", ((1, 1),), Fraction(3), {"k": 1}),
    ),
    "VerifyReport": (
        lambda: VerifyReport(True, Fraction(1), Fraction(1), []),
        lambda: VerifyReport(False, Fraction(1), Fraction(2), ["x"]),
    ),
    "PhaseState": (
        lambda: PhaseState(1, 0, Fraction(1), ((1, 1),), True, 3),
        lambda: PhaseState(1, 0, Fraction(1), ((1, 1),), True, 4),
    ),
}
ALL = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("name", sorted(ALL))
def test_equality_by_fields(name):
    make, other = ALL[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other()


@pytest.mark.parametrize("name", sorted(ALL))
def test_never_equal_across_types(name):
    make, _ = ALL[name]
    a = make()
    fields = tuple(getattr(a, f) for f in type(a)._fields)
    assert a != fields
    assert a != object()
    for other_name, (other_make, _) in ALL.items():
        if other_name != name:
            assert a != other_make()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_hash_and_immutability(name):
    make, other = FROZEN[name]
    a = make()
    if name == "AdsInstance":  # its weights are a dict, as with the dataclass
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(make())
        assert len({a, make(), other()}) == 2
    field = type(a)._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, 1)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == make()


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_are_unhashable_and_assignable(name):
    make, other = MUTABLE[name]
    a = make()
    with pytest.raises(TypeError):
        hash(a)
    field = type(a)._fields[0]
    setattr(a, field, getattr(other(), field))
    assert getattr(a, field) == getattr(other(), field)


@pytest.mark.parametrize("name", sorted(ALL))
def test_repr_names_class_and_fields(name):
    a = ALL[name][0]()
    cls = type(a)
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in cls._fields)
    assert repr(a) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(P) == "InstanceParams(d=2, extents=(4, 3), omega=3)"
    assert repr(Solution("x", (), Fraction(0))) == (
        "Solution(algorithm='x', vertices=(), total_weight=Fraction(0, 1), meta={})"
    )


def test_defaults():
    cfg = GenConfig(P, "1/2")
    assert (cfg.density, cfg.weight_dist, cfg.seed) == (Fraction(1, 2), "const:1", 0)
    assert AdsInstance(1, 2, 2, 1, [[1, 1]]).weights == {}
    a = Solution("x", (), Fraction(0))
    b = Solution("x", (), Fraction(0))
    a.meta["k"] = 1
    assert b.meta == {} and Solution("x", (), Fraction(0)).meta == {}

    # Defaults come only from a record's own ``__init__``: a class-level
    # value is no default.
    class Point(Record):
        x: int
        y: int = 0

    with pytest.raises(TypeError, match=r"Point\(\) missing argument 'y'"):
        Point(1)


def test_fields_are_normalised():
    assert InstanceParams(2, ["4", 3], 3).extents == (4, 3)
    cells = LosInstance(P, {(1, "2"): "5/2"}).vertices
    assert cells == {(1, 2): Fraction(5, 2)}
    assert type(cells[(1, 2)]) is Fraction
    assert GenConfig(P, 0.5, seed="3").seed == 3
    assert AdsInstance(1, 2, 2, 1, [[1, True]], {(1, 2): 3}).available == ((1, 1),)


REFUSALS = [
    (lambda: InstanceParams(1, (4,), 3), "dimension must be >= 2, got 1"),
    (lambda: InstanceParams(2, (4,), 3), "expected 2 extents, got 1"),
    (lambda: InstanceParams(2, (4, 0), 3), "extents must be positive, got (4, 0)"),
    (lambda: InstanceParams(2, (4, 3), 1), "omega must be >= 2, got 1"),
    (
        lambda: LosInstance(P, {(1, 1): 0}),
        "vertex weight must be positive, got 0 at (1, 1)",
    ),
    (lambda: LosInstance(P, {(1, 1): "x"}), "not a rational weight: 'x'"),
    (lambda: LosInstance(P, {(1, 1): "3/0"}), "not a rational weight: '3/0'"),
    (lambda: LosInstance(P, {(1, 1): "1e5000"}), "not a rational weight: '1e5000'"),
    (lambda: GenConfig(P, 1, "const:3/0"), "not a rational weight: '3/0'"),
    (lambda: GenConfig(P, 2), "density must be in [0,1], got 2"),
    (lambda: GenConfig(P, "x"), "not a rational number: 'x'"),
    (lambda: GenConfig(P, "1/0"), "not a rational number: '1/0'"),
    (lambda: GenConfig(P, "1e-5000"), "not a rational number: '1e-5000'"),
    (
        lambda: GenConfig(P, 1, "bogus"),
        "weight_dist must be 'const:c' or 'uniform:a:b', got 'bogus'",
    ),
    (lambda: AdsInstance(0, 2, 2, 1, ()), "need k_clients >= 1, got 0"),
    (lambda: AdsInstance(1, 0, 2, 1, ((),)), "need n_times >= 1, got 0"),
    (lambda: AdsInstance(1, 2, 1, 1, ((1, 1),)), "omega must be >= 2, got 1"),
    (lambda: AdsInstance(1, 2, 2, 0, ((1, 1),)), "capacity l must be >= 1, got 0"),
    (lambda: AdsInstance(1, 2, 2, 1, ((1,),)), "availability must be 1x2"),
    (lambda: AdsInstance(1, 2, 2, 1, ((1, 2),)), "availability entries must be 0/1"),
    (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),), {(2, 1): 1}),
        "weight for out-of-range pair (2, 1)",
    ),
    (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 0),), {(1, 2): 1}),
        "weight given for unavailable pair (1, 2)",
    ),
    (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),), {(1, 2): 0}),
        "weight must be positive, got 0",
    ),
    (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),), {(1, 2): "3/0"}),
        "not a rational weight: '3/0'",
    ),
    pytest.param(  # its own id: the id of LosInstance's case stays unique
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),), {(1, 2): "x"}),
        "not a rational weight: 'x'",
        id="AdsInstance-not a rational weight: 'x'",
    ),
    (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),), {(1, 2): None}),
        "not a rational weight: None",
    ),
    (lambda: check_epsilon("x"), "not a rational number: 'x'"),
    (lambda: check_epsilon("1/0"), "not a rational number: '1/0'"),
    # A number too long for ``repr`` is named, not printed.
    (
        lambda: check_epsilon(Fraction(1, 10**5000)),
        "not a rational number: Fraction of more than 4300 digits",
    ),
    (
        lambda: AdsInstance(1, 2, 2, 1, ((1, 1),), {(1, 2): Fraction(10**5000, 3)}),
        "not a rational weight: Fraction of more than 4300 digits",
    ),
    (
        lambda: InstanceParams(10**5000, (4, 3), 3),
        "dimension would have more than 4300 digits",
    ),
    (
        lambda: InstanceParams(2, (10**5000, 3), 3),
        "an extent would have more than 4300 digits",
    ),
    pytest.param(  # its own id: the id of the case above stays unique
        lambda: InstanceParams(2, (4, -(10**5000)), 3),
        "an extent would have more than 4300 digits",
        id="negative-an extent would have more than 4300 digits",
    ),
    (lambda: InstanceParams(2, (4, 3), 10**5000), "omega would have more than 4300 digits"),
    (
        lambda: LosInstance(P, {(10**5000, 1): 0}),
        "a coordinate would have more than 4300 digits",
    ),
]


@pytest.mark.parametrize("build, message", REFUSALS)
def test_refusals_keep_their_messages(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_check_epsilon():
    assert check_epsilon("1/2") == check_epsilon(0.5) == Fraction(1, 2)
    assert type(check_epsilon(1)) is Fraction
    assert check_epsilon("1e-4299") == Fraction(1, 10**4299)
    for value, message in [
        (0, "epsilon must be positive, got 0"),
        ("-1/3", "epsilon must be positive, got -1/3"),
        ("1e-4300", "not a rational number: '1e-4300'"),
        ("1e-999999999", "not a rational number: '1e-999999999'"),
        (None, "not a rational number: None"),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_epsilon(value)


# Each class's fields, in declaration order.
FIELDS = {
    "InstanceParams": ("d", "extents", "omega"),
    "GenConfig": ("params", "density", "weight_dist", "seed"),
    "AdsInstance": ("k_clients", "n_times", "omega", "l", "available", "weights"),
    "Part": ("lo", "hi", "vertices"),
    "BlockDecomposition": ("shift", "h", "axis", "k", "blocks", "boundary"),
    "Solution": ("algorithm", "vertices", "total_weight", "meta"),
    "VerifyReport": (
        "independent",
        "weight_claimed",
        "weight_recomputed",
        "violations",
    ),
    "PhaseState": (
        "j0",
        "r",
        "current_weight",
        "best_set",
        "stopped",
        "lookahead_used",
    ),
}


@pytest.mark.parametrize("name", sorted(ALL))
def test_fields_are_the_annotated_names_in_order(name):
    cls = type(ALL[name][0]())
    assert cls._fields == FIELDS[name] == tuple(cls.__annotations__)


def test_every_record_is_covered():
    assert sorted(FIELDS) == sorted(ALL) and len(ALL) == 8


def test_keyword_construction():
    assert Part(lo=1, hi=2, vertices=()) == Part(1, 2, ()) == Part(1, vertices=(), hi=2)
    a = PhaseState(1, 0, Fraction(1), (), stopped=True, lookahead_used=3)
    assert a == PhaseState(1, 0, Fraction(1), (), True, 3)
    assert a.degenerate is False
    assert PhaseState(
        j0=1, r=0, current_weight=0, best_set=(), stopped=True, lookahead_used=1
    ).degenerate is True
    assert VerifyReport(
        independent=True, weight_claimed=1, weight_recomputed=1, violations=[]
    ) == VerifyReport(True, 1, 1, [])
    assert InstanceParams(d=2, extents=(4, 3), omega=3) == P
    assert Solution("x", (), Fraction(0), meta=None).meta == {}


def test_fields_are_assigned_in_order():
    # ``degenerate`` is read from the weight, never stored.
    a = PhaseState(1, 0, Fraction(0), (), True, 1)
    assert list(vars(a)) == list(FIELDS["PhaseState"]) and a.degenerate
    b = Part(vertices=(), hi=2, lo=1)
    assert list(vars(b)) == ["lo", "hi", "vertices"]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Part(1, 2, (), 4), "Part() takes 3 arguments but 4 were given"),
        (lambda: Part(1, 2), "Part() missing argument 'vertices'"),
        (lambda: Part(), "Part() missing argument 'lo'"),
        (
            lambda: PhaseState(1, 0, Fraction(1), (), True),
            "PhaseState() missing argument 'lookahead_used'",
        ),
        (
            lambda: PhaseState(1, 0, Fraction(1), (), True, 3, degenerate=True),
            "PhaseState() got an unexpected keyword argument 'degenerate'",
        ),
        (
            lambda: Part(1, 2, verts=()),
            "Part() got an unexpected keyword argument 'verts'",
        ),
        (
            lambda: Part(1, 2, (), lo=1),
            "Part() got multiple values for argument 'lo'",
        ),
        (
            lambda: VerifyReport(True, 1, 1, [], independent=False),
            "VerifyReport() got multiple values for argument 'independent'",
        ),
    ],
)
def test_constructor_refusals(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()
