"""The value contract every value class of the package keeps: equality by
value and exact class, the hash of the field tuple, a ``Name(field=...)``
repr, no assignment or deletion, and a fixed field count."""

from fractions import Fraction

import pytest

from freecurves.counting import (
    CountingConfig,
    CountReport,
    CountRow,
    EpsPower,
    EpsTable,
)
from freecurves.modelio import LoadedModel
from freecurves.nodal import (
    Alignment,
    NodalType,
    SharpnessWitness,
    WitnessBlock,
)
from freecurves.splitting import SplittingType
from freecurves.stability import BalanceTrace
from freecurves.variety import Chamber, ValidationReport, VarietyModel, toy_rho1

_ROW = CountRow(1, 2, 1, Fraction(3), Fraction(1), Fraction(1, 3))
_POWER = EpsPower(1, Fraction(1, 2))

# class, its field names in order, then two argument lists of different values
CASES = [
    (SplittingType, ("degrees",), [(0, 2, 1)], [(1, 1, 1)]),
    (NodalType, ("pairs",), [[(1, 0), (0, 1)]], [[(1, 1), (0, 0)]]),
    (Alignment, ("perm",), [(1, 0)], [(0, 1)]),
    (
        WitnessBlock,
        ("kind", "indices", "value"),
        ["single", (0,), 3],
        ["pair", (0, 1), 3],
    ),
    (
        SharpnessWitness,
        ("blocks", "total"),
        [(WitnessBlock("single", (0,), 3),), 3],
        [(), 0],
    ),
    (
        BalanceTrace,
        ("states", "steps", "copies", "converged"),
        [(SplittingType((1, 0)),), 0, 1, False],
        [(SplittingType((0, 0)),), 0, 1, True],
    ),
    (
        Chamber,
        ("facets", "filtration"),
        [(), ((1, (Fraction(1, 2),)),)],
        [((1,),), ((1, (Fraction(1, 2),)),)],
    ),
    (
        VarietyModel,
        ("rho", "dim_n", "minus_k", "nef_facets", "chambers"),
        [1, 1, (1,), ((1,),), ()],
        [1, 2, (1,), ((1,),), ()],
    ),
    (ValidationReport, ("violations",), [("a",)], [()]),
    (EpsPower, ("c", "p"), [1, Fraction(1, 2)], [2, Fraction(1, 2)]),
    (EpsTable, ("entries",), [[(1, Fraction(1, 2))]], [[(0, Fraction(1, 2))]]),
    (
        CountingConfig,
        ("q", "br", "m_cap", "beta", "outside_xi", "eps", "delta"),
        [2, 1, 1, (0,), 1, _POWER, Fraction(1, 10)],
        [3, 1, 1, (0,), 1, _POWER, Fraction(1, 10)],
    ),
    (
        CountRow,
        ("d", "points", "liberated", "n_value", "n_liberated", "ratio"),
        [1, 2, 1, Fraction(3), Fraction(1), Fraction(1, 3)],
        [1, 2, 1, Fraction(3), Fraction(1), None],
    ),
    (CountReport, ("rows", "d0"), [(_ROW,), None], [(_ROW,), 1]),
    (LoadedModel, ("model", "counting"), [toy_rho1(1), None], [toy_rho1(2), None]),
]

cases = pytest.mark.parametrize(
    "cls, fields, args, other", CASES, ids=[case[0].__name__ for case in CASES]
)


def test_every_value_class_is_covered():
    assert len({case[0] for case in CASES}) == 15


@cases
def test_equality_by_value_and_exact_class(cls, fields, args, other):
    x = cls(*args)
    assert x == cls(*args) and x is not cls(*args)
    assert x != cls(*other)
    assert x != tuple(getattr(x, f) for f in fields)
    sub = type(cls.__name__, (cls,), {})
    assert x != sub(*args) and sub(*args) != x


@cases
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, args, other):
    x = cls(*args)
    assert hash(x) == hash(tuple(getattr(x, f) for f in fields))
    assert len({x, cls(*args), cls(*other)}) == 2


@cases
def test_assignment_and_deletion_raise(cls, fields, args, other):
    x = cls(*args)
    before = repr(x)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


@cases
def test_wrong_field_count_raises(cls, fields, args, other):
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args[:-1])


def test_repr_strings():
    assert repr(SplittingType([0, 2, 1])) == "SplittingType(degrees=(2, 1, 0))"
    assert repr(NodalType([(0, 1), (2, -1)])) == "NodalType(pairs=((2, -1), (0, 1)))"
    assert repr(CountRow(1, 2, 1, Fraction(3), Fraction(1), None)) == (
        "CountRow(d=1, points=2, liberated=1, n_value=Fraction(3, 1),"
        " n_liberated=Fraction(1, 1), ratio=None)"
    )
    assert repr(WitnessBlock("pair", (0, 2), 5)) == (
        "WitnessBlock(kind='pair', indices=(0, 2), value=5)"
    )
    # slope_den and the scaled chambers are set up by the model, not fields
    assert repr(toy_rho1(1)) == (
        "VarietyModel(rho=1, dim_n=2, minus_k=(1,), nef_facets=((1,),),"
        " chambers=(Chamber(facets=(), filtration=((2, (Fraction(1, 2),)),)),))"
    )


def test_nodal_type_keeps_only_its_pairs():
    # a type keeps its pairs and nothing else, so equality, hash and repr
    # see the pairs alone
    z, same = NodalType([(2, -1), (-1, 2)]), NodalType([(-1, 2), (2, -1)])
    assert list(z.__dict__) == ["pairs"]
    assert z == same and hash(z) == hash(same) == hash((z.pairs,))
    assert repr(z) == repr(same) == "NodalType(pairs=((2, -1), (-1, 2)))"
