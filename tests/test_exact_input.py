"""Integer inputs are checked where they enter: never truncated."""

from fractions import Fraction

import pytest

from freecurves.counting import (
    CountingConfig,
    EpsPower,
    EpsTable,
    count_N,
    ratio_check,
)
from freecurves.errors import exact_fraction, exact_int, int_token
from freecurves.modelio import fixture_path, load_model_file
from freecurves.nodal import (
    Alignment,
    NodalType,
    degbd,
    parse_nodal_type,
    sharpness_witness,
)
from freecurves.splitting import SplittingType, most_balanced, parse_splitting_type
from freecurves.stability import balance
from freecurves.variety import (
    Chamber,
    VarietyModel,
    cone_rays,
    pbundle,
    read_class,
    toy_rho1,
)

from helpers import toy_rho2


def _rho1(**overrides):
    fields = dict(rho=1, dim_n=1, minus_k=(1,), nef_facets=((1,),), chambers=())
    return VarietyModel(**{**fields, **overrides})


def _toy_rho2_counting():
    loaded = load_model_file(fixture_path("toy_rho2.json"))
    return loaded.model, loaded.counting


def _pbundle_n0(x):
    """pbundle with n0 = x.  No bundle over P^1 has one chamber, so at x = 1
    the value compared is the text of pbundle's refusal."""
    try:
        return pbundle(x, 1, [1, 0])
    except ValueError as exc:
        if "second chamber" not in str(exc):
            raise
        return str(exc)


# Each boundary, called with x in a place that holds an integer; x = 1 is
# valid everywhere, and 1.5 or True would truncate to it.
BOUNDARIES = {
    "exact_int": lambda x: exact_int(x, "x"),
    "SplittingType": lambda x: SplittingType([x, 0]),
    "NodalType": lambda x: NodalType([(0, x)]),
    "Alignment": lambda x: Alignment([x, 0]),
    "Alignment.from_one_based": lambda x: Alignment.from_one_based([2, x]),
    "Alignment.identity": lambda x: Alignment.identity(x),
    "Alignment.dual": lambda x: Alignment.dual(x),
    "balance max_steps": lambda x: balance(SplittingType([2, 1, 0, -1, -2]), max_steps=x),
    "most_balanced rank": lambda x: most_balanced(x, 3),
    "most_balanced degree": lambda x: most_balanced(2, x),
    "degbd m": lambda x: degbd(NodalType([(2, -1), (-1, 2)]), x),
    "sharpness_witness m": lambda x: sharpness_witness(NodalType([(1, 1)]), x),
    "Chamber facet": lambda x: Chamber([(x, 0)], [(2, (1, 1))]),
    "Chamber rank": lambda x: Chamber([], [(x, (1,))]),
    "VarietyModel rho": lambda x: _rho1(rho=x),
    "VarietyModel dim": lambda x: _rho1(dim_n=x),
    "VarietyModel minus_k": lambda x: _rho1(minus_k=(x,)),
    "VarietyModel facet": lambda x: _rho1(nef_facets=((x,),)),
    "cone_rays": lambda x: cone_rays([(x, 0), (0, 1)], 2),
    "cone_rays rho": lambda x: cone_rays([(1,)], x),
    "esp": lambda x: read_class(toy_rho2(), (x, 0)).panel(),
    "chamber_pieces": lambda x: toy_rho2().chamber_pieces((x, 0)),
    "liberated_lower_bound": lambda x: read_class(toy_rho2(), (x, 0)).bound(),
    "pbundle": lambda x: pbundle(3, 2, [2, x, 0]),
    "pbundle n0": _pbundle_n0,
    "pbundle m": lambda x: pbundle(3, x, [3, 0]),
    "toy_rho1 c": lambda x: toy_rho1(x),
    "toy_rho1 dim": lambda x: toy_rho1(2, dim=x),
    "VarietyModel._fibres": lambda x: list(toy_rho2()._fibres(x)),
    "VarietyModel.degree": lambda x: toy_rho2().degree((x, 0)),
    "EpsPower.admits d": lambda x: EpsPower(1, Fraction(1, 2)).admits(Fraction(1), x),
    "EpsTable.admits d": lambda x: EpsTable([(1, Fraction(1, 2))]).admits(Fraction(1), x),
    "EpsTable.value_at": lambda x: EpsTable([(1, Fraction(1, 2))]).value_at(x),
    "count_N": lambda x: count_N(*_toy_rho2_counting(), x),
    "ratio_check": lambda x: ratio_check(*_toy_rho2_counting(), [x]),
}


CASES = [(name, bad) for name in sorted(BOUNDARIES) for bad in (1.5, True)]
CASES += [("exact_int", float("inf")), ("exact_int", float("-inf"))]


@pytest.mark.parametrize("boundary, bad", CASES)
def test_boundary_rejects_rather_than_truncates(boundary, bad):
    build = BOUNDARIES[boundary]
    with pytest.raises(ValueError, match="must be an integer"):
        build(bad)
    # an integral Fraction or float is the integer itself
    assert build(Fraction(2, 2)) == build(1.0) == build(1)


# A str or bytes is never a number: Fraction(str) would read "1_0" as 10,
# "\u0663" as 3, "6/2" as 3 and "1e1" as 10.
@pytest.mark.parametrize("boundary", ["exact_int", "SplittingType", "degbd m"])
@pytest.mark.parametrize("bad", ["1_0", "3", "\u0663", "6/2", "1e1", b"3"])
def test_boundary_rejects_text(boundary, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        BOUNDARIES[boundary](bad)


def _config(**overrides):
    fields = dict(q=2, br=1, m_cap=1, beta=(0,), outside_xi=1)
    fields.update(eps=EpsPower(1, 1), delta=Fraction(1, 10))
    return CountingConfig(**{**fields, **overrides})


# Each rational boundary, returning the value it stored, with values it
# accepts.  0.1 would be stored as its binary expansion 3602879701896397/2^55,
# True as 1, and "1/2" would be parsed from text.
HALF_AND_ONE = (Fraction(1, 2), 1)
RATIONALS = {
    "exact_fraction": (lambda x: exact_fraction(x, "x"), (*HALF_AND_ONE, 2.0)),
    "Chamber slope": (
        lambda x: Chamber([], [(1, (x,))]).filtration[0][1][0],
        HALF_AND_ONE,
    ),
    "EpsPower c": (lambda x: EpsPower(x, 1).c, HALF_AND_ONE),
    "EpsPower p": (lambda x: EpsPower(1, x).p, HALF_AND_ONE),
    "EpsTable value": (lambda x: EpsTable([(1, x)]).entries[0][1], HALF_AND_ONE),
    # q must exceed 1 and delta lie strictly between 0 and 1
    "CountingConfig q": (lambda x: _config(q=x).q, (Fraction(3, 2), 2)),
    "CountingConfig delta": (lambda x: _config(delta=x).delta, (Fraction(1, 2),)),
}


@pytest.mark.parametrize("boundary", sorted(RATIONALS))
@pytest.mark.parametrize("bad", [0.1, True, "1/2"])
def test_rational_boundary_rejects_inexact(boundary, bad):
    build, _ = RATIONALS[boundary]
    with pytest.raises(ValueError, match="an int, a Fraction or an integral float"):
        build(bad)


@pytest.mark.parametrize("boundary", sorted(RATIONALS))
def test_rational_boundary_stores_fraction(boundary):
    build, good = RATIONALS[boundary]
    for x in good:
        value = build(x)
        assert type(value) is Fraction and value == x


# Each rational argument that is compared, not stored, with the values it
# accepts: 0.6 would be compared as its binary expansion and True as 1.
COMPARED = {
    "EpsPower.admits bound": lambda x: EpsPower(1, Fraction(1, 2)).admits(x, 4),
    "EpsTable.admits bound": lambda x: EpsTable([(1, Fraction(1, 2))]).admits(x, 4),
}


@pytest.mark.parametrize("boundary", sorted(COMPARED))
@pytest.mark.parametrize("bad", [0.6, True, "1/2"])
def test_compared_rational_rejects_inexact(boundary, bad):
    with pytest.raises(ValueError, match="an int, a Fraction or an integral float"):
        COMPARED[boundary](bad)


@pytest.mark.parametrize("boundary", sorted(COMPARED))
def test_compared_rational_accepts_exact(boundary):
    admits = COMPARED[boundary]
    assert admits(Fraction(3, 5)) and not admits(Fraction(1, 2))
    assert admits(1) == admits(1.0) == admits(Fraction(2, 2)) is True


# Each single-class entry point names the length of a class of the wrong
# length, rho - 1 or rho + 1, as a ValueError.  "esp" and
# "liberated_lower_bound" are the panel and the bound the esp command
# prints, both from a ``read_class`` report.
SINGLE_CLASS = {
    "VarietyModel.degree": lambda model, alpha: model.degree(alpha),
    "chamber_pieces": lambda model, alpha: model.chamber_pieces(alpha),
    "esp": lambda model, alpha: read_class(model, alpha).panel(),
    "liberated_lower_bound": lambda model, alpha: read_class(model, alpha).bound(),
}


@pytest.mark.parametrize("entry", sorted(SINGLE_CLASS))
@pytest.mark.parametrize("length", [1, 3])
def test_single_class_rejects_wrong_length(entry, length):
    with pytest.raises(ValueError, match=f"class length {length} != rho 2"):
        SINGLE_CLASS[entry](toy_rho2(), (1,) * length)


def test_accepted_values_are_stored_as_int():
    assert type(exact_int(Fraction(4, 2), "x")) is int
    assert type(exact_int(2.0, "x")) is int
    assert SplittingType([Fraction(3), 2.0]).degrees == (3, 2)
    assert all(type(a) is int for a in SplittingType([Fraction(3), 2.0]))
    model = _rho1(minus_k=(Fraction(2),), dim_n=2.0)
    assert type(model.dim_n) is int and type(model.minus_k[0]) is int
    assert type(model.degree((3,))) is int


# Text parsers read ASCII [+-]?[0-9]+ only: int() alone would take 1_0 as 10
# and non-ASCII digits such as \u0663 (Arabic-Indic three) as 3.
TEXT_PARSERS = {
    "int_token": int_token,
    "parse_splitting_type": lambda t: parse_splitting_type(f"{t},2"),
    "parse_nodal_type a": lambda t: parse_nodal_type(f"{t}/0,1/1"),
    "parse_nodal_type b": lambda t: parse_nodal_type(f"1/{t}"),
}


@pytest.mark.parametrize("parser", sorted(TEXT_PARSERS))
@pytest.mark.parametrize("bad", ["1_0", "\u0663", "\uff11", "1.0", "0x1", "--1", "1 2"])
def test_text_parser_rejects_malformed_integer(parser, bad):
    with pytest.raises(ValueError):
        TEXT_PARSERS[parser](bad)


def test_int_token_accepts_sign_and_padding():
    assert int_token("+3") == 3
    assert int_token(" -12 ") == -12
    assert parse_splitting_type(" +3 , 1 ").degrees == (3, 1)
    assert parse_nodal_type(" +2 / -1 ").pairs == ((2, -1),)
