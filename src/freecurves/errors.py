"""Domain error hierarchy shared by all modules.

Every exception raised for a mathematically invalid input derives from
``DomainError`` so the CLI can map them to a single exit code.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "exact_int",
    "exact_fraction",
    "int_token",
    "int_tokens",
    "DomainError",
    "ZeroSlope",
    "NegativeSlope",
    "ShapeMismatch",
    "RankMismatch",
    "OutOfRange",
    "RankTooLarge",
    "NonIntegerSlope",
    "NotSequential",
    "NotInNefCone",
    "NoChamber",
    "ZeroDegree",
    "BoundaryMismatch",
    "ZeroFunctional",
    "UnboundedSlice",
    "ModelFormatError",
]

def _exact_number(x) -> Fraction | None:
    """``x`` as a Fraction if it is an int, a Fraction or an integral float."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    return None


def exact_int(x, name: str) -> int:
    """``x`` as an int, if it is an int or an integral Fraction or float.

    Anything else raises ValueError: a bool, a str or bytes, an infinity, a
    non-integral value.
    """
    if type(x) is int:
        return x
    value = _exact_number(x)
    if value is None or value.denominator != 1:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return value.numerator


def exact_fraction(x, name: str) -> Fraction:
    """``x`` as a Fraction, if it is an int, a Fraction or an integral float.

    Anything else raises ValueError: a bool, a str, a non-integral float
    (whose binary expansion is not the rational it was written as).  A
    Fraction is returned as it is, as ``exact_int`` returns an int.
    """
    if type(x) is Fraction:
        return x
    value = _exact_number(x)
    if value is None:
        raise ValueError(
            f"{name} must be an int, a Fraction or an integral float, got {x!r}"
        )
    return value


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def int_token(text: str) -> int:
    """An integer written in text: ASCII ``[+-]?[0-9]+`` after ``strip()``.

    ``int`` alone would also read ``1_0`` as 10 and non-ASCII digits such as
    ``\u0663`` as 3; any such token raises ValueError instead.
    """
    token = text.strip()
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"not an integer: {text!r}")
    return int(token)


def int_tokens(text: str, sep: str = ",") -> tuple[int, ...]:
    """Every ``sep``-separated item of ``text`` read by ``int_token``, so an
    empty item (``1,,2``, a trailing comma, empty text) raises ValueError."""
    return tuple(int_token(item) for item in text.split(sep))


class DomainError(Exception):
    """Base class for all domain-level failures."""


class ZeroSlope(DomainError):
    """Slope panel requested for a bundle of total degree zero."""


class NegativeSlope(DomainError):
    """Minimal slope ratio requested for a bundle of negative slope."""


class ShapeMismatch(DomainError):
    """Comparison of splitting types with different rank or degree."""


class RankMismatch(DomainError):
    """Gluing of splitting types with different ranks."""


class OutOfRange(DomainError):
    """Quotient rank outside 1..rank."""


class RankTooLarge(DomainError):
    """Operation capped at a maximum rank was asked to exceed it."""


class NonIntegerSlope(DomainError):
    """Balancing requires an integer slope."""


class NotSequential(DomainError):
    """Balancing requires consecutive degree gaps of at most one."""


class NotInNefCone(DomainError):
    """Curve class violates a facet inequality of the nef cone."""


class NoChamber(DomainError):
    """Curve class lies in no declared filtration chamber."""


class ZeroDegree(DomainError):
    """Curve class has non-positive anticanonical degree."""


class BoundaryMismatch(DomainError):
    """Chambers sharing a face disagree on the piece slopes."""


class ZeroFunctional(DomainError):
    """Anticanonical functional is identically zero."""


class UnboundedSlice(DomainError):
    """Degree slice of the nef cone is unbounded."""


class ModelFormatError(DomainError):
    """Model file violates the documented schema."""
