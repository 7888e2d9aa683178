"""Domain error hierarchy, exact input checks and the value base shared by
all modules.

Every exception raised for a mathematically invalid input derives from
``DomainError`` so the CLI can map them to a single exit code.  Every value
class of the package (splitting and nodal types, chambers and models,
counting rows) subclasses ``Value``, the one frozen base.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

__all__ = [
    "Value",
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


class Value:
    """Base of the package's immutable value classes.

    A subclass's fields are its parent's, then the names it annotates, in
    order.  An instance equals only an instance of the same class with equal
    fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion with
    AttributeError.  ``__init__`` is the one place that stores the fields:
    a subclass without an ``__init__`` of its own takes them positionally,
    and one with its own checks its arguments, then passes the checked
    fields, in field order, to ``Value.__init__``.  What a class keeps
    outside its fields goes into ``self.__dict__`` with one ``update``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        get = attrgetter(*fields)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._values = staticmethod(get if len(fields) > 1 else lambda v: (get(v),))

    def __init__(self, *args) -> None:
        if len(args) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} positional "
                f"arguments, got {len(args)}"
            )
        self.__dict__.update(zip(self._fields, args))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
