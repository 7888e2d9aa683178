"""Exact calculus on splitting types of vector bundles on the projective line.

A bundle on P^1 is determined by its multiset of line-bundle degrees, kept
here as a non-increasing integer tuple.  All slope arithmetic is done with
``fractions.Fraction``; no operation ever produces a float.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NegativeSlope,
    ShapeMismatch,
    Value,
    ZeroSlope,
    exact_int,
    int_tokens,
)

__all__ = [
    "SplittingType",
    "slope",
    "slope_panel",
    "minimal_slope_ratio",
    "specializes_to",
    "balance_width",
    "is_sequential",
    "most_balanced",
    "parse_splitting_type",
]


class SplittingType(Value):
    """Degrees of the line-bundle summands, sorted non-increasing.

    Construction canonicalizes the order, so equality is multiset equality.
    """

    degrees: tuple[int, ...]

    def __init__(self, degrees) -> None:
        degs = tuple(sorted((exact_int(a, "degree") for a in degrees), reverse=True))
        if not degs:
            raise ValueError("a splitting type needs at least one summand")
        super().__init__(degs)

    @classmethod
    def _of_sorted(cls, degrees: tuple[int, ...]) -> "SplittingType":
        """The type of a non-empty, non-increasing tuple of ints, taken as
        it is: no entry is checked and nothing is sorted.  For callers whose
        entries are computed from checked ints."""
        t = object.__new__(cls)
        t.__dict__["degrees"] = degrees
        return t

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, i: int) -> int:
        return self.degrees[i]

    def __str__(self) -> str:
        return ",".join(map(str, self.degrees))


def parse_splitting_type(text: str) -> SplittingType:
    """Parse the comma-separated text form, e.g. ``4,3,3,2`` (any order)."""
    return SplittingType(int_tokens(text))


def slope(t: SplittingType) -> Fraction:
    """Total degree divided by rank."""
    return Fraction(t.total_degree, t.rank)


def slope_panel(t: SplittingType) -> tuple[Fraction, ...]:
    """Panel (a_1/mu, ..., a_r/mu); defined only when the slope is nonzero.

    For negative slope the entries are kept in summand order, which flips
    them to non-decreasing; they still sum to the rank.
    """
    mu = slope(t)
    if mu == 0:
        raise ZeroSlope(f"slope panel undefined for degree-zero type {t}")
    return tuple(a / mu for a in t.degrees)


def minimal_slope_ratio(t: SplittingType) -> Fraction:
    """Smallest panel entry a_r / mu; requires positive slope."""
    mu = slope(t)
    if mu == 0:
        raise ZeroSlope(f"minimal slope ratio undefined for degree-zero type {t}")
    if mu < 0:
        raise NegativeSlope(f"minimal slope ratio needs positive slope, got {mu}")
    return t.degrees[-1] / mu


def specializes_to(general: SplittingType, special: SplittingType) -> bool:
    """Whether ``general`` degenerates to ``special``.

    Holds exactly when, for every k, the sum of the k smallest degrees of
    ``general`` is at least the corresponding sum for ``special``.  Only
    defined within a fixed (rank, degree) class.
    """
    if general.rank != special.rank:
        raise ShapeMismatch(f"rank {general.rank} vs {special.rank}")
    if general.total_degree != special.total_degree:
        raise ShapeMismatch(
            f"degree {general.total_degree} vs {special.total_degree}"
        )
    acc_g = 0
    acc_s = 0
    for a, b in zip(reversed(general.degrees), reversed(special.degrees)):
        acc_g += a
        acc_s += b
        if acc_g < acc_s:
            return False
    return True


def balance_width(t: SplittingType) -> int:
    """Gap between the largest and smallest summand degree."""
    return t.degrees[0] - t.degrees[-1]


def is_sequential(t: SplittingType) -> bool:
    """Whether consecutive summand degrees drop by at most one."""
    return all(a - b <= 1 for a, b in zip(t.degrees, t.degrees[1:]))


def most_balanced(rank: int, degree: int) -> SplittingType:
    """The unique type of width <= 1 with the given rank and degree."""
    rank, degree = exact_int(rank, "rank"), exact_int(degree, "degree")
    if rank < 1:
        raise ValueError("rank must be positive")
    q, s = divmod(degree, rank)
    return SplittingType([q + 1] * s + [q] * (rank - s))
