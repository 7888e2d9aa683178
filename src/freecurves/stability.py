"""Glue-and-smooth balancing for low-rank bundles.

``balance_step`` glues a sequential integer-slope splitting type to itself
with the maximally transverse alignment, lists the sequential smoothings
permitted by the degree bounds, and keeps the worst one (or the best).
Iterating drives every sequential integer-slope type of rank at most five to
a semistable (width-zero) state; each step doubles the underlying curve
class, so degrees double too.

The degree bounds always admit the balanced type of the glued degree (see
``balance_step``), so a step never runs out of candidates, and the best step
is that type without listing any.
"""

from __future__ import annotations

from math import gcd

from .errors import NonIntegerSlope, NotSequential, RankTooLarge, Value, exact_int
from .nodal import Alignment, admissible_smoothings, glue
from .splitting import (
    SplittingType,
    balance_width,
    is_sequential,
    most_balanced,
    slope,
)

__all__ = [
    "BalanceTrace",
    "balance_step",
    "balance",
    "integer_slope_copies",
    "BALANCE_RANK_CAP",
]

# The worst-case analysis is only available through rank 5.
BALANCE_RANK_CAP = 5


class BalanceTrace(Value):
    """Worst-case balancing orbit.

    ``copies`` counts the glued copies of the input curve, doubling each
    step; any copies needed beforehand to reach integer slope are reported
    separately by ``integer_slope_copies``.
    """

    states: tuple[SplittingType, ...]
    steps: int
    copies: int
    converged: bool


def integer_slope_copies(t: SplittingType) -> int:
    """Fewest copies to glue so the combined slope becomes an integer."""
    d = t.total_degree
    if d == 0:
        return 1
    return t.rank // gcd(abs(d), t.rank)


def _check_balance_input(t: SplittingType, policy: str) -> None:
    if policy not in ("worst", "best"):
        raise ValueError(f"unknown policy {policy!r}")
    if t.rank > BALANCE_RANK_CAP:
        raise RankTooLarge(f"rank {t.rank} exceeds {BALANCE_RANK_CAP}")
    mu = slope(t)
    if mu.denominator != 1:
        raise NonIntegerSlope(
            f"slope {mu} of {t} is not an integer; "
            f"glue {integer_slope_copies(t)} copies first"
        )
    if not is_sequential(t):
        raise NotSequential(f"{t} has a degree gap larger than one")


def balance_step(t: SplittingType, policy: str = "worst") -> SplittingType:
    """One glue-and-smooth step; width-zero input is a fixed point.

    ``policy`` selects among the sequential admissible smoothings of the
    glued type z: ``worst`` takes the maximal width (lexicographically
    largest on ties), ``best`` the minimal width.

    With mu the integer slope, the balanced type (2 mu, ..., 2 mu) is always
    admissible.  Labeling the m summands of least pair sum as J is allowed,
    so degbd(z, m) is at most the sum of those m pair sums.  That is at most
    2 m mu, the sum of the m smallest entries of the balanced type.  So
    ``best`` is the balanced type, and ``worst`` never meets an empty list.
    """
    _check_balance_input(t, policy)
    if balance_width(t) == 0:
        return t
    if policy == "best":
        return most_balanced(t.rank, 2 * t.total_degree)
    glued = glue(t, t, Alignment.dual(t.rank))
    candidates = admissible_smoothings(glued, require_sequential=True)
    return max(candidates, key=lambda u: (balance_width(u), u.degrees))


def balance(
    t: SplittingType, max_steps: int = 8, policy: str = "worst"
) -> BalanceTrace:
    """Iterate balance_step until width zero or the step cap.

    Hitting the cap is reported through ``converged``, not raised.
    """
    max_steps = exact_int(max_steps, "max_steps")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    _check_balance_input(t, policy)
    states = [t]
    while balance_width(states[-1]) != 0 and len(states) <= max_steps:
        states.append(balance_step(states[-1], policy=policy))
    steps = len(states) - 1
    return BalanceTrace(tuple(states), steps, 2**steps, balance_width(states[-1]) == 0)
