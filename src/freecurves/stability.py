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

A degree shift commutes with a step.  Gluing t + c to itself shifts every
pair of the nodal type by (c, c), so degbd(z, m) by 2cm: both labeled sets
have m summands.  A type's m smallest entries shift by 2cm too when the type
shifts by 2c, and neither its width nor being sequential changes, so the
sequential admissible set, and the worst of it, shift by 2c.  The worst step
of t is therefore that of t - mu, with mu its slope, shifted by 2 mu.  It is
listed once per translation class and kept in a table.  Below the rank cap
there are five classes of positive width: (1,0,-1), (1,0,0,-1),
(1,1,0,-1,-1), (1,0,0,0,-1) and (2,1,0,-1,-2) at slope 0, so the table never
holds more than five entries.
"""

from __future__ import annotations

from math import gcd

from .errors import NonIntegerSlope, NotSequential, RankTooLarge, Value, exact_int
from .nodal import Alignment, admissible_smoothings, glue
from .splitting import (
    SplittingType,
    balance_width,
    is_sequential,
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
    if t.total_degree % t.rank:
        raise NonIntegerSlope(
            f"slope {slope(t)} of {t} is not an integer; "
            f"glue {integer_slope_copies(t)} copies first"
        )
    if not is_sequential(t):
        raise NotSequential(f"{t} has a degree gap larger than one")


# The worst step of each translation class met so far, keyed and valued by
# degrees at slope 0.
_WORST_STEPS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _worst_step(degrees: tuple[int, ...]) -> tuple[int, ...]:
    """The worst step of the slope-0 type with these degrees, listed the
    first time its class is met and read from the table after that."""
    step = _WORST_STEPS.get(degrees)
    if step is None:
        t = SplittingType._of_sorted(degrees)
        glued = glue(t, t, Alignment.dual(t.rank))
        candidates = admissible_smoothings(glued, require_sequential=True)
        worst = max(candidates, key=lambda u: (balance_width(u), u.degrees))
        step = _WORST_STEPS[degrees] = worst.degrees
    return step


def _step(t: SplittingType, policy: str) -> SplittingType:
    """``balance_step`` of a checked type of positive width."""
    degrees = t.degrees
    mu = sum(degrees) // len(degrees)
    if policy == "best":
        return SplittingType._of_sorted((2 * mu,) * len(degrees))
    if mu:
        step = _worst_step(tuple(a - mu for a in degrees))
        return SplittingType._of_sorted(tuple(a + 2 * mu for a in step))
    return SplittingType._of_sorted(_worst_step(degrees))


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

    Shifting t by c shifts every pair of z by (c, c), every degbd(z, m) by
    2cm and so the sequential admissible set by 2c.  So ``worst`` is the
    worst step of t - mu, listed once per translation class, shifted by
    2 mu; the module docstring names the five classes below the rank cap.
    """
    _check_balance_input(t, policy)
    if balance_width(t) == 0:
        return t
    return _step(t, policy)


def balance(
    t: SplittingType, max_steps: int = 8, policy: str = "worst"
) -> BalanceTrace:
    """Iterate balance_step until width zero or the step cap.

    Hitting the cap is reported through ``converged``, not raised.  The input
    is checked once: each step keeps the rank, the best step is balanced, the
    worst is a sequential smoothing, and either has twice the integer slope.
    """
    max_steps = exact_int(max_steps, "max_steps")
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    _check_balance_input(t, policy)
    states = [t]
    while balance_width(states[-1]) != 0 and len(states) <= max_steps:
        states.append(_step(states[-1], policy))
    steps = len(states) - 1
    return BalanceTrace(tuple(states), steps, 2**steps, balance_width(states[-1]) == 0)
