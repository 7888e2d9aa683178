"""Balance state machine and integer-slope copies."""

import pytest

from freecurves.errors import NonIntegerSlope, NotSequential, RankTooLarge
from freecurves.nodal import Alignment, admissible_smoothings, glue
from freecurves.splitting import (
    SplittingType,
    balance_width,
    is_sequential,
    most_balanced,
)
from freecurves import stability
from freecurves.stability import (
    BALANCE_RANK_CAP,
    balance,
    balance_step,
    integer_slope_copies,
)

from helpers import nonincreasing_sequences, sequential_zero_slope_types


def T(*degrees):
    return SplittingType(degrees)


def shifted(t, c):
    return SplittingType(a + c for a in t.degrees)


class TestBalanceStep:
    def test_rank3_reaches_balanced(self):
        assert balance_step(T(2, 1, 0)) == T(2, 2, 2)

    def test_zero_balanced_is_fixed(self):
        assert balance_step(T(1, 1)) == T(1, 1)
        assert balance_step(T(-3, -3, -3, -3)) == T(-3, -3, -3, -3)

    def test_rank5_worst_case(self):
        assert balance_step(T(2, 1, 0, -1, -2)) == T(1, 1, 0, -1, -1)

    def test_rank5_candidate_set(self):
        # the sequential smoothings of the transversal self-gluing, from
        # which the worst-case policy picks the widest
        t = T(2, 1, 0, -1, -2)
        glued = glue(t, t, Alignment.dual(5))
        assert admissible_smoothings(glued, require_sequential=True) == [
            T(1, 1, 0, -1, -1),
            T(1, 0, 0, 0, -1),
            T(0, 0, 0, 0, 0),
        ]

    def test_best_policy(self):
        assert balance_step(T(2, 1, 0, -1, -2), policy="best") == T(0, 0, 0, 0, 0)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'median'"):
            balance_step(T(1, 1), policy="median")

    @pytest.mark.parametrize("t", [T(1, 1), T(2, 1, 0, -1, -2)])
    def test_bad_policy_refused_by_balance(self, t):
        # balanced input takes no step, yet the policy is still checked
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            balance(t, policy="bogus")

    def test_non_integer_slope(self):
        with pytest.raises(NonIntegerSlope) as err:
            balance_step(T(1, 0))
        assert "2 copies" in str(err.value)

    def test_rank_cap(self):
        with pytest.raises(RankTooLarge):
            balance_step(T(1, 1, 1, 1, 1, 1))

    def test_not_sequential(self):
        with pytest.raises(NotSequential):
            balance_step(T(3, 1))

    def test_never_widens(self):
        for rank in range(2, 6):
            for t in sequential_zero_slope_types(rank):
                for c in (-2, 0, 1):
                    u = shifted(t, c)
                    assert balance_width(balance_step(u)) <= balance_width(u)


def integer_slope_types(lo, hi):
    """Every integer-slope type of rank at most 5 with degrees in [lo, hi]."""
    return [
        T(*degs)
        for rank in range(1, BALANCE_RANK_CAP + 1)
        for degs in nonincreasing_sequences(rank, lo, hi)
        if sum(degs) % rank == 0
    ]


class TestBalancedTypeIsAdmissible:
    def test_balanced_type_is_a_sequential_smoothing(self):
        # sequential or not: the degree bounds alone admit the balanced type
        types = integer_slope_types(-4, 4)
        assert len(types) == 479
        for t in types:
            glued = glue(t, t, Alignment.dual(t.rank))
            smoothings = admissible_smoothings(glued, require_sequential=True)
            assert most_balanced(t.rank, 2 * t.total_degree) in smoothings, t

    def test_best_step_matches_the_widthwise_minimum(self):
        # oracle: the least (width, degrees) over the listed smoothings
        checked = 0
        for t in integer_slope_types(-4, 4):
            if not is_sequential(t) or balance_width(t) == 0:
                continue
            glued = glue(t, t, Alignment.dual(t.rank))
            candidates = admissible_smoothings(glued, require_sequential=True)
            expected = min(candidates, key=lambda u: (balance_width(u), u.degrees))
            assert balance_step(t, "best") == expected, t
            checked += 1
        assert checked > 0


def oracle_step(t, policy):
    """The widest (worst) or narrowest (best) sequential smoothing of the
    transversal self-gluing, ties to the larger or smaller degrees."""
    glued = glue(t, t, Alignment.dual(t.rank))
    candidates = admissible_smoothings(glued, require_sequential=True)
    pick = max if policy == "worst" else min
    return pick(candidates, key=lambda u: (balance_width(u), u.degrees))


# The translation classes of positive width below the rank cap, at slope 0.
WORST_CLASSES = {
    (1, 0, -1),
    (1, 0, 0, -1),
    (1, 1, 0, -1, -1),
    (1, 0, 0, 0, -1),
    (2, 1, 0, -1, -2),
}


class TestWorstStepFromItsClass:
    def test_worst_step_and_traces_match_the_listing(self):
        # every sequential integer-slope type of rank at most 5 in [-6, 6];
        # the worst step comes from a table of translation classes, so the
        # listing it replaced is the oracle, at every translate
        types = [t for t in integer_slope_types(-6, 6) if is_sequential(t)]
        assert len(types) == 118
        for t in types:
            if balance_width(t) != 0:
                assert balance_step(t, "worst") == oracle_step(t, "worst"), t
            for policy in ("worst", "best"):
                states = [t]
                while balance_width(states[-1]) != 0 and len(states) <= 3:
                    states.append(oracle_step(states[-1], policy))
                for max_steps in (1, 2, 3):
                    trace = balance(t, max_steps=max_steps, policy=policy)
                    expected = tuple(states[: max_steps + 1])
                    assert trace.states == expected, (t, policy, max_steps)
                    assert trace.copies == 2**trace.steps == 2 ** (len(expected) - 1)
                    assert trace.converged == (balance_width(expected[-1]) == 0)
        # the table holds each class once, whatever translates were asked
        assert set(stability._WORST_STEPS) == WORST_CLASSES


class TestBalance:
    def test_rank3_trace(self):
        trace = balance(T(2, 1, 0))
        assert trace.steps == 1
        assert trace.copies == 2
        assert trace.states == (T(2, 1, 0), T(2, 2, 2))
        assert trace.converged

    def test_balanced_input_is_a_no_op(self):
        trace = balance(T(1, 1, 1, 1, 1))
        assert trace.steps == 0
        assert trace.copies == 1
        assert trace.converged

    def test_rank5_two_steps(self):
        trace = balance(T(2, 1, 0, -1, -2))
        assert trace.steps == 2
        assert trace.copies == 4
        assert trace.states[-1] == T(0, 0, 0, 0, 0)
        assert trace.converged

    def test_step_cap_reported_not_raised(self):
        trace = balance(T(2, 1, 0, -1, -2), max_steps=1)
        assert trace.steps == 1
        assert not trace.converged

    def test_exhaustive_zero_slope_convergence(self):
        for rank in range(2, 6):
            cap = 1 if rank <= 4 else 2
            for t in sequential_zero_slope_types(rank):
                trace = balance(t)
                assert trace.converged
                assert trace.steps <= cap, (t, trace)

    def test_translation_shifts_states_by_doubling_powers(self):
        # gluing doubles the curve class, so a degree shift of c on the
        # input appears as 2^k c after k steps
        for t in (T(2, 1, 0), T(2, 1, 0, -1, -2), T(1, 0, -1)):
            base = balance(t)
            for c in (-1, 2):
                moved = balance(shifted(t, c))
                assert moved.steps == base.steps
                for k, (u, v) in enumerate(zip(moved.states, base.states)):
                    assert u == shifted(v, (2**k) * c)


class TestIntegerSlopeCopies:
    def test_examples(self):
        assert integer_slope_copies(T(1, 0)) == 2
        assert integer_slope_copies(T(1, 1, 0)) == 3
        assert integer_slope_copies(T(1, -1)) == 1
        assert integer_slope_copies(T(4, 2)) == 1
