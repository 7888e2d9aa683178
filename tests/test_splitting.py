"""Splitting-type calculus: slopes, panels, the specialization order."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from freecurves.errors import NegativeSlope, ShapeMismatch, ZeroSlope
from freecurves.splitting import (
    SplittingType,
    balance_width,
    is_sequential,
    minimal_slope_ratio,
    most_balanced,
    parse_splitting_type,
    slope,
    slope_panel,
    specializes_to,
)

from helpers import direct_sum, dual, nonincreasing_sequences, tensor, types_in_class

degree_lists = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6)


def T(*degrees):
    return SplittingType(degrees)


class TestConstruction:
    def test_canonical_order(self):
        assert SplittingType([0, 2, 1]).degrees == (2, 1, 0)

    def test_equality_is_multiset_equality(self):
        assert T(1, 0, 1) == T(1, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SplittingType([])
        with pytest.raises(ValueError, match="^rank must be positive$"):
            most_balanced(0, 3)

    def test_parse_any_order(self):
        assert parse_splitting_type("2,3,-1") == T(3, 2, -1)
        assert parse_splitting_type(" 4, 3 ,3,2 ") == T(4, 3, 3, 2)

    @pytest.mark.parametrize("text", ["1,,0", "4,3,", ",1", "", " "])
    def test_parse_rejects_empty_item(self, text):
        with pytest.raises(ValueError, match="not an integer"):
            parse_splitting_type(text)

    def test_str_round_trip(self):
        for t in (T(4, 3, 3, 2), T(-1), T(0, 0, -5)):
            assert parse_splitting_type(str(t)) == t


class TestSlope:
    def test_examples(self):
        assert slope(T(2, 1, 1, 0)) == 1
        assert slope(T(3, 2, 2, 1)) == 2
        assert slope(T(0, 0, 0)) == 0

    def test_exact_fraction(self):
        assert slope(T(1, 0)) == Fraction(1, 2)


class TestSlopePanel:
    def test_grassmannian_panel(self):
        panel = slope_panel(T(4, 3, 3, 2))
        assert type(panel) is tuple
        assert panel == (
            Fraction(4, 3),
            Fraction(1),
            Fraction(1),
            Fraction(2, 3),
        )

    def test_balanced_panel(self):
        assert slope_panel(T(1, 1)) == (Fraction(1), Fraction(1))

    def test_zero_slope_rejected(self):
        with pytest.raises(ZeroSlope):
            slope_panel(T(1, 0, -1))

    def test_negative_slope_keeps_summand_order(self):
        panel = slope_panel(T(-1, -2))
        assert panel == (Fraction(2, 3), Fraction(4, 3))
        assert sum(panel) == 2

    @given(degree_lists)
    def test_entries_sum_to_rank(self, degs):
        t = SplittingType(degs)
        if t.total_degree == 0:
            return
        assert sum(slope_panel(t)) == t.rank


class TestMinimalSlopeRatio:
    def test_examples(self):
        assert minimal_slope_ratio(T(4, 3, 3, 2)) == Fraction(2, 3)
        assert minimal_slope_ratio(T(1, 1, 1)) == 1
        assert minimal_slope_ratio(T(3, 0)) == 0

    def test_zero_and_negative_slope_rejected(self):
        with pytest.raises(ZeroSlope):
            minimal_slope_ratio(T(1, -1))
        with pytest.raises(NegativeSlope):
            minimal_slope_ratio(T(-1, -1))


class TestSpecialization:
    def test_balanced_specializes_to_split(self):
        assert specializes_to(T(1, 1), T(2, 0))

    def test_split_does_not_generalize(self):
        assert not specializes_to(T(2, 0), T(1, 1))

    @given(degree_lists)
    def test_reflexive(self, degs):
        t = SplittingType(degs)
        assert specializes_to(t, t)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            specializes_to(T(1, 1), T(1, 1, 0))
        with pytest.raises(ShapeMismatch):
            specializes_to(T(1, 1), T(1, 0))

    def test_partial_order_laws_small_classes(self):
        # reflexivity, antisymmetry, transitivity on every (rank, degree)
        # class with rank <= 3 and entries in [-2, 2]
        for rank in (1, 2, 3):
            seqs = list(nonincreasing_sequences(rank, -2, 2))
            by_degree = {}
            for s in seqs:
                by_degree.setdefault(sum(s), []).append(SplittingType(s))
            for cls in by_degree.values():
                for t in cls:
                    assert specializes_to(t, t)
                for a, b in combinations(cls, 2):
                    if specializes_to(a, b) and specializes_to(b, a):
                        assert a == b
                for a in cls:
                    for b in cls:
                        for c in cls:
                            if specializes_to(a, b) and specializes_to(b, c):
                                assert specializes_to(a, c)

    def test_order_laws_rank_five(self):
        # exhaustive reflexivity/antisymmetry at rank 5 with |entries| <= 4;
        # transitivity on a seeded sample of triples (the classes are big)
        import random

        rng = random.Random(5)
        by_degree = {}
        for s in nonincreasing_sequences(5, -4, 4):
            by_degree.setdefault(sum(s), []).append(SplittingType(s))
        for cls in by_degree.values():
            for t in cls:
                assert specializes_to(t, t)
            for a, b in combinations(cls, 2):
                assert not (specializes_to(a, b) and specializes_to(b, a))
            for _ in range(min(400, len(cls) ** 2)):
                a, b, c = (rng.choice(cls) for _ in range(3))
                if specializes_to(a, b) and specializes_to(b, c):
                    assert specializes_to(a, c)

    def test_most_balanced_is_the_unique_global_generalization(self):
        for rank in (2, 3, 4):
            for degree in range(-4, 5):
                cls = types_in_class(rank, degree, -4, 4)
                top = most_balanced(rank, degree)
                assert top in cls
                assert all(specializes_to(top, t) for t in cls)
                others = [
                    t
                    for t in cls
                    if t != top and all(specializes_to(t, u) for u in cls)
                ]
                assert not others


class TestWidthAndSequential:
    def test_balance_width_examples(self):
        assert balance_width(T(2, 1, 0)) == 2
        assert balance_width(T(5, 5, 5)) == 0
        assert balance_width(T(2, 2, 1)) == 1

    def test_is_sequential_examples(self):
        assert is_sequential(T(3, 2, 2, 1))
        assert not is_sequential(T(3, 1))
        assert is_sequential(T(7))

    @given(degree_lists)
    def test_width_at_most_one_implies_sequential(self, degs):
        t = SplittingType(degs)
        if balance_width(t) <= 1:
            assert is_sequential(t)

    @given(degree_lists)
    def test_zero_balanced_panel_is_all_ones(self, degs):
        t = SplittingType(degs)
        if balance_width(t) == 0 and t.total_degree != 0:
            assert all(e == 1 for e in slope_panel(t))


class TestBundleAlgebra:
    def test_tensor_square_of_line_pair(self):
        assert tensor(T(1, 0), T(1, 0)) == T(2, 1, 1, 0)

    def test_tensor_identity(self):
        for t in (T(3, 1), T(0, -2, -2), T(5)):
            assert tensor(T(0), t) == t

    def test_tensor_rank_one(self):
        assert tensor(T(3), T(-5)) == T(-2)

    @given(degree_lists, degree_lists)
    def test_tensor_commutes(self, d1, d2):
        t1, t2 = SplittingType(d1), SplittingType(d2)
        assert tensor(t1, t2) == tensor(t2, t1)

    @given(degree_lists)
    def test_dual_involution_and_width(self, degs):
        t = SplittingType(degs)
        assert dual(dual(t)) == t
        assert balance_width(dual(t)) == balance_width(t)

    def test_direct_sum_merges(self):
        assert direct_sum(T(2, 0), T(1)) == T(2, 1, 0)

    def test_dual_reverses(self):
        assert dual(T(3, 1, 0)) == T(0, -1, -3)


class TestMostBalanced:
    def test_width_at_most_one(self):
        for rank in range(1, 6):
            for degree in range(-7, 8):
                t = most_balanced(rank, degree)
                assert t.rank == rank
                assert t.total_degree == degree
                assert balance_width(t) <= 1
