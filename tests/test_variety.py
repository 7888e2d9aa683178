"""Variety models: cone machinery, expected panels, validation, builders."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from freecurves.counting import r_min
from freecurves.errors import (
    BoundaryMismatch,
    NoChamber,
    NotInNefCone,
    RankTooLarge,
    UnboundedSlice,
    ZeroDegree,
)
from freecurves.modelio import fixture_path, load_model, load_model_file
from freecurves.variety import (
    MAX_PANEL_LENGTH,
    Chamber,
    VarietyModel,
    cone_rays,
    dot,
    esp,
    liberated_lower_bound,
    pbundle,
    toy_rho1,
    validate,
)

from helpers import (
    chamber_failures,
    one_chamber_pbundle,
    pbundle_twists,
    slice_classes,
    subset_cone_rays,
    toy_rho2,
)

@st.composite
def cone_facets(draw):
    """(facets, rho): up to rho + 5 facets at rho 1 to 5.  Each is new,
    with entries in [-2, 2]; or an integer multiple of an earlier one, so
    zero, repeated and parallel facets and cones with a line come up; or
    it has last entry 1 and the others in [-1, 1], so cones over polygons
    with many sides come up."""
    rho = draw(st.integers(1, 5))
    facets = []
    for _ in range(draw(st.integers(0, rho + 5))):
        kind = draw(st.sampled_from(["cap", "new", "multiple"][: 2 + bool(facets)]))
        if kind == "cap":
            facets.append(draw(st.tuples(*[st.integers(-1, 1)] * (rho - 1))) + (1,))
        elif kind == "new":
            facets.append(draw(st.tuples(*[st.integers(-2, 2)] * rho)))
        else:
            scale = draw(st.integers(-2, 3))
            facets.append(tuple(scale * c for c in draw(st.sampled_from(facets))))
    return facets, rho


def _in_conic_hull(pt, rays):
    # 2d only; a pointed plane cone has at most two extremal rays
    assert len(rays) <= 2
    if len(rays) == 1:
        (rx, ry), (px, py) = rays[0], pt
        if rx * py - ry * px != 0:
            return False
        scale = Fraction(px, rx) if rx else Fraction(py, ry)
        return scale >= 0
    (ax, ay), (bx, by) = rays
    det = ax * by - ay * bx
    if det == 0:
        return any(_in_conic_hull(pt, [r]) for r in rays)
    lam1 = Fraction(pt[0] * by - pt[1] * bx, det)
    lam2 = Fraction(ax * pt[1] - ay * pt[0], det)
    return lam1 >= 0 and lam2 >= 0


class TestConeRays:
    def test_quadrant(self):
        assert cone_rays([(1, 0), (0, 1)], 2) == [(0, 1), (1, 0)]

    def test_wedge(self):
        # more facets than the lattice rank
        assert cone_rays([(1, 0), (0, 1), (1, -1)], 2) == [(1, 0), (1, 1)]
        square = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
        assert cone_rays(square, 3) == [
            (-1, -1, 1),
            (-1, 1, 1),
            (1, -1, 1),
            (1, 1, 1),
        ]
        rays = cone_rays(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -1, 0)],
            4,
        )
        assert rays == [
            (0, 0, 0, 1),
            (0, 1, 0, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 0),
            (1, 0, 1, 0),
        ]

    def test_line_models(self):
        assert cone_rays([(1,)], 1) == [(1,)]
        assert cone_rays([(1,), (-1,)], 1) == []

    def test_octant(self):
        rays = cone_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert rays == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        # the dependent pair (1,0,0), (2,0,0) has no normal and is skipped
        rays = cone_rays([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert rays == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_primitive_rays(self):
        assert cone_rays([(2, 0), (0, 3)], 2) == [(0, 1), (1, 0)]

    def test_not_pointed(self):
        with pytest.raises(ValueError):
            cone_rays([(1, 1)], 2)
        with pytest.raises(ValueError):
            cone_rays([], 1)
        with pytest.raises(ValueError, match="contains a line"):
            cone_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)

    @given(cone_facets())
    @example(([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3))
    @example(([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, 0)], 3))
    @example(([(1, 0), (2, 0), (-1, 0), (0, 1)], 2))
    @settings(max_examples=500, deadline=None)
    def test_matches_subset_search(self, case):
        facets, rho = case
        try:
            expected = subset_cone_rays(facets, rho)
        except ValueError as exc:
            assert "contains a line" in str(exc)
            with pytest.raises(ValueError, match="contains a line"):
                cone_rays(facets, rho)
        else:
            assert cone_rays(facets, rho) == expected

    def test_orthant_with_redundant_facets(self):
        # the rank-8 orthant and the redundant x_i + x_(i+1) >= 0, past the
        # sizes the subset-search oracle is run at
        rho = 8
        units = [tuple(int(i == j) for j in range(rho)) for i in range(rho)]
        pairs = [
            tuple(int(j in (i, (i + 1) % rho)) for j in range(rho)) for i in range(rho)
        ]
        assert cone_rays(units + pairs, rho) == sorted(units)

    @pytest.mark.parametrize("facets", [[(1,), (0, 1)], [(1, 0, 0), (0, 1, 0)]])
    def test_facet_of_wrong_length(self, facets):
        with pytest.raises(ValueError, match="facet length [13] != rho 2"):
            cone_rays(facets, 2)

    @pytest.mark.parametrize("rho", [0, -1])
    def test_rho_must_be_positive(self, rho):
        with pytest.raises(ValueError, match="cone_rays rho must be positive"):
            cone_rays([], rho)

    def test_rays_generate_the_cone(self):
        # every feasible lattice point in a box must be a non-negative
        # rational combination of the computed rays (solved exactly in 2d)
        import random

        rng = random.Random(17)
        built = 0
        while built < 25:
            facets = [
                (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)
            ]
            try:
                rays = cone_rays(facets, 2)
            except ValueError:
                continue
            built += 1
            feasible = [
                (x, y)
                for x in range(-6, 7)
                for y in range(-6, 7)
                if all(f[0] * x + f[1] * y >= 0 for f in facets)
                and (x, y) != (0, 0)
            ]
            if not rays:
                assert not feasible
                continue
            for pt in feasible:
                assert _in_conic_hull(pt, rays), (facets, rays, pt)


class TestBuilders:
    def test_pbundle_fixture_shape(self):
        model = pbundle(3, 2, [3, 0, 0])
        assert model.rho == 2
        assert model.dim_n == 5
        assert model.minus_k == (10, 3)
        assert validate(model).ok

    def test_pbundle_slope_gap_on_generators(self):
        # the relative piece beats the base piece by at least 1 on both
        # nef rays for the unbalanced parameter family
        for n0, m in ((3, 2), (4, 2), (3, 3), (5, 4)):
            model = pbundle(n0, m, [n0] + [0] * m)
            (rk_rel, rel), (rk_base, base) = model.chambers[0].filtration
            assert rk_rel == m and rk_base == n0
            assert model._nef_rays == ((0, 1), (1, 0))
            for ray in model._nef_rays:
                assert dot(rel, ray) - dot(base, ray) >= 1

    def test_pbundle_parameter_validation(self):
        with pytest.raises(ValueError):
            pbundle(3, 2, [3, 0])
        with pytest.raises(ValueError):
            pbundle(3, 2, [0, 0, 0])
        with pytest.raises(ValueError):
            pbundle(3, 2, [0, 3, 0])
        with pytest.raises(ValueError):
            pbundle(2, 1, [2, 1])
        with pytest.raises(ValueError, match="^n0 and m must be positive$"):
            pbundle(0, 1, [1, 0])

    def test_pbundle_builds_exactly_the_valid_one_chamber_models(self):
        # F_1 = pbundle(1, 1, [1, 0]) and (2, 1, [1, 0]) have the base slope
        # above the relative one on ray (1, 0), so one chamber with the
        # relative piece first fails validate there; pbundle refuses them
        grid = pbundle_twists(6, 4)
        assert len(grid) == 231
        refused = 0
        for n0, m, a in grid:
            one = one_chamber_pbundle(n0, m, a)
            try:
                model = pbundle(n0, m, a)
            except ValueError as exc:
                assert f"twists {a} over P^{n0}" in str(exc)
                assert not validate(one).ok, (n0, m, a)
                refused += 1
            else:
                assert model == one
                assert validate(model).ok, (n0, m, a)
        assert 0 < refused < len(grid)

    def test_toys_validate(self):
        assert validate(toy_rho1(1)).ok
        assert validate(toy_rho1(3, dim=4)).ok
        assert validate(toy_rho2()).ok
        with pytest.raises(ValueError, match="^anticanonical step must be positive$"):
            toy_rho1(0)


def _diagonal_mismatch():
    """Two chambers meeting on the diagonal, where one gives slopes (1, 1)
    and the other (2, 0)."""
    return VarietyModel(
        rho=2,
        dim_n=2,
        minus_k=(1, 1),
        nef_facets=((1, 0), (0, 1)),
        chambers=(
            Chamber(
                facets=((1, -1),),
                filtration=((2, (Fraction(1, 2), Fraction(1, 2))),),
            ),
            Chamber(facets=((-1, 1),), filtration=((1, (2, 0)), (1, (-1, 1)))),
        ),
    )


class TestEsp:
    def test_pbundle_class(self):
        panel = esp(pbundle(3, 2, [3, 0, 0]), (1, 0))
        assert panel == (
            Fraction(3, 2),
            Fraction(3, 2),
            Fraction(2, 3),
            Fraction(2, 3),
            Fraction(2, 3),
        )
        assert sum(panel) == 5

    def test_entries_are_fractions(self):
        # lattice arithmetic stays in int; esp forms its ratios as Fractions,
        # never as int / int, which would be an inexact float
        assert type(dot((1, 2), (3, 4))) is int
        assert dot((1, 2), (3, 4)) == 11
        assert type(dot((), ())) is int
        assert type(dot((Fraction(1, 2), 1), (2, 3))) is Fraction
        model = pbundle(3, 2, [3, 0, 0])
        assert type(model.degree((1, 0))) is int
        panel = esp(model, (1, 0))
        assert type(panel) is tuple
        assert all(type(e) is Fraction for e in panel)
        assert Fraction(2, 3) in panel
        assert type(liberated_lower_bound(model, (1, 0))) is Fraction

    def test_semistable_chamber_is_all_ones(self):
        model = toy_rho1(2, dim=3)
        assert esp(model, (7,)) == (1, 1, 1)

    def test_scaling_invariance(self):
        model = pbundle(3, 2, [3, 0, 0])
        for alpha in ((1, 0), (1, 2), (0, 1)):
            scaled = tuple(5 * c for c in alpha)
            assert esp(model, scaled) == esp(model, alpha)

    def test_entries_sum_to_dimension(self):
        for model in (pbundle(3, 2, [3, 0, 0]), toy_rho2(), toy_rho1(2, dim=3)):
            for x in range(3):
                for y in range(3):
                    alpha = (x, y)[: model.rho]
                    if sum(alpha) == 0:
                        continue
                    assert sum(esp(model, alpha)) == model.dim_n

    def test_not_in_nef(self):
        with pytest.raises(NotInNefCone):
            esp(toy_rho2(), (-1, 0))

    def test_nef_membership(self):
        # nef membership comes before the degree: the origin is nef and of
        # degree 0, and (-1, 2) has positive degree but is not nef
        model = toy_rho2()
        assert esp(model, (3, 1))
        with pytest.raises(ZeroDegree):
            esp(model, (0, 0))
        with pytest.raises(NotInNefCone, match=r"\(-1, 2\) violates a nef facet"):
            esp(model, (-1, 2))

    def test_no_chamber(self):
        half = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(
                Chamber(
                    facets=((1, -1),),
                    filtration=((2, (Fraction(1, 2), Fraction(1, 2))),),
                ),
            ),
        )
        assert esp(half, (2, 1)) == (1, 1)
        with pytest.raises(NoChamber):
            esp(half, (0, 1))

    def test_zero_degree(self):
        skew = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, -1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(
                Chamber(facets=(), filtration=((2, (Fraction(1, 2), Fraction(-1, 2))),)),
            ),
        )
        with pytest.raises(ZeroDegree):
            esp(skew, (1, 1))
        with pytest.raises(ZeroDegree):
            esp(skew, (0, 1))

    def test_shared_face_consistent(self):
        model = toy_rho2()
        assert esp(model, (3, 3)) == (1, 1)

    def test_shared_face_mismatch(self):
        with pytest.raises(BoundaryMismatch):
            esp(_diagonal_mismatch(), (1, 1))

    def test_merged_pieces_meet_on_a_wall(self):
        # the rank-2 piece of x >= y meets the two rank-1 pieces of y >= x,
        # whose slopes x and y agree on the diagonal; there the panels match
        # summand by summand, so the wall is consistent
        model = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(
                Chamber(
                    facets=((1, -1),),
                    filtration=((2, (Fraction(1, 2), Fraction(1, 2))),),
                ),
                Chamber(facets=((-1, 1),), filtration=((1, (0, 1)), (1, (1, 0)))),
            ),
        )
        assert esp(model, (1, 1)) == (1, 1)
        assert esp(model, (1, 2)) == (Fraction(4, 3), Fraction(2, 3))
        assert liberated_lower_bound(model, (1, 1)) == 0
        assert validate(model).ok
        with pytest.raises(BoundaryMismatch):
            esp(_diagonal_mismatch(), (1, 1))

    def test_wrong_length(self):
        # chamber_pieces checks its class as esp does
        model = toy_rho2()
        for alpha in ((3,), (3, 2, 7)):
            for read in (lambda a: esp(model, a), model.chamber_pieces):
                with pytest.raises(ValueError, match=f"class length {len(alpha)} != rho 2"):
                    read(alpha)

    def test_panel_length_is_capped(self):
        # the panel lists one entry per summand, so a piece of larger rank
        # is refused before it is expanded; the bound reads the piece once
        assert len(esp(toy_rho1(1, dim=MAX_PANEL_LENGTH), (1,))) == MAX_PANEL_LENGTH
        for rank in (MAX_PANEL_LENGTH + 1, 10**30):
            model = toy_rho1(1, dim=rank)
            with pytest.raises(RankTooLarge, match="exceeds"):
                esp(model, (3,))
            assert liberated_lower_bound(model, (3,)) == 1 - Fraction(rank * rank, 6)


class TestScaledSlopes:
    def test_model_denominator_is_the_lcm(self):
        # pbundle's slopes are (3, 3/2) and (4/3, 0); toy_rho2's are over 4
        assert pbundle(3, 2, [3, 0, 0]).slope_den == 6
        assert toy_rho2().slope_den == 4
        assert toy_rho1(3).slope_den == 2
        bare = VarietyModel(
            rho=1, dim_n=1, minus_k=(1,), nef_facets=((1,),), chambers=()
        )
        assert bare.slope_den == 1

    def test_pieces_are_integer_numerators(self):
        model = pbundle(3, 2, [3, 0, 0])
        # slopes 6/2 * 1 + 3/2 * 2 = 6 and 4/3 over D = 6
        assert model.chamber_pieces((1, 2)) == [(2, 36), (3, 8)]
        assert all(type(b) is int for _, b in model.chamber_pieces((1, 2)))
        # on the wall of toy_rho2 both pieces have slope (x + y) / 2 and merge
        assert toy_rho2().chamber_pieces((3, 3)) == [(2, 12)]

    def test_scaled_data_stays_out_of_equality(self):
        assert pbundle(3, 2, [3, 0, 0]) == pbundle(3, 2, [3, 0, 0])
        assert "slope_den" not in repr(toy_rho1(1))


def _fixtures():
    return [
        load_model_file(fixture_path(name)).model
        for name in ("pbundle.json", "toy_rho1.json", "toy_rho2.json")
    ]


slopes = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def two_chamber_models(draw):
    """Quadrant models split along the diagonal, the chamber y >= x mirroring
    the pieces of x >= y so that the two agree on the wall."""
    pieces = draw(
        st.lists(st.tuples(st.integers(1, 3), slopes, slopes), min_size=1, max_size=3)
    )
    return VarietyModel(
        rho=2,
        dim_n=sum(r for r, _, _ in pieces),
        minus_k=draw(st.tuples(st.integers(1, 4), st.integers(1, 4))),
        nef_facets=((1, 0), (0, 1)),
        chambers=(
            Chamber(facets=((1, -1),), filtration=[(r, (a, b)) for r, a, b in pieces]),
            Chamber(facets=((-1, 1),), filtration=[(r, (b, a)) for r, a, b in pieces]),
        ),
    )


class TestLiberatedLowerBound:
    @given(st.sampled_from(_fixtures()) | two_chamber_models())
    @settings(max_examples=80, deadline=None)
    def test_least_piece_slope_matches_panel(self, model):
        n = model.dim_n
        for alpha in slice_classes(model, 8 * r_min(model)):
            deg = model.degree(alpha)
            expected = min(esp(model, alpha)) - Fraction(n * n, 2 * deg)
            assert liberated_lower_bound(model, alpha) == expected

    def test_pbundle_value(self):
        model = pbundle(3, 2, [3, 0, 0])
        assert liberated_lower_bound(model, (10, 0)) == Fraction(13, 24)

    def test_semistable_formula(self):
        model = toy_rho1(1, dim=2)
        for d in (3, 5, 40):
            assert liberated_lower_bound(model, (d,)) == 1 - Fraction(4, 2 * d)
        # 1 - n^2 / (2 deg) at n = 3, deg = 9 and n = 5, deg = 25
        assert liberated_lower_bound(toy_rho1(1, dim=3), (9,)) == Fraction(1, 2)
        assert liberated_lower_bound(toy_rho1(1, dim=5), (25,)) == Fraction(1, 2)

    def test_degenerate_bound_is_non_positive(self):
        model = toy_rho1(1, dim=2)
        assert liberated_lower_bound(model, (2,)) <= 0


# primitive rays of the quadrant with coordinates at most 5, by angle from
# (1, 0) to (0, 1)
QUADRANT_RAYS = sorted(
    ((a, b) for a in range(6) for b in range(6) if gcd(a, b) == 1),
    key=lambda ray: Fraction(ray[1], sum(ray)),
)
# few slope vectors, so that chambers sharing a ray often agree there
PIECE_SLOPES = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


@st.composite
def quadrant_models(draw):
    """A model on the quadrant split at random rays of ``QUADRANT_RAYS``,
    some chambers dropped and some widened past their walls, each chamber
    with one or two pieces."""
    last = len(QUADRANT_RAYS) - 1
    cuts = draw(st.sets(st.integers(1, last - 1), max_size=5))
    walls = [0, *sorted(cuts), last]
    chambers = []
    for lo, hi in zip(walls, walls[1:]):
        shape = draw(st.sampled_from(["keep", "keep", "drop", "widen"]))
        if shape == "drop":
            continue
        if shape == "widen":
            lo, hi = draw(st.integers(0, lo)), draw(st.integers(hi, last))
        (a0, a1), (b0, b1) = QUADRANT_RAYS[lo], QUADRANT_RAYS[hi]
        slopes = draw(st.lists(st.sampled_from(PIECE_SLOPES), min_size=1, max_size=2))
        chambers.append(
            Chamber(
                facets=((-a1, a0), (b1, -b0)),
                filtration=[(2 // len(slopes), s) for s in slopes],
            )
        )
    return VarietyModel(
        rho=2,
        dim_n=2,
        minus_k=(1, 1),
        nef_facets=((1, 0), (0, 1)),
        chambers=chambers,
    )


class TestValidate:
    def test_rank_sum_violation(self):
        model = VarietyModel(
            rho=1,
            dim_n=3,
            minus_k=(1,),
            nef_facets=((1,),),
            chambers=(Chamber(facets=(), filtration=((2, (Fraction(1),)),)),),
        )
        report = validate(model)
        assert not report.ok
        assert any("ranks sum" in v for v in report.violations)
        assert any("do not sum to minus_k" in v for v in report.violations)

    def test_negative_slope_on_ray_violation(self):
        model = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(
                Chamber(facets=(), filtration=((1, (1, 2)), (1, (0, -1)))),
            ),
        )
        report = validate(model)
        assert any("negative on ray" in v for v in report.violations)

    def test_increasing_slopes_violation(self):
        model = VarietyModel(
            rho=1,
            dim_n=2,
            minus_k=(3,),
            nef_facets=((1,),),
            chambers=(Chamber(facets=(), filtration=((1, (1,)), (1, (2,)))),),
        )
        report = validate(model)
        assert any("increase on ray" in v for v in report.violations)

    def test_coverage_gap_violation(self):
        model = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(
                Chamber(
                    facets=((1, -1),),
                    filtration=((2, (Fraction(1, 2), Fraction(1, 2))),),
                ),
            ),
        )
        report = validate(model)
        assert any("lies in no chamber" in v for v in report.violations)

    @settings(max_examples=60, deadline=None)
    @given(quadrant_models())
    def test_coverage_is_exact_at_lattice_rank_two(self, model):
        # validate samples points with coordinates at most 10, which the
        # scan holds too; at rho 2 it misses no failure the scan finds
        violations = validate(model).violations
        reported = {
            kind
            for kind, words in (
                (NoChamber, "lies in no chamber"),
                (BoundaryMismatch, "chambers disagree"),
            )
            if any(words in v for v in violations)
        }
        assert reported == chamber_failures(model, 40)

    def test_chamber_disagreement_violation(self):
        report = validate(_diagonal_mismatch())
        assert "chambers disagree on shared point (1, 1)" in report.violations
        assert not any("lies in no chamber" in v for v in report.violations)

    def test_non_positive_degree_on_a_nef_ray(self):
        # minus_k is negative on the nef ray (0, 1), so the degree slice is
        # unbounded
        model = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, -1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(Chamber(facets=(), filtration=((1, (1, 0)), (1, (0, -1)))),),
        )
        assert validate(model).violations == (
            "anticanonical degree not positive on nef ray (0, 1)",
            "chamber 0: slope 1 negative on ray (0, 1)",
        )
        with pytest.raises(UnboundedSlice):
            slice_classes(model, 3)

    @pytest.mark.parametrize("rho", [5, 6])
    def test_ray_checks_past_lattice_rank_four(self, rho):
        # slope 1 is negative only on the last coordinate ray
        last = tuple(int(i == rho - 1) for i in range(rho))
        model = VarietyModel(
            rho=rho,
            dim_n=2,
            minus_k=(1,) * rho,
            nef_facets=[tuple(int(i == j) for j in range(rho)) for i in range(rho)],
            chambers=(
                Chamber(
                    facets=(),
                    filtration=(
                        (1, tuple(1 + c for c in last)),
                        (1, tuple(-c for c in last)),
                    ),
                ),
            ),
        )
        report = validate(model)
        assert report.violations == (f"chamber 0: slope 1 negative on ray {last}",)
        assert report.render() == f"violations: 1\n  {report.violations[0]}"

    def test_unpointed_nef_cone_reported(self):
        model = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 1),
            nef_facets=((1, 1),),
            chambers=(
                Chamber(facets=(), filtration=((2, (Fraction(1, 2), Fraction(1, 2))),)),
            ),
        )
        report = validate(model)
        assert any("nef cone" in v for v in report.violations)


def line_cone():
    """A model whose nef cone is a half-plane, so it contains a line."""
    return VarietyModel(
        rho=2,
        dim_n=2,
        minus_k=(1, 1),
        nef_facets=((1, 1),),
        chambers=(
            Chamber(facets=(), filtration=((2, (Fraction(1, 2), Fraction(1, 2))),)),
        ),
    )


def fresh_fixture(name):
    """A bundled fixture's model built anew.  ``load_model_file`` shares one
    model per content, which may already hold its nef rays."""
    text = fixture_path(name).read_text(encoding="utf-8")
    return load_model(json.loads(text)).model


class TestNefRayCache:
    """The nef rays are found on first use and kept per model; a failure is
    not kept, so it is raised again on every use."""

    def test_rays_found_once_per_model(self, monkeypatch):
        calls = []

        def counted(facets, rho):
            calls.append(rho)
            return cone_rays(facets, rho)

        monkeypatch.setattr("freecurves.variety.cone_rays", counted)
        model = fresh_fixture("toy_rho2.json")
        esp(model, (2, 1))
        assert calls == []
        for bound in (3, 5, 9):
            slice_classes(model, bound)
        assert calls == [2]
        # validate reads the kept nef rays; it finds each chamber's own
        validate(model)
        assert len(calls) == 1 + len(model.chambers)

    def test_cone_with_a_line(self):
        # the model builds; validate reports the cone and every slice
        # refuses it, on the second call as on the first
        model = line_cone()
        message = "cone contains a line: facet normals do not span"
        for _ in range(2):
            assert f"nef cone: {message}" in validate(model).violations
            with pytest.raises(UnboundedSlice) as exc:
                slice_classes(model, 3)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "name", ["pbundle.json", "toy_rho1.json", "toy_rho2.json", "line", "f1"]
    )
    def test_validate_report_unchanged_by_the_cache(self, name):
        def build():
            if name == "line":
                return line_cone()
            if name == "f1":
                # the one-chamber F_1 model, which fails validate; pbundle
                # refuses to build it
                return one_chamber_pbundle(1, 1, [1, 0])
            return fresh_fixture(name)

        fresh = validate(build()).render()
        model = build()
        try:
            slice_classes(model, 4)
        except UnboundedSlice:
            pass
        assert validate(model).render() == fresh
        # the fixtures are valid; the line cone and the one-chamber F_1 not
        assert (fresh == "violations: 0") == name.endswith(".json")

