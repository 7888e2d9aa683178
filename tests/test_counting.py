"""Counting functions, threshold schedules, and the ratio report."""

from fractions import Fraction
from functools import partial
from itertools import combinations, islice, product
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from freecurves.counting import (
    MAX_COEFFICIENT_TERM,
    MAX_EXPONENT_TERM,
    CountingConfig,
    CountRow,
    EpsPower,
    EpsTable,
    count_N,
    count_N_liberated,
    r_min,
    ratio_check,
)
from freecurves.errors import (
    BoundaryMismatch,
    DomainError,
    NoChamber,
    NotInNefCone,
    UnboundedSlice,
    ZeroDegree,
    ZeroFunctional,
)
from freecurves.variety import (
    Chamber,
    VarietyModel,
    cone_rays,
    pbundle,
    read_class,
    toy_rho1,
    validate,
)

from helpers import (
    _pairing,
    _satisfies,
    box_slice,
    cofactor_det,
    direct_counts,
    dot_fibres,
    dot_runs,
    orthant_slice,
    pieces_oracle,
    slice_classes,
    toy_rho2,
)


eps_powers = st.builds(
    EpsPower,
    st.fractions(min_value=Fraction(1, 10), max_value=2, max_denominator=10),
    st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5)
    | st.sampled_from([Fraction(3, 2), Fraction(2, 3)]),
)
# weight bases above 1, most with a denominator other than 1
q_values = st.builds(
    lambda den, extra: Fraction(den + extra, den), st.integers(1, 4), st.integers(1, 4)
)


def wall_model(minus_k, normal, ranks, t):
    """A model on the orthant whose chamber pieces sum to ``minus_k``: two
    pieces of ranks (r1, r2) with slopes (minus_k + r2 w) / n and
    (minus_k - r1 w) / n for w = t * normal, which differ by w.  At lattice
    rank 1 there is one chamber.  Above it the orthant is split by the wall
    <normal, x> = 0, on which w vanishes, into two chambers that list the
    pieces in opposite orders and so agree on the wall."""
    (r1, r2), n = ranks, sum(ranks)
    w = tuple(t * c for c in normal)
    s1 = (r1, tuple(Fraction(m + r2 * x, n) for m, x in zip(minus_k, w)))
    s2 = (r2, tuple(Fraction(m - r1 * x, n) for m, x in zip(minus_k, w)))
    if len(minus_k) == 1:
        chambers = (Chamber(facets=(), filtration=(s1, s2)),)
    else:
        chambers = (
            Chamber(facets=(normal,), filtration=(s1, s2)),
            Chamber(facets=(tuple(-c for c in normal),), filtration=(s2, s1)),
        )
    rho = len(minus_k)
    return VarietyModel(
        rho=rho,
        dim_n=n,
        minus_k=minus_k,
        nef_facets=tuple(tuple(int(i == j) for j in range(rho)) for i in range(rho)),
        chambers=chambers,
    )


@st.composite
def wall_models(draw, rho):
    """``wall_model``s of lattice rank ``rho`` with a random wall normal."""
    return wall_model(
        minus_k=tuple(draw(st.integers(1, 3)) for _ in range(rho)),
        normal=tuple(draw(st.integers(-3, 3)) for _ in range(rho)) if rho > 1 else (1,),
        ranks=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        t=draw(st.fractions(min_value=0, max_value=3, max_denominator=4)),
    )


def split_model(minus_k, ray, ranks, t):
    """``wall_model`` at lattice rank 1, where w = t, or 2, where the
    quadrant is split along ``ray`` = (u, v), the wall of normal (v, -u)."""
    normal = (1,) if len(minus_k) == 1 else (ray[1], -ray[0])
    return wall_model(minus_k, normal, ranks, t)


@st.composite
def split_models(draw):
    """Random models of lattice rank 1 or 2 on the orthant (see
    ``split_model``); t = 0 merges the two pieces."""
    rho = draw(st.integers(1, 2))
    return split_model(
        minus_k=tuple(draw(st.integers(1, 3)) for _ in range(rho)),
        ray=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        ranks=(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        t=draw(st.fractions(min_value=0, max_value=3, max_denominator=4)),
    )


def cone_model(facets, coefficients):
    """A model without chambers on the cone cut out by ``facets``, with
    minus_k the combination of the facets by ``coefficients``.  When the
    coefficients are positive and the cone is pointed, minus_k is positive
    on every nonzero nef class, so every degree slice is bounded."""
    rho = len(facets[0])
    minus_k = tuple(
        sum(c * f[i] for c, f in zip(coefficients, facets)) for i in range(rho)
    )
    return VarietyModel(
        rho=rho, dim_n=2, minus_k=minus_k, nef_facets=facets, chambers=()
    )


def box_radius(model, bound):
    """The least radius of a box centred at the origin that holds the slice
    0 < degree <= bound: the slice is the hull of the origin and the rays
    scaled to degree bound."""
    return max(
        (
            -(-bound * abs(c) // model.degree(ray))
            for ray in cone_rays(model.nef_facets, model.rho)
            for c in ray
        ),
        default=0,
    )


@st.composite
def pointed_cones(draw):
    """``cone_model``s on random pointed cones of lattice rank 1 to 3; facet
    entries, the last ones included, may be zero or negative."""
    rho = draw(st.integers(1, 3))
    facets = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * rho), min_size=rho, max_size=rho + 2
        )
    )
    assume(any(cofactor_det(list(sub)) for sub in combinations(facets, rho)))
    coefficients = draw(
        st.lists(st.integers(1, 2), min_size=len(facets), max_size=len(facets))
    )
    return cone_model(tuple(facets), coefficients)


@st.composite
def eps_tables(draw):
    """Multi-step tables starting at or below degree 1."""
    later = sorted(draw(st.lists(st.integers(2, 12), max_size=4, unique=True)))
    degrees = [draw(st.integers(-2, 1))] + later
    values = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=20),
            min_size=len(degrees),
            max_size=len(degrees),
        )
    )
    return EpsTable(zip(degrees, sorted(values, reverse=True)))


def config(**overrides):
    base = dict(
        q=2,
        br=1,
        m_cap=1,
        beta=(0, 0),
        outside_xi=1,
        eps=EpsPower(1, Fraction(1, 2)),
        delta=Fraction(1, 10),
    )
    base.update(overrides)
    return CountingConfig(**base)


def drawn_config(data, rho):
    """A config for lattice rank ``rho`` with q, br, beta, the outside value
    and the threshold schedule drawn at random."""
    return config(
        q=data.draw(q_values),
        br=data.draw(st.integers(0, 3)),
        m_cap=3,
        beta=tuple(data.draw(st.integers(-1, 3)) for _ in range(rho)),
        outside_xi=data.draw(st.integers(0, 3)),
        eps=data.draw(st.one_of(eps_powers, eps_tables())),
    )


class TestRMin:
    def test_gcd_examples(self):
        assert r_min(toy_rho2()) == 1
        model = VarietyModel(
            rho=2, dim_n=2, minus_k=(2, 4), nef_facets=((1, 0), (0, 1)), chambers=()
        )
        assert r_min(model) == 2
        model3 = VarietyModel(
            rho=3,
            dim_n=2,
            minus_k=(6, 10, 15),
            nef_facets=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            chambers=(),
        )
        assert r_min(model3) == 1
        signed = VarietyModel(
            rho=2, dim_n=2, minus_k=(-4, 6), nef_facets=((1, 0), (0, 1)), chambers=()
        )
        assert r_min(signed) == 2

    def test_zero_functional(self):
        # the model builds; the degree step it sets up is zero, and both
        # r_min and ratio_check refuse it
        for rho in (1, 2):
            model = VarietyModel(
                rho=rho,
                dim_n=2,
                minus_k=(0,) * rho,
                nef_facets=tuple(
                    tuple(int(i == j) for j in range(rho)) for i in range(rho)
                ),
                chambers=(),
            )
            with pytest.raises(ZeroFunctional, match="anticanonical functional is zero"):
                r_min(model)
            with pytest.raises(ZeroFunctional, match="anticanonical functional is zero"):
                ratio_check(model, config(beta=(0,) * rho), range(1, 4))


class TestLatticeSlice:
    def test_quadrant_degree_two(self):
        assert slice_classes(toy_rho2(), 2) == [
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    def test_below_minimal_degree_is_empty(self):
        assert slice_classes(toy_rho1(3), 2) == []

    def test_ray_count(self):
        assert len(slice_classes(toy_rho1(2), 11)) == 5

    def test_origin_excluded(self):
        assert (0, 0) not in slice_classes(toy_rho2(), 5)

    def test_bound_must_be_positive(self):
        # checked at the call, before any fibre is asked for
        for bound in (0, -3):
            with pytest.raises(ValueError, match="slice bound must be positive"):
                toy_rho2()._fibres(bound)

    def test_unbounded_when_degree_vanishes_on_ray(self):
        model = VarietyModel(
            rho=2, dim_n=2, minus_k=(1, 0), nef_facets=((1, 0), (0, 1)), chambers=()
        )
        with pytest.raises(UnboundedSlice):
            slice_classes(model, 3)

    def test_unbounded_when_cone_has_a_line(self):
        model = VarietyModel(
            rho=2, dim_n=2, minus_k=(1, 1), nef_facets=((1, 1),), chambers=()
        )
        with pytest.raises(UnboundedSlice):
            slice_classes(model, 3)

    def test_rho5_orthant_matches_box_scan(self):
        facets = tuple(
            tuple(1 if i == j else 0 for j in range(5)) for i in range(5)
        )
        model = VarietyModel(
            rho=5, dim_n=2, minus_k=(1,) * 5, nef_facets=facets, chambers=()
        )
        # the box reaches past the slice on every side
        expected = [
            pt
            for pt in product(range(-1, 5), repeat=5)
            if min(pt) >= 0 and 0 < sum(pt) <= 3
        ]
        assert len(expected) == 55
        assert slice_classes(model, 3) == expected

    def test_pbundle_slice_is_finite(self):
        pts = slice_classes(pbundle(3, 2, [3, 0, 0]), 20)
        assert all(0 < 10 * x + 3 * y <= 20 for x, y in pts)
        assert (1, 3) in pts and (2, 0) in pts

    def test_skew_cone_matches_box_scan(self):
        # cone between the rays (1,0) and (1,1); oracle scans a box far
        # larger than the slice could reach
        model = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(2, -1),
            nef_facets=((0, 1), (1, -1)),
            chambers=(),
        )
        expected = sorted(
            (x, y)
            for x in range(-20, 21)
            for y in range(-20, 21)
            if y >= 0 and x >= y and 0 < 2 * x - y <= 4
        )
        assert slice_classes(model, 4) == expected

    @pytest.mark.parametrize(
        "facets",
        [
            # last facet coefficients 0 and -1; minus_k = (2, -1)
            ((1, 0), (1, -1)),
            # last coefficients 0, 0, -1 and 1; minus_k = (2, 2, 0)
            ((1, 0, 0), (0, 1, 0), (1, 1, -1), (0, 0, 1)),
            # last coefficients -1, 0 and -2; minus_k = (2, 0, -3)
            ((0, 1, -1), (1, 0, 0), (1, -1, -2)),
        ],
    )
    def test_non_positive_last_coefficients_match_box_scan(self, facets):
        model = cone_model(facets, (1,) * len(facets))
        assert any(f[-1] == 0 for f in facets)
        assert any(f[-1] < 0 for f in facets)
        assert model.minus_k[-1] <= 0
        for bound in range(1, 9):
            assert slice_classes(model, bound) == box_slice(
                model, bound, box_radius(model, bound)
            )

    @given(pointed_cones(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_box_scan_property(self, model, bound):
        radius = box_radius(model, bound)
        assume(radius ** model.rho <= 2000)
        assert slice_classes(model, bound) == box_slice(model, bound, radius)

    @pytest.mark.parametrize(
        "minus_k, facets, message",
        [
            (
                (1, 1),
                ((1, 1),),
                "cone contains a line: facet normals do not span",
            ),
            (
                (1, 0),
                ((1, 0), (0, 1)),
                "anticanonical degree not positive on nef ray (0, 1)",
            ),
            (
                (1, -1, 1),
                ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                "anticanonical degree not positive on nef ray (0, 1, 0)",
            ),
        ],
    )
    def test_unbounded_messages_on_every_call(self, minus_k, facets, message):
        model = VarietyModel(
            rho=len(minus_k), dim_n=2, minus_k=minus_k, nef_facets=facets, chambers=()
        )
        for _ in range(2):
            with pytest.raises(UnboundedSlice) as exc:
                slice_classes(model, 3)
            assert str(exc.value) == message
            with pytest.raises(UnboundedSlice) as exc:
                ratio_check(model, config(beta=(0,) * len(minus_k)), [2])
            assert str(exc.value) == message


class TestXi:
    def test_translate(self):
        # at q = 2 the classes of degree 1, 2 and 3 weigh 2, 4 and 8; xi is 3
        # on the translate by (1, 1) and 1 outside it.  Degree 1: (1, 0) and
        # (0, 1), both outside.  Degree 2: (1, 1) on the boundary is inside,
        # (2, 0) and (0, 2) are outside.  Degree 3: (2, 1) and (1, 2) are
        # inside, (3, 0) and (0, 3) outside.
        cfg = config(br=3, m_cap=3, outside_xi=1, beta=(1, 1))
        assert count_N(toy_rho2(), cfg, 3) == 2 * 2 + 5 * 4 + 8 * 8 == 88


class TestCountN:
    def test_rho1_geometric_sum(self):
        cfg = config(beta=(0,))
        assert count_N(toy_rho1(1), cfg, 3) == 14

    def test_rho2_quadrant(self):
        assert count_N(toy_rho2(), config(), 2) == 16

    def test_zero_xi_gives_zero(self):
        cfg = config(br=0, outside_xi=0)
        assert count_N(toy_rho2(), cfg, 4) == 0

    def test_rho1_closed_form(self):
        # sum over k of br * q^(c k) is a geometric series
        for c in (1, 2):
            for q in (Fraction(2), Fraction(3, 2)):
                for d in (1, 4, 7):
                    cfg = config(beta=(0,), q=q, br=2, m_cap=2)
                    expected = 2 * sum(q ** (c * k) for k in range(1, d + 1))
                    assert count_N(toy_rho1(c), cfg, d) == expected

    def test_translate_reduces_count(self):
        model = toy_rho2()
        inside_only = config(br=1, outside_xi=0, beta=(1, 1))
        everywhere = config()
        assert count_N(model, inside_only, 3) < count_N(model, everywhere, 3)

    def test_needs_chambers(self):
        # N and N_lib are columns of one sweep, which classifies every
        # class, so both need a chamber for every class
        bare = VarietyModel(
            rho=2, dim_n=2, minus_k=(1, 1), nef_facets=((1, 0), (0, 1)), chambers=()
        )
        with pytest.raises(NoChamber):
            count_N(bare, config(), 2)
        with pytest.raises(NoChamber):
            count_N_liberated(bare, config(), 2)

    def test_classification_errors_reach_every_column(self):
        # chambers that disagree on the diagonal: the slice at d = 1 misses
        # it, the slice at d = 2 holds (1, 1)
        mismatch = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 1),
            nef_facets=((1, 0), (0, 1)),
            chambers=(
                Chamber(((1, -1),), ((2, (Fraction(1, 2), Fraction(1, 2))),)),
                Chamber(((-1, 1),), ((1, (2, 0)), (1, (-1, 1)))),
            ),
        )
        assert ratio_check(mismatch, config(), [1]).rows[0].points == 2
        for column in (count_N, count_N_liberated):
            with pytest.raises(BoundaryMismatch, match=r"disagree at \(1, 1\)"):
                column(mismatch, config(), 2)
        with pytest.raises(BoundaryMismatch):
            ratio_check(mismatch, config(), [1, 2])
        unbounded = VarietyModel(
            rho=2,
            dim_n=2,
            minus_k=(1, 0),
            nef_facets=((1, 0), (0, 1)),
            chambers=mismatch.chambers,
        )
        for column in (count_N, count_N_liberated):
            with pytest.raises(UnboundedSlice):
                column(unbounded, config(), 1)


class TestCountLiberated:
    def test_threshold_one_certifies_nothing(self):
        cfg = config(beta=(0,), eps=EpsTable([(1, 1)]))
        assert count_N_liberated(toy_rho1(1), cfg, 8) == 0

    def test_semistable_threshold_half(self):
        # bound 1 - 2/deg beats 1/2 exactly when deg > 4
        model = toy_rho1(1)
        cfg = config(beta=(0,), eps=EpsTable([(1, Fraction(1, 2))]))
        for d in (5, 9):
            expected = sum(Fraction(2) ** k for k in range(5, d + 1))
            assert count_N_liberated(model, cfg, d) == expected

    def test_rejects_non_positive_d(self):
        with pytest.raises(ValueError):
            count_N_liberated(toy_rho2(), config(), 0)

    def test_liberated_never_exceeds_total(self):
        for model, beta in ((toy_rho1(1), (0,)), (toy_rho2(), (0, 0))):
            cfg = config(beta=beta)
            for d in (1, 2, 5, 9):
                assert count_N_liberated(model, cfg, d) <= count_N(model, cfg, d)


class TestEpsSchedules:
    def test_power_strictness_is_exact(self):
        eps = EpsPower(1, Fraction(1, 2))
        assert not eps.admits(Fraction(1, 2), 4)  # 1/2 == 4^(-1/2)
        assert eps.admits(Fraction(1, 2), 5)
        assert not eps.admits(Fraction(0), 100)
        assert not eps.admits(Fraction(-3), 100)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            EpsPower(0, 1)
        with pytest.raises(ValueError):
            EpsPower(1, 0)

    def test_power_exponent_terms_are_capped(self):
        # each test raises c and the bound to p's denominator and d to its
        # numerator, so a term past the cap would make a check unbounded
        assert MAX_EXPONENT_TERM == 1000
        assert EpsPower(1, Fraction(1, 1000)).p == Fraction(1, 1000)
        assert EpsPower(1, 1000).p == 1000
        for p in (Fraction(1, 1001), 1001, Fraction(1001, 1000)):
            with pytest.raises(ValueError, match="term above 1000"):
                EpsPower(1, p)

    def test_power_coefficient_terms_are_capped(self):
        # each test raises c to p's denominator, so c's size sets its cost
        assert MAX_COEFFICIENT_TERM == 10**6
        for c in (10**6, Fraction(1, 10**6), Fraction(10**6 - 1, 10**6)):
            assert EpsPower(c, Fraction(1, 1000)).c == c
        for c in (10**6 + 1, Fraction(1, 10**6 + 1), Fraction(10**6 + 1, 10**6)):
            with pytest.raises(ValueError, match="coefficient has a term above 1000000"):
                EpsPower(c, Fraction(1, 2))
        with pytest.raises(ValueError, match="coefficient has a term above"):
            EpsPower(10**5000, 1)

    def test_table_step_lookup(self):
        eps = EpsTable([(1, Fraction(1, 2)), (10, Fraction(1, 4))])
        assert eps.value_at(1) == Fraction(1, 2)
        assert eps.value_at(9) == Fraction(1, 2)
        assert eps.value_at(10) == Fraction(1, 4)
        assert eps.value_at(1000) == Fraction(1, 4)
        with pytest.raises(DomainError):
            eps.value_at(0)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            EpsTable([])
        with pytest.raises(ValueError):
            EpsTable([(1, Fraction(1, 2)), (1, Fraction(1, 3))])
        with pytest.raises(ValueError):
            EpsTable([(1, Fraction(1, 4)), (2, Fraction(1, 2))])
        with pytest.raises(ValueError):
            EpsTable([(1, 0)])

    def test_table_must_start_at_or_below_one(self):
        # every counting degree d >= 1 needs a tabulated value
        with pytest.raises(ValueError, match="start at d <= 1"):
            EpsTable([(2, 1), (3, Fraction(1, 2))])
        assert EpsTable([(0, 1)]).value_at(1) == 1
        assert EpsTable([(-3, 1), (1, Fraction(1, 2))]).value_at(1) == Fraction(1, 2)


def first_admitting_oracle(eps, ds, num, den, lo):
    bound = Fraction(num, den)
    return next(
        (i for i in range(lo, len(ds)) if eps.admits(bound, ds[i])), len(ds)
    )


class TestFirstAdmitting:
    @given(
        st.one_of(eps_powers, eps_tables()),
        st.lists(st.integers(1, 40), min_size=1, max_size=10, unique=True).map(sorted),
        st.integers(-20, 60),
        st.integers(1, 40),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_admits(self, eps, ds, num, den, data):
        lo = data.draw(st.integers(0, len(ds)))
        first = eps.first_admitting(ds)
        assert first(num, den, lo) == first_admitting_oracle(eps, ds, num, den, lo)

    def test_non_positive_bound_is_never_admitted(self):
        ds = list(range(1, 50))
        for eps in (EpsPower(Fraction(1, 100), 3), EpsTable([(1, Fraction(1, 100))])):
            first = eps.first_admitting(ds)
            for num in (0, -1, -10**6):
                assert first(num, 7, 0) == len(ds)

    def test_equality_is_not_admitted(self):
        # the bound 1/2 equals 4^(-1/2), so d = 4 fails and d = 5 is first
        ds = [1, 2, 3, 4, 5, 6]
        first = EpsPower(1, Fraction(1, 2)).first_admitting(ds)
        assert first(1, 2, 0) == first(2, 4, 0) == ds.index(5)
        assert first(1, 2, 5) == 5
        # unreduced pairs as ratio_check passes them: 3/6 at d = 4 again
        assert first(3, 6, ds.index(4)) == ds.index(5)
        table = EpsTable([(1, Fraction(1, 2)), (4, Fraction(1, 3))])
        first = table.first_admitting(ds)
        assert first(1, 2, 0) == ds.index(4)
        assert first(1, 3, 0) == len(ds)
        assert first(2, 5, 0) == ds.index(4)
        assert first(2, 3, 0) == 0

    def test_table_steps_and_start(self):
        table = EpsTable([(-2, 1), (3, Fraction(1, 2)), (10, Fraction(1, 5))])
        ds = [1, 3, 9, 10, 20]
        first = table.first_admitting(ds)
        assert first(1, 1, 0) == 1  # 1 > 1/2 from d = 3 on
        assert first(1, 4, 0) == 3  # 1/4 > 1/5 from d = 10 on
        assert first(1, 4, 4) == 4
        assert first(1, 5, 0) == len(ds)


class TestConfigValidation:
    def test_q_must_exceed_one(self):
        with pytest.raises(ValueError):
            config(q=1)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            config(delta=0)
        with pytest.raises(ValueError):
            config(delta=1)

    def test_outside_xi_capped(self):
        with pytest.raises(ValueError):
            config(outside_xi=5, m_cap=2)

    def test_br_capped(self):
        with pytest.raises(ValueError, match="br must lie in 0..m_cap"):
            config(br=5, m_cap=1)
        assert config(br=2, m_cap=2).br == 2

    def test_eps_must_be_a_schedule(self):
        # anything else would fail only later, inside ratio_check
        for eps in ("not a schedule", Fraction(1, 2), None):
            with pytest.raises(ValueError, match="eps must be an EpsPower"):
                config(eps=eps)
        table = EpsTable([(1, Fraction(1, 2))])
        assert config(eps=table).eps == table

    def test_integer_fields_are_not_truncated(self):
        for field, value in (
            ("br", 2.7),
            ("br", True),
            ("m_cap", 1.5),
            ("outside_xi", True),
            ("outside_xi", Fraction(1, 2)),
            ("beta", (0.5, 0)),
            ("beta", (0, False)),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                config(**{field: value})
        cfg = config(br=Fraction(1), m_cap=2.0, beta=(Fraction(2), 0))
        assert (cfg.br, cfg.m_cap, cfg.beta) == (1, 2, (2, 0))
        assert all(type(v) is int for v in (cfg.br, cfg.m_cap, *cfg.beta))
        for d in (1.9, Fraction(1, 2), True):
            with pytest.raises(ValueError, match="table degree must be an integer"):
                EpsTable([(d, Fraction(1, 2))])
        table = EpsTable([(Fraction(1), Fraction(1, 2))])
        assert table.entries == ((1, Fraction(1, 2)),)


class TestRatioCheck:
    def test_finds_threshold_degree(self):
        report = ratio_check(toy_rho2(), config(), range(1, 61))
        assert report.d0 is not None
        assert report.d0 + 30 <= 60
        for row in report.rows:
            if row.d >= report.d0:
                assert row.ratio > Fraction(9, 10)

    def test_rows_are_monotone_data(self):
        report = ratio_check(toy_rho2(), config(), range(1, 21))
        for row in report.rows:
            assert row.n_liberated <= row.n_value
            assert row.liberated <= row.points

    def test_rows_match_direct_counts(self):
        # the bucketed report must agree with the per-d brute force and
        # with the one-shot functions
        model, cfg = toy_rho2(), config()
        report = ratio_check(model, cfg, range(1, 11))
        for row in report.rows:
            row_data = (row.points, row.liberated, row.n_value, row.n_liberated)
            assert row_data == direct_counts(model, cfg, row.d)
            assert row.n_value == count_N(model, cfg, row.d)
            assert row.n_liberated == count_N_liberated(model, cfg, row.d)
            assert row.points == len(slice_classes(model, row.d))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_match_oracle_property(self, data):
        model = data.draw(
            st.sampled_from(
                [toy_rho1(1), toy_rho1(3), toy_rho2(), pbundle(3, 2, [3, 0, 0])]
            )
            | split_models()
        )
        cfg = drawn_config(data, model.rho)
        # unsorted, duplicated and gapped degree sets
        ds = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
        report = ratio_check(model, cfg, ds)
        assert [row.d for row in report.rows] == sorted(set(ds))
        for row in report.rows:
            row_data = (row.points, row.liberated, row.n_value, row.n_liberated)
            assert row_data == direct_counts(model, cfg, row.d)
            if row.n_value > 0:
                assert row.ratio == row.n_liberated / row.n_value
            else:
                assert row.ratio is None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(q=Fraction(3, 2)),
            dict(q=Fraction(7, 3), eps=EpsPower(Fraction(1, 2), Fraction(3, 2))),
            dict(eps=EpsPower(Fraction(3, 4), Fraction(2, 3))),
            dict(eps=EpsTable([(1, Fraction(3, 4)), (4, Fraction(1, 3)), (9, Fraction(1, 5))])),
            dict(beta=(2, 1), br=3, outside_xi=1, q=Fraction(5, 4)),
            dict(beta=(1, 0), br=0, outside_xi=2),
        ],
        ids=["q", "q-p3/2", "p2/3", "table", "beta-br3-out1", "beta-br0-out2"],
    )
    def test_rows_match_oracle_on_fixed_configs(self, overrides):
        # q with a non-unit denominator, p = 3/2 and p = 2/3, a table,
        # nonzero beta with br != outside_xi, on a split model whose slopes
        # are over 3 * 4 and on toy_rho2
        model = split_model((2, 1), (1, 2), (1, 2), Fraction(3, 4))
        assert model.slope_den == 12
        for m in (model, toy_rho2()):
            cfg = config(m_cap=3, **overrides)
            for row in ratio_check(m, cfg, range(1, 13)).rows:
                row_data = (row.points, row.liberated, row.n_value, row.n_liberated)
                assert row_data == direct_counts(m, cfg, row.d)

    def test_loose_delta_first_positive_suffix(self):
        report = ratio_check(toy_rho2(), config(delta=Fraction(99, 100)), range(1, 31))
        # ratios are 0 through degree 4 and positive afterwards
        assert report.d0 == 5

    def test_unreachable_threshold_reports_none(self):
        cfg = config(eps=EpsTable([(1, 1)]))
        report = ratio_check(toy_rho2(), cfg, range(1, 16))
        assert report.d0 is None
        assert all(row.liberated == 0 for row in report.rows)

    def test_d0_threshold_equality_is_strict(self):
        # delta = 1 - ratio of a row puts that row's ratio exactly on the
        # threshold: it does not qualify, as with the Fraction comparison
        model = toy_rho2()
        rows = ratio_check(model, config(), range(1, 31)).rows
        tied = 0
        for row in rows:
            if row.ratio is None or not 0 < row.ratio < 1:
                continue
            threshold = row.ratio
            report = ratio_check(model, config(delta=1 - threshold), range(1, 31))
            expected = None
            for later in reversed(report.rows):
                if later.ratio is None or not later.ratio > threshold:
                    break
                expected = later.d
            assert report.d0 == expected
            assert expected is None or expected > row.d
            tied += 1
        assert tied >= 20
        # the last row on the threshold leaves no qualifying suffix
        last = rows[-1].ratio
        assert ratio_check(model, config(delta=1 - last), range(1, 31)).d0 is None

    def test_tsv_rendering(self):
        report = ratio_check(toy_rho1(1), config(beta=(0,)), range(1, 4))
        text = report.render_tsv()
        lines = text.splitlines()
        assert lines[1] == "d\tpoints\tliberated\tN\tN_lib\tratio"
        assert lines[4].startswith("3\t3\t")
        assert "\t14\t" in lines[4]
        assert text.endswith("\n")

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            ratio_check(toy_rho2(), config(), [])
        with pytest.raises(ValueError):
            ratio_check(toy_rho2(), config(), [0, 1])

    @pytest.mark.parametrize(
        "ds", [range(0, 5), range(0), range(4, 4), range(3, -1, -1), range(0, 9, 3)]
    )
    def test_bad_ranges_raise_as_lists(self, ds):
        # a range of positive step is read as it is, and any other d list is
        # sorted first; both refuse a d below 1 and an empty set alike
        for d_values in (ds, list(ds)):
            with pytest.raises(ValueError, match="^d values must be positive$"):
                ratio_check(toy_rho2(), config(), d_values)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_range_matches_shuffled_list_property(self, data):
        # range(a, b, s) with a, s >= 1 is read without sorting; the same
        # degrees as a shuffled list with duplicates give the same report,
        # and so does the range reversed
        model = data.draw(
            st.sampled_from(
                [toy_rho1(1), toy_rho1(3), toy_rho2(), pbundle(3, 2, [3, 0, 0])]
            )
            | split_models()
        )
        cfg = drawn_config(data, model.rho)
        a = data.draw(st.integers(1, 8))
        ds = range(a, data.draw(st.integers(a + 1, 14)), data.draw(st.integers(1, 4)))
        extra = data.draw(st.lists(st.sampled_from(ds), max_size=5))
        shuffled = data.draw(st.permutations([*ds, *extra]))
        report = ratio_check(model, cfg, ds)
        assert [row.d for row in report.rows] == list(ds)
        for other in (shuffled, ds[::-1]):
            again = ratio_check(model, cfg, other)
            assert again.rows == report.rows
            assert again.d0 == report.d0

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_fields_are_fractions_property(self, data):
        # N, N_lib and every ratio that is not None are Fractions, never
        # ints: over q_den = 1 and for the shared zero ratio too
        model = data.draw(
            st.sampled_from([toy_rho1(1), toy_rho2(), pbundle(3, 2, [3, 0, 0])])
            | split_models()
        )
        cfg = drawn_config(data, model.rho)
        ds = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
        for row in ratio_check(model, cfg, ds).rows:
            assert type(row.n_value) is Fraction
            assert type(row.n_liberated) is Fraction
            assert row.ratio is None or type(row.ratio) is Fraction

    def test_fields_are_fractions_over_unit_denominator(self):
        # q = 2: every row's sums lie over q_den^top = 1, and the first rows
        # of toy_rho2 certify nothing, so their ratio is zero
        rows = ratio_check(toy_rho2(), config(), range(1, 13)).rows
        assert rows[0].ratio == 0
        zero_weight = ratio_check(toy_rho2(), config(br=0, outside_xi=0), [1, 2]).rows
        assert [row.ratio for row in zero_weight] == [None, None]
        for row in rows + zero_weight:
            assert type(row.n_value) is Fraction
            assert type(row.n_liberated) is Fraction
            assert row.ratio is None or type(row.ratio) is Fraction


def assert_rows_match_oracle(model, cfg, dmax):
    for row in ratio_check(model, cfg, range(1, dmax + 1)).rows:
        row_data = (row.points, row.liberated, row.n_value, row.n_liberated)
        assert row_data == direct_counts(model, cfg, row.d)


def quadrant_model(*chambers):
    """Semistable-degree quadrant model, minus_k = (1, 1), with the given
    chambers."""
    return VarietyModel(
        rho=2,
        dim_n=2,
        minus_k=(1, 1),
        nef_facets=((1, 0), (0, 1)),
        chambers=chambers,
    )


SEMISTABLE = ((2, (Fraction(1, 2), Fraction(1, 2))),)


slopes = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))


@st.composite
def chambered_orthants(draw, rho):
    """Orthant models of lattice rank ``rho`` with 1 to 3 chambers, each cut
    by up to two random walls through the origin.  The chambers may overlap
    or leave gaps, and their filtrations come from a pool of two, so
    overlapping chambers agree or disagree; small slopes make neighbouring
    pieces meet on lattice hyperplanes, where they merge."""
    vectors = st.tuples(*[slopes] * rho)
    filtrations = st.lists(st.tuples(st.integers(1, 2), vectors), min_size=1, max_size=3)
    pool = draw(st.lists(filtrations, min_size=1, max_size=2))
    walls = st.lists(st.tuples(*[st.integers(-3, 3)] * rho), max_size=2)
    chambers = draw(
        st.lists(st.builds(Chamber, walls, st.sampled_from(pool)), min_size=1, max_size=3)
    )
    return VarietyModel(
        rho=rho,
        dim_n=sum(r for r, _ in pool[0]),
        minus_k=tuple(draw(st.integers(1, 3)) for _ in range(rho)),
        nef_facets=tuple(tuple(int(i == j) for j in range(rho)) for i in range(rho)),
        chambers=chambers,
    )


CHAMBER_ERRORS = (NoChamber, BoundaryMismatch)

# primitive rays inside the open quadrant
PRIMITIVE_RAYS = st.tuples(st.integers(1, 20), st.integers(1, 20)).filter(
    lambda r: gcd(*r) == 1
)


def oracle_first_error(model, classes):
    """The oracle's error at the first class of ``classes`` that no chamber
    holds or on which holders disagree; None when there is none."""
    for alpha in classes:
        try:
            pieces_oracle(model, alpha)
        except CHAMBER_ERRORS as exc:
            return exc
    return None


def walked(fibres, runs):
    """(prefix, lo, hi, runs) per fibre of ``fibres``, with the runs that
    ``runs(*fibre)`` yields, up to the first chamber error; and that error's
    type and message, or None."""
    out = []
    try:
        for fibre in fibres:
            out.append((fibre[0], *fibre[-2:], []))
            for run in runs(*fibre):
                out[-1][-1].append(run)
    except CHAMBER_ERRORS as exc:
        return out, (type(exc), str(exc))
    return out, None


class TestDegreeStep:
    @pytest.mark.parametrize("rho", [1, 2, 3])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_r_min_is_gcd_property(self, rho, data):
        # the degree step set up at model build is the gcd of minus_k, also
        # when the entries share a factor
        model = data.draw(chambered_orthants(rho))
        factor = data.draw(st.integers(1, 4))
        scaled = VarietyModel(
            rho=rho,
            dim_n=model.dim_n,
            minus_k=tuple(factor * c for c in model.minus_k),
            nef_facets=model.nef_facets,
            chambers=(),
        )
        assert r_min(model) == gcd(*model.minus_k)
        assert r_min(scaled) == gcd(*scaled.minus_k) == factor * r_min(model)


class TestFibreClassification:
    """``VarietyModel._runs`` is the one chamber rule: ``ratio_check``
    classifies every class from its run's affine piece numerators, and
    ``chamber_pieces`` is the rule's one-point case.  Both must match the
    per-class oracle and raise the same first error."""

    @given(chambered_orthants(2), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_chamber_rule_matches_oracle_property(self, model, d):
        bound = d * r_min(model)
        classes = box_slice(model, bound, bound)
        # chamber_pieces takes a list as well as a tuple
        for alpha in classes:
            try:
                pieces = pieces_oracle(model, alpha)
            except CHAMBER_ERRORS as error:
                with pytest.raises(type(error)) as exc:
                    model.chamber_pieces(list(alpha))
                assert str(exc.value) == str(error)
            else:
                expected = [(r, b * model.slope_den) for r, b in pieces]
                assert model.chamber_pieces(list(alpha)) == expected
        # the runs of each fibre follow one another from lo up to the first
        # error or to hi, and each run's least piece is the oracle's
        for prefix, values, lo, hi in model._fibres(bound):
            ends = [lo]
            try:
                for start, stop, lines in model._runs(prefix, values, lo, hi):
                    assert start == ends[-1] < stop
                    ends.append(stop)
                    for t in range(start, stop):
                        least = min(b for _, b in pieces_oracle(model, prefix + (t,)))
                        assert min(b0 + s * t for _, b0, s in lines) == (
                            least * model.slope_den
                        )
            except CHAMBER_ERRORS:
                assert ends[-1] <= hi
            else:
                assert ends[-1] == hi + 1
            assert list(model._runs(prefix, values, hi + 1, hi)) == []
        cfg = config(m_cap=3, beta=(1, 0), br=2, outside_xi=1)
        error = oracle_first_error(model, classes)
        if error is None:
            row = ratio_check(model, cfg, [d]).rows[0]
            row_data = (row.points, row.liberated, row.n_value, row.n_liberated)
            assert row_data == direct_counts(model, cfg, d)
        else:
            with pytest.raises(type(error)) as exc:
                ratio_check(model, cfg, [d])
            assert str(exc.value) == str(error)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_stepping_walk_matches_dot_walk_property(self, data):
        # the walk steps its table values along the innermost prefix
        # coordinate and recomputes them when an outer one moves; the oracle
        # recomputes every cut and piece numerator from the prefix by dot.
        # Fibres, runs and the first chamber error must agree
        rho = data.draw(st.integers(1, 3))
        model = data.draw(st.one_of(wall_models(rho), chambered_orthants(rho)))
        bound = data.draw(st.integers(1, 12 if rho < 3 else 6)) * r_min(model)
        fibres = list(dot_fibres(model, bound))
        walk = list(model._fibres(bound))
        assert [(prefix, lo, hi) for prefix, _, lo, hi in walk] == fibres
        # the stepped values are the table heads' values at each prefix
        for prefix, values, _, _ in walk:
            assert values == [sum(map(mul, h, prefix)) for h in model._heads]
        want = walked(fibres, partial(dot_runs, model))
        assert walked(walk, model._runs) == want
        # ratio_check builds its rows with CountRow._of
        fields = (
            data.draw(st.integers(1, 20)),
            data.draw(st.integers(0, 99)),
            data.draw(st.integers(0, 99)),
            data.draw(st.fractions()),
            data.draw(st.fractions()),
            data.draw(st.none() | st.fractions()),
        )
        row, built = CountRow._of(*fields), CountRow(*fields)
        assert row == built
        assert hash(row) == hash(built)
        assert repr(row) == repr(built)

    @pytest.mark.parametrize("rho", [2, 3])
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_runs_are_maximal_property(self, rho, data):
        # each run is held by one nonempty set of chambers at every t, the
        # next run by another set, and its lines are the first holder's
        # piece numerators.  The walk starts at every t of the fibre, so a
        # gap or a disagreement hides none of the runs past it; islice
        # stops a walk that makes no progress
        model = data.draw(chambered_orthants(rho))
        bound = data.draw(st.integers(1, 10 if rho == 2 else 4)) * r_min(model)
        for prefix, values, lo, hi in model._fibres(bound):

            def holders(t):
                alpha = prefix + (t,)
                return [
                    i
                    for i, ch in enumerate(model.chambers)
                    if _satisfies(ch.facets, alpha)
                ]

            for first_t in range(lo, hi + 1):
                previous = None
                try:
                    for start, stop, lines in islice(
                        model._runs(prefix, values, first_t, hi), hi - first_t + 2
                    ):
                        assert first_t <= start < stop <= hi + 1
                        held = holders(start)
                        assert held and held != previous
                        for t in range(start, stop):
                            assert holders(t) == held
                            alpha = prefix + (t,)
                            assert [(r, b0 + s * t) for r, b0, s in lines] == [
                                (r, sum(map(mul, svec, alpha)) * model.slope_den)
                                for r, svec in model.chambers[held[0]].filtration
                            ]
                        previous = held
                except CHAMBER_ERRORS:
                    pass

    @given(st.lists(PRIMITIVE_RAYS, max_size=11, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_agreeing_wedges_change_nothing_property(self, rays, data):
        # the quadrant's semistable chamber split into 1-12 wedges along
        # interior rays: every class on a wall is held by two agreeing
        # wedges, and every row is the one-chamber model's
        edges = [(1, 0), *sorted(rays, key=lambda r: Fraction(r[1], r[0])), (0, 1)]
        wedges = quadrant_model(
            *(
                Chamber(((-a[1], a[0]), (b[1], -b[0])), SEMISTABLE)
                for a, b in zip(edges, edges[1:])
            )
        )
        assert validate(wedges).ok
        cfg = drawn_config(data, 2)
        whole = quadrant_model(Chamber((), SEMISTABLE))
        ds = range(1, 13)
        assert ratio_check(wedges, cfg, ds).rows == ratio_check(whole, cfg, ds).rows

    @given(chambered_orthants(3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_oracle_at_lattice_rank_three_property(self, model, data):
        # every row at d <= 4 is the brute force's, or ratio_check raises the
        # oracle's first error over the largest slice in lexicographic order
        cfg = drawn_config(data, 3)
        error = oracle_first_error(model, orthant_slice(model, 4 * r_min(model)))
        if error is None:
            for row in ratio_check(model, cfg, range(1, 5)).rows:
                row_data = (row.points, row.liberated, row.n_value, row.n_liberated)
                assert row_data == direct_counts(model, cfg, row.d)
        else:
            with pytest.raises(type(error)) as exc:
                ratio_check(model, cfg, range(1, 5))
            assert str(exc.value) == str(error)

    @pytest.mark.parametrize("ray", [(1, 1), (2, 1), (1, 3), (3, 2)])
    def test_walls_across_fibres(self, ray):
        # the wall through (u, v) meets the fibre {x = a} at y = a v / u: at
        # a lattice point when u divides a v, between two points otherwise
        model = split_model((2, 1), ray, (1, 2), Fraction(3, 4))
        cfg = config(m_cap=3, beta=(1, 0), br=2, outside_xi=1)
        assert_rows_match_oracle(model, cfg, 12)

    @pytest.mark.parametrize("normal", [(1, 0, -1), (1, -2, 1), (0, 2, -3)])
    def test_two_chambers_at_lattice_rank_three(self, normal):
        # the prefix box is 2-D: fibres run along the last coordinate
        model = wall_model((1, 2, 1), normal, (1, 2), Fraction(1, 2))
        cfg = config(m_cap=3, beta=(0, 1, 0), br=3, outside_xi=1, q=Fraction(3, 2))
        assert_rows_match_oracle(model, cfg, 7)

    def test_overlapping_chambers_that_agree(self):
        # the whole quadrant, x >= y and x >= 2 y all give the same pieces,
        # so classes are held by one, two or three chambers
        model = quadrant_model(
            Chamber((), SEMISTABLE),
            Chamber(((1, -1),), SEMISTABLE),
            Chamber(((1, -2),), SEMISTABLE),
        )
        assert_rows_match_oracle(model, config(beta=(1, 0)), 12)

    def test_overlapping_chambers_that_disagree(self):
        # y <= 2 x and y >= 4 x leave the gap 2 x < y < 4 x; the chamber
        # 2 y <= x <= 3 y lies in the first and disagrees with it.  (1, 3)
        # is the first gap class and (2, 1) the first disagreement: by
        # degree (3 < 4) the disagreement comes first, but classes are
        # classified in lexicographic order
        model = quadrant_model(
            Chamber(((2, -1),), SEMISTABLE),
            Chamber(((-4, 1),), SEMISTABLE),
            Chamber(((1, -2), (-1, 3)), ((1, (1, 0)), (1, (0, 1)))),
        )
        assert ratio_check(model, config(), [1, 2]).rows[-1].points == 5
        with pytest.raises(BoundaryMismatch) as exc:
            ratio_check(model, config(), [3])
        assert str(exc.value) == "chambers disagree at (2, 1)"
        with pytest.raises(NoChamber) as exc:
            ratio_check(model, config(), range(1, 5))
        assert str(exc.value) == "(1, 3) lies in no chamber"

    def test_gap(self):
        # x >= 2 y and y >= 2 x leave out the open cone between them
        model = quadrant_model(
            Chamber(((1, -2),), SEMISTABLE), Chamber(((-2, 1),), SEMISTABLE)
        )
        assert ratio_check(model, config(), [1]).rows[0].points == 2
        for d in (2, 9):
            with pytest.raises(NoChamber) as exc:
                ratio_check(model, config(), [d])
            assert str(exc.value) == "(1, 1) lies in no chamber"


def nef_pieces_oracle(model, alpha):
    """The degree and ``pieces_oracle`` of alpha, checked in the order the
    single-class entry points check it: nef first, then the degree, then
    the chambers."""
    if not _satisfies(model.nef_facets, alpha):
        raise NotInNefCone(f"{alpha} violates a nef facet")
    deg = _pairing(model.minus_k, alpha)
    if deg <= 0:
        raise ZeroDegree(f"anticanonical degree {deg} of {alpha} is not positive")
    return deg, pieces_oracle(model, alpha)


def report_oracle(model, alpha):
    """The degree, panel and bound of alpha from ``nef_pieces_oracle``."""
    deg, pieces = nef_pieces_oracle(model, alpha)
    n = model.dim_n
    panel = tuple(e for r, b in pieces for e in [b * n / deg] * r)
    return deg, panel, min(b for _, b in pieces) * n / deg - Fraction(n * n, 2 * deg)


def scaled_pieces_oracle(model, alpha):
    return [(r, b * model.slope_den) for r, b in pieces_oracle(model, alpha)]


def report_values(model, alpha):
    report = read_class(model, alpha)
    return report.degree, report.panel(), report.bound()


def outcome(entry, model, alpha):
    """What ``entry(model, alpha)`` returns, or the type and text of what
    it raises."""
    try:
        return entry(model, alpha)
    except DomainError as exc:
        return type(exc), str(exc)


class TestSingleClass:
    """``read_class`` and ``chamber_pieces`` read a class once, through the
    model's functional table; on every class of a box that also holds
    classes outside the nef cone, the origin and classes in no chamber, the
    report's degree, panel and bound and the pieces are the oracle's values
    or its error."""

    @pytest.mark.parametrize("rho, radius", [(2, 3), (3, 2)])
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_single_class_matches_oracle_property(self, rho, radius, data):
        model = data.draw(chambered_orthants(rho))
        for alpha in product(range(-2, radius + 1), repeat=rho):
            assert outcome(report_values, model, alpha) == outcome(
                report_oracle, model, alpha
            )
            assert outcome(VarietyModel.chamber_pieces, model, alpha) == outcome(
                scaled_pieces_oracle, model, alpha
            )


class TestEhrhartGrowth:
    def test_doubling_ratio_near_four(self):
        model = toy_rho2()
        small = len(slice_classes(model, 40))
        large = len(slice_classes(model, 80))
        ratio = Fraction(large, small)
        assert abs(ratio - 4) <= Fraction(4, 5)

    def test_doubling_ratio_rank_one(self):
        model = toy_rho1(1)
        assert len(slice_classes(model, 80)) == 2 * len(slice_classes(model, 40))


class TestBetaMismatch:
    def test_wrong_translate_length_rejected(self):
        cfg = config(beta=(0, 0, 0))
        with pytest.raises(ValueError):
            count_N(toy_rho2(), cfg, 2)
        with pytest.raises(ValueError):
            ratio_check(toy_rho2(), cfg, range(1, 4))
