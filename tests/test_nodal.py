"""Nodal-curve calculus: gluing, degree bounds, smoothings, witnesses."""

import random
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from freecurves.errors import OutOfRange, RankMismatch
from freecurves.nodal import (
    Alignment,
    NodalType,
    _bounds,
    admissible_smoothings,
    degbd,
    degbd_m1_closed_form,
    degbd_profile,
    glue,
    parse_nodal_type,
    sharpness_witness,
)
from freecurves.splitting import (
    SplittingType,
    balance_width,
    is_sequential,
    most_balanced,
    slope,
    specializes_to,
)

from helpers import (
    copying_witness,
    labeling_minima,
    labelings,
    recursive_smoothings,
    sequential_zero_slope_types,
    table_degbd,
    table_profile,
    types_in_class,
    witness_labeling,
)

pair_lists = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=6
)


def Z(*pairs):
    return NodalType(pairs)


def random_nodal(rng, max_rank=8, span=5):
    rank = rng.randint(1, max_rank)
    return NodalType(
        (rng.randint(-span, span), rng.randint(-span, span)) for _ in range(rank)
    )


class TestNodalType:
    def test_canonical_order(self):
        z = Z((0, 0), (2, 2), (1, 1))
        assert z.pairs == ((2, 2), (1, 1), (0, 0))

    def test_ties_broken_by_first_component(self):
        z = Z((-1, 2), (2, -1), (0, 1))
        assert z.pairs == ((2, -1), (0, 1), (-1, 2))

    def test_parse_and_str(self):
        z = parse_nodal_type("2/-1,-1/2")
        assert z.pairs == ((2, -1), (-1, 2))
        assert str(z) == "2/-1,-1/2"
        assert parse_nodal_type(str(z)) == z

    def test_restrictions_and_degree(self):
        z = Z((2, -1), (-1, 2))
        assert z.total_degree == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_nodal_type("2,-1")
        with pytest.raises(ValueError):
            parse_nodal_type("")
        with pytest.raises(ValueError, match="needs at least one summand"):
            NodalType([])


class TestGlue:
    def test_dual_alignment(self):
        t = SplittingType([2, 1, 0])
        assert glue(t, t, Alignment.dual(3)) == Z((2, 0), (1, 1), (0, 2))

    def test_identity_alignment(self):
        t = SplittingType([2, 1, 0])
        assert glue(t, t, Alignment.identity(3)) == Z((2, 2), (1, 1), (0, 0))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            glue(SplittingType([1, 0]), SplittingType([5, 0, 0]), Alignment.dual(2))
        with pytest.raises(RankMismatch):
            glue(SplittingType([1, 0]), SplittingType([1, 0]), Alignment.dual(3))

    def test_explicit_permutation(self):
        t = SplittingType([3, 1])
        a = Alignment.from_one_based([2, 1])
        assert glue(t, t, a) == Z((3, 1), (1, 3))

    def test_bad_permutation(self):
        with pytest.raises(ValueError):
            Alignment([0, 0])
        # each constructor names its own input and index range
        with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.1: \(1, 2\)$"):
            Alignment([1, 2])
        with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.2: \(0, 1\)$"):
            Alignment.from_one_based([0, 1])


class TestDegbd:
    def test_blowup_fixture(self):
        assert degbd(Z((2, -1), (-1, 2)), 1) == 0

    def test_full_rank_forces_total_degree(self):
        assert degbd(Z((1, 2), (3, 4)), 2) == 10

    def test_three_summands(self):
        assert degbd(Z((2, 0), (1, 1), (0, 2)), 1) == 2

    def test_out_of_range(self):
        z = Z((1, 1), (0, 0))
        with pytest.raises(OutOfRange):
            degbd(z, 0)
        with pytest.raises(OutOfRange):
            degbd(z, 3)

    def test_rank_64(self):
        rng = random.Random(64)
        z = NodalType((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(64))
        assert degbd(z, 1) == degbd_m1_closed_form(z)
        assert degbd(z, 64) == z.total_degree
        for m in (1, 17, 32, 63):
            assert degbd(z, m) == degbd(NodalType((b, a) for a, b in z.pairs), m)
        assert sharpness_witness(z, 32).total == degbd(z, 32)

    def test_m1_closed_form_examples(self):
        assert degbd_m1_closed_form(Z((2, -1), (-1, 2))) == 0
        assert degbd_m1_closed_form(Z((-3, 1))) == -2
        assert degbd(Z((-3, 1)), 1) == -2

    def test_m1_closed_form_random(self):
        rng = random.Random(7)
        for _ in range(300):
            z = random_nodal(rng)
            assert degbd_m1_closed_form(z) == degbd(z, 1)

    @given(pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_m1_closed_form_matches_enumeration(self, pairs):
        z = NodalType(pairs)
        assert degbd_m1_closed_form(z) == degbd(z, 1)

    @given(pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_top_rank_equals_total_degree(self, pairs):
        z = NodalType(pairs)
        assert degbd(z, z.rank) == z.total_degree

    @given(pair_lists, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_component_swap_invariance(self, pairs, m):
        z = NodalType(pairs)
        m = 1 + (m - 1) % z.rank
        assert degbd(z, m) == degbd(NodalType((b, a) for a, b in z.pairs), m)


class TestAdmissibleSmoothings:
    def test_blowup_fixture(self):
        out = admissible_smoothings(Z((2, -1), (-1, 2)))
        assert out == [SplittingType([2, 0]), SplittingType([1, 1])]

    def test_balanced_triple(self):
        out = admissible_smoothings(Z((2, 0), (1, 1), (0, 2)))
        assert out == [SplittingType([2, 2, 2])]

    def test_rank_one(self):
        assert admissible_smoothings(Z((3, -1))) == [SplittingType([2])]

    def test_sequential_filter(self):
        z = Z((3, -3), (0, 0), (-3, 3))
        full = admissible_smoothings(z)
        seq = admissible_smoothings(z, require_sequential=True)
        assert set(seq) <= set(full)
        assert all(is_sequential(t) for t in seq)
        assert any(not is_sequential(t) for t in full)

    def test_output_sorted_descending(self):
        z = Z((2, -2), (0, 0), (-2, 2))
        out = admissible_smoothings(z)
        degs = [t.degrees for t in out]
        assert degs == sorted(degs, reverse=True)

    @given(pair_lists)
    @settings(max_examples=50, deadline=None)
    def test_most_balanced_is_admissible_and_maximal(self, pairs):
        # the width <= 1 type always satisfies the suffix-sum floors, and it
        # generalizes every other admissible type
        z = NodalType(pairs)
        out = admissible_smoothings(z)
        top = most_balanced(z.rank, z.total_degree)
        assert top in out
        assert all(specializes_to(top, t) for t in out)

    @given(pair_lists)
    @settings(max_examples=50, deadline=None)
    def test_members_meet_the_floors(self, pairs):
        z = NodalType(pairs)
        floors = degbd_profile(z)
        for t in admissible_smoothings(z):
            assert t.rank == z.rank
            assert t.total_degree == z.total_degree
            suffix = 0
            for m, a in enumerate(reversed(t.degrees), start=1):
                suffix += a
                assert suffix >= floors[m - 1]

    def test_matches_unpruned_enumeration(self):
        # independent oracle: every type of the right rank and degree whose
        # entries are at least degbd(z, 1), filtered by the suffix-sum floors
        # directly (and by is_sequential for the sequential list)
        rng = random.Random(99)
        for _ in range(100):
            z = random_nodal(rng, max_rank=7, span=4)
            floors = degbd_profile(z)
            r, total = z.rank, z.total_degree
            lo = floors[0]

            def suffix_ok(seq):
                acc = 0
                for m, a in enumerate(reversed(seq), start=1):
                    acc += a
                    if acc < floors[m - 1]:
                        return False
                return True

            cls = types_in_class(r, total, lo, total - (r - 1) * lo)
            full = [t for t in cls if suffix_ok(t.degrees)]
            seq_only = [t for t in full if is_sequential(t)]
            for flag, oracle in ((False, full), (True, seq_only)):
                expected = sorted(oracle, key=lambda t: t.degrees, reverse=True)
                assert admissible_smoothings(z, flag) == expected, (z, flag)

    def test_sequential_walk_backs_out_of_a_level_with_no_entry(self):
        # floors (-1, -2, -3, -2, 0): the sequential walk starts 2, 1, and
        # then no entry fits the third level (at least 0, at most -1), so it
        # backs up from there as it does after a type
        z = Z((1, 1), (1, 0), (0, -1), (0, -1), (-1, 0))
        assert degbd_profile(z) == (-1, -2, -3, -2, 0)
        out = admissible_smoothings(z, require_sequential=True)
        assert [str(t) for t in out] == ["1,1,0,-1,-1", "1,0,0,0,-1", "0,0,0,0,0"]

    @given(
        st.one_of(
            st.lists(
                st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=1,
                max_size=7,
            ),
            st.lists(
                st.tuples(
                    st.integers(10**30 - 4, 10**30 + 4),
                    st.integers(10**30 - 4, 10**30 + 4),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_recursion(self, pairs, flag):
        # the walk applies the recursion's entry bounds per level and builds
        # each type as it is; a wrong bound changes the list, a wrong build
        # a type's equality, hash or repr
        z = NodalType(pairs)
        got = admissible_smoothings(z, flag)
        assert got == recursive_smoothings(z, flag)
        for t in got:
            assert type(t) is SplittingType
            built = SplittingType(t.degrees)
            assert t == built
            assert hash(t) == hash(built)
            assert repr(t) == repr(built)

    def test_glued_smoothings_never_widen(self):
        # gluing a sequential slope-zero type to itself transversally can
        # only produce smoothings at most as unbalanced as the input
        for rank in range(2, 6):
            for t in sequential_zero_slope_types(rank):
                z = glue(t, t, Alignment.dual(rank))
                for u in admissible_smoothings(z):
                    assert balance_width(u) <= balance_width(t)
                assert slope(t).denominator == 1


class TestSharpnessWitness:
    def test_blowup_fixture_pairs_the_negative_degrees(self):
        w = sharpness_witness(Z((2, -1), (-1, 2)), 1)
        assert w.total == 0
        assert w.serre_ok
        assert len(w.blocks) == 1
        blk = w.blocks[0]
        assert blk.kind == "pair"
        assert blk.indices == (1, 0)
        assert blk.value == 0
        assert w.render() == "pair 2 1 -> 0\ntotal -> 0"

    def test_pairs_follow_index_order(self):
        # the first optimal labeling pairs K1 with K2 in index order
        w = sharpness_witness(Z((3, -3), (3, -3), (-3, 3), (-3, 3)), 2)
        assert w.render() == "pair 3 1 -> -4\npair 4 2 -> -4\ntotal -> -8"

    def test_full_rank_witness_is_all_singles(self):
        z = Z((1, 2), (3, 4))
        w = sharpness_witness(z, 2)
        assert w.total == z.total_degree
        assert all(blk.kind == "single" for blk in w.blocks)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sharpness_witness(Z((0, 0)), 2)

    def test_matches_degbd_random(self):
        rng = random.Random(11)
        for _ in range(150):
            z = random_nodal(rng, max_rank=6, span=3)
            for m in range(1, z.rank + 1):
                w = sharpness_witness(z, m)
                assert w.total == degbd(z, m)
                total = sum(blk.value for blk in w.blocks)
                assert total == w.total

    @given(pair_lists, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_optimal_labelings_always_satisfy_serre(self, pairs, m):
        # moving a violating index into the single-index part would improve
        # the optimum, so every K1 x K2 pair of every optimal labeling meets
        # a' >= a + 2 and b >= b' + 2, and any bijection is a valid pairing
        z = NodalType(pairs)
        m = 1 + (m - 1) % z.rank
        optimum = degbd(z, m)
        for value, _, K1, K2 in labelings(z.pairs, m):
            if value != optimum:
                continue
            for i in K1:
                for ip in K2:
                    assert z.pairs[ip][0] >= z.pairs[i][0] + 2
                    assert z.pairs[i][1] >= z.pairs[ip][1] + 2
        assert sharpness_witness(z, m).serre_ok

    @given(
        st.lists(
            st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
            min_size=2,
            max_size=14,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_blocks_meet_serre(self, pairs):
        # serre_ok is a constant: what it states is checked here, for every m
        z = NodalType(pairs)
        for m in range(1, z.rank + 1):
            w = sharpness_witness(z, m)
            for blk in w.blocks:
                if blk.kind == "pair":
                    i, ip = blk.indices
                    assert z.pairs[ip][0] >= z.pairs[i][0] + 2
                    assert z.pairs[i][1] >= z.pairs[ip][1] + 2
            assert w.total == sum(blk.value for blk in w.blocks)


def witness_text(pairs, value, J, K1, K2):
    """The render of the witness with labels J, K1, K2, K1 and K2 paired in
    index order."""
    lines = [f"single {i + 1} -> {pairs[i][0] + pairs[i][1]}" for i in J]
    lines += [
        f"pair {i + 1} {ip + 1} -> {pairs[i][0] + pairs[ip][1] + 2}"
        for i, ip in zip(K1, K2)
    ]
    lines.append(f"total -> {value}")
    return "\n".join(lines)


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8)
)
@settings(max_examples=100, deadline=None)
def test_dp_matches_enumeration_oracle(pairs):
    # ranks 1-8, every m: the bound, the profile and the witness text of the
    # first optimal labeling in enumeration order, K1 and K2 paired in order
    z = NodalType(pairs)
    p = z.pairs
    firsts = [min(labelings(p, m), key=itemgetter(0)) for m in range(1, z.rank + 1)]
    assert degbd_profile(z) == tuple(value for value, *_ in firsts)
    for m, (value, J, K1, K2) in enumerate(firsts, start=1):
        assert degbd(z, m) == value
        assert sharpness_witness(z, m).render() == witness_text(p, value, J, K1, K2)


# degrees small enough to tie and huge enough to dwarf any fixed sentinel
degrees = st.one_of(st.integers(-6, 6), st.integers(-(10**30), 10**30))


@given(
    st.lists(st.tuples(degrees, degrees), min_size=9, max_size=24),
    st.integers(1, 24),
)
@settings(max_examples=40, deadline=None)
def test_dp_matches_dictionary_dp_past_enumeration(pairs, m):
    # ranks 9-24, beyond the reach of the labeling enumeration: the bound,
    # the profile and the witness total against a DP that keeps every pair
    # of side counts in a dict, shares no code with nodal and needs no
    # sentinel; an unreachable cell that undercut a real cost would show
    z = NodalType(pairs)
    m = 1 + (m - 1) % z.rank
    minima = labeling_minima(z.pairs)
    profile = tuple(minima[k, k] for k in range(1, z.rank + 1))
    assert degbd_profile(z) == profile
    assert degbd(z, m) == profile[m - 1]
    assert sharpness_witness(z, m).total == profile[m - 1]


@st.composite
def tied_pairs(draw):
    """Ranks 1-40 over at most four degrees drawn once per type, so many
    summands tie in a, in b or in a + b."""
    degree = st.sampled_from(draw(st.lists(degrees, min_size=1, max_size=4)))
    return draw(st.lists(st.tuples(degree, degree), min_size=1, max_size=40))


bound_pairs = st.lists(st.tuples(degrees, degrees), min_size=1, max_size=40) | tied_pairs()


@given(bound_pairs, st.integers(1, 40), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_augmenting_paths_match_table_dp(pairs, m, rng):
    # ranks 1-40: the bound and the profile against the table DP they
    # replaced, and the profile from the summands in a shuffled order,
    # which meets every tie in the scan of minima in another order
    z = NodalType(pairs)
    m = 1 + (m - 1) % z.rank
    profile = table_profile(z)
    assert degbd_profile(z) == profile
    assert degbd(z, m) == table_degbd(z, m) == profile[m - 1]
    shuffled = list(z.pairs)
    rng.shuffle(shuffled)
    assert tuple(_bounds(shuffled, z.rank)) == profile


@given(bound_pairs)
@settings(max_examples=80, deadline=None)
def test_profile_increments_never_decrease(pairs):
    # degbd is convex in m: each unit of m costs 2 plus a shortest
    # augmenting path, and those paths never get cheaper
    bounds = (0,) + degbd_profile(NodalType(pairs))
    steps = [b - a for a, b in zip(bounds, bounds[1:])]
    assert steps == sorted(steps)


@given(bound_pairs)
@settings(max_examples=80, deadline=None)
def test_degbd_is_total_degree_plus_dual_bound(pairs):
    # ranks 1-40, every m: a rank-m quotient's kernel dualizes to a
    # rank-(r - m) quotient of the dual type, which negates every degree,
    # so degbd(z, m) = deg z + degbd(z dual, r - m), with 0 at r - m = 0;
    # the dual bound comes from the table DP, which has no dual side
    z = NodalType(pairs)
    r = z.rank
    z_dual = NodalType((-a, -b) for a, b in z.pairs)
    for m in range(1, r + 1):
        dual_bound = table_degbd(z_dual, r - m) if m < r else 0
        assert degbd(z, m) == z.total_degree + dual_bound
    assert degbd(z, r) == z.total_degree


@given(bound_pairs)
@settings(max_examples=80, deadline=None)
def test_dual_scan_matches_forward_scan_of_negated_pairs(pairs):
    # the dual steps negate each degree as they read it: forced on z at
    # every step count, whichever side degbd would take, they give what the
    # forward steps give on the negated pairs in the same order
    z = NodalType(pairs)
    forward = list(_bounds([(-a, -b) for a, b in z.pairs], z.rank))
    for steps in range(1, z.rank + 1):
        assert list(_bounds(z.pairs, steps, True)) == forward[:steps]


@given(
    st.lists(st.tuples(degrees, degrees), min_size=9, max_size=16),
    st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_witness_text_matches_greedy_oracle_past_enumeration(pairs, m):
    # ranks 9-16: the witness text, not only its total, against a greedy
    # over a dictionary DP of its own; the trial fills rely on the count
    # ranges of _fill, and a wrong range would show as a different label
    z = NodalType(pairs)
    m = 1 + (m - 1) % z.rank
    text = witness_text(z.pairs, *witness_labeling(z.pairs, m))
    assert sharpness_witness(z, m).render() == text


@given(
    st.lists(st.tuples(degrees, degrees), min_size=1, max_size=16),
    st.integers(1, 16),
)
@settings(max_examples=150, deadline=None)
def test_witness_matches_copying_greedy(pairs, m):
    # ranks 1-16: the shifted meet decides every label as the greedy that
    # filled a copy of the prefix table per trial did; a label meeting the
    # suffix at the wrong side counts would change the blocks
    z = NodalType(pairs)
    m = 1 + (m - 1) % z.rank
    got, want = sharpness_witness(z, m), copying_witness(z, m)
    assert got.blocks == want.blocks
    assert got.total == want.total
    assert got.render() == want.render()


@st.composite
def tie_heavy_pairs(draw):
    """Ranks 9-16, every degree -1, 0, 1 or one huge value drawn once per
    type: many summands share a b, so K2's ties decide the text."""
    huge = draw(st.integers(10**20, 10**30) | st.integers(-(10**30), -(10**20)))
    degree = st.sampled_from((-1, 0, 1, huge))
    return draw(st.lists(st.tuples(degree, degree), min_size=9, max_size=16))


@given(tie_heavy_pairs())
@settings(max_examples=20, deadline=None)
def test_witness_k2_sort_matches_trial_greedies_on_ties(pairs):
    # every m: K2 comes from one sort by b, ties to the lower index; both
    # oracles fix K2 by trial, one index at a time, and must agree with it
    z = NodalType(pairs)
    for m in range(1, z.rank + 1):
        got = sharpness_witness(z, m).render()
        assert got == witness_text(z.pairs, *witness_labeling(z.pairs, m))
        assert got == copying_witness(z, m).render()


@pytest.mark.parametrize(
    ("rank", "m", "limit"),
    [(20000, 3, 10**5), (20000, 19997, 10**5), (20000, 20000, 2000),
     (1000, 500, 10**4), (1000, 501, 10**4)],
    ids=["3", "19997", "20000", "rank1000-500", "rank1000-501"],
)
def test_degbd_memory_does_not_grow_with_rank(rank, m, limit):
    # degbd keeps one byte of label per summand and a few ints, so beyond
    # its input it needs about 20 kB at rank 20,000, taking its few steps
    # forward at m = 3 and on the dual side at m = 19,997; at the rank it
    # takes none and allocates no labels, in well under 1 kB.  A
    # per-summand cost list would take about 3 MB, and a DP table per
    # summand some 24 MB.  At rank 1,000 it takes 500 steps, forward at
    # m = 500 and on the dual side at m = 501, in about 2 kB: it keeps only
    # the running bound, where a list of every bound took over 20 kB
    rng = random.Random(rank)
    z = NodalType((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rank))
    tracemalloc.start()
    try:
        degbd(z, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
