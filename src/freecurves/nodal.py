"""Splitting types on a two-component nodal curve and the degree bound.

The nodal curve is a union of two projective lines meeting at one node; a
line bundle on it is a pair of degrees (a, b).  The central object is the
degree bound ``degbd``: the least degree a rank-m torsion-free quotient of
the restricted bundle can carry on a nearby smooth curve.  It is a
min-cost labeling of the summands, a min-cost flow, found exactly by
successive shortest augmenting paths: each unit of m takes the cheapest of
five exchanges, priced by one scan of minima over the summands, so the
whole profile costs O(rank^2).  A rank-m quotient's kernel has a dual that
is a rank-(rank - m) quotient of the dual bundle, and taking complements of
the labeled sets shows degbd(z, m) = deg z + degbd(z dual, rank - m), the
dual negating every degree; so one bound takes the cheaper side, with
min(m, rank - m) steps in O(rank * min(m, rank - m)), and at the rank it
takes zero dual steps.  Both directions run one loop, which negates each
degree as it reads it on the dual side and yields each bound in turn,
keeping only the running one.  Smoothings are listed against its floors
by one depth-first walk that keeps the sum left and the least allowed
entry per level, and each listed type is built once, as it is.  The
witness is a DP whose state is the pair of side counts: it builds its
label costs per call and takes two DP passes and one sort; the passes fix
J and then K1, testing each label with one shifted meet of two tables and
copying no trial table, and the sort gives K2.
"""

from __future__ import annotations

from .errors import OutOfRange, RankMismatch, Value, exact_int, int_tokens
from .splitting import SplittingType

__all__ = [
    "NodalType",
    "Alignment",
    "glue",
    "degbd",
    "degbd_m1_closed_form",
    "degbd_profile",
    "admissible_smoothings",
    "sharpness_witness",
    "WitnessBlock",
    "SharpnessWitness",
    "parse_nodal_type",
]


class NodalType(Value):
    """Line-bundle summand degrees (a_i, b_i) on the two components.

    Canonical order: sorted descending by (a_i + b_i, a_i).  The pairs are
    all a type keeps: the degree bounds read them as they are, and the
    witness builds its label costs per call.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs) -> None:
        ps = sorted(
            ((exact_int(a, "degree"), exact_int(b, "degree")) for a, b in pairs),
            key=lambda p: (p[0] + p[1], p[0]),
            reverse=True,
        )
        if not ps:
            raise ValueError("a nodal type needs at least one summand")
        super().__init__(tuple(ps))

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def total_degree(self) -> int:
        return sum(a + b for a, b in self.pairs)

    def __str__(self) -> str:
        return ",".join(f"{a}/{b}" for a, b in self.pairs)


def parse_nodal_type(text: str) -> NodalType:
    """Parse the ``a/b`` pair list form, e.g. ``2/-1,-1/2``."""
    pairs = []
    for chunk in text.split(","):
        pair = int_tokens(chunk, "/")
        if len(pair) != 2:
            raise ValueError(f"bad nodal summand {chunk!r}, expected a/b")
        pairs.append(pair)
    return NodalType(pairs)


class Alignment(Value):
    """Matching of summands of the two curves at the node.

    ``perm[i]`` is the 0-based summand of the second curve glued to summand
    ``i`` of the first.
    """

    perm: tuple[int, ...]

    def __init__(self, perm) -> None:
        p = tuple(exact_int(i, "alignment index") for i in perm)
        if sorted(p) != list(range(len(p))):
            raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p}")
        super().__init__(p)

    @classmethod
    def identity(cls, rank: int) -> "Alignment":
        return cls(range(exact_int(rank, "rank")))

    @classmethod
    def dual(cls, rank: int) -> "Alignment":
        """Pair the descending summands of one side against the ascending
        summands of the other — the maximally transverse matching."""
        return cls(range(exact_int(rank, "rank") - 1, -1, -1))

    @classmethod
    def from_one_based(cls, images) -> "Alignment":
        """The alignment of 1-based images, checked and named as given."""
        ones = tuple(exact_int(i, "alignment index") for i in images)
        if sorted(ones) != list(range(1, len(ones) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ones)}: {ones}")
        return cls(i - 1 for i in ones)


def glue(t1: SplittingType, t2: SplittingType, align: Alignment) -> NodalType:
    """Combine two splitting types into a nodal type via the alignment."""
    if t1.rank != t2.rank:
        raise RankMismatch(f"rank {t1.rank} vs {t2.rank}")
    if len(align.perm) != t1.rank:
        raise RankMismatch(f"alignment length {len(align.perm)} vs rank {t1.rank}")
    return NodalType((t1[i], t2[align.perm[i]]) for i in range(t1.rank))


# The witness's labels J and K1, and no label, as indices into a summand's
# cost tuple; its third entry is the cost of K2.
_J, _K1, _NONE = 0, 1, 3


def _costs(pairs) -> tuple[tuple[tuple, ...], int]:
    """Per summand, the costs of the labels J, K1, K2 and none, and the
    int sentinel: the cost of the unreachable.  ``sharpness_witness``
    builds them once per call; the degree bounds need none.

    A labeling's cost is its value times rank + 1 plus |J|.  The cost is
    still additive, and as |J| <= rank its minimum is the least value with
    the fewest J: value = cost // (rank + 1).

    No labeling of any set of summands costs more than S, the sum of the
    absolute values of all label costs, nor less than -S.  A sum holding
    the sentinel 2S + 1 at least once is therefore above S: it loses to
    every real cost and can never equal one.
    """
    w = len(pairs) + 1
    costs = []
    total = 0
    for a, b in pairs:
        cj, ck1, ck2 = (a + b) * w + 1, (a + 1) * w, (b + 1) * w
        costs.append((cj, ck1, ck2, 0))
        total += abs(cj) + abs(ck1) + abs(ck2)
    return tuple(costs), 1 + 2 * total


def _start(cap: int, inf: int) -> list[list[int]]:
    """Table of no summands: cost 0 at side counts (0, 0), ``inf`` elsewhere.

    Tables have rows and columns 0..cap and one more, never filled, so that
    index -1 reads ``inf``.  Cells are ints, and ``inf`` is the int sentinel
    of ``_costs``.  The tables serve the witness alone: it makes two DP
    passes and one sort, and in each pass calls ``_fill`` once per summand,
    for each of its rank + 1 suffix tables on a copy of the one before and
    for its one prefix table in place, with the label it decided.  It
    copies no trial table: ``_meet`` tests a label on the prefix table as
    it is.
    """
    table = [[inf] * (cap + 2) for _ in range(cap + 2)]
    table[0][0] = 0
    return table


def _fill(
    table: list[list[int]], cost, need: int, cap: int, done: int, n: int
) -> None:
    """Update ``table`` in place with one more summand, of label costs
    ``cost`` (the sentinel forbids a label): entry [c1][c2] becomes the
    least cost of labeling the summands so far with side counts c1 and c2.

    The table holds the first ``done`` of ``n`` summands before the call;
    counts are capped at ``cap``, and counts from which the summands left
    cannot reach ``need`` are dropped.  So after ``done`` + 1 summands only
    counts max(0, need - (n - done - 1)) through min(done + 1, cap) are
    filled; this is the only place that rule lives.  Both counts are walked
    from the top down, as in an in-place 0/1-knapsack update, so every cell
    still reads the previous summand's values at counts one lower.  The
    lowest count is 0 for every summand or one more than for the summand
    before, so the row and column just below it hold the previous summand's
    values (or the sentinel at index -1), and no cell below them is read
    again.
    """
    cj, ck1, ck2, c0 = cost
    done += 1
    lo = need - n + done
    if lo < 0:
        lo = 0
    counts = range(done if done < cap else cap, lo - 1, -1)
    for c1 in counts:
        row, prev = table[c1], table[c1 - 1]
        for c2 in counts:
            best = row[c2] + c0
            other = prev[c2] + ck1
            if other < best:
                best = other
            other = row[c2 - 1] + ck2
            if other < best:
                best = other
            other = prev[c2 - 1] + cj
            if other < best:
                best = other
            row[c2] = best


def _check_m(z: NodalType, m) -> int:
    m = exact_int(m, "m")
    if not 1 <= m <= len(z.pairs):
        raise OutOfRange(f"m={m} outside 1..{z.rank}")
    return m


def _bounds(pairs, m: int, dual: bool = False):
    """Yield the degree bounds for quotient ranks 1..m, by successive
    shortest augmenting paths; with ``dual``, those of the dual type, whose
    degrees are the pairs negated.

    With X = J + K1 and Y = J + K2, both of size m, a labeling's sum is
    sum_X a + sum_Y b - 2|X & Y| + 2m.  The first three terms are the cost
    of a flow of m units: from the source into summand i's a-node at cost
    a_i, from there to its own b-node at cost -2 (J) or through one hub to
    any b-node (K1 to K2), and out of b-node j at cost b_j.  So the
    cheapest augmenting path from the best flow of m units gives the best
    of m + 1, and its cost never decreases with m (Busacker and Gowen;
    Ahuja, Magnanti and Orlin, Network Flows, ch. 9).  From the labels
    so far, each path is one of five exchanges, priced by the least a
    and b of the free, K1 and K2 summands:

    1. free i into J: a_i + b_i - 2;
    2. free i into K1 and free j into K2: a_i + b_j;
    3. K2 i into J and free j into K2: a_i + b_j - 2;
    4. free i into K1 and K1 k into J: a_i + b_k - 2;
    5. K2 i into J and K1 k into J: a_i + b_k - 4.

    Every other path is dearer than one of these.  Exchange 2 takes the
    least free a and the least free b; when one summand holds both, the
    sum is above that summand's exchange 1, so it never wins.  Each step is
    one loop over the summands; the labels take one byte per summand, and
    only the running bound is kept, each bound yielded as it is found.

    Taking the complements X' and Y' of X and Y turns a labeling for m into
    one for rank - m of the dual type, whose sum is the first less the
    total degree; so ``degbd`` above half the rank runs the dual steps.
    The same loop serves them: with ``dual`` it negates each degree it
    reads (a and b of a free summand, b of a K1 summand, a of a K2
    summand), so the same comparisons, pricing and label updates give the
    dual's steps, and no negated copy of the pairs is built.
    """
    # 0 free, 1 J, 2 K1, 3 K2; no steps need no labels
    labels = bytearray(len(pairs) if m else 0)
    value = 0
    for _ in range(m):
        free = k1_b = k2_a = None
        for i, (a, b) in enumerate(pairs):
            label = labels[i]
            if not label:
                if dual:
                    a, b = -a, -b
                if free is None:
                    free, free_i, free_a, a_i, free_b, b_i = a + b, i, a, i, b, i
                    continue
                if a + b < free:
                    free, free_i = a + b, i
                if a < free_a:
                    free_a, a_i = a, i
                if b < free_b:
                    free_b, b_i = b, i
            elif label == 2:
                if dual:
                    b = -b
                if k1_b is None or b < k1_b:
                    k1_b, k1_i = b, i
            elif label == 3:
                if dual:
                    a = -a
                if k2_a is None or a < k2_a:
                    k2_a, k2_i = a, i
        # below the rank a summand is free or K1 and K2 (of one size) are not
        # empty, so some exchange is priced
        best = exchange = None
        if free is not None:
            best, exchange = free - 2, 1
            if free_a + free_b < best:
                best, exchange = free_a + free_b, 2
        if k1_b is not None:
            if free is not None:
                if k2_a + free_b - 2 < best:
                    best, exchange = k2_a + free_b - 2, 3
                if free_a + k1_b - 2 < best:
                    best, exchange = free_a + k1_b - 2, 4
            if best is None or k2_a + k1_b - 4 < best:
                best, exchange = k2_a + k1_b - 4, 5
        if exchange == 1:
            labels[free_i] = 1
        elif exchange == 2:
            labels[a_i], labels[b_i] = 2, 3
        elif exchange == 3:
            labels[k2_i], labels[b_i] = 1, 3
        elif exchange == 4:
            labels[a_i], labels[k1_i] = 2, 1
        else:
            labels[k2_i] = labels[k1_i] = 1
        value += best + 2
        yield value


def degbd(z: NodalType, m: int) -> int:
    """Degree bound for rank-m quotients on a general smoothing.

    Least labeled sum over disjoint J, K1, K2 with |J| + |K1| = |J| + |K2|
    = m, where J contributes a_i + b_i, K1 contributes a_i + 1 and K2
    contributes b_i + 1.  Computed from the cheaper side by one call of
    ``_bounds``, in min(m, rank - m) augmenting steps, each one loop over
    the summands: O(rank * min(m, rank - m)) time, one byte of label per
    summand and only the running bound.

    A rank-m quotient has a rank-(rank - m) kernel, whose dual is a
    quotient of the dual bundle, and the labeling has the same symmetry:
    with X = J + K1 and Y = J + K2 and X', Y' their complements,
    sum_X a + sum_Y b - 2|X & Y| + 2m = deg z + sum_X' (-a) + sum_Y' (-b)
    - 2|X' & Y'| + 2(rank - m).  So degbd(z, m) = deg z +
    degbd(z dual, rank - m), where the dual negates every degree and the
    bound at 0 is 0.  Up to half the rank the steps run forward; above
    it, on the dual, and at the rank they are zero dual steps.
    """
    m = _check_m(z, m)
    rest = len(z.pairs) - m
    dual = m > rest
    value = 0
    for value in _bounds(z.pairs, rest if dual else m, dual):
        pass
    return z.total_degree + value if dual else value


def degbd_m1_closed_form(z: NodalType) -> int:
    """Rank-one degree bound: min of the smallest pair sum and
    (min a) + (min b) + 2.

    This is the first augmenting step of ``_bounds``, from no labels: its
    exchange 1 gives the pair sum and its exchange 2 the cross term, each
    plus 2 for the unit of m.  When both minima sit on the same single
    summand the cross term is not a legal labeling, but it is then
    dominated by that summand's pair sum, so the formula is still exact.
    """
    min_sum = min(a + b for a, b in z.pairs)
    min_a = min(a for a, _ in z.pairs)
    min_b = min(b for _, b in z.pairs)
    return min(min_sum, min_a + min_b + 2)


def degbd_profile(z: NodalType) -> tuple[int, ...]:
    """All degree bounds (degbd(z, 1), ..., degbd(z, rank)): the bounds
    ``_bounds`` yields in rank forward steps, in O(rank^2) time.  Its
    increments never decrease, since the cost of a shortest augmenting path
    does not."""
    return tuple(_bounds(z.pairs, z.rank))


def admissible_smoothings(
    z: NodalType, require_sequential: bool = False
) -> list[SplittingType]:
    """All splitting types a smoothing of ``z`` could carry.

    A type qualifies when it has the rank and total degree of ``z`` and, for
    every m, its m smallest entries sum to at least degbd(z, m).  This is a
    necessary condition only, so the result is a superset of the
    geometrically realizable types.

    One depth-first walk chooses the entries largest first.  With ``left``
    entries still to choose, summing to ``rest``, the next one is at least
    their mean's ceiling and at most the previous entry and ``rest`` less
    the floor of the other left - 1.  Sequential types also take it at most
    one below the previous entry, and at most the cap above which entries
    falling by one from it would overshoot ``rest``.  Each level keeps the
    sum it was left and its least allowed entry; the walk gives every level
    its largest allowed entry, and after each type, or a level with none,
    lowers the deepest entry still above its least by one.  So the list
    comes out lexicographically descending; it may be empty.  The entries
    are ints computed from checked ints, so each type is built once, as it
    is, with no re-check and no re-sort.
    """
    r = z.rank
    floors = (0,) + degbd_profile(z)
    make = SplittingType._of_sorted
    found: list[SplittingType] = []
    seq = [0] * r
    rests = [0] * r
    lows = [0] * r
    rest = z.total_degree
    prev = rest - floors[r - 1]
    i = 0
    while True:
        # give each level from i on its largest allowed entry
        while i < r:
            left = r - i
            lo = -(-rest // left)
            hi = rest - floors[left - 1]
            if prev < hi:
                hi = prev
            if require_sequential:
                cap = (rest + left * (left - 1) // 2) // left
                if cap < hi:
                    hi = cap
                if i and lo < prev - 1:
                    lo = prev - 1
            if hi < lo:
                break
            seq[i] = prev = hi
            rests[i] = rest
            lows[i] = lo
            rest -= hi
            i += 1
        else:
            found.append(make(tuple(seq)))
        # lower the deepest entry still above its least
        i -= 1
        while i >= 0 and seq[i] == lows[i]:
            i -= 1
        if i < 0:
            return found
        seq[i] = prev = seq[i] - 1
        rest = rests[i] - prev
        i += 1


class WitnessBlock(Value):
    """One block of a sharpness witness.

    A ``single`` block is one summand contributing its pair sum; a ``pair``
    block is a rank-two piece using the a-degree of its first index and the
    b-degree of its second, contributing a + b' + 2.
    """

    kind: str
    indices: tuple[int, ...]
    value: int


class SharpnessWitness(Value):
    """Block decomposition realizing degbd(z, m).

    ``serre_ok``, a class constant and not a field, says that every pair
    block satisfies the rank-two construction inequalities a' >= a + 2 and
    b >= b' + 2.  It is always True: in an optimal labeling, any i in K1
    and i' in K2 meet them, since b_i < b_{i'} + 2 would make moving i into
    J (dropping i' from K2) lower the sum, and a_{i'} < a_i + 2 would do
    the same for i'.  ``test_pair_blocks_meet_serre`` in
    ``tests/test_nodal.py`` checks both inequalities, and the total, on
    random types.
    """

    blocks: tuple[WitnessBlock, ...]
    total: int
    serre_ok = True

    def render(self) -> str:
        lines = []
        for blk in self.blocks:
            ones = " ".join(str(i + 1) for i in blk.indices)
            lines.append(f"{blk.kind} {ones} -> {blk.value}")
        lines.append(f"total -> {self.total}")
        return "\n".join(lines)


def _only(cost: tuple, label: int, inf: int) -> tuple:
    return tuple(c if i == label else inf for i, c in enumerate(cost))


def _without(cost: tuple, label: int, inf: int) -> tuple:
    return tuple(inf if i == label else c for i, c in enumerate(cost))


def _meet(front: list[list], back: list[list], m: int, d1: int, d2: int):
    """Least cost of a prefix table entry joined with a suffix table entry
    and one summand between them whose label adds (d1, d2) to the side
    counts, to side counts (m, m), without that summand's label cost.

    This is what filling a copy of ``front`` with the summand and meeting
    it with ``back`` gives, but no trial table is copied or filled.  A cell
    below the counts the last fill reached may hold a stale cost, but the
    cell it meets lies past every count the other table reached and holds
    the sentinel, so their sum still loses to every real cost.
    """
    return min(
        front[c1][c2] + back[m - d1 - c1][m - d2 - c2]
        for c1 in range(m + 1 - d1)
        for c2 in range(m + 1 - d2)
    )


def sharpness_witness(z: NodalType, m: int) -> SharpnessWitness:
    """Exhibit index blocks attaining degbd(z, m), K1 paired with K2 in
    index order.

    The labeling is the least-value one with the fewest J, then J, K1 and
    K2 lexicographically smallest, found by two DP passes and one sort.
    The passes fix J, then K1, greedily: an index takes the label when its
    cost plus the ``_meet`` of the DP over the decided prefix with one over
    the rest, shifted by the label's side counts, still reaches the
    optimum.  Each pass builds the rank + 1 suffix tables, each one
    ``_fill`` of one summand on a copy of the one before, and fills one
    prefix table in place with each decided summand; no trial table is
    copied.  The passes narrow a list of the label costs ``_costs`` builds
    for this call.

    The sort gives K2.  Once J and K1 are fixed, K2 is any |K1| of the
    other indices and each adds b_i + 1 on its own, so the value is least
    exactly when no index left out has a smaller b than one taken.  Among
    those sets, exchanging a taken index for one left out with equal b and
    a lower index makes the set lexicographically smaller, so K2 is the
    first |K1| of the other indices stably sorted by b.
    """
    m = _check_m(z, m)
    r = z.rank
    costs, inf = _costs(z.pairs)
    costs = list(costs)
    for label, d1, d2 in ((_J, 1, 1), (_K1, 1, 0)):
        back = [_start(m, inf)]
        for done, cost in enumerate(reversed(costs)):
            back.append([row[:] for row in back[-1]])
            _fill(back[-1], cost, m, m, done, r)
        back.reverse()
        best = back[0][m][m]
        front = _start(m, inf)
        for i, cost in enumerate(costs):
            if cost[label] != inf:
                meet = cost[label] + _meet(front, back[i + 1], m, d1, d2)
                costs[i] = (_only if meet == best else _without)(cost, label, inf)
            _fill(front, costs[i], m, m, i, r)
    J, K1, rest = (
        [i for i, cost in enumerate(costs) if cost[label] != inf]
        for label in (_J, _K1, _NONE)
    )
    pairs = z.pairs
    K2 = sorted(sorted(rest, key=lambda i: pairs[i][1])[: len(K1)])
    blocks = [WitnessBlock("single", (i,), pairs[i][0] + pairs[i][1]) for i in J]
    blocks += [
        WitnessBlock("pair", (i, ip), pairs[i][0] + pairs[ip][1] + 2)
        for i, ip in zip(K1, K2)
    ]
    return SharpnessWitness(tuple(blocks), best // (r + 1))
