"""Splitting types on a two-component nodal curve and the degree bound.

The nodal curve is a union of two projective lines meeting at one node; a
line bundle on it is a pair of degrees (a, b).  The central object is the
degree bound ``degbd``: the least degree a rank-m torsion-free quotient of
the restricted bundle can carry on a nearby smooth curve.  Everything here
is brute-force exact enumeration over the finitely many index labelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from .errors import OutOfRange, RankMismatch, RankTooLarge, exact_int
from .splitting import SplittingType, is_sequential

__all__ = [
    "NodalType",
    "Alignment",
    "glue",
    "degbd",
    "degbd_m1_closed_form",
    "admissible_smoothings",
    "sharpness_witness",
    "WitnessBlock",
    "SharpnessWitness",
    "parse_nodal_type",
    "DEGBD_RANK_CAP",
]

# 3-way subset labelings grow too fast past this rank.
DEGBD_RANK_CAP = 16


@dataclass(frozen=True)
class NodalType:
    """Line-bundle summand degrees (a_i, b_i) on the two components.

    Canonical order: sorted descending by (a_i + b_i, a_i).
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
        object.__setattr__(self, "pairs", tuple(ps))

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def total_degree(self) -> int:
        return sum(a + b for a, b in self.pairs)

    def restrict_z1(self) -> SplittingType:
        return SplittingType(a for a, _ in self.pairs)

    def restrict_z2(self) -> SplittingType:
        return SplittingType(b for _, b in self.pairs)

    def swapped(self) -> "NodalType":
        """Exchange the two components."""
        return NodalType((b, a) for a, b in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __str__(self) -> str:
        return ",".join(f"{a}/{b}" for a, b in self.pairs)


def parse_nodal_type(text: str) -> NodalType:
    """Parse the ``a/b`` pair list form, e.g. ``2/-1,-1/2``."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, sep, b = chunk.partition("/")
        if not sep:
            raise ValueError(f"bad nodal summand {chunk!r}, expected a/b")
        pairs.append((int(a), int(b)))
    if not pairs:
        raise ValueError(f"no summands in nodal type {text!r}")
    return NodalType(pairs)


@dataclass(frozen=True)
class Alignment:
    """Matching of summands of the two curves at the node.

    ``perm[i]`` is the 0-based summand of the second curve glued to summand
    ``i`` of the first.
    """

    perm: tuple[int, ...]

    def __init__(self, perm) -> None:
        p = tuple(exact_int(i, "alignment index") for i in perm)
        if sorted(p) != list(range(len(p))):
            raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p}")
        object.__setattr__(self, "perm", p)

    @classmethod
    def identity(cls, rank: int) -> "Alignment":
        return cls(range(rank))

    @classmethod
    def dual(cls, rank: int) -> "Alignment":
        """Pair the descending summands of one side against the ascending
        summands of the other — the maximally transverse matching."""
        return cls(range(rank - 1, -1, -1))

    @classmethod
    def from_one_based(cls, images) -> "Alignment":
        return cls(exact_int(i, "alignment index") - 1 for i in images)


def glue(t1: SplittingType, t2: SplittingType, align: Alignment) -> NodalType:
    """Combine two splitting types into a nodal type via the alignment."""
    if t1.rank != t2.rank:
        raise RankMismatch(f"rank {t1.rank} vs {t2.rank}")
    if len(align.perm) != t1.rank:
        raise RankMismatch(f"alignment length {len(align.perm)} vs rank {t1.rank}")
    return NodalType((t1[i], t2[align.perm[i]]) for i in range(t1.rank))


def _labelings(pairs: tuple[tuple[int, int], ...], m: int):
    """Yield (value, J, K1, K2) over all disjoint index triples with
    |J| + |K1| = |J| + |K2| = m.

    J contributes a_i + b_i, K1 contributes a_i + 1, K2 contributes b_i + 1.
    """
    r = len(pairs)
    idx = tuple(range(r))
    for j in range(max(0, 2 * m - r), m + 1):
        k = m - j
        for J in combinations(idx, j):
            jset = set(J)
            base = sum(pairs[i][0] + pairs[i][1] for i in J)
            rest = tuple(i for i in idx if i not in jset)
            for K1 in combinations(rest, k):
                k1set = set(K1)
                part1 = base + sum(pairs[i][0] + 1 for i in K1)
                rest2 = tuple(i for i in rest if i not in k1set)
                for K2 in combinations(rest2, k):
                    value = part1 + sum(pairs[i][1] + 1 for i in K2)
                    yield value, J, K1, K2


def _check_rank(z: NodalType) -> None:
    if z.rank > DEGBD_RANK_CAP:
        raise RankTooLarge(f"rank {z.rank} exceeds enumeration cap {DEGBD_RANK_CAP}")


def _best_labeling(z: NodalType, m: int):
    """(value, J, K1, K2) of the first least-value labeling in enumeration
    order (``min`` keeps the first of equal keys)."""
    _check_rank(z)
    if not 1 <= m <= z.rank:
        raise OutOfRange(f"m={m} outside 1..{z.rank}")
    return min(_labelings(z.pairs, m), key=itemgetter(0))


def degbd(z: NodalType, m: int) -> int:
    """Degree bound for rank-m quotients on a general smoothing.

    Infimum over disjoint J, K1, K2 of the labeled contribution sums; computed
    by exhaustive enumeration.
    """
    return _best_labeling(z, m)[0]


def degbd_m1_closed_form(z: NodalType) -> int:
    """Rank-one degree bound: min of the smallest pair sum and
    (min a) + (min b) + 2.

    When both minima sit on the same single summand the cross term is not a
    legal labeling, but it is then dominated by that summand's pair sum, so
    the formula is still exact.
    """
    min_sum = min(a + b for a, b in z.pairs)
    min_a = min(a for a, _ in z.pairs)
    min_b = min(b for _, b in z.pairs)
    return min(min_sum, min_a + min_b + 2)


def degbd_profile(z: NodalType) -> tuple[int, ...]:
    """All degree bounds (degbd(z, 1), ..., degbd(z, rank)) at once."""
    return tuple(degbd(z, m) for m in range(1, z.rank + 1))


def admissible_smoothings(
    z: NodalType, require_sequential: bool = False
) -> list[SplittingType]:
    """All splitting types a smoothing of ``z`` could carry.

    A type qualifies when it has the rank and total degree of ``z`` and, for
    every m, its m smallest entries sum to at least degbd(z, m).  This is a
    necessary condition only, so the result is a superset of the
    geometrically realizable types.  The list is sorted lexicographically
    descending and may be empty.
    """
    _check_rank(z)
    r = z.rank
    total = z.total_degree
    floors = degbd_profile(z)

    found: list[tuple[int, ...]] = []
    seq = [0] * r

    def rec(pos: int, prev: int, prefix: int) -> None:
        # seq is built ascending: seq[0] <= seq[1] <= ...; floors bound the
        # prefix sums from below.
        remaining = r - pos
        if remaining == 0:
            last = total - prefix
            if pos > 1 and last < prev:
                return
            if require_sequential and pos > 1 and last > prev + 1:
                return
            seq[pos - 1] = last
            found.append(tuple(seq))
            return
        lo = floors[pos - 1] - prefix
        if pos > 1:
            lo = max(lo, prev)
        hi = (total - prefix) // (remaining + 1)
        if require_sequential and pos > 1:
            hi = min(hi, prev + 1)
        for s in range(lo, hi + 1):
            if require_sequential:
                # even maximal unit steps cannot reach the total
                max_rest = remaining * s + remaining * (remaining + 1) // 2
                if prefix + s + max_rest < total:
                    continue
            seq[pos - 1] = s
            rec(pos + 1, s, prefix + s)

    rec(1, 0, 0)

    types = [SplittingType(reversed(s)) for s in found]
    if require_sequential:
        assert all(is_sequential(t) for t in types)
    types.sort(key=lambda t: t.degrees, reverse=True)
    return types


@dataclass(frozen=True)
class WitnessBlock:
    """One block of a sharpness witness.

    A ``single`` block is one summand contributing its pair sum; a ``pair``
    block is a rank-two piece using the a-degree of its first index and the
    b-degree of its second, contributing a + b' + 2.
    """

    kind: str
    indices: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class SharpnessWitness:
    """Block decomposition realizing degbd(z, m).

    ``serre_ok`` records that every pair block satisfies the rank-two
    construction inequalities a' >= a + 2 and b >= b' + 2.  It is always
    True: in an optimal labeling, any i in K1 and i' in K2 meet them, since
    b_i < b_{i'} + 2 would make moving i into J (dropping i' from K2)
    lower the sum, and a_{i'} < a_i + 2 would do the same for i'.
    """

    blocks: tuple[WitnessBlock, ...]
    total: int
    serre_ok: bool

    def render(self) -> str:
        lines = []
        for blk in self.blocks:
            ones = " ".join(str(i + 1) for i in blk.indices)
            lines.append(f"{blk.kind} {ones} -> {blk.value}")
        lines.append(f"total -> {self.total}")
        return "\n".join(lines)


def sharpness_witness(z: NodalType, m: int) -> SharpnessWitness:
    """Exhibit index blocks attaining degbd(z, m): the first optimal
    labeling in enumeration order, K1 paired with K2 in index order."""
    optimum, J, K1, K2 = _best_labeling(z, m)
    pairs = z.pairs
    blocks = [WitnessBlock("single", (i,), pairs[i][0] + pairs[i][1]) for i in J]
    blocks += [
        WitnessBlock("pair", (i, ip), pairs[i][0] + pairs[ip][1] + 2)
        for i, ip in zip(K1, K2)
    ]
    return SharpnessWitness(tuple(blocks), optimum, True)
