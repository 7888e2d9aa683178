"""Exhaustive enumerators and brute-force oracles shared by the test modules."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from freecurves.errors import BoundaryMismatch, NoChamber, UnboundedSlice
from freecurves.modelio import fixture_path, load_model_file
from freecurves.nodal import (
    _J,
    _K1,
    SharpnessWitness,
    WitnessBlock,
    _costs,
    _fill,
    _only,
    _start,
    _without,
    degbd_profile,
)
from freecurves.splitting import SplittingType, is_sequential
from freecurves.variety import Chamber, VarietyModel, _merged, cone_rays, dot


def toy_rho2():
    """The bundled quadrant model with two chambers split along the diagonal
    (docs/fixtures.md)."""
    return load_model_file(fixture_path("toy_rho2.json")).model


def one_chamber_pbundle(n0, m, a):
    """The model ``pbundle(n0, m, a)`` builds for any buildable twists, even
    where it refuses them: one chamber, the relative piece first.  Where the
    base slope is larger on ray (1, 0) it fails ``validate``."""
    d, a0 = sum(a), a[0]
    rel, base = (m * a0 + a0 - d, m + 1), (n0 + 1, 0)
    chamber = Chamber(
        facets=(),
        filtration=(
            (m, (Fraction(rel[0], m), Fraction(rel[1], m))),
            (n0, (Fraction(base[0], n0), Fraction(base[1], n0))),
        ),
    )
    return VarietyModel(
        rho=2,
        dim_n=n0 + m,
        minus_k=(rel[0] + base[0], rel[1]),
        nef_facets=((1, 0), (0, 1)),
        chambers=(chamber,),
    )


def pbundle_twists(n0_max, m_max):
    """Every (n0, m, twists) that passes pbundle's shape checks, n0 <= n0_max
    and m <= m_max: m+1 non-increasing non-negative twists, the first
    positive, with total at most n0."""
    return [
        (n0, m, list(a))
        for n0 in range(1, n0_max + 1)
        for m in range(1, m_max + 1)
        for a in nonincreasing_sequences(m + 1, 0, n0)
        if a[0] >= 1 and sum(a) <= n0
    ]


def cofactor_det(rows):
    """Integer determinant by cofactor expansion along the first row, in
    factorial time."""
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    return sum(
        (-1) ** j * a * cofactor_det([r[:j] + r[j + 1 :] for r in rest])
        for j, a in enumerate(first)
        if a
    )


def subset_cone_rays(facets, rho):
    """Extremal rays of the cone {x : <f, x> >= 0 for all facets}, sorted
    primitive, by a search over facet subsets with minors from
    ``cofactor_det``: the oracle for ``variety.cone_rays``.

    ValueError when no rho facets span, for then the cone contains a line.
    Otherwise every (rho - 1)-subset of independent facets has a normal
    line, its signed maximal minors over their gcd, and each direction of
    it that meets every facet is a ray.
    """
    facets = [tuple(f) for f in facets]
    if not any(cofactor_det(list(sub)) for sub in combinations(facets, rho)):
        raise ValueError("cone contains a line: facet normals do not span")
    rays = set()
    for sub in combinations(facets, rho - 1):
        minors = [
            (-1) ** j * cofactor_det([f[:j] + f[j + 1 :] for f in sub])
            for j in range(rho)
        ]
        g = gcd(*minors)
        if g:
            ray = tuple(x // g for x in minors)
            rays.update(
                v for v in (ray, tuple(-x for x in ray)) if _satisfies(facets, v)
            )
    return sorted(rays)


def nonincreasing_sequences(rank, lo, hi):
    """All non-increasing integer tuples of the given rank with entries in
    [lo, hi]."""
    acc = []

    def rec(pos, cap):
        if pos == rank:
            yield tuple(acc)
            return
        for v in range(min(cap, hi), lo - 1, -1):
            acc.append(v)
            yield from rec(pos + 1, v)
            acc.pop()

    yield from rec(0, hi)


def types_in_class(rank, degree, lo, hi):
    """All splitting types of fixed rank and total degree, entries in [lo, hi],
    lexicographically descending."""

    def rec(left, total, cap):
        if left == 0:
            if total == 0:
                yield ()
            return
        for v in range(min(cap, total - (left - 1) * lo), lo - 1, -1):
            for tail in rec(left - 1, total - v, v):
                yield (v,) + tail

    return [SplittingType(seq) for seq in rec(rank, degree, hi)]


def recursive_smoothings(z, require_sequential):
    """The smoothing enumeration as it ran before the explicit walk: the
    oracle for ``nodal.admissible_smoothings``.

    Entries are chosen largest first by recursion, each level walked from
    high to low, and every type is built by the checking constructor.
    """
    r = z.rank
    floors = (0,) + degbd_profile(z)
    found = []
    seq = [0] * r

    def rec(left, rest, prev):
        # the `left` entries still to choose sum to `rest`; the next is their
        # largest: at least their mean, at most prev, and leaving the other
        # left - 1 their floor.  Sequential: at most one below prev, and
        # entries falling by one from it must not overshoot rest.
        if left == 0:
            found.append(tuple(seq))
            return
        lo = -(-rest // left)
        hi = min(prev, rest - floors[left - 1])
        if require_sequential:
            hi = min(hi, (rest + left * (left - 1) // 2) // left)
            if left < r:
                lo = max(lo, prev - 1)
        for s in range(hi, lo - 1, -1):
            seq[r - left] = s
            rec(left - 1, rest - s, s)

    rec(r, z.total_degree, z.total_degree - floors[r - 1])
    return [SplittingType(s) for s in found]


def sequential_zero_slope_types(rank):
    """All sequential splitting types of the given rank with total degree 0.

    Sequentiality plus zero sum bounds every entry by the rank, so the
    enumeration below is exhaustive.
    """
    return [t for t in types_in_class(rank, 0, -rank, rank) if is_sequential(t)]


def tensor(t1, t2):
    """Tensor product of two splitting types: the multiset of pairwise degree
    sums."""
    return SplittingType(a + b for a in t1.degrees for b in t2.degrees)


def dual(t):
    """Dual bundle: negate every degree."""
    return SplittingType(-a for a in t.degrees)


def direct_sum(t1, t2):
    """Direct sum: merge the two degree multisets."""
    return SplittingType(t1.degrees + t2.degrees)


def _pairing(u, v):
    return sum(a * b for a, b in zip(u, v))


def _satisfies(facets, alpha):
    return all(_pairing(f, alpha) >= 0 for f in facets)


def slice_classes(model, bound):
    """The classes of ``VarietyModel._fibres(bound)``, in its order."""
    fibres = model._fibres(bound)
    return [prefix + (t,) for prefix, _, lo, hi in fibres for t in range(lo, hi + 1)]


def box_slice(model, bound, radius):
    """Nef classes with 0 < degree <= bound, lexicographically sorted, by a
    scan of the box [-radius, radius]^rho that keeps each point passing
    every facet and both degree cuts: the brute-force oracle for
    ``VarietyModel._fibres``.  The box must hold the slice."""
    return [
        alpha
        for alpha in product(range(-radius, radius + 1), repeat=model.rho)
        if _satisfies(model.nef_facets, alpha)
        and 0 < _pairing(model.minus_k, alpha) <= bound
    ]


def orthant_slice(model, bound):
    """Nef classes with 0 < degree <= bound, by a scan of the box [0, bound]^rho.

    The box holds the whole slice when the coordinate facets are nef facets
    (the nef cone lies in the orthant) and every entry of the anticanonical
    functional is at least 1, so that no coordinate exceeds the degree.
    """
    rho = model.rho
    units = [tuple(int(i == j) for j in range(rho)) for i in range(rho)]
    assert all(u in model.nef_facets for u in units), "nef cone not in the orthant"
    assert min(model.minus_k) >= 1, "a coordinate may exceed the degree"
    return [
        alpha
        for alpha in product(range(bound + 1), repeat=rho)
        if _satisfies(model.nef_facets, alpha)
        and 0 < _pairing(model.minus_k, alpha) <= bound
    ]


def _cut(vec, floor):
    """The inequality <vec, x> >= floor split as (head, last, floor) for
    ``_dot_clip``."""
    return vec[:-1], vec[-1], floor


def _dot_clip(cuts, prefix, lo, hi):
    """[lo, hi] narrowed to the t with <head, prefix> + last * t >= floor
    for every cut (head, last, floor), by floor and ceiling division; empty
    when lo > hi."""
    for head, last, floor in cuts:
        rest = floor - dot(head, prefix)
        if last > 0:
            lo = max(lo, -(-rest // last))
        elif last < 0:
            hi = min(hi, rest // last)
        elif rest > 0:
            return lo, lo - 1
    return lo, hi


def dot_fibres(model, bound):
    """(prefix, lo, hi) per fibre of ``VarietyModel._fibres``, with every
    cut recomputed from the prefix by ``dot`` at each fibre and the box read
    from the rays at each call: the oracle for the model's stepping walk."""
    if bound < 1:
        raise ValueError("slice bound must be positive")
    try:
        rays = cone_rays(model.nef_facets, model.rho)
    except ValueError as exc:
        raise UnboundedSlice(str(exc)) from exc
    rays = [(ray, model.degree(ray)) for ray in rays]
    for ray, deg in rays:
        if deg <= 0:
            raise UnboundedSlice(f"anticanonical degree not positive on nef ray {ray}")
    if not rays:
        return iter(())
    box = [
        range(
            min(0, *(bound * ray[i] // deg for ray, deg in rays)),
            max(0, *(-(-bound * ray[i] // deg) for ray, deg in rays)) + 1,
        )
        for i in range(model.rho)
    ]
    mk = model.minus_k
    cuts = (
        *(_cut(f, 0) for f in model.nef_facets),
        _cut(mk, 1),
        _cut(tuple(-c for c in mk), -bound),
    )
    t_lo, t_hi = box[-1][0], box[-1][-1]
    return (
        (prefix, lo, hi)
        for prefix in product(*box[:-1])
        for lo, hi in [_dot_clip(cuts, prefix, t_lo, t_hi)]
        if lo <= hi
    )


def dot_runs(model, prefix, lo, hi):
    """``VarietyModel._runs`` with every chamber facet and piece numerator
    recomputed from the prefix by ``dot`` instead of read from the table
    values: the oracle for the runs the stepping walk hands its values to."""
    den = model.slope_den
    spans = []
    for ch in model.chambers:
        cuts = [_cut(f, 0) for f in ch.facets]
        c_lo, c_hi = _dot_clip(cuts, prefix, lo, hi)
        if c_lo <= c_hi:
            lines = []
            for r, svec in ch.filtration:
                vec = [c.numerator * (den // c.denominator) for c in svec]
                lines.append((r, dot(vec[:-1], prefix), vec[-1]))
            spans.append((c_lo, c_hi, lines))
    start = lo
    while start <= hi:
        stop, held = hi + 1, []
        for c_lo, c_hi, lines in spans:
            if c_lo > start:
                stop = min(stop, c_lo)
            elif c_hi >= start:
                stop = min(stop, c_hi + 1)
                held.append(lines)
        if not held:
            raise NoChamber(f"{prefix + (start,)} lies in no chamber")
        first, *others = held
        if others:
            for t in range(start, stop):
                pieces = _merged(first, t)
                if any(_merged(lines, t) != pieces for lines in others):
                    raise BoundaryMismatch(f"chambers disagree at {prefix + (t,)}")
        yield start, stop, first
        start = stop


def pieces_oracle(model, alpha):
    """(rank, slope) pieces of alpha, neighbours of equal slope merged, read
    as Fractions from ``Chamber.filtration`` of every chamber whose facets
    alpha meets, one class at a time: the oracle for ``VarietyModel._runs``.
    Raises NoChamber when no chamber holds alpha and BoundaryMismatch when
    two holders disagree."""
    found = None
    for chamber in model.chambers:
        if _satisfies(chamber.facets, alpha):
            pieces = []
            for r, svec in chamber.filtration:
                b = _pairing(svec, alpha)
                if pieces and pieces[-1][1] == b:
                    r += pieces.pop()[0]
                pieces.append((r, b))
            if found is None:
                found = pieces
            elif pieces != found:
                raise BoundaryMismatch(f"chambers disagree at {alpha}")
    if found is None:
        raise NoChamber(f"{alpha} lies in no chamber")
    return found


def chamber_failures(model, radius):
    """The set of NoChamber and BoundaryMismatch that ``chamber_pieces``
    raises on the nonzero nef classes of the box [0, radius]^rho: the
    brute-force oracle for the coverage check of ``validate``."""
    failures = set()
    for alpha in product(range(radius + 1), repeat=model.rho):
        if any(alpha) and _satisfies(model.nef_facets, alpha):
            try:
                model.chamber_pieces(alpha)
            except (NoChamber, BoundaryMismatch) as exc:
                failures.add(type(exc))
    return failures


def fraction_bound(model, alpha):
    """Certified bound n * b / deg - n^2 / (2 deg), with b the least slope
    of the first chamber holding alpha, read as Fractions from
    ``Chamber.filtration``."""
    chamber = next(ch for ch in model.chambers if _satisfies(ch.facets, alpha))
    b = min(_pairing(svec, alpha) for _, svec in chamber.filtration)
    n, deg = model.dim_n, _pairing(model.minus_k, alpha)
    return n * b / deg - Fraction(n * n, 2 * deg)


def direct_counts(model, cfg, d):
    """Brute-force row of the ratio report at one d: (points, liberated, N,
    N_lib), testing every class of the slice against the threshold at d.
    xi is br where alpha - beta is nef and the outside value elsewhere."""
    points = liberated = 0
    n_value = n_lib = Fraction(0)
    for alpha in orthant_slice(model, d * gcd(*model.minus_k)):
        shifted = tuple(a - b for a, b in zip(alpha, cfg.beta))
        xi = cfg.br if _satisfies(model.nef_facets, shifted) else cfg.outside_xi
        weight = xi * cfg.q ** _pairing(model.minus_k, alpha)
        points += 1
        n_value += weight
        if cfg.eps.admits(fraction_bound(model, alpha), d):
            liberated += 1
            n_lib += weight
    return points, liberated, n_value, n_lib


def labelings(pairs, m):
    """Yield (value, J, K1, K2) over all disjoint index triples with
    |J| + |K1| = |J| + |K2| = m: the brute-force oracle for the degree bound.

    J contributes a_i + b_i, K1 contributes a_i + 1, K2 contributes b_i + 1.
    Triples come by |J| ascending, then J, K1 and K2 lexicographically.
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


def labeling_minima(pairs):
    """{(|J| + |K1|, |J| + |K2|): least labeled sum} over every labeling of
    the pairs, by a dictionary DP over the summands that keeps every pair of
    side counts: the oracle for the degree bound at ranks past
    ``labelings``, where degbd(z, m) is the entry at (m, m)."""
    best = {(0, 0): 0}
    for a, b in pairs:
        step = dict(best)
        for (c1, c2), value in best.items():
            for key, new in (
                ((c1 + 1, c2 + 1), value + a + b),
                ((c1 + 1, c2), value + a + 1),
                ((c1, c2 + 1), value + b + 1),
            ):
                if key not in step or new < step[key]:
                    step[key] = new
        best = step
    return best


def fill_run(table, costs, need, cap):
    """Fill ``table`` in place with every summand of ``costs``, one
    ``_fill`` each, so each summand's side-count range is the rule
    ``_fill`` keeps."""
    for done, cost in enumerate(costs):
        _fill(table, cost, need, cap, done, len(costs))


def table_degbd(z, m):
    """degbd(z, m) by the table DP that computed it before augmenting
    paths, the oracle for ``nodal.degbd``: the label costs of a fresh
    ``_costs`` call filled into one (m + 2)^2 table of side counts, in
    O(rank * m^2)."""
    costs, inf = _costs(z.pairs)
    table = _start(m, inf)
    fill_run(table, costs, m, m)
    return table[m][m] // (z.rank + 1)


def table_profile(z):
    """degbd_profile(z) by the same table DP at cap rank, the oracle for
    ``nodal.degbd_profile``: the diagonal of one table, in O(rank^3)."""
    r = z.rank
    costs, inf = _costs(z.pairs)
    table = _start(r, inf)
    fill_run(table, costs, 0, r)
    return tuple(table[m][m] // (r + 1) for m in range(1, r + 1))


def witness_labeling(pairs, m):
    """(value, J, K1, K2) of the labeling ``sharpness_witness`` exhibits:
    among those with |J| + |K1| = |J| + |K2| = m, the least value with the
    fewest J, then J, K1 and K2 lexicographically smallest.

    Labels are fixed J, then K1, then K2, each in index order: an index
    keeps the label when forcing it, with the labels fixed so far and the
    rest free, still reaches the optimum; otherwise the label is barred
    from it.  The least (value, |J|) under those constraints comes from a
    dictionary DP over the side counts, so this shares no code with
    ``nodal`` and needs no sentinel.
    """
    allowed = [{"J", "K1", "K2", None} for _ in pairs]

    def least():
        best = {(0, 0): (0, 0)}
        for (a, b), labels in zip(pairs, allowed):
            step = dict(best) if None in labels else {}
            for (c1, c2), (value, js) in best.items():
                for label, key, new in (
                    ("J", (c1 + 1, c2 + 1), (value + a + b, js + 1)),
                    ("K1", (c1 + 1, c2), (value + a + 1, js)),
                    ("K2", (c1, c2 + 1), (value + b + 1, js)),
                ):
                    if label in labels and max(key) <= m:
                        if key not in step or new < step[key]:
                            step[key] = new
            best = step
        return best.get((m, m))

    optimum = least()
    for label in ("J", "K1", "K2"):
        for i, labels in enumerate(allowed):
            if label in labels:
                allowed[i] = {label}
                if least() != optimum:
                    allowed[i] = labels - {label}
    J, K1, K2 = (
        tuple(i for i, labels in enumerate(allowed) if labels == {label})
        for label in ("J", "K1", "K2")
    )
    return (optimum[0], J, K1, K2)


# The K2 label as an index into a summand's cost tuple: ``sharpness_witness``
# chooses K2 by a sort and names no K2 label, ``copying_witness`` tries it.
_K2 = 2


def _unshifted_meet(front, back, m):
    """Least cost of a prefix table entry joined with a suffix table entry
    to side counts (m, m)."""
    return min(
        front[c1][c2] + back[m - c1][m - c2]
        for c1 in range(m + 1)
        for c2 in range(m + 1)
    )


def copying_witness(z, m):
    """The witness greedy as it ran before the shifted meet: the oracle for
    ``nodal.sharpness_witness``.

    Labels are fixed J, then K1, then K2, each in index order.  For each
    index and label it copies the prefix table, fills the copy with the
    summand narrowed to that label and meets the copy with the suffix table
    at (m, m); the label is kept when that reaches the optimum.  The costs
    come from a fresh ``_costs`` call, not from the type.
    """
    r = z.rank
    costs, inf = _costs(z.pairs)
    costs = list(costs)
    for label in (_J, _K1, _K2):
        back = [_start(m, inf)]
        for done, cost in enumerate(reversed(costs)):
            back.append([row[:] for row in back[-1]])
            _fill(back[-1], cost, m, m, done, r)
        back.reverse()
        best = back[0][m][m]
        front = _start(m, inf)
        for i, cost in enumerate(costs):
            if cost[label] != inf:
                only = _only(cost, label, inf)
                trial = [row[:] for row in front]
                _fill(trial, only, m, m, i, r)
                if _unshifted_meet(trial, back[i + 1], m) == best:
                    costs[i] = only
                    front = trial
                    continue
                costs[i] = _without(cost, label, inf)
            _fill(front, costs[i], m, m, i, r)
    J, K1, K2 = (
        [i for i, cost in enumerate(costs) if cost[label] != inf]
        for label in (_J, _K1, _K2)
    )
    pairs = z.pairs
    blocks = [WitnessBlock("single", (i,), pairs[i][0] + pairs[i][1]) for i in J]
    blocks += [
        WitnessBlock("pair", (i, ip), pairs[i][0] + pairs[ip][1] + 2)
        for i, ip in zip(K1, K2)
    ]
    return SharpnessWitness(tuple(blocks), best // (r + 1))
