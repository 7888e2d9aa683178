"""Finite lattice presentation of a variety's curve-class geometry.

A model holds the curve lattice Z^rho, the anticanonical functional, the nef
cone of curves cut out by facet inequalities, and a chamber decomposition
carrying filtration data: per chamber, the ranks and linear slope
functionals of the successive filtration quotients.  From these it computes
expected slope panels and certified lower bounds for the minimal slope
ratio.  Integers are checked once, where they enter; behind that, lattice
arithmetic is plain int.  When a model is built its degree step (the gcd
of minus_k) is found, its chamber slopes are scaled once to integer
numerators over one model denominator, the lcm of every slope
denominator, and every linear functional the slice walk reads
(nef facets, the degree, chamber facets, scaled piece slopes) goes once into
one table, split into its head on the leading coordinates and its last
entry.

One chamber rule serves every answer.  ``VarietyModel._fibres`` walks the
slice of bounded degree fibre by fibre along the last coordinate t, keeping
every head's value at the current prefix: a step of the innermost prefix
coordinate adds each head's innermost entry, and ``dot`` runs only when an
outer coordinate moves, so each cut costs one floor division.
``VarietyModel._runs`` splits a fibre into runs of t held by the same
chambers: each chamber's facets clip the fibre to one t-interval, its piece
numerators are affine in t, and one pass over the intervals at each run's
start finds the holders and the run's end.  A single class is read once:
``_read`` checks it and computes its table values with ``dot``.
``chamber_pieces`` takes from them only its one-point run, so it checks
neither nef membership nor degree.  ``esp`` and ``liberated_lower_bound``
read through ``_nef_pieces``, which takes from them its nef membership (the
nef cuts on the fibre t..t), its degree and its one-point run.  All of it
is int work; ``esp`` and ``liberated_lower_bound`` divide once at the end,
in ``_panel`` and ``_bound``, and return Fractions; the ``esp`` command
calls both helpers on one ``_nef_pieces`` read.  Cone rays come from one
double-description pass over the facets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm
from operator import add, mul

from .errors import (
    BoundaryMismatch,
    NoChamber,
    NotInNefCone,
    RankTooLarge,
    UnboundedSlice,
    Value,
    ZeroDegree,
    exact_fraction,
    exact_int,
)

__all__ = [
    "MAX_PANEL_LENGTH",
    "Chamber",
    "VarietyModel",
    "ValidationReport",
    "esp",
    "liberated_lower_bound",
    "validate",
    "cone_rays",
    "pbundle",
    "toy_rho1",
    "dot",
]


def dot(u, v):
    """Sum of products: an int for integer vectors, a Fraction for slopes."""
    return sum(map(mul, u, v))


def _int_vector(values, rho: int, what: str) -> tuple[int, ...]:
    vec = tuple(exact_int(c, f"{what} entry") for c in values)
    if len(vec) != rho:
        raise ValueError(f"{what} length {len(vec)} != rho {rho}")
    return vec


def _clip(cuts, values, lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi] narrowed to the t with values[i] + last * t >= floor for
    every cut (i, last, floor), by one floor or ceiling division per cut;
    empty when lo > hi.  ``values`` holds each table functional's head at
    the prefix."""
    for i, last, floor in cuts:
        rest = floor - values[i]
        if last > 0:
            t = -(-rest // last)
            if t > lo:
                lo = t
        elif last < 0:
            t = rest // last
            if t < hi:
                hi = t
        elif rest > 0:
            return lo, lo - 1
    return lo, hi


def _merged(lines, t: int) -> list[tuple[int, int]]:
    """(rank, b0 + s * t) per line (rank, b0, s), neighbours of equal slope
    numerator merged."""
    pieces: list[tuple[int, int]] = []
    for r, b0, s in lines:
        b = b0 + s * t
        if pieces and pieces[-1][1] == b:
            r += pieces.pop()[0]
        pieces.append((r, b))
    return pieces


def _primitive(a: int, u, b: int, v) -> tuple[int, ...]:
    """a * u + b * v divided by the gcd of its entries; it must be nonzero."""
    w = [a * x + b * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple(x // g for x in w)


def cone_rays(facets, rho: int) -> list[tuple[int, ...]]:
    """Extremal rays of the pointed cone {x : <f, x> >= 0 for all facets},
    as sorted primitive int vectors.

    One double-description pass over the facets (Motzkin, Raiffa, Thompson
    and Thrall 1953; Fukuda and Prodon 1996) keeps the cone cut out so far
    as the span of some lines plus the rays, each ray with the facets tight
    at it as a bit set; it starts from the rho unit lines and no rays.  A
    facet nonzero on a line turns that line's positive half into a ray
    (tight at every earlier facet) and projects the other lines and rays
    onto its hyperplane.  Otherwise the rays on which it is >= 0 stay, and
    each pair of a positive and a negative ray that no third ray is tight
    alongside (they are adjacent) adds the ray where their edge meets the
    hyperplane.  A line left at the end means the cone is not pointed, and
    ValueError is raised.
    """
    rho = exact_int(rho, "cone_rays rho")
    if rho < 1:
        raise ValueError("cone_rays rho must be positive")
    facets = [_int_vector(f, rho, "facet") for f in facets]
    lines = [tuple(int(i == j) for j in range(rho)) for i in range(rho)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for k, f in enumerate(facets):
        bit = 1 << k
        line = next((v for v in lines if dot(f, v)), None)
        if line is not None:
            lines.remove(line)
            a = dot(f, line)
            if a < 0:
                line, a = tuple(-x for x in line), -a
            lines = [_primitive(a, v, -dot(f, v), line) for v in lines]
            rays = [(_primitive(a, r, -dot(f, r), line), t | bit) for r, t in rays]
            rays.append((line, bit - 1))
            continue
        signed = [(r, t, dot(f, r)) for r, t in rays]
        rays = [(r, t | bit if s == 0 else t) for r, t, s in signed if s >= 0] + [
            (_primitive(sp, rn, -sn, rp), tp & tn | bit)
            for rp, tp, sp in signed
            if sp > 0
            for rn, tn, sn in signed
            if sn < 0
            # adjacent: every other ray misses a facet tight at both
            if all(tp & tn & ~t for r, t, _ in signed if r not in (rp, rn))
        ]
    if lines:
        raise ValueError("cone contains a line: facet normals do not span")
    return sorted(r for r, _ in rays)


class Chamber(Value):
    """Subcone of the nef cone with constant filtration data.

    ``facets`` are extra inequalities inside the nef cone; ``filtration``
    lists (rank, slope functional) per quotient, slopes as exact rational
    vectors on the curve lattice.
    """

    facets: tuple[tuple[int, ...], ...]
    filtration: tuple[tuple[int, tuple[Fraction, ...]], ...]

    def __init__(self, facets, filtration) -> None:
        fs = tuple(tuple(exact_int(c, "facet entry") for c in f) for f in facets)
        fl = tuple(
            (exact_int(r, "rank"), tuple(exact_fraction(c, "slope entry") for c in svec))
            for r, svec in filtration
        )
        if not fl:
            raise ValueError("chamber needs at least one filtration piece")
        if any(r < 1 for r, _ in fl):
            raise ValueError("filtration ranks must be positive")
        super().__init__(fs, fl)


class VarietyModel(Value):
    rho: int
    dim_n: int
    minus_k: tuple[int, ...]
    nef_facets: tuple[tuple[int, ...], ...]
    chambers: tuple[Chamber, ...]

    def __init__(self, rho, dim_n, minus_k, nef_facets, chambers) -> None:
        rho = exact_int(rho, "rho")
        dim_n = exact_int(dim_n, "dim")
        if rho < 1 or dim_n < 1:
            raise ValueError("rho and dim must be positive")
        mk = _int_vector(minus_k, rho, "minus_k")
        nf = tuple(_int_vector(f, rho, "nef facet") for f in nef_facets)
        chs = tuple(chambers)
        for ch in chs:
            if any(len(f) != rho for f in ch.facets):
                raise ValueError("chamber facet of wrong length")
            if any(len(s) != rho for _, s in ch.filtration):
                raise ValueError("slope functional of wrong length")
        super().__init__(rho, dim_n, mk, nf, chs)
        # Set up once, outside the fields (so outside equality, hash and
        # repr): D = ``slope_den``, the lcm of every slope denominator, and
        # one table of every linear functional the walk reads, each vector
        # kept once: the nef facets, the degree and its negative, each
        # chamber's facets and each piece's integer slope vector D * slope.
        # The table keeps each functional's head (its entries on the
        # prefix); a cut (i, last, 0) and a piece line (rank, i, last) point
        # into it by index and carry the last entry.
        den = lcm(*(c.denominator for ch in chs for _, sv in ch.filtration for c in sv))
        table: dict[tuple[int, ...], int] = {}

        def index(vec):
            return table.setdefault(vec, len(table))

        scaled = tuple(
            (
                tuple((index(f), f[-1], 0) for f in ch.facets),
                tuple(
                    (r, index(vec), vec[-1])
                    for r, sv in ch.filtration
                    for vec in [tuple(c.numerator * (den // c.denominator) for c in sv)]
                ),
            )
            for ch in chs
        )
        nef_cuts = tuple((index(f), f[-1], 0) for f in nf)
        degree, neg_degree = index(mk), index(tuple(-c for c in mk))
        heads = tuple(vec[:-1] for vec in table)
        self.__dict__.update(
            _nef_cuts=nef_cuts,
            # the degree step: every degree on the lattice is a multiple of
            # the gcd of minus_k, 0 when minus_k is zero
            _degree_step=gcd(*mk),
            _degree=degree,
            _neg_degree=neg_degree,
            _heads=heads,
            # each head's innermost entry: what one step of the innermost
            # prefix coordinate adds to its value
            _steps=tuple(h[-1] for h in heads) if rho > 1 else (),
            slope_den=den,
            _scaled_chambers=scaled,
        )

    def degree(self, alpha) -> int:
        return dot(self.minus_k, _int_vector(alpha, self.rho, "class"))

    # The nef rays are found on first use and kept, so loading a model or
    # asking ``esp`` pays nothing for them.  A cached_property keeps no
    # value when it raises: the error comes again on every use.
    @cached_property
    def _nef_rays(self) -> tuple[tuple[int, ...], ...]:
        """``cone_rays`` of the nef facets; ValueError when the cone
        contains a line."""
        return tuple(cone_rays(self.nef_facets, self.rho))

    @cached_property
    def _slice_box(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per coordinate i, (a, b, c, e): a / b the least and c / e the
        largest of 0 and ray[i] / degree over the nef rays, so that the
        slice of degree at most bound spans floor(bound a / b) to
        ceil(bound c / e) in it.  UnboundedSlice when a slice of bounded
        degree is unbounded: the cone contains a line, or the degree is not
        positive on a ray."""
        try:
            rays = self._nef_rays
        except ValueError as exc:
            raise UnboundedSlice(str(exc)) from exc
        degrees = [self.degree(ray) for ray in rays]
        for ray, deg in zip(rays, degrees):
            if deg <= 0:
                raise UnboundedSlice(
                    f"anticanonical degree not positive on nef ray {ray}"
                )
        ends = []
        for i in range(self.rho):
            ratios = [Fraction(0), *map(Fraction, (ray[i] for ray in rays), degrees)]
            least, largest = min(ratios), max(ratios)
            ends.append((*least.as_integer_ratio(), *largest.as_integer_ratio()))
        return tuple(ends)

    def _fibres(self, bound):
        """(prefix, values, lo, hi) per nonempty fibre of the slice of nef
        classes with 0 < degree <= bound, in lexicographic order: the
        classes are prefix + (t,) for lo <= t <= hi, and values[i] is table
        functional i's head at the prefix.  The bound is checked on the call.

        The prefix runs over the slice's bounding box, which comes from the
        rays: the slice is the convex hull of the origin and the scaled rays
        (bound / ray degree) * ray.  The last coordinate's range is exact:
        the box's last range clipped by every nef facet and both degree
        cuts.  UnboundedSlice is raised when the slice is unbounded.
        """
        bound = exact_int(bound, "slice bound")
        if bound < 1:
            raise ValueError("slice bound must be positive")
        box = [
            range(bound * a // b, -(-bound * c // e) + 1)
            for a, b, c, e in self._slice_box
        ]
        last = self.minus_k[-1]
        # the degree cuts 1 <= degree and -degree >= -bound
        cuts = (
            *self._nef_cuts,
            (self._degree, last, 1),
            (self._neg_degree, -last, -bound),
        )
        return self._walk(box[:-1], box[-1][0], box[-1][-1], cuts)

    def _walk(self, prefix_box, t_lo: int, t_hi: int, cuts):
        """The fibres of ``_fibres``: the prefix over ``prefix_box`` in
        lexicographic order, t over [t_lo, t_hi] clipped by ``cuts``.
        ``product`` moves the innermost coordinate up by one except where it
        wraps back to its first value; there (and at rho 1) the values come
        from ``dot``, elsewhere each head adds its innermost entry."""
        heads, steps = self._heads, self._steps
        first = prefix_box[-1][0] if prefix_box else None
        for prefix in product(*prefix_box):
            if prefix and prefix[-1] != first:
                values = list(map(add, values, steps))
            else:
                values = [dot(h, prefix) for h in heads]
            lo, hi = _clip(cuts, values, t_lo, t_hi)
            if lo <= hi:
                yield prefix, values, lo, hi

    def _runs(self, prefix, values, lo: int, hi: int):
        """(start, stop, lines) per run start <= t < stop of the classes
        prefix + (t,), lo <= t <= hi, held by the same chambers, in order,
        from the table values at the prefix as ``_fibres`` or ``_read``
        gives them.

        Each chamber's facets clip the fibre to one t-interval, and
        ``lines`` are the first holder's pieces as (rank, b0, s): slope
        numerator b0 + s * t over ``slope_den``.  From each run's start one
        pass over the intervals collects the holders and stops the run at
        the least of hi + 1, a holder's end + 1 and a later chamber's start,
        so a run costs O(chambers) and is maximal.  This is the one chamber
        rule: NoChamber is raised at the first class that no chamber holds,
        and BoundaryMismatch at the first class where two holders' pieces,
        equal neighbours merged, differ.  An empty range yields no run.
        """
        spans = []
        for cuts, pieces in self._scaled_chambers:
            c_lo, c_hi = _clip(cuts, values, lo, hi)
            if c_lo <= c_hi:
                spans.append((c_lo, c_hi + 1, [(r, values[i], s) for r, i, s in pieces]))
        start, end = lo, hi + 1
        while start < end:
            stop, held = end, []
            for c_lo, c_end, lines in spans:
                if c_lo > start:
                    if c_lo < stop:
                        stop = c_lo
                elif c_end > start:
                    if c_end < stop:
                        stop = c_end
                    held.append(lines)
            if not held:
                raise NoChamber(f"{prefix + (start,)} lies in no chamber")
            first = held[0]
            if len(held) > 1:
                for t in range(start, stop):
                    pieces = _merged(first, t)
                    if any(_merged(lines, t) != pieces for lines in held[1:]):
                        raise BoundaryMismatch(f"chambers disagree at {prefix + (t,)}")
            yield start, stop, first
            start = stop

    def _read(self, alpha) -> tuple[tuple[int, ...], list[int]]:
        """The one read of a single class: alpha checked as rho ints, and
        each table functional's head at its prefix, by ``dot``."""
        alpha = _int_vector(alpha, self.rho, "class")
        return alpha, [dot(h, alpha[:-1]) for h in self._heads]

    def _pieces(self, alpha, values) -> list[tuple[int, int]]:
        """``chamber_pieces`` from the read of alpha."""
        t = alpha[-1]
        ((_, _, lines),) = self._runs(alpha[:-1], values, t, t)
        return _merged(lines, t)

    def chamber_pieces(self, alpha) -> list[tuple[int, int]]:
        """(rank, slope numerator over ``slope_den``) pieces of the class
        alpha, rho ints, in filtration order, neighbours of equal slope
        merged: the run-length form of the per-summand slopes, the one-point
        case of ``_runs`` with its NoChamber and BoundaryMismatch."""
        return self._pieces(*self._read(alpha))


def _nef_pieces(model: VarietyModel, alpha) -> tuple[int, list[tuple[int, int]]]:
    """The degree and ``chamber_pieces`` of a nef class of positive degree,
    all from one read: the nef facets clip the one-point fibre t..t, and
    the degree is its head's value plus its last entry times t."""
    alpha, values = model._read(alpha)
    t = alpha[-1]
    lo, hi = _clip(model._nef_cuts, values, t, t)
    if lo > hi:
        raise NotInNefCone(f"{alpha} violates a nef facet")
    deg = values[model._degree] + model.minus_k[-1] * t
    if deg <= 0:
        raise ZeroDegree(f"anticanonical degree {deg} of {alpha} is not positive")
    return deg, model._pieces(alpha, values)


# The longest panel ``esp`` lists, one entry per summand; a chamber piece of
# larger rank is refused before anything is expanded.
MAX_PANEL_LENGTH = 10**6


def _panel(model: VarietyModel, deg: int, pieces) -> tuple[Fraction, ...]:
    """``esp`` from the degree and pieces of ``_nef_pieces``."""
    length = sum(r for r, _ in pieces)
    if length > MAX_PANEL_LENGTH:
        raise RankTooLarge(f"panel of {length} entries exceeds {MAX_PANEL_LENGTH}")
    # slope b / D over the bundle slope deg / dim
    scale = model.slope_den * deg
    return tuple(
        e for r, b in pieces for e in [Fraction(b * model.dim_n, scale)] * r
    )


def _bound(model: VarietyModel, deg: int, pieces) -> Fraction:
    """``liberated_lower_bound`` from the degree and pieces of
    ``_nef_pieces``."""
    n, den = model.dim_n, model.slope_den
    b = min(s for _, s in pieces)
    return Fraction(2 * n * b - n * n * den, 2 * den * deg)


def esp(model: VarietyModel, alpha) -> tuple[Fraction, ...]:
    """Expected slope panel of a nef class: piece slopes over the bundle slope,
    each repeated by its rank.

    The class must lie in the nef cone, have positive anticanonical degree,
    and belong to at least one chamber.  On a shared chamber face all
    containing chambers must give the same slopes.  A panel of more than
    ``MAX_PANEL_LENGTH`` entries raises RankTooLarge.
    """
    return _panel(model, *_nef_pieces(model, alpha))


def liberated_lower_bound(model: VarietyModel, alpha) -> Fraction:
    """Certified lower bound for the minimal slope ratio of class alpha.

    Smallest expected-panel entry minus dim^2 / (2 deg): for dim n, least
    piece slope b / D and D = ``slope_den``, (2 n b - n^2 D) / (2 D deg).
    Non-positive values certify nothing.
    """
    return _bound(model, *_nef_pieces(model, alpha))


class ValidationReport(Value):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"violations: {len(self.violations)}"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def validate(model: VarietyModel) -> ValidationReport:
    """Check the model invariants; returns a report rather than raising.

    Rank sums, rank-weighted slope sums, and slope sign and order on every
    chamber ray are checked exactly.  Coverage and agreement of the chambers
    are checked with ``chamber_pieces`` at the nef rays, every chamber's
    rays and all pairwise sums of these.  At rho <= 2 that is exact: every
    chamber boundary is one of the rays, the arc between two neighbouring
    rays holds their sum, and along such an arc each chamber's pieces are
    linear, so a gap shows at the sum and a disagreement at an end.  Above
    rho 2 it is a sample.
    """
    bad: list[str] = []

    rays: tuple[tuple[int, ...], ...] | None = None
    try:
        rays = model._nef_rays
    except ValueError as exc:
        bad.append(f"nef cone: {exc}")

    for g in rays or ():
        if model.degree(g) <= 0:
            bad.append(f"anticanonical degree not positive on nef ray {g}")

    sample = set(rays or ())

    for ci, ch in enumerate(model.chambers):
        ranks = sum(r for r, _ in ch.filtration)
        if ranks != model.dim_n:
            bad.append(f"chamber {ci}: ranks sum to {ranks}, not dim {model.dim_n}")
        combined = tuple(
            sum(r * svec[i] for r, svec in ch.filtration) for i in range(model.rho)
        )
        if combined != model.minus_k:
            bad.append(f"chamber {ci}: rank-weighted slopes do not sum to minus_k")
        if rays is None:
            continue
        # the nef facets span, so the chamber's cone is pointed too
        ch_rays = cone_rays(model.nef_facets + ch.facets, model.rho)
        sample.update(ch_rays)
        for ray in ch_rays:
            for k, (_, svec) in enumerate(ch.filtration):
                if dot(svec, ray) < 0:
                    bad.append(f"chamber {ci}: slope {k} negative on ray {ray}")
            for k in range(len(ch.filtration) - 1):
                hi = dot(ch.filtration[k][1], ray)
                lo = dot(ch.filtration[k + 1][1], ray)
                if hi < lo:
                    bad.append(
                        f"chamber {ci}: slopes {k},{k + 1} increase on ray {ray}"
                    )

    sums = [tuple(map(add, r1, r2)) for r1, r2 in combinations(sample, 2)]
    for p in sorted(sample.union(sums)):
        try:
            model.chamber_pieces(p)
        except NoChamber:
            bad.append(f"nef point {p} lies in no chamber")
        except BoundaryMismatch:
            bad.append(f"chambers disagree on shared point {p}")

    return ValidationReport(tuple(bad))


def pbundle(n0: int, m: int, a_list) -> VarietyModel:
    """Projectivization of a split sum of twists over projective space.

    ``a_list`` holds the m+1 non-increasing twist degrees, the first
    positive, with total at most n0.  Curve classes use the basis (section
    class, fiber line); the one chamber has the relative tangent piece
    first.  That order holds on the whole nef cone only where the relative
    slope is at least the base slope on the ray (1, 0).  Other twists (every
    n0 = 1 bundle, the Hirzebruch surface F_1 among them) need a wall that
    is not modelled: ``validate`` reports their model, and they raise
    ValueError with its violations.
    """
    n0, m = exact_int(n0, "n0"), exact_int(m, "m")
    a = tuple(exact_int(x, "twist degree") for x in a_list)
    if n0 < 1 or m < 1:
        raise ValueError("n0 and m must be positive")
    if len(a) != m + 1:
        raise ValueError(f"need {m + 1} twist degrees, got {len(a)}")
    if any(x < y for x, y in zip(a[1:], a[2:])) or (len(a) > 1 and a[0] < a[1]):
        raise ValueError("twist degrees must be non-increasing")
    if a[0] < 1 or any(x < 0 for x in a):
        raise ValueError("twists must be non-negative with positive leading term")
    d = sum(a)
    if d > n0:
        raise ValueError(f"twist total {d} exceeds base dimension {n0}")
    a0 = a[0]
    rel = (m * a0 + a0 - d, m + 1)
    base = (n0 + 1, 0)
    chamber = Chamber(
        facets=(),
        filtration=(
            (m, (Fraction(rel[0], m), Fraction(rel[1], m))),
            (n0, (Fraction(base[0], n0), Fraction(base[1], n0))),
        ),
    )
    model = VarietyModel(
        rho=2,
        dim_n=n0 + m,
        minus_k=(rel[0] + base[0], rel[1]),
        nef_facets=((1, 0), (0, 1)),
        chambers=(chamber,),
    )
    violations = validate(model).violations
    if violations:
        raise ValueError(
            f"twists {list(a)} over P^{n0} need a second chamber: "
            + "; ".join(violations)
        )
    return model


def toy_rho1(c: int, dim: int = 2) -> VarietyModel:
    """Picard-rank-one model with a semistable tangent chamber."""
    c, dim = exact_int(c, "c"), exact_int(dim, "dim")
    if c < 1:
        raise ValueError("anticanonical step must be positive")
    chamber = Chamber(facets=(), filtration=((dim, (Fraction(c, dim),)),))
    return VarietyModel(
        rho=1,
        dim_n=dim,
        minus_k=(c,),
        nef_facets=((1,),),
        chambers=(chamber,),
    )
