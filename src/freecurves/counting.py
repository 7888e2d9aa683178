"""Lattice-point counting in the nef cone and the liberated counting ratio.

The counting function sums xi(alpha) * q^degree(alpha) over nef lattice
classes of bounded anticanonical degree, where xi takes one value on a
translate of the nef cone and another outside it.  The liberated variant
keeps only classes whose certified minimal-slope-ratio bound beats a
decreasing threshold schedule; the ratio report locates the degree beyond
which the liberated count stays above the 1 - delta fraction.

``ratio_check`` is the one summation core: ``count_N`` and
``count_N_liberated`` are its N and N_lib columns at a single d.  It walks
the fibres of the largest slice (``VarietyModel._fibres``: the leading
coordinates over the slice's bounding box, the last coordinate t over its
exact range, in lexicographic order) and classifies each class once, in
ints only: its degree, its xi, its certified bound as an integer pair, the
index of the first tested d whose slice holds it, and the index of the first
d from there whose threshold admits its bound.  The walk hands each fibre
the values of the model's functional table at its prefix, and the degree
and the xi translate are read from them: along a fibre the degree and the
facet values are affine in t, so the xi translate is one t-interval, and
``VarietyModel._runs``, the model's one chamber rule, splits the fibre
into runs whose piece slope numerators are b0 + s * t; every class takes
the least of them.  The runs raise NoChamber or BoundaryMismatch at
the first class, in lexicographic order, that no chamber holds or on which
holders disagree.  Each schedule builds the admission lookup once per call
(``first_admitting``); it needs admission monotone in d: c * d^(-p) falls
as d grows, and table values do not increase from a first degree <= 1.

What is set up once, when the model is built: the degree step (the gcd of
minus_k, read by ``r_min``; degrees are multiples of it), the slope
denominator, the nef cuts and the functional table the walk reads.  What
a call sets up, in O(largest d) before the walk: the tested degrees (a
``range`` of positive step is read as it is, any other iterable is
checked, deduplicated and sorted), the admission lookup, and per degree
step * k up to top the index of the first tested d whose slice holds it
(the count of tested d below it, one running sum) and, in one loop, the
class weight xi * q^degree over the common denominator q_den^top, for xi
on the translate and off it, each power from the one before by one
multiply and one exact division.  Each class is then tallied straight
into its report row: its count and weight are added at its entry index
and at its first admitting index, so no class is keyed, bisected or
stored.  Fractions are built only for the N, N_lib and ratio fields of a
row, and only where a row's sums differ from the previous row's: a row
whose weight sum is unchanged shares its N, one whose liberated weight
sum is unchanged its N_lib, and one with both its ratio.  Over
q_den^top = 1 an N is built without a gcd, and every zero ratio is the
one module-level ``ZERO``.  Rows are running sums, and ``d0`` compares
them with 1 - delta by cross-multiplying the integer sums.

Degree exponents use the class degree itself; a dimension-shift convention
would rescale every sum by the same power of q and leave all ratios
unchanged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import lcm

from .errors import (
    DomainError,
    Value,
    ZeroFunctional,
    exact_fraction,
    exact_int,
)
from .variety import VarietyModel, _clip, dot

__all__ = [
    "MAX_EXPONENT_TERM",
    "MAX_COEFFICIENT_TERM",
    "EpsPower",
    "EpsTable",
    "CountingConfig",
    "CountRow",
    "CountReport",
    "r_min",
    "count_N",
    "count_N_liberated",
    "ratio_check",
]


# The largest numerator or denominator of an ``EpsPower`` exponent.  Each
# comparison raises the bound and c to p's denominator and d to its
# numerator, so the cost of a test grows with them: at p = 1/10^5 a check on
# toy_rho1 up to d = 20 took about a second, against a millisecond at 1/10^3.
MAX_EXPONENT_TERM = 1000
# The largest numerator or denominator of an ``EpsPower`` coefficient c,
# which each comparison raises to p's denominator: on toy_rho1 up to d = 20
# at p = 1/1000 a check took 0.0017 s for a 1-digit c and 1.39 s for a
# 1,000-digit one.
MAX_COEFFICIENT_TERM = 10**6

# The one zero that ``ratio_check`` rows share.
ZERO = Fraction(0)


class EpsPower(Value):
    """Threshold schedule c * d^(-p); comparisons are done exactly by
    clearing the fractional exponent, so the irrational value itself is
    never materialized.  A p whose numerator or denominator exceeds
    ``MAX_EXPONENT_TERM``, or a c whose numerator or denominator exceeds
    ``MAX_COEFFICIENT_TERM``, is refused with ValueError."""

    c: Fraction
    p: Fraction

    def __init__(self, c, p) -> None:
        c = exact_fraction(c, "c")
        p = exact_fraction(p, "p")
        if c <= 0 or p <= 0:
            raise ValueError("power schedule needs c > 0 and p > 0")
        if max(p.numerator, p.denominator) > MAX_EXPONENT_TERM:
            raise ValueError(
                f"power schedule exponent {p} has a term above {MAX_EXPONENT_TERM}"
            )
        if max(c.numerator, c.denominator) > MAX_COEFFICIENT_TERM:
            # c itself is left out of the message, which it could make long
            raise ValueError(
                f"power schedule coefficient has a term above {MAX_COEFFICIENT_TERM}"
            )
        super().__init__(c, p)

    def admits(self, bound: Fraction, d: int) -> bool:
        """Exact test of bound > c * d^(-p)."""
        bound, d = exact_fraction(bound, "bound"), exact_int(d, "d")
        if bound <= 0:
            return False
        pd = self.p.denominator
        pn = self.p.numerator
        return bound**pd * d**pn > self.c**pd

    def first_admitting(self, ds):
        """Lookup for the sorted positive degrees ``ds``: ``first(num, den,
        lo)`` is the index of the first d in ``ds[lo:]`` that admits the bound
        num / den (den > 0), or len(ds) when none does."""
        pn, pd = self.p.numerator, self.p.denominator
        powers = [d**pn for d in ds]
        c_num, c_den = self.c.numerator**pd, self.c.denominator**pd
        never = len(ds)

        def first(num: int, den: int, lo: int) -> int:
            if num <= 0:
                return never
            # (num / den)^pd * d^pn > c^pd  <=>  the integer d^pn exceeds the
            # floor of c^pd den^pd / num^pd
            return bisect_right(powers, c_num * den**pd // (num**pd * c_den), lo)

        return first


class EpsTable(Value):
    """Tabulated threshold schedule; the value at the largest tabulated
    degree at most d applies.  The first degree must be at most 1, so every
    counting degree has a value."""

    entries: tuple[tuple[int, Fraction], ...]

    def __init__(self, entries) -> None:
        es = tuple(
            (exact_int(d, "table degree"), exact_fraction(v, "table value"))
            for d, v in entries
        )
        if not es:
            raise ValueError("threshold table is empty")
        if es[0][0] > 1:
            raise ValueError(f"threshold table must start at d <= 1, got {es[0][0]}")
        if any(d2 <= d1 for (d1, _), (d2, _) in zip(es, es[1:])):
            raise ValueError("table degrees must strictly increase")
        if any(v <= 0 for _, v in es):
            raise ValueError("table values must be positive")
        if any(v2 > v1 for (_, v1), (_, v2) in zip(es, es[1:])):
            raise ValueError("table values must be non-increasing")
        super().__init__(es)

    def value_at(self, d: int) -> Fraction:
        d = exact_int(d, "d")
        if d < self.entries[0][0]:
            raise DomainError(f"threshold table starts at {self.entries[0][0]}, got {d}")
        val = self.entries[0][1]
        for dd, v in self.entries:
            if dd > d:
                break
            val = v
        return val

    def admits(self, bound: Fraction, d: int) -> bool:
        return exact_fraction(bound, "bound") > self.value_at(d)

    def first_admitting(self, ds):
        """Lookup for the sorted positive degrees ``ds``, as for
        ``EpsPower.first_admitting``."""
        values = [self.value_at(d) for d in ds]
        scale = lcm(*(v.denominator for v in values))
        # the values as integers over one denominator, negated so that they
        # do not decrease
        rising = [-v.numerator * (scale // v.denominator) for v in values]

        def first(num: int, den: int, lo: int) -> int:
            # num / den > v / scale  <=>  v <= (num * scale - 1) // den
            return bisect_left(rising, -((num * scale - 1) // den), lo)

        return first


class CountingConfig(Value):
    q: Fraction
    br: int
    m_cap: int
    beta: tuple[int, ...]
    outside_xi: int
    eps: EpsPower | EpsTable
    delta: Fraction

    def __init__(self, q, br, m_cap, beta, outside_xi, eps, delta) -> None:
        q = exact_fraction(q, "q")
        if q <= 1:
            raise ValueError("q must exceed 1")
        br = exact_int(br, "br")
        m_cap = exact_int(m_cap, "m_cap")
        outside_xi = exact_int(outside_xi, "outside_xi")
        if m_cap < 1:
            raise ValueError("the xi bound must be positive")
        if not 0 <= br <= m_cap:
            raise ValueError("br must lie in 0..m_cap")
        if not 0 <= outside_xi <= m_cap:
            raise ValueError("outside_xi must lie in 0..m_cap")
        delta = exact_fraction(delta, "delta")
        if not 0 < delta < 1:
            raise ValueError("delta must lie strictly between 0 and 1")
        if not isinstance(eps, (EpsPower, EpsTable)):
            raise ValueError(f"eps must be an EpsPower or an EpsTable, got {eps!r}")
        beta = tuple(exact_int(c, "beta entry") for c in beta)
        super().__init__(q, br, m_cap, beta, outside_xi, eps, delta)


def r_min(model: VarietyModel) -> int:
    """Minimal positive value of the anticanonical functional on the lattice."""
    if not model._degree_step:
        raise ZeroFunctional("anticanonical functional is zero")
    return model._degree_step


def count_N(model: VarietyModel, cfg: CountingConfig, d: int) -> Fraction:
    """Counting function at degree step d (exact): the N column of
    ``ratio_check``, so every class of the slice must lie in a chamber.  It
    stays as the single-d view because ``perfbench/workloads.py`` checks
    each report's sampled row against it."""
    return ratio_check(model, cfg, [d]).rows[0].n_value


def count_N_liberated(model: VarietyModel, cfg: CountingConfig, d: int) -> Fraction:
    """Counting function restricted to classes whose certified bound beats
    the threshold at d.  Classes whose bound fails to certify are dropped
    even if curves of that class happen to be liberated, so this is a
    conservative undercount.  The N_lib column of ``ratio_check`` at one d,
    kept as ``count_N`` is."""
    return ratio_check(model, cfg, [d]).rows[0].n_liberated


class CountRow(Value):
    d: int
    points: int
    liberated: int
    n_value: Fraction
    n_liberated: Fraction
    ratio: Fraction | None

    @classmethod
    def _of(cls, d, points, liberated, n_value, n_liberated, ratio) -> "CountRow":
        """The row of these fields, set as they are, without the argument
        count check of ``Value.__init__``.  For ``ratio_check``."""
        row = object.__new__(cls)
        row.__dict__.update(
            d=d,
            points=points,
            liberated=liberated,
            n_value=n_value,
            n_liberated=n_liberated,
            ratio=ratio,
        )
        return row


class CountReport(Value):
    rows: tuple[CountRow, ...]
    d0: int | None

    def render_tsv(self) -> str:
        lines = [
            "# N sums xi(alpha) * q^degree over nef lattice classes with"
            " 0 < degree <= d * step",
            "d\tpoints\tliberated\tN\tN_lib\tratio",
        ]
        for row in self.rows:
            ratio = "-" if row.ratio is None else str(row.ratio)
            lines.append(
                f"{row.d}\t{row.points}\t{row.liberated}\t"
                f"{row.n_value}\t{row.n_liberated}\t{ratio}"
            )
        return "\n".join(lines) + "\n"


def ratio_check(model: VarietyModel, cfg: CountingConfig, d_values) -> CountReport:
    """Tabulate N, its liberated restriction, and their ratio per degree.

    ``d0`` is the smallest tested d from which every later tested ratio
    exceeds 1 - delta (rows with N = 0 never qualify); None when no suffix
    works.
    """
    # a range of positive step is sorted, duplicate-free and all ints
    if type(d_values) is range and d_values.step > 0:
        ds = d_values
    else:
        ds = sorted({exact_int(d, "d value") for d in d_values})
    if not ds or ds[0] < 1:
        raise ValueError("d values must be positive")
    if len(cfg.beta) != model.rho:
        raise ValueError(
            f"translate length {len(cfg.beta)} does not match lattice rank {model.rho}"
        )
    step = r_min(model)
    top = ds[-1] * step
    first_lib = cfg.eps.first_admitting(ds)
    n, sden = model.dim_n, model.slope_den
    # the certified bound (2 n b - n^2 D) / (2 D step k) of a class whose
    # least piece slope is b / D
    two_n, n_n_sden, bound_den = 2 * n, n * n * sden, 2 * sden * step
    # every entry of minus_k is a multiple of step, so a class's degree is
    # step * k with k = k0 + k_last * t along a fibre, k0 read from the
    # walk's value of the degree head
    degree, k_last = model._degree, model.minus_k[-1] // step
    # xi is br on the beta-translate of the nef cone, the outside value
    # elsewhere: alpha - beta is nef when <f, alpha> >= <f, beta> for every f
    xi_cuts = [
        (i, last, dot(f, cfg.beta))
        for (i, last, _), f in zip(model._nef_cuts, model.nef_facets)
    ]
    # per k in 0..ds[-1], set up once: the index of the first d whose slice
    # holds the degree step * k, which is the count of tested d below k (a
    # running sum over a list that marks d + 1 for each d but the last),
    # and the weight of a class of that degree times q_den^top, on the
    # translate and outside it.  The power q_num^deg * q_den^(top - deg) of
    # each degree is the one before it times q_num^step over q_den^step
    below = [0] * (ds[-1] + 1)
    for d in ds[:-1]:
        below[d + 1] = 1
    enter_at = list(accumulate(below))
    br, outside_xi = cfg.br, cfg.outside_xi
    q_num, q_den = cfg.q.numerator, cfg.q.denominator
    rise, fall = q_num**step, q_den**step
    power = scale = q_den**top
    inside_weight, outside_weight = [br * power], [outside_xi * power]
    for _ in range(ds[-1]):
        power = power * rise // fall
        inside_weight.append(br * power)
        outside_weight.append(outside_xi * power)
    # per index of ds, each class is added straight in: its count and weight
    # at the index where it enters the slice, and at the index where it is
    # first certified; the index len(ds) holds the never-certified
    new_points = [0] * len(ds)
    new_weight = [0] * len(ds)
    new_lib = [0] * (len(ds) + 1)
    new_lib_weight = [0] * (len(ds) + 1)
    for prefix, values, lo, hi in model._fibres(top):
        # along the fibre the translate is one t-interval, and the model's
        # chamber rule splits the fibre into runs whose piece numerators are
        # b0 + s * t
        k0 = values[degree] // step
        in_lo, in_hi = _clip(xi_cuts, values, lo, hi)
        for start, stop, lines in model._runs(prefix, values, lo, hi):
            (_, b0, s0), *others = lines
            for t in range(start, stop):
                k = k0 + k_last * t
                least = b0 + s0 * t
                for _, b, s in others:
                    if b + s * t < least:
                        least = b + s * t
                num, den = two_n * least - n_n_sden, bound_den * k
                enter = enter_at[k]
                lib = first_lib(num, den, enter)
                weight = (inside_weight if in_lo <= t <= in_hi else outside_weight)[k]
                new_points[enter] += 1
                new_weight[enter] += weight
                new_lib[lib] += 1
                new_lib_weight[lib] += weight

    # rows are running sums; a row shares the previous row's N when its
    # weight sum is unchanged, its N_lib when its liberated weight sum is,
    # and its ratio when both are.  Over a denominator of 1 a sum is in
    # lowest terms already, and every zero ratio is the one ZERO
    over = Fraction if scale == 1 else partial(Fraction, denominator=scale)
    buckets = (new_points, new_lib, new_weight, new_lib_weight)
    sums = list(zip(*map(accumulate, buckets)))
    rows = []
    last_weight = last_lib_weight = None
    for d, (npts, nlib, weight, lib_weight) in zip(ds, sums):
        if weight != last_weight:
            n_value = over(weight)
        if lib_weight != last_lib_weight:
            n_lib = over(lib_weight)
        if weight != last_weight or lib_weight != last_lib_weight:
            if not weight:
                ratio = None
            elif lib_weight:
                ratio = Fraction(lib_weight, weight)
            else:
                ratio = ZERO
        last_weight, last_lib_weight = weight, lib_weight
        rows.append(CountRow._of(d, npts, nlib, n_value, n_lib, ratio))

    # ratio > 1 - delta, cross-multiplied over the integer running sums
    dn, dd = cfg.delta.numerator, cfg.delta.denominator
    d0 = None
    for d, (_, _, weight, lib_weight) in zip(reversed(ds), reversed(sums)):
        if weight > 0 and lib_weight * dd > weight * (dd - dn):
            d0 = d
        else:
            break
    return CountReport(tuple(rows), d0)
