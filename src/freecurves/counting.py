"""Lattice-point counting in the nef cone and the liberated counting ratio.

The counting function sums xi(alpha) * q^degree(alpha) over nef lattice
classes of bounded anticanonical degree, where xi takes one value on a
translate of the nef cone and another outside it.  The liberated variant
keeps only classes whose certified minimal-slope-ratio bound beats a
decreasing threshold schedule; the ratio report locates the degree beyond
which the liberated count stays above the 1 - delta fraction.

``ratio_check`` is the one summation core: ``count_N`` and
``count_N_liberated`` are its N and N_lib columns at a single d.  It
classifies each class of the largest slice once and bisects the sorted
degrees twice: for the first d whose slice holds the class, and for the
first d from there whose threshold admits its bound.  The latter
needs admission monotone in d: c * d^(-p) falls as d grows, and table values
do not increase from a first degree <= 1.  Rows are running sums.

Degree exponents use the class degree itself; a dimension-shift convention
would rescale every sum by the same power of q and leave all ratios
unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, product
from math import ceil, floor, gcd

from .errors import (
    DomainError,
    UnboundedSlice,
    ZeroFunctional,
    exact_fraction,
    exact_int,
)
from .variety import VarietyModel, cone_rays, dot, in_nef, liberated_lower_bound

__all__ = [
    "EpsPower",
    "EpsTable",
    "CountingConfig",
    "CountRow",
    "CountReport",
    "r_min",
    "lattice_slice",
    "count_N",
    "count_N_liberated",
    "ratio_check",
]


@dataclass(frozen=True)
class EpsPower:
    """Threshold schedule c * d^(-p); comparisons are done exactly by
    clearing the fractional exponent, so the irrational value itself is
    never materialized."""

    c: Fraction
    p: Fraction

    def __init__(self, c, p) -> None:
        c = exact_fraction(c, "c")
        p = exact_fraction(p, "p")
        if c <= 0 or p <= 0:
            raise ValueError("power schedule needs c > 0 and p > 0")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "p", p)

    def admits(self, bound: Fraction, d: int) -> bool:
        """Exact test of bound > c * d^(-p)."""
        if bound <= 0:
            return False
        pd = self.p.denominator
        pn = self.p.numerator
        return bound**pd * d**pn > self.c**pd


@dataclass(frozen=True)
class EpsTable:
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
        object.__setattr__(self, "entries", es)

    def value_at(self, d: int) -> Fraction:
        if d < self.entries[0][0]:
            raise DomainError(f"threshold table starts at {self.entries[0][0]}, got {d}")
        val = self.entries[0][1]
        for dd, v in self.entries:
            if dd > d:
                break
            val = v
        return val

    def admits(self, bound: Fraction, d: int) -> bool:
        return bound > self.value_at(d)


@dataclass(frozen=True)
class CountingConfig:
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
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "br", br)
        object.__setattr__(self, "m_cap", m_cap)
        object.__setattr__(
            self, "beta", tuple(exact_int(c, "beta entry") for c in beta)
        )
        object.__setattr__(self, "outside_xi", outside_xi)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)


def r_min(model: VarietyModel) -> int:
    """Minimal positive value of the anticanonical functional on the lattice."""
    if all(c == 0 for c in model.minus_k):
        raise ZeroFunctional("anticanonical functional is zero")
    return gcd(*(abs(c) for c in model.minus_k))


def _positive_rays(model: VarietyModel) -> list[tuple[int, ...]]:
    try:
        rays = cone_rays(model.nef_facets, model.rho)
    except ValueError as exc:
        raise UnboundedSlice(str(exc)) from exc
    for ray in rays:
        if model.degree(ray) <= 0:
            raise UnboundedSlice(
                f"anticanonical degree not positive on nef ray {ray}"
            )
    return rays


def lattice_slice(model: VarietyModel, bound: int) -> list[tuple[int, ...]]:
    """Nef lattice classes with 0 < degree <= bound, lexicographically sorted.

    The slice polytope is the convex hull of the origin and the scaled rays
    (bound / ray degree) * ray, so its bounding box comes straight from the
    rays; the box points are then filtered by the facet and degree cuts.
    """
    bound = exact_int(bound, "slice bound")
    if bound < 1:
        raise ValueError("slice bound must be positive")
    rays = _positive_rays(model)
    if not rays:
        return []
    corners = [(0,) * model.rho] + [
        tuple(Fraction(bound * c, model.degree(ray)) for c in ray) for ray in rays
    ]
    box = [range(floor(min(col)), ceil(max(col)) + 1) for col in zip(*corners)]
    return [
        pt
        for pt in product(*box)
        if in_nef(model, pt) and 0 < model.degree(pt) <= bound
    ]


def count_N(model: VarietyModel, cfg: CountingConfig, d: int) -> Fraction:
    """Counting function at degree step d (exact): the N column of
    ``ratio_check``, so every class of the slice must lie in a chamber."""
    return ratio_check(model, cfg, [d]).rows[0].n_value


def count_N_liberated(model: VarietyModel, cfg: CountingConfig, d: int) -> Fraction:
    """Counting function restricted to classes whose certified bound beats
    the threshold at d.  Classes whose bound fails to certify are dropped
    even if curves of that class happen to be liberated, so this is a
    conservative undercount."""
    return ratio_check(model, cfg, [d]).rows[0].n_liberated


@dataclass(frozen=True)
class CountRow:
    d: int
    points: int
    liberated: int
    n_value: Fraction
    n_liberated: Fraction
    ratio: Fraction | None


@dataclass(frozen=True)
class CountReport:
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
    ds = sorted({exact_int(d, "d value") for d in d_values})
    if not ds or ds[0] < 1:
        raise ValueError("d values must be positive")
    if len(cfg.beta) != model.rho:
        raise ValueError(
            f"translate length {len(cfg.beta)} does not match lattice rank {model.rho}"
        )
    # xi is br on the beta-translate of the nef cone, the outside value
    # elsewhere: alpha - beta is nef when <f, alpha> >= <f, beta> for every f
    facet_floors = [(f, dot(f, cfg.beta)) for f in model.nef_facets]
    step = r_min(model)
    admits = cfg.eps.admits
    # Buckets per index of ds: classes entering the slice there, and classes
    # first certified there; the extra last slot holds the never-certified.
    new_points = [0] * len(ds)
    new_weight = [Fraction(0)] * len(ds)
    new_lib = [0] * (len(ds) + 1)
    new_lib_weight = [Fraction(0)] * (len(ds) + 1)
    for alpha in lattice_slice(model, ds[-1] * step):
        deg = model.degree(alpha)
        inside = all(dot(f, alpha) >= fb for f, fb in facet_floors)
        weight = (cfg.br if inside else cfg.outside_xi) * cfg.q**deg
        bound = liberated_lower_bound(model, alpha)
        # degrees are multiples of step, so deg // step is the entry degree
        enter = bisect_left(ds, deg // step)
        lib = bisect_left(ds, True, lo=enter, key=partial(admits, bound))
        new_points[enter] += 1
        new_weight[enter] += weight
        new_lib[lib] += 1
        new_lib_weight[lib] += weight

    buckets = (new_points, new_lib, new_weight, new_lib_weight)
    rows = [
        CountRow(d, npts, nlib, n_val, n_lib, n_lib / n_val if n_val > 0 else None)
        for d, (npts, nlib, n_val, n_lib) in zip(ds, zip(*map(accumulate, buckets)))
    ]

    threshold = 1 - cfg.delta
    d0 = None
    for row in reversed(rows):
        if row.ratio is not None and row.ratio > threshold:
            d0 = row.d
        else:
            break
    return CountReport(tuple(rows), d0)
