"""Exhaustive enumerators and brute-force oracles shared by the test modules."""

from fractions import Fraction

from freecurves.counting import lattice_slice, r_min, xi_value
from freecurves.splitting import SplittingType, is_sequential
from freecurves.variety import liberated_lower_bound


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
    """All splitting types of fixed rank and total degree, entries in [lo, hi]."""
    return [
        SplittingType(seq)
        for seq in nonincreasing_sequences(rank, lo, hi)
        if sum(seq) == degree
    ]


def sequential_zero_slope_types(rank):
    """All sequential splitting types of the given rank with total degree 0.

    Sequentiality plus zero sum bounds every entry by the rank, so the
    enumeration below is exhaustive.
    """
    candidates = [
        SplittingType(seq)
        for seq in nonincreasing_sequences(rank, -rank, rank)
        if sum(seq) == 0
    ]
    return [t for t in candidates if is_sequential(t)]


def direct_counts(model, cfg, d):
    """Brute-force row of the ratio report at one d: (points, liberated, N,
    N_lib), testing every class of the slice against the threshold at d."""
    points = liberated = 0
    n_value = n_lib = Fraction(0)
    for alpha in lattice_slice(model, d * r_min(model)):
        weight = xi_value(model, cfg, alpha) * cfg.q ** int(model.degree(alpha))
        points += 1
        n_value += weight
        if cfg.eps.admits(liberated_lower_bound(model, alpha), d):
            liberated += 1
            n_lib += weight
    return points, liberated, n_value, n_lib
