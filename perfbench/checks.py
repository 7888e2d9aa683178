"""Output oracles for the benchmark.

Every function here is independent of the package under test: degree
bounds come from a min-cost labeling DP, lattice counts and counting sums
from direct enumeration of the orthant fixtures, and CLI text is parsed
back into numbers.  A check returns None when the output passes and a short
message when it does not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from pathlib import Path


def degbd_dp(pairs, m: int) -> int:
    """Least labeled sum over disjoint J, K1, K2 with |J|+|K1| = |J|+|K2| = m.

    J costs a+b, K1 costs a+1, K2 costs b+1; the state is the pair of side
    counts, so the DP is O(rank * m^2).
    """
    best = {(0, 0): 0}
    for a, b in pairs:
        nxt = dict(best)
        for (c1, c2), v in best.items():
            moves = []
            if c1 < m and c2 < m:
                moves.append(((c1 + 1, c2 + 1), v + a + b))
            if c1 < m:
                moves.append(((c1 + 1, c2), v + a + 1))
            if c2 < m:
                moves.append(((c1, c2 + 1), v + b + 1))
            for key, val in moves:
                if key not in nxt or val < nxt[key]:
                    nxt[key] = val
        best = nxt
    return best[(m, m)]


def degbd_floors(pairs) -> list[int]:
    return [degbd_dp(pairs, m) for m in range(1, len(pairs) + 1)]


def check_degbd(pairs, m: int, value) -> str | None:
    want = degbd_dp(pairs, m)
    if value != want:
        return f"degbd {value} != DP {want}"
    return None


def check_smoothings(pairs, degree_lists, sequential: bool) -> str | None:
    """Each type has the rank and total degree of the nodal type, its m
    smallest entries sum to at least degbd(z, m), and the list is strictly
    lexicographically descending."""
    floors = degbd_floors(pairs)
    rank = len(pairs)
    total = sum(a + b for a, b in pairs)
    prev = None
    for degs in degree_lists:
        if len(degs) != rank or sum(degs) != total:
            return f"{degs}: wrong rank or degree"
        if any(x < y for x, y in zip(degs, degs[1:])):
            return f"{degs}: not non-increasing"
        if sequential and any(x - y > 1 for x, y in zip(degs, degs[1:])):
            return f"{degs}: not sequential"
        acc = 0
        for m, d in enumerate(reversed(degs), start=1):
            acc += d
            if acc < floors[m - 1]:
                return f"{degs}: {m} smallest sum {acc} < degbd {floors[m - 1]}"
        if prev is not None and not degs < prev:
            return f"{degs}: list not strictly descending"
        prev = degs
    return None


def check_witness(pairs, m: int, witness) -> str | None:
    want = degbd_dp(pairs, m)
    if witness.total != want:
        return f"witness total {witness.total} != DP {want}"
    used: list[int] = []
    sides = 0
    value = 0
    for blk in witness.blocks:
        used.extend(blk.indices)
        if blk.kind == "single":
            (i,) = blk.indices
            expect = pairs[i][0] + pairs[i][1]
            sides += 1
        elif blk.kind == "pair":
            i, ip = blk.indices
            expect = pairs[i][0] + pairs[ip][1] + 2
            sides += 1
            if witness.serre_ok and not (
                pairs[ip][0] >= pairs[i][0] + 2 and pairs[i][1] >= pairs[ip][1] + 2
            ):
                return f"pair block {blk.indices} flagged but fails the Serre test"
        else:
            return f"unknown block kind {blk.kind!r}"
        if blk.value != expect:
            return f"block {blk.indices} value {blk.value} != {expect}"
        value += blk.value
    if len(set(used)) != len(used):
        return "witness blocks overlap"
    if sides != m:
        return f"witness has {sides} blocks, expected {m}"
    if value != witness.total:
        return f"block values sum to {value}, total says {witness.total}"
    return None


# -- counting -------------------------------------------------------------


class OrthantFixture:
    """Counting data of a bundled fixture whose nef cone is the orthant,
    read straight from its JSON file."""

    def __init__(self, path: Path) -> None:
        data = json.loads(path.read_text(encoding="utf-8"))
        rho = data["rho"]
        identity = [[int(i == j) for j in range(rho)] for i in range(rho)]
        if data["nef"]["facets"] != identity:
            raise ValueError(f"{path.name}: nef cone is not the orthant")
        cnt = data["counting"]
        self.name = path.name
        self.dim = data["dim"]
        self.minus_k = tuple(data["minusK"])
        self.q = Fraction(cnt["q_num"], cnt["q_den"])
        self.br = cnt["br"]
        self.outside_xi = cnt["outside_xi"]
        self.beta = tuple(cnt["beta"])
        self._sums: dict[int, tuple[list[int], list[Fraction]]] = {}

    def degree_sums(self, bound: int) -> tuple[list[int], list[Fraction]]:
        """Per degree k in 0..bound: lattice point count and xi * q^k sum."""
        if bound not in self._sums:
            counts = [0] * (bound + 1)
            weights = [Fraction(0)] * (bound + 1)

            def rec(i: int, point: list[int], deg: int) -> None:
                if i == len(self.minus_k):
                    if deg > 0:
                        inside = all(x >= b for x, b in zip(point, self.beta))
                        xi = self.br if inside else self.outside_xi
                        counts[deg] += 1
                        weights[deg] += xi * self.q**deg
                    return
                c = self.minus_k[i]
                x = 0
                while deg + c * x <= bound:
                    point.append(x)
                    rec(i + 1, point, deg + c * x)
                    point.pop()
                    x += 1

            rec(0, [], 0)
            self._sums[bound] = (counts, weights)
        return self._sums[bound]

    @property
    def step(self) -> int:
        return gcd(*self.minus_k)


def check_rows(fixture: OrthantFixture, rows, dmax: int) -> str | None:
    """Rows are (d, points, liberated, N, N_lib, ratio) for d = 1..dmax;
    points and N must match direct enumeration, and the ratio N_lib / N."""
    if [r[0] for r in rows] != list(range(1, dmax + 1)):
        return f"rows do not cover d = 1..{dmax}"
    counts, weights = fixture.degree_sums(dmax * fixture.step)
    points = 0
    total = Fraction(0)
    k = 0
    for d, npts, nlib, n_value, n_lib, ratio in rows:
        while k < d * fixture.step:
            k += 1
            points += counts[k]
            total += weights[k]
        if npts != points:
            return f"d={d}: {npts} points, enumeration gives {points}"
        if n_value != total:
            return f"d={d}: N={n_value}, enumeration gives {total}"
        if not 0 <= nlib <= npts or not 0 <= n_lib <= n_value:
            return f"d={d}: liberated part exceeds the whole"
        want = n_lib / n_value if n_value > 0 else None
        if ratio != want:
            return f"d={d}: ratio {ratio} != N_lib / N = {want}"
    return None


def parse_tsv(text: str):
    """Rows and the d0 line (None if absent) of ``count``/``check`` output."""
    rows = []
    d0 = None
    for line in text.splitlines():
        if line.startswith("# d0: "):
            d0 = line[len("# d0: ") :]
            continue
        if line.startswith("#") or line.startswith("d\t"):
            continue
        d, npts, nlib, n_value, n_lib, ratio = line.split("\t")
        rows.append(
            (
                int(d),
                int(npts),
                int(nlib),
                Fraction(n_value),
                Fraction(n_lib),
                None if ratio == "-" else Fraction(ratio),
            )
        )
    return rows, d0


# -- CLI text -------------------------------------------------------------


def check_sp(degrees, text: str) -> str | None:
    panel_part, _, ratio_part = text.strip().partition("  min_ratio: ")
    entries = [Fraction(e) for e in panel_part[len("panel: ") :].split(",")]
    total = sum(degrees)
    mu = Fraction(total, len(degrees))
    want = sorted((Fraction(a) / mu for a in degrees), reverse=mu > 0)
    if entries != want:
        return f"panel {entries} != {want}"
    if mu > 0:
        if Fraction(ratio_part) != min(entries):
            return f"min_ratio {ratio_part} != {min(entries)}"
    elif ratio_part != "n/a":
        return f"min_ratio {ratio_part} for non-positive slope"
    return None


def glued_pairs(t1, t2, perm) -> list[tuple[int, int]]:
    """Pairs of a glued nodal type in canonical order; ``perm`` is 0-based."""
    d1 = sorted(t1, reverse=True)
    d2 = sorted(t2, reverse=True)
    pairs = [(d1[i], d2[perm[i]]) for i in range(len(d1))]
    return sorted(pairs, key=lambda p: (p[0] + p[1], p[0]), reverse=True)


def parse_pairs(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.strip().split(","):
        a, _, b = chunk.partition("/")
        out.append((int(a), int(b)))
    return out


def check_esp(fixture: OrthantFixture, cls, text: str) -> str | None:
    fields = dict(line.split(": ", 1) for line in text.strip().splitlines())
    entries = [Fraction(e) for e in fields["esp"].split(",")]
    deg = sum(c * x for c, x in zip(fixture.minus_k, cls))
    if Fraction(fields["degree"]) != deg:
        return f"degree {fields['degree']} != {deg}"
    if sum(entries) != fixture.dim or len(entries) != fixture.dim:
        return f"panel {entries} does not sum to dim {fixture.dim}"
    if Fraction(fields["min_entry"]) != min(entries):
        return f"min_entry {fields['min_entry']} != {min(entries)}"
    bound = min(entries) - Fraction(fixture.dim * fixture.dim, 2 * deg)
    if Fraction(fields["liberated_bound"]) != bound:
        return f"liberated_bound {fields['liberated_bound']} != {bound}"
    return None


def check_balance(degrees, text: str) -> str | None:
    lines = text.strip().splitlines()
    states = [
        tuple(int(x) for x in line.split(": ", 1)[1].split(","))
        for line in lines
        if line.startswith("state ")
    ]
    fields = dict(line.split(": ", 1) for line in lines if not line.startswith("state "))
    start = tuple(sorted(degrees, reverse=True))
    if not states or states[0] != start:
        return f"first state {states[:1]} != input {start}"
    steps = int(fields["steps"])
    if steps != len(states) - 1 or int(fields["copies"]) != 2**steps:
        return "steps or copies inconsistent with the states"
    for k, s in enumerate(states):
        # each step glues two copies, so the total degree doubles
        if len(s) != len(start) or sum(s) != sum(start) * 2**k:
            return f"state {k}: {s} has the wrong rank or degree"
        if any(x - y > 1 for x, y in zip(s, s[1:])):
            return f"state {s} is not sequential"
    if fields["converged"] != "true" or states[-1][0] != states[-1][-1]:
        return "balancing did not reach width zero"
    return None
