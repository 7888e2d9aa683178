"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Every expected value is exact; the only tolerances are the stated wall-time
caps and the 20% window of the lattice-growth check.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from freecurves.counting import (
    CountingConfig,
    EpsPower,
    count_N,
    count_N_liberated,
    ratio_check,
)
from freecurves.modelio import fixture_path, load_model_file
from freecurves.nodal import (
    NodalType,
    admissible_smoothings,
    degbd,
    degbd_m1_closed_form,
    parse_nodal_type,
    sharpness_witness,
)
from freecurves.splitting import (
    SplittingType,
    balance_width,
    minimal_slope_ratio,
    most_balanced,
    specializes_to,
)
from freecurves.stability import balance, balance_step
from freecurves.variety import esp, pbundle

from helpers import (
    nonincreasing_sequences,
    sequential_zero_slope_types,
    slice_classes,
    tensor,
)


def passed(number, detail):
    print(f"PASS criterion {number}: {detail}")


def random_nodal(rng, max_rank, span):
    rank = rng.randint(1, max_rank)
    return NodalType(
        (rng.randint(-span, span), rng.randint(-span, span)) for _ in range(rank)
    )


def test_c01_degbd_closed_form_oracle():
    rng = random.Random(2024)
    start = time.monotonic()
    for _ in range(1000):
        z = random_nodal(rng, max_rank=8, span=5)
        assert degbd_m1_closed_form(z) == degbd(z, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    passed(1, f"1000 random degree bounds match the closed form ({elapsed:.2f}s)")


def test_c02_blowup_fixture():
    z = parse_nodal_type("2/-1,-1/2")
    assert degbd(z, 1) == 0
    smoothings = admissible_smoothings(z)
    assert smoothings == [SplittingType([2, 0]), SplittingType([1, 1])]
    assert SplittingType([2, 0]) in smoothings
    passed(2, "blow-up fixture: degbd 0 and smoothings {(2,0),(1,1)}")


def test_c03_grassmannian_family():
    for a in range(11):
        square = tensor(SplittingType([a + 1, a]), SplittingType([a + 1, a]))
        assert square == SplittingType([2 * a + 2, 2 * a + 1, 2 * a + 1, 2 * a])
        assert minimal_slope_ratio(square) == Fraction(2 * a, 2 * a + 1)
    passed(3, "tensor squares and minimal slope ratios for a = 0..10")


def test_c04_sharpness_witness_equality():
    rng = random.Random(451)
    cases = 0
    for _ in range(500):
        z = random_nodal(rng, max_rank=6, span=3)
        for m in range(1, z.rank + 1):
            witness = sharpness_witness(z, m)
            assert witness.total == degbd(z, m)
            assert sum(block.value for block in witness.blocks) == witness.total
            cases += 1
    passed(4, f"witness totals equal degbd in {cases} (type, m) cases")


def test_c05_low_rank_balancing_converges():
    start = time.monotonic()
    checked = 0
    for rank in range(2, 6):
        cap = 1 if rank <= 4 else 2
        for t in sequential_zero_slope_types(rank):
            trace = balance(t)
            assert trace.converged
            assert trace.steps <= cap, (t, trace.states)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    passed(5, f"{checked} sequential slope-0 types balance in time ({elapsed:.2f}s)")


def test_c06_specialization_order_laws():
    for rank in range(1, 5):
        by_degree = {}
        for seq in nonincreasing_sequences(rank, -3, 3):
            by_degree.setdefault(sum(seq), []).append(SplittingType(seq))
        for degree, cls in by_degree.items():
            for t in cls:
                assert specializes_to(t, t)
            for a, b in combinations(cls, 2):
                assert not (specializes_to(a, b) and specializes_to(b, a))
            for a in cls:
                below = [b for b in cls if specializes_to(a, b)]
                for b in below:
                    for c in cls:
                        if specializes_to(b, c):
                            assert specializes_to(a, c)
            top = most_balanced(rank, degree)
            assert top in cls
            assert all(specializes_to(top, t) for t in cls)
            for t in cls:
                if t != top:
                    assert not all(specializes_to(t, u) for u in cls)
    passed(6, "order laws and unique balanced maximum, rank <= 4, entries in [-3,3]")


def test_c07_expected_panel_fixture():
    model = pbundle(3, 2, [3, 0, 0])
    panel = esp(model, (1, 0))
    assert panel == (
        Fraction(3, 2),
        Fraction(3, 2),
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(2, 3),
    )
    assert sum(panel) == 5
    assert load_model_file(fixture_path("pbundle.json")).model == model
    passed(7, "projective-bundle panel (3/2,3/2,2/3,2/3,2/3) sums to 5")


def test_c08_counting_closed_forms():
    rho1 = load_model_file(fixture_path("toy_rho1.json"))
    assert count_N(rho1.model, rho1.counting, 3) == 14
    rho2 = load_model_file(fixture_path("toy_rho2.json"))
    assert count_N(rho2.model, rho2.counting, 2) == 16
    passed(8, "N = 14 at d=3 (rho 1) and N = 16 at d=2 (quadrant)")


def test_c09_lattice_growth():
    model = load_model_file(fixture_path("toy_rho2.json")).model
    start = time.monotonic()
    small = len(slice_classes(model, 40))
    large = len(slice_classes(model, 80))
    elapsed = time.monotonic() - start
    ratio = Fraction(large, small)
    assert abs(ratio - 4) <= Fraction(4, 5)
    assert elapsed < 10.0
    passed(9, f"slice doubling ratio {ratio} within 20% of 4 ({elapsed:.2f}s)")


def test_c10_liberated_ratio_threshold():
    model = load_model_file(fixture_path("toy_rho2.json")).model
    cfg = CountingConfig(
        q=2,
        br=1,
        m_cap=1,
        beta=(0, 0),
        outside_xi=1,
        eps=EpsPower(1, Fraction(1, 2)),
        delta=Fraction(1, 10),
    )
    start = time.monotonic()
    report = ratio_check(model, cfg, range(1, 61))
    elapsed = time.monotonic() - start
    assert report.d0 is not None
    assert report.d0 + 30 <= 60
    window = [row for row in report.rows if report.d0 <= row.d <= report.d0 + 30]
    assert len(window) == 31
    assert all(row.ratio > Fraction(9, 10) for row in window)
    assert elapsed < 60.0
    passed(10, f"ratios exceed 9/10 from d0 = {report.d0} onward ({elapsed:.2f}s)")


def test_c11_monotonicity_suite():
    for name in ("pbundle.json", "toy_rho1.json", "toy_rho2.json"):
        loaded = load_model_file(fixture_path(name))
        top = 6 if name == "pbundle.json" else 12
        for d in range(1, top + 1):
            lib = count_N_liberated(loaded.model, loaded.counting, d)
            assert lib <= count_N(loaded.model, loaded.counting, d)
    for rank in range(2, 6):
        for t in sequential_zero_slope_types(rank):
            assert balance_width(balance_step(t)) <= balance_width(t)
    passed(11, "liberated counts never exceed totals; balancing never widens")
