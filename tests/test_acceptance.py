"""Acceptance gate: ten end-to-end criteria, one test (and one line) each.

Each test is self-contained and certifies its claim with exact arithmetic or
enclosure comparisons; tolerances are stated inline.
"""

import random
from fractions import Fraction
from math import gcd, isqrt, log

from staircase.analysis import (
    irrational_probe,
    rational_left_quotients,
    rational_right_quotients,
    zero_plus_quotients,
)
from staircase.beta import (
    BetaHandle,
    extremal_orbit_check,
    greedy_digits,
    near_one_root,
)
from staircase.delta import (
    delta_irrational,
    delta_rational,
    delta_right_limit,
    jump,
    right_limit_word,
)
from staircase.diophantine import (
    ContinuedFraction,
    classify,
    lookup_preset,
    targeted_theta_cf,
    theta_estimate,
    theta_from_samples,
)

LOOSE = Fraction(1, 2 ** 24)


def reduced_fractions(q_max):
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def test_criterion_01_roundtrip_expansion():
    """b z b words round-trip through the greedy algorithm, orbit dies at q."""
    count = 0
    for p, q in reduced_fractions(50):
        for b in (1, 2, 3):
            alpha = Fraction(b - 1) + Fraction(p, q)
            d = delta_rational(alpha, tol=LOOSE)
            digits, terminated = greedy_digits(d.handle, q + 2)
            assert terminated, alpha
            assert digits == d.word and len(digits) == q, alpha
            count += 1
    assert count == 3 * sum(1 for _ in reduced_fractions(50))
    print(f"criterion 1 PASS: {count} exact greedy round-trips, q <= 50")


def test_criterion_02_closed_forms():
    """Quadratic values at slope 1/2 and at the integer right limits."""
    tol = Fraction(1, 10 ** 21)
    e = delta_rational(Fraction(1, 2), tol).enclosure
    assert e.width <= Fraction(1, 10 ** 20)
    assert e.lo ** 2 - e.lo - 1 < 0 < e.hi ** 2 - e.hi - 1  # golden ratio
    for b in (1, 2, 3):
        e = delta_right_limit(Fraction(b), tol).enclosure
        assert e.width <= Fraction(1, 10 ** 20)
        # larger root of x^2 - (b+2)x + 1, i.e. (b+2+sqrt(b^2+4b))/2
        assert e.lo ** 2 - (b + 2) * e.lo + 1 < 0 < e.hi ** 2 - (b + 2) * e.hi + 1
    print("criterion 2 PASS: quadratic closed forms certified to width 1e-20")


def test_criterion_03_strict_monotonicity():
    """Farey fractions with denominator <= 100 give separated enclosures."""
    grid = sorted({Fraction(p, q) for q in range(1, 101) for p in range(1, q + 1)})
    prev = delta_rational(Fraction(0))
    for x in grid:
        d = delta_rational(x, tol=LOOSE)
        t = LOOSE
        while d.enclosure.lo <= prev.enclosure.hi:
            t /= 2 ** 8
            d.refine(t)
            prev.refine(t)
            assert t > Fraction(1, 10 ** 80), f"cannot separate at {x}"
        prev = d
    print(f"criterion 3 PASS: {len(grid)} staircase values strictly ordered")


def test_criterion_04_jump_and_upper_expansion():
    """Positive jumps and the eventually periodic expansion at the right limit."""
    for p, q in reduced_fractions(40):
        alpha = Fraction(p, q)
        assert jump(alpha).certify_positive().lo > 0
        w = right_limit_word(alpha)
        h = BetaHandle.from_periodic_word(w, LOOSE)
        n = len(w.pre) + 3 * len(w.per)
        digits, terminated = greedy_digits(h, n)
        assert not terminated and digits == w.prefix(n), alpha
    print("criterion 4 PASS: jumps positive and periodic expansions match, q <= 40")


def test_criterion_05_sturmian_evaluation():
    """Golden slope: tight enclosure, nested truncations, exact digit prefix."""
    d = delta_irrational(ContinuedFraction.constant(0, 1, name="golden"))
    enc = d.refine(Fraction(1, 10 ** 12))
    assert enc.width <= Fraction(1, 10 ** 12)
    hist = d.handle.history
    assert len(hist) >= 2
    for (m1, e1), (m2, e2) in zip(hist, hist[1:]):
        assert m2 > m1 and e2.lo >= e1.lo and e2.hi <= e1.hi
    # digit prefix against the floor formula for alpha = (sqrt5 - 1)/2,
    # evaluated exactly with integer square roots
    floors = [(isqrt(5 * k * k) - k) // 2 for k in range(102)]
    want = (1,) + tuple(floors[k + 1] - floors[k] for k in range(1, 100))
    got = tuple(d.stream.digit(n) for n in range(1, 101))
    assert got == want
    print("criterion 5 PASS: golden slope certified to 1e-12 with exact word prefix")


def test_criterion_06_extremal_band():
    """Orbit points of the expansion of 1 stay strictly inside [1 - 1/beta, 1)."""
    rng = random.Random(20260826)
    slopes = set()
    while len(slopes) < 29:
        q = rng.randrange(2, 30)
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            slopes.add(Fraction(rng.randrange(0, 3)) + Fraction(p, q))
    slopes = sorted(slopes) + [Fraction(1, 2)]
    for alpha in slopes:
        d = delta_rational(alpha, tol=LOOSE)
        pts = extremal_orbit_check(d.handle, alpha.denominator + 1)
        assert pts[-1].verdict == "zero" and pts[-1].k == alpha.denominator
        # every pre-terminal point is strictly interior; in particular at the
        # golden slope 1/2 the single orbit point 1/beta is interior, not a
        # band endpoint
        assert all(p.verdict == "interior" for p in pts[:-1]), alpha
    print("criterion 6 PASS: 30 orbits confined to the open extremal band")


def test_criterion_07_theta_reproduction():
    """Sample and CF constructions reproduce their designed theta values."""
    est = theta_from_samples(lookup_preset("alpha4").samples(4))
    lo, hi = est.headline
    assert abs(lo - log(10)) < 1e-6 and abs(hi - log(10)) < 1e-6
    for beta in (2, 3, 10):
        est = theta_estimate(targeted_theta_cf(Fraction(beta)), 7)
        _, lo, hi = est.running[-1]
        assert abs(lo - log(beta)) < 1e-3 and abs(hi - log(beta)) < 1e-3
    est = theta_estimate(lookup_preset("alpha3").cf, 3)
    assert est.running, "no computable window"
    for _, lo, hi in est.running[1:]:
        assert log(2.9221) < lo <= hi < log(7.9433)
    print("criterion 7 PASS: theta targets ln 10, ln {2,3,10} and the alpha3 window")


def test_criterion_08_classifier():
    """All seven preset constructions land in their Liouville growth class."""
    expected = {
        ("alpha1", 25): "hypo-exponential",
        ("alpha3", 5): "exponential",
        ("alpha4", 6): "exponential",
        ("alpha5", 6): "exponential",
        ("alpha6", 5): "hyper-exponential",
        ("alpha7", 5): "hyper-exponential",
    }
    for (name, n), label in expected.items():
        c = classify(lookup_preset(name), N=n)
        assert c.label == label, (name, c.label)
        assert c.caveat
    print("criterion 8 PASS: presets classified hypo/exponential/hyper with caveats")


def test_criterion_09_derivative_probes():
    """One-sided quotients die at rationals and explode at zero-plus."""
    for alpha0 in (Fraction(2, 5), Fraction(1, 2), Fraction(1)):
        for trace in (rational_left_quotients(alpha0, 6),
                      rational_right_quotients(alpha0, 6)):
            assert trace.verdict == "toward_zero", alpha0
            his = [p.quotient.hi for p in trace.points][-5:]
            assert all(b < a for a, b in zip(his, his[1:])), alpha0
    trace = zero_plus_quotients(63)  # probes 1/q for q = 2..64
    assert trace.verdict == "toward_infinity"
    los = [p.quotient.lo for p in trace.points]
    assert all(b > a for a, b in zip(los, los[1:]))
    print("criterion 9 PASS: quotient trends certified at 2/5, 1/2, 1 and 0+")


def test_criterion_10_near_one_trends():
    """beta_n decreases toward 1 while n / beta_n^n increases."""
    ns = [2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500,
          1000, 2000, 5000, 10000]
    encs = [near_one_root(n, Fraction(1, 10 ** 8)) for n in ns]
    for a, b in zip(encs, encs[1:]):
        assert b.hi < a.lo  # strictly decreasing
    assert encs[-1].hi < Fraction(101, 100)  # approaching 1
    # n / beta^n = n (beta - 1) / beta by the defining identity
    ratios = [(n * (e.lo - 1) / e.lo, n * (e.hi - 1) / e.hi)
              for n, e in zip(ns, encs)]
    for (lo1, hi1), (lo2, hi2) in zip(ratios, ratios[1:]):
        assert lo2 > hi1  # strictly increasing
    print("criterion 10 PASS: near-one roots decrease, n/beta^n increases, n <= 10^4")
