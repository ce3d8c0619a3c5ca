"""Certified roots of digit series and greedy expansions."""

from fractions import Fraction

import pytest

from staircase.beta import (
    BetaHandle,
    SeriesRoot,
    beta_root_finite,
    beta_root_periodic,
    digit_series_sign,
    extremal_orbit_check,
    finite_annihilator,
    greedy_digits,
    near_one_root,
    periodic_annihilator,
    positive_root_finite,
    positive_root_series,
    quasi_greedy_of_finite,
)
from staircase.errors import PreconditionError
from staircase.words import PeriodicWord, is_parry_admissible

TOL = Fraction(1, 10 ** 15)


def test_digit_series_sign_exact():
    # g(x) = 1/x + 1/x^2 - 1 has the golden ratio as its root
    digits = (1, 1)
    assert digit_series_sign(digits, Fraction(3, 2)) > 0
    assert digit_series_sign(digits, Fraction(17, 10)) < 0
    assert digit_series_sign((2,), Fraction(2)) == 0


def test_annihilators():
    assert finite_annihilator((1, 1)) == (-1, -1, 1)  # x^2 - x - 1
    # (b+1) b^w  ->  x^2 - (b+2) x + 1
    w = PeriodicWord.make((3,), (2,))
    assert periodic_annihilator(w) == (1, -4, 1)


def test_beta_root_finite_golden():
    rr = beta_root_finite((1, 1), TOL)
    enc = rr.enclosure
    assert enc.width <= TOL
    # exact containment check against x^2 - x - 1 (increasing at the root)
    assert enc.lo ** 2 - enc.lo - 1 < 0 < enc.hi ** 2 - enc.hi - 1


def test_beta_root_periodic_quadratic():
    w = PeriodicWord.make((2,), (1,))  # x^2 - 3x + 1, larger root (3+sqrt5)/2
    enc = beta_root_periodic(w, TOL).enclosure
    assert enc.width <= TOL
    assert enc.lo ** 2 - 3 * enc.lo + 1 < 0 < enc.hi ** 2 - 3 * enc.hi + 1


def test_positive_root_is_reciprocal():
    zeta = positive_root_finite((1, 1), TOL)
    beta = beta_root_finite((1, 1), TOL).enclosure
    assert zeta.lo <= 1 / beta.hi and 1 / beta.lo <= zeta.hi
    assert 0 < zeta.lo < zeta.hi < 1


def test_integer_digit_word_exact():
    rr = beta_root_finite((3,), TOL)
    assert rr.exact == Fraction(3)


def test_series_root_nested_history():
    # eventually constant stream 1 1 1 ... : root is 2 (series sums to 1)
    sr = SeriesRoot(lambda n: 1, 1, m0=4)
    enc = sr.refine(Fraction(1, 10 ** 9))
    # the root is exactly 2, found as the upper sandwich endpoint
    assert enc.lo < 2 <= enc.hi
    lo = [e for _, e in sr.history]
    for a, b in zip(lo, lo[1:]):
        assert b.lo >= a.lo and b.hi <= a.hi
    ms = [m for m, _ in sr.history]
    assert ms == sorted(set(ms))


def test_series_root_refine_reuses_truncation():
    # once the truncation gap is below tolerance, deeper tolerances must be
    # served by refining the existing sandwich roots, not by lengthening m
    sr = SeriesRoot(lambda n: 1 if n <= 2 else 0, 1, m0=4)
    sr.refine(Fraction(1, 10 ** 40))
    m1 = sr._m
    sr.refine(Fraction(1, 10 ** 45))
    assert sr._m == m1


def test_positive_root_series_interface():
    enc, hist = positive_root_series(lambda n: 1, 1, Fraction(1, 10 ** 9), m0=4)
    assert enc.lo <= Fraction(1, 2) < enc.hi
    assert hist and all(0 < e.lo < e.hi < 1 for _, e in hist)


def test_greedy_digits_roundtrip_finite():
    digits = (2, 0, 1)
    h = BetaHandle.from_finite_word(digits, TOL)
    got, terminated = greedy_digits(h, 10)
    assert terminated and got == digits


def test_greedy_digits_integer_base():
    h = BetaHandle.from_integer(3)
    got, terminated = greedy_digits(h, 5, Fraction(5, 9))
    assert got[:2] == (1, 2) and terminated


def test_greedy_digits_periodic_word():
    w = PeriodicWord.make((2,), (1,))
    h = BetaHandle.from_periodic_word(w, TOL)
    got, terminated = greedy_digits(h, 9)
    assert not terminated
    assert got == w.prefix(9)


def test_greedy_output_is_parry_admissible():
    for digits in [(1, 1), (2, 0, 1), (3, 1, 2), (1, 0, 0, 1)]:
        h = BetaHandle.from_finite_word(digits, TOL)
        got, _ = greedy_digits(h, len(digits) + 2)
        assert is_parry_admissible(got)


def test_quasi_greedy_of_finite():
    assert quasi_greedy_of_finite((1, 1)) == PeriodicWord.make((), (1, 0))
    assert quasi_greedy_of_finite((2, 0, 1)) == PeriodicWord.make((), (2, 0, 0))
    with pytest.raises(PreconditionError):
        quasi_greedy_of_finite((1, 0))


def test_extremal_orbit_golden():
    h = BetaHandle.from_finite_word((1, 1), TOL)
    pts = extremal_orbit_check(h, 4)
    # T(1) = beta - 1 = 1/beta sits strictly inside (1 - 1/beta, 1);
    # the orbit then terminates at zero
    assert pts[0].verdict == "interior"
    assert pts[1].verdict == "zero" and pts[1].k == 2


def test_near_one_root_family():
    e2 = near_one_root(2, TOL)
    # n = 2 gives the golden ratio again
    assert e2.lo ** 2 - e2.lo - 1 < 0 < e2.hi ** 2 - e2.hi - 1
    e50 = near_one_root(50, Fraction(1, 10 ** 9))
    assert 1 < e50.lo and e50.hi < e2.lo
    # defining identity beta^n = beta / (beta - 1), checked by exact signs:
    # below the root x^n (x-1) < x, above it the inequality flips
    n = 50
    assert e50.lo ** n * (e50.lo - 1) < e50.lo
    assert e50.hi ** n * (e50.hi - 1) > e50.hi


def test_rejects_bad_digit_words():
    with pytest.raises(PreconditionError):
        beta_root_finite(())
    with pytest.raises(PreconditionError):
        beta_root_finite((0, 1))
    with pytest.raises(PreconditionError):
        beta_root_finite((1, 0, 0))  # root 1 is outside the base range
    with pytest.raises(PreconditionError):
        greedy_digits(BetaHandle.from_finite_word((1, 1), TOL), 3, Fraction(2))


def test_beta_root_periodic_finite_word():
    # 11 0^w is the finite word 11: the golden ratio, not the spurious root 1
    # of its periodic annihilator (x - 1)(x^2 - x - 1)
    enc = beta_root_periodic(PeriodicWord.make((1, 1), (0,)), TOL).enclosure
    assert enc.width <= TOL
    assert enc.lo ** 2 - enc.lo - 1 < 0 < enc.hi ** 2 - enc.hi - 1
