"""Property tests: the integer dyadic kernels of ``staircase.beta`` against
``Fraction`` references."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircase.beta import (RefinableRoot, _horner, _poly_sign, beta_root_finite,
                            beta_root_periodic, digit_series_sign,
                            finite_annihilator, periodic_annihilator)
from staircase.errors import PreconditionError
from staircase.intervals import Enclosure, eval_poly
from staircase.words import PeriodicWord

SETTINGS = settings(max_examples=150, deadline=None)

coeff_lists = st.lists(st.integers(-60, 60), min_size=1, max_size=9)
scales = st.integers(0, 40)
digit_words = st.lists(st.integers(0, 4), min_size=1, max_size=8).map(tuple).filter(
    lambda w: w[0] >= 1 and (w[0] > 1 or any(w[1:])))


@st.composite
def dyadic_brackets(draw):
    """(a, b, k) with 0 < a/2^k <= b/2^k < 8."""
    k = draw(scales)
    a = draw(st.integers(1, (8 << k) - 1))
    b = draw(st.integers(a, (8 << k) - 1))
    return a, b, k


def fraction_poly_sign(coeffs, x: Fraction) -> int:
    v = sum(Fraction(c) * x ** i for i, c in enumerate(coeffs))
    return (v > 0) - (v < 0)


def horner_enclosure(coeffs, bracket, den=1) -> Enclosure:
    lo, hi, s = _horner(coeffs, *bracket)
    return Enclosure(Fraction(lo, den << s), Fraction(hi, den << s))


def as_enclosure(bracket) -> Enclosure:
    a, b, k = bracket
    return Enclosure(Fraction(a, 1 << k), Fraction(b, 1 << k))


@SETTINGS
@given(coeff_lists, dyadic_brackets())
def test_horner_equals_eval_poly_integer_coefficients(coeffs, bracket):
    assert horner_enclosure(coeffs, bracket) == eval_poly(coeffs, as_enclosure(bracket))


@SETTINGS
@given(coeff_lists, st.integers(-60, 60), st.integers(2, 40), dyadic_brackets())
def test_horner_equals_eval_poly_fraction_constant(coeffs, p, den, bracket):
    # c_0 = p/den and integer c_i, as an integer polynomial over den
    frac_coeffs = [Fraction(p, den)] + coeffs
    int_coeffs = [p] + [c * den for c in coeffs]
    assert (horner_enclosure(int_coeffs, bracket, den)
            == eval_poly(frac_coeffs, as_enclosure(bracket)))


@SETTINGS
@given(coeff_lists, st.integers(1, 40), dyadic_brackets())
def test_horner_floors_are_shifts(coeffs, den, bracket):
    lo, hi, s = _horner(coeffs, *bracket)
    for v in (lo, hi):
        f = Fraction(v, den << s)
        assert (v >> s) // den == f.numerator // f.denominator


@SETTINGS
@given(digit_words, st.integers(1, 1 << 12), scales)
@example((2,), 2, 0)
@example((2,), 8, 2)
@example((1, 1), 3, 1)
def test_finite_sign_matches_reference(digits, m, k):
    x = Fraction(m, 1 << k)
    assert -_poly_sign(finite_annihilator(digits), m, k) == digit_series_sign(digits, x)


@SETTINGS
@given(coeff_lists, st.integers(-(1 << 12), 1 << 12), scales)
@example((-2, 1), 2, 0)
@example((-3, 2), 3, 1)
@example((2, -3, 1), 4, 1)
def test_poly_sign_matches_reference(coeffs, m, k):
    assert _poly_sign(coeffs, m, k) == fraction_poly_sign(coeffs, Fraction(m, 1 << k))


@SETTINGS
@given(st.lists(st.integers(0, 3), max_size=4), st.lists(st.integers(0, 3), min_size=1, max_size=4),
       st.integers(1 << 10, 5 << 10))
@example([], [1], 2 << 10)
def test_periodic_sign_matches_reference(pre, per, m):
    F = periodic_annihilator(PeriodicWord.make(tuple(pre), tuple(per)))
    assert _poly_sign(F, m, 10) == fraction_poly_sign(F, Fraction(m, 1 << 10))


def _assert_certified(rr: RefinableRoot, sign, tol: Fraction):
    if rr.exact is not None:
        assert sign(rr.exact) == 0
        assert rr.enclosure == Enclosure.exact(rr.exact)
        return
    assert rr.enclosure.width <= tol
    assert sign(rr.lo) == 1 and sign(rr.hi) == -1


@SETTINGS
@given(digit_words, st.integers(1, 120))
@example((2,), 10)
def test_refined_finite_root_is_certified(digits, bits):
    tol = Fraction(1, 1 << bits)
    rr = beta_root_finite(digits, tol)
    _assert_certified(rr, lambda x: digit_series_sign(digits, x), tol)


@SETTINGS
@given(st.lists(st.integers(0, 3), max_size=3), st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.integers(1, 90))
def test_refined_periodic_root_is_certified(pre, per, bits):
    w = PeriodicWord.make(tuple(pre), tuple(per))
    assume(w[0] >= 1 and w != PeriodicWord.make((1,), (0,)))
    tol = Fraction(1, 3 ** bits)
    F = periodic_annihilator(w)
    rr = beta_root_periodic(w, tol)
    _assert_certified(rr, lambda x: -fraction_poly_sign(F, x), tol)


def test_refine_steps_halves_the_bracket():
    rr = beta_root_finite((1, 1), Fraction(1, 4))
    w = rr.enclosure.width
    rr.refine_steps(5)
    assert rr.enclosure.width == w / 32
    _assert_certified(rr, lambda x: digit_series_sign((1, 1), x), w / 32)


def test_refine_rejects_nonpositive_tolerance():
    rr = beta_root_finite((1, 1), Fraction(1, 4))
    with pytest.raises(PreconditionError):
        rr.refine(Fraction(0))
