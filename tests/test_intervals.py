"""Exact-endpoint interval arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase.errors import CertificationError, PreconditionError
from staircase.intervals import (Enclosure, decimal_str, enclosure_strings, eval_poly,
                                 refine_until)


def test_basic_arithmetic_contains_products():
    a = Enclosure(Fraction(1, 3), Fraction(1, 2))
    b = Enclosure(Fraction(-2), Fraction(3))
    s = a + b
    assert s.lo == Fraction(1, 3) - 2 and s.hi == Fraction(1, 2) + 3
    p = a * b
    for x in (Fraction(1, 3), Fraction(1, 2)):
        for y in (Fraction(-2), Fraction(3)):
            assert p.lo <= x * y <= p.hi


def test_reciprocal_and_division():
    a = Enclosure(Fraction(2), Fraction(4))
    r = a.reciprocal()
    assert r.lo == Fraction(1, 4) and r.hi == Fraction(1, 2)
    q = Enclosure(Fraction(1), Fraction(1)) / a
    assert q == r
    with pytest.raises(ZeroDivisionError):
        Enclosure(Fraction(-1), Fraction(1)).reciprocal()


def test_pow_int_monotone_on_nonnegative():
    a = Enclosure(Fraction(1, 2), Fraction(3, 2))
    c = a.pow_int(3)
    assert c.lo == Fraction(1, 8) and c.hi == Fraction(27, 8)


def test_intersect_requires_overlap():
    a = Enclosure(Fraction(0), Fraction(2))
    b = Enclosure(Fraction(1), Fraction(3))
    c = a.intersect(b)
    assert (c.lo, c.hi) == (Fraction(1), Fraction(2))


def test_eval_poly_encloses_true_range():
    # p(x) = x^2 - x - 1 over [1.5, 1.7] contains p(phi) = 0
    coeffs = [Fraction(-1), Fraction(-1), Fraction(1)]
    box = eval_poly(coeffs, Enclosure(Fraction(3, 2), Fraction(17, 10)))
    assert box.lo <= 0 <= box.hi


def test_decimal_str_rounding_modes():
    x = Fraction(1, 3)
    assert decimal_str(x, 4, "floor") == "0.3333"
    assert decimal_str(x, 4, "ceil") == "0.3334"
    assert decimal_str(Fraction(-1, 3), 4, "floor") == "-0.3334"


@pytest.mark.parametrize("digits", [4000, 4001, 8001, 12345])
def test_decimal_str_prints_past_the_int_str_limit(digits):
    """More fraction digits than the 4300 that ``str`` converts from Python
    3.11 on print in limbs, zero-padded."""
    sevenths = ("142857" * (digits // 6 + 1))[:digits]  # 1/7 has no digit 9
    assert decimal_str(Fraction(22, 7), digits, "floor") == "3." + sevenths
    assert decimal_str(Fraction(22, 7), digits, "ceil") == \
        "3." + sevenths[:-1] + str(int(sevenths[-1]) + 1)
    assert decimal_str(Fraction(-22, 7), digits, "ceil") == "-3." + sevenths
    x = Fraction(1, 10) + Fraction(1, 10 ** (digits // 2))
    assert decimal_str(x, digits, "floor") == \
        "0.1" + "0" * (digits // 2 - 2) + "1" + "0" * (digits - digits // 2)


def test_enclosure_strings_bracket_value():
    e = Enclosure(Fraction(161803, 100000), Fraction(161804, 100000))
    lo, hi = enclosure_strings(e, 5)
    assert lo == "1.61803" and hi == "1.61804"
    assert Fraction(lo) <= e.lo <= e.hi <= Fraction(hi)


endpoints = st.fractions(min_value=-10, max_value=10, max_denominator=1000)


@settings(max_examples=150, deadline=None)
@given(endpoints, endpoints)
def test_abs_contains_and_is_tight(x, y):
    e = Enclosure(min(x, y), max(x, y))
    a = e.abs()
    points = [e.lo, e.mid, e.hi] + ([Fraction(0)] if e.contains(0) else [])
    values = {abs(v) for v in points}
    assert all(a.contains(v) for v in values)
    assert a.lo in values and a.hi in values


def _interval(x, y):
    return Enclosure(min(x, y), max(x, y))


def _samples(e):
    return (e.lo, e.mid, e.hi, (2 * e.lo + e.hi) / 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(endpoints, endpoints, endpoints, endpoints)
def test_arithmetic_contains_every_exact_result(a, b, c, d):
    x, y = _interval(a, b), _interval(c, d)
    for u in _samples(x):
        for v in _samples(y):
            assert (x + y).contains(u + v) and (x - y).contains(u - v)
            assert (x * y).contains(u * v)
            if not y.contains(0):
                assert (x / y).contains(u / v)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(endpoints, endpoints, st.integers(min_value=0, max_value=6))
def test_pow_int_contains_every_exact_power(a, b, n):
    x = _interval(abs(a), abs(b))
    assert all(x.pow_int(n).contains(u ** n) for u in _samples(x))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9),
       st.integers(min_value=0, max_value=12))
def test_decimal_str_rounds_outward_by_less_than_one_unit(x, digits):
    unit = Fraction(1, 10 ** digits)
    down, up = Fraction(decimal_str(x, digits, "floor")), Fraction(decimal_str(x, digits, "ceil"))
    assert x - unit < down <= x <= up < x + unit


class Recorder:
    """A refinable value that records the tolerances it is refined to."""

    def __init__(self):
        self.tols = []

    def refine(self, tol):
        self.tols.append(tol)


def test_refine_until_returns_first_decision_even_if_falsy():
    v = Recorder()
    asked = []

    def floor():
        asked.append(len(v.tols))
        return 0 if len(v.tols) == 2 else None

    assert refine_until(floor, [v], Fraction(1), 4, 10, "floor") == 0
    assert asked == [0, 1, 2]


def test_refine_until_shrinks_the_tolerance_each_round():
    a, b = Recorder(), Recorder()
    decisions = iter([None, None, None, "done"])
    assert refine_until(lambda: next(decisions), [a, b], Fraction(1, 3), 2 ** 8, 5,
                        "trend") == "done"
    expected = [Fraction(1, 3 * 2 ** 8), Fraction(1, 3 * 2 ** 16), Fraction(1, 3 * 2 ** 24)]
    assert a.tols == expected and b.tols == expected


def test_refine_until_asks_once_after_the_last_round():
    v = Recorder()
    assert refine_until(lambda: "yes" if len(v.tols) == 3 else None, [v], Fraction(1), 2, 3,
                        "order") == "yes"
    assert len(v.tols) == 3


def test_refine_until_raises_after_exactly_the_budget():
    v = Recorder()
    asked = []

    def never():
        asked.append(len(v.tols))
        return None

    with pytest.raises(CertificationError, match="band verdict undecided"):
        refine_until(never, [v], Fraction(1), 2, 5, "band verdict")
    assert len(v.tols) == 5 and asked == [0, 1, 2, 3, 4, 5]
