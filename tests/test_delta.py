"""The staircase map: rational values, right limits, jumps, irrational slopes."""

from fractions import Fraction
from math import isqrt

import mpmath as mp
import pytest

from staircase.delta import (
    CSV_HEADER,
    IRRATIONAL_TOL,
    delta_irrational,
    delta_rational,
    delta_right_limit,
    farey_slopes,
    jump,
    lipschitz_order,
    plot_samples,
    right_limit_word,
)
from staircase.diophantine import ContinuedFraction
from staircase.errors import CertificationError, PreconditionError
from staircase.intervals import Enclosure
from staircase.words import PeriodicWord, bzb_word

TOL = Fraction(1, 10 ** 20)


def golden_cf():
    return ContinuedFraction.constant(0, 1, name="golden")


def test_delta_at_zero_and_integers():
    assert delta_rational(Fraction(0)).enclosure == Enclosure.exact(Fraction(1))
    for b in (1, 2, 3):
        d = delta_rational(Fraction(b))
        assert d.enclosure == Enclosure.exact(Fraction(b + 1))
        assert d.word == (b + 1,)


def test_delta_half_is_golden_ratio():
    d = delta_rational(Fraction(1, 2), TOL)
    assert d.word == (1, 1)
    e = d.enclosure
    assert e.width <= TOL
    assert e.lo ** 2 - e.lo - 1 < 0 < e.hi ** 2 - e.hi - 1


def test_delta_word_structure():
    d = delta_rational(Fraction(2, 5))
    assert d.word == bzb_word(1, 2, 5) == (1, 0, 1, 0, 1)
    d = delta_rational(Fraction(7, 5))  # slope 1 + 2/5, so b = 2
    assert d.word == bzb_word(2, 2, 5)


def test_right_limit_words():
    assert right_limit_word(Fraction(1, 2)) == PeriodicWord.make((1,), (1, 0))
    assert right_limit_word(Fraction(1)) == PeriodicWord.make((2,), (1,))
    assert right_limit_word(Fraction(0)) == PeriodicWord.make((1,), (0,))
    w = right_limit_word(Fraction(2, 5))
    assert w.pre == (1,) and w.per[-2:] == (1, 0)


def test_right_limit_at_integer_is_quadratic():
    for b in (1, 2, 3):
        d = delta_right_limit(Fraction(b), TOL)
        e = d.enclosure
        # larger root of x^2 - (b+2)x + 1
        assert e.lo ** 2 - (b + 2) * e.lo + 1 < 0 < e.hi ** 2 - (b + 2) * e.hi + 1
        assert e.width <= TOL


def test_right_limit_at_zero_has_no_jump():
    assert delta_right_limit(Fraction(0)).enclosure == Enclosure.exact(Fraction(1))
    with pytest.raises(PreconditionError):
        jump(Fraction(0))


def test_jump_is_positive_and_consistent():
    j = jump(Fraction(1, 2))
    enc = j.certify_positive()
    assert enc.lo > 0
    # phi up to the larger root of x^2 - 3x + 1... computed independently:
    # right limit 1.80193... minus 1.61803... is about 0.1839
    assert abs(float(enc.lo) - 0.1839037470549) < 1e-9


def test_delta_is_monotone_on_a_small_grid():
    grid = farey_slopes(Fraction(0), Fraction(2), 6)
    values = [delta_rational(x, Fraction(1, 10 ** 25)) for x in grid]
    for a, b in zip(values, values[1:]):
        assert a.enclosure.hi < b.enclosure.lo


def test_farey_slopes_enumeration():
    got = farey_slopes(Fraction(0), Fraction(1), 4)
    assert got == [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                   Fraction(2, 3), Fraction(3, 4), Fraction(1)]


def test_delta_irrational_golden_matches_floor_formula():
    d = delta_irrational(golden_cf())
    # digit word: 1 followed by the characteristic word of (sqrt5-1)/2
    floors = [(isqrt(5 * k * k) - k) // 2 for k in range(102)]
    want = (1,) + tuple(floors[k + 1] - floors[k] for k in range(1, 100))
    got = tuple(d.stream.digit(n) for n in range(1, 101))
    assert got == want
    enc = d.refine(IRRATIONAL_TOL)
    assert enc.width <= IRRATIONAL_TOL


def test_delta_irrational_value_against_independent_root():
    d = delta_irrational(golden_cf())
    enc = d.refine(Fraction(1, 10 ** 30))
    mp.mp.dps = 60
    alpha = (mp.sqrt(5) - 1) / 2
    digs = [1] + [int(mp.floor((k + 1) * alpha) - mp.floor(k * alpha))
                  for k in range(1, 220)]
    f = lambda x: mp.fsum(a * x ** (-n) for n, a in enumerate(digs, 1)) - 1
    root = mp.findroot(f, mp.mpf("1.8352"))
    assert mp.mpf(enc.lo.numerator) / enc.lo.denominator <= root
    assert root <= mp.mpf(enc.hi.numerator) / enc.hi.denominator


def test_delta_irrational_rejects_rational_cf():
    cf = ContinuedFraction.from_quotients(0, [2, 3])
    with pytest.raises(CertificationError):
        d = delta_irrational(cf)
        d.refine(Fraction(1, 10 ** 40))


def test_delta_sandwiched_between_neighbours():
    # Delta(alpha) for irrational alpha lies between the values at nearby
    # rationals on either side
    d = delta_irrational(golden_cf()).refine(Fraction(1, 10 ** 15))
    lo = delta_rational(Fraction(8, 13), Fraction(1, 10 ** 15))
    hi = delta_rational(Fraction(13, 21), Fraction(1, 10 ** 15))
    assert lo.enclosure.hi < d.lo and d.hi < hi.enclosure.lo


def test_plot_samples_rows():
    rows = plot_samples(Fraction(0), Fraction(1), 4)
    assert [r.slope for r in rows] == farey_slopes(Fraction(0), Fraction(1), 4)
    assert len(CSV_HEADER) == 7
    prev_hi = Fraction(0)
    for r in rows:
        assert r.jump_lo > 0
        assert r.delta.enclosure.lo > prev_hi  # strictly separated in order
        assert r.right.enclosure.hi > r.delta.enclosure.lo
        prev_hi = r.delta.enclosure.hi


def test_lipschitz_order_golden():
    d = delta_irrational(golden_cf())
    theta = Enclosure(Fraction(3, 2), Fraction(3, 2))
    order = lipschitz_order(d, theta)
    # ln(1.83524...) / ln(1.5) = 1.4974846835920...
    assert order.lo < Fraction("1.4974846836")
    assert order.hi > Fraction("1.4974846835")
    assert order.hi - order.lo < Fraction(1, 10 ** 8)
    with pytest.raises(PreconditionError):
        lipschitz_order(d, Enclosure(Fraction(2), Fraction(2)))
    with pytest.raises(PreconditionError):
        lipschitz_order(d, Enclosure(Fraction(1, 2), Fraction(1, 2)))


def test_negative_slope_rejected():
    with pytest.raises(PreconditionError):
        delta_rational(Fraction(-1, 2))


def test_lipschitz_order_leaves_mpmath_precision_alone():
    from mpmath import iv

    saved = iv.prec
    iv.prec = 60
    try:
        lipschitz_order(delta_irrational(golden_cf()), Enclosure(Fraction(3, 2), Fraction(3, 2)))
        assert iv.prec == 60
    finally:
        iv.prec = saved
