"""The staircase map: rational values, right limits, jumps, irrational slopes."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import count, cycle, takewhile
from math import isqrt
from pathlib import Path
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import staircase
from staircase import beta, delta
from staircase.beta import (RefinableRoot, SeriesRoot, beta_root_finite, beta_root_periodic,
                            finite_annihilator, near_one_root, periodic_annihilator)
from staircase.delta import (
    IRRATIONAL_TOL,
    StaircaseDigitStream,
    _NeighbourPairs,
    delta_irrational,
    delta_rational,
    delta_right_limit,
    farey_slopes,
    jump,
    lipschitz_order,
    plot_samples,
    right_limit_word,
    sweep,
)
from staircase.diophantine import ContinuedFraction, LogMagnitude, presets
from staircase.errors import CertificationError, PreconditionError
from staircase.intervals import Enclosure, refine_until
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


def test_delta_irrational_keeps_its_slope():
    cf = golden_cf()
    assert delta_irrational(cf).slope is cf


def test_every_root_refines_under_one_contract():
    """A tolerance <= 0 is refused before any work, by a series root, an
    algebraic root and an exact one alike; a tolerance the enclosure already
    meets returns that enclosure, with no new truncation in the history."""
    d = delta_irrational(golden_cf())
    sr = d.handle
    with mock.patch.object(SeriesRoot, "_build", side_effect=AssertionError) as build:
        with pytest.raises(PreconditionError, match="tolerance must be positive"):
            d.refine(Fraction(-1))
        with pytest.raises(PreconditionError, match="tolerance must be positive"):
            sr.refine(Fraction(0))
        history, enc = list(sr.history), sr.enclosure
        assert sr.refine(enc.width) is enc and d.refine(1) is enc
        assert sr.history == history
    assert not build.called
    for value in (delta_rational(Fraction(1, 3)), delta_rational(Fraction(2))):
        with pytest.raises(PreconditionError, match="tolerance must be positive"):
            value.refine(Fraction(0))
    with pytest.raises(PreconditionError, match="tolerance must be positive"):
        beta_root_finite((1, 2), Fraction(0))  # its root is the integer 2


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


def _fresh_sandwich(stream, m: int, tol: Fraction) -> Enclosure:
    """[low.lo, high.hi] for new roots of a_1..a_m 0^w and a_1..a_m M^w at tol/4."""
    digits = tuple(stream.digit(n) for n in range(1, m + 1))
    low = beta_root_finite(digits, tol / 4)
    high = beta_root_periodic(PeriodicWord.make(digits, (stream.b,)), tol / 4)
    return Enclosure(low.enclosure.lo, high.enclosure.hi)


@pytest.mark.parametrize("digits", [12, 45, 100])
@pytest.mark.parametrize("name", ["golden", "sqrt2m1", "e"])
def test_series_root_ends_on_the_fresh_sandwich_of_its_truncation(name, digits):
    """At tol and again 10 digits deeper, a series root over the truncations
    of a staircase stream ends where refining every doubled truncation to
    tol/4 ends: on the first length from 32 whose sandwich has width at most
    tol, with that sandwich as its enclosure.  Coarse pairs of hopeless
    truncations leave only wider, nested history."""
    d = delta_irrational(presets()[name].cf, Fraction(1, 10 ** digits))
    sr = SeriesRoot(d.stream.digit, d.stream.b)
    for tol in (Fraction(1, 10 ** digits), Fraction(1, 10 ** (digits + 10))):
        sr.refine(tol)
        m = 32
        while (enc := _fresh_sandwich(d.stream, m, tol)).width > tol:
            m *= 2
        assert sr._m == m
        assert sr.enclosure == enc
        lengths = [n for n, _ in sr.history]
        assert lengths == sorted(set(lengths)) and lengths[-1] == m
        for (_, a), (_, b) in zip(sr.history, sr.history[1:]):
            assert a.lo <= b.lo and b.hi <= a.hi


def _stern_brocot_pairs(cf):
    """(q_r + q_s, r, s) for the Stern-Brocot pairs r < alpha < s of cf's
    slope, by increasing length: (p_n/q_n, (p_(n-1) + j p_n)/(q_(n-1) + j q_n))
    for j = 1..a_(n+1), the convergent below alpha at even n."""
    P, Q, p, q = 1, 0, cf.a0, 1
    for n in count():
        a = cf.term(n + 1)
        for j in range(1, a + 1):
            near, far = Fraction(p, q), Fraction(P + j * p, Q + j * q)
            yield (Q + (j + 1) * q, *((near, far) if n % 2 == 0 else (far, near)))
        P, Q, p, q = p, q, a * p + P, a * q + Q


def _stream_prefix(cf, n: int):
    """a_1..a_n of the staircase stream by the floor formula, each floor read
    off a convergent p/q of the slope with q_prev > n."""
    P, Q, p, q, k = 1, 0, cf.a0, 1, 0
    while Q <= n:
        k += 1
        a = cf.term(k)
        P, Q, p, q = p, q, a * p + P, a * q + Q
    return (cf.a0 + 1,) + tuple((m * p) // q - ((m - 1) * p) // q for m in range(2, n + 1))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2), st.lists(st.integers(1, 50), min_size=1, max_size=4),
       st.integers(12, 200))
def test_delta_irrational_ends_in_its_stern_brocot_sandwich(a0, period, digits):
    """Over periodic continued fractions [a0; period...]: the enclosure has
    width <= tol, its history is nested with strictly increasing lengths, each
    a Stern-Brocot pair's q_r + q_s whose words pass the lex check (the word
    of r+ may agree with the stream past 8 lengths, where a_1..a_m 0^w takes
    its place), and the enclosure lies within that last pair's fresh roots at
    tol/4 and overlaps a truncation sandwich of the same stream.  The pair
    source refuses a stream of a slope outside its pair."""
    cf, tol = ContinuedFraction(a0, partial(cycle, period)), Fraction(1, 10 ** digits)
    d = delta_irrational(cf, tol)
    enc, history = d.enclosure, d.handle.history
    assert enc.width <= tol
    lengths = [m for m, _ in history]
    assert lengths == sorted(set(lengths))
    for (_, a), (_, b) in zip(history, history[1:]):
        assert a.lo <= b.lo and b.hi <= a.hi
    pairs = {m: (r, s) for m, r, s in takewhile(lambda t: t[0] <= lengths[-1],
                                                _stern_brocot_pairs(cf))}
    for i, m in enumerate(lengths):
        r, s = pairs[m]
        stream = _stream_prefix(cf, 8 * m)
        assert stream < PeriodicWord.from_finite(delta_rational(s, 1).word).prefix(8 * m)
        low = right_limit_word(r).prefix(8 * m)
        assert low <= stream
        if i or len(lengths) == 1:
            lo = (delta_right_limit(r, tol / 4) if low < stream or not r else
                  beta_root_finite(stream[:m], tol / 4)).enclosure.lo
            hi = delta_rational(s, tol / 4).enclosure.hi
        if 0 < i < len(lengths) - 1:  # a pair after the first is passed by only while too wide
            assert hi - lo > tol
    assert lo <= enc.lo and enc.hi <= hi
    truncated = SeriesRoot(d.stream.digit, d.stream.b).refine(max(tol, Fraction(1, 10 ** 20)))
    assert truncated.lo <= enc.hi and enc.lo <= truncated.hi
    above = StaircaseDigitStream(ContinuedFraction(a0 + 1, partial(cycle, period)))
    with pytest.raises(CertificationError, match="sandwich"):
        _NeighbourPairs(cf, above).pair(m, tol)


def test_neighbour_pairs_raise_past_the_word_cap(monkeypatch):
    """A pair longer than the word cap is refused before its roots are built,
    naming the width its roots were asked for (a coarse one here) and the cap."""
    monkeypatch.setattr(delta, "MAX_WORD_LENGTH", 100)
    with pytest.raises(CertificationError,
                       match=r"^series root not certified to width \d+/\d+ within word cap 100$"):
        delta_irrational(golden_cf(), Fraction(1, 10 ** 300))


class _PaddedWord:
    """A stub digit stream: the word of a slope padded with 0s."""

    def __init__(self, slope):
        self._word = delta_rational(slope, 1).word

    def prefix(self, n):
        return (self._word + (0,) * n)[:n]


def test_neighbour_pairs_raise_where_the_far_word_agrees_with_the_stream(monkeypatch):
    """The golden slope's first pair from length 32 is (8/13, 13/21), q_r + q_s = 34;
    a stream equal to the word of 13/21 padded with 0s agrees with it up to
    the cap, so the lex check cannot sort the two and the pair is refused."""
    monkeypatch.setattr(delta, "MAX_WORD_LENGTH", 1000)
    pairs = _NeighbourPairs(golden_cf(), _PaddedWord(Fraction(13, 21)))
    with pytest.raises(CertificationError,
                       match=r"^the word of 13/21 agrees with the stream past 1000 letters$"):
        pairs.pair(32, Fraction(1, 10 ** 12))


def test_neighbour_pairs_need_exact_partial_quotients():
    """A pair past a partial quotient held only in log space is refused: its
    Stern-Brocot neighbours have no exact numerators and denominators."""
    cf = ContinuedFraction(0, lambda: iter([2, LogMagnitude(100.0, 101.0)]), name="stub")
    with pytest.raises(CertificationError,
                       match=r"^partial quotient 2 of stub is not an exact integer$"):
        _NeighbourPairs(cf, None).pair(32, Fraction(1, 10 ** 12))


def test_delta_irrational_rejects_rational_cf():
    # [0; 2, 3] runs dry within the first truncation; [0; 2, 3, 4, 5, 6, 7] = 3015/6961 does not
    for qs in ([2, 3], [2, 3, 4, 5, 6, 7]):
        cf = ContinuedFraction.from_quotients(0, qs)
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
    prev_hi = Fraction(0)
    for r in rows:
        assert r.jump_lo > 0
        assert r.delta.enclosure.lo > prev_hi  # strictly separated in order
        assert r.right.enclosure.hi > r.delta.enclosure.lo
        prev_hi = r.delta.enclosure.hi


def _refine_apart(x, y, cap):
    """Refine the values x and y, as fractions, until x.hi < y.lo."""
    refine_until(lambda: True if x.enclosure.hi < y.enclosure.lo else None, (x, y),
                 max(min(x.enclosure.width, y.enclosure.width), Fraction(1, 2 ** cap)),
                 2 ** 16, 4000, "apart")


def _reference_rows(lo, hi, max_den, tol):
    """The plot rows of the unseeded algorithm on fractions: each jump
    certified on its own, then consecutive values refined until apart."""
    jumps = [jump(c, tol) for c in farey_slopes(lo, hi, max_den)]
    for j in jumps:
        _refine_apart(j.left, j.right, 40)
    jump_lo = [j.right.enclosure.lo - j.left.enclosure.hi for j in jumps]
    for a, b in zip(jumps, jumps[1:]):
        _refine_apart(a.left, b.left, 50)
    return [(j.slope, j.left.enclosure, j.right.enclosure, g) for j, g in zip(jumps, jump_lo)]


slopes_to_2 = st.builds(Fraction, st.integers(1, 24), st.integers(1, 12)).filter(lambda x: x <= 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(slopes_to_2, slopes_to_2)
@example(Fraction(5, 12), Fraction(3, 7))
def test_delta_increases_across_the_jump(x, y):
    """Delta(a) < Delta(a+) < Delta(b) for rationals a < b, on certified
    enclosures refined until they are apart."""
    assume(x != y)
    a, b = min(x, y), max(x, y)
    left, right, after = (delta_rational(a, TOL), delta_right_limit(a, TOL),
                          delta_rational(b, TOL))
    _refine_apart(left, right, 80)
    _refine_apart(right, after, 80)
    assert left.enclosure.hi < right.enclosure.lo <= right.enclosure.hi < after.enclosure.lo


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(3, 5), Fraction(8, 13),
                               Fraction(21, 34), Fraction(55, 89)])
def test_right_limit_below_the_golden_slope(a):
    """Delta(a+) < Delta(gamma) at the even convergents a < gamma of the golden
    slope gamma = [0; 1, 1, ...]; see Lothaire, Algebraic Combinatorics on
    Words, ch. 2, for the Sturmian words behind the digit words."""
    right, gamma = delta_right_limit(a, TOL), delta_irrational(golden_cf())
    _refine_apart(right, gamma, 80)
    assert right.enclosure.hi < gamma.enclosure.lo


slopes_to_3 = st.builds(Fraction, st.integers(0, 36), st.integers(1, 12)).filter(lambda x: x <= 3)


@settings(max_examples=25, deadline=None)
@given(slopes_to_3, slopes_to_3, st.integers(1, 12),
       st.sampled_from([Fraction(1, 10 ** 8), Fraction(1, 2 ** 40), Fraction(1, 2 ** 10)]))
@example(Fraction(0), Fraction(3), 12, Fraction(1, 16))
def test_sweep_equals_the_unseeded_reference(x, y, max_den, tol):
    """Differential oracle: seeding from the Farey neighbours changes no
    bracket and no jump bound.  Below denominator 13, 1e-8 and 2^-40 decide
    every jump and order at once; 2^-10 and 1/16 need refinement rounds."""
    assume(x != y)
    lo, hi = min(x, y), max(x, y)
    rows = sweep(lo, hi, max_den, tol)
    assert [(r.slope, r.delta.enclosure, r.right.enclosure, r.jump_lo) for r in rows] == \
        _reference_rows(lo, hi, max_den, tol)


def test_sweep_sign_test_budget():
    """(0, 1] at denominator 30 and 1e-8 makes 2,245 sign tests through the
    roots' sign kernels, unit-cell and seed tests included, where a sweep
    that seeds no root makes 2,269: since the float start certifies most
    first cells with two or three tests, the seeds save little at this
    denominator (they still pay from denominator 60 on).  Every deepening is
    a certified jump: bisection takes no step."""
    calls, halved = [], []
    kernel, halve = beta._sign_kernel, RefinableRoot._halve

    def counting(F):
        sign = kernel(F)
        return partial(lambda poly, m, k: calls.append(k) or sign(m, k), sign.args[0])

    def halving(rr, steps):
        halved.append(max(steps, 0))
        halve(rr, steps)

    with mock.patch.object(beta, "_sign_kernel", counting), \
            mock.patch.object(RefinableRoot, "_halve", halving):
        sweep(Fraction(0), Fraction(1), 30, Fraction(1, 10 ** 8))
    assert len(calls) <= 2500, len(calls)
    assert sum(halved) == 0, sum(halved)


def _sign_tests(run) -> int:
    """The sign tests ``run()`` makes through the roots' sign kernels."""
    calls = []
    kernel = beta._sign_kernel

    def counting(F):
        sign = kernel(F)
        return partial(lambda poly, m, k: calls.append(k) or sign(m, k), sign.args[0])

    with mock.patch.object(beta, "_sign_kernel", counting):
        run()
    return len(calls)


@pytest.mark.parametrize("run, budget", [
    (lambda: beta_root_finite(bzb_word(2, 11, 30), Fraction(1, 2 ** 24)), 5),
    (lambda: beta_root_periodic(right_limit_word(Fraction(7, 5)), Fraction(1, 2 ** 24)), 5),
    (lambda: near_one_root(3000, Fraction(1, 10 ** 8)), 6),
    (lambda: delta_rational(1000 + Fraction(3, 7), Fraction(1, 2 ** 24)), 12),
], ids=["bzb 2 11 30", "right limit 7/5", "near-one 3000", "slope 1000 + 3/7"])
def test_first_refinement_sign_test_budget(run, budget):
    """A fresh root certifies the cell of its float guess with two or three
    sign tests after its unit-cell search, and later requests up to that
    scale are shifts.  Halving to the jump start and the jump took 12 sign
    tests on each of the first two and the last, and 18 on the near-one word."""
    assert _sign_tests(run) <= budget


@pytest.mark.parametrize("alpha", [Fraction(2 * 10 ** 400 + 1, 2), 10 ** 12 + Fraction(2, 9)])
def test_slopes_far_from_one_keep_their_enclosures(alpha):
    """Near 10^400 the unit cell is past float range and no guess is made;
    near 10^12 the guess is good to 4 fractional bits and starts Newton.
    Both end on the enclosures of refining without a guess."""
    def values():
        tol = Fraction(1, 2 ** 24)
        return [delta_rational(alpha, tol).enclosure, delta_right_limit(alpha, tol).enclosure]

    guessed = values()
    with mock.patch.object(beta, "_float_root", lambda F, m, k: None):
        assert guessed == values()


def test_float_guess_past_float_range_is_none():
    """A coefficient past float range gives no guess, and the root refines
    without one."""
    digits = (1,) + (0,) * 998 + (1 << 2000,)  # a root near 4
    root = beta_root_finite(digits, Fraction(1, 2 ** 24))
    big = delta_rational(Fraction(2 * 10 ** 400 + 1, 2), Fraction(1, 2)).handle
    for rr in (root, big):
        assert beta._float_root(rr._poly, rr._j >> rr._K, 0) is None
    a, b, k = root.bracket
    assert k == 24 and beta._poly_sign(root.annihilator, a, k) < 0 < beta._poly_sign(
        root.annihilator, b, k)


@pytest.mark.parametrize("F", [finite_annihilator(bzb_word(2, 2, 5)),
                               periodic_annihilator(right_limit_word(Fraction(7, 5)))])
def test_a_wrong_seed_falls_back_to_the_unit_cell(F):
    plain = RefinableRoot(F, 2)
    plain.refine(Fraction(1, 2 ** 20))
    a, b, k = plain.bracket
    good = RefinableRoot(F, 2, (a - 5, b + 5, k))
    missing = RefinableRoot(F, 2, (b + 64, b + 72, k))  # wholly right of the root
    spanning = RefinableRoot(F, 2, ((2 << k) - (1 << (k - 1)), b, k))  # holds the integer 2
    assert good._K > 0
    unit = RefinableRoot(F, 2)  # the unit cell [2, 3], unrefined
    for rr in (missing, spanning):
        assert (rr._j, rr._K, rr.bracket[2]) == (unit._j, unit._K, unit.bracket[2]) == (2, 0, 0)
    for rr in (good, missing, spanning):
        assert rr.refine(Fraction(1, 2 ** 30)) == plain.refine(Fraction(1, 2 ** 30))


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


def test_lipschitz_hypothesis_is_refined_until_decided():
    """theta.hi within 10^-20 of Delta(golden), below it and above it: the
    first enclosure at IRRATIONAL_TOL straddles theta.hi, and refining Delta
    decides both ways."""
    L = delta_irrational(golden_cf(), Fraction(1, 10 ** 40)).enclosure.lo
    d = delta_irrational(golden_cf())
    order = lipschitz_order(d, Enclosure(Fraction(3, 2), L - Fraction(1, 10 ** 20)))
    assert 1 < order.hi and d.enclosure.lo > L - Fraction(1, 10 ** 20)
    with pytest.raises(PreconditionError, match="not certified"):
        lipschitz_order(delta_irrational(golden_cf()),
                        Enclosure(Fraction(3, 2), L + Fraction(1, 10 ** 20)))


def test_lipschitz_order_holds_the_ratio_of_the_endpoint_logs_near_theta_one():
    # theta = 1 + 2^-60: ln theta has the digits of log1p(2^-60), not 0
    d = delta_irrational(golden_cf())
    theta = 1 + Fraction(1, 1 << 60)
    order = lipschitz_order(d, Enclosure(theta, theta))
    with mp.workprec(200):
        ln_theta = mp.log1p(mp.mpf(2) ** -60)
        lo, hi = (mp.log(mp.mpf(e.numerator) / e.denominator) / ln_theta
                  for e in (d.enclosure.lo, d.enclosure.hi))
        assert mp.mpf(order.lo.numerator) / order.lo.denominator <= lo
        assert hi <= mp.mpf(order.hi.numerator) / order.hi.denominator
    assert order.hi - order.lo < order.lo * Fraction(1, 10 ** 10)


def test_runtime_runs_without_mpmath():
    # a fresh interpreter in which importing mpmath fails
    probe = ("import sys\n"
             "sys.modules['mpmath'] = None\n"
             "from fractions import Fraction\n"
             "from staircase import cli\n"
             "from staircase.delta import delta_irrational, lipschitz_order\n"
             "from staircase.diophantine import golden_cf\n"
             "from staircase.intervals import Enclosure\n"
             "three_halves = Enclosure(Fraction(3, 2), Fraction(3, 2))\n"
             "print(lipschitz_order(delta_irrational(golden_cf()), three_halves).lo > 1)\n"
             "for line in ('delta eval --preset golden', 'classify --preset alpha5',\n"
             "             'measure mu --preset alpha4 -N 4'):\n"
             "    assert cli.main(line.split()) == 0, line\n")
    env = {**os.environ, "PYTHONPATH": str(Path(staircase.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.startswith("True\n")


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


DEEP_CASES = pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(17, 12), Fraction(7, 3)])
DEEP_VALUES = pytest.mark.parametrize("value, annihilator", [(delta_rational, finite_annihilator),
                                                             (delta_right_limit, periodic_annihilator)])


def _assert_holds_polyroots_root(d, annihilator):
    """The enclosure, at most 2^-1000 wide, holds the one real root above 1
    of the annihilator that mpmath.polyroots finds at 1100 bits, with
    polyroots' own error bound."""
    assert d.enclosure.width <= Fraction(1, 1 << 1000)
    coeffs = annihilator(d.word)
    with mp.workprec(1100):
        roots, err = mp.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=1100,
                                  error=True)
        real = [r.real for r in roots if abs(r.imag) < mp.mpf(2) ** -900 and r.real > 1]
        lo = mp.mpf(d.enclosure.lo.numerator) / d.enclosure.lo.denominator
        hi = mp.mpf(d.enclosure.hi.numerator) / d.enclosure.hi.denominator
        assert err < mp.mpf(2) ** -1050 and len(real) == 1
        assert lo <= real[0] - err and real[0] + err <= hi


@DEEP_CASES
@DEEP_VALUES
def test_deep_enclosure_contains_polyroots_root(alpha, value, annihilator):
    """Differential oracle: one refinement to 2^-1000."""
    _assert_holds_polyroots_root(value(alpha, Fraction(1, 1 << 1000)), annihilator)


@DEEP_CASES
@DEEP_VALUES
def test_deep_enclosure_in_rounds_contains_polyroots_root(alpha, value, annihilator):
    """Differential oracle on the repeated path: from 2^-40 to 2^-1000 in
    refinements of 16 bits each, most served from a deeper certified cell."""
    d = value(alpha, Fraction(1, 1 << 40))
    for bits in range(56, 1001, 16):
        d.refine(Fraction(1, 1 << bits))
    _assert_holds_polyroots_root(d, annihilator)
