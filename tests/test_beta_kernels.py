"""Property tests: the integer dyadic kernels of ``staircase.beta`` against
``Fraction`` references."""

import math
import random
from fractions import Fraction
from functools import partial
from math import ceil, floor, gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircase import beta
from staircase.beta import (FILTER_WORK, FLOAT_BITS, GUARD_BITS, RefinableRoot,
                            _certified_root, _filtered_sign,
                            _head_length, _head_sign, _horner, _poly_sign, _refine_root_until,
                            _sign_kernel,
                            beta_root_finite, beta_root_periodic, digit_series_sign,
                            extremal_orbit_check, finite_annihilator, greedy_digits,
                            near_one_root, periodic_annihilator)
from staircase.analysis import _ladder_offset
from staircase.delta import StaircaseDigitStream, delta_rational, right_limit_word
from staircase.diophantine import presets
from staircase.errors import PreconditionError
from staircase.intervals import Enclosure, eval_poly
from staircase.words import PeriodicWord, bzb_word

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
    v = Fraction(0)
    for c in reversed(coeffs):
        v = v * x + c
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
    assert sign(rr.enclosure.lo) == 1 and sign(rr.enclosure.hi) == -1


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
    rr.refine(w / 32)
    assert rr.enclosure.width == w / 32
    _assert_certified(rr, lambda x: digit_series_sign((1, 1), x), w / 32)


def test_refine_rejects_nonpositive_tolerance():
    rr = beta_root_finite((1, 1), Fraction(1, 4))
    with pytest.raises(PreconditionError):
        rr.refine(Fraction(0))


# ---------------------------------------------------------------------------
# Sparse sign test and the verified Newton jump
# ---------------------------------------------------------------------------

sparse_polys = st.dictionaries(st.integers(0, 60), st.integers(-50, 50).filter(bool),
                               max_size=5)


@SETTINGS
@given(sparse_polys, st.integers(0, 8), st.integers(-(1 << 12), 1 << 12), scales)
@example({}, 0, 3, 1)
@example({0: -1, 40: 1, 41: -1}, 0, -5, 2)
def test_sparse_sign_matches_reference(terms, pad, m, k):
    coeffs = [0] * (max(terms, default=0) + 1 + pad)
    for i, c in terms.items():
        coeffs[i] = c
    expected = fraction_poly_sign(coeffs, Fraction(m, 1 << k))
    assert _poly_sign(sorted(terms.items(), reverse=True), m, k) == expected
    assert _sign_kernel(tuple(coeffs))(m, k) == expected


def _root_of(word):
    """(F, a_1) for a finite digit word or a periodic word with a nonzero period."""
    if isinstance(word, PeriodicWord):
        return periodic_annihilator(word), word[0]
    return finite_annihilator(word), word[0]


jump_words = st.one_of(
    st.lists(st.integers(0, 4), min_size=2, max_size=24).map(tuple).filter(
        lambda w: w[0] >= 1 and any(w[1:])),
    st.builds(lambda pre, per: PeriodicWord.make(tuple(pre), tuple(per)),
              st.lists(st.integers(0, 3), max_size=6),
              st.lists(st.integers(0, 3), min_size=1, max_size=6)).filter(
        lambda w: w[0] >= 1 and any(w.per)))


def _bisected(F, a1, K):
    rr = RefinableRoot(F, a1)
    rr._halve(K)
    return rr


@settings(max_examples=60, deadline=None)
@given(jump_words, st.integers(65, 400))
# These roots lie within 2^-146 and 2^-86 of a grid point: Newton's guess
# lands one cell off and the neighbour step brings it back.
@example(bzb_word(3, 20, 21), 130)  # Delta(62/21)
@example(bzb_word(3, 43, 44), 70)  # Delta(131/44)
def test_newton_jump_lands_on_the_bisection_cell(word, K):
    """From a 2^-8 cell, a Newton jump to 2^-K lands on bisection's cell."""
    F, a1 = _root_of(word)
    rr = RefinableRoot(F, a1)
    assume(rr.exact is None)
    rr._halve(8)
    rr._jump(K)
    assert rr.bracket == _bisected(F, a1, K).bracket
    a, b, k = rr.bracket
    assert k == K and b == a + 1
    assert _poly_sign(F, a, K) < 0 < _poly_sign(F, b, K)


@pytest.mark.parametrize("word", [(1, 1), (2, 0, 1, 1), bzb_word(2, 5, 13)])
def test_jump_from_a_coarse_cell_returns(word):
    """Below a 2^-8 start Newton's precision schedule bottoms out at 16 bits,
    so a jump from a 2^-4 cell ends, on the bisection cell."""
    F, a1 = _root_of(word)
    rr = RefinableRoot(F, a1)
    rr._halve(4)
    rr._jump(100)
    assert rr.bracket == _bisected(F, a1, 100).bracket


@pytest.mark.parametrize("cells_off", [-1, 1])
@pytest.mark.parametrize("word", [(1, 1), (2, 0, 1, 1), bzb_word(2, 5, 13)])
def test_jump_steps_to_the_neighbour_cell(word, cells_off):
    """From a 2^-8 cell, a guess one cell off still jumps: the neighbour
    step certifies the right cell without falling back to bisection."""
    F, a1 = _root_of(word)
    newton = beta._newton
    with mock.patch.object(beta, "_newton",
                           lambda F, x, p, P: newton(F, x, p, P) + (cells_off << GUARD_BITS)):
        rr = RefinableRoot(F, a1)
        rr._halve(8)
        rr._jump(150)
    assert rr.bracket == _bisected(F, a1, 150).bracket


@settings(max_examples=40, deadline=None)
@given(jump_words, st.integers(100, 300),
       st.one_of(st.integers(-4, 4), st.just(None), st.just(1 << 500), st.just(-(1 << 500))))
@example((2, 1, 1), 200, 2)
def test_wrong_newton_guess_still_certifies(word, K, cells_off):
    """A guess moved by some cells, far off, or missing still ends on the
    bisection cell: a neighbour step, the clamp, or bisection mends it."""
    F, a1 = _root_of(word)
    assume(RefinableRoot(F, a1).exact is None)
    newton = beta._newton

    def wrong(F, x, p, P):
        if cells_off is None:
            return None
        return newton(F, x, p, P) + (cells_off << GUARD_BITS)

    with mock.patch.object(beta, "_newton", wrong):
        rr = RefinableRoot(F, a1)
        rr.refine(Fraction(1, 1 << K))
    assert rr.bracket == _bisected(F, a1, K).bracket
    a, b, _ = rr.bracket
    assert _poly_sign(F, a, K) < 0 < _poly_sign(F, b, K)


@settings(max_examples=40, deadline=None)
@given(jump_words, st.integers(1, 120),
       st.sampled_from([None, "nan", -3, 3, "outside", "negative", "huge"]))
@example((2, 1, 1), 20, 3)  # 3 cells off at 2^-44, the scale it is certified at
@example((2, 1, 1), 80, -3)  # Newton from the moved guess
def test_wrong_float_guess_still_certifies(word, K, wrong):
    """A float guess that is missing, NaN, 3 cells off at scale 44, or outside
    the unit cell still ends on the bisection cell at every scale up to K:
    the neighbour step, the clamp, Newton, or the rule without a guess mends it."""
    F, a1 = _root_of(word)
    assume(RefinableRoot(F, a1).exact is None)
    a, _, _ = _bisected(F, a1, 44).bracket
    guesses = {None: None, "nan": math.nan, "outside": (a >> 44) + 7.5,
               "negative": -1.5, "huge": 1e300}
    guess = guesses[wrong] if wrong in guesses else math.ldexp(a + wrong + 0.5, -44)
    with mock.patch.object(beta, "_float_root", lambda F, m, k: guess):
        rr = RefinableRoot(F, a1)
        rr.refine(Fraction(1, 1 << K))
    assert rr.bracket == _bisected(F, a1, K).bracket
    a, b, _ = rr.bracket
    assert _poly_sign(F, a, K) < 0 < _poly_sign(F, b, K)
    for k in (K // 2, K + 1, 2 * K):  # later requests: shifts, or refined from the deep cell
        assert rr.refine(Fraction(1, 1 << k)) == _bisected(F, a1, max(k, K)).enclosure


def _float_guess_cases():
    """(F, a_1) for bzb and right-limit words (b <= 3, q <= 500, three p per
    q), near-one and other sparse words to degree 5100 and the golden
    stream's truncations of 1024 to 4096 letters, low and high."""
    for b in (1, 2, 3):
        for q in sorted({14, 20, *range(2, 501, 13)}):
            ps = [p for p in range(1, q) if gcd(p, q) == 1]
            for p in {ps[0], ps[len(ps) // 2], ps[-1]}:
                w = bzb_word(b, p, q)
                yield finite_annihilator(w), b
                yield periodic_annihilator(right_limit_word(Fraction(b - 1) + Fraction(p, q))), b
    for n in (2, 3, 10, 100, 1000, 3000, 5100):
        yield (-1,) + (0,) * (n - 2) + (-1, 1), 1
    for j in (30, 55, 80):  # sparse, with a last term of about 2^-(0.7 j) at the root
        yield finite_annihilator((1, 1) + (0,) * j + (1,)), 1
    stream = StaircaseDigitStream(presets()["golden"].cf)
    for m in (1024, 2048, 3072, 4096):
        digits = tuple(stream.digit(n) for n in range(1, m + 1))
        yield finite_annihilator(digits), 1
        yield periodic_annihilator(PeriodicWord.make(digits, (stream.b,))), 1


def test_float_guess_is_good_to_float_bits_and_five_more():
    """From the unit cell, the float guess lies within 2^-(FLOAT_BITS + 5) of
    the certified root, relative.  The least seen over 15,313 such roots was
    51.58 significant bits, at bzb_word(2, 1, 14), one of the cases here.  A
    looser guess would show only as fallbacks of the cell it certifies."""
    for F, a1 in _float_guess_cases():
        rr = RefinableRoot(F, a1)
        assert rr.exact is None and rr._K == 0
        x = Fraction(beta._float_root(rr._poly, rr._j, 0))
        enc = rr.refine(Fraction(1, 1 << 64))
        assert max(abs(x - enc.lo), abs(x - enc.hi)) <= enc.lo / (1 << (FLOAT_BITS + 5)), F[-8:]


def test_newton_guess_at_another_root_is_clamped():
    # x^3 - x^2 - 4x - 1 also rises through a root in (-2, -1); Newton started
    # at -3/2 finds it, and only the clamp keeps that cell from being certified.
    digits = (1, 4, 1)
    F = finite_annihilator(digits)
    newton = beta._newton
    with mock.patch.object(beta, "_newton", lambda F, x, p, P: newton(F, -3 << (p - 1), p, P)):
        rr = beta_root_finite(digits, Fraction(1, 1 << 200))
    assert rr.bracket == _bisected(F, 1, 200).bracket


@st.composite
def sparse_words(draw):
    """A word whose annihilator has at most a quarter nonzero coefficients,
    of degree up to about 600: 1 0^j 1, 1 0^i 1 0^j 1 or 1 0^i (1 0^j)^w."""
    i, j = draw(st.integers(0, 300)), draw(st.integers(20, 300))
    kind = draw(st.sampled_from(["two ones", "three ones", "periodic"]))
    if kind == "two ones":
        return (1,) + (0,) * j + (1,)
    if kind == "three ones":
        return (1,) + (0,) * i + (1,) + (0,) * j + (1,)
    return PeriodicWord.make((1,) + (0,) * i, (1,) + (0,) * j)


@settings(max_examples=30, deadline=None)
@given(sparse_words(), st.integers(1, 80))
@example((1,) + (0,) * 598 + (1,), 13)  # a near-one word refined to 1e-8
def test_sparse_jump_lands_on_the_bisection_cell(word, steps):
    """From the 2^-(bitlen(deg F) + 2) cell, a Newton jump over the nonzero
    terms lands on bisection's cell, however few the steps: it does not fall
    back."""
    F, a1 = _root_of(word)
    assert 4 * sum(map(bool, F)) <= len(F)
    start = (len(F) - 1).bit_length() + 2
    rr = RefinableRoot(F, a1)
    rr._halve(start)
    rr._jump(start + steps)
    assert rr.bracket == _bisected(F, a1, start + steps).bracket


def test_sparse_root_sign_test_budget():
    """near_one_root(3000, 1e-8) finds its unit cell [1, 2] with two sign
    tests, and two more certify the float guess's cell at 2^-44, of which
    the 2^-27 cell is a shift: 4 sign tests, where bisection alone spent 29.
    One more pays for a guess that lands in the neighbouring cell."""
    with mock.patch.object(beta, "_head_sign", wraps=beta._head_sign) as sign:
        enc = near_one_root(3000, Fraction(1, 10 ** 8))
    assert enc.width <= Fraction(1, 10 ** 8)
    assert sign.call_count <= 5, sign.call_count


@pytest.mark.parametrize("F, a1", [
    (finite_annihilator(bzb_word(2, 101, 300)), 2),
    ((-1,) + (0,) * 2998 + (-1, 1), 1),  # the near-one word, n = 3000
    (finite_annihilator((1,) + (0,) * 998 + (1 << 2000,)), 1),  # past float range: no guess
], ids=["bzb 2 101 300", "near-one 3000", "past float range"])
def test_root_without_a_float_guess_jumps_from_float_bits(F, a1):
    """With no float guess, a refinement to 2^-300 bisects the unit cell
    [n-1, n] to 2^-D, D = FLOAT_BITS - bitlen n, and jumps from there: at
    most D + 3 sign tests and one Newton run.  A jump from the unit cell
    itself is refused, and bisection would take all 300 steps."""
    with mock.patch.object(beta, "_float_root", lambda F, m, k: None), \
            mock.patch.object(beta, "_newton", wraps=beta._newton) as newton:
        rr = RefinableRoot(F, a1)
        assert rr.exact is None and rr._K == 0
        D = FLOAT_BITS - (rr._j + 1).bit_length()
        rr._sign = mock.Mock(wraps=rr._sign)
        rr.refine(Fraction(1, 1 << 300))
    assert rr.bracket == _bisected(F, a1, 300).bracket
    assert rr._sign.call_count <= D + 3, (rr._sign.call_count, D)
    assert newton.call_count == 1


# ---------------------------------------------------------------------------
# Repeated refinement: one certified deep cell, presented at each scale
# ---------------------------------------------------------------------------

refinable_words = st.one_of(jump_words, st.integers(3, 60).flatmap(lambda q: st.builds(
    bzb_word, st.integers(1, 3), st.sampled_from([p for p in range(1, q) if gcd(p, q) == 1]),
    st.just(q))))
# (use refine_steps, bits): refine by ``bits`` steps, or to a tolerance
# ``bits`` bits past (or, for bits < 0, short of) the bracket's width
refine_rounds = st.lists(st.tuples(st.booleans(), st.integers(-40, 40).filter(bool)),
                         min_size=1, max_size=8)
# cells by which Newton's guess is moved, or None for no guess
newton_faults = st.one_of(st.just(0), st.none(), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(refinable_words, refine_rounds, newton_faults)
@example(bzb_word(1, 41, 97), [(True, 30), (False, 8), (False, -20), (True, 40), (False, 8)], 0)
def test_repeated_refinement_ends_on_the_bisection_cells(word, rounds, fault):
    """After each round the bracket is bisection's cell at the same scale,
    also when Newton's guess is missing or some cells off: a jump that fails
    certifies nothing deeper."""
    F, a1 = _root_of(word)
    assume(RefinableRoot(F, a1).exact is None)
    newton = beta._newton

    def faulty(F, x, p, P):
        if fault is None:
            return None
        return newton(F, x, p, P) + (fault << GUARD_BITS)

    reference = RefinableRoot(F, a1)
    with mock.patch.object(beta, "_newton", faulty):
        rr = RefinableRoot(F, a1)
        K = 0
        for use_steps, bits in rounds:
            if use_steps:
                rr.refine(Fraction(1, 1 << (K + max(bits, 0))))
                K += max(bits, 0)
            else:
                rr.refine(Fraction(1, 1 << max(K + bits, 0)))
                K = max(K, K + bits)
            reference._halve(K - reference.bracket[2])
            assert rr.bracket == reference.bracket
            a, b, k = rr.bracket
            assert (k, b) == (K, a + 1) and _poly_sign(F, a, k) < 0 < _poly_sign(F, b, k)


def test_repeated_refinement_sign_test_budget():
    """8-bit rounds from 2^-30 to 2^-206 are served from deep cells that
    jumps certify: a few sign tests each, not one per bit (176 in all)."""
    rr = beta_root_finite(bzb_word(1, 41, 97), Fraction(1, 1 << 30))
    calls = []
    sign = rr._sign
    rr._sign = lambda m, k: calls.append(k) or sign(m, k)
    for bits in range(38, 207, 8):
        rr.refine(Fraction(1, 1 << bits))
    assert rr.bracket[2] == 206
    assert len(calls) <= 24, len(calls)


# ---------------------------------------------------------------------------
# The head sign test of long words
# ---------------------------------------------------------------------------


@st.composite
def long_annihilators(draw):
    """(F, a_1): the annihilator of a random finite or eventually periodic
    word of 65 to 800 letters over {0, ..., top}, a_1 >= 1."""
    q = draw(st.integers(65, 800))
    top = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    digits = [rng.randint(0, top) for _ in range(q)]
    digits[0] = max(digits[0], 1)
    if draw(st.booleans()):
        return finite_annihilator(digits), digits[0]
    split = rng.randint(0, q - 1)
    w = PeriodicWord.make(tuple(digits[:split]), tuple(digits[split:]))
    assume(any(w.per))
    return periodic_annihilator(w), w[0]


def _reference_cell(F, a1, depth):
    """The cell [a, b]/2^k, k = depth, that holds the root, found with full
    Horner sign tests only; None for an integer root."""
    n = a1
    while _poly_sign(F, n, 0) < 0:
        n += 1
    if _poly_sign(F, n, 0) == 0:
        return None
    a, b, k = n - 1, n, 0
    for _ in range(depth):
        m = a + b
        a, b = (m, b << 1) if _poly_sign(F, m, k + 1) < 0 else (a << 1, m)
        k += 1
    return a, b, k


@st.composite
def long_sparse_annihilators(draw):
    """(F, a_1): the annihilator of a finite or eventually periodic word of
    65 to 800 letters whose nonzero digits, in {1, ..., top}, lie 4 to 20
    letters apart, so that F goes to the sparse sign test."""
    q = draw(st.integers(65, 800))
    top = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    digits = [0] * q
    n = 0
    while n < q:
        digits[n] = rng.randint(1, top)
        n += rng.randint(4, 20)
    if draw(st.booleans()):
        return finite_annihilator(digits), digits[0]
    w = PeriodicWord.make((digits[0],), tuple(digits[1:]))
    assume(any(w.per))
    return periodic_annihilator(w), w[0]


@settings(max_examples=25, deadline=None)
@given(long_annihilators(), st.integers(0, 48), st.integers(0, 64), st.integers(0, 1 << 70))
# x = 1 + 2^-20: the estimate of the head length gives up at once
@example((finite_annihilator(bzb_word(1, 40, 97)), 1), 10, 20, 1 << 20)
def test_long_word_sign_matches_reference(root, depth, k, draw_m):
    """Beside the root (the bisection midpoint and the points 1 and 3 cells
    either side of it) and at a random point x = m/2^k in (0, 12)."""
    _assert_signs_beside_the_root(root, depth, k, draw_m)


@settings(max_examples=25, deadline=None)
@given(long_sparse_annihilators(), st.integers(0, 48), st.integers(0, 64),
       st.integers(0, 1 << 70))
def test_long_sparse_word_sign_matches_reference(root, depth, k, draw_m):
    """The sparse test, through its head at these scales, at the same points."""
    F, _ = root
    assert isinstance(_sign_kernel(F).args[0][0], tuple)  # the term list
    _assert_signs_beside_the_root(root, depth, k, draw_m)


def _assert_signs_beside_the_root(root, depth, k, draw_m):
    F, a1 = root
    sign = _sign_kernel(F)
    cell = _reference_cell(F, a1, depth)
    assume(cell is not None)
    a, b, d = cell
    for off in (0, -1, 1, -3, 3):
        m = a + b + off
        assert sign(m, d + 1) == fraction_poly_sign(F, Fraction(m, 1 << (d + 1)))
    m = 1 + draw_m % (12 << k)
    assert sign(m, k) == fraction_poly_sign(F, Fraction(m, 1 << k))


@settings(max_examples=25, deadline=None)
@given(st.one_of(long_annihilators(), long_sparse_annihilators()), st.integers(0, 48))
def test_head_sign_over_coefficients_and_terms_matches_reference(root, depth):
    """``_head_sign`` over F's coefficient tuple and over its descending
    list of nonzero terms, beside the root at scales k < k_head, where the
    head test runs."""
    F, a1 = root
    _, C, k_head = _sign_kernel(F).args
    cell = _reference_cell(F, a1, min(depth, ceil(k_head) - 2))
    assume(cell is not None)
    a, b, d = cell
    for off in (0, -1, 1, -3, 3):
        m = a + b + off
        expected = fraction_poly_sign(F, Fraction(m, 1 << (d + 1)))
        for G in (F, descending_terms(F)):
            assert _head_sign(G, C, k_head, m, d + 1) == expected


def _greedy_digits_of_one(x: Fraction, q: int):
    """The first q digits of the greedy expansion of 1 in base x > 1."""
    r, out = Fraction(1), []
    for _ in range(q):
        r *= x
        out.append(r.numerator // r.denominator)
        r -= out[-1]
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(65, 400), st.integers(1, 8), st.integers(0, 1 << 16))
@example(3, 80, 3, 0)  # x = 1 + 2^-3, where the estimate gives up at once
@example(5, 300, 1, 0)  # x = 1 + 2^-5
def test_sign_of_a_root_beside_a_coarse_point(k, q, bump, draw_m):
    """Words whose root lies within about x^-q above the coarse point
    x = m/2^k: the greedy expansion of 1 in base x, its last digit raised by
    ``bump``.
    Every head of the word sums to less than 1 and the whole word to more,
    so each truncated sign is wrong and only the tail bound, with C taken
    over the coefficients left out, sends the test on to the full word."""
    m = (1 << k) + 1 + draw_m % (3 << k)
    x = Fraction(m, 1 << k)
    digits = _greedy_digits_of_one(x, q)
    assume(any(digits[1:]))
    digits[-1] += bump
    F = finite_annihilator(digits)
    assert fraction_poly_sign(F, x) == -1
    assert _sign_kernel(F)(m, k) == -1
    C = max(map(abs, F[:-1]))
    assert _head_sign(F, C, float("inf"), m, k) == -1


@pytest.mark.parametrize("m", [268, 269, 270])
@pytest.mark.parametrize("bump", [0, 1, 2])
def test_a_head_that_falls_through_runs_one_filtered_full_test(m, bump):
    """The words of ``test_sign_of_a_root_beside_a_coarse_point`` at k = 8
    and q = 500, where the head of n < q coefficients has n * k under
    FILTER_WORK and deg F * k is not: the head test falls through, and the
    full test's filter decides, with no exact pass over all of F."""
    k, q = 8, 500
    x = Fraction(m, 1 << k)
    digits = _greedy_digits_of_one(x, q)
    digits[-1] += bump
    F = finite_annihilator(digits)
    C = max(map(abs, F[:-1]))
    n = _head_length(q, C, float("inf"), m, k)
    assert n * k < FILTER_WORK <= q * k and _filtered_sign(F, m, k) != 0
    with mock.patch.object(beta, "_exact", wraps=beta._exact) as exact:
        assert _head_sign(F, C, float("inf"), m, k) == fraction_poly_sign(F, x)
    assert [c.args[3:] for c in exact.call_args_list] == [(q - n,)]


@pytest.mark.parametrize("k", [0, 1, 3])
def test_tail_bound_takes_the_largest_coefficient_left_out(k):
    """x = 2 = (2 << k)/2^k and the word 1^19 0 1^(G-21) D^(G+10), D = 2^(G-20):
    its heads inside the ones sum to within 2^-19 of 1 from below, and only
    the tail's large digits D take the sum past 1.  A tail bound over the
    head's coefficients (at most 1) would certify the wrong sign."""
    for G in range(22, 64):
        D = 1 << (G - 20)
        digits = [1] * 19 + [0] + [1] * (G - 21) + [D] * (G + 10)
        F = finite_annihilator(digits)
        assert fraction_poly_sign(F, Fraction(2)) == -1
        assert _sign_kernel(F)(2 << k, k) == -1


def _greedy_digits_short_of_one(m: int, k: int, n: int):
    """The greedy digits a_1..a_n of 1 - x^-n in base x = m/2^k in (1, 2):
    their sum sum a_i x^-i falls short of 1 by x^-n (1 + r), 0 <= r < 1.
    The remainder after i digits is P / (m^n 2^(ki))."""
    D = m ** n
    P, out = D - (1 << (k * n)), []
    for i in range(1, n + 1):
        P *= m
        out.append(int(P >= D << (k * i)))
        P -= out[-1] * (D << (k * i))
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_tail_bound_divides_by_x_minus_one(k):
    """x = 1 + 2^-k and a word of 0/1 digits: the greedy digits of 1 - x^-n,
    n the head length at x, then n ones that take the sum past 1.  The head
    polynomial's value G = 1 + r lies within the factor x/(x - 1) of the
    tail bound, G (x - 1) <= C = 1 < G x, so a tail bound without the factor
    x - 1 would certify the head's wrong sign."""
    m = (1 << k) + 1
    n = _head_length(1 << 20, 1, float("inf"), m, k)
    F = finite_annihilator(_greedy_digits_short_of_one(m, k, n) + [1] * n)
    A = beta._exact(F, m, k, n)  # 2^(kn) G(x)
    assert abs(A) * (m - (1 << k)) <= 1 << (k * (n + 1)) < abs(A) * m
    assert fraction_poly_sign(F, Fraction(m, 1 << k)) == -1
    for G in (F, descending_terms(F)):
        assert _head_sign(G, 1, float("inf"), m, k) == -1


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sparse_tail_bound_takes_the_largest_coefficient_left_out(k):
    """x = 2 = (2 << k)/2^k and the sparse word with a_1 = 1,
    a_20 = 2^19 - 1, a_(G-1) = 1 and a_G = D = 2^(G-20): its head through
    a_(G-1) sums to within 2^-20 of 1 from below, and only the last digit
    takes the sum past 1.  The head test stops there, and a tail bound over
    the head's coefficients (at most 2^19) would certify the wrong sign."""
    for G in range(42, 90):
        digits = [0] * G
        digits[0], digits[19], digits[G - 2], digits[G - 1] = 1, (1 << 19) - 1, 1, 1 << (G - 20)
        F = finite_annihilator(digits)
        assert fraction_poly_sign(F, Fraction(2)) == -1
        assert _sign_kernel(F)(2 << k, k) == -1


# ---------------------------------------------------------------------------
# The fixed-point filter in front of the deep exact sign tests
# ---------------------------------------------------------------------------

FILTERED = settings(max_examples=10, deadline=None, derandomize=True)


def dyadic_fraction_sign(F, m: int, k: int) -> int:
    return fraction_poly_sign(F, Fraction(m, 1 << k))


def power_sum_sign(F, m: int, k: int) -> int:
    """The sign of F at m/2^k, as ``fraction_poly_sign`` gives it, from the
    power sum of F's nonzero terms over the common denominator
    2^(k deg F): no Horner and no ``Fraction``, so it stays fast for the
    sparse words of thousands of letters."""
    q = len(F) - 1
    v = sum(c * m ** i << k * (q - i) for i, c in enumerate(F) if c)
    return (v > 0) - (v < 0)


def descending_terms(F):
    """F's nonzero terms (i, c_i) by descending power, as the sparse kernel
    and ``_filtered_sign`` take them for any F."""
    return [(i, c) for i, c in reversed(list(enumerate(F))) if c]


def _assert_filter_agrees(F, m, k, reference):
    """The kernel's verdict is the reference, and the filter's, over the
    coefficients and over the terms, is too when it gives one (0 means
    undecided)."""
    ref = reference(F, m, k)
    assert _sign_kernel(F)(m, k) == ref
    assert _filtered_sign(F, m, k) in (0, ref)
    assert _filtered_sign(descending_terms(F), m, k) in (0, ref)


@FILTERED
@given(st.integers(16, 256), st.integers(1, 9), st.integers(0, 1 << 32), st.integers(0, 1000))
@example(256, 3, 0, 156)
@example(40, 1, 1, 1000)
@example(38, 1, 1, 842)
def test_filter_agrees_beside_long_dense_roots(q, top, word_seed, k):
    """At the ends of the root's cell at scale k and at their midpoint,
    against Fraction Horner: deg F * k from FILTER_WORK, where the filter
    runs, to 40000, where one Fraction reference takes about 15 ms."""
    rng = random.Random(word_seed)
    digits = [rng.randint(0, top) for _ in range(q)]
    digits[0] = max(digits[0], 1)
    assume(digits[0] > 1 or any(digits[1:]))
    k = max(-(-FILTER_WORK // q), min(k, 40000 // q))
    rr = beta_root_finite(digits, Fraction(1, 1 << k))
    assume(rr.exact is None)
    F = finite_annihilator(digits)
    a, b, _ = rr.bracket
    for m, K in ((a, k), (b, k), (a + b, k + 1)):
        _assert_filter_agrees(F, m, K, dyadic_fraction_sign)
        assert _poly_sign(F, m, K) == dyadic_fraction_sign(F, m, K)


@FILTERED
@given(st.integers(2, 5100), st.integers(1, 64), st.integers(-3, 3))
@example(5100, 64, 0)
@example(3000, 85, 1)
def test_filter_agrees_beside_near_one_roots(n, k, off):
    """The near-one words 1 0^(n-2) 1 at points 2^-k apart beside the root."""
    k = max(k, -(-FILTER_WORK // n))
    F = finite_annihilator((1,) + (0,) * (n - 2) + (1,))
    enc = near_one_root(n, Fraction(1, 1 << k))
    a = enc.lo.numerator << (k - enc.lo.denominator.bit_length() + 1)
    for m in (a + off, a + 1 + off):
        _assert_filter_agrees(F, m, k, power_sum_sign)


@FILTERED
@given(long_sparse_annihilators(), st.integers(0, 200), st.integers(-3, 3))
def test_filter_agrees_beside_long_sparse_roots(root, k, off):
    """The sparse words of 65 to 800 letters at points 2^-k apart beside the root."""
    F, a1 = root
    assert isinstance(_sign_kernel(F).args[0][0], tuple)  # the term list
    k = max(k, -(-FILTER_WORK // (len(F) - 1)))
    rr = _certified_root(F, a1, Fraction(1, 1 << k), None)
    assume(rr.exact is None)
    a, b, _ = rr.bracket
    for m in (a + off, b + off):
        _assert_filter_agrees(F, m, k, power_sum_sign)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(12, 40), st.integers(0, 1 << 16), st.integers(0, 4))
@example(16, 0, 0)
@example(40, 1, 0)
def test_filter_defers_where_the_dense_value_is_tiny(k, draw_m, bump):
    """The greedy words of ``test_sign_of_a_root_beside_a_coarse_point`` at
    x = m/2^k in [3/2, 4), long enough that x^q dwarfs 2^(k + 40): F(x) is
    the greedy remainder minus ``bump``, under 5 in size, far inside the
    filter's error bound, so it is undecided and the exact test runs.  For
    bump = 0, F(x) >= 0 while the floor products pull the accumulator down."""
    m = (3 << (k - 1)) + draw_m % (5 << (k - 1))
    x = Fraction(m, 1 << k)
    q = max(-(-FILTER_WORK // k), 2 * k + 100)
    digits = _greedy_digits_of_one(x, q)
    digits[-1] += bump
    F = finite_annihilator(digits)
    assert _filtered_sign(F, m, k) == _filtered_sign(descending_terms(F), m, k) == 0
    with mock.patch.object(beta, "_exact", wraps=beta._exact) as exact:
        assert _poly_sign(F, m, k) == fraction_poly_sign(F, x)
    assert exact.called


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(2, 400), st.integers(0, 1 << 64), st.integers(-1, 1))
@example(1, 4000, 1, 1)
@example(24, 3, 0, 0)  # x^2 is exact at the filter's scale, x^3 = x * x^2 is not
def test_filter_defers_where_the_sparse_value_is_tiny(k, n, draw_m, s):
    """F = 2^(kn) X^n - m^n + s at its zero's neighbourhood x = m/2^k, so
    F(x) = s: the power x^n that the filter rounds outward carries the
    whole cancellation.  With m odd, x^n has kn fractional bits; past the
    filter's p = k + 32 + bitlen(n), it is undecided."""
    m = (1 << k) + 1 + 2 * (draw_m % (3 << (k - 1)))  # odd: no power of x is exact
    terms = [(n, 1 << (k * n)), (0, s - m ** n)]
    verdict = _filtered_sign(terms, m, k)
    assert verdict in (0, s)
    if k * n > k + 32 + n.bit_length():
        assert verdict == 0
    assert _poly_sign(terms, m, k) == s


def _assert_head_path_filters(F, m: int, k: int) -> None:
    """F's kernel takes the head path at m/2^k, with a head of n < deg F
    coefficients and n * k >= FILTER_WORK, where ``_head_sign`` filters."""
    sign = _sign_kernel(F)
    assert sign.func is _head_sign
    _, C, k_head = sign.args
    q = len(F) - 1
    n = _head_length(q, C, k_head, m, k)
    assert n is not None and n < q and n * k >= FILTER_WORK


def _filtered_kernel_sign(F, m: int, k: int):
    """The kernel's sign of F at m/2^k and whether it called ``_filtered_sign``."""
    with mock.patch.object(beta, "_filtered_sign", wraps=beta._filtered_sign) as filtered:
        s = _sign_kernel(F)(m, k)
    return s, filtered.called


@FILTERED
@given(st.sampled_from(["golden", "sqrt2m1", "e"]), st.booleans(), st.integers(0, 1 << 16),
       st.integers(-3, 3))
@example("golden", False, 0, 0)
@example("e", True, 1 << 16, 3)
def test_head_filter_agrees_beside_series_truncation_roots(name, periodic, draw_k, off):
    """The 300-letter truncations of the series roots, a_1..a_300 0^w and
    a_1..a_300 M^w, beside their roots at the scales k < k_head where the
    head is long enough for the filter, n * k >= FILTER_WORK, up to
    deg F * k = 40000 for the Fraction reference."""
    stream = StaircaseDigitStream(presets()[name].cf)
    digits = tuple(stream.digit(n) for n in range(1, 301))
    if periodic:
        F = periodic_annihilator(PeriodicWord.make(digits, (stream.b,)))
    else:
        F = finite_annihilator(digits)
    q, x = len(F) - 1, beta_root_finite(digits, Fraction(1, 1 << 20)).enclosure.lo
    _, C, k_head = _sign_kernel(F).args
    heads = ((k, _head_length(q, C, k_head, floor(x * (1 << k)), k))
             for k in range(1, min(ceil(k_head) - 1, 40000 // q)))
    ks = [k for k, n in heads if n is not None and 10 * n * k >= 11 * FILTER_WORK]
    k = ks[draw_k % len(ks)]
    a, b, _ = _certified_root(F, digits[0], Fraction(1, 1 << k), None).bracket
    for m, K in ((a + off, k), (b + off, k), (a + b, k + 1)):
        _assert_head_path_filters(F, m, K)
        s, filtered = _filtered_kernel_sign(F, m, K)
        assert s == dyadic_fraction_sign(F, m, K)
        assert filtered


@pytest.mark.parametrize("k", [72, 96, 160])
def test_head_filter_defers_where_the_value_is_tiny(k):
    """The greedy word of 1 in base x = m/2^k near 5/2, 300 letters, its last
    digit raised by 1: F(x) = r - 1 for the greedy remainder r in [0, 1),
    far inside the filter's error bound.  The filter defers, and the head
    loop decides -1; a head test that took the filter's 0 would be wrong."""
    m = (5 << (k - 1)) + 1
    x = Fraction(m, 1 << k)
    digits = _greedy_digits_of_one(x, 300)
    digits[-1] += 1
    F = finite_annihilator(digits)
    _assert_head_path_filters(F, m, k)
    assert _filtered_sign(F, m, k) == 0
    assert _filtered_kernel_sign(F, m, k) == (-1, True)
    assert fraction_poly_sign(F, x) == -1


@pytest.mark.parametrize("k, n, C", [(4, 11, 1), (4, 14, 3), (5, 10, 2), (6, 8, 1)])
def test_filtered_head_verdict_just_inside_the_tail_bound(k, n, C):
    """x = 1 + 2^-k and the head G = (X - 1)^n - C 2^k, so that
    |G(x)| (x - 1) = C - 2^-(k(n+1)) lies just inside the tail bound C.  The
    tail C (X^(t-1) + ... + 1), t the least with x^t > C 2^(k(n+1)), takes
    F = X^t G + tail to the sign opposite G's, beside F's root.  The floored
    products carry the filter's |acc| past 2^p |G(x)|, so only the filter's
    error e keeps it from certifying G's sign for F."""
    m = (1 << k) + 1
    G = [math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]
    G[0] -= C << k
    t = 1
    while m ** t <= C << k * (n + 1 + t):
        t += 1
    F = [C] * t + G
    assert power_sum_sign(F, m, k) == 1 == -power_sum_sign(G, m, k)
    assert _filtered_sign(G, m, k, C) in (0, 1)
    assert _filtered_sign(G, m, k) == -1  # G's own sign, with no tail bound


def _newton_head_cases():
    """(F, a_1, whether Newton's head at 416 bits is shorter than F): long
    bzb and right-limit words, b = 1, 2 and 2^20 (C = 2^20), and words whose
    last digit, 2^300 or 2^2000, is far larger than the root near 4, so that
    the head is all of F only because it counts log2 C."""
    for b, p, q in ((1, 377, 987), (1, 610, 1597), (2, 500, 1001), (1 << 20, 37, 100)):
        yield finite_annihilator(bzb_word(b, p, q)), b, True
        yield periodic_annihilator(right_limit_word(Fraction(b - 1) + Fraction(p, q))), b, True
    for j, D in ((298, 1 << 300), (998, 1 << 2000)):
        yield finite_annihilator((1,) + (0,) * j + (D,)), 1, False


@pytest.mark.parametrize("F, a1, short", list(_newton_head_cases()))
def test_newton_head_guess_is_good_to_its_precision(F, a1, short):
    """From the 2^-40 cell, Newton to P = 400 + GUARD_BITS bits solves its
    head, shorter than F on the Christoffel words, yet lies within
    2^-(P - GUARD_BITS) of the certified root: the head counts log2 C."""
    rr = RefinableRoot(F, a1)
    assert rr.exact is None
    rr._halve(40)
    a, _, k = rr.bracket
    P = 400 + GUARD_BITS
    x = beta._newton(rr._poly, 2 * a + 1, k + 1, P)
    assert (_head_length(len(F) - 1, rr._poly[1], math.inf, x, P) is not None) == short
    enc = rr.refine(Fraction(1, 1 << (P + 8)))
    assert max(abs(Fraction(x, 1 << P) - enc.lo), abs(Fraction(x, 1 << P) - enc.hi)) \
        <= Fraction(1, 1 << (P - GUARD_BITS))


def _probe_ladder_words():
    """(F, a_1) of probe slopes c -/+ _ladder_offset(c, N) around c = 3/7,
    1/3, 2/5 and 3/4 whose words have 300 to 2,000 letters, and the right
    limits of some of them."""
    seen = set()
    for c in (Fraction(3, 7), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4)):
        for side in ("below", "above"):
            for N in range(c.denominator, 2000):
                off = _ladder_offset(c, N, side)
                alpha = c - off if side == "below" else c + off
                if 300 <= alpha.denominator <= 2000 and alpha not in seen:
                    seen.add(alpha)
                    yield finite_annihilator(bzb_word(1, alpha.numerator, alpha.denominator)), 1
                    if len(seen) % 3 == 0:
                        yield periodic_annihilator(right_limit_word(alpha)), 1


def test_growing_prefix_float_guess_is_good_to_float_bits_and_five_more():
    """From the unit cell [1, 2], y = 1 and every power of y counts, so the
    dense float start reads a prefix of 64 powers, doubled at each step, and
    settles only on a step that read all it wanted: on the probe ladders'
    words of 300 to 2,000 letters its guess lies within 2^-(FLOAT_BITS + 5)
    of the certified root, relative, as ``_float_guess_cases``' do."""
    cases = list(_probe_ladder_words())
    assert len(cases) >= 40
    for F, a1 in cases:
        rr = RefinableRoot(F, a1)
        assert rr.exact is None and (rr._j, rr._K) == (1, 0) and not isinstance(rr._poly[0][0], tuple)
        x = Fraction(beta._float_root(rr._poly, rr._j, 0))
        enc = rr.refine(Fraction(1, 1 << 64))
        assert max(abs(x - enc.lo), abs(x - enc.hi)) <= enc.lo / (1 << (FLOAT_BITS + 5)), len(F)


@pytest.mark.parametrize("n", [2, 3, 17, 64, 255, 1000, 2047, 3001, 4096, 5100])
def test_near_one_root_equals_the_root_of_its_word(n):
    """``near_one_root`` builds x^n - x^(n-1) - 1 itself; the enclosure is
    the one of the word 1 0^(n-2) 1."""
    tol = Fraction(1, 10 ** 8)
    word = (1,) + (0,) * (n - 2) + (1,)
    assert near_one_root(n, tol) == beta_root_finite(word, tol).enclosure


@pytest.mark.parametrize("n", [1, 0, -3])
def test_near_one_root_needs_n_at_least_two(n):
    with pytest.raises(PreconditionError):
        near_one_root(n)


# ---------------------------------------------------------------------------
# The orbit layer against a reference that runs ``_horner`` afresh
# ---------------------------------------------------------------------------


def _reference_modulus(root):
    return root.annihilator if root.exact is None else (-int(root.exact), 1)


def _reduce(coeffs, modulus):
    """Reduce an integer polynomial modulo a monic integer polynomial."""
    d = len(modulus) - 1
    while len(coeffs) > d:
        lead = coeffs.pop()
        if lead:
            for i in range(d):
                coeffs[len(coeffs) - d + i] -= lead * modulus[i]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _sub_const(coeffs, c):
    return [(coeffs[0] if coeffs else 0) - c] + coeffs[1:]


def _reference_step(r, root, den):
    """One orbit step with ``_horner`` over the whole reduced r at every use."""
    F = _reference_modulus(root)
    r = _reduce([0] + r, F)
    if not r:
        return 0, r

    def floor():
        lo, hi, s = _horner(r, *root.bracket)
        f_lo, f_hi = (lo >> s) // den, (hi >> s) // den
        if f_lo == f_hi:
            return f_lo
        if f_hi == f_lo + 1 and not _reduce(_sub_const(r, f_hi * den), F):
            return f_hi
        return None

    digit = _refine_root_until(floor, root, "greedy digit")
    if digit:
        r = _reduce(_sub_const(r, digit * den), F)
    return digit, r


def _reference_greedy(root, n, x):
    if not root.enclosure.lo > 1:
        root.refine(Fraction(1, 16))
    r, out = ([x.numerator] if x else []), []
    for _ in range(n):
        digit, r = _reference_step(r, root, x.denominator)
        if r or digit:
            out.append(digit)
        if not r:
            return tuple(out), True
    return tuple(out), False


def _reference_band(root, k_max):
    """(k, value, verdict) of each point of ``extremal_orbit_check``."""
    F = _reference_modulus(root)
    r, out = [1], []
    for k in range(1, k_max + 1):
        _, r = _reference_step(r, root, 1)
        if not r:
            out.append((k, Enclosure.exact(Fraction(0)), "zero"))
            break
        upper = _reduce(_sub_const(r, 1), F)
        lower = _reduce(_sub_const(_reduce([0] + upper, F), -1), F)

        def band():
            up_lo, up_hi, _ = _horner(upper, *root.bracket)
            lo_lo, lo_hi, _ = _horner(lower, *root.bracket)
            if up_hi < 0 and lo_lo > 0:
                return "interior"
            if up_lo > 0 or lo_hi < 0:
                return "outside"
            return None

        verdict = ("boundary-high" if not upper else "boundary-low" if not lower
                   else _refine_root_until(band, root, "orbit band verdict"))
        lo, hi, s = _horner(r, *root.bracket)
        out.append((k, Enclosure(Fraction(lo, 1 << s), Fraction(hi, 1 << s)), verdict))
    return out


def _orbit_cases():
    """(make_root, n, x): b z b words and their right limits at q <= 24,
    starts x = p/(q+1), and a few short words, two of them with an integer
    root; roots at 2^-8, which refine mid-orbit, and at 2^-24."""
    rng = random.Random(20261019)
    for bits in (8, 24):
        tol = Fraction(1, 1 << bits)
        for _ in range(12):
            q = rng.randrange(3, 25)
            p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
            b = rng.randrange(1, 4)
            word = bzb_word(b, p, q)
            w = PeriodicWord.make(word[:1], word[1:] + (word[0] - 1,))
            yield partial(beta_root_finite, word, tol), q + 2, Fraction(1)
            yield partial(beta_root_periodic, w, tol), len(w.pre) + 3 * len(w.per), Fraction(1)
            yield partial(beta_root_finite, word, tol), q + 2, Fraction(p, q + 1)
        for word in [(1, 2), (2, 3), (2, 0, 1), (1, 0, 0, 1), (3, 1, 2)]:
            yield partial(beta_root_finite, word, tol), 8, Fraction(1)


def test_orbit_layer_matches_a_fresh_horner_reference():
    """Carried intervals are bit for bit the fresh ones: the same digits,
    verdicts, orbit values and root brackets, through reductions modulo F
    (right limits, orbits past deg F) and through refinements mid-orbit."""
    moved = 0
    for make_root, n, x in _orbit_cases():
        root, reference = make_root(), make_root()
        start = root.bracket
        assert greedy_digits(root, n, x) == _reference_greedy(reference, n, x), (n, x)
        assert root.bracket == reference.bracket
        points = [(p.k, p.value, p.verdict) for p in extremal_orbit_check(root, n)]
        assert points == _reference_band(reference, n), n
        assert root.bracket == reference.bracket
        moved += root.bracket != start
    assert moved >= 10  # refinements moved the bracket in many orbits


def test_carried_orbit_intervals_bound_the_fresh_horner_passes():
    """The 960 orbit steps of 24 round trips and band checks at q = 20 run
    ``_horner`` afresh only where a reduction or a refinement needs it: 166
    times.  An interval compared by identity with the bracket, or never
    carried, passes the other tests and runs it many times more."""
    cases = [delta_rational((b - 1) + Fraction(p, 20), Fraction(1, 2 ** 24))
             for b in (1, 2, 3) for p in range(1, 20) if gcd(p, 20) == 1]
    with mock.patch.object(beta, "_horner", wraps=beta._horner) as horner:
        for d in cases:
            assert greedy_digits(d.handle, 22) == (d.word, True), d.slope
            verdicts = [pt.verdict for pt in extremal_orbit_check(d.handle, 21)]
            assert verdicts == ["interior"] * 19 + ["zero"], d.slope
    assert horner.call_count <= 166  # a bound that may only be tightened
