"""Certified roots of digit series and greedy expansions."""

from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircase import beta
from staircase.beta import (
    BetaHandle,
    RefinableRoot,
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
from staircase.delta import StaircaseDigitStream, delta_rational, delta_right_limit
from staircase.diophantine import sqrt2_minus_1_cf
from staircase.errors import CertificationError, PreconditionError
from staircase.intervals import Enclosure, refine_until
from staircase.words import PeriodicWord, is_parry_admissible, lex_compare

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


def test_series_root_refines_a_coarse_pair_whose_gap_is_within_tol():
    """The stream 1 1 1 ... under max digit 2^15, from m0 = 16, at tol =
    5/2^51: the pair at m = 64 is built coarse, to w^2 2^-GUARD_BITS > tol/4,
    and its enclosures lie 0.4 tol apart.  A gap within tol is refined to
    tol/4 at once, so m = 64 is the last truncation; a gap left unrefined
    (a threshold of tol/8) would take m on to 128."""
    tol, M = Fraction(5, 1 << 51), 1 << 15
    sr = SeriesRoot(lambda n: 1, M, m0=16)
    with mock.patch.object(SeriesRoot, "_build", autospec=True,
                           side_effect=SeriesRoot._build) as build:
        assert sr.refine(tol).width <= tol
    assert [m for m, _ in sr.history] == [16, 32, 64]
    coarse = build.call_args.args[1]
    assert coarse > tol / 4
    low = beta_root_finite((1,) * 64, coarse)
    high = beta_root_periodic(PeriodicWord.make((1,) * 64, (M,)), coarse)
    assert tol / 8 < high.enclosure.lo - low.enclosure.hi <= tol


def test_series_root_refines_a_coarse_pair_whose_gap_is_over_half_tol():
    """The staircase stream of sqrt(2) - 1 under max digit 2^14, from m0 = 32,
    at tol = 2/10^22: the coarse pair at m = 128 lies 0.53 tol apart.  A gap
    within tol is refined to tol/4 at once, so m = 128 is the last truncation;
    a gap left unrefined (a threshold of tol/2) would take m on to 256."""
    tol, M = Fraction(2, 10 ** 22), 1 << 14
    stream = StaircaseDigitStream(sqrt2_minus_1_cf())
    sr = SeriesRoot(stream.digit, M, m0=32)
    with mock.patch.object(SeriesRoot, "_build", autospec=True,
                           side_effect=SeriesRoot._build) as build:
        assert sr.refine(tol).width <= tol
    assert [m for m, _ in sr.history] == [32, 64, 128]
    coarse = build.call_args.args[1]
    assert coarse > tol / 4
    digits = tuple(stream.digit(n) for n in range(1, 129))
    low = beta_root_finite(digits, coarse)
    high = beta_root_periodic(PeriodicWord.make(digits, (M,)), coarse)
    assert tol / 2 < high.enclosure.lo - low.enclosure.hi <= tol


def test_series_root_raises_past_its_word_cap(monkeypatch):
    """A series root whose truncations double past the word cap raises,
    naming the width it was asked for and the cap, instead of building a
    longer pair."""
    monkeypatch.setattr(beta, "MAX_WORD_LENGTH", 64)
    sr = SeriesRoot(StaircaseDigitStream(sqrt2_minus_1_cf()).digit, 2)
    with pytest.raises(CertificationError, match=r"width 1/10{100} within word cap 64$"):
        sr.refine(Fraction(1, 10 ** 100))
    assert [m for m, _ in sr.history] == [32, 64]


def test_positive_root_series_interface():
    enc, hist = positive_root_series(lambda n: 1, 1, Fraction(1, 10 ** 9), m0=4)
    assert enc.lo <= Fraction(1, 2) < enc.hi
    assert hist and all(0 < e.lo < e.hi < 1 for _, e in hist)


def test_series_root_lengthens_a_truncation_of_root_one():
    # x + x^40 = 1: the first truncation 1 0^31 has root 1, outside the base
    # range, so the series root starts from a longer one
    enc, hist = positive_root_series(lambda n: 1 if n in (1, 40) else 0, 1, TOL)
    assert enc.width <= TOL
    assert enc.lo + enc.lo ** 40 < 1 < enc.hi + enc.hi ** 40
    assert hist[0][0] > 40


@pytest.mark.parametrize("word, factor, x, want", [
    ((1, 0, 0, 2), (-2, 2, -2, 1), Fraction(1, 4), (0, 0, 0, 1, 0, 1)),
    ((1, 2, 2, 2), (-2, 0, -2, 1), Fraction(1, 2), (1, 0, 1)),
    ((1, 2, 2, 2), (-2, 0, -2, 1), Fraction(1, 4), (0, 1, 0, 2, 0, 1)),
    ((1, 2, 2, 2), (-2, 0, -2, 1), Fraction(3, 4), (1, 1, 1, 2, 0, 1)),
    ((1, 2, 2, 2), (-2, 0, -2, 1), Fraction(1, 8), (0, 0, 1, 1, 1, 0, 1, 0, 1)),
])
def test_greedy_digits_on_a_reducible_annihilator(word, factor, x, want):
    """F = (x + 1) G for these words (G = x^3 - 2x^2 + 2x - 2, x^3 - 2x^2 - 2):
    an orbit value that is an integer at beta but no constant modulo F is
    decided all the same, and the expansion of x terminates on its exact
    finite expansion: den x beta^N - num sum d_n beta^(N-n) is a multiple of G,
    which changes sign across beta's bracket."""
    h = beta_root_finite(word, Fraction(1, 2 ** 24))
    assert greedy_digits(h, 12, x) == (want, True)
    lo, hi, k = h.bracket
    G = lambda t: sum(c * t ** i for i, c in enumerate(factor))
    assert G(Fraction(lo, 1 << k)) < 0 < G(Fraction(hi, 1 << k))
    p = [x.denominator * d for d in reversed(want)] + [-x.numerator]  # ascending powers of beta
    while len(p) >= len(factor):
        c = p.pop()
        for i in range(len(factor) - 1):
            p[len(p) - len(factor) + 1 + i] -= c * factor[i]
    assert not any(p)


def test_greedy_digits_roundtrip_finite():
    digits = (2, 0, 1)
    h = beta_root_finite(digits, TOL)
    got, terminated = greedy_digits(h, 10)
    assert terminated and got == digits


def test_greedy_digits_integer_base():
    h = RefinableRoot((-3, 1), 3)
    got, terminated = greedy_digits(h, 5, Fraction(5, 9))
    assert got[:2] == (1, 2) and terminated


def test_greedy_decides_a_base_just_above_one():
    """Delta(1/100) and Delta(1/100+), about 1.03, built at tolerance 1/10:
    their brackets straddle 1 until refined, and the expansions of 1 are the
    words 1 0^98 1 and 1 (0^98 1 0)^w."""
    for value in (delta_rational(Fraction(1, 100), Fraction(1, 10)),
                  delta_right_limit(Fraction(1, 100), Fraction(1, 10))):
        assert value.handle.enclosure.lo <= 1
        assert greedy_digits(value.handle, 3) == ((1, 0, 0), False)
        assert value.handle.enclosure.lo > 1
    with pytest.raises(PreconditionError, match="greedy expansion needs beta > 1"):
        greedy_digits(delta_rational(Fraction(0)).handle, 3)


def test_greedy_digits_periodic_word():
    w = PeriodicWord.make((2,), (1,))
    h = BetaHandle.from_periodic_word(w, TOL)
    got, terminated = greedy_digits(h, 9)
    assert not terminated
    assert got == w.prefix(9)


def test_greedy_output_is_parry_admissible():
    for digits in [(1, 1), (2, 0, 1), (3, 1, 2), (1, 0, 0, 1)]:
        h = beta_root_finite(digits, TOL)
        got, _ = greedy_digits(h, len(digits) + 2)
        assert is_parry_admissible(got)


def test_quasi_greedy_of_finite():
    assert quasi_greedy_of_finite((1, 1)) == PeriodicWord.make((), (1, 0))
    assert quasi_greedy_of_finite((2, 0, 1)) == PeriodicWord.make((), (2, 0, 0))
    with pytest.raises(PreconditionError):
        quasi_greedy_of_finite((1, 0))


def test_extremal_orbit_golden():
    h = beta_root_finite((1, 1), TOL)
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
        greedy_digits(beta_root_finite((1, 1), TOL), 3, Fraction(2))


def test_beta_root_periodic_finite_word():
    # 11 0^w is the finite word 11: the golden ratio, not the spurious root 1
    # of its periodic annihilator (x - 1)(x^2 - x - 1)
    enc = beta_root_periodic(PeriodicWord.make((1, 1), (0,)), TOL).enclosure
    assert enc.width <= TOL
    assert enc.lo ** 2 - enc.lo - 1 < 0 < enc.hi ** 2 - enc.hi - 1


@pytest.mark.parametrize("word, verdicts", [((1, 1), ["interior", "zero"]),
                                            ((2, 0, 1), ["outside", "outside", "zero"])])
def test_zero_period_handle_is_the_finite_word_handle(word, verdicts):
    # w 0^w is the finite word w: its handle is bracketed and reduces orbits
    # on the one annihilator of w, so the orbit hits 0 exactly
    h = BetaHandle.from_periodic_word(PeriodicWord.from_finite(word), Fraction(1, 2 ** 24))
    assert greedy_digits(h, 6) == (word, True)
    assert h.annihilator == finite_annihilator(word)
    finite = beta_root_finite(word, Fraction(1, 2 ** 24))
    assert [p.verdict for p in extremal_orbit_check(finite, 6)] == verdicts
    assert [p.verdict for p in extremal_orbit_check(h, 6)] == verdicts


@pytest.mark.parametrize("word, n", [((1, 2), 2), ((2, 3), 3)])
def test_orbit_of_an_integer_root_reaches_zero(word, n):
    # x^2 - x - 2 = (x - 2)(x + 1) and x^2 - 2x - 3 = (x - 3)(x + 1): the
    # orbit value beta - n vanishes at the root n but not modulo F, so
    # orbits reduce modulo x - n, and F stays the bracketed polynomial
    h = beta_root_finite(word)
    assert h.exact == n and h.annihilator == finite_annihilator(word)
    assert greedy_digits(h, 5) == greedy_digits(RefinableRoot((-n, 1), n), 5) == ((n,), True)
    assert greedy_digits(h, 5, Fraction(1, n)) == ((1,), True)
    [point] = extremal_orbit_check(h, 4)
    assert (point.k, point.value, point.verdict) == (1, Enclosure.exact(Fraction(0)), "zero")


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(51, 200), st.integers(0, 1 << 16), st.integers(1, 3))
@example(200, 0, 3)
def test_greedy_round_trips_of_long_words(q, draw_p, b):
    """Beyond the q <= 50 of acceptance criterion 1: the b z b word of
    (b - 1) + p/q is the greedy expansion of 1 in its base, and every orbit
    point before T^q(1) = 0 is strictly inside the band."""
    p = next(p for p in range(1 + draw_p % (q - 1), q) if gcd(p, q) == 1)
    d = delta_rational(Fraction(b - 1) + Fraction(p, q), tol=Fraction(1, 2 ** 24))
    assert greedy_digits(d.handle, q + 2) == (d.word, True)
    points = extremal_orbit_check(d.handle, q + 1)
    assert [pt.verdict for pt in points] == ["interior"] * (q - 1) + ["zero"]
    assert points[-1].k == q


def test_handle_annihilator_is_the_bracketed_polynomial():
    for h, F in [(beta_root_finite((2, 0, 1), TOL), finite_annihilator((2, 0, 1))),
                 (BetaHandle.from_periodic_word(PeriodicWord.make((2,), (1,)), TOL),
                  periodic_annihilator(PeriodicWord.make((2,), (1,)))),
                 (RefinableRoot((-3, 1), 3), (-3, 1))]:
        assert h.annihilator == F
        value = lambda x: sum(c * x ** i for i, c in enumerate(F))  # noqa: E731
        if h.exact is not None:
            assert value(h.exact) == 0
        else:
            assert value(h.enclosure.lo) < 0 < value(h.enclosure.hi)


# Parry (1960): admissible words are the greedy expansions of 1, ordered as
# their bases.  Purely periodic words are not drawn: each equals one of its
# own shifts, so none is admissible (the (10)^w of the golden ratio is its
# quasi-greedy expansion; its greedy one is 11).  Finite words end in a
# nonzero letter, so their order as written is their order padded with 0^w.
admissible_words = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=10).map(tuple).filter(
        lambda w: w[0] >= 1 and w[-1] and w != (1,)),
    st.builds(PeriodicWord.make, st.lists(st.integers(0, 3), min_size=1, max_size=5),
              st.lists(st.integers(0, 3), min_size=1, max_size=4)).filter(
        lambda w: w.pre and w[0] >= 1 and w != PeriodicWord.from_finite((1,))),
    # sparse words 1 0^j 1 0^k, read as 1 0^j 1 0^w
    st.builds(lambda j, k: PeriodicWord.from_finite((1,) + (0,) * j + (1,) + (0,) * k),
              st.integers(0, 60), st.integers(0, 4)),
).filter(is_parry_admissible)


def _root(w):
    if isinstance(w, PeriodicWord):
        return beta_root_periodic(w, Fraction(1, 2 ** 8))
    return beta_root_finite(w, Fraction(1, 2 ** 8))


@settings(max_examples=80, deadline=None)
@given(admissible_words, admissible_words)
@example((2, 1), PeriodicWord.make((2,), (0, 1)))  # 21 0^w against 2 (01)^w
@example((1, 1), PeriodicWord.from_finite((1, 0, 0, 1)))
def test_parry_order_is_root_order(u, v):
    assert is_parry_admissible(u) and is_parry_admissible(v)
    order = lex_compare(u, v)
    assume(order != 0)
    ru, rv = _root(u), _root(v)

    def separated():
        a, b = ru.enclosure, rv.enclosure
        if a.hi < b.lo:
            return -1
        if b.hi < a.lo:
            return 1
        return None

    assert refine_until(separated, (ru, rv), Fraction(1, 2 ** 8), 2 ** 16, 64,
                        "order of two roots") == order
