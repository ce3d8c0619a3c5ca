"""Mechanical, Christoffel and central words, plus word utilities."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircase.errors import PreconditionError
from staircase.words import (
    PeriodicWord,
    bzb_word,
    central_word,
    characteristic_prefix,
    christoffel,
    common_prefix_radius,
    first_difference,
    is_parry_admissible,
    lex_compare,
    mechanical_prefix,
    parse_word,
    word_str,
)


def floor_word(alpha: Fraction, rho: Fraction, n: int):
    """Independent oracle: s(k) = floor((k+1)a + r) - floor(ka + r)."""
    import math
    f = lambda x: x.numerator // x.denominator
    return tuple(f((k + 1) * alpha + rho) - f(k * alpha + rho) for k in range(n))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (3, 7), (5, 8), (1, 10)])
def test_mechanical_matches_floor_formula(p, q):
    alpha = Fraction(p, q)
    for rho in (Fraction(0), Fraction(1, 3), Fraction(2, 7)):
        got = mechanical_prefix(alpha, rho, 3 * q)
        assert got == floor_word(alpha, rho, 3 * q)


def test_mechanical_upper_vs_lower_differ_only_near_integer_orbit():
    alpha = Fraction(2, 5)
    lo = mechanical_prefix(alpha, Fraction(0), 10)
    hi = mechanical_prefix(alpha, Fraction(0), 10, upper=True)
    # Same letter multiset over one period, different alignment.
    assert sorted(lo[:5]) == sorted(hi[:5])
    assert lo != hi


def test_christoffel_examples():
    assert word_str(christoffel(2, 5)) == "00101"
    assert word_str(christoffel(1, 2)) == "01"
    assert word_str(christoffel(2, 5, upper=True)) == "10100"
    # t = 0 z 1 and t' = 1 z 0 share the central word
    z = central_word(2, 5)
    assert christoffel(2, 5) == (0,) + z + (1,)
    assert christoffel(2, 5, upper=True) == (1,) + z + (0,)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (3, 7), (4, 9), (7, 12)])
def test_central_word_is_palindrome(p, q):
    z = central_word(p, q)
    assert len(z) == q - 2
    assert z == z[::-1]


def test_christoffel_period_reproduces_mechanical_word():
    p, q = 3, 7
    t = christoffel(p, q)
    assert mechanical_prefix(Fraction(p, q), Fraction(0), 3 * q) == t * 3


def test_bzb_word_alphabet_shift():
    # slope (b-1) + p/q: central word moved to the alphabet {b-1, b}
    z = central_word(2, 5)
    assert bzb_word(1, 2, 5) == (1,) + z + (1,)  # on {0, 1}, z is itself
    w = bzb_word(3, 2, 5)
    assert w[0] == w[-1] == 3
    assert set(w[1:-1]) <= {2, 3}
    assert len(w) == 5


def test_characteristic_prefix_golden_ratio():
    # alpha = (sqrt(5)-1)/2; floors computed exactly via isqrt
    from math import isqrt
    n = 200
    floors = [(isqrt(5 * k * k) - k) // 2 for k in range(n + 2)]
    want = tuple(floors[k + 1] - floors[k] for k in range(1, n + 1))
    got = characteristic_prefix(Fraction(610, 987), n)  # convergent stand-in
    # convergent is only valid while q_{k-1} > n, here far beyond 200
    assert got == want


def test_periodic_word_indexing_and_prefix():
    w = PeriodicWord.make((2,), (1, 0))
    assert w.prefix(6) == (2, 1, 0, 1, 0, 1)
    assert w[0] == 2 and w[3] == 1
    assert word_str(w) == "2(10)^w"


def test_periodic_word_rolls_preperiod():
    # 1(01)^w = (10)^w written with the shortest preperiod
    a = PeriodicWord.make((1,), (0, 1))
    b = PeriodicWord.make((), (1, 0))
    assert a == b


def test_lex_compare_finite_and_periodic():
    assert lex_compare((1, 0, 1), (1, 0, 0)) > 0
    assert lex_compare((1, 0), (1, 0)) == 0
    w = PeriodicWord.make((), (1, 0))
    assert lex_compare(w, (1, 0, 0)) > 0
    # equal words written with different preperiods compare equal:
    # (01)^w versus 0(10)^w are the same sequence
    u = PeriodicWord.make((), (0, 1))
    v = PeriodicWord.make((0,), (1, 0))
    assert lex_compare(u, v) == 0


letters = st.lists(st.integers(0, 2), max_size=5).map(tuple)
word_parts = st.tuples(letters, letters)  # (pre, per); no per is the finite word pre


def _as_word(pre, per):
    return PeriodicWord.make(pre, per) if per else pre


def _letter(pre, per, i):
    """Letter i of pre (per)^w as written, or of pre 0^w."""
    per = per or (0,)
    return pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]


@settings(max_examples=100, deadline=None)
@given(word_parts, word_parts)
def test_first_difference_is_the_first_differing_letter(u, v):
    """Against a scan of both words' first 2 * horizon letters as written,
    not in canonical form; lex_compare reads the letters there."""
    horizon = len(u[0]) + len(v[0]) + lcm(len(u[1]) or 1, len(v[1]) or 1)
    scan = [i for i in range(2 * horizon) if _letter(*u, i) != _letter(*v, i)]
    i = first_difference(_as_word(*u), _as_word(*v))
    assert i == first_difference(_as_word(*v), _as_word(*u)) == (scan[0] if scan else None)
    order = lex_compare(_as_word(*u), _as_word(*v))
    assert order == -lex_compare(_as_word(*v), _as_word(*u))
    assert order == (0 if i is None else (1 if _letter(*u, i) > _letter(*v, i) else -1))


def test_first_difference_reads_only_what_it_needs():
    # periods of 1001 and 1002 letters: an lcm past 10^6, a difference at 0
    u = PeriodicWord.make((), (1,) + (0,) * 1000)
    v = PeriodicWord.make((), (0,) + (1,) * 1001)
    assert first_difference(u, v) == 0 and lex_compare(u, v) == 1 and lex_compare(v, u) == -1
    # equal on the first 10^6 letters, with a horizon past them
    with pytest.raises(PreconditionError, match="periods too long"):
        first_difference((0,) * 10 ** 6 + (1,), PeriodicWord.make((), (0,)))


def test_parry_admissibility():
    assert is_parry_admissible((1, 1))
    assert is_parry_admissible((2, 0, 1))
    assert not is_parry_admissible((1, 2))  # shifted suffix exceeds the word
    assert is_parry_admissible(PeriodicWord.make((2,), (1, 0)))
    assert not is_parry_admissible(PeriodicWord.make((1,), (2,)))  # tail exceeds head
    # (10)^w equals its own shift by two, so it is not strictly greater than it
    assert not is_parry_admissible(PeriodicWord.make((), (1, 0)))


def test_common_prefix_radius_rational_sides():
    # around 2/5 with n = 7 letters pinned: the nearest slopes whose words
    # differ within 7 letters sit at distance 1/15 below and 1/35 above
    below = common_prefix_radius(Fraction(2, 5), 7, "below")
    above = common_prefix_radius(Fraction(2, 5), 7, "above")
    assert below == Fraction(1, 15)
    assert above == Fraction(1, 35)
    # sanity: the radius is measured to the one-sided *limit* word.  From
    # above that limit coincides with the word at the slope; from below it
    # differs (floors at multiples of q drop immediately).
    w0 = mechanical_prefix(Fraction(2, 5), Fraction(0), 7)
    w_below = mechanical_prefix(Fraction(2, 5) - Fraction(1, 10**9), Fraction(0), 7)
    assert w_below != w0
    for eps in (Fraction(1, 100), Fraction(1, 16), Fraction(1, 15)):
        assert mechanical_prefix(Fraction(2, 5) - eps, Fraction(0), 7) == w_below
    assert mechanical_prefix(Fraction(2, 5) - Fraction(16, 239), Fraction(0), 7) != w_below
    for eps in (Fraction(1, 100), Fraction(1, 36)):
        assert mechanical_prefix(Fraction(2, 5) + eps, Fraction(0), 7) == w0
    assert mechanical_prefix(Fraction(2, 5) + Fraction(1, 35), Fraction(0), 7) != w0


def nearest_gap(alpha: Fraction, n: int, side: str) -> Fraction:
    """Reference: the gap from alpha to the nearest a/b != alpha on the given
    side with 1 <= b <= n, by trying every denominator."""
    gaps = []
    for b in range(1, n + 1):
        if side == "below":
            a = -(-alpha.numerator * b // alpha.denominator) - 1  # the last a/b < alpha
            gaps.append(alpha - Fraction(a, b))
        else:
            a = alpha.numerator * b // alpha.denominator + 1  # the first a/b > alpha
            gaps.append(Fraction(a, b) - alpha)
    return min(gaps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(1, 40), st.integers(0, 39), st.integers(1, 90),
       st.sampled_from(["below", "above"]))
@example(0, 1, 0, 5, "below")  # integer slopes: the radius is 1/n on both sides
@example(2, 1, 0, 1, "above")
@example(0, 7, 3, 4, "above")  # n < q: no multiple of q among the m
@example(0, 7, 3, 7, "below")  # n = q: the multiple of q gives the gap 1/q
def test_common_prefix_radius_is_the_nearest_farey_gap(whole, q, p, n, side):
    alpha = whole + Fraction(p % q, q)
    assert common_prefix_radius(alpha, n, side) == nearest_gap(alpha, n, side)


@settings(max_examples=300, deadline=None)
@given(word_parts.filter(lambda parts: parts[0] or parts[1]))
@example(((), (1, 0)))  # purely periodic: its shift by the period is itself
@example(((1, 0), (1, 0)))
@example(((2,), (1, 0)))
@example(((2, 0, 1), ()))
def test_parry_admissibility_matches_a_letter_by_letter_reference(parts):
    """Against each shift by k = 1..n of the word as written, n = |pre| + |per|
    (|per| = 1 for a finite word), compared letter by letter over 2n letters;
    a shift equal to the word on all of them is not below it."""
    n = len(parts[0]) + max(len(parts[1]), 1)

    def below(k):
        diff = next((i for i in range(2 * n) if _letter(*parts, k + i) != _letter(*parts, i)), None)
        return diff is not None and _letter(*parts, k + diff) < _letter(*parts, diff)

    assert is_parry_admissible(_as_word(*parts)) == all(below(k) for k in range(1, n + 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 150), max_size=12).map(tuple))
def test_word_str_parse_roundtrip(w):
    assert parse_word(word_str(w)) == w
    assert parse_word("101") == (1, 0, 1)
    assert parse_word(word_str((3, 12, 1))) == (3, 12, 1)
    assert word_str(PeriodicWord.make((3,), (2, 1))) == str(PeriodicWord.make((3,), (2, 1)))


@pytest.mark.parametrize("s", ["[x]", "[12", "[]", "[-1]", "[ 1]", "[\u0661]", "\u00b2", "1a"])
def test_parse_word_rejects_malformed_letters(s):
    with pytest.raises(PreconditionError):
        parse_word(s)


def test_mechanical_rejects_bad_input():
    with pytest.raises(PreconditionError):
        christoffel(5, 2)
    assert central_word(1, 2) == ()  # shortest case: empty interior
    with pytest.raises(PreconditionError):
        common_prefix_radius(Fraction(2, 5), 7, "sideways")


def fraction_mechanical(alpha: Fraction, rho: Fraction, n: int, upper: bool):
    """Reference: the floors (ceilings) of alpha*k + rho as Fractions."""
    cut = (lambda x: -((-x.numerator) // x.denominator)) if upper else \
        (lambda x: x.numerator // x.denominator)
    return tuple(cut(alpha * (k + 1) + rho) - cut(alpha * k + rho) for k in range(n))


intercepts = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                       st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6))


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=0, max_value=5, max_denominator=10 ** 6), intercepts,
       st.integers(0, 2000), st.booleans())
@example(Fraction(2, 5), Fraction(0), 10, True)
@example(Fraction(3, 7), Fraction(1), 14, False)
@example(Fraction(1, 3), Fraction(2, 3), 9, True)
def test_mechanical_prefix_matches_fraction_reference(alpha, rho, n, upper):
    assert mechanical_prefix(alpha, rho, n, upper=upper) == fraction_mechanical(alpha, rho, n, upper)


@st.composite
def reduced_slopes(draw):
    """(p, q), 0 <= p <= q <= 2000 and gcd(p, q) = 1."""
    q = draw(st.integers(1, 2000))
    p = draw(st.integers(0, q))
    assume(gcd(p, q) == 1)
    return p, q


@settings(max_examples=150, deadline=None)
@given(reduced_slopes(), st.integers(1, 9), st.booleans())
@example((0, 1), 1, False)
@example((1, 1), 9, True)
@example((1, 2), 2, False)
@example((1999, 2000), 9, True)
def test_christoffel_words_match_the_mechanical_reference(slope, b, upper):
    """The integer-floor builders against the Fraction-built mechanical word:
    christoffel, its central word, and b z b, the lower word on {b-1, b}
    with its first letter raised (one letter at the degenerate slopes)."""
    p, q = slope
    ref = mechanical_prefix(Fraction(p, q), Fraction(0), q, upper=upper)
    assert christoffel(p, q, upper=upper) == ref
    lower = mechanical_prefix(Fraction(p, q), Fraction(0), q)
    assert central_word(p, q) == lower[1:-1]
    want = (b + p,) if q == 1 else (b,) + tuple(b - 1 + s for s in lower[1:])
    assert bzb_word(b, p, q) == want


@pytest.mark.parametrize("build", [
    lambda: christoffel(2, 4), lambda: christoffel(-1, 3), lambda: christoffel(0, 0),
    lambda: christoffel(4, 3, upper=True), lambda: central_word(4, 6),
    lambda: bzb_word(2, 2, 4), lambda: bzb_word(2, 4, 3), lambda: bzb_word(2, -1, 3),
    lambda: bzb_word(2, 2, 2), lambda: bzb_word(0, 1, 2)])
def test_christoffel_builders_refuse_unreduced_or_out_of_range_slopes(build):
    with pytest.raises(PreconditionError):
        build()


def _christoffel_by_floors(p, q, upper):
    """The integer floor formula: s(k) = floor(p(k+1)/q) - floor(pk/q) below,
    the ceilings, as negated floors of the negated cuts, above."""
    if upper:
        return tuple((-p * k) // q - (-p * k - p) // q for k in range(q))
    return tuple((p * k + p) // q - p * k // q for k in range(q))


@pytest.mark.parametrize("upper", [False, True])
def test_christoffel_is_the_integer_floor_formula_up_to_q_120(upper):
    slopes = [(p, q) for q in range(1, 121) for p in range(q + 1) if gcd(p, q) == 1]
    assert len(slopes) == 4387
    for p, q in slopes:
        assert christoffel(p, q, upper) == _christoffel_by_floors(p, q, upper), (p, q)
