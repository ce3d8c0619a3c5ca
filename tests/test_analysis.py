"""Difference-quotient traces and the explicit separation bound."""

import random
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircase.analysis import (
    QuotientTrace,
    _ladder_offset,
    _left_limit_word,
    irrational_probe,
    lowerbound_check,
    rational_left_quotients,
    rational_right_quotients,
    zero_plus_quotients,
)
from staircase.delta import delta_rational
from staircase.diophantine import ContinuedFraction, LogMagnitude
from staircase.errors import CertificationError, PreconditionError
from staircase.intervals import Enclosure
from staircase.words import PeriodicWord, common_prefix_radius


def _simplest_by_search(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator fraction in (lo, hi), 0 <= lo < hi, by trying
    each denominator from floor(1/hi) on: a fraction a/d > lo >= 0 has a >= 1,
    so a/d < hi needs d > 1/hi."""
    q = max(1, hi.denominator // hi.numerator)
    while True:
        p = lo.numerator * q // lo.denominator + 1  # the first p/q above lo
        if Fraction(p, q) < hi:
            return Fraction(p, q)
        q += 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 59), st.integers(0, 2), st.integers(1, 12),
       st.sampled_from(["below", "above"]))
@example(1, 0, 0, 1, "below")  # integer slopes: the radius is 1/N
@example(1, 0, 2, 12, "above")
@example(60, 1, 0, 12, "below")
@example(59, 58, 1, 12, "above")
def test_ladder_offset_is_the_simplest_fraction_in_the_ladder(q, p, whole, k, side):
    """Every ladder has N = 1 + q k >= q, so it is never empty, and its
    simplest fraction, found by search from its two ends, is the offset."""
    assume(p < q and gcd(p, q) == 1)
    alpha0, N = whole + Fraction(p, q), 1 + q * k
    ladder = (Fraction(1, 2 * q * N), common_prefix_radius(alpha0, N, side))
    assert _ladder_offset(alpha0, N, side) == _simplest_by_search(*ladder)


def test_delta_rational_caps_the_word_length():
    with pytest.raises(PreconditionError):
        delta_rational(Fraction(1, (1 << 20) + 1))


def test_thin_probe_ladder_is_a_precondition_error():
    # The probe slopes near 1/1000 have denominators near 10^9: their words
    # are over the length cap, and the descent to them is fast.
    start = time.perf_counter()
    with pytest.raises(PreconditionError):
        rational_left_quotients(Fraction(1, 1000), 3)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("alpha0", [Fraction(2, 5), Fraction(1, 2), Fraction(1)])
def test_left_and_right_traces_decrease(alpha0):
    for trace in (rational_left_quotients(alpha0, 6),
                  rational_right_quotients(alpha0, 6)):
        assert trace.verdict == "toward_zero"
        his = [p.quotient.hi for p in trace.points][-5:]
        assert all(b < a for a, b in zip(his, his[1:]))
        # probes actually straddle the center on the expected side
        for p in trace.points:
            assert p.slope != alpha0


def test_zero_plus_trace_increases():
    trace = zero_plus_quotients(8)
    assert trace.verdict == "toward_infinity"
    los = [p.quotient.lo for p in trace.points]
    assert all(b > a for a, b in zip(los, los[1:]))


def test_irrational_probe_golden_shrinks():
    cf = ContinuedFraction.constant(0, 1, name="golden")
    trace = irrational_probe(cf, 6)
    assert trace.verdict == "toward_zero"
    his = [p.quotient.hi for p in trace.points]
    assert all(b < a for a, b in zip(his, his[1:]))


def test_irrational_probe_sqrt2_like():
    cf = ContinuedFraction.constant(0, 2)
    assert irrational_probe(cf, 3).verdict == "toward_zero"


def test_irrational_probe_explosive_tail():
    # a slope whose continued fraction jumps hard enough that the staircase
    # grows steeper than any exponential along the convergents
    def gen():
        yield from (1, 4, 40, 1, 10 ** 60)
        while True:
            yield 1
    cf = ContinuedFraction(0, gen, name="steep")
    trace = irrational_probe(cf, 2)
    assert trace.verdict == "toward_infinity"
    los = [p.quotient.lo for p in trace.points]
    assert los[1] > los[0] > 0


def test_irrational_probe_needs_integer_terms():
    for qs in ([2, 3], [2, 3, 4, 5, 6, 7]):  # rational: the first runs dry
        cf = ContinuedFraction.from_quotients(0, qs)
        with pytest.raises(CertificationError):
            irrational_probe(cf, 3)


def test_irrational_probe_needs_exact_denominators():
    # a_3 is known only in log space, so q_3 is too: refused before any root
    cf = ContinuedFraction.from_quotients(0, [1, 2, LogMagnitude(50.0, 51.0), 1, 1, 1])
    with pytest.raises(PreconditionError, match="exact integer convergent denominators"):
        irrational_probe(cf, 2)


def test_lowerbound_check_basic_pairs():
    r = lowerbound_check(Fraction(1, 2), Fraction(2, 5))
    assert r.holds and not r.mirrored and r.N == 5
    assert r.lhs.lo > r.rhs.hi
    r = lowerbound_check(Fraction(2, 5), Fraction(3, 7))
    assert r.holds and r.mirrored
    with pytest.raises(PreconditionError):
        lowerbound_check(Fraction(1, 2), Fraction(1, 2))


def test_lowerbound_check_randomized_pairs():
    rng = random.Random(1722)
    checked = 0
    while checked < 50:
        q = rng.randrange(2, 60)
        p = rng.randrange(1, q)
        a = Fraction(p, q)
        if a.denominator == 1:
            continue
        # second slope at a small rational offset on either side
        off = Fraction(1, rng.randrange(2, 40) * q)
        b = a + off if rng.random() < 0.5 else a - off
        if b <= 0 or a == b:
            continue
        r = lowerbound_check(a, b)
        assert r.holds, (a, b)
        assert r.N >= 1 and r.lhs.lo > r.rhs.hi > 0
        checked += 1


def test_lowerbound_check_across_integer_base():
    # slopes with different integer parts still separate
    r = lowerbound_check(Fraction(3, 2), Fraction(7, 5))
    assert r.holds


@pytest.mark.parametrize("alpha_N, N, powers", [
    (Fraction(3333, 10000), None, 0),
    (Fraction(333, 1000), None, 0),
    (Fraction(233, 700), 700, 1),
    (Fraction(166, 500), 250, 1),
], ids=["3333/10000", "333/1000", "233/700", "166/500"])
def test_lowerbound_check_builds_no_power_it_cannot_use(alpha_N, N, powers):
    """Beside 1/3, slopes whose expansions of 1 from below share N - 1 = 999
    or 9,999 digits: both sides of the inequality lie near Delta(1/3)^-N,
    under what the budget's 64 rounds of 8 bits resolve, so every round's
    lhs spans the right side's scale and the check raises at its budget
    without building an N-th power (at N = 10,000 the powers took 78 s).
    A pair that decides builds one power, in the round that decides."""
    with mock.patch.object(Enclosure, "pow_int", autospec=True,
                           side_effect=Enclosure.pow_int) as pow_int:
        if N is None:
            with pytest.raises(CertificationError, match="lower-bound inequality"):
                lowerbound_check(Fraction(1, 3), alpha_N)
        else:
            r = lowerbound_check(Fraction(1, 3), alpha_N)
            assert r.N == N and r.holds and r.lhs.lo > r.rhs.hi
    assert pow_int.call_count == powers


@pytest.mark.parametrize("slope", [1, 2, 3, 4])
def test_left_limit_word_at_an_integer_slope(slope):
    # the integer base b = slope + 1 expands 1 from below as (b - 1)^w
    assert _left_limit_word(Fraction(slope)) == PeriodicWord.make((), (slope,))


def test_lowerbound_check_at_an_integer_slope():
    # 1- in the integer base 3 expands as (2)^w, which leaves 3/2's word
    # (21)^w at its second digit
    r = lowerbound_check(Fraction(2), Fraction(3, 2))
    assert r.N == 2 and r.holds
    with pytest.raises(PreconditionError, match="slope 0 has no expansion from below"):
        lowerbound_check(Fraction(0), Fraction(1, 2))
