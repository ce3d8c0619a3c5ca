"""The staircase map Delta from slopes to expansion bases.

For a slope alpha >= 0 the value Delta(alpha) is the base beta > 1 whose
greedy expansion of 1 is the digit word read off the mechanical word of slope
alpha.  Rational slopes give finite words (algebraic beta), irrational slopes
give aperiodic digit streams, and the one-sided limit at a rational slope
gives an eventually periodic word.  Delta is strictly increasing with a jump
at every positive rational.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .beta import (MAX_WORD_LENGTH, Bracket, RefinableRoot, SeriesRoot, beta_root_finite,
                   beta_root_periodic)
from .diophantine import ContinuedFraction, _down, _up, ln_interval
from .errors import CertificationError, PreconditionError
from .intervals import Enclosure, refine_until
from .words import PeriodicWord, Word, bzb_word

RATIONAL_TOL = Fraction(1, 10 ** 30)
IRRATIONAL_TOL = Fraction(1, 10 ** 12)


def _split_slope(alpha: Fraction) -> Tuple[int, int, int]:
    """alpha = (b - 1) + p/q with b >= 1 integer and 0 <= p < q, reduced."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise PreconditionError("slope must be >= 0")
    whole, p = divmod(alpha.numerator, alpha.denominator)
    return whole + 1, p, alpha.denominator


@dataclass
class DeltaValue:
    """Delta at (or just to the right of) a slope, with its certificate.

    ``word`` is the digit expansion of 1 in base beta.  Its one root, ``handle``,
    is a ``RefinableRoot`` (algebraic beta) or a ``SeriesRoot`` (irrational
    slopes: Delta between its values at Stern-Brocot neighbours, and the
    digit ``stream`` is kept too), which ``enclosure`` reads, ``refine``
    shrinks on demand and ``nature`` names.
    """

    slope: Union[Fraction, ContinuedFraction]
    word: Union[Word, PeriodicWord]
    handle: Union[RefinableRoot, SeriesRoot]
    stream: Optional["StaircaseDigitStream"] = None

    @property
    def nature(self) -> str:
        return "labelled_transcendental" if isinstance(self.handle, SeriesRoot) else "algebraic"

    @property
    def enclosure(self) -> Enclosure:
        return self.handle.enclosure

    def refine(self, tol: Fraction) -> Enclosure:
        return self.handle.refine(tol)


def delta_rational(alpha: Fraction, tol: Fraction = RATIONAL_TOL,
                   seed: Optional[Bracket] = None) -> DeltaValue:
    """Certified enclosure of Delta at a rational slope.

    Delta(0) = 1 and Delta(b) = b + 1 at positive integers, exactly.  At a
    non-integer slope (b-1) + p/q the expansion of 1 is the word b z b built
    from the central word z of p/q on the alphabet {b-1, b}, and beta is the
    algebraic number with sum a_n beta^(-n) = 1.  The word has q letters, at
    most ``MAX_WORD_LENGTH``.  A ``seed`` is passed on to ``RefinableRoot``.
    """
    alpha = Fraction(alpha)
    b, p, q = _split_slope(alpha)
    if q > MAX_WORD_LENGTH:
        raise PreconditionError(f"slope {alpha} has a digit word of {q} letters, "
                                f"over the cap of {MAX_WORD_LENGTH}")
    if p == 0:
        # Integer slope b - 1: the value is the integer b, the exact root of
        # x - b, whose expansion of 1 is the single digit b (the degenerate
        # base 1 at slope 0 included).
        return DeltaValue(alpha, (b,), RefinableRoot((-b, 1), b))
    digits = bzb_word(b, p, q)
    return DeltaValue(alpha, digits, beta_root_finite(digits, tol, seed))


def right_limit_word(alpha: Fraction, left_word: Optional[Word] = None) -> PeriodicWord:
    """Digit expansion of 1 in base Delta(alpha+), eventually periodic.

    Integer slope b: (b+1) b^w.  Non-integer slope (b-1) + p/q: b followed by
    the period (z, b, b-1) where z is the central word of p/q on {b-1, b}.
    Either way it is the expansion w of 1 in base Delta(alpha) (``bzb_word``)
    with its first letter as preperiod and the rest, then that letter less
    one, as period; ``left_word`` is w when the caller has it.
    """
    w = left_word or bzb_word(*_split_slope(Fraction(alpha)))
    return PeriodicWord.make(w[:1], w[1:] + (w[0] - 1,))


def delta_right_limit(alpha: Fraction, tol: Fraction = RATIONAL_TOL,
                      seed: Optional[Bracket] = None,
                      left_word: Optional[Word] = None) -> DeltaValue:
    """Certified enclosure of Delta(alpha+), the limit from the right.

    At the integer slope b >= 1 this is the quadratic (b + 2 + sqrt(b^2+4b))/2;
    at 0 it equals Delta(0) = 1 (no jump).  At non-integer rationals it is the
    root of the eventually periodic digit series of :func:`right_limit_word`,
    which takes ``left_word``, the expansion at alpha, when given.
    """
    alpha = Fraction(alpha)
    word = right_limit_word(alpha, left_word)
    if alpha == 0:
        return DeltaValue(alpha, word, RefinableRoot((-1, 1), 1))
    return DeltaValue(alpha, word, beta_root_periodic(word, tol, seed))


@dataclass
class JumpValue:
    slope: Fraction
    left: DeltaValue
    right: DeltaValue

    @property
    def enclosure(self) -> Enclosure:
        return self.right.enclosure - self.left.enclosure

    def certify_positive(self) -> Enclosure:
        """Refine both sides until the jump's lower bound is positive."""
        _apart(self.left, self.right, 40, f"sign of the jump at {self.slope}")
        return self.enclosure


def _apart(x: DeltaValue, y: DeltaValue, bits: int, what: str) -> None:
    """Refine x and y until x.hi < y.lo, decided on integer brackets, from the
    tolerance max(2^-bits, the lesser width) over 2^16 per round."""
    X, Y = x.handle, y.handle

    def verdict() -> Optional[bool]:
        (_, xb, xk), (ya, _, yk) = X.bracket, Y.bracket
        return True if xb << yk < ya << xk else None

    ks = [k if a < b else bits for a, b, k in (X.bracket, Y.bracket)]
    refine_until(verdict, (X, Y), Fraction(1, 1 << min(bits, max(ks))), 2 ** 16, 4000, what)


def jump(alpha: Fraction, tol: Fraction = RATIONAL_TOL) -> JumpValue:
    """The jump Delta(alpha+) - Delta(alpha) at a positive rational slope."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionError("the staircase jumps only at positive rationals")
    return JumpValue(alpha, delta_rational(alpha, tol),
                     delta_right_limit(alpha, tol))


# ---------------------------------------------------------------------------
# Irrational slopes
# ---------------------------------------------------------------------------


class StaircaseDigitStream:
    """Digit stream a_1 a_2 ... of the expansion of 1 in base Delta(alpha)
    for an irrational slope alpha given by its continued fraction.

    a_1 = b = floor(alpha) + 1 and a_{n+1} = (b - 1) + c(n), where c is the
    characteristic word of the fractional part theta: c(n) = floor((n+1)theta)
    - floor(n theta).  As b - 1 = floor(alpha), a_n = floor(n alpha) -
    floor((n-1) alpha) for n >= 2, read off alpha's own exact floor table,
    extended on demand.
    """

    def __init__(self, cf: ContinuedFraction):
        self.cf = cf
        self.b = cf.a0 + 1
        self._digits: Word = (self.b,)

    def digit(self, n: int) -> int:
        if n < 1:
            raise PreconditionError("digit index starts at 1")
        if len(self._digits) < n:
            f = self.cf.floors_upto(max(n, 2 * len(self._digits)))
            self._digits = (self.b,) + tuple(map(operator.sub, f[2:], f[1:-1]))
        return self._digits[n - 1]

    def prefix(self, n: int) -> Word:
        """a_1 .. a_n, n >= 1."""
        self.digit(n)
        return self._digits[:n]


def _lex_sign(word: PeriodicWord, stream: StaircaseDigitStream, n: int, cap: int) -> int:
    """The sign of word - stream in lexicographic order, from their prefixes
    of n letters, doubling, up to the first difference; 0 where they agree on
    ``cap`` letters."""
    while (u := word.prefix(n)) == (v := stream.prefix(n)):
        if n >= cap:
            return 0
        n = min(2 * n, cap)
    return (u > v) - (u < v)


class _NeighbourPairs:
    """The pair source of ``delta_irrational``: the Stern-Brocot neighbours
    r < alpha < s, (p_n/q_n, (p_(n-1) + j p_n)/(q_(n-1) + j q_n)) for
    j = 1..a_(n+1), the convergent below alpha at even n and above it at odd n,
    by their length q_r + q_s, which grows pair by pair.  The words of the
    slopes in (r, s) share about q_r + q_s letters, so Delta(r+) < Delta(alpha)
    < Delta(s) is about beta^-(q_r + q_s) wide."""

    def __init__(self, cf: ContinuedFraction, stream: StaircaseDigitStream):
        self._cf, self._stream = cf, stream
        self._n, self._j, self._q = 0, 1, (1, 0, cf.a0, 1)  # p_(n-1), q_(n-1), p_n, q_n

    def pair(self, m: int, tol: Fraction) -> Tuple[int, RefinableRoot, RefinableRoot]:
        """The first pair with q_r + q_s >= m: its length and the roots of
        Delta(r+) and Delta(s) to tol, once their words sandwich the stream."""
        P, Q, p, q = self._q
        while True:
            a = self._cf.term(self._n + 1)
            if not isinstance(a, int):
                raise CertificationError(f"partial quotient {self._n + 1} of "
                                         f"{self._cf.name or 'cf'} is not an exact integer")
            j = max(self._j, -(-(m - Q - q) // q))  # Q + (j + 1) q >= m
            if j <= a:
                break
            self._n, self._j, (P, Q, p, q) = self._n + 1, 1, (p, q, a * p + P, a * q + Q)
        self._j, self._q = j, (P, Q, p, q)
        length = Q + (j + 1) * q
        if length > MAX_WORD_LENGTH:
            raise CertificationError(f"series root not certified to width {tol} within "
                                     f"word cap {MAX_WORD_LENGTH}")
        near, far = Fraction(p, q), Fraction(P + j * p, Q + j * q)
        r, s = (near, far) if self._n % 2 == 0 else (far, near)
        low, high = delta_right_limit(r, tol), delta_rational(s, tol)
        above = _lex_sign(PeriodicWord.from_finite(high.word), self._stream, length, MAX_WORD_LENGTH)
        if above == 0:
            raise CertificationError(f"the word of {s} agrees with the stream "
                                     f"past {MAX_WORD_LENGTH} letters")
        # Delta(0+) = 1 lies below every Delta(alpha), alpha > 0
        below = _lex_sign(low.word, self._stream, length, 8 * length) if r else -1
        if above < 0 or below > 0:
            raise CertificationError(f"the words of {r}+ and {s} do not sandwich the stream")
        if below == 0:  # alpha lies too near r: a_1..a_m 0^w is digitwise below the stream
            return length, beta_root_finite(self._stream.prefix(length), tol), high.handle
        return length, low.handle, high.handle

    def after(self, m: int, tol: Fraction, enc: Enclosure) -> int:
        """The next pair's length, or more where it predicts
        (q_r + q_s) log2 beta >= log2(1/tol) + 3, log2 beta read off enc's
        lower end (its upper one where that is Delta(0+) = 1)."""
        x = enc.lo if enc.lo > 1 else enc.hi
        bits = math.log2(x.numerator) - math.log2(x.denominator)
        want = (math.log2(tol.denominator) - math.log2(tol.numerator) + 3) / bits
        return max(m + 1, math.ceil(want))


def delta_irrational(cf: ContinuedFraction, tol: Fraction = IRRATIONAL_TOL) -> DeltaValue:
    """Certified enclosure of Delta at an irrational slope.

    The slope is passed as a regular continued fraction with exact integer
    partial quotients.  Delta is strictly increasing with a jump at every
    positive rational, so Delta(r+) < Delta(alpha) < Delta(s) for rationals
    r < alpha < s: the handle is a ``SeriesRoot`` over the Stern-Brocot
    neighbours (``_NeighbourPairs``), from the first pair with q_r + q_s >= 32,
    whose words are checked against the stream in lexicographic order.  The
    value is transcendental; the returned word is a finite prefix view only
    (the stream itself is kept on the result as ``stream``).
    """
    if cf.length is not None:
        raise CertificationError(f"a continued fraction of {cf.length} partial "
                                 "quotients is rational, not an irrational slope")
    stream = StaircaseDigitStream(cf)
    root = SeriesRoot(stream.digit, stream.b, 32, _NeighbourPairs(cf, stream))
    root.refine(tol)
    return DeltaValue(cf, stream.prefix(32), root, stream)


# ---------------------------------------------------------------------------
# Staircase plot data
# ---------------------------------------------------------------------------


@dataclass
class PlotRow:
    slope: Fraction
    delta: DeltaValue
    right: DeltaValue
    jump_lo: Fraction


def farey_slopes(lo: Fraction, hi: Fraction, max_den: int) -> List[Fraction]:
    """All reduced fractions in (lo, hi] with denominator <= max_den, ascending."""
    if max_den < 1:
        raise PreconditionError("need max_den >= 1")
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 <= lo < hi:
        raise PreconditionError("need 0 <= lo < hi")
    # Two such fractions differ by at least 1/n2, so p * n2 // q orders them.
    n2, out = max_den * max_den, []
    for q in range(1, max_den + 1):
        p_min = (lo * q).numerator // (lo * q).denominator + 1
        p_max = (hi * q).numerator // (hi * q).denominator
        out += [(p * n2 // q, p, q) for p in range(max(p_min, 1), p_max + 1)
                if math.gcd(p, q) == 1]
    return [Fraction(p, q) for _, p, q in sorted(out)]


def sweep(lo: Fraction, hi: Fraction, max_den: int,
          tol: Fraction = Fraction(1, 10 ** 8),
          certify_order: bool = True) -> List[PlotRow]:
    """Staircase plot data over every reduced fraction in (lo, hi], den <= max_den.

    Every row carries certified enclosures of Delta and its right limit and a
    certified positive lower bound on the jump.  With ``certify_order`` the
    rows are additionally refined until consecutive value enclosures are
    pairwise disjoint, which proves strict monotonicity across the table.

    Slopes go by increasing denominator, after their Farey parents a < c < e
    where in range.  Delta increases and jumps, so Delta(c) lies in (Delta(a+),
    Delta(e)) and Delta(c+) in (Delta(c), Delta(e)): these brackets seed c's
    roots, which certify them by sign tests or fall back, ending on the same cells.
    """
    slopes, done = farey_slopes(lo, hi, max_den), {}
    for c in sorted(slopes, key=lambda x: x.denominator):
        # The parents are ((pd - 1)/q)/d and ((p(q-d) + 1)/q)/(q-d); at q = 1,
        # d = 0 and neither key is done yet.
        p, q, d = c.numerator, c.denominator, pow(c.numerator, -1, c.denominator)
        a, e = done.get(((p * d - 1) // q, d)), done.get(((p * (q - d) + 1) // q, q - d))
        left = delta_rational(c, tol, _ends(a.right, e.delta) if a and e else None)
        right = delta_right_limit(c, tol, _ends(left, e.delta) if e else None, left.word)
        done[p, q] = PlotRow(c, left, right, JumpValue(c, left, right).certify_positive().lo)
    rows = [done[c.numerator, c.denominator] for c in slopes]
    for x, y in zip(rows, rows[1:]) if certify_order else ():
        _apart(x.delta, y.delta, 50, f"order of Delta at {x.slope} and {y.slope}")
    return rows


plot_samples = sweep


def _ends(x: DeltaValue, y: DeltaValue) -> Bracket:
    """[x.lo, y.hi] as integers (a, b, s)."""
    (xa, _, xk), (_, yb, yk) = x.handle.bracket, y.handle.bracket
    return xa << yk, yb << xk, xk + yk


# ---------------------------------------------------------------------------
# Local regularity
# ---------------------------------------------------------------------------


def lipschitz_order(delta: DeltaValue, theta: Enclosure) -> Enclosure:
    """Enclosure of log(Delta(alpha)) / log(theta(alpha)).

    This is the certified local smoothness exponent of the staircase at an
    irrational slope whose approximation base theta satisfies
    1 < theta < Delta(alpha), decided on the enclosures as Delta is refined.
    The logs are ``ln_interval``'s float bounds; theta's lower one must be > 0.
    """
    delta.refine(IRRATIONAL_TOL)
    t_lo = ln_interval(theta.lo)[0] if theta.lo > 1 else 0.0
    if not (t_lo > 0):
        raise PreconditionError("need theta > 1 certified")

    def below() -> Optional[bool]:
        enc = delta.enclosure
        return True if theta.hi < enc.lo else (False if enc.hi <= theta.hi else None)

    if not refine_until(below, (delta,), IRRATIONAL_TOL, 2 ** 16, 16, "theta < Delta(alpha)"):
        raise PreconditionError("hypothesis theta < Delta(alpha) not certified")
    enc = delta.enclosure
    lo = _down(ln_interval(enc.lo)[0] / ln_interval(theta.hi)[1])
    hi = _up(ln_interval(enc.hi)[1] / t_lo)
    return Enclosure(Fraction(lo), Fraction(hi))
