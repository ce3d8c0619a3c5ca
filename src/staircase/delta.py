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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .beta import BetaHandle, SeriesRoot, greedy_digits, quasi_greedy_of_finite
from .diophantine import ContinuedFraction
from .errors import CertificationError, PreconditionError
from .intervals import Enclosure, enclosure_strings
from .words import PeriodicWord, Word, bzb_word, central_word, to_alphabet

RATIONAL_TOL = Fraction(1, 10 ** 30)
IRRATIONAL_TOL = Fraction(1, 10 ** 12)


def _split_slope(alpha: Fraction) -> Tuple[int, int, int]:
    """alpha = (b - 1) + p/q with b >= 1 integer and 0 <= p < q, reduced."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise PreconditionError("slope must be >= 0")
    whole = alpha.numerator // alpha.denominator
    frac = alpha - whole
    return whole + 1, frac.numerator, frac.denominator


@dataclass
class DeltaValue:
    """Delta at (or just to the right of) a slope, with its certificate.

    ``word`` is the digit expansion of 1 in base beta; ``refine`` shrinks the
    enclosure on demand.  ``nature`` records what kind of number beta is.
    """

    slope: Fraction
    word: Union[Word, PeriodicWord]
    nature: str  # "algebraic" | "labelled_transcendental"
    _enclosure: Enclosure
    _refiner: Optional[Callable[[Fraction], Enclosure]] = None
    handle: Optional[BetaHandle] = None

    @property
    def enclosure(self) -> Enclosure:
        return self._enclosure

    def refine(self, tol: Fraction) -> Enclosure:
        if self._refiner is not None and self._enclosure.width > tol:
            self._enclosure = self._refiner(Fraction(tol))
        return self._enclosure

    def strings(self, digits: int = 30) -> Tuple[str, str]:
        return enclosure_strings(self._enclosure, digits)


def delta_rational(alpha: Fraction, tol: Fraction = RATIONAL_TOL) -> DeltaValue:
    """Certified enclosure of Delta at a rational slope.

    Delta(0) = 1 and Delta(b) = b + 1 at positive integers, exactly.  At a
    non-integer slope (b-1) + p/q the expansion of 1 is the word b z b built
    from the central word z of p/q on the alphabet {b-1, b}, and beta is the
    algebraic number with sum a_n beta^(-n) = 1.
    """
    alpha = Fraction(alpha)
    b, p, q = _split_slope(alpha)
    if p == 0:
        # Integer slope b - 1: the value is the integer b, whose expansion of
        # 1 is the single digit b (the degenerate base 1 at slope 0 included).
        return DeltaValue(alpha, (b,), "algebraic", Enclosure.exact(Fraction(b)))
    digits = bzb_word(b, p, q)
    handle = BetaHandle.from_finite_word(digits, tol)
    return DeltaValue(alpha, digits, "algebraic", handle.enclosure,
                      _refiner=handle.refine, handle=handle)


def right_limit_word(alpha: Fraction) -> PeriodicWord:
    """Digit expansion of 1 in base Delta(alpha+), eventually periodic.

    Integer slope b: (b+1) b^w.  Non-integer slope (b-1) + p/q: b followed by
    the period (z, b, b-1) where z is the central word of p/q on {b-1, b}.
    """
    b, p, q = _split_slope(Fraction(alpha))
    if p == 0:
        base = Fraction(alpha).numerator  # alpha is the integer b - 1 here
        return PeriodicWord.make((base + 1,), (base,)) if base >= 1 else \
            PeriodicWord.make((1,), (0,))
    z = to_alphabet(central_word(p, q), b)
    return PeriodicWord.make((b,), z + (b, b - 1))


def delta_right_limit(alpha: Fraction, tol: Fraction = RATIONAL_TOL) -> DeltaValue:
    """Certified enclosure of Delta(alpha+), the limit from the right.

    At the integer slope b >= 1 this is the quadratic (b + 2 + sqrt(b^2+4b))/2;
    at 0 it equals Delta(0) = 1 (no jump).  At non-integer rationals it is the
    root of the eventually periodic digit series of :func:`right_limit_word`.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise PreconditionError("slope must be >= 0")
    if alpha == 0:
        return DeltaValue(alpha, right_limit_word(alpha), "algebraic",
                          Enclosure.exact(Fraction(1)))
    word = right_limit_word(alpha)
    handle = BetaHandle.from_periodic_word(word, tol)
    return DeltaValue(alpha, word, "algebraic", handle.enclosure,
                      _refiner=handle.refine, handle=handle)


@dataclass
class JumpValue:
    slope: Fraction
    left: DeltaValue
    right: DeltaValue

    @property
    def enclosure(self) -> Enclosure:
        l, r = self.left.enclosure, self.right.enclosure
        return Enclosure(r.lo - l.hi, r.hi - l.lo)

    def certify_positive(self, max_steps: int = 4000) -> Enclosure:
        """Refine both sides until the jump's lower bound is positive."""
        tol = min(self.left.enclosure.width, self.right.enclosure.width)
        tol = max(tol, Fraction(1, 2 ** 40))
        for _ in range(max_steps):
            if self.enclosure.lo > 0:
                return self.enclosure
            tol /= 2 ** 16
            self.left.refine(tol)
            self.right.refine(tol)
        raise CertificationError(f"jump at {self.slope} not separated from 0")


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
    - floor(n theta).  Floors come from an exact convergent table, extended
    on demand.
    """

    def __init__(self, cf: ContinuedFraction):
        self.cf = cf
        self.b = cf.a0 + 1
        self._frac_cf = ContinuedFraction(0, lambda: _tail_terms(cf), name=cf.name)
        self._floors: List[int] = [0]

    def _ensure_floors(self, n: int) -> None:
        if len(self._floors) <= n:
            self._floors = self._frac_cf.floors_upto(max(n, 2 * len(self._floors)))

    def digit(self, n: int) -> int:
        if n < 1:
            raise PreconditionError("digit index starts at 1")
        if n == 1:
            return self.b
        k = n - 1
        self._ensure_floors(k + 1)
        return self.b - 1 + self._floors[k + 1] - self._floors[k]


def _tail_terms(cf: ContinuedFraction) -> Iterator[int]:
    n = 1
    while True:
        t = cf.term(n)
        if not isinstance(t, int):
            raise CertificationError("slope terms must be exact integers here")
        yield t
        n += 1


def delta_irrational(cf: ContinuedFraction, tol: Fraction = IRRATIONAL_TOL) -> DeltaValue:
    """Certified enclosure of Delta at an irrational slope.

    The slope is passed as a regular continued fraction with exact integer
    partial quotients.  The value is transcendental; the returned word is a
    finite prefix view only (the stream itself is kept on the result as
    ``stream``).
    """
    stream = StaircaseDigitStream(cf)
    root = SeriesRoot(stream.digit, max_digit=stream.b)
    enc = root.refine(tol)
    prefix = tuple(stream.digit(n) for n in range(1, 33))
    out = DeltaValue(Fraction(0), prefix, "labelled_transcendental", enc, _refiner=root.refine)
    out.stream = stream  # type: ignore[attr-defined]
    out.series_root = root  # type: ignore[attr-defined]
    return out


# ---------------------------------------------------------------------------
# Staircase plot data
# ---------------------------------------------------------------------------


@dataclass
class PlotRow:
    slope: Fraction
    delta: DeltaValue
    right: DeltaValue
    jump_lo: Fraction

    def csv_fields(self, digits: int = 30) -> List[str]:
        d_lo, d_hi = self.delta.strings(digits)
        r_lo, r_hi = self.right.strings(digits)
        from .intervals import decimal_str
        return [str(self.slope.numerator), str(self.slope.denominator),
                d_lo, d_hi, r_lo, r_hi, decimal_str(self.jump_lo, digits, "floor")]


CSV_HEADER = ["slope_num", "slope_den", "delta_lo", "delta_hi",
              "right_lo", "right_hi", "jump_lo"]


def farey_slopes(lo: Fraction, hi: Fraction, max_den: int) -> List[Fraction]:
    """All reduced fractions in (lo, hi] with denominator <= max_den, ascending."""
    if max_den < 1:
        raise PreconditionError("need max_den >= 1")
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 <= lo < hi:
        raise PreconditionError("need 0 <= lo < hi")
    out = set()
    for q in range(1, max_den + 1):
        p_min = (lo * q).numerator // (lo * q).denominator + 1
        p_max = (hi * q).numerator // (hi * q).denominator
        for p in range(max(p_min, 1), p_max + 1):
            if math.gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def plot_samples(lo: Fraction, hi: Fraction, max_den: int,
                 tol: Fraction = Fraction(1, 10 ** 8),
                 certify_order: bool = True, max_rounds: int = 4000) -> List[PlotRow]:
    """Staircase plot data over every reduced fraction in (lo, hi], den <= max_den.

    Every row carries certified enclosures of Delta and its right limit and a
    certified positive lower bound on the jump.  With ``certify_order`` the
    rows are additionally refined until consecutive value enclosures are
    pairwise disjoint, which proves strict monotonicity across the table.
    """
    rows: List[PlotRow] = []
    for slope in farey_slopes(lo, hi, max_den):
        jv = jump(slope, tol)
        jv.certify_positive()
        rows.append(PlotRow(slope, jv.left, jv.right, jv.enclosure.lo))
    if certify_order:
        for i in range(len(rows) - 1):
            _separate(rows[i].delta, rows[i + 1].delta, max_rounds)
    return rows


def _separate(a: DeltaValue, b: DeltaValue, max_rounds: int) -> None:
    tol = max(min(a.enclosure.width, b.enclosure.width), Fraction(1, 2 ** 50))
    for _ in range(max_rounds):
        if a.enclosure.hi < b.enclosure.lo:
            return
        tol /= 2 ** 16
        a.refine(tol)
        b.refine(tol)
    raise CertificationError(
        f"could not separate staircase values at {a.slope} and {b.slope}")


# ---------------------------------------------------------------------------
# Local regularity
# ---------------------------------------------------------------------------


def _iv_log(iv, e: Enclosure):
    from .intervals import decimal_str

    # Endpoint decimal strings are rounded outward (60 digits, far beyond the
    # 128-bit working precision) so the interval certificate survives.
    return iv.log(iv.mpf([decimal_str(e.lo, 60, "floor"),
                          decimal_str(e.hi, 60, "ceil")]))


def lipschitz_order(delta: DeltaValue, theta: Enclosure,
                    tol: Fraction = IRRATIONAL_TOL) -> Enclosure:
    """Enclosure of log(Delta(alpha)) / log(theta(alpha)).

    This is the certified local smoothness exponent of the staircase at an
    irrational slope whose approximation base theta satisfies
    1 < theta < Delta(alpha); the hypothesis is checked on the enclosures.
    """
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()  # a local context: the global mpmath.iv keeps its precision
    iv.prec = 128
    enc = delta.refine(tol)
    if not (theta.lo > 1):
        raise PreconditionError("need theta > 1 certified")
    if not (theta.hi < enc.lo):
        raise PreconditionError("hypothesis theta < Delta(alpha) not certified")
    ratio = _iv_log(iv, enc) / _iv_log(iv, theta)
    # float() may round in either direction; pad by more than one ulp.
    pad = Fraction(1, 10 ** 12)
    lo = Fraction(float(ratio.a)) * (1 - pad) - pad
    hi = Fraction(float(ratio.b)) * (1 + pad) + pad
    return Enclosure(lo, hi)
