"""Certified roots of digit series and greedy expansions of 1.

Everything here revolves around the strictly decreasing function

    g(x) = sum_{n >= 1} a_n x^(-n) - 1,   x > 1,

for a digit sequence (a_n) with a_1 >= 1.  Its unique root is enclosed by
bisection with exact integer sign tests, so enclosures are proofs: the root
lies in [lo, hi] because g(lo) > 0 and g(hi) < 0 are integer facts.  Bracket
endpoints are dyadic, m / 2^k, and both the sign tests and the interval
evaluation of orbit polynomials run on plain integers with shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import CertificationError, PreconditionError
from .intervals import Enclosure
from .words import PeriodicWord, Word

DEFAULT_TOL = Fraction(1, 10 ** 30)

IntPoly = Tuple[int, ...]  # coefficients, ascending powers


def _poly_sign(coeffs: Sequence[int], m: int, k: int) -> int:
    """Exact sign of sum coeffs[i] * x**i at the dyadic point x = m / 2**k.

    Horner with the denominator cleared: the accumulator ends up equal to
    P(x) * 2**(k*deg), a plain integer with the same sign as P(x).  Every
    power of the denominator is a left shift; the only products are by m.
    """
    acc = 0
    shift = 0
    for c in reversed(coeffs):
        acc *= m
        if c:
            acc += c << shift
        shift += k
    return (acc > 0) - (acc < 0)


def digit_series_sign(digits: Sequence[int], x: Fraction) -> int:
    """Exact sign of g(x) = sum a_n x^(-n) - 1 for a finite digit word.

    The reference at any rational x > 0; root isolation itself runs the
    dyadic ``_poly_sign`` on the word's annihilator.
    """
    if x <= 0:
        raise PreconditionError("sign test requires x > 0")
    num, den = x.numerator, x.denominator
    q = len(digits)
    acc = 0
    dp = 1
    for a in digits:
        acc = acc * num + a * dp
        dp *= den
    # acc = sum a_n num^(q-n) den^(n-1); g(x) has the sign of den*acc - num^q.
    val = den * acc - num ** q
    return (val > 0) - (val < 0)


def periodic_annihilator(w: PeriodicWord) -> IntPoly:
    """Monic integer polynomial F with F(beta) = 0 for the root of the
    eventually periodic digit series pre (per)^w.

    F(x) = x^(P+L) - x^P - sum_pre a_n (x^(P+L-n) - x^(P-n)) - sum_per c_j x^(L-j)
    with P = |pre|, L = |per|; sign(g(x)) = -sign(F(x)) for x > 1.
    """
    P, L = len(w.pre), len(w.per)
    deg = P + L
    c = [0] * (deg + 1)
    c[deg] += 1
    c[P] -= 1
    for n, a in enumerate(w.pre, start=1):
        c[deg - n] -= a
        c[P - n] += a
    for j, a in enumerate(w.per, start=1):
        c[L - j] -= a
    return tuple(c)


def finite_annihilator(digits: Sequence[int]) -> IntPoly:
    """x^q - a_1 x^(q-1) - ... - a_q, vanishing at the root of the finite
    digit series; sign(g(x)) = -sign(F(x)) for x > 0."""
    q = len(digits)
    c = [0] * (q + 1)
    c[q] = 1
    for n, a in enumerate(digits, start=1):
        c[q - n] -= a
    return tuple(c)


class RefinableRoot:
    """A bisection bracket [a/2^k, b/2^k] around the root of a decreasing
    function, refinable on demand.  ``sign(m, k)`` must be the exact sign at
    m/2^k: +1 left of the root, -1 right of it, 0 only at the root itself.

    The bracket is kept as the integers (a, b, k) and an exact hit m/2^j as
    (m, j), so bisection builds no ``Fraction``; ``lo``, ``hi``, ``exact``
    and ``enclosure`` present them as fractions.
    """

    def __init__(self, sign: Callable[[int, int], int], a: int, b: int, k: int = 0,
                 exact: Optional[int] = None):
        if not a < b:
            raise PreconditionError("need lo < hi")
        self._sign = sign
        self._a, self._b, self._k = a, b, k
        self._hit: Optional[Tuple[int, int]] = None if exact is None else (exact, k)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, 1 << self._k)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, 1 << self._k)

    @property
    def exact(self) -> Optional[Fraction]:
        if self._hit is None:
            return None
        m, j = self._hit
        return Fraction(m, 1 << j)

    @property
    def bracket(self) -> Tuple[int, int, int]:
        """The enclosure as integers (a, b, k), meaning [a/2^k, b/2^k]."""
        if self._hit is not None:
            m, j = self._hit
            return m, m, j
        return self._a, self._b, self._k

    @property
    def enclosure(self) -> Enclosure:
        a, b, k = self.bracket
        return Enclosure(Fraction(a, 1 << k), Fraction(b, 1 << k))

    def refine(self, tol: Fraction) -> Enclosure:
        tol = Fraction(tol)
        if tol <= 0:
            raise PreconditionError("tolerance must be positive")
        # The width (b - a)/2^k is at most tol once 2^k >= (b - a)/tol.
        ratio = -(-(self._b - self._a) * tol.denominator // tol.numerator)
        self._bisect((ratio - 1).bit_length() - self._k)
        return self.enclosure

    def refine_steps(self, steps: int) -> Enclosure:
        self._bisect(steps)
        return self.enclosure

    def _bisect(self, steps: int) -> None:
        """Halve the bracket up to ``steps`` times, stopping at an exact hit."""
        if self._hit is not None:
            return
        sign, a, b, k = self._sign, self._a, self._b, self._k
        for _ in range(steps):
            m = a + b  # the midpoint, at scale 2^(k+1)
            s = sign(m, k + 1)
            if s == 0:
                self._hit = (m, k + 1)
                break
            if s > 0:
                a, b = m, b << 1
            else:
                a, b = a << 1, m
            k += 1
        self._a, self._b, self._k = a, b, k


def _bracket(F: IntPoly, a1: int) -> RefinableRoot:
    """Bracket the root above the leading digit a_1 >= 1 of a digit series
    whose annihilator is F (the series has the sign of -F there): a unit
    bracket [n, n+1], or an exact integer root n inside [n-1, n+1]."""
    sign = lambda m, k: -_poly_sign(F, m, k)
    n = a1
    s = sign(n, 0)
    if s < 0:
        raise PreconditionError("digit sequence has no root above its leading digit")
    while s > 0:
        n += 1
        s = sign(n, 0)
    if s == 0:
        return RefinableRoot(sign, n - 1, n + 1, exact=n)
    return RefinableRoot(sign, n - 1, n)


def _certified_root(F: IntPoly, a1: int, tol: Fraction) -> RefinableRoot:
    rr = _bracket(F, a1)
    if rr.exact is None:
        rr.refine(tol)
    return rr


def beta_root_finite(digits: Sequence[int], tol: Fraction = DEFAULT_TOL) -> RefinableRoot:
    """Certified enclosure of the base beta > 1 with sum a_n beta^(-n) = 1."""
    digits = tuple(digits)
    if not digits or digits[0] < 1:
        raise PreconditionError("need a nonempty digit word with a_1 >= 1")
    if any(d < 0 for d in digits):
        raise PreconditionError("digits must be nonnegative")
    if digits[0] == 1 and not any(digits[1:]):
        raise PreconditionError("the word 1 0^k has root 1, outside the base range")
    return _certified_root(finite_annihilator(digits), digits[0], tol)


def beta_root_periodic(w: PeriodicWord, tol: Fraction = DEFAULT_TOL) -> RefinableRoot:
    """Certified enclosure of the base beta > 1 for an eventually periodic word."""
    if w[0] < 1:
        raise PreconditionError("leading digit must be >= 1")
    if not any(w.per):
        # A finite word: its periodic annihilator has the spurious root 1.
        return beta_root_finite(w.pre, tol)
    return _certified_root(periodic_annihilator(w), w[0], tol)


def positive_root_finite(digits: Sequence[int], tol: Fraction = DEFAULT_TOL) -> Enclosure:
    """Certified enclosure of the root zeta in (0, 1) of sum a_n x^n = 1.

    zeta is the reciprocal of the base beta; the reciprocal of an enclosure
    of width w for beta > 1 has width < w, so the tolerance carries over.
    """
    return beta_root_finite(digits, tol).enclosure.reciprocal()


class SeriesRoot:
    """Incrementally refinable root for an infinite digit stream a_n = digit(n).

    For each truncation length m the root is sandwiched between the roots of
    a_1..a_m 0^w (digitwise below the stream) and a_1..a_m M^w (digitwise
    above it, M = max_digit): more/larger digits push the root up.  The
    per-m history of enclosures is nested by construction (each is
    intersected with its predecessor) and shrinks like M * root^(-m).
    """

    def __init__(self, digit: Callable[[int], int], max_digit: int, m0: int = 32,
                 m_cap: int = 1 << 20):
        if max_digit < 1:
            raise PreconditionError("max_digit must be >= 1")
        if digit(1) < 1:
            raise PreconditionError("leading digit must be >= 1")
        self._digit = digit
        self.max_digit = max_digit
        self._m = m0
        self._m_cap = m_cap
        self._low: Optional[RefinableRoot] = None
        self._high: Optional[RefinableRoot] = None
        self.history: List[Tuple[int, Enclosure]] = []
        self.enclosure: Optional[Enclosure] = None

    def _build(self, tol: Fraction) -> None:
        m = self._m
        digits = tuple(self._digit(n) for n in range(1, m + 1))
        if any(d < 0 or d > self.max_digit for d in digits):
            raise PreconditionError("stream digit outside [0, max_digit]")
        self._low = beta_root_finite(digits, tol)
        high_word = PeriodicWord.make(digits, (self.max_digit,))
        self._high = beta_root_periodic(high_word, tol)

    def refine(self, tol: Fraction) -> Enclosure:
        while True:
            if self._low is None or self._high is None:
                if self._m > self._m_cap:
                    raise CertificationError(
                        f"series root not certified to width {tol} within "
                        f"truncation cap {self._m_cap}")
                self._build(tol / 4)
            else:
                self._low.refine(tol / 4)
                self._high.refine(tol / 4)
            enc = Enclosure(self._low.enclosure.lo, self._high.enclosure.hi)
            self.enclosure = enc if self.enclosure is None else self.enclosure.intersect(enc)
            if self.history and self.history[-1][0] == self._m:
                self.history[-1] = (self._m, self.enclosure)
            else:
                self.history.append((self._m, self.enclosure))
            if self.enclosure.width <= tol:
                return self.enclosure
            # Both sandwich roots are tight to tol/4, so the remaining width
            # is truncation gap: lengthen the digit word.
            self._m *= 2
            self._low = self._high = None


def positive_root_series(digit: Callable[[int], int], max_digit: int,
                         tol: Fraction = DEFAULT_TOL, m0: int = 32,
                         m_cap: int = 1 << 20) -> Tuple[Enclosure, List[Tuple[int, Enclosure]]]:
    """Certified root zeta in (0, 1) of the infinite series sum a_n x^n = 1.

    Returns the final enclosure (width <= tol) and the per-truncation history
    of nested zeta enclosures.
    """
    sr = SeriesRoot(digit, max_digit, m0=m0, m_cap=m_cap)
    enc = sr.refine(tol).reciprocal()
    return enc, [(m, e.reciprocal()) for m, e in sr.history]


# ---------------------------------------------------------------------------
# Beta handles and greedy expansions
# ---------------------------------------------------------------------------


@dataclass
class BetaHandle:
    """A real beta > 1 given by a refinable certified enclosure plus a monic
    integer polynomial vanishing at it (used to do exact orbit arithmetic)."""

    root: RefinableRoot
    annihilator: IntPoly

    @property
    def enclosure(self) -> Enclosure:
        return self.root.enclosure

    def refine(self, tol: Fraction) -> Enclosure:
        return self.root.refine(tol)

    @classmethod
    def from_finite_word(cls, digits: Sequence[int], tol: Fraction = DEFAULT_TOL) -> "BetaHandle":
        return cls(beta_root_finite(digits, tol), finite_annihilator(digits))

    @classmethod
    def from_periodic_word(cls, w: PeriodicWord, tol: Fraction = DEFAULT_TOL) -> "BetaHandle":
        return cls(beta_root_periodic(w, tol), periodic_annihilator(w))

    @classmethod
    def from_integer(cls, b: int) -> "BetaHandle":
        if b < 2:
            raise PreconditionError("integer base must be >= 2")
        F = (-b, 1)
        return cls(_bracket(F, b), F)


def _poly_reduce(coeffs: List[int], modulus: IntPoly) -> List[int]:
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


def _poly_times_x(coeffs: List[int], modulus: IntPoly) -> List[int]:
    return _poly_reduce([0] + coeffs, modulus)


def _horner(coeffs: Sequence[int], a: int, b: int, k: int) -> Tuple[int, int, int]:
    """Interval Horner of sum coeffs[i] * x**i over x in [a/2^k, b/2^k],
    0 <= a <= b, coeffs nonempty.

    Returns integers (lo, hi, s) for the enclosure [lo/2^s, hi/2^s].  It is
    exactly the interval ``intervals.eval_poly`` gives for the same
    coefficients and x: each step is that one scaled by a positive power of
    two, which commutes with the interval product and sum.
    """
    lo = hi = coeffs[-1]
    s = 0
    for c in reversed(coeffs[:-1]):
        s += k
        lo *= a if lo >= 0 else b
        hi *= b if hi >= 0 else a
        if c:
            c <<= s
            lo += c
            hi += c
    return lo, hi, s


def greedy_digits(beta: BetaHandle, n: int, x: Fraction = Fraction(1),
                  refine_budget: int = 20000) -> Tuple[Word, bool]:
    """First n digits of the greedy expansion of x in base beta, x in [0, 1].

    Returns (digits, terminated): ``terminated`` is True when the orbit of x
    hits 0 exactly (certified through the annihilator), in which case the
    digit word is the complete finite expansion.

    The orbit value is carried as an integer polynomial in beta reduced
    modulo the annihilator, over the denominator of x; a zero reduced
    polynomial certifies an exact hit, and floors are decided by interval
    evaluation with on-demand refinement.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise PreconditionError("starting point must lie in [0, 1]")
    if not (beta.enclosure.lo > 1):
        beta.refine(Fraction(1, 16))
        if not (beta.enclosure.lo > 1):
            raise PreconditionError("greedy expansion needs beta > 1")
    mod = beta.annihilator
    den = x.denominator
    r: List[int] = [x.numerator] if x else []  # the orbit value is r(beta) / den
    out: List[int] = []
    for _ in range(n):
        r = _poly_times_x(r, mod)  # beta * r_{k-1}
        if not r:
            return tuple(out), True
        digit = _decide_floor(r, beta, mod, refine_budget, den)
        out.append(digit)
        if digit:
            r = _poly_reduce(_poly_sub_const(r, digit * den), mod)
        if not r:
            return tuple(out), True
    return tuple(out), False


def _poly_sub_const(coeffs: List[int], c: int) -> List[int]:
    coeffs = list(coeffs)
    if coeffs:
        coeffs[0] -= c
    else:
        coeffs = [-c]
    return coeffs


def _decide_floor(r: List[int], beta: BetaHandle, mod: IntPoly, refine_budget: int,
                  den: int = 1) -> int:
    """floor of the real number r(beta) / den."""
    spent = 0
    while True:
        lo, hi, s = _horner(r, *beta.root.bracket)
        f_lo = (lo >> s) // den
        f_hi = (hi >> s) // den
        if f_lo == f_hi:
            return f_lo
        if f_hi == f_lo + 1:
            # Could the value be exactly the integer f_hi?
            probe = _poly_reduce(_poly_sub_const(list(r), f_hi * den), mod)
            if not probe:
                return f_hi
        if spent >= refine_budget:
            raise CertificationError("greedy digit undecided at refinement budget")
        beta.root.refine_steps(32)
        spent += 32


def quasi_greedy_of_finite(digits: Sequence[int]) -> PeriodicWord:
    """(a_1 ... a_{q-1} (a_q - 1))^w, the expansion of 1 'from below' attached
    to a finite greedy expansion a_1 ... a_q with a_q >= 1."""
    digits = tuple(digits)
    if not digits or digits[-1] < 1:
        raise PreconditionError("need a finite expansion with last digit >= 1")
    return PeriodicWord.make((), digits[:-1] + (digits[-1] - 1,))


# ---------------------------------------------------------------------------
# Orbit band check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitPoint:
    k: int
    value: Enclosure
    verdict: str  # "interior" | "zero" | "boundary-low" | "boundary-high"


def extremal_orbit_check(beta: BetaHandle, k_max: int,
                         refine_budget: int = 20000) -> List[OrbitPoint]:
    """Certify, for k = 1..k_max, where T^k(1) sits relative to the band
    (1 - 1/beta, 1), T being x -> beta*x mod 1.

    Each verdict is exact: "zero" and the boundary cases are detected through
    zero reduced polynomials, the strict cases through interval signs.
    Stops after a "zero" verdict (the orbit is then constant 0).
    """
    mod = beta.annihilator
    r: List[int] = [1]
    out: List[OrbitPoint] = []
    for k in range(1, k_max + 1):
        r = _poly_times_x(r, mod)
        digit = _decide_floor(r, beta, mod, refine_budget) if r else 0
        if digit:
            r = _poly_reduce(_poly_sub_const(r, digit), mod)
        if not r:
            out.append(OrbitPoint(k, Enclosure.exact(Fraction(0)), "zero"))
            break
        verdict = _band_verdict(r, beta, mod, refine_budget)
        lo, hi, s = _horner(r, *beta.root.bracket)
        out.append(OrbitPoint(k, Enclosure(Fraction(lo, 1 << s), Fraction(hi, 1 << s)),
                              verdict))
    return out


def _band_verdict(r: List[int], beta: BetaHandle, mod: IntPoly, refine_budget: int) -> str:
    # upper edge: v - 1;  lower edge: beta*v - beta + 1  (v > 1 - 1/beta).
    upper = _poly_reduce(_poly_sub_const(list(r), 1), mod)
    bv = _poly_times_x(list(r), mod)
    lower = list(bv)
    while len(lower) < 2:
        lower.append(0)
    lower[0] += 1
    lower[1] -= 1
    lower = _poly_reduce(lower, mod)
    if not upper:
        return "boundary-high"
    if not lower:
        return "boundary-low"
    spent = 0
    while True:
        # The enclosures' scales are positive, so their numerators' signs decide.
        up_lo, up_hi, _ = _horner(upper, *beta.root.bracket)
        lo_lo, lo_hi, _ = _horner(lower, *beta.root.bracket)
        if up_hi < 0 and lo_lo > 0:
            return "interior"
        if up_lo > 0 or lo_hi < 0:
            return "outside"
        if spent >= refine_budget:
            raise CertificationError("orbit band verdict undecided at budget")
        beta.root.refine_steps(32)
        spent += 32


# ---------------------------------------------------------------------------
# The family of roots of 1 = x^(-1) + x^(-n)
# ---------------------------------------------------------------------------


def near_one_root(n: int, tol: Fraction = DEFAULT_TOL) -> Enclosure:
    """Certified enclosure of the root in (1, 2] of 1 = x^(-1) + x^(-n).

    These are the digit-series roots of the words 1 0^(n-2) 1; they decrease
    to 1 as n grows.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    digits = (1,) + (0,) * (n - 2) + (1,)
    return beta_root_finite(digits, tol).enclosure
