"""Exact rational enclosures.

An :class:`Enclosure` is a closed interval with `fractions.Fraction`
endpoints that provably contains a real value.  All arithmetic here is
exact; there is no rounding anywhere, so containment is preserved by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificationError


@dataclass(frozen=True)
class Enclosure:
    """A certified interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value) -> "Enclosure":
        v = Fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def intersect(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(max(self.lo, other.lo), min(self.hi, other.hi))

    # Interval arithmetic.  Only what the library needs.

    def __add__(self, other):
        o = _as_enclosure(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, other):
        o = _as_enclosure(other)
        return Enclosure(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, other):
        o = _as_enclosure(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(min(products), max(products))

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def abs(self) -> "Enclosure":
        """The exact range of |x| over the interval."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(Fraction(0), max(-self.lo, self.hi))

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("reciprocal of an interval containing zero")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_enclosure(other).reciprocal()

    def pow_int(self, n: int) -> "Enclosure":
        """self**n for nonnegative exponents; requires lo >= 0 when n > 1."""
        if n == 0:
            return Enclosure.exact(1)
        if self.lo < 0:
            raise ValueError("pow_int requires a nonnegative interval")
        return Enclosure(self.lo ** n, self.hi ** n)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def _as_enclosure(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    return Enclosure.exact(x)


def refine_until(verdict, values, tol: Fraction, shrink, rounds: int, what: str):
    """Refine ``values`` until ``verdict()`` decides, and return its decision.

    ``verdict`` returns None while undecided; it is asked before each round
    and once after the last.  Each round divides ``tol`` by ``shrink`` and
    calls ``refine(tol)`` on every value.  After ``rounds`` undecided rounds
    the budget is spent and CertificationError names ``what``.
    """
    for _ in range(rounds):
        decision = verdict()
        if decision is not None:
            return decision
        tol /= shrink
        for v in values:
            v.refine(tol)
    decision = verdict()
    if decision is not None:
        return decision
    raise CertificationError(f"{what} undecided at refinement budget")


def eval_poly(coeffs, x: Enclosure) -> Enclosure:
    """Evaluate sum(coeffs[i] * x**i) over the interval x by Horner's rule.

    Coefficients are exact integers or fractions; the result encloses the
    true range of the polynomial over x (it may overestimate, never under).
    """
    acc = Enclosure.exact(coeffs[-1]) if coeffs else Enclosure.exact(0)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + Enclosure.exact(c)
    return acc


def decimal_str(value: Fraction, digits: int, mode: str) -> str:
    """Render a fraction as a fixed-point decimal string.

    mode 'floor' rounds toward -inf, 'ceil' toward +inf (for printing
    enclosure endpoints outward).
    """
    scale = 10 ** digits
    scaled = value * scale
    if mode == "floor":
        n = scaled.numerator // scaled.denominator
    elif mode == "ceil":
        n = -((-scaled.numerator) // scaled.denominator)
    else:
        raise ValueError(f"unknown rounding mode: {mode}")
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), scale)
    tail = ""  # in limbs: str refuses ints of over 4300 digits from Python 3.11 on
    while digits > 4000:
        frac, limb = divmod(frac, 10 ** 4000)
        tail, digits = f"{limb:04000d}{tail}", digits - 4000
    return f"{sign}{whole}" + (f".{frac:0{digits}d}{tail}" if digits else "")


def enclosure_strings(e: Enclosure, digits: int) -> tuple:
    """Outward-rounded decimal endpoints of an enclosure."""
    return (decimal_str(e.lo, digits, "floor"), decimal_str(e.hi, digits, "ceil"))
