"""Difference-quotient probes for the staircase's one-sided derivatives.

A probe trace evaluates |Delta(alpha_k) - Delta(center)| / |alpha_k - center|
along a sequence of rational slopes alpha_k converging to the center.  The
verdicts are trend labels over a finite window, never limit claims:
differentiability is not decidable from finitely many certified quotients.
Every ``toward_zero`` verdict is backed by strictly decreasing quotient upper
bounds over the last window, every ``toward_infinity`` by strictly increasing
lower bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .beta import quasi_greedy_of_finite
from .delta import (DeltaValue, delta_irrational, delta_rational,
                    delta_right_limit, _split_slope)
from .diophantine import ContinuedFraction
from .errors import CertificationError, PreconditionError
from .intervals import Enclosure, decimal_str
from .words import PeriodicWord, common_prefix_radius

DEFAULT_TOL = Fraction(1, 10 ** 12)
TREND_WINDOW = 5


def _abs_enclosure(e: Enclosure) -> Enclosure:
    if e.lo >= 0:
        return e
    if e.hi <= 0:
        return Enclosure(-e.hi, -e.lo)
    return Enclosure(Fraction(0), max(-e.lo, e.hi))


@dataclass
class QuotientPoint:
    """One probe: slope alpha_k and the certified difference quotient there.

    ``dx`` encloses |alpha_k - center| (exact for rational centers, a
    two-sided convergents bound for irrational ones).  The quotient is
    recomputed from the live value enclosures, so refining the underlying
    Delta values sharpens it.
    """

    index: int
    slope: Fraction
    dx: Enclosure
    center_value: DeltaValue
    probe_value: DeltaValue

    @property
    def quotient(self) -> Enclosure:
        diff = _abs_enclosure(self.probe_value.enclosure - self.center_value.enclosure)
        return diff / self.dx

    def refine(self, tol: Fraction) -> None:
        self.center_value.refine(tol)
        self.probe_value.refine(tol)


@dataclass
class QuotientTrace:
    center: Union[Fraction, ContinuedFraction]
    points: List[QuotientPoint]
    verdict: str = "inconclusive"  # toward_zero | toward_infinity | inconclusive

    def certify(self, window: int = TREND_WINDOW, max_rounds: int = 8) -> str:
        """Decide the trend over the last ``window`` probes, refining as needed."""
        pts = self.points[-min(window, len(self.points)):]
        if len(pts) < 2:
            self.verdict = "inconclusive"
            return self.verdict
        tol = min(max(p.quotient.width, Fraction(1, 2 ** 48)) for p in pts)
        for _ in range(max_rounds):
            qs = [p.quotient for p in pts]
            if all(qs[i].hi > qs[i + 1].hi for i in range(len(qs) - 1)):
                self.verdict = "toward_zero"
                return self.verdict
            if all(qs[i].lo < qs[i + 1].lo for i in range(len(qs) - 1)):
                self.verdict = "toward_infinity"
                return self.verdict
            tol /= 2 ** 8
            for p in pts:
                p.refine(tol)
        self.verdict = "inconclusive"
        return self.verdict

    def csv_rows(self, digits: int = 30) -> List[List[str]]:
        """Rows (k, alpha_k_num, alpha_k_den, quotient_lo, quotient_hi) + footer."""
        rows = []
        for p in self.points:
            q = p.quotient
            rows.append([str(p.index), str(p.slope.numerator), str(p.slope.denominator),
                         decimal_str(q.lo, digits, "floor"), decimal_str(q.hi, digits, "ceil")])
        rows.append(["verdict", self.verdict, "", "", ""])
        return rows

    def to_json(self, digits: int = 30) -> str:
        probes = []
        for p in self.points:
            q = p.quotient
            probes.append({"k": p.index,
                           "alpha_num": p.slope.numerator,
                           "alpha_den": p.slope.denominator,
                           "quotient_lo": decimal_str(q.lo, digits, "floor"),
                           "quotient_hi": decimal_str(q.hi, digits, "ceil")})
        if isinstance(self.center, ContinuedFraction):
            center = self.center.name or "cf"
        else:
            center = str(self.center)
        return json.dumps({"center": center, "probes": probes,
                           "verdict": self.verdict}, indent=2)


# ---------------------------------------------------------------------------
# One-sided quotients at rational slopes
# ---------------------------------------------------------------------------


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator fraction strictly inside (lo, hi), 0 <= lo < hi.

    Stern-Brocot descent: walk mediants toward the interval until one lands
    inside it.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    for _ in range(10 ** 6):
        m = Fraction(p0 + p1, q0 + q1)
        if m <= lo:
            p0, q0 = m.numerator, m.denominator
        elif m >= hi:
            p1, q1 = m.numerator, m.denominator
        else:
            return m
    raise CertificationError("interval too thin for mediant descent budget")


def _ladder_offset(alpha0: Fraction, N: int, side: str) -> Fraction:
    """An offset inside the probe ladder ((2qN)^-1, delta_N) on the given side.

    delta_N is the prefix-agreement radius: every slope within it shares the
    first N staircase digits with alpha0, which is what makes the probe
    quotient meaningful.  The simplest fraction in the ladder keeps the probe
    slope's denominator (and hence its expansion length) small.
    """
    q = Fraction(alpha0).denominator
    delta = common_prefix_radius(alpha0, N, side)
    inner = Fraction(1, 2 * q * N)
    if not inner < delta:
        raise CertificationError(f"empty probe ladder at N={N}")
    return _simplest_between(inner, delta)


def rational_left_quotients(alpha0: Fraction, K: int, tol: Fraction = DEFAULT_TOL) -> QuotientTrace:
    """Difference quotients (Delta(alpha0) - Delta(alpha)) / (alpha0 - alpha)
    along probes alpha -> alpha0 from the left; expected trend toward_zero.
    """
    alpha0 = Fraction(alpha0)
    if alpha0 <= 0:
        raise PreconditionError("left quotients need alpha0 > 0")
    if K < 3:
        raise PreconditionError("need K >= 3 probes")
    center = delta_rational(alpha0, tol)
    points = []
    for k in range(1, K + 1):
        # step N by the denominator: the quotient decays through drops at
        # multiples of q, with a slow rise in between
        N = 1 + alpha0.denominator * k
        off = _ladder_offset(alpha0, N, "below")
        probe = alpha0 - off
        points.append(QuotientPoint(k, probe, Enclosure.exact(off),
                                    center, delta_rational(probe, tol)))
    trace = QuotientTrace(alpha0, points)
    trace.certify()
    return trace


def rational_right_quotients(alpha0: Fraction, K: int, tol: Fraction = DEFAULT_TOL) -> QuotientTrace:
    """Difference quotients (Delta(alpha) - Delta(alpha0+)) / (alpha - alpha0)
    along probes alpha -> alpha0 from the right; expected trend toward_zero.
    """
    alpha0 = Fraction(alpha0)
    if alpha0 <= 0:
        raise PreconditionError("right quotients need alpha0 > 0")
    if K < 3:
        raise PreconditionError("need K >= 3 probes")
    center = delta_right_limit(alpha0, tol)
    points = []
    for k in range(1, K + 1):
        N = 1 + alpha0.denominator * k
        off = _ladder_offset(alpha0, N, "above")
        probe = alpha0 + off
        points.append(QuotientPoint(k, probe, Enclosure.exact(off),
                                    center, delta_rational(probe, tol)))
    trace = QuotientTrace(alpha0, points)
    trace.certify()
    return trace


def zero_plus_quotients(K: int, tol: Fraction = DEFAULT_TOL) -> QuotientTrace:
    """Quotients (Delta(1/q) - 1) * q for q = 2..K+1; expected toward_infinity."""
    if K < 3:
        raise PreconditionError("need K >= 3 probes")
    center = delta_rational(Fraction(0))
    points = []
    for k, q in enumerate(range(2, K + 2), start=1):
        probe = Fraction(1, q)
        points.append(QuotientPoint(k, probe, Enclosure.exact(probe),
                                    center, delta_rational(probe, tol)))
    trace = QuotientTrace(Fraction(0), points)
    trace.certify()
    return trace


# ---------------------------------------------------------------------------
# Probes at an irrational slope
# ---------------------------------------------------------------------------


def irrational_probe(alpha0: ContinuedFraction, I: int, tol: Fraction = DEFAULT_TOL) -> QuotientTrace:
    """Quotient trace along the even convergents p_i/q_i of an irrational slope.

    Even-index convergents all approach from below, so the quotients form one
    coherent family (each includes the jump at its own probe — the term whose
    balance against 1/(q_i q_{i+1}) separates shrinking from exploding
    quotients).  The probe offsets |alpha0 - p_i/q_i| are irrational but are
    sandwiched by the classical bounds 1/(q_i(q_i + q_{i+1})) and
    1/(q_i q_{i+1}).  Requires exact integer partial quotients.
    """
    if I < 2:
        raise PreconditionError("need at least 2 probes")
    for n in range(1, 2 * I + 2):
        if not isinstance(alpha0.term(n), int):
            raise PreconditionError(
                "irrational probes need exact integer convergent denominators")
    center = delta_irrational(alpha0, tol)
    points = []
    for k in range(1, I + 1):
        i = 2 * k
        p_i, q_i = alpha0.exact_convergent(i)
        _, q_next = alpha0.exact_convergent(i + 1)
        dx = Enclosure(Fraction(1, q_i * (q_i + q_next)), Fraction(1, q_i * q_next))
        probe = Fraction(p_i, q_i)
        point = QuotientPoint(k, probe, dx, center, delta_rational(probe, tol))
        _resolve_quotient(point, tol, points[-1] if points else None)
        points.append(point)
    trace = QuotientTrace(alpha0, points)
    trace.certify()
    return trace


def _resolve_quotient(point: QuotientPoint, tol: Fraction,
                      prev: Optional[QuotientPoint], max_rounds: int = 30) -> None:
    """Refine a probe until its quotient is ordered against its predecessor.

    The true quotients move like beta^(-q_i) — far beyond any fixed tolerance
    — but the trend only needs each enclosure to clear the previous one, which
    is exponentially cheaper than resolving the values themselves.
    """
    for _ in range(max_rounds):
        q = point.quotient
        if prev is None:
            if q.lo > 0 and q.width <= q.lo:
                return
        else:
            pq = prev.quotient
            if q.hi < pq.hi or q.lo > pq.lo:
                return
        tol /= 2 ** 10
        point.refine(tol)


# ---------------------------------------------------------------------------
# The explicit separation inequality
# ---------------------------------------------------------------------------


@dataclass
class LowerboundReport:
    """Outcome of the explicit staircase separation inequality at two slopes.

    With beta = Delta(alpha) and beta_N = Delta(alpha_N), whose expansions of
    1 from below share exactly N-1 leading digits, the larger value exceeds
    the smaller by more than (beta-1)(beta_N-1) / (b N B^N), where b is the
    common leading digit and B the larger base.
    """

    N: int
    mirrored: bool  # True when alpha < alpha_N (denominator base is beta_N)
    lhs: Enclosure
    rhs: Enclosure
    holds: bool


def _left_limit_word(alpha: Fraction) -> PeriodicWord:
    """The expansion of 1 from below in base Delta(alpha) (quasi-greedy form)."""
    b, p, q = _split_slope(Fraction(alpha))
    if p == 0:
        # Integer base b: 1- expands as the constant word (b-1)(b-1)...
        if b < 2:
            raise PreconditionError("slope 0 has no expansion from below")
        return PeriodicWord.make((), (b - 1,))
    from .words import bzb_word

    return quasi_greedy_of_finite(bzb_word(b, p, q))


def _common_prefix_length(u: PeriodicWord, v: PeriodicWord, horizon: int = 10 ** 5) -> int:
    for i in range(horizon):
        if u[i] != v[i]:
            return i
    raise PreconditionError("words agree beyond the comparison horizon")


def lowerbound_check(alpha: Fraction, alpha_N: Fraction,
                     tol: Fraction = DEFAULT_TOL, max_rounds: int = 64) -> LowerboundReport:
    """Check the explicit lower bound on |Delta(alpha) - Delta(alpha_N)|.

    N is read off the slopes themselves: the two expansions of 1 from below
    must share exactly N-1 digits and then differ.
    """
    alpha, alpha_N = Fraction(alpha), Fraction(alpha_N)
    if alpha == alpha_N:
        raise PreconditionError("slopes must differ")
    w = _left_limit_word(alpha)
    w_N = _left_limit_word(alpha_N)
    N = _common_prefix_length(w, w_N) + 1
    mirrored = alpha < alpha_N
    beta = delta_rational(alpha, tol)
    beta_N = delta_rational(alpha_N, tol)
    b = max(w[0], w_N[0])

    for _ in range(max_rounds):
        e, e_N = beta.enclosure, beta_N.enclosure
        big = e_N if mirrored else e
        lhs = _abs_enclosure(e - e_N)
        rhs = ((e - Enclosure.exact(Fraction(1)))
               * (e_N - Enclosure.exact(Fraction(1)))
               / (big.pow_int(N) * Enclosure.exact(Fraction(b * N))))
        if lhs.lo > rhs.hi:
            return LowerboundReport(N, mirrored, lhs, rhs, True)
        if lhs.hi < rhs.lo:
            return LowerboundReport(N, mirrored, lhs, rhs, False)
        tol /= 2 ** 8
        beta.refine(tol)
        beta_N.refine(tol)
    raise CertificationError("lower-bound inequality undecided at budget")
