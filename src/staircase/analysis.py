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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Union

from .beta import quasi_greedy_of_finite
from .delta import (DeltaValue, delta_irrational, delta_rational,
                    delta_right_limit, _split_slope)
from .diophantine import ContinuedFraction
from .errors import CertificationError, PreconditionError
from .intervals import Enclosure, refine_until
from .words import PeriodicWord, bzb_word, first_difference

DEFAULT_TOL = Fraction(1, 10 ** 12)
TREND_WINDOW = 5


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
        diff = self.probe_value.enclosure - self.center_value.enclosure
        return diff.abs() / self.dx


@dataclass
class QuotientTrace:
    center: Union[Fraction, ContinuedFraction]
    points: List[QuotientPoint]
    verdict: str = "inconclusive"  # toward_zero | toward_infinity | inconclusive

    def certify(self) -> str:
        """Decide the trend over the last ``TREND_WINDOW`` probes, refining as needed."""
        pts = self.points[-min(TREND_WINDOW, len(self.points)):]
        if len(pts) < 2:
            self.verdict = "inconclusive"
            return self.verdict

        def trend() -> Optional[str]:
            qs = [p.quotient for p in pts]
            if all(qs[i].hi > qs[i + 1].hi for i in range(len(qs) - 1)):
                return "toward_zero"
            if all(qs[i].lo < qs[i + 1].lo for i in range(len(qs) - 1)):
                return "toward_infinity"
            return None

        tol = min(max(p.quotient.width, Fraction(1, 2 ** 48)) for p in pts)
        values = [v for p in pts for v in (p.center_value, p.probe_value)]
        try:
            self.verdict = refine_until(trend, values, tol, 2 ** 8, 8, "quotient trend")
        except CertificationError:
            self.verdict = "inconclusive"
        return self.verdict


# ---------------------------------------------------------------------------
# One-sided quotients at rational slopes
# ---------------------------------------------------------------------------


def _ladder_offset(alpha0: Fraction, N: int, side: str) -> Fraction:
    """The simplest fraction in the probe ladder ((2qN)^-1, delta_N) on the
    given side of alpha0 = p/q, for N >= q.

    delta_N is the prefix-agreement radius: every slope within it shares the
    first N staircase digits with alpha0, which makes the probe quotient
    meaningful.  As N >= q it is 1/(q b) for the Farey neighbour a/b of order
    N on that side, b the largest b <= N with b = d mod q (d = p^-1 mod q below,
    -p^-1 mod q above, 0 at q = 1); 1/(q b + 1) lies in the ladder as b <= N,
    and its small denominator keeps the probe's expansion short.
    """
    p, q = alpha0.numerator, alpha0.denominator
    d = pow(p, -1, q) if side == "below" else -pow(p, -1, q) % q
    return Fraction(1, q * (d + q * ((N - d) // q)) + 1)


def rational_left_quotients(alpha0: Fraction, K: int, tol: Fraction = DEFAULT_TOL) -> QuotientTrace:
    """Difference quotients (Delta(alpha0) - Delta(alpha)) / (alpha0 - alpha)
    along probes alpha -> alpha0 from the left; expected trend toward_zero.
    """
    return _rational_quotients(alpha0, K, tol, "below")


def rational_right_quotients(alpha0: Fraction, K: int, tol: Fraction = DEFAULT_TOL) -> QuotientTrace:
    """Difference quotients (Delta(alpha) - Delta(alpha0+)) / (alpha - alpha0)
    along probes alpha -> alpha0 from the right; expected trend toward_zero.
    """
    return _rational_quotients(alpha0, K, tol, "above")


def _rational_quotients(alpha0: Fraction, K: int, tol: Fraction, side: str) -> QuotientTrace:
    """One-sided quotients at alpha0 against Delta(alpha0) from below and
    Delta(alpha0+) from above."""
    alpha0 = Fraction(alpha0)
    if alpha0 <= 0:
        raise PreconditionError("one-sided quotients need alpha0 > 0")
    if K < 3:
        raise PreconditionError("need K >= 3 probes")
    center = (delta_rational if side == "below" else delta_right_limit)(alpha0, tol)
    points = []
    for k in range(1, K + 1):
        # step N by the denominator: the quotient decays through drops at
        # multiples of q, with a slow rise in between
        N = 1 + alpha0.denominator * k
        off = _ladder_offset(alpha0, N, side)
        probe = alpha0 - off if side == "below" else alpha0 + off
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
    convs = list(islice(alpha0.convergents(), 2 * I + 2))
    if not all(isinstance(c.q, int) for c in convs):
        raise PreconditionError(
            "irrational probes need exact integer convergent denominators")
    center = delta_irrational(alpha0, tol)
    points = []
    for k in range(1, I + 1):
        (_, p_i, q_i), (_, _, q_next) = convs[2 * k], convs[2 * k + 1]
        dx = Enclosure(Fraction(1, q_i * (q_i + q_next)), Fraction(1, q_i * q_next))
        probe = Fraction(p_i, q_i)
        point = QuotientPoint(k, probe, dx, center, delta_rational(probe, tol))
        _resolve_quotient(point, tol, points[-1] if points else None)
        points.append(point)
    trace = QuotientTrace(alpha0, points)
    trace.certify()
    return trace


def _resolve_quotient(point: QuotientPoint, tol: Fraction, prev: Optional[QuotientPoint]) -> None:
    """Refine a probe until its quotient is ordered against its predecessor.

    The true quotients move like beta^(-q_i) — far beyond any fixed tolerance
    — but the trend only needs each enclosure to clear the previous one, which
    is exponentially cheaper than resolving the values themselves.
    """

    def ordered() -> Optional[bool]:
        q = point.quotient
        if prev is None:
            return True if q.lo > 0 and q.width <= q.lo else None
        pq = prev.quotient
        return True if q.hi < pq.hi or q.lo > pq.lo else None

    try:
        refine_until(ordered, (point.center_value, point.probe_value), tol, 2 ** 10, 30,
                     "probe quotient")
    except CertificationError:
        pass  # certify() judges the trend from the enclosures reached


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
    if alpha == 0:
        raise PreconditionError("slope 0 has no expansion from below")
    return quasi_greedy_of_finite(bzb_word(*_split_slope(Fraction(alpha))))


def _log2(x: Fraction) -> float:
    """log2 x for a fraction x >= 0, to within float error; -inf at 0."""
    return math.log2(x.numerator) - math.log2(x.denominator) if x else -math.inf


def lowerbound_check(alpha: Fraction, alpha_N: Fraction,
                     tol: Fraction = DEFAULT_TOL) -> LowerboundReport:
    """Check the explicit lower bound on |Delta(alpha) - Delta(alpha_N)|.

    N is read off the slopes themselves: the two expansions of 1 from below
    must share exactly N-1 digits and then differ.
    """
    alpha, alpha_N = Fraction(alpha), Fraction(alpha_N)
    if alpha == alpha_N:
        raise PreconditionError("slopes must differ")
    w = _left_limit_word(alpha)
    w_N = _left_limit_word(alpha_N)
    N = first_difference(w, w_N) + 1
    mirrored = alpha < alpha_N
    beta = delta_rational(alpha, tol)
    beta_N = delta_rational(alpha_N, tol)
    b = max(w[0], w_N[0])

    def report() -> Optional[LowerboundReport]:
        e, e_N = beta.enclosure, beta_N.enclosure
        big = e_N if mirrored else e
        lhs = (e - e_N).abs()
        # h is log2 rhs.hi to far under a bit (the bases' cells lie at or above 1).
        # Where lhs reaches from under half of rhs.hi to over twice it, neither
        # inequality can hold, so the round builds no N-th power of big's ends
        h = _log2(e.hi - 1) + _log2(e_N.hi - 1) - N * _log2(big.lo) - math.log2(b * N)
        if _log2(lhs.lo) <= h - 1 and _log2(lhs.hi) >= h + 1:
            return None
        rhs = (e - 1) * (e_N - 1) / (big.pow_int(N) * (b * N))
        if lhs.lo > rhs.hi:
            return LowerboundReport(N, mirrored, lhs, rhs, True)
        if lhs.hi < rhs.lo:
            return LowerboundReport(N, mirrored, lhs, rhs, False)
        return None

    return refine_until(report, (beta, beta_N), tol, 2 ** 8, 64, "lower-bound inequality")
