"""Continued fractions, log-space magnitudes, and irrationality estimators.

Partial quotients and convergent denominators in the worked examples are
astronomically large by construction, so beyond a configurable exact-integer
bit budget every quantity is carried as a natural-log interval
(:class:`LogMagnitude`) with outward float rounding.  The estimators for the
irrationality exponent mu and irrationality base theta only ever need
logarithms, so this loses nothing.

All estimates are finite-N trends, reported as such (``caveat`` is always
set): the underlying limits are not decidable from finitely many terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import CertificationError, PreconditionError
from .intervals import Enclosure

DEFAULT_BIT_BUDGET = 10 ** 6

_INF = math.inf
# Saturation threshold: a LogMagnitude whose ln exceeds this is recorded as
# [LN_SAT, inf).  Kept close to float max so that logs of doubly-iterated
# towers (ln of EXP_4(4) is around 1e154) still carry two-sided bounds.
LN_SAT = 1e300


def _down(x: float) -> float:
    return x if x in (-_INF, _INF) else math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return x if x in (-_INF, _INF) else math.nextafter(x, _INF)


def ln_int_interval(n: int) -> Tuple[float, float]:
    """Outward-rounded [lo, hi] float interval containing ln(n), n >= 1."""
    if n < 1:
        raise PreconditionError("ln_int_interval needs n >= 1")
    if n == 1:
        return (0.0, 0.0)
    if n.bit_length() <= 900:
        v = math.log(n)
        return (_down(_down(v)), _up(_up(v)))
    # Huge integer: ln n = ln(mantissa) + shift*ln 2 from the top bits.
    k = n.bit_length() - 64
    mant = n >> k
    v = math.log(mant) + k * math.log(2)
    slack = 1e-12 * abs(v) + 1e-12
    return (v - slack, v + slack)


@dataclass(frozen=True)
class LogMagnitude:
    """A positive real carried only through an interval around its natural log.

    ``ln_hi`` may be ``inf``, meaning the value's log itself overflows float
    range ("saturated"); ``ln_lo`` then is a valid (huge) lower bound.
    """

    ln_lo: float
    ln_hi: float

    def __post_init__(self):
        if self.ln_lo > self.ln_hi:
            raise ValueError("empty log interval")

    @property
    def saturated(self) -> bool:
        return self.ln_hi == _INF

    @classmethod
    def from_int(cls, n: int) -> "LogMagnitude":
        return cls(*ln_int_interval(n))

    @classmethod
    def saturate(cls, ln_lo: float = LN_SAT) -> "LogMagnitude":
        return cls(min(ln_lo, LN_SAT), _INF)

    def ln_interval(self) -> Tuple[float, float]:
        return (self.ln_lo, self.ln_hi)

    def value_interval(self) -> Tuple[float, float]:
        """Float bounds on the value itself; hi may be inf."""
        lo = _down(math.exp(self.ln_lo)) if self.ln_lo < 700 else sys.float_info.max
        hi = _up(math.exp(self.ln_hi)) if self.ln_hi < 700 else _INF
        return (lo, hi)

    def mul(self, other: "Nat") -> "LogMagnitude":
        a, b = nat_ln_interval(other)
        return LogMagnitude(_down(self.ln_lo + a), _up(self.ln_hi + b))

    def serialize(self) -> dict:
        mid = self.ln_lo if self.saturated else (self.ln_lo + self.ln_hi) / 2
        err = _INF if self.saturated else (self.ln_hi - self.ln_lo) / 2
        return {"ln": repr(mid), "err": repr(err)}


Nat = Union[int, LogMagnitude]


def nat_ln_interval(x: Nat) -> Tuple[float, float]:
    if isinstance(x, LogMagnitude):
        return x.ln_interval()
    return ln_int_interval(x)


def nat_bits(x: Nat) -> int:
    return x.bit_length() if isinstance(x, int) else 1 << 62


def log_factorial(x: Nat) -> LogMagnitude:
    """Two-sided Stirling-type bound on ln(x!): x ln x - x <= ln x! <= (x-1) ln x.

    Accepts either an exact integer or an already log-space magnitude.
    """
    if isinstance(x, int):
        if x < 1:
            raise PreconditionError("log_factorial needs x >= 1")
        if x <= 2000:
            v = math.lgamma(x + 1)
            return LogMagnitude(_down(v * (1 - 1e-13) - 1e-13), _up(v * (1 + 1e-13) + 1e-13))
        lnx_lo, lnx_hi = ln_int_interval(x)
        return LogMagnitude(_down(x * lnx_lo - x), _up((x - 1) * lnx_hi))
    # x itself known only in log space: ln x! in [v(ln x - 1), v ln x] with
    # v any bound on the value of x.
    vlo, vhi = x.value_interval()
    lo = _down(vlo * (x.ln_lo - 1.0))
    if vhi == _INF or x.ln_hi == _INF:
        return LogMagnitude.saturate(max(lo, 0.0))
    hi = _up(vhi * x.ln_hi)
    if hi >= LN_SAT:
        return LogMagnitude.saturate(max(lo, 0.0))
    return LogMagnitude(lo, hi)


def log_pow(base: Nat, exponent: Nat) -> LogMagnitude:
    """ln(base**exponent) = exponent * ln(base), as a log magnitude."""
    blo, bhi = nat_ln_interval(base)
    if isinstance(exponent, int):
        elo = ehi = float(exponent)
    else:
        elo, ehi = exponent.value_interval()
    lo = _down(elo * blo)
    hi = _up(ehi * bhi) if ehi != _INF else _INF
    if hi != _INF and hi >= LN_SAT:
        return LogMagnitude.saturate(lo)
    if hi == _INF:
        return LogMagnitude.saturate(lo)
    return LogMagnitude(lo, hi)


def exp_tower(base: int, height: int) -> Nat:
    """EXP_k(x): the k-fold power tower of x (EXP_0 = 1, EXP_1 = x, ...)."""
    if height < 0:
        raise PreconditionError("tower height must be >= 0")
    if height == 0:
        return 1
    acc: Nat = base
    for _ in range(height - 1):
        if isinstance(acc, int) and acc * math.log2(base) <= 4096:
            acc = base ** acc
        else:
            acc = log_pow(base, acc)
    return acc


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


class ContinuedFraction:
    """A regular continued fraction [a0; a1, a2, ...] with lazy, memoized terms.

    ``term_source`` yields the partial quotients a1, a2, ...; each is either a
    positive int or a LogMagnitude descriptor.  The stream may be finite (a
    rational tail), in which case operations needing more terms raise
    :class:`CertificationError`.
    """

    def __init__(self, a0: int, term_source: Callable[[], Iterator[Nat]], name: str = ""):
        self.a0 = a0
        self.name = name
        self._make_iter = term_source
        self._iter: Optional[Iterator[Nat]] = None
        self._terms: List[Nat] = []
        self._exhausted = False

    @classmethod
    def from_quotients(cls, a0: int, quotients: Sequence[Nat], name: str = "") -> "ContinuedFraction":
        qs = list(quotients)
        return cls(a0, lambda: iter(qs), name=name)

    @classmethod
    def constant(cls, a0: int, a: int, name: str = "") -> "ContinuedFraction":
        def gen():
            while True:
                yield a

        return cls(a0, gen, name=name)

    def clone(self) -> "ContinuedFraction":
        return ContinuedFraction(self.a0, self._make_iter, name=self.name)

    def term(self, n: int) -> Nat:
        """a_n for n >= 1."""
        if n < 1:
            raise PreconditionError("partial quotient index must be >= 1")
        if self._iter is None:
            self._iter = self._make_iter()
        while len(self._terms) < n:
            try:
                t = next(self._iter)
            except StopIteration:
                self._exhausted = True
                raise CertificationError(
                    f"continued fraction {self.name or '<anonymous>'} ran out of "
                    f"partial quotients at index {len(self._terms) + 1}"
                )
            if isinstance(t, int) and t < 1:
                raise PreconditionError("partial quotients must be >= 1")
            self._terms.append(t)
        return self._terms[n - 1]

    def exact_convergent(self, i: int) -> Tuple[int, int]:
        """(p_i, q_i) as exact integers; raises if a term is log-space only."""
        p0, q0 = self.a0, 1
        if i == 0:
            return (p0, q0)
        pm1, qm1 = 1, 0
        p, q = p0, q0
        for n in range(1, i + 1):
            a = self.term(n)
            if not isinstance(a, int):
                raise CertificationError(
                    f"convergent q_{n} of {self.name or '<cf>'} is not exactly representable"
                )
            p, pm1 = a * p + pm1, p
            q, qm1 = a * q + qm1, q
        return (p, q)

    def value_enclosure(self, i: int) -> Enclosure:
        """Enclosure of the value from convergents i and i+1 (exact terms only)."""
        pi, qi = self.exact_convergent(i)
        pj, qj = self.exact_convergent(i + 1)
        lo, hi = Fraction(pi, qi), Fraction(pj, qj)
        if lo > hi:
            lo, hi = hi, lo
        return Enclosure(lo, hi)

    def floors_upto(self, n: int) -> List[int]:
        """[floor(m * alpha) for m in 0..n], computed exactly.

        Uses the convergent p_k/q_k with q_{k-1} > n: for 1 <= m <= n the
        fractions m*alpha and m*p_k/q_k lie strictly between the same two
        integers, so their floors agree.
        """
        if n == 0:
            return [0]
        k = 1
        while True:
            _, qkm1 = self.exact_convergent(k - 1)
            if qkm1 > n:
                break
            k += 1
        pk, qk = self.exact_convergent(k)
        return [(m * pk) // qk for m in range(n + 1)]


def golden_cf() -> ContinuedFraction:
    """[0; 1, 1, 1, ...] = (sqrt(5) - 1) / 2."""
    return ContinuedFraction.constant(0, 1, name="golden")


def sqrt2_minus_1_cf() -> ContinuedFraction:
    """[0; 2, 2, 2, ...] = sqrt(2) - 1."""
    return ContinuedFraction.constant(0, 2, name="sqrt2-1")


def e_cf() -> ContinuedFraction:
    """Euler's continued fraction e = [2; 1, 2, 1, 1, 4, 1, 1, 6, 1, ...]."""

    def gen():
        m = 1
        while True:
            yield 1
            yield 2 * m
            yield 1
            m += 1

    return ContinuedFraction(2, gen, name="e")


# ---------------------------------------------------------------------------
# Convergents with log-space fallback
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Convergent:
    index: int
    p: Nat
    q: Nat


def convergents(cf: ContinuedFraction, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> List[Convergent]:
    """Convergents 0..n.  Exact integers while they fit the bit budget, then
    log-space: ln q_k = ln a_k + ln q_{k-1} + ln(1 + q_{k-2}/(a_k q_{k-1})),
    with the correction term enclosed outward.
    """
    if n < 0:
        raise PreconditionError("need n >= 0")
    out = [Convergent(0, cf.a0, 1)]
    pm1: Nat = 1
    qm1: Nat = 0
    p: Nat = cf.a0
    q: Nat = 1
    for k in range(1, n + 1):
        a = cf.term(k)
        exact = (
            isinstance(a, int)
            and isinstance(p, int)
            and isinstance(q, int)
            and isinstance(pm1, int)
            and isinstance(qm1, int)
            and nat_bits(a) + nat_bits(q) <= bit_budget
        )
        if exact:
            pn: Nat = a * p + pm1
            qn: Nat = a * q + qm1
        else:
            pn = _log_step(a, p, pm1)
            qn = _log_step(a, q, qm1)
        pm1, qm1, p, q = p, q, pn, qn
        out.append(Convergent(k, p, q))
    return out


def _log_step(a: Nat, prev: Nat, prev2: Nat) -> LogMagnitude:
    """ln(a*prev + prev2) as an interval, given prev >= prev2 >= 0."""
    alo, ahi = nat_ln_interval(a)
    plo, phi = nat_ln_interval(prev) if not (isinstance(prev, int) and prev == 0) else (-_INF, -_INF)
    base_lo, base_hi = _down(alo + plo), _up(ahi + phi)
    if isinstance(prev2, int) and prev2 == 0:
        corr_lo, corr_hi = 0.0, 0.0
    else:
        p2lo, p2hi = nat_ln_interval(prev2)
        # r = prev2 / (a * prev) < 1; correction = ln(1 + r)
        r_hi = math.exp(min(_up(p2hi - base_lo), 0.0))
        corr_lo, corr_hi = 0.0, _up(math.log1p(min(r_hi, 1.0)))
    if base_hi == _INF or base_hi >= LN_SAT:
        return LogMagnitude.saturate(base_lo)
    return LogMagnitude(_down(base_lo + corr_lo), _up(base_hi + corr_hi))


# ---------------------------------------------------------------------------
# Expansion and elementary helpers
# ---------------------------------------------------------------------------


def cf_expand(x, n: int, refine: Optional[Callable[[], Enclosure]] = None) -> List[int]:
    """First partial quotients [a0, a1, ...] (up to n+1 of them) of x.

    Rational x uses exact Euclid and may terminate early.  An Enclosure is
    expanded only as far as both endpoints certify the same quotients; if a
    ``refine`` callback is supplied it is invoked (up to a budget) to shrink
    the enclosure when a quotient is undecided.
    """
    if n < 0:
        raise PreconditionError("cf_expand needs n >= 0")
    if isinstance(x, Fraction) or isinstance(x, int):
        return _cf_euclid(Fraction(x), n)
    if not isinstance(x, Enclosure):
        raise PreconditionError("cf_expand needs a Fraction or an Enclosure")
    attempts = 0
    while True:
        got = _cf_interval(x, n)
        if got is not None:
            return got
        if refine is None or attempts >= 64:
            raise CertificationError("cf_expand: quotient undecided at refinement budget")
        x = refine()
        attempts += 1


def _cf_euclid(x: Fraction, n: int) -> List[int]:
    out = []
    for _ in range(n + 1):
        a = x.numerator // x.denominator
        out.append(a)
        frac = x - a
        if frac == 0:
            break
        x = 1 / frac
    # Canonical form: avoid a trailing quotient 1.
    if len(out) >= 2 and out[-1] == 1 and len(out) <= n:
        out[-2] += 1
        out.pop()
    return out


def _cf_interval(x: Enclosure, n: int) -> Optional[List[int]]:
    out = []
    lo, hi = x.lo, x.hi
    for _ in range(n + 1):
        flo = lo.numerator // lo.denominator
        fhi = hi.numerator // hi.denominator
        if flo != fhi:
            return out if out else None
        out.append(flo)
        lo, hi = lo - flo, hi - flo
        if lo == 0 or hi == 0:
            return out
        lo, hi = 1 / hi, 1 / lo
    return out


def dist_to_integers(x) -> Enclosure:
    """Enclosure of ||x||, the distance from x to the nearest integer."""
    if isinstance(x, (Fraction, int)):
        f = Fraction(x)
        fl = f.numerator // f.denominator
        frac = f - fl
        return Enclosure.exact(min(frac, 1 - frac))
    if not isinstance(x, Enclosure):
        raise PreconditionError("dist_to_integers needs a Fraction or an Enclosure")

    def norm(v: Fraction) -> Fraction:
        frac = v - (v.numerator // v.denominator)
        return min(frac, 1 - frac)

    lo_v, hi_v = norm(x.lo), norm(x.hi)
    lo, hi = min(lo_v, hi_v), max(lo_v, hi_v)
    # If the interval straddles an integer the min is 0; if it straddles a
    # half-integer the max is exactly 1/2.
    if x.contains(Fraction(math.ceil(x.lo))):
        lo = Fraction(0)
    two = x * 2
    m = math.ceil(two.lo)
    if m % 2 == 0:
        m += 1
    if two.contains(Fraction(m)):
        hi = Fraction(1, 2)
    return Enclosure(lo, hi)


# ---------------------------------------------------------------------------
# mu / theta estimators
# ---------------------------------------------------------------------------


@dataclass
class MeasureEstimate:
    """Finite-N running estimates of an irrationality measure.

    ``running`` holds (n, lo, hi) triples; ``headline`` is the interval of the
    running maximum.  ``caveat`` is always True: these are finite-N trends,
    not the defining limsups.
    """

    kind: str
    running: List[Tuple[int, float, float]]
    headline: Tuple[float, float]
    caveat: bool = True
    window_note: str = ""

    def headline_max(self) -> float:
        return self.headline[1]


def _running_max(values: List[Tuple[int, float, float]]) -> Tuple[float, float]:
    if not values:
        return (0.0, 0.0)
    return (max(v[1] for v in values), max(v[2] for v in values))


def mu_estimate(cf: ContinuedFraction, N: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> MeasureEstimate:
    """Running values 1 + ln q_{n+1} / ln q_n for n < N."""
    if N < 2:
        raise PreconditionError("mu_estimate needs N >= 2")
    convs = _convergents_window(cf, N, bit_budget)
    running: List[Tuple[int, float, float]] = []
    note = ""
    for n in range(1, len(convs) - 1):
        la_lo, la_hi = nat_ln_interval(convs[n].q)
        lb_lo, lb_hi = nat_ln_interval(convs[n + 1].q)
        if la_lo <= 0.0:
            continue  # q_n < 2: the ratio is not meaningful yet
        if lb_hi == _INF:
            note = f"ln q_{n + 1} beyond float range; window ends at n={n}"
            break
        running.append((n, _down(1.0 + lb_lo / la_hi), _up(1.0 + lb_hi / la_lo)))
    return MeasureEstimate("mu", running, _running_max(running), True, note)


def theta_estimate(cf: ContinuedFraction, N: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> MeasureEstimate:
    """Running values ln q_{n+1} / q_n for n < N (log theta scale)."""
    if N < 2:
        raise PreconditionError("theta_estimate needs N >= 2")
    convs = _convergents_window(cf, N, bit_budget)
    running: List[Tuple[int, float, float]] = []
    note = ""
    for n in range(1, len(convs) - 1):
        qn = convs[n].q
        if isinstance(qn, int):
            d_lo = d_hi = qn
        else:
            d_lo, d_hi = qn.value_interval()
            if d_hi == _INF:
                note = f"q_{n} representable only in log space; window ends at n={n - 1}"
                break
        lb_lo, lb_hi = nat_ln_interval(convs[n + 1].q)
        if lb_hi == _INF:
            note = f"ln q_{n + 1} beyond float range; window ends at n={n - 1}"
            break
        running.append((n, _down(lb_lo / float(d_hi)), _up(lb_hi / float(d_lo))))
    return MeasureEstimate("theta", running, _running_max(running), True, note)


def _convergents_window(cf: ContinuedFraction, N: int, bit_budget: int) -> List[Convergent]:
    try:
        return convergents(cf, N, bit_budget)
    except CertificationError:
        # Finite quotient list shorter than requested: use what exists.
        k = 0
        while True:
            try:
                cf.term(k + 1)
                k += 1
            except CertificationError:
                break
        return convergents(cf, k, bit_budget)


@dataclass(frozen=True)
class ApproximationSample:
    """A known good rational approximation to a target number.

    ``q`` is the denominator; ``neg_log_dist`` is a magnitude whose value is
    -ln||q * alpha|| (the distance is astronomically small, so only the log
    of its reciprocal is representable; the magnitude carries the log of
    *that*).  ``ratio_bounds``, when present, is a sharper certified interval
    for (-ln||q alpha||) / q computed from the structure of the construction;
    the generic log-space quotient loses precision once both parts are huge.
    """

    label: str
    q: Nat
    neg_log_dist: LogMagnitude
    ratio_bounds: Optional[Tuple[float, float]] = None


def theta_from_samples(samples: Sequence[ApproximationSample]) -> MeasureEstimate:
    """Lower-bound estimate of log theta: max of -ln||q alpha|| / q over samples.

    Any subsequence of good denominators lower-bounds the limsup, so this is
    a certified one-sided estimate.
    """
    running: List[Tuple[int, float, float]] = []
    note = ""
    for i, s in enumerate(samples):
        ratio = s.ratio_bounds or _nat_ratio(s.neg_log_dist, s.q)
        if ratio is None:
            note = f"sample {s.label}: ratio indeterminate in log space; skipped"
            continue
        running.append((i + 1, ratio[0], ratio[1]))
    return MeasureEstimate("theta", running, _running_max(running), True, note)


def mu_from_samples(samples: Sequence[ApproximationSample]) -> MeasureEstimate:
    """Lower-bound estimate of mu: max of 1 - ln||q alpha|| / ln q over samples."""
    running: List[Tuple[int, float, float]] = []
    note = ""
    for i, s in enumerate(samples):
        lq_lo, lq_hi = nat_ln_interval(s.q)
        if lq_lo <= 0.0:
            continue
        nl_lo, nl_hi = s.neg_log_dist.ln_interval()
        # value of neg_log_dist divided by ln q
        v_lo = math.exp(nl_lo) if nl_lo < 700 else _INF
        v_hi = math.exp(nl_hi) if nl_hi < 700 else _INF
        if v_lo == _INF:
            running.append((i + 1, _down(1.0 + sys.float_info.max / lq_hi), _INF))
            continue
        hi = _INF if v_hi == _INF else _up(1.0 + v_hi / lq_lo)
        running.append((i + 1, _down(1.0 + v_lo / lq_hi), hi))
    return MeasureEstimate("mu", running, _running_max(running), True, note)


def _nat_ratio(num: LogMagnitude, den: Nat) -> Optional[Tuple[float, float]]:
    """Interval of value(num)/value(den) computed in log space."""
    nlo, nhi = num.ln_interval()
    dlo, dhi = nat_ln_interval(den)
    lo_exp = nlo - dhi
    hi_exp = nhi - dlo
    if math.isnan(lo_exp) or math.isnan(hi_exp):
        return None  # inf - inf: both saturated with no structural cancellation
    if lo_exp < -740:
        lo = 0.0
    elif lo_exp > 709:
        lo = sys.float_info.max
    else:
        lo = _down(math.exp(_down(lo_exp)))
    hi = _INF if hi_exp > 709 else _up(math.exp(_up(hi_exp)))
    return (lo, hi)


# ---------------------------------------------------------------------------
# Best approximations
# ---------------------------------------------------------------------------


def best_approx_check(t, p: int, q: int, refine: Optional[Callable[[], Enclosure]] = None) -> dict:
    """Exhaustively decide whether p/q is a best approximation to t.

    First kind: |t - p/q| < |t - a/b| for every a/b != p/q with 0 < b <= q.
    Second kind: |q t - p| < |b t - a| likewise.  Exact arithmetic for
    rational t; certified interval comparisons for an Enclosure.
    """
    if q < 1 or math.gcd(p, q) != 1:
        raise PreconditionError("p/q must be reduced with q >= 1")
    if q > 10 ** 4:
        raise PreconditionError("brute-force scope is q <= 10^4")

    def decide(x) -> dict:
        target_first = _abs_diff(x, Fraction(p, q))
        target_second = _abs_lin(x, p, q)
        first = True
        second = True
        for b in range(1, q + 1):
            if isinstance(x, Enclosure):
                centre = x.mid * b
            else:
                centre = x * b
            a0 = centre.numerator // centre.denominator
            for a in (a0 - 1, a0, a0 + 1):
                if b == q and a == p:
                    continue
                if Fraction(a, b) == Fraction(p, q):
                    continue
                cmp1 = _iv_less(target_first, _abs_diff(x, Fraction(a, b)))
                cmp2 = _iv_less(target_second, _abs_lin(x, a, b))
                if cmp1 is None or cmp2 is None:
                    return {"undecided": True}
                first = first and cmp1
                second = second and cmp2
        return {"first_kind": first, "second_kind": second, "undecided": False}

    attempts = 0
    while True:
        res = decide(t)
        if not res.get("undecided"):
            res.pop("undecided", None)
            return res
        if refine is None or attempts >= 64:
            raise CertificationError("best_approx_check: comparison undecided at budget")
        t = refine()
        attempts += 1


def _abs_diff(x, frac: Fraction) -> Enclosure:
    if isinstance(x, Enclosure):
        d = x - Enclosure.exact(frac)
    else:
        d = Enclosure.exact(Fraction(x) - frac)
    return _iv_abs(d)


def _abs_lin(x, a: int, b: int) -> Enclosure:
    if isinstance(x, Enclosure):
        d = x * b - Enclosure.exact(a)
    else:
        d = Enclosure.exact(Fraction(x) * b - a)
    return _iv_abs(d)


def _iv_abs(e: Enclosure) -> Enclosure:
    if e.lo >= 0:
        return e
    if e.hi <= 0:
        return Enclosure(-e.hi, -e.lo)
    return Enclosure(Fraction(0), max(-e.lo, e.hi))


def _iv_less(a: Enclosure, b: Enclosure) -> Optional[bool]:
    if a.hi < b.lo:
        return True
    if b.hi <= a.lo:
        return False
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    mu_cutoff: float = 20.0
    theta_low: float = 1.001
    theta_high: float = 1e6


@dataclass
class Classification:
    label: str
    mu: Optional[MeasureEstimate]
    theta: Optional[MeasureEstimate]
    theta_enclosure: Optional[Tuple[float, float]]
    caveat: bool = True


def classify(target, N: int = 8, thresholds: Thresholds = Thresholds()) -> Classification:
    """Finite-N trisection of a preset (or CF) into the Liouville growth classes.

    The decision reads the trend of the last few running log-theta estimates
    against the thresholds (early terms of a slowly-starting construction
    would otherwise dominate the running max); limits are not decidable, so
    the result always carries the finite-N caveat.
    """
    if isinstance(target, Preset):
        preset = target
    else:
        preset = Preset(getattr(target, "name", None) or "cf", cf=target)
    theta_est = preset.theta_estimate(N)
    mu_est = preset.mu_estimate(N)
    log_low = math.log(thresholds.theta_low)
    log_high = math.log(thresholds.theta_high)
    tail = theta_est.running[-3:]
    if tail:
        head_lo = max(t[1] for t in tail)
        head_hi = max(t[2] for t in tail)
    else:
        head_lo, head_hi = 0.0, 0.0
    if head_lo > log_high:
        label = "hyper-exponential"
        encl = None
    elif head_lo > log_low:
        label = "exponential"
        encl = (math.exp(head_lo), math.exp(min(head_hi, 700.0)))
    else:
        if mu_est is not None and mu_est.headline[1] >= thresholds.mu_cutoff:
            label = "hypo-exponential"
        else:
            label = "apparently-non-Liouville"
        encl = None
    return Classification(label, mu_est, theta_est, encl, caveat=True)


# ---------------------------------------------------------------------------
# Example constructions (presets)
# ---------------------------------------------------------------------------


class Preset:
    """A named number construction: a CF descriptor, a sample family, or both."""

    def __init__(self, name: str, cf: Optional[ContinuedFraction] = None,
                 samples: Optional[Callable[[int], List[ApproximationSample]]] = None):
        self.name = name
        self.cf = cf
        self._samples = samples

    def samples(self, m_max: int) -> List[ApproximationSample]:
        if self._samples is None:
            raise PreconditionError(f"preset {self.name} has no series samples")
        return self._samples(m_max)

    def theta_estimate(self, N: int) -> MeasureEstimate:
        if self.cf is not None:
            return theta_estimate(self.cf.clone(), N)
        return theta_from_samples(self.samples(N))

    def mu_estimate(self, N: int) -> Optional[MeasureEstimate]:
        if self.cf is not None:
            return mu_estimate(self.cf.clone(), N)
        return mu_from_samples(self.samples(N))


def _factorial_series_samples(base: int) -> Callable[[int], List[ApproximationSample]]:
    """Partial sums of sum 1/base^{k!}: denominators s_m = base^{m!}."""

    def make(m_max: int) -> List[ApproximationSample]:
        lnb = math.log(base)
        ln2 = math.log(2)
        out = []
        for m in range(1, m_max + 1):
            f_m = math.factorial(m)
            gap = f_m * m  # (m+1)! - m!
            try:
                g = float(gap)
            except OverflowError:
                break
            if f_m * math.log2(base) <= 4096:
                q: Nat = base ** f_m
            else:
                lq = float(f_m) * lnb
                q = LogMagnitude(_down(lq * (1 - 1e-12)), _up(lq * (1 + 1e-12)))
            # ||s_m alpha|| is within a factor 2 of s_m/s_{m+1}, so
            # -ln||s_m alpha|| lies in [gap*ln(base) - ln 2, gap*ln(base)].
            v_lo = g * lnb - ln2
            v_hi = g * lnb
            if v_lo <= 0:
                break
            nld = LogMagnitude(_down(math.log(v_lo * (1 - 1e-12))),
                               _up(math.log(v_hi * (1 + 1e-12))))
            out.append(ApproximationSample(f"m={m}", q, nld))
        return out

    return make


def _tower_series_samples(base: int) -> Callable[[int], List[ApproximationSample]]:
    """Partial sums of sum 1/EXP_k(base): denominators s_m = EXP_m(base)."""

    def make(m_max: int) -> List[ApproximationSample]:
        lnb = math.log(base)
        ln2 = math.log(2)
        out = []
        e = 1  # s_m = base ** e; the exponent stays an exact int far past s_m itself
        for m in range(1, m_max + 1):
            ln_s = e * lnb
            if e * math.log2(base) <= 53:
                q: Nat = base ** e
            else:
                q = LogMagnitude(_down(ln_s * (1 - 1e-12)), _up(ln_s * (1 + 1e-12)))
            # -ln||s_m alpha|| = ln(s_{m+1}/s_m) - [0, ln 2],  s_{m+1} = base^{s_m}
            if e * math.log2(base) <= 900:
                s_val = float(base ** e)  # exact power, one float rounding
                v_lo = (s_val - e) * lnb - ln2
                v_hi = (s_val - e) * lnb
                nld = LogMagnitude(_down(math.log(v_lo * (1 - 1e-12))),
                                   _up(math.log(v_hi * (1 + 1e-12))))
            else:
                # ln(-ln dist) = ln s_m + ln ln(base) up to a relatively tiny term
                pad = abs(ln_s) * 1e-12 + 1e-9
                nld = LogMagnitude(_down(ln_s + math.log(lnb) - pad),
                                   _up(ln_s + math.log(lnb) + pad))
            # ratio (-ln dist)/s_m = ln(base) - (ln s_m + [0, ln 2])/s_m, bounded
            # directly so no precision is lost dividing log-space magnitudes
            corr = (ln_s + ln2) * math.exp(-min(ln_s, 700.0)) * 1.01 + 1e-15
            r_lo = _down((lnb - corr) * (1 - 1e-12))
            r_hi = _up(lnb * (1 + 1e-12))
            out.append(ApproximationSample(f"m={m}", q, nld, ratio_bounds=(r_lo, r_hi)))
            if e * math.log2(base) > 1000:
                break
            e = base ** e
        return out

    return make


def _double_tower_series_samples() -> Callable[[int], List[ApproximationSample]]:
    """Partial sums of sum 1/b_n with b_n = EXP_{2^n}(2^n)."""

    def make(m_max: int) -> List[ApproximationSample]:
        ln2 = math.log(2)
        out = []
        for m in range(1, m_max + 1):
            b_m = exp_tower(2 ** m, 2 ** m)
            b_m1 = exp_tower(2 ** (m + 1), 2 ** (m + 1))
            lm_lo, lm_hi = nat_ln_interval(b_m)
            ln_lo, ln_hi = nat_ln_interval(b_m1)
            if ln_hi == _INF or lm_hi == _INF:
                break
            # -ln||b_m alpha|| = ln(b_{m+1}/b_m) - [0, ln 2]
            v_lo = ln_lo - lm_hi - ln2
            v_hi = ln_hi - lm_lo
            if v_lo <= 0:
                break
            nld = LogMagnitude(_down(math.log(v_lo * (1 - 1e-9))),
                               _up(math.log(v_hi * (1 + 1e-9))))
            out.append(ApproximationSample(f"m={m}", b_m, nld))
        return out

    return make


def _tower_cf_terms(base: int) -> Callable[[], Iterator[Nat]]:
    def gen():
        n = 1
        while True:
            yield exp_tower(base, n)
            n += 1

    return gen


def _factorial_cf_terms(base: int) -> Callable[[], Iterator[Nat]]:
    """a_1 = base, a_{n+1} = a_n! (iterated factorial)."""

    def gen():
        a: Nat = base
        while True:
            yield a
            a = _exact_or_log_factorial(a)

    return gen


def _exact_or_log_factorial(a: Nat) -> Nat:
    if isinstance(a, int) and a <= 5 * 10 ** 5 and a * max(math.log2(max(a, 2)), 1) <= 2 ** 22:
        return math.factorial(a)
    return log_factorial(a)


def _nested_tower_cf_terms() -> Callable[[], Iterator[Nat]]:
    """a_n = EXP_n(n)."""

    def gen():
        n = 1
        while True:
            yield exp_tower(n, n) if n > 1 else 1
            n += 1

    return gen


def targeted_theta_cf(beta: Fraction) -> ContinuedFraction:
    """CF with a_n = floor(beta^{q_{n-1}} / q_{n-1}); its irrationality base is beta."""
    beta = Fraction(beta)
    if beta <= 1:
        raise PreconditionError("targeted theta requires beta > 1")
    ln_beta = math.log(beta)

    def gen():
        q_prev2, q_prev = 0, 1
        while True:
            bits = float(q_prev) * math.log2(float(beta)) if isinstance(q_prev, int) else _INF
            if isinstance(q_prev, int) and bits <= DEFAULT_BIT_BUDGET:
                power = beta ** q_prev
                a: Nat = int(power.numerator // (power.denominator * q_prev))
                q_next: Nat = a * q_prev + q_prev2
            else:
                qp_lo, qp_hi = (q_prev, q_prev) if isinstance(q_prev, int) else q_prev.value_interval()
                lq_lo, lq_hi = nat_ln_interval(q_prev)
                lo = _down(qp_lo * ln_beta - lq_hi - 1e-9)
                hi = _up(qp_hi * ln_beta - lq_lo) if qp_hi != _INF else _INF
                a = LogMagnitude.saturate(lo) if (hi == _INF or hi >= LN_SAT) else LogMagnitude(lo, hi)
                q_next = a.mul(q_prev) if isinstance(a, LogMagnitude) else a * q_prev
            yield a
            q_prev2, q_prev = q_prev, q_next

    return ContinuedFraction(0, gen, name=f"targeted:{beta}")


def presets(base: int = 10) -> dict:
    """Registry of the example constructions, parametrizable by base."""
    reg = {
        "alpha1": Preset("alpha1", samples=_factorial_series_samples(base)),
        "alpha2": Preset("alpha2", cf=ContinuedFraction(1, _tower_cf_terms(base), name="alpha2")),
        "alpha3": Preset("alpha3", cf=ContinuedFraction(0, _factorial_cf_terms(base), name="alpha3")),
        "alpha4": Preset("alpha4", samples=_tower_series_samples(base)),
        "alpha5": Preset("alpha5", cf=targeted_theta_cf(Fraction(2))),
        "alpha6": Preset("alpha6", cf=ContinuedFraction(0, _nested_tower_cf_terms(), name="alpha6")),
        "alpha7": Preset("alpha7", samples=_double_tower_series_samples()),
        "golden": Preset("golden", cf=golden_cf()),
        "sqrt2m1": Preset("sqrt2m1", cf=sqrt2_minus_1_cf()),
        "e": Preset("e", cf=e_cf()),
    }
    return reg


def lookup_preset(name: str, base: int = 10) -> Preset:
    """Resolve a preset by name; 'targeted:BETA' builds the targeted family."""
    if name.startswith("targeted:"):
        beta = Fraction(name.split(":", 1)[1])
        return Preset(name, cf=targeted_theta_cf(beta))
    reg = presets(base)
    if name not in reg:
        raise PreconditionError(f"unknown preset: {name}")
    return reg[name]
