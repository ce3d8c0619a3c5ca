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
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice, repeat
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

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


def _ln_outward(lo, hi) -> Tuple[float, float]:
    """[ln lo, ln hi] with each end two steps outward, for 0 < lo <= hi, each a
    float or an int of at most 900 bits: math.log errs by under an ulp, and an
    int's float conversion moves the log by under one more."""
    return (_down(_down(math.log(lo))), _up(_up(math.log(hi))))


def ln_int_interval(n: int) -> Tuple[float, float]:
    """Outward-rounded [lo, hi] float interval containing ln(n), n >= 1."""
    if n < 1:
        raise PreconditionError("ln_int_interval needs n >= 1")
    if n == 1:
        return (0.0, 0.0)
    if n.bit_length() <= 900:
        return _ln_outward(n, n)
    # Huge integer: mant = n >> s has 64 bits and mant <= n / 2^s < mant + 1,
    # so ln n lies in [ln mant, ln(mant + 1)] + s ln 2, each float step outward.
    s = n.bit_length() - 64
    (lo, _), (_, hi) = ln_int_interval(n >> s), ln_int_interval((n >> s) + 1)
    return (_down(lo + _down(s * _down(math.log(2)))), _up(hi + _up(s * _up(math.log(2)))))


def ln_interval(x: Fraction) -> Tuple[float, float]:
    """Outward-rounded [lo, hi] float interval containing ln(x), rational x > 1:
    log1p of the exact x - 1, or ln(numerator) - ln(denominator) past float range."""
    x = Fraction(x)
    if x <= 1:
        raise PreconditionError("ln_interval needs x > 1")
    try:
        v = math.log1p(float(x - 1))
    except OverflowError:
        (plo, phi), (qlo, qhi) = ln_int_interval(x.numerator), ln_int_interval(x.denominator)
        return (_down(plo - qhi), _up(phi - qlo))
    return (_down(_down(v)), _up(_up(v)))


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
        """Float bounds on the value itself: lo >= 0, hi may be inf."""
        try:
            lo = max(_down(math.exp(self.ln_lo)), 0.0)
        except OverflowError:
            lo = sys.float_info.max
        hi = _up(math.exp(self.ln_hi)) if self.ln_hi < 700 else _INF
        return (lo, hi)

    def mul(self, other: "Nat") -> "LogMagnitude":
        a, b = nat_ln_interval(other)
        return LogMagnitude(_down(self.ln_lo + a), _up(self.ln_hi + b))

    def div(self, other: "Nat") -> "LogMagnitude":
        a, b = nat_ln_interval(other)
        return LogMagnitude(_down(self.ln_lo - b), _up(self.ln_hi - a))


Nat = Union[int, LogMagnitude]


def nat_ln_interval(x: Nat) -> Tuple[float, float]:
    if isinstance(x, LogMagnitude):
        return x.ln_interval()
    return ln_int_interval(x)


def nat_value_interval(x: Nat) -> Tuple[float, float]:
    """Float bounds on the value of x; hi may be inf.  An int of at most 1023
    bits converts to float without overflow, and an end steps outward where
    the conversion rounds (an int compares exactly with a float)."""
    if isinstance(x, LogMagnitude):
        return x.value_interval()
    if x.bit_length() <= 1023:
        f = float(x)
        return (f if f <= x else _down(f), f if f >= x else _up(f))
    return (2.0 ** 1023, _INF)


def log_factorial(x: Nat) -> LogMagnitude:
    """Two-sided Stirling-type bound on ln(x!): x ln x - x <= ln x! <= (x-1) ln x.

    Accepts either an exact integer or an already log-space magnitude.
    """
    if isinstance(x, int) and x < 1:
        raise PreconditionError("log_factorial needs x >= 1")
    if isinstance(x, int) and x <= 2000:
        return LogMagnitude.from_int(math.factorial(x))
    vlo, vhi = nat_value_interval(x)
    ln_lo, ln_hi = nat_ln_interval(x)
    if isinstance(x, int) and vhi != _INF:
        lo, hi = _down(_down(vlo * ln_lo) - vhi), _up(_up(vhi - 1.0) * ln_hi)
    else:
        # x in log space or beyond float range: ln x! in [v(ln x - 1), v ln x]
        # with v any bound on the value of x.
        lo, hi = _down(vlo * (ln_lo - 1.0)), _up(vhi * ln_hi)
    if hi >= LN_SAT:  # inf included
        return LogMagnitude.saturate(max(lo, 0.0))
    return LogMagnitude(lo, hi)


def log_pow(base: Nat, exponent: Nat) -> LogMagnitude:
    """ln(base**exponent) = exponent * ln(base), as a log magnitude."""
    blo, bhi = nat_ln_interval(base)
    elo, ehi = nat_value_interval(exponent)
    lo = _down(elo * blo)
    hi = _up(ehi * bhi) if ehi != _INF else _INF
    if hi >= LN_SAT:  # inf included
        return LogMagnitude.saturate(lo)
    return LogMagnitude(lo, hi)


def exp_tower(base: int, height: int) -> Nat:
    """EXP_k(x): the k-fold power tower of x (EXP_0 = 1, EXP_1 = x, ...)."""
    if height < 0:
        raise PreconditionError("tower height must be >= 0")
    if height == 0 or base == 1:
        return 1
    acc: Nat = base
    for _ in range(height - 1):
        if isinstance(acc, int) and acc <= 4096 / math.log2(base):
            acc = base ** acc
        else:
            acc = log_pow(base, acc)
    return acc


# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


class Convergent(NamedTuple):
    index: int
    p: Nat
    q: Nat


class ContinuedFraction:
    """A regular continued fraction [a0; a1, a2, ...] with lazy, memoized terms.

    ``term_source`` yields the partial quotients a1, a2, ...; each is either a
    positive int or a LogMagnitude descriptor.  The stream may be finite (a
    rational tail), in which case operations needing more terms raise
    :class:`CertificationError`.  ``length`` is the number of partial
    quotients after a0 when the list is known to be finite, else None.
    """

    def __init__(self, a0: int, term_source: Callable[[], Iterator[Nat]], name: str = "",
                 length: Optional[int] = None):
        self.a0 = a0
        self.name = name
        self.length = length
        self._make_iter = term_source
        self._iter: Optional[Iterator[Nat]] = None
        self._terms: List[Nat] = []

    @classmethod
    def from_quotients(cls, a0: int, quotients: Sequence[Nat], name: str = "") -> "ContinuedFraction":
        qs = list(quotients)
        return cls(a0, lambda: iter(qs), name=name, length=len(qs))

    @classmethod
    def constant(cls, a0: int, a: int, name: str = "") -> "ContinuedFraction":
        return cls(a0, partial(repeat, a), name=name)

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
                raise CertificationError(
                    f"continued fraction {self.name or '<anonymous>'} ran out of "
                    f"partial quotients at index {len(self._terms) + 1}"
                )
            if isinstance(t, int) and t < 1:
                raise PreconditionError("partial quotients must be >= 1")
            self._terms.append(t)
        return self._terms[n - 1]

    def convergents(self, bit_budget: float = _INF) -> Iterator[Convergent]:
        """Convergents p_k/q_k for k = 0, 1, ...: exact integers while
        bits(a_k) + bits(q_(k-1)) <= bit_budget, then log-space, p and q
        together and for good: ln q_k = ln a_k + ln q_(k-1) + ln(1 + q_(k-2) /
        (a_k q_(k-1))), with the correction term enclosed outward."""
        p, q, pm1, qm1 = self.a0, 1, 1, 0
        yield Convergent(0, p, q)
        for k in count(1):
            a = self.term(k)
            if isinstance(a, int) and isinstance(q, int) and a.bit_length() + q.bit_length() <= bit_budget:
                p, pm1 = a * p + pm1, p
                q, qm1 = a * q + qm1, q
            else:
                p, pm1 = _log_step(a, p, pm1), p
                q, qm1 = _log_step(a, q, qm1), q
            yield Convergent(k, p, q)

    def _exact(self, c: Convergent) -> Tuple[int, int]:
        """(p_k, q_k) of an exact convergent; raises on a log-space one."""
        if not isinstance(c.q, int):
            raise CertificationError(
                f"convergent q_{c.index} of {self.name or '<cf>'} is not exactly representable")
        return c.p, c.q

    def exact_convergent(self, i: int) -> Tuple[int, int]:
        """(p_i, q_i) as exact integers; raises if a term is log-space only."""
        return self._exact(next(islice(self.convergents(), i, None)))

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

        Uses the convergent p_k/q_k with q_{k-1} > n, k >= 1 least: for
        1 <= m <= n the fractions m*alpha and m*p_k/q_k lie strictly between
        the same two integers, so their floors agree.
        """
        if n == 0:
            return [0]
        convergents = map(self._exact, self.convergents())
        _, q_prev = next(convergents)
        for p, q in convergents:
            if q_prev > n:
                break
            q_prev = q
        return [(m * p) // q for m in range(n + 1)]


def golden_cf() -> ContinuedFraction:
    """[0; 1, 1, 1, ...] = (sqrt(5) - 1) / 2."""
    return ContinuedFraction.constant(0, 1, name="golden")


def sqrt2_minus_1_cf() -> ContinuedFraction:
    """[0; 2, 2, 2, ...] = sqrt(2) - 1."""
    return ContinuedFraction.constant(0, 2, name="sqrt2-1")


def e_cf() -> ContinuedFraction:
    """Euler's continued fraction e = [2; 1, 2, 1, 1, 4, 1, 1, 6, 1, ...]."""

    def gen():
        for m in count(1):
            yield 1
            yield 2 * m
            yield 1

    return ContinuedFraction(2, gen, name="e")


# ---------------------------------------------------------------------------
# Convergents with log-space fallback
# ---------------------------------------------------------------------------


def convergents(cf: ContinuedFraction, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> List[Convergent]:
    """Convergents 0..n of ``cf.convergents(bit_budget)``."""
    if n < 0:
        raise PreconditionError("need n >= 0")
    return list(islice(cf.convergents(bit_budget), n + 1))


def _log_step(a: Nat, prev: Nat, prev2: Nat) -> LogMagnitude:
    """ln(a*prev + prev2) as an interval, given prev >= prev2 >= 0 or prev = 0 < prev2."""
    if prev == 0:
        return LogMagnitude(*nat_ln_interval(prev2))
    alo, ahi = nat_ln_interval(a)
    plo, phi = nat_ln_interval(prev)
    base_lo, base_hi = _down(alo + plo), _up(ahi + phi)
    if base_hi >= LN_SAT:  # inf included
        return LogMagnitude.saturate(base_lo)
    corr_hi = 0.0
    if prev2 != 0:
        # r = prev2 / (a * prev) <= 1, so ln(1 + r) lies in [0, ln(1 + r_hi)]
        r_hi = math.exp(min(_up(nat_ln_interval(prev2)[1] - base_lo), 0.0))
        corr_hi = _up(math.log1p(r_hi))
    return LogMagnitude(_down(base_lo), _up(base_hi + corr_hi))


# ---------------------------------------------------------------------------
# Expansion and elementary helpers
# ---------------------------------------------------------------------------


def cf_expand(x: Fraction, n: int) -> List[int]:
    """First partial quotients [a0, a1, ...] (up to n+1 of them) of the
    rational x, by Euclid's algorithm; the expansion may terminate early."""
    if n < 0:
        raise PreconditionError("cf_expand needs n >= 0")
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    out: List[int] = []
    while den and len(out) <= n:
        a, r = divmod(num, den)
        out.append(a)
        num, den = den, r
    return out


def dist_to_integers(x: Fraction) -> Enclosure:
    """Exact enclosure of ||x||, the distance from rational x to the nearest integer."""
    frac = Fraction(x) % 1
    return Enclosure.exact(min(frac, 1 - frac))


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


def _estimate(kind: str, rows: Iterator[Union[Tuple[int, float, float], str]]) -> MeasureEstimate:
    """The estimate from its running values (n, lo, hi); a string among the
    rows is the note on where the window ended."""
    running: List[Tuple[int, float, float]] = []
    note = ""
    for row in rows:
        if isinstance(row, str):
            note = row
        else:
            running.append(row)
    headline = ((max(v[1] for v in running), max(v[2] for v in running)) if running
                else (0.0, 0.0))
    return MeasureEstimate(kind, running, headline, True, note)


def mu_estimate(cf: ContinuedFraction, N: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> MeasureEstimate:
    """Running values 1 + ln q_{n+1} / ln q_n for n < N."""
    return Preset(cf.name, cf=cf).mu_estimate(N, bit_budget)


def theta_estimate(cf: ContinuedFraction, N: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> MeasureEstimate:
    """Running values ln q_{n+1} / q_n for n < N (log theta scale)."""
    return Preset(cf.name, cf=cf).theta_estimate(N, bit_budget)


def _mu_rows(convs: List[Convergent]):
    for n in range(1, len(convs) - 1):
        la_lo, la_hi = nat_ln_interval(convs[n].q)
        lb_lo, lb_hi = nat_ln_interval(convs[n + 1].q)
        if la_lo <= 0.0:
            continue  # q_n < 2: the ratio is not meaningful yet
        if lb_hi == _INF:
            yield f"ln q_{n + 1} beyond float range; window ends at n={n - 1}"
            return
        yield n, _down(1.0 + lb_lo / la_hi), _up(1.0 + lb_hi / la_lo)


def _theta_rows(convs: List[Convergent]):
    for n in range(1, len(convs) - 1):
        d_lo, d_hi = nat_value_interval(convs[n].q)
        if d_hi == _INF:
            yield f"q_{n} beyond float range; window ends at n={n - 1}"
            return
        lb_lo, lb_hi = nat_ln_interval(convs[n + 1].q)
        if lb_hi == _INF:
            yield f"ln q_{n + 1} beyond float range; window ends at n={n - 1}"
            return
        yield n, _down(lb_lo / d_hi), _up(lb_hi / d_lo)


def _convergents_window(cf: ContinuedFraction, N: int, bit_budget: int) -> List[Convergent]:
    """Convergents 0..N, or as many as a finite quotient list has."""
    try:
        return convergents(cf, N, bit_budget)
    except CertificationError:
        # The list ran out: the failed call has fetched all of its terms.
        return convergents(cf, len(cf._terms), bit_budget)


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
    return _estimate("theta", _theta_sample_rows(samples))


def mu_from_samples(samples: Sequence[ApproximationSample]) -> MeasureEstimate:
    """Lower-bound estimate of mu: max of 1 - ln||q alpha|| / ln q over samples."""
    return _estimate("mu", _mu_sample_rows(samples))


def _theta_sample_rows(samples: Sequence[ApproximationSample]):
    for i, s in enumerate(samples, start=1):
        ratio = s.ratio_bounds or _nat_ratio(s.neg_log_dist, s.q)
        if ratio is None:
            yield f"sample {s.label}: ratio indeterminate in log space; skipped"
        else:
            yield i, ratio[0], ratio[1]


def _mu_sample_rows(samples: Sequence[ApproximationSample]):
    for i, s in enumerate(samples, start=1):
        lq_lo, lq_hi = nat_ln_interval(s.q)
        if lq_lo <= 0.0:
            continue
        v_lo, v_hi = s.neg_log_dist.value_interval()  # -ln||q alpha||
        yield i, _down(1.0 + v_lo / lq_hi), _up(1.0 + v_hi / lq_lo)


def _nat_ratio(num: LogMagnitude, den: Nat) -> Optional[Tuple[float, float]]:
    """Interval of value(num)/value(den) computed in log space."""
    ratio = num.div(den)
    if math.isnan(ratio.ln_lo) or math.isnan(ratio.ln_hi):
        return None  # inf - inf: both saturated with no structural cancellation
    return ratio.value_interval()


# ---------------------------------------------------------------------------
# Best approximations
# ---------------------------------------------------------------------------


def best_approx_check(t, p: int, q: int) -> dict:
    """Exhaustively decide whether p/q is a best approximation to t.

    First kind: |t - p/q| < |t - a/b| for every a/b != p/q with 0 < b <= q.
    Second kind: |q t - p| < |b t - a| likewise.  Exact arithmetic for
    rational t; certified interval comparisons for an Enclosure.
    """
    if q < 1 or math.gcd(p, q) != 1:
        raise PreconditionError("p/q must be reduced with q >= 1")
    if q > 10 ** 4:
        raise PreconditionError("brute-force scope is q <= 10^4")

    def decide(x) -> Optional[dict]:
        if isinstance(x, Enclosure):
            mid, less, size = x.mid, _iv_less, Enclosure.abs
        else:  # rational t: plain Fraction comparisons, no interval products
            mid, less, size = x, operator.lt, abs
        target_first = size(x - Fraction(p, q))
        target_second = size(x * q - p)
        first = True
        second = True
        for b in range(1, q + 1):
            centre = mid * b
            a0 = centre.numerator // centre.denominator
            for a in (a0 - 1, a0, a0 + 1):
                if b == q and a == p:
                    continue
                cmp1 = less(target_first, size(x - Fraction(a, b)))
                cmp2 = less(target_second, size(x * b - a))
                if cmp1 is None or cmp2 is None:
                    return None
                first = first and cmp1
                second = second and cmp2
        return {"first_kind": first, "second_kind": second}

    res = decide(t if isinstance(t, Enclosure) else Fraction(t))
    if res is None:
        raise CertificationError("best_approx_check: enclosure too wide to decide")
    return res


def _iv_less(a: Enclosure, b: Enclosure) -> Optional[bool]:
    if a.hi < b.lo:
        return True
    if b.hi <= a.lo:
        return False
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


# classify's label thresholds: mu estimates at or past MU_CUTOFF, and theta
# trends past THETA_LOW or THETA_HIGH.
MU_CUTOFF = 20.0
THETA_LOW = 1.001
THETA_HIGH = 1e6


@dataclass
class Classification:
    label: str
    mu: Optional[MeasureEstimate]
    theta: Optional[MeasureEstimate]
    theta_enclosure: Optional[Tuple[float, float]]
    caveat: bool = True


def classify(target: Preset, N: int = 8, bit_budget: int = DEFAULT_BIT_BUDGET) -> Classification:
    """Finite-N trisection of a preset into the Liouville growth classes.

    The decision reads the trend of the last few running log-theta estimates
    against the fixed thresholds (early terms of a slowly-starting construction
    would otherwise dominate the running max); limits are not decidable, so
    the result always carries the finite-N caveat.
    """
    theta_est = target.theta_estimate(N, bit_budget)
    mu_est = target.mu_estimate(N, bit_budget)
    tail = theta_est.running[-3:]
    head_lo, head_hi = (max((t[i] for t in tail), default=0.0) for i in (1, 2))
    encl = None
    if head_lo > math.log(THETA_HIGH):
        label = "hyper-exponential"
    elif head_lo > math.log(THETA_LOW):
        label = "exponential"
        encl = LogMagnitude(head_lo, head_hi).value_interval()
    elif mu_est.headline[1] >= MU_CUTOFF:
        label = "hypo-exponential"
    else:
        label = "apparently-non-Liouville"
    return Classification(label, mu_est, theta_est, encl, caveat=True)


# ---------------------------------------------------------------------------
# Example constructions (presets)
# ---------------------------------------------------------------------------


class Preset:
    """A named number construction: a CF descriptor, a sample family, or both."""

    def __init__(self, name: str, cf: Optional[ContinuedFraction] = None,
                 samples: Optional[Callable[[], Iterator[ApproximationSample]]] = None):
        self.name = name
        self.cf = cf
        self._samples = samples

    def samples(self, m_max: int) -> List[ApproximationSample]:
        """The samples m = 1..m_max of the series, or fewer where they end."""
        if self._samples is None:
            raise PreconditionError(f"preset {self.name} has no series samples")
        if m_max < 0:
            raise PreconditionError("m_max must be nonnegative")
        return list(islice(self._samples(), m_max))

    def theta_estimate(self, N: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> MeasureEstimate:
        return self._estimate("theta", N, bit_budget, _theta_rows, _theta_sample_rows)

    def mu_estimate(self, N: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> MeasureEstimate:
        return self._estimate("mu", N, bit_budget, _mu_rows, _mu_sample_rows)

    def _estimate(self, kind: str, N: int, bit_budget: int, cf_rows, sample_rows) -> MeasureEstimate:
        """Every estimator's window: convergents 0..N of the CF (as many as a
        finite one has), else the first N samples; N >= 2."""
        if N < 2:
            raise PreconditionError(f"{kind} estimates need N >= 2")
        if self.cf is None:
            return _estimate(kind, sample_rows(self.samples(N)))
        return _estimate(kind, cf_rows(_convergents_window(self.cf, N, bit_budget)))


def _factorial_series_samples(base: int) -> Iterator[ApproximationSample]:
    """Partial sums of sum 1/base^{k!}: denominators s_m = base^{m!}."""
    ln_b, ln_2 = ln_int_interval(base), ln_int_interval(2)
    for m in count(1):
        f_m = math.factorial(m)
        g_lo, g_hi = nat_value_interval(f_m * m)  # (m+1)! - m!
        if g_hi == _INF:
            return
        q: Nat = base ** f_m if f_m * math.log2(base) <= 4096 else log_pow(base, f_m)
        # ||s_m alpha|| is within a factor 2 of s_m/s_{m+1}, so
        # -ln||s_m alpha|| lies in [gap*ln(base) - ln 2, gap*ln(base)].
        v_lo, v_hi = _down(_down(g_lo * ln_b[0]) - ln_2[1]), _up(g_hi * ln_b[1])
        if v_lo <= 0:
            return
        yield ApproximationSample(f"m={m}", q, LogMagnitude(*_ln_outward(v_lo, v_hi)))


def _tower_series_samples(base: int) -> Iterator[ApproximationSample]:
    """Partial sums of sum 1/EXP_k(base): denominators s_m = EXP_m(base)."""
    ln_b, ln_2 = ln_int_interval(base), ln_int_interval(2)
    e = 1  # s_m = base ** e; the exponent stays an exact int far past s_m itself
    for m in count(1):
        # -ln||s_m alpha|| = ln(s_{m+1}/s_m) - [0, ln 2] = (s_m - e) ln(base) - [0, ln 2]
        if e * math.log2(base) <= 900:
            q: Nat = base ** e
            s_lo, s_hi = nat_value_interval(q)
            g_lo, g_hi = nat_value_interval(q - e)
            v_lo, v_hi = _down(_down(g_lo * ln_b[0]) - ln_2[1]), _up(g_hi * ln_b[1])
            if v_lo <= 0:
                return
            nld = LogMagnitude(*_ln_outward(v_lo, v_hi))
            ratio = (_down(v_lo / s_hi), _up(v_hi / s_lo))
        else:
            # Past s_m = 2^900, e ln(base) and ln 2 move ln(-ln dist) below
            # ln s_m + ln ln(base), and the ratio (-ln dist)/s_m below ln(base),
            # by under 2^-800: far below half an ulp, so one more step down
            # covers them.  (The generic log-space quotient would lose
            # precision here, both its parts being huge.)
            q = log_pow(base, e)
            nld = q.mul(LogMagnitude(*_ln_outward(*ln_b)))
            nld = LogMagnitude(_down(nld.ln_lo), nld.ln_hi)
            ratio = (_down(ln_b[0]), ln_b[1])
        yield ApproximationSample(f"m={m}", q, nld, ratio_bounds=ratio)
        if e * math.log2(base) > 1000:
            return
        e = base ** e


def _double_tower_series_samples() -> Iterator[ApproximationSample]:
    """Partial sums of sum 1/b_n with b_n = EXP_{2^n}(2^n)."""
    ln_2 = ln_int_interval(2)
    for m in count(1):
        b_m = exp_tower(2 ** m, 2 ** m)
        b_m1 = LogMagnitude(*nat_ln_interval(exp_tower(2 ** (m + 1), 2 ** (m + 1))))
        # -ln||b_m alpha|| = ln(b_{m+1}/b_m) - [0, ln 2]
        v_lo, v_hi = b_m1.div(b_m).ln_interval()
        v_lo = _down(v_lo - ln_2[1])
        if v_hi == _INF or v_lo <= 0:
            return
        yield ApproximationSample(f"m={m}", b_m, LogMagnitude(*_ln_outward(v_lo, v_hi)))


def _tower_cf_terms(base: int) -> Iterator[Nat]:
    """a_n = EXP_n(base)."""
    for n in count(1):
        yield exp_tower(base, n)


def _factorial_cf_terms(base: int) -> Iterator[Nat]:
    """a_1 = base, a_{n+1} = a_n! (iterated factorial)."""
    a: Nat = base
    while True:
        yield a
        a = _exact_or_log_factorial(a)


def _exact_or_log_factorial(a: Nat) -> Nat:
    if isinstance(a, int) and a <= 5 * 10 ** 5 and a * max(math.log2(max(a, 2)), 1) <= 2 ** 22:
        return math.factorial(a)
    return log_factorial(a)


def _nested_tower_cf_terms() -> Iterator[Nat]:
    """a_n = EXP_n(n)."""
    for n in count(1):
        yield exp_tower(n, n)


def _targeted_log_term(beta: LogMagnitude, q: Nat) -> LogMagnitude:
    """a = floor(beta^q / q) as a log magnitude, for beta > 1 given as one and
    q log2(beta) > DEFAULT_BIT_BUDGET."""
    y = log_pow(beta, q).div(q)
    # ln floor(y) >= ln y - 2/y for y >= 2; here y has about a million bits,
    # so 2/y is far below half an ulp of ln y and one more step down covers it.
    return LogMagnitude(_down(y.ln_lo), y.ln_hi)


def targeted_theta_cf(beta: Fraction) -> ContinuedFraction:
    """CF with a_n = floor(beta^{q_{n-1}} / q_{n-1}); its irrationality base is beta."""
    beta = Fraction(beta)
    if beta ** 3 < 3:
        # below 2, q_3 = 3 (or a_3 = 0 where beta^2 < 2), and beta^q / q grows
        # from q = 3 on: beta^3 >= 3 is exactly when no a_n is 0
        raise PreconditionError("targeted theta requires beta^3 >= 3, so that every "
                                "floor(beta^q / q) is at least 1")
    try:
        log2_beta = math.log2(beta)
    except OverflowError as exc:
        raise PreconditionError("targeted theta requires beta below about 1.8e308") from exc
    # beta^q has about q log2(beta) bits
    q_exact_max = DEFAULT_BIT_BUDGET / log2_beta

    def gen():
        beta_mag = LogMagnitude(*ln_interval(beta))
        # a_n reads q_(n-1) off cf's own convergents: term() has stored
        # a_1..a_(n-1) before it resumes this source for a_n.
        for c in cf.convergents():
            if isinstance(c.q, int) and c.q <= q_exact_max:
                power = beta ** c.q
                yield int(power.numerator // (power.denominator * c.q))
            else:
                yield _targeted_log_term(beta_mag, c.q)

    cf = ContinuedFraction(0, gen, name=f"targeted:{beta}")
    return cf


def presets() -> dict:
    """Registry of the example constructions, in base 10."""
    return {
        "alpha1": Preset("alpha1", samples=partial(_factorial_series_samples, 10)),
        "alpha2": Preset("alpha2", cf=ContinuedFraction(1, partial(_tower_cf_terms, 10), name="alpha2")),
        "alpha3": Preset("alpha3", cf=ContinuedFraction(0, partial(_factorial_cf_terms, 10), name="alpha3")),
        "alpha4": Preset("alpha4", samples=partial(_tower_series_samples, 10)),
        "alpha5": Preset("alpha5", cf=targeted_theta_cf(Fraction(2))),
        "alpha6": Preset("alpha6", cf=ContinuedFraction(0, _nested_tower_cf_terms, name="alpha6")),
        "alpha7": Preset("alpha7", samples=_double_tower_series_samples),
        "golden": Preset("golden", cf=golden_cf()),
        "sqrt2m1": Preset("sqrt2m1", cf=sqrt2_minus_1_cf()),
        "e": Preset("e", cf=e_cf()),
    }


def lookup_preset(name: str) -> Preset:
    """Resolve a preset by name; 'targeted:BETA' builds the targeted family."""
    if name.startswith("targeted:"):
        try:
            beta = Fraction(name.split(":", 1)[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(f"bad preset {name!r}: {exc}") from exc
        return Preset(name, cf=targeted_theta_cf(beta))
    reg = presets()
    if name not in reg:
        raise PreconditionError(f"unknown preset: {name}")
    return reg[name]
