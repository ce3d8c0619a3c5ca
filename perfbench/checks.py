"""Independent output checks for the benchmark.

Everything here is the benchmark's own exact arithmetic: words come from the
floor formula of mechanical words, enclosures are tested with integer sign
evaluations of the defining series, and irrational values are compared with
an mpmath reference computed at high precision.  Nothing calls into the code
under test, so a wrong result cannot vouch for itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple


class CheckFailed(AssertionError):
    """An output of the program is wrong or lacks its certificate."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Words from the floor formula
# ---------------------------------------------------------------------------


def split_slope(alpha: Fraction):
    """alpha = (b - 1) + p/q with 0 <= p < q."""
    whole = alpha.numerator // alpha.denominator
    frac = alpha - whole
    return whole + 1, frac.numerator, frac.denominator


def central_letters(p: int, q: int):
    """Letters 1..q-2 of the lower mechanical word of slope p/q."""
    return tuple((k + 1) * p // q - k * p // q for k in range(1, q - 1))


def staircase_word(alpha: Fraction):
    """Greedy expansion of 1 in base Delta(alpha): b z b on {b-1, b}."""
    b, p, q = split_slope(alpha)
    if p == 0:
        return (b,)
    return (b,) + tuple(b - 1 + c for c in central_letters(p, q)) + (b,)


def right_limit_parts(alpha: Fraction):
    """(pre, per) of the expansion of 1 in base Delta(alpha+)."""
    b, p, q = split_slope(alpha)
    if p == 0:
        return (b,), (b - 1,)  # integer slope b - 1: (b) (b - 1)^w
    z = tuple(b - 1 + c for c in central_letters(p, q))
    return (b,), z + (b, b - 1)


def periodic_prefix(pre, per, n):
    return tuple(pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
                 for i in range(n))


def christoffel_word(p: int, q: int):
    return tuple((k + 1) * p // q - k * p // q for k in range(q))


def cf_quotients(x: Fraction, n: int):
    out = []
    num, den = x.numerator, x.denominator
    while den and len(out) < n:
        a = num // den
        out.append(a)
        num, den = den, num - a * den
    return out


def farey(lo: Fraction, hi: Fraction, max_den: int):
    """Reduced fractions in (lo, hi] with denominator <= max_den, ascending."""
    return sorted({Fraction(p, q) for q in range(1, max_den + 1)
                   for p in range(1, int(hi * q) + 1)
                   if math.gcd(p, q) == 1 and lo < Fraction(p, q) <= hi})


# ---------------------------------------------------------------------------
# Exact sign tests
# ---------------------------------------------------------------------------


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def finite_sign(digits, x: Fraction) -> int:
    """Sign of g(x) = sum a_n x^(-n) - 1, computed as the integer
    sum a_n num^(q-n) den^n - num^q (g times num^q)."""
    num, den = x.numerator, x.denominator
    acc, den_n = 0, 1
    for a in digits:  # Horner in num, with den^n carried along
        den_n *= den
        acc = acc * num + a * den_n
    return _sign(acc - num ** len(digits))


def periodic_sign(pre, per, x: Fraction) -> int:
    """Sign of g(x) = sum_n w_n x^(-n) - 1 for the word pre per^w, x > 1.

    (x^(P+L) - x^P) g(x) = sum_pre a_n (x^(P+L-n) - x^(P-n))
                           + sum_per c_j x^(L-j) - x^(P+L) + x^P,
    and the factor is positive for x > 1.  Every power is scaled by den^(P+L).
    """
    num, den = x.numerator, x.denominator
    P, L = len(pre), len(per)
    D = P + L
    num_pow, den_pow = [1], [1]
    for _ in range(D):
        num_pow.append(num_pow[-1] * num)
        den_pow.append(den_pow[-1] * den)

    def mono(k):  # x^k * den^D
        return num_pow[k] * den_pow[D - k]

    total = mono(P) - mono(D)
    for n, a in enumerate(pre, start=1):
        if a:
            total += a * (mono(D - n) - mono(P - n))
    for j, c in enumerate(per, start=1):
        if c:
            total += c * mono(L - j)
    return _sign(total)


def near_one_sign(n: int, x: Fraction) -> int:
    """Sign of x^(-1) + x^(-n) - 1 via num^(n-1) den + den^n - num^n."""
    num, den = x.numerator, x.denominator
    return _sign(num ** (n - 1) * den + den ** n - num ** n)


class Bounds(NamedTuple):
    """An enclosure read back from printed decimal endpoints."""

    lo: Fraction
    hi: Fraction

    @classmethod
    def parse(cls, pair) -> "Bounds":
        return cls(Fraction(pair[0]), Fraction(pair[1]))


def check_root(sign, lo: Fraction, hi: Fraction, tol: Fraction, what: str):
    """[lo, hi] has width <= tol and brackets the root of a decreasing g."""
    require(lo <= hi, f"{what}: empty enclosure")
    require(hi - lo <= tol, f"{what}: width {float(hi - lo):.3e} above tolerance")
    require(sign(lo) >= 0, f"{what}: g(lo) < 0, root is below the enclosure")
    require(sign(hi) <= 0, f"{what}: g(hi) > 0, root is above the enclosure")


def check_delta(alpha: Fraction, enc, tol: Fraction, what: str):
    word = staircase_word(alpha)
    check_root(lambda x: finite_sign(word, x), enc.lo, enc.hi, tol, what)


def check_right_limit(alpha: Fraction, enc, tol: Fraction, what: str):
    pre, per = right_limit_parts(alpha)
    require(enc.lo > 1, f"{what}: enclosure not above 1")
    check_root(lambda x: periodic_sign(pre, per, x), enc.lo, enc.hi, tol, what)


def same_infinite_word(pre_a, per_a, pre_b, per_b) -> bool:
    n = len(pre_a) + len(pre_b) + len(per_a) * len(per_b) // math.gcd(len(per_a), len(per_b))
    return periodic_prefix(pre_a, per_a, n) == periodic_prefix(pre_b, per_b, n)


# ---------------------------------------------------------------------------
# Irrational slopes: floor-formula digits and an mpmath reference
# ---------------------------------------------------------------------------

REF_DIGITS = 140


@lru_cache(maxsize=None)
def _irrational_slope(name: str):
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = REF_DIGITS + 40
    if name == "golden":
        return mp, (mp.sqrt(5) - 1) / 2
    if name == "sqrt2m1":
        return mp, mp.sqrt(2) - 1
    if name == "e":
        return mp, mp.e
    raise ValueError(name)


@lru_cache(maxsize=None)
def irrational_digits(name: str, n: int):
    """First n digits of the expansion of 1 in base Delta(alpha):
    a_1 = b and a_(k+1) = b - 1 + floor((k+1) t) - floor(k t), t = frac(alpha)."""
    mp, alpha = _irrational_slope(name)
    whole = int(mp.floor(alpha))
    t = alpha - whole
    b = whole + 1
    floors = [int(mp.floor(k * t)) for k in range(n + 1)]
    return (b,) + tuple(b - 1 + floors[k + 1] - floors[k] for k in range(1, n))


@lru_cache(maxsize=None)
def irrational_reference(name: str):
    """Delta(alpha) to about REF_DIGITS digits: the root of the series
    truncated after 700 digits (a tail below 10^-140 for every base used
    here), bracketed by bisection and polished by Newton's method."""
    mp, _ = _irrational_slope(name)
    digits = irrational_digits(name, 700)

    def g_and_slope(x):
        y = 1 / x
        acc = slope = mp.mpf(0)
        for n in range(len(digits), 0, -1):
            acc = (acc + digits[n - 1]) * y
            slope = slope * y + n * digits[n - 1]
        return acc - 1, -slope * y ** 2

    lo, hi = mp.mpf(digits[0]), mp.mpf(digits[0] + 1)
    for _ in range(40):
        mid = (lo + hi) / 2
        if g_and_slope(mid)[0] > 0:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    for _ in range(10):
        value, slope = g_and_slope(x)
        x -= value / slope
    return mp, x


def check_irrational(name: str, enc, tol: Fraction, what: str):
    require(enc.hi - enc.lo <= tol, f"{what}: width above tolerance")
    mp, ref = irrational_reference(name)
    lo = mp.mpf(enc.lo.numerator) / enc.lo.denominator
    hi = mp.mpf(enc.hi.numerator) / enc.hi.denominator
    require(lo <= ref <= hi, f"{what}: enclosure misses the mpmath reference")


# ---------------------------------------------------------------------------
# Probe traces
# ---------------------------------------------------------------------------


def quotient_bounds(center, probe, dx):
    """Own enclosure of |probe - center| / dx from endpoint fractions."""
    d_lo = probe.lo - center.hi
    d_hi = probe.hi - center.lo
    if d_lo >= 0:
        a_lo, a_hi = d_lo, d_hi
    elif d_hi <= 0:
        a_lo, a_hi = -d_hi, -d_lo
    else:
        a_lo, a_hi = Fraction(0), max(-d_lo, d_hi)
    return a_lo / dx.hi, a_hi / dx.lo


def check_trend(bounds, verdict, what, window=5):
    tail = bounds[-window:]
    if verdict == "toward_zero":
        his = [hi for _, hi in tail]
        require(all(b < a for a, b in zip(his, his[1:])),
                f"{what}: upper bounds not strictly decreasing")
    else:
        los = [lo for lo, _ in tail]
        require(all(b > a for a, b in zip(los, los[1:])),
                f"{what}: lower bounds not strictly increasing")


# ---------------------------------------------------------------------------
# Command-line outputs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _schema_validator(schema_path: str):
    import jsonschema

    schema = json.loads(Path(schema_path).read_text())
    cls = jsonschema.validators.validator_for(schema)
    return cls(schema)


def validate_json(text: str, schema_path: str, what: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what}: output is not JSON ({exc})")
    errors = list(_schema_validator(schema_path).iter_errors(payload))
    require(not errors, f"{what}: schema violation: {errors[0].message if errors else ''}")
    return payload


def parse_csv(text: str):
    return list(csv.reader(io.StringIO(text)))


def parse_word(s: str):
    out, i = [], 0
    while i < len(s):
        if s[i] == "[":
            j = s.index("]", i)
            out.append(int(s[i + 1:j]))
            i = j + 1
        else:
            out.append(int(s[i]))
            i += 1
    return tuple(out)


def parse_periodic(s: str):
    """'pre(per)^w' -> (pre, per)."""
    require(s.endswith(")^w") and "(" in s, f"not a periodic word: {s!r}")
    pre, per = s[:-3].split("(", 1)
    return parse_word(pre), parse_word(per)
