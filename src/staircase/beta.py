"""Certified roots of digit series and greedy expansions of 1.

Everything here revolves around the strictly decreasing function

    g(x) = sum_{n >= 1} a_n x^(-n) - 1,   x > 1,

for a digit sequence (a_n) with a_1 >= 1.  Its unique root is enclosed with
exact integer sign tests, so enclosures are proofs: the root lies in [lo, hi]
because g(lo) > 0 and g(hi) < 0 are integer facts.  Bracket endpoints are
dyadic, m / 2^k.  A guessed bracket that sign tests certify may start one;
bisection narrows it step by step; sign tests certify the cell of a float
Newton guess on a first refinement, or of a fixed-point one on a longer
refinement, and a repeated one goes deeper than asked, so that later requests
are shifts of one certified cell.  The float guess takes Newton steps on the
log of the series in log y, y = 1/x, which is convex for a finite word, from
the cell end: each step is one Horner pass over the powers of y that still
count at double precision.  For a sparse annihilator, sign tests and
Newton steps run over its nonzero terms only.  Deep sign tests, long dense
heads included, first try a fixed-point Horner that bounds its own error, and
exact integer arithmetic only where it is undecided.  A series root moves on
from a pair of words (truncations, or another source's) whose coarse roots
certify a gap over tol, unrefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, count
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import CertificationError, PreconditionError
from .intervals import Enclosure, refine_until
from .words import PeriodicWord, Word

DEFAULT_TOL = Fraction(1, 10 ** 30)

IntPoly = Tuple[int, ...]  # coefficients, ascending powers
Bracket = Tuple[int, int, int]  # (a, b, k) for [a/2^k, b/2^k]
Interval = Tuple[Bracket, int, int, int]  # a value's [lo/2^s, hi/2^s] over x in a bracket

# GUARD_BITS are Newton's extra bits and the head sign tests' margin.
GUARD_BITS = 16

# A first refinement jumps from a double-precision guess (_float_root), taken
# as good to FLOAT_BITS bits of the root's magnitude: 5.6 under the least seen
# over bzb and right-limit words (q <= 500, b <= 3), 51.58 significant bits.
# Every other jump starts from a cell at least as fine (RefinableRoot._bisect).
FLOAT_BITS = 46

# Full sign tests at deg F * k >= FILTER_WORK, and _head_sign's dense heads of
# n coefficients at n * k >= FILTER_WORK (not sparse heads), try _filtered_sign
# first: the exact accumulator grows to deg*k (or n*k) bits, the filter's to
# about k.  Per test beside a root, exact -> filter: degree 256 at k = 125, 844
# -> 98 us; degree 100 at k = 20/40/80, 20/36/70 -> 25/35/30 us; near-one degree
# 1000 at k = 4/8, 7/17 -> 7/7 us, 3000 at k = 85, 4435 -> 11 us.
FILTER_WORK = 4000

# The longest digit word a root is built from: series truncations stop here,
# and delta_rational refuses slopes whose word would be longer.
MAX_WORD_LENGTH = 1 << 20

# The most bisection steps a greedy digit or orbit band verdict may spend.
REFINE_BUDGET = 20000


def _poly_sign(F, m: int, k: int) -> int:
    """Exact sign of F at the dyadic point x = m / 2**k, F a coefficient
    sequence or the descending list of its nonzero terms (as for ``_newton``)."""
    s = _degree(F) * k >= FILTER_WORK and _filtered_sign(F, m, k)
    acc = s or _exact(F, m, k)
    return (acc > 0) - (acc < 0)


def _degree(F) -> int:
    """deg F, as ``_exact`` scales it: the top power of a list of terms."""
    return F[0][0] if F and isinstance(F[0], tuple) else len(F) - 1


def _filtered_sign(F, m: int, k: int) -> int:
    """The sign of F (terms or coefficients, as for ``_newton``) at x = m/2^k
    where Horner at p = k + 32 + bitlen(deg F) fractional bits proves it, else 0.
    Products are floored, and e bounds the error in ulps: a product by x maps
    it to floor(e x) + 2, one by x^g in [lo, hi] to floor(e hi + |acc| (hi - lo)) + 2."""
    sparse = isinstance(F[0], tuple)
    deg = F[0][0] if sparse else len(F) - 1
    p, acc, e = k + 32 + deg.bit_length(), 0, 0
    if not sparse:
        for c in reversed(F):
            acc = (acc * m >> k) + (c << p)
            e = (e * m >> k) + 2
        return (acc > e) - (acc < -e)
    powers, prev, x = {}, deg, m << (p - k)  # powers: gap g -> x^g in [lo, hi]
    for i, c in chain(F, [(0, 0)]):
        g, prev = prev - i, i
        if g not in powers:
            powers[g] = _fixed_pow(x, g, p), _fixed_pow(x, g, p, -1)
        lo, hi = powers[g]
        e = (e * hi + abs(acc) * (hi - lo) >> p) + 2
        acc = (acc * lo >> p) + (c << p)
    return (acc > e) - (acc < -e)


def _fixed_pow(x: int, n: int, p: int, r: int = 1) -> int:
    """(x/2^p)^n at scale 2^p by square-and-multiply, rounded down (r = 1) or up."""
    y = 1 << p
    while n:
        if n & 1:
            y = r * (r * y * x >> p)
        n >>= 1
        if n:
            x = r * (r * x * x >> p)
    return y


def _exact(F, m: int, k: int, low: int = 0) -> int:
    """2^(k(q-low)) * sum_{i >= low} F_i x^(i-low) at x = m / 2**k, q = deg F:
    an integer with the sign of that sum, by Horner with the denominator
    cleared, so every power of it is a left shift.  Over a coefficient
    sequence, one product by m per coefficient; over the descending nonzero
    terms (i, F_i), one product by m^gap per run of zero coefficients."""
    acc = 0
    if F and isinstance(F[0], tuple):
        q = prev = F[0][0]
        for i, c in F:
            if i < low:
                break
            if i != prev:
                acc *= m ** (prev - i)
            acc += c << (k * (q - i))
            prev = i
        return acc * m ** (prev - low)
    shift = 0
    for c in reversed(F[low:]):
        acc *= m
        if c:
            acc += c << shift
        shift += k
    return acc


def _head_length(q: int, C: int, k_head: float, m: int, k: int) -> Optional[int]:
    """The head length n that ``_head_sign`` tries at x = m/2^k, for a
    polynomial of degree q whose coefficients under the leading one are at
    most C in size; None for the full test.

    n is where the tail bound holds with GUARD_BITS to spare at 2^-k from a
    root, by a float estimate of log2 x that only picks n.  The full test
    runs at the scales k >= k_head, at x <= 1, and where the head would be
    the whole polynomial, as for the near-one words, whose x is close to 1.
    """
    d = m - (1 << k)
    if k >= k_head or d <= 0:
        return None
    # log2 x, and the digits wanted: k + GUARD_BITS + log2 C + log2(x/(x-1))
    lx = math.log2(m) - k
    n = math.ceil((k + GUARD_BITS + C.bit_length() + math.log2(m) - math.log2(d)) / lx)
    return None if n >= q else n


def _head_sign(F, C: int, k_head: float, m: int, k: int) -> int:
    """``_poly_sign(F, m, k)``, decided from F's top n + 1 coefficients when
    the rest cannot change the sign, at scales k < k_head (see ``_sign_kernel``).

    With x = m/2^k > 1 and q = deg F, F(x) = x^(q-n) G(x) + R(x), where G
    holds the top coefficients and R the others, each at most C in size,
    so |R(x)| < C x^(q-n) / (x - 1).  A = ``_exact(F, m, k, q - n)`` is
    2^(kn) G(x), so |A| (m - 2^k) > C 2^(k(n+1)) proves sign F(x) = sign A;
    else the full test ``_poly_sign`` runs, as at once for a dense head with
    n * k >= FILTER_WORK, whose filter costs about the head.  n is ``_head_length``'s.
    """
    q = _degree(F)
    n = _head_length(q, C, k_head, m, k)
    if n is None or n * k >= FILTER_WORK and not isinstance(F[0], tuple):
        return _poly_sign(F, m, k)
    acc = _exact(F, m, k, q - n)
    if abs(acc) * (m - (1 << k)) <= C << (k * (n + 1)):
        return _poly_sign(F, m, k)
    return (acc > 0) - (acc < 0)


def _sign_kernel(F: IntPoly) -> Callable[[int, int], int]:
    """The exact sign of F at m/2^k as a function of (m, k), through the head
    test at the scales where the head can be short.  The kernel's first
    argument is F as its test runs over it: when at most a quarter of F's
    coefficients are nonzero (the near-one words 1 0^(n-2) 1 have three),
    the list of its nonzero terms by descending power; ``_newton`` takes
    the same.

    The roots of F lie below C + 1, C = max |F[i]| under the leading one,
    and the points tested lie near them, so the head has at least
    (k + GUARD_BITS + log2 C) / log2(C + 1) coefficients.  It is tried for
    the k where that is under half of F: a longer head saves too little to
    pay for its estimate on words of a few dozen letters.
    """
    q = len(F) - 1
    C = max(map(abs, F[:-1]), default=0)
    k_head = q * math.log2(C + 1) / 2 - GUARD_BITS - C.bit_length()
    if 4 * (len(F) - F.count(0)) <= len(F):
        F = [(i, F[i]) for i in compress(range(len(F)), F)][::-1]
    return partial(_head_sign, F, C, k_head) if k_head > 0 else partial(_poly_sign, F)


def _newton(F: IntPoly, x: int, p: int, P: int) -> Optional[int]:
    """Newton's method on F in fixed point from the guess x/2^p, p < P.

    F is a coefficient tuple, or the descending list of the nonzero terms
    (i, c_i) of a sparse F that its sign kernel runs over (``_sign_kernel``).
    The precision about doubles from step to step up to P bits, from 16 bits
    at the least (where halving plus 8 stops falling); steps at P bits then
    repeat, at most four more, until one moves x by at most
    2^(GUARD_BITS - P).  Returns the final x at scale 2^P, or None where F'
    is not positive.  The result is only a guess: no error bound is claimed.
    """
    sparse = isinstance(F[0], tuple)
    schedule = [P]
    while schedule[-1] > 2 * p and schedule[-1] // 2 + 8 < schedule[-1]:
        schedule.append(schedule[-1] // 2 + 8)
    schedule.reverse()
    for q in schedule + [P] * 4:
        x <<= q - p
        p = q
        if sparse:
            f, d = _sparse_value_and_slope(F, x, p)
        else:
            f, d = F[-1] << p, 0  # F(x) and F'(x) at scale 2^p, by Horner
            for c in reversed(F[:-1]):
                d = (d * x >> p) + f
                f = f * x >> p
                if c:
                    f += c << p
        if d <= 0:
            return None
        step = (f << p) // d
        x -= step
        if p == P and abs(step) <= 1 << GUARD_BITS:
            break
    return x


def _float_root(F, m: int, k: int) -> Optional[float]:
    """A float guess x = 1/y at the root of F (as ``_newton`` takes it), where
    H(y) = y^q F(1/y) = 1 - P(y), q = deg F, whose powers of y < 1 never
    overflow.  Newton runs on phi(t) = log P(e^t), t = log y, from the cell
    end m/2^k left of the root: for a finite word P has nonnegative
    coefficients, so phi is convex and increasing and the steps descend
    monotonically.  Powers of y under 2^-64 are left out: a dense F runs one
    Horner pass over the powers above that, a sparse one its terms in turn.
    None where a coefficient or m is past float range, P or P' is not
    positive, y leaves (0, 1) or is NaN, or 64 steps do not settle."""
    try:
        y, q = (1 << k) / m, _degree(F)
        sparse = isinstance(F[0], tuple)
        # by ascending power of y for a sparse F, by descending for a dense one
        cs = [(q - i, float(c)) for i, c in F] if sparse else list(map(float, F))
        for _ in range(64):
            h = d = 0.0  # H(y) and y H'(y)
            if sparse:
                for e, c in cs:
                    t = y ** e
                    if t < 2.0 ** -64:
                        break
                    h += c * t
                    d += c * e * t
            else:
                lg = -math.log2(y)  # the powers y^n >= 2^-64 are those with n lg <= 64
                for c in cs[q - int(64 / lg):] if q * lg > 64 else cs:
                    d = d * y + h
                    h = h * y + c
                d *= y
            if h >= 1 or d >= 0:  # P = 1 - H or y P' = -y H' not positive
                return None
            step = math.log1p(-h) * (1 - h) / -d
            y *= math.exp(-step)
            if not 0 < y < 1:
                return None
            if abs(step) <= 2.0 ** -40:
                return 1 / y
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def _sparse_value_and_slope(terms: Sequence[Tuple[int, int]], x: int, p: int) -> Tuple[int, int]:
    """F(x) and F'(x) at scale 2^p over the nonzero terms (i, c_i) of F,
    listed by descending power: Horner that crosses each run of g - 1 zero
    coefficients with the fixed-point powers x^(g-1) and x^g, by
    square-and-multiply, so a step costs O(nnz log deg) products, not deg."""
    powers = {}  # gap g -> (x^(g-1), x^g) at scale 2^p
    f = d = 0
    prev = terms[0][0]
    for i, c in chain(terms, [(0, 0)]):
        g = prev - i
        if g:
            if g not in powers:
                low = _fixed_pow(x, g - 1, p)
                powers[g] = low, low * x >> p
            low, high = powers[g]
            d = (d * high >> p) + g * (f * low >> p)
            f = f * high >> p
        f += c << p
        prev = i
    return f, d


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
    """The root above 1 of a digit series: a bracket [a/2^k, b/2^k] around
    the root of the series' annihilator F, a monic integer polynomial, in a
    unit cell [n-1, n], refinable on demand.  ``sign(m, k)`` is the exact
    sign of F at m/2^k: -1 left of the root, +1 right of it.  ``annihilator``
    is that F; exact orbit arithmetic (``greedy_digits``) reduces modulo it.

    F increases through its only root above 1.  Rational roots of a monic
    integer polynomial are integers, and the cell's open interior holds none,
    so no dyadic point in it is a root: refining to scale K always ends on the
    one cell [j, j+1]/2^K that holds the root, whether reached by bisection,
    by ``_jump``, from a seed or as the shift j' >> (K' - K) of a deeper cell.
    An integer root n is an exact hit, presented as [n, n] and never refined.

    ``bracket`` (a, b, k), [a/2^k, b/2^k], is the presented cell as integers,
    so refinement builds no ``Fraction``; it is stored and rewritten whenever
    the presented cell moves, and ``enclosure``, the cell as fractions, on its
    first read after.  ``exact`` is n or None.
    """

    def __init__(self, F: IntPoly, a1: int, seed: Optional[Bracket] = None):
        """Bracket the root above the leading digit a_1 >= 1 of a series whose
        annihilator is F (the series has the sign of -F there): a unit
        bracket [n-1, n], or an exact integer root n, or one finer cell
        around a ``seed`` guess (a, b, s), [a/2^s, b/2^s], as below."""
        self.annihilator = self._modulus = F  # what orbit values reduce by
        self._sign = sign = _sign_kernel(F)
        self._poly = sign.args[0]  # F as the kernel runs over it, for _newton
        self.exact, self._shown = None, (None, None)
        if seed is not None:
            # The finest cell [j, j+1]/2^k holding the guess, if in a unit cell
            # above 1 (no root is dyadic there) and sign tests put the root in.
            a, b, s = seed
            k = s - (a ^ (b - 1)).bit_length()
            j = a >> (s - k)
            if k >= 0 and j >> k >= 1 and sign(j, k) < 0 < sign(j + 1, k):
                self._j, self._K, self.bracket = j, k, (j >> k, (j >> k) + 1, 0)
                return
        n = a1
        s = sign(n, 0)
        if s > 0:
            raise PreconditionError("digit sequence has no root above its leading digit")
        while s < 0:
            n += 1
            s = sign(n, 0)
        # The deepest certified cell [j, j+1]/2^K, presented as ``bracket``.
        self._j, self._K, self.bracket = n - 1, 0, (n - 1, n, 0)
        if s == 0:  # orbits reduce by x - n: it may vanish where F of degree > 1 does not
            self.exact, self.bracket, self._modulus = n, (n, n, 0), (-n, 1)

    @classmethod
    def from_periodic_word(cls, w: PeriodicWord, tol: Fraction = DEFAULT_TOL) -> "RefinableRoot":
        return beta_root_periodic(w, tol)

    @property
    def enclosure(self) -> Enclosure:
        if self._shown[0] is not self.bracket:  # as fractions, built once per presented cell
            a, b, k = self.bracket
            self._shown = self.bracket, Enclosure(Fraction(a, 1 << k), Fraction(b, 1 << k))
        return self._shown[1]

    def refine(self, tol: Fraction) -> Enclosure:
        tol = Fraction(tol)
        if tol <= 0:
            raise PreconditionError("tolerance must be positive")
        # The cell's width 2^-K is at most tol once 2^K >= 1/tol.
        K = (-(-tol.denominator // tol.numerator) - 1).bit_length()
        self._bisect(K - self.bracket[2])
        return self.enclosure

    def _bisect(self, steps: int) -> None:
        """Present the cell at scale K = k + steps that holds the root: a
        shift of the deep cell, deepened first if K is past it.  A first
        refinement (from scale 0, seeded or not) aims at K, a later one at
        K' = max(K, 2k, k + 64) for the deep scale k (the precision doubling
        of iRRAM, N. Th. Müller, CCA 2000).  A deep cell coarser than 2^-D,
        D = FLOAT_BITS - bitlen n for the unit cell [n-1, n], jumps from
        ``_float_root``'s guess: to D if K' <= D (later requests up to D are
        shifts), else by Newton from it at D + 6 bits.  Past D with no such
        jump, the cell is bisected to 2^-D, if coarser, and ``_jump``s from
        there to K' (for n >= 2^46 from the unit cell, already relatively
        finer than 2^-46); any scale still left, after a failed jump or up to
        K <= D, is bisected."""
        if self.exact is not None or steps <= 0:
            return
        K, k = self.bracket[2] + steps, self._K
        if K > k:
            target = max(K, 2 * k, k + 64) if self.bracket[2] else K
            D = FLOAT_BITS - ((self._j >> k) + 1).bit_length()
            x = _float_root(self._poly, self._j, k) if k < D else None
            if x is not None and 0 < x < 1 << FLOAT_BITS:  # where every root here lies
                x = (int(math.ldexp(x, D + GUARD_BITS)) if target <= D else
                     _newton(self._poly, int(math.ldexp(x, D + 6)), D + 6, target + GUARD_BITS))
                if x is not None:
                    self._jump(max(D, target), x)
            if self._K == k and target > D:
                self._halve(D - k)
                self._jump(target)
            self._halve(K - self._K)
        a = self._j >> (self._K - K)
        self.bracket = a, a + 1, K

    def _halve(self, steps: int) -> None:
        """Bisect the deep cell ``steps`` times and present it."""
        sign, j, k = self._sign, self._j, self._K
        for _ in range(steps):
            k += 1
            j = 2 * j + 1 if sign(2 * j + 1, k) < 0 else 2 * j
        self._j, self._K, self.bracket = j, k, (j, j + 1, k)

    def _jump(self, K: int, x: Optional[int] = None) -> None:
        """Move the deep cell to the cell [j, j+1]/2^K holding the root and
        present it, or leave it for bisection.  A guess x at scale
        2^(K + GUARD_BITS), else Newton's from the cell's midpoint, gives j,
        clamped into the cell, where F has no other root (it may elsewhere);
        exact sign tests at j/2^K and (j+1)/2^K then certify the cell, after
        at most one move to a neighbouring cell: three sign tests at most."""
        a, k = self._j, self._K
        if x is None:
            x = _newton(self._poly, 2 * a + 1, k + 1, K + GUARD_BITS)
        if x is None:
            return
        first = a << (K - k)
        last = first + (1 << (K - k)) - 1
        j = min(max(x >> GUARD_BITS, first), last)
        sign = self._sign
        if sign(j, K) > 0:  # the root is left of j
            j -= 1
            if j < first or sign(j, K) > 0:
                return
        elif sign(j + 1, K) < 0:  # the root is right of j + 1
            j += 1
            if j > last or sign(j + 1, K) < 0:
                return
        self._j, self._K, self.bracket = j, K, (j, j + 1, K)


# An earlier name: a root as a handle on the base beta.
BetaHandle = RefinableRoot


def _certified_root(F: IntPoly, a1: int, tol: Fraction, seed: Optional[Bracket]) -> RefinableRoot:
    rr = RefinableRoot(F, a1, seed)
    rr.refine(tol)
    return rr


def beta_root_finite(digits: Sequence[int], tol: Fraction = DEFAULT_TOL,
                     seed: Optional[Bracket] = None) -> RefinableRoot:
    """Certified enclosure of the base beta > 1 with sum a_n beta^(-n) = 1."""
    digits = tuple(digits)
    if not digits or digits[0] < 1:
        raise PreconditionError("need a nonempty digit word with a_1 >= 1")
    if any(d < 0 for d in digits):
        raise PreconditionError("digits must be nonnegative")
    if digits[0] == 1 and not any(digits[1:]):
        raise PreconditionError("the word 1 0^k has root 1, outside the base range")
    return _certified_root(finite_annihilator(digits), digits[0], tol, seed)


def beta_root_periodic(w: PeriodicWord, tol: Fraction = DEFAULT_TOL,
                       seed: Optional[Bracket] = None) -> RefinableRoot:
    """Certified enclosure of the base beta > 1 for an eventually periodic word."""
    if w[0] < 1:
        raise PreconditionError("leading digit must be >= 1")
    if not any(w.per):
        # A finite word: its periodic annihilator has the spurious factor
        # x - 1, so bracket it (and reduce its orbits) on the finite one.
        return beta_root_finite(w.pre, tol, seed)
    return _certified_root(periodic_annihilator(w), w[0], tol, seed)


def positive_root_finite(digits: Sequence[int], tol: Fraction = DEFAULT_TOL) -> Enclosure:
    """Certified enclosure of the root zeta in (0, 1) of sum a_n x^n = 1.

    zeta is the reciprocal of the base beta; the reciprocal of an enclosure
    of width w for beta > 1 has width < w, so the tolerance carries over.
    """
    return beta_root_finite(digits, tol).enclosure.reciprocal()


class SeriesRoot:
    """Incrementally refinable root for an infinite digit stream a_n = digit(n),
    sandwiched between the roots of a pair of words, one below the stream and
    one above it, from a source of pairs by length m.

    The default source is the truncations: the roots of a_1..a_m 0^w
    (digitwise below the stream) and a_1..a_m M^w (digitwise above it,
    M = max_digit), as more/larger digits push the root up, at m doubling
    from m0.  Another source, ``pairs``, gives ``pairs.pair(m, tol)``, the
    first of its pairs of length at least m as (length, low root, high root),
    each root built to tol, and ``pairs.after(m, tol, enclosure)``, the least
    length to try after m (``delta.delta_irrational`` passes Stern-Brocot
    neighbours).  The history of (length, enclosure) is nested by
    construction (each is intersected with its predecessor).

    Doubling m about squares the width w, so a new pair is built coarse, to
    max(tol/4, w^2 2^-GUARD_BITS); m moves on unrefined where the gap
    between its roots exceeds tol, else both go to tol/4.  The final m and
    enclosure are those of refining every pair to tol/4, as the last sandwich
    lies inside the earlier ones; only earlier history is wider.  As in
    ``RefinableRoot.refine``, tol <= 0 is refused and a met tol refines nothing.
    """

    def __init__(self, digit: Callable[[int], int], max_digit: int, m0: int = 32, pairs=None):
        if max_digit < 1:
            raise PreconditionError("max_digit must be >= 1")
        if digit(1) < 1:
            raise PreconditionError("leading digit must be >= 1")
        self._digit = digit
        self.max_digit = max_digit
        self._m = m0
        self._pairs = pairs
        self._low: Optional[RefinableRoot] = None
        self._high: Optional[RefinableRoot] = None
        self.history: List[Tuple[int, Enclosure]] = []
        self.enclosure: Optional[Enclosure] = None

    def _build(self, tol: Fraction) -> None:
        if self._pairs is not None:
            self._m, self._low, self._high = self._pairs.pair(self._m, tol)
            return
        m = self._m
        digits = tuple(self._digit(n) for n in range(1, m + 1))
        if any(d < 0 or d > self.max_digit for d in digits):
            raise PreconditionError("stream digit outside [0, max_digit]")
        if digits[0] == 1 and not any(digits[1:]):  # 1 0^(m-1) has root 1: lengthen it
            self._m *= 2
            return
        self._low = beta_root_finite(digits, tol)
        high_word = PeriodicWord.make(digits, (self.max_digit,))
        self._high = beta_root_periodic(high_word, tol)

    def refine(self, tol: Fraction) -> Enclosure:
        tol = Fraction(tol)
        if tol <= 0:
            raise PreconditionError("tolerance must be positive")
        if self.enclosure is not None and self.enclosure.width <= tol:
            return self.enclosure
        while True:
            while self._low is None or self._high is None:
                if self._m > MAX_WORD_LENGTH:
                    raise CertificationError(
                        f"series root not certified to width {tol} within "
                        f"word cap {MAX_WORD_LENGTH}")
                w = self.enclosure.width if self.enclosure is not None else 0
                self._build(max(tol / 4, w * w / (1 << GUARD_BITS)))
            if self._high.enclosure.lo - self._low.enclosure.hi <= tol:  # else the gap is over tol
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
            # The sandwich roots are tight to tol/4, or their gap exceeds tol,
            # so the remaining width is the pair's gap: take a longer pair.
            self._m = self._pairs.after(self._m, tol, self.enclosure) if self._pairs else 2 * self._m
            self._low = self._high = None


def positive_root_series(digit: Callable[[int], int], max_digit: int,
                         tol: Fraction = DEFAULT_TOL,
                         m0: int = 32) -> Tuple[Enclosure, List[Tuple[int, Enclosure]]]:
    """Certified root zeta in (0, 1) of the infinite series sum a_n x^n = 1.

    Returns the final enclosure (width <= tol) and the per-truncation history
    of nested zeta enclosures.
    """
    sr = SeriesRoot(digit, max_digit, m0=m0)
    enc = sr.refine(tol).reciprocal()
    return enc, [(m, e.reciprocal()) for m, e in sr.history]


# ---------------------------------------------------------------------------
# Greedy expansions
# ---------------------------------------------------------------------------


def _poly_times_x(coeffs: List[int], modulus: IntPoly) -> List[int]:
    """x*r modulo the monic ``modulus``, r reduced: lead * modulus is subtracted at most once."""
    r, d = [0] + coeffs, len(modulus) - 1
    if len(r) > d:
        lead = r.pop()
        for i in range(d):
            r[i] -= lead * modulus[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _poly_sub_const(coeffs: List[int], c: int) -> List[int]:
    """r - c, reduced for r reduced: only a constant can vanish."""
    r = [(coeffs[0] if coeffs else 0) - c] + coeffs[1:]
    return r if r[-1] else []


def _poly_mod(coeffs: Sequence, modulus: Sequence) -> list:
    """The remainder of coeffs modulo a nonzero ``modulus`` (ascending
    coefficients), over the fractions unless the modulus is monic."""
    r, d = list(coeffs), len(modulus) - 1
    while len(r) > d:
        c = r.pop()
        if c:
            c = c / modulus[-1] if modulus[-1] != 1 else c
            for i in range(d):
                r[len(r) - d + i] -= c * modulus[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _vanishes(p: List[int], beta: RefinableRoot) -> bool:
    """Whether p(beta) = 0, for a beta that is no exact root: g = gcd(p, F),
    monic with integer coefficients as a factor of the monic F, changes sign
    across beta's cell, which holds no other root of F.  Orbits then reduce
    modulo g, as p does."""
    a, b = [Fraction(c) for c in beta._modulus], [Fraction(c) for c in p]
    while b:
        a, b = b, _poly_mod(a, b)
    g = tuple(int(c / a[-1]) for c in a)
    lo, hi, k = beta.bracket
    if len(g) < 2 or _poly_sign(g, lo, k) * _poly_sign(g, hi, k) >= 0:
        return False
    beta._modulus = g
    return True


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


def _times_x(iv: Interval, c: int = 0) -> Interval:
    """One more ``_horner`` step: the interval of x*r + c from that of r."""
    (a, b, k), lo, hi, s = iv
    s += k
    lo *= a if lo >= 0 else b
    hi *= b if hi >= 0 else a
    return (a, b, k), lo + (c << s), hi + (c << s), s


def _interval(r: List[int], beta: RefinableRoot, iv: Optional[Interval] = None) -> Interval:
    """The carried ``iv`` of r(beta) if made over beta's bracket, else ``_horner`` afresh."""
    bracket = beta.bracket
    return iv if iv is not None and iv[0] == bracket else (bracket,) + _horner(r, *bracket)


def _orbit_step(r: List[int], beta: RefinableRoot, den: int,
                iv: Optional[Interval]) -> Tuple[int, List[int], Optional[Interval]]:
    """One step of T(x) = beta*x - floor(beta*x) from x = r(beta) / den.

    Orbit values are integer polynomials in beta reduced by ``beta._modulus``,
    over a fixed denominator; 0 reduces to the empty list.  Returns the digit
    floor(beta*x) (0 undecided when beta*x reduces to 0), T(x) and its interval.
    The interval ``iv`` of x is carried in O(1): beta*x is one more Horner
    step, the digit shifts the last coefficient, and the result is ``_horner``
    over the new r bit for bit.  It is made afresh where that would differ:
    where x*r reduces modulo F, and where a refinement moved the bracket.
    """
    F = beta._modulus
    iv = _times_x(_interval(r, beta, iv)) if iv and len(r) < len(F) - 1 else None
    r = _poly_times_x(r, F)
    iv = (iv or _interval(r, beta)) if r else None
    digit = _decide_floor(r, beta, den, iv) if r else 0
    if digit:
        r = _poly_sub_const(r, digit * den)
        if len(r) >= len(beta._modulus):  # the modulus became a factor of F (_vanishes)
            r = _poly_mod(r, beta._modulus)
        c = (digit * den) << iv[3]
        iv = iv[0], iv[1] - c, iv[2] - c, iv[3]
    return digit, r, iv


def greedy_digits(beta: RefinableRoot, n: int, x: Fraction = Fraction(1)) -> Tuple[Word, bool]:
    """First n digits of the greedy expansion of x in base beta, x in [0, 1].

    Returns (digits, terminated): ``terminated`` is True when the orbit of x
    hits 0 exactly (certified through the annihilator), in which case the
    digit word is the complete finite expansion.  Floors are decided by
    interval evaluation with on-demand refinement.  On a reducible annihilator
    an orbit value that is an integer at beta need not reduce to a constant:
    a floor still undecided after a few rounds is checked for that
    (``_vanishes``), and orbits then reduce modulo the factor of F at beta.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise PreconditionError("starting point must lie in [0, 1]")

    def above_one() -> Optional[bool]:  # beta > 1 once a > 2^k; an exact root n <= 1 never is
        a, _, k = beta.bracket
        return True if a > 1 << k else (False if beta.exact is not None else None)

    if not _refine_root_until(above_one, beta, "greedy base beta > 1"):
        raise PreconditionError("greedy expansion needs beta > 1")
    r: List[int] = [x.numerator] if x else []  # the orbit value is r(beta) / den
    out, iv = [], None
    for _ in range(n):
        digit, r, iv = _orbit_step(r, beta, x.denominator, iv)
        if r or digit:  # beta*x itself 0 gives no digit
            out.append(digit)
        if not r:
            return tuple(out), True
    return tuple(out), False


def _decide_floor(r: List[int], beta: RefinableRoot, den: int, iv: Interval) -> int:
    """floor of the real number r(beta) / den, ``iv`` its carried interval."""
    f = (iv[1] >> iv[3]) // den
    if f == (iv[2] >> iv[3]) // den:  # as most digits are, on the carried interval
        return f
    asked = count()

    def floor() -> Optional[int]:
        _, lo, hi, s = _interval(r, beta, iv)
        f_lo, f = (lo >> s) // den, (hi >> s) // den
        # Still undecided on the fourth ask: r(beta) may be exactly f den,
        # which no refinement decides where F is reducible.
        return f if f_lo == f or next(asked) == 3 and _vanishes(_poly_sub_const(r, f * den), beta) else None

    return _refine_root_until(floor, beta, "greedy digit")


def _refine_root_until(verdict, root: RefinableRoot, what: str):
    """``refine_until`` on a beta root in rounds of 32 bisection steps, at most
    REFINE_BUDGET steps in all."""
    # Most calls decide at once: ask before building the first tolerance.
    decision = verdict()
    if decision is not None:
        return decision
    # Each round's tol, the cell width 2^-k over 2^32, takes 32 steps (none at an exact root).
    return refine_until(verdict, (root,), Fraction(1, 1 << root.bracket[2]), 2 ** 32,
                        -(-REFINE_BUDGET // 32), what)


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
    """T^k(1) and its band verdict; ``bounds`` (lo, hi, s) is the carried interval
    [lo/2^s, hi/2^s] after the verdict, made an ``Enclosure`` when ``value`` is read."""
    k: int
    bounds: Tuple[int, int, int]
    verdict: str  # "interior" | "outside" | "zero" | "boundary-low"

    @property
    def value(self) -> Enclosure:
        lo, hi, s = self.bounds
        return Enclosure(Fraction(lo, 1 << s), Fraction(hi, 1 << s))


def extremal_orbit_check(beta: RefinableRoot, k_max: int) -> List[OrbitPoint]:
    """Certify, for k = 1..k_max, where T^k(1) sits relative to the band
    (1 - 1/beta, 1), T being x -> beta*x mod 1.

    Each verdict is exact: "zero" and "boundary-low" are detected through
    zero reduced polynomials, the strict cases through interval signs.  T^k(1)
    is never the upper edge 1: a constant orbit value is its own floor.
    Stops after a "zero" verdict (the orbit is then constant 0).  The interval
    of T^k(1) is carried (``_orbit_step``), and so are both band edges.
    """
    r, iv = [1], None
    out: List[OrbitPoint] = []
    for k in range(1, k_max + 1):
        _, r, iv = _orbit_step(r, beta, 1, iv)
        if not r:
            out.append(OrbitPoint(k, (0, 0, 0), "zero"))
            break
        verdict = _band_verdict(r, beta, iv)
        iv = _interval(r, beta, iv)
        out.append(OrbitPoint(k, iv[1:], verdict))
    return out


def _band_verdict(r: List[int], beta: RefinableRoot, iv: Interval) -> str:
    # upper edge: v - 1;  lower edge: beta*(v - 1) + 1  (v > 1 - 1/beta).  From v's
    # interval: a shift of the last coefficient, then one more Horner step unless it reduces.
    F = beta._modulus
    upper = _poly_sub_const(r, 1)
    lower = _poly_sub_const(_poly_times_x(upper, F), -1)
    if not lower:
        return "boundary-low"

    def band() -> Optional[str]:
        # The enclosures' scales are positive, so their numerators' signs decide.
        bracket, lo, hi, s = _interval(r, beta, iv)
        up = bracket, lo - (1 << s), hi - (1 << s), s
        _, up_lo, up_hi, _ = up
        _, lo_lo, lo_hi, _ = _times_x(up, 1) if len(upper) < len(F) - 1 else _interval(lower, beta)
        if up_hi < 0 and lo_lo > 0:
            return "interior"
        if up_lo > 0 or lo_hi < 0:
            return "outside"
        return None

    return _refine_root_until(band, beta, "orbit band verdict")


# ---------------------------------------------------------------------------
# The family of roots of 1 = x^(-1) + x^(-n)
# ---------------------------------------------------------------------------


def near_one_root(n: int, tol: Fraction = DEFAULT_TOL) -> Enclosure:
    """Certified enclosure of the root in (1, 2] of 1 = x^(-1) + x^(-n).

    These are the digit-series roots of the words 1 0^(n-2) 1; they decrease
    to 1 as n grows.  Their annihilator x^n - x^(n-1) - 1 is built directly.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    return _certified_root((-1,) + (0,) * (n - 2) + (-1, 1), 1, tol, None).enclosure
