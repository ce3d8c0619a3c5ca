"""Mechanical, Christoffel, and eventually periodic words over integer digits.

Finite words are plain tuples of ints.  Eventually periodic words get a small
canonical-form class so that equality and lexicographic order are decidable.
The two-letter alphabet used downstream is {b-1, b} for an integer b >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import PreconditionError

Word = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Mechanical words
# ---------------------------------------------------------------------------


def mechanical_prefix(alpha: Fraction, rho: Fraction = Fraction(0), n: int = 0,
                      upper: bool = False) -> Word:
    """First n letters of the mechanical word with slope alpha and intercept rho.

    Lower version: s(k) = floor(alpha*(k+1) + rho) - floor(alpha*k + rho),
    k = 0..n-1; the upper version uses ceilings.  Exact arithmetic throughout.
    """
    if n < 0:
        raise PreconditionError("prefix length must be >= 0")
    rho = Fraction(rho)
    if not 0 <= rho <= 1:
        raise PreconditionError("intercept must lie in [0, 1]")
    alpha = Fraction(alpha)
    if alpha < 0:
        raise PreconditionError("slope must be >= 0")
    # alpha*k + rho = (a*k + r) / d over the common denominator d.
    d = math.lcm(alpha.denominator, rho.denominator)
    a = alpha.numerator * (d // alpha.denominator)
    r = rho.numerator * (d // rho.denominator)
    if upper:
        cuts = [-((-a * k - r) // d) for k in range(n + 1)]
    else:
        cuts = [(a * k + r) // d for k in range(n + 1)]
    return tuple(cuts[k + 1] - cuts[k] for k in range(n))


# ---------------------------------------------------------------------------
# Christoffel / central words
# ---------------------------------------------------------------------------


def christoffel(p: int, q: int, upper: bool = False) -> Word:
    """The Christoffel word of slope p/q on {0,1} (length q).

    Lower word = 0 z 1 and upper word = 1 z 0 where z is the central word:
    s(k) = floor(p(k+1)/q) - floor(pk/q), ceilings for the upper word, as
    ``mechanical_prefix`` builds it at intercept 0 over Fractions.
    Requires 0 <= p <= q reduced, q >= 1; the degenerate slopes give 0 and 1.
    """
    _check_slope(p, q)
    if upper:  # ceilings, as negated floors of the negated cuts
        return tuple((-p * k) // q - (-p * k - p) // q for k in range(q))
    return tuple((p * k + p) // q - p * k // q for k in range(q))


def _check_slope(p: int, q: int) -> None:
    if q < 1 or p < 0 or p > q or math.gcd(p, q) != 1:
        raise PreconditionError("slope must be reduced with 0 <= p <= q, q >= 1")


def central_word(p: int, q: int) -> Word:
    """The central word z of slope p/q: the lower Christoffel word minus its
    first and last letters.  A palindrome of length q - 2."""
    w = christoffel(p, q)
    return w[1:-1]


def to_alphabet(w: Sequence[int], b: int) -> Word:
    """Rename letters 0 -> b-1, 1 -> b."""
    if b < 1:
        raise PreconditionError("alphabet parameter b must be >= 1")
    return tuple(b - 1 + x for x in w)


def bzb_word(b: int, p: int, q: int) -> Word:
    """The word b z b where z is the central word of slope p/q written on
    the alphabet {b-1, b}; length q for 0 < p < q.

    Degenerate slopes follow the single-letter conventions: p = 0 gives the
    one-letter word (b,) and p = q = 1 gives (b+1,).
    """
    if b < 1:
        raise PreconditionError("alphabet parameter b must be >= 1")
    if p == 0:
        return (b,)
    if p == q:
        if p != 1:
            raise PreconditionError("slope must be reduced")
        return (b + 1,)
    _check_slope(p, q)
    # The lower Christoffel word 0 z 1 on {b-1, b}, its first letter raised.
    c = b - 1
    return (b,) + tuple(c + (p * k + p) // q - p * k // q for k in range(1, q))


def characteristic_prefix(alpha: Fraction, n: int) -> Word:
    """First n letters of the characteristic word of slope alpha.

    The word is the upper mechanical word with intercept 0, shifted one step
    left (its first letter is always 1 and carries no information).  A
    convergent p_k/q_k with q_(k-1) > n + 1 stands in for an irrational slope.
    """
    word = mechanical_prefix(alpha, Fraction(0), n + 1, upper=True)
    return word[1:]


# ---------------------------------------------------------------------------
# Eventually periodic words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicWord:
    """An eventually periodic right-infinite word pre (per)^w in canonical form.

    Canonical means: the period is primitive (not a power of a shorter word)
    and the preperiod is as short as possible (its last letter differs from
    the corresponding letter of the rotated period).  Equality of canonical
    forms is then equality of the infinite words.
    """

    pre: Word
    per: Word

    def __post_init__(self):
        if len(self.per) == 0:
            raise PreconditionError("period must be nonempty")

    @classmethod
    def make(cls, pre: Sequence[int], per: Sequence[int]) -> "PeriodicWord":
        pre, per = tuple(pre), tuple(per)
        if len(per) == 0:
            raise PreconditionError("period must be nonempty")
        per = _primitive_root(per)
        # Roll letters from the end of the preperiod into the period while the
        # infinite word is unchanged: pre[:-1] + (x + per[:-1])^w == pre + per^w
        # whenever pre[-1] == per[-1].
        pre, per = list(pre), list(per)
        while pre and pre[-1] == per[-1]:
            per = [pre[-1]] + per[:-1]
            pre.pop()
        return cls(tuple(pre), tuple(per))

    @classmethod
    def from_finite(cls, w: "WordLike") -> "PeriodicWord":
        """w followed by 0^w; a PeriodicWord is itself."""
        return w if isinstance(w, PeriodicWord) else cls.make(tuple(w), (0,))

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise PreconditionError("word positions are nonnegative")
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, n: int) -> Word:
        return (self.pre + self.per * -(-(n - len(self.pre)) // len(self.per)))[:n]

    def __str__(self) -> str:
        return f"{word_str(self.pre)}({word_str(self.per)})^w"


def _primitive_root(w: Word) -> Word:
    """Shortest u with w = u^k (classic failure-function trick)."""
    n = len(w)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k > 0 and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    d = n - fail[-1] if n else 0
    if d and n % d == 0:
        return w[:d]
    return w


def _letter_str(x: int) -> str:
    return str(x) if 0 <= x <= 9 else f"[{x}]"


WordLike = Union[Sequence[int], PeriodicWord]


def first_difference(u: WordLike, v: WordLike) -> Optional[int]:
    """The first index where two words, finite ones padded with 0^w, differ;
    None where they agree on their first len(pre_u) + len(pre_v) + lcm(|per_u|,
    |per_v|) letters, and so are equal.  At most 10^6 letters are read: a
    longer horizon with no difference found is refused."""
    u, v = PeriodicWord.from_finite(u), PeriodicWord.from_finite(v)
    horizon = len(u.pre) + len(v.pre) + math.lcm(len(u.per), len(v.per))
    for i in range(min(horizon, 10 ** 6)):
        if u[i] != v[i]:
            return i
    if horizon > 10 ** 6:
        raise PreconditionError("periods too long for exact comparison")
    return None


def lex_compare(u: WordLike, v: WordLike) -> int:
    """-1 / 0 / +1 for the lexicographic order of two words, finite ones
    padded with 0^w: the letters at their ``first_difference`` decide."""
    u, v = PeriodicWord.from_finite(u), PeriodicWord.from_finite(v)
    i = first_difference(u, v)
    return 0 if i is None else (-1 if u[i] < v[i] else 1)


# ---------------------------------------------------------------------------
# Shift-maximality (admissibility of digit sequences)
# ---------------------------------------------------------------------------


def is_parry_admissible(w: WordLike) -> bool:
    """True iff the word is lexicographically strictly greater than every one
    of its proper shifts.

    A finite word is read as w 0^w.  This is the admissibility condition for a
    sequence to occur as the greedy expansion of 1 in some base > 1.
    """
    if not isinstance(w, PeriodicWord) and len(tuple(w)) == 0:
        raise PreconditionError("the empty word has no admissibility status")
    pw = PeriodicWord.from_finite(w)
    # A shift by k <= n and the word agree forever once they agree on their
    # first n letters, so their first n letters decide the order.  Every
    # further shift repeats one of the tails already checked.  The last one
    # is the period alone, the word itself when it is purely periodic, so no
    # purely periodic word (such as (10)^w) is admissible.
    n = len(pw.pre) + len(pw.per)
    u = pw.prefix(2 * n)
    return all(u[k:k + n] < u[:n] for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Common prefixes of neighbouring mechanical words
# ---------------------------------------------------------------------------


def common_prefix_radius(alpha: Fraction, n: int, side: str) -> Fraction:
    """How far a rational slope may move before some of the first n letters change.

    Every slope within the returned radius of alpha = p/q on the stated side
    ("below" or "above") shares the length-n word prefix.  The radius is the
    gap to the nearest fraction a/m != alpha on that side with m <= n
    (Graham, Knuth & Patashnik, Concrete Mathematics, section 4.5): the
    minimum over 1 <= m <= n of (m p mod q, or q where q divides m p)/(q m)
    below and (q - m p mod q)/(q m) above.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if side not in ("below", "above"):
        raise PreconditionError("side must be 'below' or 'above'")
    alpha = Fraction(alpha)
    if alpha < 0:
        raise PreconditionError("slope must be >= 0")
    p, q = alpha.numerator, alpha.denominator
    if side == "below":
        return min(Fraction(m * p % q or q, q * m) for m in range(1, n + 1))
    return min(Fraction(q - m * p % q, q * m) for m in range(1, n + 1))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def word_str(w: WordLike) -> str:
    if isinstance(w, PeriodicWord):
        return str(w)
    return "".join(_letter_str(x) for x in w)


def parse_word(s: str) -> Word:
    """Inverse of word_str: digits, with multi-digit letters in brackets."""
    out: List[int] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c == "[":
            j = s.find("]", i)
            letter = s[i + 1:j]
            if j < 0 or not (letter.isascii() and letter.isdigit()):
                raise PreconditionError(f"bad bracketed letter in {s!r}: need [N], "
                                        "N a nonnegative decimal integer")
            try:
                out.append(int(letter))
            except ValueError:  # over the int-from-str limit of Python 3.11 on
                raise PreconditionError(f"{len(letter)}-digit bracketed letter: too long") from None
            i = j + 1
        elif "0" <= c <= "9":
            out.append(int(c))
            i += 1
        else:
            raise PreconditionError(f"bad word character: {c!r}")
    return tuple(out)

