"""Golden corpus: the README's command lines and their exact output.

``golden/commands.txt`` holds the command lines of the README's "Command
line" section, one per line; ``golden/NN.out`` holds the exact stdout of
line NN (for ``delta plot --out FILE``, the file it writes).
``golden/extra_commands.txt`` and ``golden/xNN.out`` do the same for
command lines the README does not show: CSV probes, probes and estimators
on a ``--cf`` list, the estimators on the Liouville presets, upper
mechanical and central words, bracketed word letters, plots whose range
starts between slopes and crosses integer slopes, and a sparse root (the
word 1 0^38 1) refined to 1e-40 and printed to 45 digits, and two series
roots at irrational slopes (golden to 1e-100, the ``--cf 0,2,periodic``
slope to 1e-120).
Refactors and kernel rewrites must leave every byte unchanged.  The
``delta eval`` rows and the ``delta plot`` rows also check their own value:
each printed enclosure must hold the root of the slope's floor-formula
digits, an mpmath root at irrational slopes and exact signs of the digit
series at its ends at rational ones.  The estimator rows (``measure``,
``classify``, and ``cf convergents`` in log space) check theirs against an
mpmath value of each row's defining quantity.

Regenerate the corpus, after a deliberate output change only, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from fractions import Fraction
from itertools import count, repeat
from math import factorial
from pathlib import Path

import mpmath as mp
import pytest

from staircase import cli
from staircase.diophantine import lookup_preset

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
COMMANDS = GOLDEN.joinpath("commands.txt").read_text().splitlines()
EXTRA = GOLDEN.joinpath("extra_commands.txt").read_text().splitlines()


def _argv(line: str):
    argv = shlex.split(line)
    assert argv[0] == "staircase"
    return argv[1:]


def capture(line: str, workdir: Path) -> str:
    """Output of one command line, run in process in ``workdir``."""
    argv = _argv(line)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code == cli.EXIT_OK, line
    if "--out" in argv:
        return (workdir / argv[argv.index("--out") + 1]).read_text()
    return out.getvalue()


def test_commands_are_the_readme_lines():
    readme = README.read_text()
    assert len(COMMANDS) == 15
    for line in COMMANDS:
        assert line in readme


@pytest.mark.parametrize("n", range(1, len(COMMANDS) + 1))
def test_golden_output(n, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
    expected = GOLDEN.joinpath(f"{n:02d}.out").read_text()
    assert capture(COMMANDS[n - 1], tmp_path) == expected


@pytest.mark.parametrize("n", range(1, len(EXTRA) + 1))
def test_extra_golden_output(n, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
    expected = GOLDEN.joinpath(f"x{n:02d}.out").read_text()
    assert capture(EXTRA[n - 1], tmp_path) == expected


IRRATIONAL_ROWS = ["05", "06", "x11", "x23", "x24"]


def _row_command(name: str) -> str:
    lines = EXTRA if name.startswith("x") else COMMANDS
    return lines[int(name.lstrip("x")) - 1]


def _slope_cf(line: str):
    argv = _argv(line)
    if "--cf" in argv:
        return cli.parse_cf(argv[argv.index("--cf") + 1], irrational=True)
    return lookup_preset(argv[argv.index("--preset") + 1]).cf


def _mp_delta(cf, digits: int):
    """Delta at the slope of ``cf`` to ``digits`` + 45 digits, by mpmath, with
    its error bound: the root of sum a_n x^-n = 1 over the digits a_1 = b,
    a_n = floor(n alpha) - floor((n-1) alpha), each floor read off a
    convergent p/q of alpha with q_prev > n, truncated where the tail is
    under 10^-(digits + 60)."""
    mp.mp.dps = digits + 60
    n_max = 5 * (digits + 60)  # every Delta here exceeds 10^(1/5)
    p0, q0, p, q, k = 1, 0, cf.a0, 1, 0
    while q0 <= n_max:
        k += 1
        a = cf.term(k)
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    word = [cf.a0 + 1] + [(n * p) // q - ((n - 1) * p) // q for n in range(2, n_max + 1)]
    series = lambda y: mp.fsum(c * y ** n for n, c in enumerate(word, 1)) - 1
    man, exp = (1 / mp.findroot(series, mp.mpf(1) / (cf.a0 + 1.7))).man_exp
    return Fraction(man) * Fraction(2) ** exp, Fraction(1, 10 ** (digits + 45))


def _holds(lo, hi, value: Fraction, err: Fraction) -> bool:
    return Fraction(lo) <= value - err and value + err <= Fraction(hi)


@pytest.mark.parametrize("name", IRRATIONAL_ROWS)
def test_irrational_delta_rows_hold_their_value(name):
    """Each irrational ``delta eval`` row's printed enclosure, read as exact
    fractions, holds Delta at its slope, computed by mpmath 45 digits past
    the printed ones from the floor formula, apart from ``staircase.beta``.
    Moving the lower end up, or the upper end down, by one unit of the first
    digit where the ends differ makes one of the two copies fail: the check
    is sharp to the printed digits."""
    lo, hi = json.loads(GOLDEN.joinpath(f"{name}.out").read_text())["enclosure"]
    value, err = _mp_delta(_slope_cf(_row_command(name)), len(lo.split(".")[1]))
    assert _holds(lo, hi, value, err)
    first = next(i for i, (x, y) in enumerate(zip(lo, hi)) if x != y)
    unit = Fraction(1, 10 ** (first - lo.index(".")))
    moved = [(Fraction(lo) + unit, hi), (lo, Fraction(hi) - unit)]
    assert not all(_holds(a, b, value, err) for a, b in moved)


RATIONAL_ROWS = ["03", "04", "x19", "x22"]
PLOT_ROWS = ["07", "x14", "x21"]


def _floor_word(alpha: Fraction, right: bool):
    """(pre, per) of the expansion of 1 in base Delta(alpha), or Delta(alpha+)
    when ``right``, at a rational slope alpha with denominator q: a_1 =
    floor(alpha) + 1 and a_n = floor(n alpha) - floor((n-1) alpha), for
    n = 2..q followed by 0^w, or for every n >= 2, a word of period q."""
    p, q = alpha.numerator, alpha.denominator
    a = [p // q + 1] + [n * p // q - (n - 1) * p // q for n in range(2, q + 2)]
    return (a[:1], a[1:]) if right else (a[:q], [0])


def _homogeneous(coeffs, u: int, v: int) -> int:
    """sum c_i u^(d-i) v^i over coeffs c_0..c_d: v^d times the polynomial
    sum c_i x^(d-i) at x = u/v."""
    s, w = 0, 1
    for c in coeffs:
        s, w = s * u + c * w, w * v
    return s


def _g_sign(pre, per, x: Fraction) -> int:
    """The exact sign of g(x) = sum a_n x^-n - 1 over the word pre (per)^w at
    x > 1, by the closed form of the geometric tail: with k = |pre| and
    L = |per|, g(x) x^k (x^L - 1) = (x^L - 1) F(x) + P(x), where
    F(x) = sum pre_n x^(k-n) - x^k and P(x) = sum per_j x^(L-j); times
    v^(k+L) at x = u/v, an integer."""
    assert x > 1
    u, v, k, L = x.numerator, x.denominator, len(pre), len(per)
    F = _homogeneous([-1] + list(pre), u, v)
    P = _homogeneous([0] + list(per), u, v)
    G = (u ** L - v ** L) * F + v ** k * P
    return (G > 0) - (G < 0)


def _brackets_root(pre, per, lo, hi) -> bool:
    """lo <= beta <= hi for the root beta of g: g falls through 0 at beta."""
    return _g_sign(pre, per, Fraction(lo)) >= 0 >= _g_sign(pre, per, Fraction(hi))


@pytest.mark.parametrize("name", RATIONAL_ROWS)
def test_rational_delta_rows_hold_their_value(name):
    """Each rational ``delta eval`` row's printed enclosure, read as exact
    fractions, brackets the root of its slope's floor-formula word, by exact
    signs of the digit series at its two ends, apart from ``staircase``.
    Moving one end inward by one unit of the first digit where the ends
    differ makes one of the two copies fail."""
    row = json.loads(GOLDEN.joinpath(f"{name}.out").read_text())
    lo, hi = row["enclosure"]
    word = _floor_word(Fraction(row["slope"]), "--right-limit" in _row_command(name))
    assert _brackets_root(*word, lo, hi)
    first = next(i for i, (x, y) in enumerate(zip(lo, hi)) if x != y)
    unit = Fraction(1, 10 ** (first - lo.index(".")))
    moved = [(Fraction(lo) + unit, hi), (lo, Fraction(hi) - unit)]
    assert not all(_brackets_root(*word, a, b) for a, b in moved)


@pytest.mark.parametrize("name", PLOT_ROWS)
def test_plot_rows_hold_their_values(name):
    """Both enclosures of every ``delta plot`` row, Delta(alpha) in
    delta_lo/hi and Delta(alpha+) in right_lo/hi, bracket the roots of the
    slope's floor-formula words."""
    lines = GOLDEN.joinpath(f"{name}.out").read_text().splitlines()
    assert lines[0].startswith("slope_num,slope_den,delta_lo,delta_hi,right_lo,right_hi,")
    for line in lines[1:]:
        num, den, lo, hi, right_lo, right_hi = line.split(",")[:6]
        alpha = Fraction(int(num), int(den))
        assert _brackets_root(*_floor_word(alpha, False), lo, hi), line
        assert _brackets_root(*_floor_word(alpha, True), right_lo, right_hi), line


ESTIMATOR_ROWS = ["10", "11", "x04", "x05", "x06", "x07", "x08", "x09", "x18"]
DPS = 80  # every value below is good to about 75 digits, checked to 70


def _ln_plus(ln_x, y: int):
    """ln(x + y) from ln x, for integers x and y >= 0.  Where y/x is below
    e^-10000 the log1p term is dropped, as mpmath would not hold x itself:
    it is far under the relative 10^-70 that every check allows."""
    return ln_x + (mp.log1p(y * mp.exp(-ln_x)) if ln_x - mp.log(y + 1) < 10 ** 4 else 0)


def _targeted_ln_q(beta: int):
    """ln q_0 .. ln q_5 of targeted:beta, a_n = floor(beta^q_(n-1) / q_(n-1)),
    from exact integers up to q_4; a_5 q_4 = beta^q_4 - (beta^q_4 mod q_4)
    gives ln q_5 = q_4 ln beta + ln(1 + (q_3 - beta^q_4 mod q_4) beta^-q_4)."""
    q = [1, beta]  # q_1 = a_1 = beta
    while len(q) < 5:
        q.append(beta ** q[-1] // q[-1] * q[-1] + q[-2])
    tail = q[3] - pow(beta, q[4], q[4])
    return [mp.log(x) for x in q] + [q[4] * mp.log(beta) + mp.log1p(tail * mp.mpf(beta) ** -q[4])]


def _quotient_ln_q(terms):
    """ln q_0 .. ln q_40 of [a_0; a_1, a_2, ...] with integer terms."""
    q = [1, next(terms)]
    while len(q) < 41:
        q.append(next(terms) * q[-1] + q[-2])
    return [mp.log(x) for x in q]


def _alpha3_ln_q():
    """ln q_0 .. ln q_5 of alpha3, a_1 = 10 and a_(n+1) = a_n!: q_0..q_2 are
    exact, ln a_3 and ln a_4 come by mpmath's loggamma, and ln q_5, past
    mpmath, is given by its lower bound ln q_4 (its printed row is
    [1e300, inf])."""
    q = [1, 10, 3628800 * 10 + 1]
    ln_a3 = mp.loggamma(3628801)
    ln_q3 = _ln_plus(ln_a3 + mp.log(q[2]), q[1])
    ln_q4 = _ln_plus(mp.loggamma(mp.exp(ln_a3) + 1) + ln_q3, q[2])
    return [mp.log(x) for x in q] + [ln_q3, ln_q4, ln_q4]


def _e_terms():
    for m in count(1):
        yield from (1, 2 * m, 1)


# ln q_n of the continued-fraction targets; ln s_1, ln s_2, ... of the series
# presets alpha = sum 1/s_k, each s_k dividing s_(k+1), where +inf stands for
# a denominator past mpmath whose tail term is dropped (_neg_log_dist)
CF_LN_Q = {"e": lambda: _quotient_ln_q(_e_terms()),
           "cf": lambda: _quotient_ln_q(repeat(1)),  # --cf 0,1,fib
           "targeted:2": lambda: _targeted_ln_q(2), "alpha5": lambda: _targeted_ln_q(2),
           "alpha3": _alpha3_ln_q}
SAMPLE_LN_S = {"alpha1": lambda: [factorial(k) * mp.log(10) for k in range(1, 13)],
               "alpha4": lambda: [e * mp.log(10) for e in (1, 10, 10 ** 10, mp.mpf(10) ** 10 ** 10)],
               "alpha7": lambda: [2 * mp.log(2), 2 ** 513 * mp.log(2), mp.inf]}


def _neg_log_dist(ln_s, m: int):
    """-ln||s_m alpha|| = ln(s_(m+1)/s_m) - ln(1 + sum_(k > m+1) s_(m+1)/s_k);
    a tail term below e^-10000 is dropped, and the ones after it fall faster
    still, so the dropped sum is far under the relative 10^-70 checked."""
    head = ln_s[m]
    tail = mp.fsum(mp.exp(head - x) for x in ln_s[m + 1:] if x - head < 10 ** 4)
    return head - ln_s[m - 1] - mp.log1p(tail)


def _running_values(target: str, kind: str):
    """n -> the defining quantity of a running row: 1 + ln q_(n+1)/ln q_n
    (mu) and ln q_(n+1)/q_n (theta) on a continued fraction, 1 - ln||s_m
    alpha||/ln s_m (mu) and -ln||s_m alpha||/s_m (theta) on a series."""
    if target in CF_LN_Q:
        lq = CF_LN_Q[target]()
        if kind == "mu":
            return lambda n: 1 + lq[n + 1] / lq[n]
        return lambda n: mp.exp(mp.log(lq[n + 1]) - lq[n])
    ln_s = SAMPLE_LN_S[target]()
    if kind == "mu":
        return lambda m: 1 + _neg_log_dist(ln_s, m) / ln_s[m - 1]
    return lambda m: mp.exp(mp.log(_neg_log_dist(ln_s, m)) - ln_s[m - 1])


def _measure_intervals(where: str, est: dict, target: str):
    """(where, lo, hi, value) for each running row of one estimate and for
    its headline, the largest running value."""
    value = _running_values(target, est["kind"])
    rows = [(f"{where} n={n}", lo, hi, value(n)) for n, lo, hi in est["running"]]
    return rows + [(f"{where} headline", *est["headline"], max(r[3] for r in rows))]


def _estimator_intervals(name: str, payload: dict):
    """Every printed interval of an estimator golden file with the mpmath
    value it must hold."""
    argv = _argv(_row_command(name))
    target = "cf" if "--cf" in argv else argv[argv.index("--preset") + 1]
    if argv[0] == "cf":
        lq = CF_LN_Q[target]()
        return [(f"ln_q n={c['n']}", *c["ln_q"], lq[c["n"]])
                for c in payload["convergents"] if "ln_q" in c]
    if argv[0] == "measure":
        return _measure_intervals(argv[1], payload, target)
    rows = _measure_intervals("mu", payload["mu"], target)
    theta = _measure_intervals("theta", payload["theta"], target)
    if payload["theta_enclosure"]:
        tail = max(r[3] for r in theta[:-1][-3:])  # classify reads the last three
        rows.append(("theta_enclosure", *payload["theta_enclosure"], mp.exp(tail)))
    return rows + theta


def _holds_mp(lo, hi, value) -> bool:
    err = abs(value) * mp.mpf(10) ** -70
    return mp.mpf(lo) <= value - err and value + err <= mp.mpf(hi)


@pytest.mark.parametrize("name", ESTIMATOR_ROWS)
def test_estimator_rows_hold_their_value(name):
    """Each running row, headline, theta enclosure and ln q interval of the
    estimator golden files (measure, classify, cf convergents on log-space
    denominators), read as exact floats, holds its defining quantity,
    evaluated by mpmath at 80 digits from exact integers, or from the
    preset's closed form where q is in log space, apart from
    ``staircase.diophantine``.  A copy with the first row's upper end moved
    down to its lower end, past the value, fails."""
    payload = json.loads(GOLDEN.joinpath(f"{name}.out").read_text())
    with mp.workdps(DPS):
        rows = _estimator_intervals(name, payload)
        assert rows
        for where, lo, hi, value in rows:
            assert _holds_mp(lo, hi, value), (where, lo, hi, mp.nstr(value, 20))
        moved = json.loads(json.dumps(payload))
        if "convergents" in moved:
            first = next(c["ln_q"] for c in moved["convergents"] if "ln_q" in c)
        else:
            first = moved.get("mu", moved)["running"][0]
        first[-1] = first[-2]
        assert not all(_holds_mp(lo, hi, value)
                       for _, lo, hi, value in _estimator_intervals(name, moved))


if __name__ == "__main__":
    os.environ.pop(cli.ENV_DIGITS, None)
    for prefix, lines in (("", COMMANDS), ("x", EXTRA)):
        for n, line in enumerate(lines, start=1):
            name = f"{prefix}{n:02d}.out"
            with tempfile.TemporaryDirectory() as tmp:
                GOLDEN.joinpath(name).write_text(capture(line, Path(tmp)))
            print(f"{name}  {line}", file=sys.stderr)
