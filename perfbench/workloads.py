"""Seeded task lists for the benchmark's workloads.

A workload is a list of tasks generated from ``--seed``.  Each task runs one
request against the public API of ``staircase`` (or one command line of
``python -m staircase.cli``) and carries an independent check of its output.
The seeded choices are stratified by denominator: every seed draws the same
number of slopes from the same denominator bands, so every seed costs about
the same and only the slopes themselves change.

Library functions are looked up on the package at call time
(``st.delta_rational``), so the traced run sees every call.  Command lines
(:class:`Command`) are run through ``staircase.cli.main`` in the benchmark's
own process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List

import checks
from checks import require

WORKLOADS = ("orbit", "deep", "sweep")
SCHEMA = Path(__file__).resolve().parent.parent / "src" / "staircase" / "schema.json"

# Why each workload exists and which layer it exercises or bypasses.  The
# same sentences are recorded in BENCHMARK.json.
WHY = {
    "orbit": "exact greedy round-trips, periodic expansions and orbit band checks at "
             "root tolerance 2^-24, plus the 15 README command lines in process: "
             "interval Horner, greedy layer and CLI output, no deep roots",
    "deep": "few roots refined very far (1e-300 at q to 38, near-one n to 5100, "
            "irrationals at 1e-45): exact sign tests in root refinement and series "
            "roots, no greedy",
    "sweep": "Farey staircase plot to denominator 30 plus quotient probes: hundreds of "
             "moderate roots, separation rounds, words and analysis",
}


@dataclass
class Task:
    """One request: ``run`` is timed, ``check`` validates its output."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _coprime(q: int):
    return [p for p in range(1, q) if math.gcd(p, q) == 1]


def build(name: str, seed: int) -> list:
    """The workload's task list: :class:`Task` and :class:`Command` items."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    make = {"orbit": _build_orbit, "deep": _build_deep, "sweep": _build_sweep}[name]
    return make(random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------------------
# orbit: greedy round-trips, periodic right-limit expansions, orbit bands,
# and the README command lines
# ---------------------------------------------------------------------------

ORBIT_TOL = Fraction(1, 2 ** 24)
ORBIT_MAX_DEN = 20
ORBIT_PER_DEN = 6


def _build_orbit(rng: random.Random) -> list:
    import staircase as st

    tasks: list = []
    for q in range(2, ORBIT_MAX_DEN + 1):
        ps = _coprime(q)
        chosen = sorted(rng.sample(ps, min(ORBIT_PER_DEN, len(ps))))
        for i, p in enumerate(chosen):
            for b in (1, 2, 3):
                tasks.append(_roundtrip_task(st, Fraction(b - 1) + Fraction(p, q)))
            # one base per slope for the costlier kinds, balanced over b
            b = 1 + (i + rng.randrange(3)) % 3
            alpha = Fraction(b - 1) + Fraction(p, q)
            tasks.append(_periodic_task(st, alpha))
            tasks.append(_band_task(st, alpha))
    return tasks + _build_cli(rng)


def _roundtrip_task(st, alpha: Fraction) -> Task:
    q = alpha.denominator

    def run():
        d = st.delta_rational(alpha, ORBIT_TOL)
        return d, st.greedy_digits(d.handle, q + 2)

    def check(out):
        d, (digits, terminated) = out
        want = checks.staircase_word(alpha)
        require(terminated, f"greedy expansion at {alpha} did not terminate")
        require(tuple(digits) == want, f"greedy digits at {alpha} differ from the mechanical word")
        require(tuple(d.word) == want, f"word at {alpha} differs from the mechanical word")
        checks.check_delta(alpha, d.enclosure, ORBIT_TOL, f"Delta({alpha})")

    return Task("roundtrip", str(alpha), run, check)


def _periodic_task(st, alpha: Fraction) -> Task:
    pre, per = checks.right_limit_parts(alpha)
    n = len(pre) + 3 * len(per)

    def run():
        w = st.right_limit_word(alpha)
        h = st.BetaHandle.from_periodic_word(w, ORBIT_TOL)
        return w, h, st.greedy_digits(h, n)

    def check(out):
        w, h, (digits, terminated) = out
        require(checks.same_infinite_word(tuple(w.pre), tuple(w.per), pre, per),
                f"right-limit word at {alpha} differs from b (z b b-1)^w")
        require(not terminated, f"periodic expansion at {alpha}+ terminated")
        require(tuple(digits) == checks.periodic_prefix(pre, per, n),
                f"greedy digits at {alpha}+ differ from the periodic word")
        checks.check_right_limit(alpha, h.enclosure, ORBIT_TOL, f"Delta({alpha}+)")

    return Task("periodic", str(alpha), run, check)


def _band_task(st, alpha: Fraction) -> Task:
    q = alpha.denominator

    def run():
        d = st.delta_rational(alpha, ORBIT_TOL)
        return st.extremal_orbit_check(d.handle, q + 1)

    def check(points):
        verdicts = [p.verdict for p in points]
        require(verdicts == ["interior"] * (q - 1) + ["zero"],
                f"orbit band verdicts at {alpha}: {verdicts}")
        require(points[-1].k == q, f"orbit at {alpha} does not die at step {q}")

    return Task("band", str(alpha), run, check)


# ---------------------------------------------------------------------------
# deep: a few roots refined very far
# ---------------------------------------------------------------------------

DEEP_TOL = Fraction(1, 10 ** 300)
DEEP_DEN_BANDS = ((13, 15), (24, 26), (36, 38))
NEAR_ONE_TOL = Fraction(1, 10 ** 8)
NEAR_ONE_BANDS = ((950, 1050), (2900, 3100), (4900, 5100))
SERIES_TOL = Fraction(1, 10 ** 45)
SERIES_PRESETS = ("golden", "sqrt2m1", "e")


def _build_deep(rng: random.Random) -> List[Task]:
    import staircase as st

    tasks: List[Task] = []
    for lo, hi in DEEP_DEN_BANDS:
        q = rng.randint(lo, hi)
        alpha = Fraction(rng.choice(_coprime(q)), q)
        tasks.append(_deep_rational_task(st, alpha))
        tasks.append(_deep_right_task(st, alpha))
    for lo, hi in NEAR_ONE_BANDS:
        tasks.append(_near_one_task(st, rng.randint(lo, hi)))
    for name in SERIES_PRESETS:
        tasks.append(_series_task(st, name))
    return tasks


def _deep_rational_task(st, alpha: Fraction) -> Task:
    def run():
        return st.delta_rational(alpha, DEEP_TOL)

    def check(d):
        require(tuple(d.word) == checks.staircase_word(alpha), f"word at {alpha}")
        checks.check_delta(alpha, d.enclosure, DEEP_TOL, f"Delta({alpha})")

    return Task("rational_1e-300", str(alpha), run, check)


def _deep_right_task(st, alpha: Fraction) -> Task:
    pre, per = checks.right_limit_parts(alpha)

    def run():
        return st.delta_right_limit(alpha, DEEP_TOL)

    def check(d):
        require(checks.same_infinite_word(tuple(d.word.pre), tuple(d.word.per), pre, per),
                f"right-limit word at {alpha}")
        checks.check_right_limit(alpha, d.enclosure, DEEP_TOL, f"Delta({alpha}+)")

    return Task("right_1e-300", str(alpha), run, check)


def _near_one_task(st, n: int) -> Task:
    def run():
        return st.near_one_root(n, NEAR_ONE_TOL)

    def check(enc):
        require(1 < enc.lo and enc.hi <= 2, f"near-one root {n} outside (1, 2]")
        checks.check_root(lambda x: checks.near_one_sign(n, x), enc.lo, enc.hi,
                          NEAR_ONE_TOL, f"near_one_root({n})")

    return Task("near_one", str(n), run, check)


def _series_task(st, name: str) -> Task:
    def run():
        return st.delta_irrational(st.lookup_preset(name).cf, SERIES_TOL)

    def check(d):
        require(tuple(d.word) == checks.irrational_digits(name, len(d.word)),
                f"digit prefix at {name} differs from the floor formula")
        checks.check_irrational(name, d.enclosure, SERIES_TOL, f"Delta({name})")

    return Task("series_1e-45", name, run, check)


# ---------------------------------------------------------------------------
# sweep: the staircase over a Farey range, plus quotient probes
# ---------------------------------------------------------------------------

SWEEP_RANGE = (Fraction(0), Fraction(2))
SWEEP_MAX_DEN = 30
SWEEP_TOL = Fraction(1, 10 ** 8)
PROBE_TOL = Fraction(1, 10 ** 12)
PROBE_K = 6
PROBE_FIXED = Fraction(3, 7)
PROBE_DENS = (3, 4, 5)  # one seeded slope p/q in (0, 1) per denominator, besides 3/7
ZERO_K = 63


def _build_sweep(rng: random.Random) -> List[Task]:
    import staircase as st

    tasks = [_plot_task(st)]
    centers = [PROBE_FIXED]
    for q in PROBE_DENS:
        centers.append(Fraction(rng.choice(_coprime(q)), q))
    for c in centers:
        tasks.append(_probe_task(st, "left", c))
        tasks.append(_probe_task(st, "right", c))
    tasks.append(_zero_task(st))
    return tasks


def _plot_task(st) -> Task:
    lo, hi = SWEEP_RANGE
    slopes = checks.farey(lo, hi, SWEEP_MAX_DEN)

    def run():
        return st.plot_samples(lo, hi, SWEEP_MAX_DEN, SWEEP_TOL, certify_order=True)

    def check(rows):
        require([r.slope for r in rows] == slopes, "plot rows are not the Farey slopes")
        for r in rows:
            d, rl = r.delta.enclosure, r.right.enclosure
            checks.check_delta(r.slope, d, SWEEP_TOL, f"plot Delta({r.slope})")
            checks.check_right_limit(r.slope, rl, SWEEP_TOL, f"plot Delta({r.slope}+)")
            require(0 < r.jump_lo <= rl.lo - d.hi, f"plot jump at {r.slope} not certified")
        for a, b in zip(rows, rows[1:]):
            require(a.delta.enclosure.hi < b.delta.enclosure.lo,
                    f"plot rows {a.slope} and {b.slope} not strictly ordered")

    return Task("plot", f"({lo},{hi}] den<={SWEEP_MAX_DEN}", run, check)


def _probe_task(st, side: str, center: Fraction) -> Task:
    fn = "rational_left_quotients" if side == "left" else "rational_right_quotients"

    def run():
        return getattr(st, fn)(center, PROBE_K, PROBE_TOL)

    def check(trace):
        require(trace.verdict == "toward_zero", f"{side} probe at {center}: {trace.verdict}")
        require(len(trace.points) == PROBE_K, f"{side} probe at {center}: point count")
        c = trace.points[0].center_value.enclosure
        if side == "left":
            checks.check_delta(center, c, PROBE_TOL, f"probe center {center}")
        else:
            checks.check_right_limit(center, c, PROBE_TOL, f"probe center {center}+")
        bounds = []
        for p in trace.points:
            require(p.dx.lo == p.dx.hi == abs(p.slope - center), f"probe offset at {p.slope}")
            checks.check_delta(p.slope, p.probe_value.enclosure, PROBE_TOL, f"probe {p.slope}")
            bounds.append(checks.quotient_bounds(c, p.probe_value.enclosure, p.dx))
        checks.check_trend(bounds, trace.verdict, f"{side} probe at {center}")

    return Task(f"probe_{side}", str(center), run, check)


def _zero_task(st) -> Task:
    def run():
        return st.zero_plus_quotients(ZERO_K, PROBE_TOL)

    def check(trace):
        require(trace.verdict == "toward_infinity", f"zero probe: {trace.verdict}")
        require([p.slope for p in trace.points] == [Fraction(1, q) for q in range(2, ZERO_K + 2)],
                "zero probe slopes")
        c = trace.points[0].center_value.enclosure
        require(c.lo == c.hi == 1, "Delta(0) is not exactly 1")
        bounds = []
        for p in trace.points:
            checks.check_delta(p.slope, p.probe_value.enclosure, PROBE_TOL, f"probe {p.slope}")
            bounds.append(checks.quotient_bounds(c, p.probe_value.enclosure, p.dx))
        checks.check_trend(bounds, trace.verdict, "zero probe", window=len(bounds))

    return Task("probe_zero", f"K={ZERO_K}", run, check)


# ---------------------------------------------------------------------------
# the README command lines (part of orbit)
# ---------------------------------------------------------------------------

CLI_TOL = Fraction(1, 10 ** 12)
CLI_DIGITS = 30
# printed endpoints are rounded outward by at most 10^-digits each
CLI_ROUNDING = Fraction(2, 10 ** CLI_DIGITS)
CLI_WIDTH = CLI_TOL + CLI_ROUNDING


@dataclass
class Command:
    """A command line plus the check of its exit code and output."""

    argv: List[str]
    check: Callable[[int, str, str], None]
    out_file: str = ""  # file the command writes instead of stdout

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _build_cli(rng: random.Random) -> List[Command]:
    """The README's command lines.  The seed picks the slopes of the cheap
    commands from fixed denominators and the order of the list.  Commands run
    in a scratch directory, where ``delta plot`` writes its ``plot.csv``."""

    def js(fn):
        def check(code, out, err):
            require(code == 0, f"exit code {code}: {err.strip()[:200]}")
            fn(checks.validate_json(out, str(SCHEMA), "json output"))
        return check

    cp = rng.choice(_coprime(5))

    def christoffel(code, out, err):
        require(code == 0, f"exit code {code}: {err.strip()[:200]}")
        require(checks.parse_word(out.strip()) == checks.christoffel_word(cp, 5),
                "christoffel word differs from the floor formula")
    cmds = [Command(["word", "christoffel", str(cp), "5"], christoffel)]

    def admissible(p):
        require(p == {"word": "2(10)^w", "admissible": True}, f"admissibility payload {p}")
    cmds.append(Command(["word", "admissible", "2(10)"], js(admissible)))

    alpha = Fraction(rng.randint(0, 2)) + Fraction(1, 2)

    def delta_eval(p):
        require(checks.parse_word(p["word"]) == checks.staircase_word(alpha), "delta eval word")
        checks.check_delta(alpha, checks.Bounds.parse(p["enclosure"]), CLI_WIDTH,
                           f"cli Delta({alpha})")
    cmds.append(Command(["delta", "eval", "--alpha", str(alpha)], js(delta_eval)))

    def delta_right(p):
        pre, per = checks.parse_periodic(p["word"])
        require(checks.same_infinite_word(pre, per, *checks.right_limit_parts(alpha)),
                "right-limit word")
        checks.check_right_limit(alpha, checks.Bounds.parse(p["enclosure"]), CLI_WIDTH,
                                 f"cli Delta({alpha}+)")
    cmds.append(Command(["delta", "eval", "--alpha", str(alpha), "--right-limit"],
                        js(delta_right)))

    def irrational(name):
        def check(p):
            word = checks.parse_word(p["word"])
            require(word == checks.irrational_digits(name, len(word)), f"{name} digit prefix")
            checks.check_irrational(name, checks.Bounds.parse(p["enclosure"]), CLI_WIDTH,
                                    f"cli Delta({name})")
        return js(check)
    cmds.append(Command(["delta", "eval", "--preset", "golden"], irrational("golden")))
    cmds.append(Command(["delta", "eval", "--cf", "0,2,periodic"], irrational("sqrt2m1")))

    plot_slopes = checks.farey(Fraction(0), Fraction(1), 20)

    def plot(code, out, err):
        require(code == 0, f"exit code {code}: {err.strip()[:200]}")
        rows = checks.parse_csv(out)
        require(rows and rows[0] == ["slope_num", "slope_den", "delta_lo", "delta_hi",
                                     "right_lo", "right_hi", "jump_lo"], "plot CSV header")
        # slope, delta_lo, delta_hi, right_lo, right_hi, jump_lo
        body = [[Fraction(int(r[0]), int(r[1]))] + [Fraction(x) for x in r[2:]] for r in rows[1:]]
        require([r[0] for r in body] == plot_slopes, "plot CSV slopes")
        for slope, d_lo, d_hi, r_lo, r_hi, jump_lo in body:
            checks.check_delta(slope, checks.Bounds(d_lo, d_hi), CLI_WIDTH,
                               f"cli plot Delta({slope})")
            checks.check_right_limit(slope, checks.Bounds(r_lo, r_hi), CLI_WIDTH,
                                     f"cli plot Delta({slope}+)")
            require(0 < jump_lo <= r_lo - d_hi + CLI_ROUNDING,
                    f"cli plot jump at {slope} not certified")
        for a, b in zip(body, body[1:]):
            require(a[2] < b[1], f"plot CSV rows {a[0]} and {b[0]} not strictly ordered")
    cmds.append(Command(["delta", "plot", "--from", "0/1", "--to", "1/1", "--max-den", "20",
                         "--out", "plot.csv", "--output", "csv"], plot, out_file="plot.csv"))

    x = Fraction(rng.choice(_coprime(12)) + 12, 12)

    def expand(p):
        require(p == {"alpha": str(x), "quotients": checks.cf_quotients(x, 10)}, "cf expand")
    cmds.append(Command(["cf", "expand", "--alpha", str(x), "-N", "10"], js(expand)))

    def convergents(p):
        fib = [0, 1]
        while len(fib) < 14:
            fib.append(fib[-1] + fib[-2])
        want = [{"n": n, "p": str(fib[n]), "q": str(fib[n + 1])} for n in range(11)]
        require(p["convergents"] == want, "golden convergents are not Fibonacci ratios")
    cmds.append(Command(["cf", "convergents", "--preset", "golden", "-N", "10"],
                        js(convergents)))

    def theta(p):
        require(p["kind"] == "theta" and p["caveat"] is True, "theta payload")
        _, lo, hi = p["running"][-1]
        require(abs(lo - math.log(2)) < 1e-3 and abs(hi - math.log(2)) < 1e-3,
                f"theta window end [{lo}, {hi}] is not ln 2")
    cmds.append(Command(["measure", "theta", "--preset", "targeted:2", "-N", "6"], js(theta)))

    def classify(p):
        require(p["label"] == "exponential" and p["caveat"] is True, f"label {p['label']}")
    cmds.append(Command(["classify", "--preset", "alpha5"], js(classify)))

    def trace(verdict, n):
        def check(p):
            require(p["verdict"] == verdict, f"verdict {p['verdict']}, expected {verdict}")
            require(len(p["probes"]) == n, "probe count")
        return js(check)
    cmds.append(Command(["probe", "left", "--alpha", "2/5", "-K", "6"], trace("toward_zero", 6)))
    cmds.append(Command(["probe", "zero", "-K", "8"], trace("toward_infinity", 8)))
    cmds.append(Command(["probe", "irrational", "--preset", "golden", "-I", "6"],
                        trace("toward_zero", 6)))

    def lowerbound(p):
        require(p["holds"] is True and p["N"] == 5 and p["mirrored"] is False,
                f"lower bound payload {p}")
        lhs = [Fraction(s) for s in p["lhs"]]
        rhs = [Fraction(s) for s in p["rhs"]]
        require(lhs[0] > rhs[1], "lower bound not certified by the printed enclosures")
    cmds.append(Command(["probe", "lowerbound", "--alpha", "1/2", "--alpha-n", "2/5"],
                        js(lowerbound)))

    rng.shuffle(cmds)
    return cmds
