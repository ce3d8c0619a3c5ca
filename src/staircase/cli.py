"""Command-line front end.

Every subcommand prints deterministic, machine-readable output: JSON by
default (validating against the shipped ``schema.json``), CSV where tabular.
Enclosures always print as two decimal strings — a lower and an upper bound —
so the certification is visible in the output itself.  The library returns
values only: this module builds every payload and row, and writes them
through ``_emit`` (JSON) and ``_csv_out`` (CSV).

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 certification failure (budget exhausted / undecidable).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import chain, count, cycle, repeat
from typing import Iterable, List, Optional, Sequence

from . import analysis, delta, diophantine, words
from .diophantine import ContinuedFraction, e_cf
from .errors import CertificationError, PreconditionError
from .intervals import decimal_str, enclosure_strings

ENV_DIGITS = "STAIRCASE_DIGITS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_CERTIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 1 on usage errors, not argparse's 2
        cause = _too_long(message)  # argparse echoed an argument past the int limit
        print(f"error: usage: {message.split(': ')[0] + ': ' + cause if cause else message}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _too_long(s: str) -> Optional[str]:
    """The error line where n digits in a row in ``s`` (counted as ``int`` counts
    them, without underscores) pass the interpreter's int<->str limit, else
    None.  Python 3.10 has no limit, and 0 means none."""
    n = max((len(r.replace("_", "")) for r in re.findall(r"\d[\d_]*", s)), default=0)
    return f"{n}-digit number: too long" if 0 < getattr(sys, "get_int_max_str_digits", int)() < n else None


def parse_fraction(s: str) -> Fraction:
    """Exact 'P/Q' (or integer 'P') command-line fraction."""
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(s), 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(_too_long(s) or f"bad fraction {s!r}: {exc}") from exc


def _tolerance_arg(s: str) -> Fraction:
    """--tol: a decimal or an exact 'P/Q'; a malformed value is a usage error."""
    try:
        return parse_fraction(s) if "/" in s else Fraction(s)
    except ValueError:  # PreconditionError from parse_fraction is a ValueError
        raise argparse.ArgumentTypeError(f"not a decimal or P/Q: {s!r}") from None


def _nonnegative_arg(what: str):
    """An option's type: a nonnegative integer, else a usage error naming ``what``."""

    def parse(s: str) -> int:
        try:
            n = int(s)
        except ValueError:
            n = -1
        if n < 0:
            raise argparse.ArgumentTypeError(f"{what} must be a nonnegative integer, got {s!r}")
        return n

    return parse


def parse_cf(spec: str, irrational: bool = False) -> ContinuedFraction:
    """Comma list 'a0,a1,...' with an optional trailing generator suffix.

    Suffixes: 'fib' continues with 1s (golden pattern), 'e-pattern' continues
    the 1,2k,1 blocks of e's expansion, 'periodic' repeats the listed tail.
    A plain numeric list is a finite (rational) continued fraction, which
    ``irrational`` rejects.
    """
    parts = [p.strip() for p in spec.split(",") if p.strip() != ""]
    if not parts:
        raise PreconditionError("empty continued fraction")
    suffix = None
    if parts[-1] in ("fib", "e-pattern", "periodic"):
        suffix = parts.pop()
    try:
        terms = [int(p) for p in parts]
    except ValueError as exc:
        raise PreconditionError(_too_long(spec) or f"bad continued fraction term: {exc}") from exc
    if not terms:
        raise PreconditionError("continued fraction needs at least a0")
    a0, tail = terms[0], terms[1:]
    if any(t < 1 for t in tail):
        raise PreconditionError("partial quotients must be >= 1")
    if suffix is None:
        if irrational:
            raise PreconditionError(f"--cf {spec} has no generator suffix, so it names "
                                    "a rational slope: pass it as --alpha P/Q")
        return ContinuedFraction.from_quotients(a0, tail, name=spec)
    if suffix == "periodic" and not tail:
        raise PreconditionError("'periodic' needs at least one tail term")
    streams = {"fib": lambda: chain(tail, repeat(1)),
               "periodic": lambda: cycle(tail),
               "e-pattern": lambda: chain(tail, map(e_cf().term, count(len(tail) + 1)))}
    return ContinuedFraction(a0, streams[suffix], name=spec)


def _target(args, cf: bool = False, irrational: bool = False) -> Fraction | diophantine.Preset:
    """The number named by exactly one of --cf and --preset, or on delta eval
    of --alpha too, whose exact fraction it returns wherever --alpha is given.
    With ``cf`` or ``irrational`` it needs a continued fraction, and with
    ``irrational`` a --cf list needs a generator suffix."""
    named = [f"--{k}" for k in ("alpha", "cf", "preset") if getattr(args, k, None)]
    if not named:
        raise PreconditionError("need --alpha, --cf, or --preset" if hasattr(args, "alpha")
                                else "need --cf or --preset")
    if len(named) > 1:
        raise PreconditionError(f"{', '.join(named)} each name a number: give only one")
    if getattr(args, "alpha", None) is not None:
        return parse_fraction(args.alpha)
    if args.cf:
        return diophantine.Preset("cf", cf=parse_cf(args.cf, irrational))
    try:
        preset = diophantine.lookup_preset(args.preset)
    except PreconditionError as exc:  # a targeted: number may be past the int limit
        raise PreconditionError(_too_long(args.preset) or str(exc)) from None
    if (cf or irrational) and preset.cf is None:
        raise PreconditionError(f"preset {preset.name} has no continued fraction form")
    return preset


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _csv_out(header: List[str], rows: Iterable[Sequence], path: Optional[str]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(buf.getvalue())
        except OSError as exc:
            raise PreconditionError(f"cannot write --out {path!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# Subcommand handlers: each builds its payload and writes it
# ---------------------------------------------------------------------------


def _cmd_christoffel(args) -> None:
    print(words.word_str(words.christoffel(args.p, args.q, upper=args.upper)))


def _cmd_central(args) -> None:
    print(words.word_str(words.central_word(args.p, args.q)))


def _cmd_mechanical(args) -> None:
    alpha = parse_fraction(args.alpha)
    rho = parse_fraction(args.rho)
    print(words.word_str(words.mechanical_prefix(alpha, rho, args.n, upper=args.upper)))


def _cmd_admissible(args) -> None:
    s = args.word
    if "(" in s:
        if not s.endswith(")"):
            raise PreconditionError(f"unclosed period in {s!r}: need PRE(PER)")
        pre_s, per_s = s[:-1].split("(", 1)
        w = words.PeriodicWord.make(words.parse_word(pre_s), words.parse_word(per_s))
    else:
        w = words.parse_word(s)
    _emit({"word": words.word_str(w),
           "admissible": words.is_parry_admissible(w)})


def _cmd_delta_eval(args) -> None:
    tol, target = args.tol, _target(args, irrational=True)
    if isinstance(target, Fraction):
        value = (delta.delta_right_limit if args.right_limit else delta.delta_rational)(target, tol)
        slope = {"slope": str(target)}
    else:
        value = delta.delta_irrational(target.cf, tol)
        slope = {"slope_cf": target.cf.name or "cf"}
    _emit({**slope, "word": words.word_str(value.word), "nature": value.nature,
           "enclosure": list(enclosure_strings(value.enclosure, args.digits))})


def _cmd_delta_plot(args) -> None:
    rows = delta.plot_samples(parse_fraction(getattr(args, "from")),
                              parse_fraction(args.to), args.max_den, args.tol)
    d = args.digits
    header = ["slope_num", "slope_den", "delta_lo", "delta_hi",
              "right_lo", "right_hi", "jump_lo"]
    _csv_out(header, [(r.slope.numerator, r.slope.denominator,
                       *enclosure_strings(r.delta.enclosure, d),
                       *enclosure_strings(r.right.enclosure, d),
                       decimal_str(r.jump_lo, d, "floor")) for r in rows], args.out)


def _cmd_cf_expand(args) -> None:
    x = parse_fraction(args.alpha)
    _emit({"alpha": str(x), "quotients": diophantine.cf_expand(x, args.n)})


def _cmd_cf_convergents(args) -> None:
    cf = _target(args, cf=True).cf
    if cf.length is not None and args.n > cf.length:
        raise PreconditionError(f"--cf {args.cf} has {cf.length + 1} terms, so its "
                                f"convergents stop at n = {cf.length}; pass -N {cf.length} "
                                "or less")
    rows = [_convergent_row(c) for c in diophantine.convergents(cf, args.n, args.bit_budget)]
    _emit({"cf": cf.name or "cf", "convergents": rows})


def _convergent_row(c: diophantine.Convergent) -> dict:
    """p and q as decimal strings; ln q where q is log-space only or an int
    longer than ``str`` prints (``sys.get_int_max_str_digits``)."""
    if isinstance(c.q, int):
        try:
            return {"n": c.index, "p": str(c.p), "q": str(c.q)}
        except ValueError:
            pass
    return {"n": c.index, "ln_q": list(diophantine.nat_ln_interval(c.q))}


def _measure_payload(est: diophantine.MeasureEstimate) -> dict:
    return {"kind": est.kind,
            "running": [[n, lo, hi] for (n, lo, hi) in est.running],
            "headline": list(est.headline),
            "caveat": est.caveat,
            "note": est.window_note}


def _cmd_measure(estimate, args) -> None:
    target = _target(args)
    est = estimate(target, args.N, args.bit_budget)
    _emit({"target": target.name, "N": args.N, **_measure_payload(est)})


def _cmd_classify(args) -> None:
    target = _target(args)
    c = diophantine.classify(target, args.N, bit_budget=args.bit_budget)
    _emit({"target": target.name, "N": args.N, "label": c.label, "caveat": c.caveat,
           "theta": _measure_payload(c.theta) if c.theta else None,
           "mu": _measure_payload(c.mu) if c.mu else None,
           "theta_enclosure": list(c.theta_enclosure) if c.theta_enclosure else None})


def _write_trace(trace: analysis.QuotientTrace, args) -> None:
    """A probe trace: JSON, or CSV rows with a verdict footer."""
    rows = [(p.index, p.slope.numerator, p.slope.denominator,
             *enclosure_strings(p.quotient, args.digits)) for p in trace.points]
    if args.output == "csv":
        header = ["k", "alpha_k_num", "alpha_k_den", "quotient_lo", "quotient_hi"]
        _csv_out(header, rows + [("verdict", trace.verdict, "", "", "")], args.out)
        return
    keys = ("k", "alpha_num", "alpha_den", "quotient_lo", "quotient_hi")
    center = trace.center
    if isinstance(center, ContinuedFraction):
        center = center.name or "cf"
    _emit({"center": str(center),
           "probes": [dict(zip(keys, row)) for row in rows],
           "verdict": trace.verdict})


def _cmd_probe_side(quotients, args) -> None:
    _write_trace(quotients(parse_fraction(args.alpha), args.K, args.tol), args)


def _cmd_probe_zero(args) -> None:
    _write_trace(analysis.zero_plus_quotients(args.K, args.tol), args)


def _cmd_probe_irrational(args) -> None:
    cf = _target(args, irrational=True).cf
    _write_trace(analysis.irrational_probe(cf, args.I, args.tol), args)


def _cmd_lowerbound(args) -> None:
    rep = analysis.lowerbound_check(parse_fraction(args.alpha),
                                    parse_fraction(args.alpha_n), args.tol)
    d = args.digits
    _emit({"N": rep.N, "mirrored": rep.mirrored, "holds": rep.holds,
           "lhs": list(enclosure_strings(rep.lhs, d)),
           "rhs": list(enclosure_strings(rep.rhs, d))})


# ---------------------------------------------------------------------------
# Argument grammar
# ---------------------------------------------------------------------------


def _add_global_opts(p: argparse.ArgumentParser, top: bool = False) -> None:
    """Global options, accepted both before and after the subcommand.

    On subcommand parsers the defaults are SUPPRESS so that a flag given
    before the subcommand is not clobbered by a default afterwards.
    """
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    p.add_argument("--tol", type=_tolerance_arg, default=d(Fraction(1, 10 ** 12)),
                   help="enclosure tolerance as a decimal or P/Q (default 1e-12)")
    # A string default goes through the type too, so a bad env value is a
    # usage error.
    p.add_argument("--digits", type=_nonnegative_arg(f"digits (--digits or {ENV_DIGITS})"),
                   default=d(os.environ.get(ENV_DIGITS, "30")),
                   help=f"printed precision digits (env {ENV_DIGITS})")
    p.add_argument("--output", choices=["json", "csv"], default=d("json"))
    p.add_argument("--bit-budget", type=_nonnegative_arg("--bit-budget"),
                   default=d(diophantine.DEFAULT_BIT_BUDGET))


def build_parser() -> _Parser:
    parser = _Parser(prog="staircase",
                     description="Certified staircase-of-bases computations.")
    _add_global_opts(parser, top=True)
    sub = parser.add_subparsers(dest="cmd", required=True)
    leaves = []

    def leaf(group, name, handler, number=False, out=False):
        """A subcommand that runs ``handler``.  A number leaf names its number
        by --cf or --preset, for ``_target`` to check and resolve, and by
        --alpha first where ``number`` is "alpha"; ``out`` adds --out after
        the leaf's own options, and its global options come last."""
        p = group.add_parser(name)
        p.set_defaults(handler=handler)
        if number == "alpha":
            p.add_argument("--alpha")
        if number:
            p.add_argument("--cf")
            p.add_argument("--preset")
        leaves.append((p, out))
        return p

    word = sub.add_parser("word").add_subparsers(dest="word_cmd", required=True)
    for name, handler in (("christoffel", _cmd_christoffel), ("central", _cmd_central)):
        p = leaf(word, name, handler)
        p.add_argument("p", type=int)
        p.add_argument("q", type=int)
        if name == "christoffel":
            p.add_argument("--upper", action="store_true")
    p = leaf(word, "mechanical", _cmd_mechanical)
    p.add_argument("alpha")
    p.add_argument("rho")
    p.add_argument("n", type=int)
    p.add_argument("--upper", action="store_true")
    p = leaf(word, "admissible", _cmd_admissible)
    p.add_argument("word", metavar="digits")  # not dest digits, which --digits sets

    dlt = sub.add_parser("delta").add_subparsers(dest="delta_cmd", required=True)
    leaf(dlt, "eval", _cmd_delta_eval, number="alpha").add_argument("--right-limit",
                                                                   action="store_true")
    p = leaf(dlt, "plot", _cmd_delta_plot, out=True)
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--max-den", type=int, required=True)

    cf = sub.add_parser("cf").add_subparsers(dest="cf_cmd", required=True)
    p = leaf(cf, "expand", _cmd_cf_expand)
    p.add_argument("--alpha", required=True)
    p.add_argument("-N", dest="n", type=int, default=20)
    leaf(cf, "convergents", _cmd_cf_convergents, number=True).add_argument(
        "-N", dest="n", type=int, default=10)

    meas = sub.add_parser("measure").add_subparsers(dest="measure_cmd", required=True)
    for name, estimate in (("mu", diophantine.Preset.mu_estimate),
                           ("theta", diophantine.Preset.theta_estimate)):
        leaf(meas, name, partial(_cmd_measure, estimate), number=True).add_argument(
            "-N", type=int, default=8)
    leaf(sub, "classify", _cmd_classify, number=True).add_argument("-N", type=int, default=8)

    probe = sub.add_parser("probe").add_subparsers(dest="probe_cmd", required=True)
    for name, quotients in (("left", analysis.rational_left_quotients),
                            ("right", analysis.rational_right_quotients)):
        p = leaf(probe, name, partial(_cmd_probe_side, quotients), out=True)
        p.add_argument("--alpha", required=True)
        p.add_argument("-K", type=int, default=6)
    leaf(probe, "zero", _cmd_probe_zero, out=True).add_argument("-K", type=int, default=8)
    leaf(probe, "irrational", _cmd_probe_irrational, number=True, out=True).add_argument(
        "-I", type=int, default=8)
    p = leaf(probe, "lowerbound", _cmd_lowerbound)
    p.add_argument("--alpha", required=True)
    p.add_argument("--alpha-n", dest="alpha_n", required=True)

    for p, out in leaves:
        if out:
            p.add_argument("--out")
        _add_global_opts(p)
    return parser


@cache
def _parser() -> _Parser:
    """The grammar, built on the first ``main`` call and kept for the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    # The parser outlives this call, so the environment is read on each call.
    parser.set_defaults(digits=os.environ.get(ENV_DIGITS, "30"))
    try:
        args = parser.parse_args(argv)
        if args.tol <= 0:
            raise PreconditionError("tolerance must be positive")
        args.handler(args)
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # The reader closed stdout early, which is no failure of the command;
        # fd 1 goes to devnull so that the interpreter's exit flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationError as exc:
        print(f"error: certification: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
