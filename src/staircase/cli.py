"""Command-line front end.

Every subcommand prints deterministic, machine-readable output: JSON by
default (validating against the shipped ``schema.json``), CSV where tabular.
Enclosures always print as two decimal strings — a lower and an upper bound —
so the certification is visible in the output itself.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 certification failure (budget exhausted / undecidable).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

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
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    tolerance: Fraction = Fraction(1, 10 ** 12)
    max_truncation: int = 1 << 20
    integer_bit_budget: int = diophantine.DEFAULT_BIT_BUDGET
    output: str = "json"  # csv|json
    precision_digits: int = 30
    seed: int = 0


def parse_fraction(s: str) -> Fraction:
    """Exact 'P/Q' (or integer 'P') command-line fraction."""
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(int(s), 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad fraction {s!r}: {exc}") from exc


def _tolerance_arg(s: str) -> Fraction:
    """--tol: a decimal or an exact 'P/Q'; a malformed value is a usage error."""
    try:
        return parse_fraction(s) if "/" in s else Fraction(s)
    except ValueError:  # PreconditionError from parse_fraction is a ValueError
        raise argparse.ArgumentTypeError(f"not a decimal or P/Q: {s!r}") from None


def _digits_arg(s: str) -> int:
    """--digits (default from STAIRCASE_DIGITS): a nonnegative integer."""
    try:
        n = int(s)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"digits must be a nonnegative integer (--digits or {ENV_DIGITS}), got {s!r}")
    return n


def _e_tail_from(start: int):
    """Terms of e's CF tail 1,2,1,1,4,1,1,6,... starting at index ``start`` (1-based)."""

    def term(n: int) -> int:
        return 2 * ((n + 1) // 3) if n % 3 == 2 else 1

    def gen():
        n = start
        while True:
            yield term(n)
            n += 1

    return gen


def parse_cf(spec: str) -> ContinuedFraction:
    """Comma list 'a0,a1,...' with an optional trailing generator suffix.

    Suffixes: 'fib' continues with 1s (golden pattern), 'e-pattern' continues
    the 1,2k,1 blocks of e's expansion, 'periodic' repeats the listed tail.
    A plain numeric list is a finite (rational) continued fraction.
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
        raise PreconditionError(f"bad continued fraction term: {exc}") from exc
    if not terms:
        raise PreconditionError("continued fraction needs at least a0")
    a0, tail = terms[0], terms[1:]
    if any(t < 1 for t in tail):
        raise PreconditionError("partial quotients must be >= 1")
    if suffix is None:
        return ContinuedFraction.from_quotients(a0, tail, name=spec)
    if suffix == "fib":
        def gen(tail=tuple(tail)):
            yield from tail
            while True:
                yield 1
    elif suffix == "periodic":
        if not tail:
            raise PreconditionError("'periodic' needs at least one tail term")

        def gen(tail=tuple(tail)):
            while True:
                yield from tail
    else:  # e-pattern
        def gen(tail=tuple(tail)):
            yield from tail
            yield from _e_tail_from(len(tail) + 1)()
    return ContinuedFraction(a0, gen, name=spec)


def _resolve_cf(args) -> ContinuedFraction:
    if getattr(args, "cf", None):
        return parse_cf(args.cf)
    preset = diophantine.lookup_preset(args.preset)
    if preset.cf is None:
        raise PreconditionError(f"preset {preset.name} has no continued fraction form")
    return preset.cf.clone()


def _emit(payload: dict, out=None) -> None:
    out = out if out is not None else sys.stdout
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _csv_out(header: List[str], rows: List[List[str]], path: Optional[str]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    if path:
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_word(args, cfg: RunConfig) -> int:
    if args.word_cmd == "christoffel":
        w = words.christoffel(args.p, args.q, upper=args.upper)
        print(words.word_str(w))
    elif args.word_cmd == "central":
        print(words.word_str(words.central_word(args.p, args.q)))
    elif args.word_cmd == "mechanical":
        alpha = parse_fraction(args.alpha)
        rho = parse_fraction(args.rho)
        w = words.mechanical_prefix(alpha, rho, args.n, upper=args.upper)
        print(words.word_str(w))
    else:  # admissible
        s = args.digits
        if "(" in s:
            pre_s, per_s = s.rstrip(")").split("(", 1)
            w = words.PeriodicWord.make(words.parse_word(pre_s), words.parse_word(per_s))
        else:
            w = words.parse_word(s)
        _emit({"word": str(w) if isinstance(w, words.PeriodicWord) else words.word_str(w),
               "admissible": words.is_parry_admissible(w)})
    return EXIT_OK


def _delta_payload(value: delta.DeltaValue, digits: int) -> dict:
    lo, hi = value.strings(digits)
    if isinstance(value.word, words.PeriodicWord):
        word = str(value.word)
    else:
        word = words.word_str(value.word)
    return {"word": word, "nature": value.nature, "enclosure": [lo, hi]}


def _cmd_delta_eval(args, cfg: RunConfig) -> int:
    tol = cfg.tolerance
    if args.alpha is not None:
        alpha = parse_fraction(args.alpha)
        if args.right_limit:
            value = delta.delta_right_limit(alpha, tol)
        else:
            value = delta.delta_rational(alpha, tol)
        payload = {"slope": str(alpha), **_delta_payload(value, cfg.precision_digits)}
    else:
        cf = _resolve_cf(args)
        value = delta.delta_irrational(cf, tol)
        payload = {"slope_cf": cf.name or "cf", **_delta_payload(value, cfg.precision_digits)}
    _emit(payload)
    return EXIT_OK


def _cmd_delta_plot(args, cfg: RunConfig) -> int:
    rows = delta.plot_samples(parse_fraction(getattr(args, "from")),
                              parse_fraction(args.to), args.max_den, cfg.tolerance)
    _csv_out(delta.CSV_HEADER, [r.csv_fields(cfg.precision_digits) for r in rows], args.out)
    return EXIT_OK


def _cmd_cf(args, cfg: RunConfig) -> int:
    if args.cf_cmd == "expand":
        x = parse_fraction(args.alpha)
        qs = diophantine.cf_expand(x, args.n)
        _emit({"alpha": str(x), "quotients": qs})
    else:  # convergents
        cf = _resolve_cf(args)
        table = diophantine.convergents(cf, args.n, cfg.integer_bit_budget)
        rows = []
        for c in table:
            if isinstance(c.q, int) and isinstance(c.p, int):
                rows.append({"n": c.index, "p": str(c.p), "q": str(c.q)})
            else:
                rows.append({"n": c.index, "ln_q": list(diophantine.nat_ln_interval(c.q))})
        _emit({"cf": cf.name or "cf", "convergents": rows})
    return EXIT_OK


def _measure_payload(est: diophantine.MeasureEstimate) -> dict:
    return {"kind": est.kind,
            "running": [[n, lo, hi] for (n, lo, hi) in est.running],
            "headline": list(est.headline),
            "caveat": est.caveat,
            "note": est.window_note}


def _cmd_measure(args, cfg: RunConfig) -> int:
    if args.preset and not args.cf:
        preset = diophantine.lookup_preset(args.preset)
    else:
        preset = diophantine.Preset("cf", cf=parse_cf(args.cf))
    est = preset.mu_estimate(args.N) if args.measure_cmd == "mu" \
        else preset.theta_estimate(args.N)
    _emit({"target": preset.name, "N": args.N, **_measure_payload(est)})
    return EXIT_OK


def _cmd_classify(args, cfg: RunConfig) -> int:
    if args.preset and not args.cf:
        target = diophantine.lookup_preset(args.preset)
    else:
        target = diophantine.Preset("cf", cf=parse_cf(args.cf))
    c = diophantine.classify(target, args.N)
    payload = {"target": target.name, "N": args.N, "label": c.label, "caveat": c.caveat,
               "theta": _measure_payload(c.theta) if c.theta else None,
               "mu": _measure_payload(c.mu) if c.mu else None,
               "theta_enclosure": list(c.theta_enclosure) if c.theta_enclosure else None}
    _emit(payload)
    return EXIT_OK


def _trace_out(trace: analysis.QuotientTrace, cfg: RunConfig, out_path: Optional[str]) -> None:
    if cfg.output == "csv":
        header = ["k", "alpha_k_num", "alpha_k_den", "quotient_lo", "quotient_hi"]
        _csv_out(header, trace.csv_rows(cfg.precision_digits), out_path)
    else:
        payload = json.loads(trace.to_json(cfg.precision_digits))
        _emit(payload)


def _cmd_probe(args, cfg: RunConfig) -> int:
    tol = cfg.tolerance
    if args.probe_cmd == "left":
        trace = analysis.rational_left_quotients(parse_fraction(args.alpha), args.K, tol)
    elif args.probe_cmd == "right":
        trace = analysis.rational_right_quotients(parse_fraction(args.alpha), args.K, tol)
    elif args.probe_cmd == "zero":
        trace = analysis.zero_plus_quotients(args.K, tol)
    elif args.probe_cmd == "irrational":
        trace = analysis.irrational_probe(_resolve_cf(args), args.I, tol)
    else:  # lowerbound
        rep = analysis.lowerbound_check(parse_fraction(args.alpha),
                                        parse_fraction(args.alpha_n), tol)
        d = cfg.precision_digits
        _emit({"N": rep.N, "mirrored": rep.mirrored, "holds": rep.holds,
               "lhs": list(enclosure_strings(rep.lhs, d)),
               "rhs": list(enclosure_strings(rep.rhs, d))})
        return EXIT_OK
    _trace_out(trace, cfg, getattr(args, "out", None))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument grammar
# ---------------------------------------------------------------------------


def _add_global_opts(p: argparse.ArgumentParser, top: bool = False) -> None:
    """Global options, accepted both before and after the subcommand.

    On subcommand parsers the defaults are SUPPRESS so that a flag given
    before the subcommand is not clobbered by a default afterwards.
    """
    d = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    p.add_argument("--tol", type=_tolerance_arg, default=d(None),
                   help="enclosure tolerance as a decimal or P/Q (default 1e-12)")
    # A string default goes through _digits_arg too, so a bad env value is a
    # usage error.
    p.add_argument("--digits", type=_digits_arg,
                   default=d(os.environ.get(ENV_DIGITS, "30")),
                   help=f"printed precision digits (env {ENV_DIGITS})")
    p.add_argument("--output", choices=["json", "csv"], default=d("json"))
    p.add_argument("--bit-budget", type=int, default=d(diophantine.DEFAULT_BIT_BUDGET))
    p.add_argument("--seed", type=int, default=d(0))


def build_parser() -> _Parser:
    parser = _Parser(prog="staircase",
                     description="Certified staircase-of-bases computations.")
    _add_global_opts(parser, top=True)
    sub = parser.add_subparsers(dest="cmd", required=True)
    leaves: List[argparse.ArgumentParser] = []

    def leaf(group, name):
        p = group.add_parser(name)
        leaves.append(p)
        return p

    word = sub.add_parser("word").add_subparsers(dest="word_cmd", required=True)
    for name in ("christoffel", "central"):
        p = leaf(word, name)
        p.add_argument("p", type=int)
        p.add_argument("q", type=int)
        if name == "christoffel":
            p.add_argument("--upper", action="store_true")
    p = leaf(word, "mechanical")
    p.add_argument("alpha")
    p.add_argument("rho")
    p.add_argument("n", type=int)
    p.add_argument("--upper", action="store_true")
    p = leaf(word, "admissible")
    p.add_argument("digits")

    dlt = sub.add_parser("delta").add_subparsers(dest="delta_cmd", required=True)
    p = leaf(dlt, "eval")
    p.add_argument("--alpha")
    p.add_argument("--cf")
    p.add_argument("--preset")
    p.add_argument("--right-limit", action="store_true")
    p = leaf(dlt, "plot")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--out", default=None)

    cf = sub.add_parser("cf").add_subparsers(dest="cf_cmd", required=True)
    p = leaf(cf, "expand")
    p.add_argument("--alpha", required=True)
    p.add_argument("-N", dest="n", type=int, default=20)
    p = leaf(cf, "convergents")
    p.add_argument("--cf")
    p.add_argument("--preset")
    p.add_argument("-N", dest="n", type=int, default=10)

    meas = sub.add_parser("measure").add_subparsers(dest="measure_cmd", required=True)
    for name in ("mu", "theta"):
        p = leaf(meas, name)
        p.add_argument("--cf")
        p.add_argument("--preset")
        p.add_argument("-N", type=int, default=8)

    p = sub.add_parser("classify")
    leaves.append(p)
    p.add_argument("--cf")
    p.add_argument("--preset")
    p.add_argument("-N", type=int, default=8)

    probe = sub.add_parser("probe").add_subparsers(dest="probe_cmd", required=True)
    for name in ("left", "right"):
        p = leaf(probe, name)
        p.add_argument("--alpha", required=True)
        p.add_argument("-K", type=int, default=6)
        p.add_argument("--out", default=None)
    p = leaf(probe, "zero")
    p.add_argument("-K", type=int, default=8)
    p.add_argument("--out", default=None)
    p = leaf(probe, "irrational")
    p.add_argument("--cf")
    p.add_argument("--preset")
    p.add_argument("-I", type=int, default=8)
    p.add_argument("--out", default=None)
    p = leaf(probe, "lowerbound")
    p.add_argument("--alpha", required=True)
    p.add_argument("--alpha-n", dest="alpha_n", required=True)

    for p in leaves:
        _add_global_opts(p)
    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    if args.tol is not None:
        cfg.tolerance = args.tol
    if cfg.tolerance <= 0:
        raise PreconditionError("tolerance must be positive")
    cfg.precision_digits = args.digits
    cfg.output = args.output
    cfg.integer_bit_budget = args.bit_budget
    cfg.seed = args.seed
    return cfg


_HANDLERS = {
    "word": _cmd_word,
    "cf": _cmd_cf,
    "measure": _cmd_measure,
    "classify": _cmd_classify,
    "probe": _cmd_probe,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from(args)
        if args.cmd == "delta":
            handler = _cmd_delta_eval if args.delta_cmd == "eval" else _cmd_delta_plot
        else:
            handler = _HANDLERS[args.cmd]
        if args.cmd in ("measure", "classify") and not (getattr(args, "cf", None)
                                                        or getattr(args, "preset", None)):
            raise PreconditionError("need --cf or --preset")
        if args.cmd == "delta" and args.delta_cmd == "eval" and not (
                args.alpha or args.cf or args.preset):
            raise PreconditionError("need --alpha, --cf, or --preset")
        return handler(args, cfg)
    except SystemExit:
        raise
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CertificationError as exc:
        print(f"error: certification: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
