"""Run-time tracing of ``staircase`` layers for the benchmark's traced run.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces module
attributes and class methods with thin wrappers (every module binding of a
function is replaced, so ``from .intervals import eval_poly`` in ``beta`` is
traced too) and :meth:`Tracer.uninstall` puts the originals back, so untraced
passes run the original code.

Each call of a wrapped function records one span: its name, start, end, the
span that was open when it started, and the current task id.  Spans stay in
memory and are written out at the end of the run.  A layer's self time is the
time its spans cover minus the time covered by their child spans.  The load
is one client, one process and one thread, so no span ever waits on another:
there is no waiting time to report.

A few wrappers also record counts at the same boundary (bisection bits of a
root refinement, series truncation lengths, ...).  Wrap points that no
longer exist are skipped and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, attribute path, layer).  The span name is "module.attribute".
WRAP_POINTS = [
    ("intervals", "eval_poly", "intervals.eval_poly"),
    ("intervals", "decimal_str", "intervals.print"),
    ("intervals", "enclosure_strings", "intervals.print"),
    ("beta", "RefinableRoot.refine", "beta.root"),
    ("beta", "RefinableRoot.refine_steps", "beta.root"),
    ("beta", "beta_root_finite", "beta.handle"),
    ("beta", "beta_root_periodic", "beta.handle"),
    ("beta", "BetaHandle.from_finite_word", "beta.handle"),
    ("beta", "BetaHandle.from_periodic_word", "beta.handle"),
    ("beta", "BetaHandle.from_integer", "beta.handle"),
    ("beta", "near_one_root", "beta.handle"),
    ("beta", "greedy_digits", "beta.greedy"),
    ("beta", "extremal_orbit_check", "beta.greedy"),
    ("beta", "_decide_floor", "beta.greedy"),
    ("beta", "_band_verdict", "beta.greedy"),
    ("beta", "SeriesRoot.refine", "beta.series"),
    ("beta", "positive_root_series", "beta.series"),
    ("delta", "delta_rational", "delta"),
    ("delta", "delta_right_limit", "delta"),
    ("delta", "delta_irrational", "delta"),
    ("delta", "right_limit_word", "delta"),
    ("delta", "jump", "delta"),
    ("delta", "JumpValue.certify_positive", "delta"),
    ("delta", "DeltaValue.refine", "delta"),
    ("delta", "plot_samples", "delta"),
    ("delta", "lipschitz_order", "delta"),
    ("delta", "StaircaseDigitStream.digit", "delta"),
    ("words", "mechanical_prefix", "words"),
    ("words", "christoffel", "words"),
    ("words", "central_word", "words"),
    ("words", "bzb_word", "words"),
    ("words", "to_alphabet", "words"),
    ("words", "characteristic_prefix", "words"),
    ("words", "PeriodicWord.make", "words"),
    ("words", "PeriodicWord.prefix", "words"),
    ("words", "PeriodicWord.shift", "words"),
    ("words", "lex_compare", "words"),
    ("words", "is_parry_admissible", "words"),
    ("words", "common_prefix_radius", "words"),
    ("words", "word_str", "words"),
    ("words", "parse_word", "words"),
    ("analysis", "rational_left_quotients", "analysis"),
    ("analysis", "rational_right_quotients", "analysis"),
    ("analysis", "zero_plus_quotients", "analysis"),
    ("analysis", "irrational_probe", "analysis"),
    ("analysis", "lowerbound_check", "analysis"),
    ("analysis", "QuotientTrace.certify", "analysis"),
    ("analysis", "QuotientTrace.to_json", "analysis"),
    ("analysis", "QuotientTrace.csv_rows", "analysis"),
    ("analysis", "_resolve_quotient", "analysis"),
    ("analysis", "_ladder_offset", "analysis"),
    ("diophantine", "ContinuedFraction.term", "diophantine"),
    ("diophantine", "ContinuedFraction.exact_convergent", "diophantine"),
    ("diophantine", "ContinuedFraction.value_enclosure", "diophantine"),
    ("diophantine", "ContinuedFraction.floors_upto", "diophantine"),
    ("diophantine", "convergents", "diophantine"),
    ("diophantine", "cf_expand", "diophantine"),
    ("diophantine", "mu_estimate", "diophantine"),
    ("diophantine", "theta_estimate", "diophantine"),
    ("diophantine", "theta_from_samples", "diophantine"),
    ("diophantine", "mu_from_samples", "diophantine"),
    ("diophantine", "classify", "diophantine"),
    ("diophantine", "best_approx_check", "diophantine"),
    ("diophantine", "lookup_preset", "diophantine"),
    ("diophantine", "Preset.samples", "diophantine"),
    ("diophantine", "Preset.theta_estimate", "diophantine"),
    ("diophantine", "Preset.mu_estimate", "diophantine"),
    ("cli", "main", "cli"),
]

# Per-layer metric names and units, in the order they are printed.
METRICS = [
    ("intervals.eval_poly.calls", "count"),
    ("intervals.eval_poly.self_s", "s"),
    ("intervals.eval_poly.per_digit", "ratio"),
    ("intervals.print.self_s", "s"),
    ("beta.root.refine.calls", "count"),
    ("beta.root.bits", "count"),
    ("beta.root.self_s", "s"),
    ("beta.root.endpoint_bits_max", "count"),
    ("beta.handle.calls", "count"),
    ("beta.handle.self_s", "s"),
    ("beta.greedy.digits", "count"),
    ("beta.greedy.self_s", "s"),
    ("beta.series.refine.calls", "count"),
    ("beta.series.self_s", "s"),
    ("beta.series.truncation_max", "count"),
    ("beta.series.rebuilds", "count"),
    ("delta.values", "count"),
    ("delta.refine.calls", "count"),
    ("delta.plot.rows", "count"),
    ("delta.self_s", "s"),
    ("words.calls", "count"),
    ("words.self_s", "s"),
    ("analysis.probes", "count"),
    ("analysis.certify.calls", "count"),
    ("analysis.self_s", "s"),
    ("diophantine.calls", "count"),
    ("diophantine.self_s", "s"),
    ("diophantine.floors_upto.n_max", "count"),
    ("cli.main.self_s", "s"),
    ("cli.startup_s", "s"),
    ("trace.overhead", "ratio"),
]

# Counters that must repeat exactly across runs with the same seed.
DETERMINISTIC = ("beta.root.bits", "intervals.eval_poly.calls", "delta.refine.calls",
                 "beta.series.truncation_max", "beta.greedy.digits")


def _width(root) -> Fraction:
    """Bracket width of a RefinableRoot, ignoring an exact hit."""
    if hasattr(root, "lo") and hasattr(root, "hi"):
        return root.hi - root.lo
    return root.enclosure.width


def _halvings(before: Fraction, after: Fraction) -> int:
    if after <= 0 or after >= before:
        return 0
    ratio = before / after
    return (ratio.numerator // ratio.denominator).bit_length() - 1


def _root_before(args):
    root = args[0]
    return _width(root), getattr(root, "exact", None)


def _root_after(tracer, args, result, state):
    root = args[0]
    before, exact_before = state
    bits = _halvings(before, _width(root))
    if exact_before is None and getattr(root, "exact", None) is not None:
        bits += 1  # the sign test that hit the root exactly
    tracer.counts["beta.root.bits"] += bits
    enc = root.enclosure
    size = max(enc.lo.numerator.bit_length(), enc.lo.denominator.bit_length(),
               enc.hi.numerator.bit_length(), enc.hi.denominator.bit_length())
    tracer.maxima["beta.root.endpoint_bits_max"] = max(
        tracer.maxima["beta.root.endpoint_bits_max"], size)


def _series_before(args):
    return len(getattr(args[0], "history", ()))


def _series_after(tracer, args, result, state):
    history = getattr(args[0], "history", ())
    tracer.counts["beta.series.rebuilds"] += len(history) - state
    if history:
        tracer.maxima["beta.series.truncation_max"] = max(
            tracer.maxima["beta.series.truncation_max"], max(m for m, _ in history))


def _floors_after(tracer, args, result, state):
    tracer.maxima["diophantine.floors_upto.n_max"] = max(
        tracer.maxima["diophantine.floors_upto.n_max"], len(result) - 1)


def _plot_after(tracer, args, result, state):
    tracer.counts["delta.plot.rows"] += len(result)


def _probes_after(tracer, args, result, state):
    tracer.counts["analysis.probes"] += len(result.points)


def _lowerbound_after(tracer, args, result, state):
    tracer.counts["analysis.probes"] += 1


HOOKS = {
    "beta.RefinableRoot.refine": (_root_before, _root_after),
    "beta.RefinableRoot.refine_steps": (_root_before, _root_after),
    "beta.SeriesRoot.refine": (_series_before, _series_after),
    "diophantine.ContinuedFraction.floors_upto": (None, _floors_after),
    "delta.plot_samples": (None, _plot_after),
    "analysis.rational_left_quotients": (None, _probes_after),
    "analysis.rational_right_quotients": (None, _probes_after),
    "analysis.zero_plus_quotients": (None, _probes_after),
    "analysis.irrational_probe": (None, _probes_after),
    "analysis.lowerbound_check": (None, _lowerbound_after),
}


class Tracer:
    """Installs the wrappers and keeps the spans and boundary counts."""

    def __init__(self):
        self.spans = []  # [name, parent index, task id, start ns, end ns]
        self.stack = []
        self.task = None
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self.layer_of = {}
        self.missing = []
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = sys.modules["staircase"]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "staircase" or n.startswith("staircase."))]
        self.missing = []
        for mod_name, path, layer in WRAP_POINTS:
            name = f"{mod_name}.{path}"
            self.layer_of[name] = layer
            mod = getattr(pkg, mod_name, None)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            for m in modules:  # every module binding of the function
                if vars(m).get(attr) is raw:
                    self._restore.append((m, attr, raw))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.task, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args) if before else None
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after:
                after(tracer, args, result, state)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def begin(self) -> int:
        """Start a pass: clear the counters; spans are kept.  Returns the
        index of the pass's first span, for :meth:`metrics`."""
        self.counts.clear()
        self.maxima.clear()
        return len(self.spans)

    def metrics(self, first: int = 0) -> dict:
        """Per-layer counts and self times of the spans from index ``first``
        on (one pass; the stack is empty between passes)."""
        spans = self.spans
        child_ns = Counter()
        for name, parent, _, start, end in spans[first:]:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = Counter()
        calls = Counter()
        entries = Counter()
        under_floor = 0
        for i in range(first, len(spans)):
            name, parent, _, start, end = spans[i]
            layer = self.layer_of[name]
            self_ns[layer] += end - start - child_ns[i]
            calls[name] += 1
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name is None or self.layer_of[parent_name] != layer:
                entries[layer] += 1
            if name == "intervals.eval_poly" and parent_name == "beta._decide_floor":
                under_floor += 1

        def s(layer):
            return self_ns[layer] / 1e9

        digits = calls["beta._decide_floor"]
        return {
            "intervals.eval_poly.calls": calls["intervals.eval_poly"],
            "intervals.eval_poly.self_s": s("intervals.eval_poly"),
            "intervals.eval_poly.per_digit": under_floor / digits if digits else 0.0,
            "intervals.print.self_s": s("intervals.print"),
            "beta.root.refine.calls": calls["beta.RefinableRoot.refine"]
            + calls["beta.RefinableRoot.refine_steps"],
            "beta.root.bits": self.counts["beta.root.bits"],
            "beta.root.self_s": s("beta.root"),
            "beta.root.endpoint_bits_max": self.maxima["beta.root.endpoint_bits_max"],
            "beta.handle.calls": entries["beta.handle"],
            "beta.handle.self_s": s("beta.handle"),
            "beta.greedy.digits": digits,
            "beta.greedy.self_s": s("beta.greedy"),
            "beta.series.refine.calls": calls["beta.SeriesRoot.refine"],
            "beta.series.self_s": s("beta.series"),
            "beta.series.truncation_max": self.maxima["beta.series.truncation_max"],
            "beta.series.rebuilds": self.counts["beta.series.rebuilds"],
            "delta.values": calls["delta.delta_rational"] + calls["delta.delta_right_limit"]
            + calls["delta.delta_irrational"],
            "delta.refine.calls": calls["delta.DeltaValue.refine"],
            "delta.plot.rows": self.counts["delta.plot.rows"],
            "delta.self_s": s("delta"),
            "words.calls": entries["words"],
            "words.self_s": s("words"),
            "analysis.probes": self.counts["analysis.probes"],
            "analysis.certify.calls": calls["analysis.QuotientTrace.certify"],
            "analysis.self_s": s("analysis"),
            "diophantine.calls": entries["diophantine"],
            "diophantine.self_s": s("diophantine"),
            "diophantine.floors_upto.n_max": self.maxima["diophantine.floors_upto.n_max"],
            "cli.main.self_s": s("cli"),
        }

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, task, name, start, end."""
        with open(path, "w") as fh:
            fh.write("index\tparent\ttask\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, task, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{task}\t{name}\t{start}\t{end}\n")
