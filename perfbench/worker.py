"""One workload in one fresh interpreter: timed passes, checks, tracing.

Started by ``run.py``; prints one JSON object as its last line.  The load is
a closed loop with one client: a task starts only when the previous one has
returned, in one process with no threads.  Library tasks call the package
directly; command lines call ``staircase.cli.main`` in this process with
stdout and stderr captured.  Between tasks, at most every
REFERENCE_EVERY_S, a reference loop of the benchmark's own arithmetic is
timed (outside the tasks' latencies), so that each latency can be scaled to
a fixed host speed.

Modes:
  (default)  passes of the whole task list for ``--seconds`` (at least
             MIN_PASSES), with set-up probes (fresh interpreters) spread
             between the passes; with ``--trace 1`` untraced and traced
             passes alternate instead, and each command line is also run
             once per round as a subprocess to measure interpreter start-up.
  --once     one traced pass, for the cross-run determinism check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import staircase.cli  # noqa: E402,F401  (every layer, so each can be traced)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import DETERMINISTIC, Tracer  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 11
SUBPROCESS_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5

# The host's speed drifts by up to 1.7x for minutes at a time, for all code
# in the VM alike, so runs minutes apart differ by more than any in-run
# statistic removes.  The reference loop does the same kind of work as the
# program (Fraction and big-integer arithmetic in the interpreter), is part
# of the benchmark and never changes; its latest time before a task measures
# the host's speed while the task runs.
REFERENCE_WORD = checks.staircase_word(Fraction(17, 37))
REFERENCE_STEPS = 160
REFERENCE_S = 0.01  # the host speed scaled to: the loop takes 10 ms
REFERENCE_EVERY_S = 0.15


def reference() -> float:
    """Time of the reference loop: bisect the root of the staircase series
    of 17/37 for REFERENCE_STEPS halvings with ``checks.finite_sign``."""
    start = time.perf_counter()
    lo, hi = Fraction(1), Fraction(2)
    for _ in range(REFERENCE_STEPS):
        mid = (lo + hi) / 2
        if checks.finite_sign(REFERENCE_WORD, mid) >= 0:
            lo = mid
        else:
            hi = mid
    return time.perf_counter() - start


class Runner:
    """Runs passes over a workload's task list and checks every output."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.tasks = workloads.build(name, seed)
        self.commands = [t for t in self.tasks if isinstance(t, workloads.Command)]
        self.workdir = OUT / f"cli-{os.getpid()}"
        if self.commands:
            self.workdir.mkdir(parents=True, exist_ok=True)
        os.environ.pop("STAIRCASE_DIGITS", None)  # the checks expect the default 30 digits
        self.attempted = 0
        self.failures = []
        self.references = []
        self.last_reference = 0.0

    def close(self):
        if self.workdir.is_dir():
            for f in self.workdir.glob("*"):
                f.unlink()
            self.workdir.rmdir()

    # -- one task ------------------------------------------------------------

    def _command(self, cmd):
        """Call ``staircase.cli.main`` with stdout and stderr captured;
        returns (exit code, stdout, stderr)."""
        cli = sys.modules["staircase.cli"]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        return code, out.getvalue(), err.getvalue()

    def subprocess_latency(self, cmd) -> float:
        """One command line as ``python -m staircase.cli``: its latency."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "staircase.cli", *cmd.argv],
                              cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        latency = time.perf_counter() - start
        if proc.returncode != 0:
            self.failures.append(f"{cmd.label} (subprocess): exit code {proc.returncode}")
        return latency

    def _check(self, task, output):
        self.attempted += 1
        if isinstance(output, Exception):  # a raised error is a failed task
            self.failures.append(f"{task.label}: raised {type(output).__name__}: {output}")
            return
        try:
            if isinstance(task, workloads.Command):
                code, out, err = output
                if task.out_file:
                    out = (self.workdir / task.out_file).read_text()
                task.check(code, out, err)
            else:
                task.check(output)
        except Exception as exc:  # any wrong output counts as a failure
            self.failures.append(f"{task.label}: {type(exc).__name__}: {exc}")

    # -- one pass ------------------------------------------------------------

    def run_pass(self, tracer: Tracer = None):
        """Run every task once, then check every output; returns the
        per-task latencies in seconds, as measured and scaled to host speed 1
        (times REFERENCE_S over the latest reference time)."""
        latencies = []
        scaled = []
        outputs = []
        for i, task in enumerate(self.tasks):
            if tracer is not None:
                tracer.task = i
            if time.perf_counter() - self.last_reference >= REFERENCE_EVERY_S:
                self.references.append(reference())
                self.last_reference = time.perf_counter()
            command = isinstance(task, workloads.Command)
            if command and task.out_file:
                (self.workdir / task.out_file).unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                out = self._command(task) if command else task.run()
            except Exception as exc:
                out = exc
            latencies.append(time.perf_counter() - start)
            scaled.append(latencies[-1] * REFERENCE_S / self.references[-1])
            if command and task.out_file:  # the file is per task: check it now
                self._check(task, out)
            else:
                outputs.append((task, out))
        for task, out in outputs:
            self._check(task, out)
        return latencies, scaled

    def warm_up(self):
        """Untimed first calls, so lazy set-up (imports done on first use,
        the page cache) is not timed: the first task and every command."""
        first = self.tasks[0]
        if not isinstance(first, workloads.Command):
            first.run()
        for cmd in self.commands:
            self._command(cmd)
        for _ in range(3):
            reference()


def setup_probe(runner: Runner) -> float:
    """Set-up time of one fresh interpreter (see ``setup_probe.py``)."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), runner.name,
                           str(runner.seed)], cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Passes for ``seconds``.  ``wall_s`` is the sum over the task list of
    each task's median latency over the passes: one pass's time, robust to a
    slow stretch of the host in any part of the run.  ``wall_norm_s`` is the
    same sum of the scaled latencies.  ``host_speed`` is REFERENCE_S over the
    run's median reference time."""
    runner.warm_up()
    cap = 3 * seconds  # stop early rather than overrun when the code is slow
    tracer = Tracer() if trace else None
    passes, scaled, setups, traced_walls, startups, layers = [], [], [], [], [], []
    probes_per_round = 1
    start = time.perf_counter()
    while True:
        latencies, scaled_latencies = runner.run_pass()
        passes.append(latencies)
        scaled.append(scaled_latencies)
        if trace:
            if runner.commands:
                sub = sum(runner.subprocess_latency(c) for c in runner.commands)
                inproc = sum(lat for lat, t in zip(passes[-1], runner.tasks)
                             if isinstance(t, workloads.Command))
                startups.append((sub - inproc) / len(runner.commands))
            first = tracer.begin()
            tracer.install()
            try:
                traced_walls.append(sum(runner.run_pass(tracer)[0]))
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics(first))
        else:
            if len(passes) == 1:  # spread the probes over the rounds the run will hold
                rounds = seconds / (time.perf_counter() - start)
                probes_per_round = max(1, math.ceil(SETUP_PROBES / max(1.0, rounds)))
            setups.extend(setup_probe(runner) for _ in range(probes_per_round))
        elapsed = time.perf_counter() - start
        # start another round only if it should end within the run time
        next_end = elapsed + elapsed / len(passes)
        if next_end > cap or (len(passes) >= MIN_PASSES and next_end > seconds):
            break
    def pass_time(latencies):  # each task at its median over the passes
        return sum(median(p[i] for p in latencies) for i in range(len(runner.tasks)))

    result = {
        "passes": len(passes),
        "tasks_per_pass": len(runner.tasks),
        "wall_s": pass_time(passes),
        "wall_norm_s": pass_time(scaled),
        "pass_s": [sum(p) for p in passes],
        "latencies_ms": [x * 1000 for p in passes for x in p],
        "setup_s": setups,
        "host_speed": REFERENCE_S / median(runner.references),
        "references": len(runner.references),
        "attempted": runner.attempted,
        "failures": runner.failures[:MAX_REPORTED_FAILURES],
        "failed": len(runner.failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result.update(_layer_summary(layers, result["pass_s"], traced_walls, startups))
        result["missing_wrap_points"] = tracer.missing
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{runner.name}-{os.getpid()}.tsv"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    return result


def _layer_summary(layers, walls, traced_walls, startups) -> dict:
    """Counts from the first traced pass (they must repeat in every traced
    pass), times as medians over the traced passes."""
    first = layers[0]
    per_layer = {}
    for key, value in first.items():
        if key.endswith("_s"):
            per_layer[key] = median([m[key] for m in layers])
        else:
            per_layer[key] = value
    per_layer["cli.startup_s"] = median(startups) if startups else 0.0
    per_layer["trace.overhead"] = median(traced_walls) / median(walls)
    repeat = all(m[k] == first[k] for m in layers for k in DETERMINISTIC)
    return {"per_layer": per_layer, "traced_passes": len(layers),
            "counters_repeat_in_run": repeat,
            "counters": {k: first[k] for k in DETERMINISTIC}}


def once(runner: Runner) -> dict:
    """One traced pass: the deterministic counters only."""
    tracer = Tracer()
    first = tracer.begin()
    tracer.install()
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    m = tracer.metrics(first)
    return {"counters": {k: m[k] for k in DETERMINISTIC},
            "attempted": runner.attempted, "failed": len(runner.failures),
            "failures": runner.failures[:MAX_REPORTED_FAILURES]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--once", action="store_true")
    args = ap.parse_args(argv)
    runner = Runner(args.workload, args.seed)
    try:
        if args.once:
            result = once(runner)
        else:
            result = measure(runner, args.seconds, bool(args.trace))
    finally:
        runner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
