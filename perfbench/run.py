"""The staircase benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload runs in a fresh interpreter (``worker.py``), which measures
set-up time in further fresh interpreters (``setup_probe.py``) started
between its timed passes, so that they sample the whole run.  The bounded
times are scaled to a fixed host speed by a reference loop timed between the
tasks (GLOSSARY.md, "Steadiness").  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
and the deterministic counters are checked against a second fresh
interpreter running the same seed.  Run from anywhere; the benchmark finds
the package under ``src/`` next to its own directory.  See GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import DETERMINISTIC, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170  # the whole command, whatever its subprocesses do
END_TO_END = (("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _python(args):
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - STARTED))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def worker(workload: str, seed: int, seconds: float, trace: int, once: bool = False) -> dict:
    args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if once:
        args.append("--once")
    return json.loads(_python(args))


def environment() -> str:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref[:12]
    absent = [m for m in ("gmpy2", "flint") if importlib.util.find_spec(m) is None]
    present = [m for m in ("gmpy2", "flint") if m not in absent]
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, commit {commit}, "
            f"absent: {', '.join(absent) or 'none'}, present: {', '.join(present) or 'none'}")


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _nearest_rank(xs, pct):
    xs = sorted(xs)
    k = max(1, -(-len(xs) * pct // 100))
    return xs[k - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; prints its report and returns the result object."""
    res = worker(workload, seed, seconds, trace)
    failed, attempted = res["failed"], res["attempted"]
    passes = res["pass_s"]
    lat = res["latencies_ms"]
    lo, hi = _quartiles(passes)
    print(f"workload {workload}, seed {seed}: {res['passes']} passes x {res['tasks_per_pass']} "
          f"tasks; closed loop, 1 client, 1 process, no threads")
    speed = res["host_speed"]
    print(f"  wall_s       {res['wall_s']:.4f} s    sum over tasks of each task's median latency "
          f"over {len(passes)} passes")
    print(f"               pass times: median {statistics.median(passes):.4f} s "
          f"(quartiles {lo:.4f} .. {hi:.4f})")
    print(f"  host speed   {speed:.4f}       reference loop 10 ms / its median time in "
          f"{res['references']} samples")
    print(f"  wall_norm_s  {res['wall_norm_s']:.4f} s    wall_s with each latency scaled to host "
          f"speed 1 by the reference time before it")
    print(f"  task_p50_ms  {statistics.median(lat):.3f} ms   task_p90_ms {_nearest_rank(lat, 90):.3f} ms"
          f"   ({len(lat)} task samples)")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.4g}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")
    correct = failed == 0
    if not trace:
        setup = statistics.median(res["setup_s"])
        print(f"  setup_s      {setup * speed:.4f} s    at host speed 1; {setup:.4f} s measured, "
              f"median of {len(res['setup_s'])} fresh interpreters between the passes "
              f"(import staircase + staircase.cli + input generation)")
        metrics = {
            "wall_norm_s": res["wall_norm_s"],
            "setup_s": setup * speed,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    layers = res["per_layer"]
    print(f"per-layer metrics, traced run: counts from the first of {res['traced_passes']} traced "
          f"passes, times are self times (span minus child spans), median over traced passes;")
    print("  one thread and a closed loop, so no span waits: there is no waiting time")
    for name, unit in METRICS:
        v = layers[name]
        print(f"  {name:32s} {v:.6g} {unit}" if isinstance(v, float) else f"  {name:32s} {v} {unit}")
    if res["missing_wrap_points"]:
        print(f"  wrap points not found: {', '.join(res['missing_wrap_points'])}")
    print(f"  {res['spans']} spans written to {res['spans_file']}")

    again = worker(workload, seed, seconds, trace, once=True)
    same = again["counters"] == res["counters"] and res["counters_repeat_in_run"]
    listed = ", ".join(f"{k}={res['counters'][k]}" for k in DETERMINISTIC)
    print(f"determinism: {listed}: " + (
        "repeat exactly in every traced pass and in a second fresh interpreter" if same else
        f"DIFFER (second interpreter: {again['counters']}, "
        f"same within run: {res['counters_repeat_in_run']})"))
    failed += again["failed"]
    attempted += again["attempted"]
    units = dict(METRICS)
    return {"correct": correct and same and again["failed"] == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": layers[k], "unit": units[k]} for k, _ in METRICS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "staircase" / "cli.py").is_file():
        print(f"error: no staircase package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    print(f"env: {environment()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
