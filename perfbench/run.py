"""Benchmark driver for locmodel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/``.  Every round of a workload runs in a fresh single-threaded
worker process (perfbench/worker.py).  With ``--trace 0`` the driver
starts three set-up probes, then whole rounds while the next one is
expected to end within S seconds (at least one), and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one
traced round, whatever S is, and reports the per-layer metrics and the
tracing overhead; the spans go to .perfbench_out/.  The last line of
standard output is the JSON result.  Exit 0 on a finished run, 2 when
the checkout or a worker is broken (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170  # the whole run, so that it ends within 180 s


class WorkerError(Exception):
    pass


def spawn(args, extra, deadline):
    """Run one worker to completion; return its result with its set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # A fixed hash seed fixes set iteration order, and with it the work done.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - start)
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup"] = (result["ready"] - start) * result["setup_factor"]
    result["elapsed"] = time.monotonic() - start
    return result


def tally(rounds):
    """(attempted, failed, problems) over the cases of all rounds."""
    cases = [c for r in rounds for c in r["cases"]]
    problems = [f"{c['argv']}: {p}" for c in cases for p in c["problems"]]
    return len(cases), sum(1 for c in cases if c["exit"] != 0), problems


def timed_run(args, deadline):
    setups = [spawn(args, ["--setup-only"], deadline)["setup"] for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(spawn(args, [], deadline))
        typical = statistics.median(r["elapsed"] for r in rounds)
        if time.monotonic() - start + typical > args.seconds:
            break
    per_case = [statistics.median(times) for times in zip(*([c["seconds"] for c in r["cases"]] for r in rounds))]
    metrics = {
        "setup_s": (statistics.median(setups + [r["setup"] for r in rounds]), "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "case_s_p50": (statistics.median(per_case), "s"),
        "case_s_max": (max(per_case), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }
    return rounds, metrics, []


def traced_run(args, deadline):
    plain = spawn(args, [], deadline)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    traced = spawn(args, ["--trace-out", str(path)], deadline)
    stats, counters = traced["stats"], traced["counters"]
    metrics = tracing.layer_metrics(stats, counters)
    metrics["trace.overhead"] = (traced["wall"] / plain["wall"], "ratio")
    metrics["trace.self_sum_s"] = (sum(s[2] for s in stats.values()), "s")
    problems = []
    if metrics["trace.self_sum_s"][0] > traced["raw_wall"]:
        problems.append(f"layer self times sum to {metrics['trace.self_sum_s'][0]} s > traced wall {traced['raw_wall']} s")
    return [plain, traced], metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "locmodel" / "cli.py").is_file():
        print(f"perfbench: no locmodel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = [f"oracle self-check: {p}" for p in oracles.self_check()]
    try:
        rounds, metrics, run_problems = (traced_run if args.trace else timed_run)(args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted, failed, case_problems = tally(rounds)
    problems += run_problems + case_problems
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    raw = ", ".join(f"{r['raw_wall']:.3f}" for r in rounds)
    print(f"{args.workload} rounds = {len(rounds)} (unscaled wall s: {raw}), attempted = {attempted}, failed = {failed}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
