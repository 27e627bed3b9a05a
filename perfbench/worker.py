"""One round of a workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--trace-out PATH]

Imports locmodel, builds the workload's cases, runs each through
``locmodel.cli.main([...], stream=...)`` with ``--format json`` and
checks every report against the oracles.  The last line of standard
output is one JSON object: the monotonic time at which the first case
could start and the machine-speed factor then, each case's time, exit
code and problems, the round's wall time and the process's peak resident
memory.  Times are scaled to the nominal machine speed (see speed.py),
raw ones are kept alongside.  With ``--trace-out`` the layers are traced
and the spans are written to PATH after the round.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from locmodel import cli  # noqa: E402


def run_case(case):
    """Run one case; return (start, end, exit code, problems)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main([*case["argv"], "--format", "json"], stream=out)
    except Exception:  # a crash is a failed case, and the round goes on
        return start, time.perf_counter(), 1, [traceback.format_exc()]
    end = time.perf_counter()
    text = out.getvalue()
    if not text:
        return start, end, code, [f"exit {code} without a report"]
    report = json.loads(text)
    problems = oracles.CHECKS[report["case"]](case, report)
    fault = case.get("known_fault")
    if code != 0 and fault == workloads.SYMPLECTIC_IWAHORI_FAULT:
        if report["totals"].get("maximal_classes", 1) < 2:
            problems.append("failed, but not for the single-maximal-class requirement")
    elif code != 0 or not report["pass"]:
        problems.append(f"exit {code}, pass={report['pass']}")
    return start, end, code, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    cases = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    ready = time.monotonic()
    probe = speed.SpeedProbe(speed.REFERENCES[workloads.REFERENCES[args.workload]])
    for _ in range(3):
        probe.sample()
    result = {"ready": ready, "setup_factor": probe.factor(probe.samples), "cases": []}
    if not args.setup_only:
        spans = []
        probe.start()
        for case in cases:
            start, end, code, problems = run_case(case)
            spans.append((start, end))
            result["cases"].append({"argv": " ".join(case["argv"]), "exit": code, "problems": problems})
        probe.stop()
        probe.sample()
        for entry, (start, end) in zip(result["cases"], spans):
            entry["seconds"] = probe.scaled(start, end)
            entry["raw_seconds"] = end - start
        result["wall"] = probe.scaled(spans[0][0], spans[-1][1])
        result["raw_wall"] = spans[-1][1] - spans[0][0]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["stats"] = tracer.stats
        result["counters"] = dict(tracer.counters)
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed, "raw_wall": result["raw_wall"]})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
