#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, every output check.

Run from the repository root::

    python3 perfbench/run.py --workload sim-fig8 --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is in BENCHMARK.json; what each layer
metric should move is in ``perfbench/layers.json``):

- ``sim-fig8``: the fixed-seed Figure-8 point (ScaleRPC, 40 clients);
- ``sim-txn``:  SmallBank on ScaleTX, 1 ms of simulated measurement;
- ``proc-echo``: a ``repro.net.worker`` server process and two closed-loop
  ``ProcRpcClient`` connections over host loopback.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate run that also profiles, and prints the per-layer metrics and the
cost of tracing.  End-to-end numbers come only from untraced runs.

Times are in reference seconds: the machine is shared, so its speed is
sampled with work that uses no program code, interleaved with the measured
work, and host time is scaled by that work's reference time over its
measured time.  The sim workloads sample with a fixed pure-Python loop
(``perfbench.ledger.calibrate``); ``proc-echo`` with round trips to a
standard-library echo process and its start-up (``perfbench/procecho.py``).
The raw samples are printed with the context.  Rates and round trips are
medians over windows of consecutive ops, which keeps short stalls of the
host out of them.

Every run checks the program's outputs; a failed check counts the ops it
covers as failed, sets ``"correct": false`` and makes the exit code 1.
The last line of standard output is the result as one JSON object; the
lines before it give the run context, the failed fraction and every
metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-fig8", "sim-txn", "proc-echo")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of measured work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    started = time.perf_counter()
    if args.workload == "proc-echo":
        from perfbench import procecho
        report = procecho.run(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        from perfbench import simload
        report = simload.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    measured = report["per_layer" if args.trace else "end_to_end"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise KeyError(f"workload reported metrics missing from BENCHMARK.json: {unknown}")
    # A per-layer metric that does not apply to the workload (the txn
    # layer on sim-fig8, the kernel on proc-echo) reads 0.
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(), "machine": platform.machine(),
        "run_wall_s": round(time.perf_counter() - started, 3),
        **report["notes"],
    }
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and not report["problems"]
    print(json.dumps({"context": context}, sort_keys=True))
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"{'failed_frac':<28} {failed / max(1, attempted):.6g} (of {attempted} ops)")
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
