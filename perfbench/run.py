"""Benchmark of the lidarpgt CLI: simulate -> generate -> evaluate.

Run from the repository root:

    python3 perfbench/run.py --workload ref-heuristic --seed 42 --seconds 8 --trace 0

`--trace 0` runs the CLI commands as child processes, samples the read side
for `--seconds`, and reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` runs them in-process with spans around each module's public
functions and reports the per-layer metrics. `--workload all` runs every
workload and prints a table. The last line of standard output is one JSON
object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Scratch files go to .perfbench_work/ (removed at exit); a full record of each
run, spans included, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    found = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return found.stdout.strip() or "unknown"


def _machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def run_one(workload, seed: int, seconds: float, trace: bool, declared: list) -> dict:
    from measure import run_untraced
    from tracing import run_traced

    work = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            metrics, details, ledger = run_traced(workload, seed, work)
        else:
            metrics, details, ledger = run_untraced(workload, seed, seconds, work, ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    ledger.record(not missing, f"metrics not measured: {missing}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "machine": _machine(),
        "problems": ledger.problems,
        **details,
    }
    spans = record.pop("spans", None)
    print("perfbench: " + json.dumps(record, sort_keys=True))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    record.update(result=result, spans=spans)
    name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    (out / name).write_text(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a termination request unwind, so children are killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lidarpgt" / "cli.py").is_file() or not spec_path.is_file():
        print(f"{ROOT}: no lidarpgt sources (src/lidarpgt) or BENCHMARK.json", file=sys.stderr)
        return 2
    # Before numpy loads: one BLAS thread, as in the child processes.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 1

    results = {
        name: run_one(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), declared)
        for name in names
    }
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:36s} {entry['value']:14.6g} {entry['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
