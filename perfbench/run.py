"""Benchmark of the mcnoc package: one workload per run.

    python3 perfbench/run.py --workload sim-src --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from its `src`.
With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with --trace 1 it carries the per-layer
metrics of a separate traced run.  The line before it holds the whole
result, environment included, which also goes to .bench_out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, SIM, WORKLOADS  # noqa: E402

# End-to-end metric names as the sim and CLI workloads speak of them.
ISSUE_NAMES = {
    "sim": {"throughput_per_s": "pkts_per_s", "op_p50_ms": "run_p50_ms",
            "op_tail_ms": "run_tail_ms"},
    "cli": {"throughput_per_s": "requests_per_s", "op_p50_ms": "request_p50_ms",
            "op_tail_ms": "request_tail_ms"},
}


def git_state() -> dict:
    """Commit and dirtiness of the checkout, or nulls where it is not a git work tree."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_commit": None, "git_dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return {"git_commit": commit, "git_dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def environment(nproc: int) -> dict:
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        **git_state(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mcnoc" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'mcnoc'}; run from a full checkout",
              file=sys.stderr)
        return 2
    import mcnoc

    if Path(mcnoc.__file__).resolve().parent != ROOT / "src" / "mcnoc":
        print(f"error: imported mcnoc from {mcnoc.__file__}, not this checkout", file=sys.stderr)
        return 2

    # One CPU for the benchmark and its children, so that the speed probe
    # runs where the measured work runs.
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    load_start = os.getloadavg()
    if args.workload in SIM:
        from sim import SimBench

        bench = SimBench(args.workload, args.seed)
        kind = "sim"
    else:
        from cli_sweep import CliBench

        bench = CliBench(args.seed)
        kind = "cli"
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = bench.traced(args.seconds, OUT_DIR / f"spans-{stem}.jsonl")
    else:
        metrics = bench.untraced(args.seconds)
    env = environment(len(allowed))
    env["pinned_cpu"] = cpu
    env["loadavg_start"] = list(load_start)
    env["loadavg_end"] = list(os.getloadavg())
    correct = bench.failed == 0
    error_rate = bench.failed / bench.attempted
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "error_rate": error_rate,
        "errors": bench.errors,
        "run": bench.summary,
        "environment": env,
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for name, m in metrics.items():
        alias = ISSUE_NAMES[kind].get(name)
        label = f"{name} ({alias})" if alias else name
        note = ""
        if name == "op_tail_ms":
            note = f"  p{bench.summary['tail_pct']:g} of {bench.summary['samples']} samples"
        print(f"{args.workload:<11} {label:<42} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{args.workload:<11} {'error_rate':<42} {error_rate:>14.6g} ratio"
          f"  ({bench.failed} of {bench.attempted} operations failed)")
    for message in bench.errors:
        print(f"{args.workload:<11} error: {message}")
    result["run"].pop("per_round", None)  # kept in the file only
    print(json.dumps(result))
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
