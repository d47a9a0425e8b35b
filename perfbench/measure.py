"""Statistics, child processes and per-layer assembly shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import timeit
from bisect import bisect_right
from collections import deque
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

# A timed loop stops here even if it has too few samples, so that one run
# stays well inside the three minutes it is allowed.
HARD_CAP_S = 120.0
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60.0
# Spans of the first traced round written to disk; a greedy round holds
# about half a million, which would make a file of some 70 MB.
SPANS_WRITTEN = 200_000

# Every per-layer metric, with its unit; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    "topology.port_table.us_per_call": "us",
    "topology.apply_action.calls": "count",
    "topology.apply_action.time_s": "s",
    "topology.make_multiplicative.time_s": "s",
    "topology.topology_document.time_s": "s",
    "metrics.diameter.calls": "count",
    "metrics.diameter.time_s": "s",
    "metrics.compare_row.time_s": "s",
    "metrics.memory_bits.time_s": "s",
    "static_route.shortest_path.calls": "count",
    "static_route.shortest_path.time_s": "s",
    "static_route.shortest_path.us_per_call": "us",
    "static_route.path_to_actions.time_s": "s",
    "static_route.encode_path.time_s": "s",
    "static_route.consume_step.calls": "count",
    "static_route.consume_step.time_s": "s",
    "static_route.build_packet.time_s": "s",
    "static_route.repeat_offset_share": "ratio",
    "greedy_route.greedy_path.calls": "count",
    "greedy_route.greedy_path.time_s": "s",
    "greedy_route.hops": "count",
    "greedy_route.us_per_hop": "us",
    "greedy_route.next_hop.us_per_call": "us",
    "simulator.traffic.time_s": "s",
    "simulator.run.calls": "count",
    "simulator.run.time_s": "s",
    "simulator.run.overhead_s": "s",
    "simulator.host_us_per_hop": "us",
    "cli.import_s": "s",
    "cli.main.time_s": "s",
    "cli.main.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio",
}

# Span names whose calls and busy time are reported per round.
COUNTED = ("topology.apply_action", "metrics.diameter", "static_route.shortest_path",
           "static_route.consume_step", "greedy_route.greedy_path", "simulator.run")
TIMED = ("topology.apply_action", "topology.make_multiplicative", "topology.topology_document",
         "metrics.diameter", "metrics.compare_row", "metrics.memory_bits",
         "static_route.shortest_path", "static_route.path_to_actions",
         "static_route.encode_path", "static_route.consume_step", "static_route.build_packet",
         "greedy_route.greedy_path", "simulator.traffic", "simulator.run")


# The host this runs on changes speed by up to 1.5x over tens of seconds, as
# neighbours load it.  So each operation's time is scaled by a probe timed
# right before and right after it, on the same CPU (run.py pins the benchmark
# and its children to one): t * REF / probe, with the two scales averaged.
# In-process work is probed with a fixed pure-Python kernel; a CLI request,
# which is mostly process start-up and import, with a bare interpreter start.
# Neither probe runs any code of the package.  Reported times read as host
# times on a machine where the probes take their REF times.
PROBE_REF_S = 0.002
PROBE_REPEATS = 5
BARE_REF_S = 0.06


def _probe_kernel() -> int:
    """A fixed mix of the two kinds of work the package does, in plain Python.

    A queue-based breadth-first search of C(256; 1, 4, 16, 64) from six
    sources, as source routing does, and the modular arithmetic and bisection
    of greedy routing and traffic generation.  It shares no code with the
    package, so no change to the package can move it.
    """
    n = 256
    offsets = (1, 255, 4, 252, 16, 240, 64, 192)
    total = 0
    for src in range(6):
        pred = [-1] * n
        pred[src] = src
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for off in offsets:
                v = (u + off) % n
                if pred[v] < 0:
                    pred[v] = u
                    queue.append(v)
        total += pred[(src + 77) % n]
    gens = (1, 4, 16, 64, 256, 1024, 4096, 16384)
    x = 12345
    for _ in range(1500):
        x = (1664525 * x + 1013904223) % 2**32
        off = x % 65536
        dist = off if 2 * off <= 65536 else 65536 - off
        total += gens[bisect_right(gens, dist) - 1]
    return total


def cpu_scale() -> float:
    """PROBE_REF_S over the median time of the probe kernel now."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _probe_kernel()
        times.append(perf_counter() - start)
    return PROBE_REF_S / statistics.median(times)


def process_scale() -> float:
    """BARE_REF_S over the wall time of starting a bare interpreter now."""
    start = perf_counter()
    proc = run_child(["-c", "pass"])
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter failed: {proc.stderr.strip()}")
    return BARE_REF_S / elapsed


def scaled_round(ops, probe) -> list[tuple[float, float]]:
    """Run each op in turn; returns (raw seconds, speed scale) per op.

    Each op returns its own raw time, so that checking its output stays
    outside the timed part.  `probe()` gives the speed scale; it runs before
    the first op and after each one.
    """
    samples = []
    before = probe()
    for op in ops:
        raw = op()
        after = probe()
        samples.append((raw, (before + after) / 2))
        before = after
    return samples


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def slot_rate(items_per_slot, slot_times) -> float:
    """Items per second over one round, from each slot's median time.

    A slot is one fixed operation repeated every round; taking each slot's
    median before summing keeps a single slow round from moving the rate.
    """
    total = sum(statistics.median(times) for times in slot_times)
    return sum(items_per_slot) / total


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def setup_samples(argv, probe, seconds_of) -> list[tuple[float, float]]:
    """(set-up seconds, speed scale) of SETUP_REPEATS fresh processes running argv.

    `seconds_of(proc, wall)` reads the set-up time off a finished child.  One
    more process runs first and is dropped, because it may compile bytecode.
    """
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        before = probe()
        start = perf_counter()
        proc = run_child(argv)
        wall = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {argv} failed: {proc.stderr.strip()}")
        samples.append((seconds_of(proc, wall), (before + probe()) / 2))
    return samples[1:]


def closed_loop(round_fn, seconds: float, tail_pct: float) -> tuple[list, float]:
    """Run rounds until `seconds` have passed and the tail has ten samples beyond it.

    `round_fn()` runs one round and returns (raw seconds, scale) per
    operation.  Returns the per-operation samples of every round, in slot
    order, and the time spent.
    """
    need = int(round(10 / (1 - tail_pct / 100)))
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(round_fn())
        elapsed = perf_counter() - start
        if elapsed > HARD_CAP_S:
            break
        if elapsed >= seconds and len(rounds) * len(rounds[0]) >= need:
            break
    return rounds, elapsed


def end_to_end(rounds, items_per_slot, tail_pct, setup_samples, rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics, scaled, and a summary that keeps the raw figures."""
    def figures(times_of):
        slots = [[times_of(r[i]) for r in rounds] for i in range(len(rounds[0]))]
        flat = [t for slot in slots for t in slot]
        return (slot_rate(items_per_slot, slots), statistics.median(flat) * 1e3,
                percentile(flat, tail_pct) * 1e3)

    rate, p50, tail = figures(lambda s: s[0] * s[1])
    raw_rate, raw_p50, raw_tail = figures(lambda s: s[0])
    metrics = {
        "setup_s": {"value": statistics.median(s * k for s, k in setup_samples), "unit": "s"},
        "throughput_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    summary = {
        "rounds": len(rounds),
        "samples": len(rounds) * len(rounds[0]),
        "tail_pct": tail_pct,
        "median_speed_scale": statistics.median(k for r in rounds for _, k in r),
        "per_round": rounds,
        "raw": {"setup_s": statistics.median(s for s, _ in setup_samples),
                "throughput_per_s": raw_rate, "op_p50_ms": raw_p50, "op_tail_ms": raw_tail},
    }
    return metrics, summary


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run the current interpreter with argv from the checkout root; waits for exit."""
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )


def port_table_us(specs) -> float:
    """Mean over specs of the median cost of one `port_table(spec)` call."""
    from mcnoc import port_table

    per_spec = []
    for spec in specs:
        runs = timeit.repeat(lambda: port_table(spec), number=500, repeat=5)
        per_spec.append(statistics.median(runs) / 500 * 1e6)
    return statistics.fmean(per_spec)


def repeat_offset_counts(calls) -> tuple[int, int]:
    """(shortest_path calls, calls whose offset was already routed on that spec).

    `calls` is an iterable of (spec key, n, src, dst) in call order; the
    caller starts a new iterable wherever state would not survive, such as a
    new process.
    """
    seen = set()
    total = repeats = 0
    for key, n, src, dst in calls:
        off = (key, (dst - src) % n)
        total += 1
        repeats += off in seen
        seen.add(off)
    return total, repeats


def layer_metrics(rounds: list[dict], extra: dict) -> dict:
    """Per-layer metrics from per-round span totals plus workload-specific values.

    `rounds` holds one `Tracer.totals()` per traced round.  Counts are the
    same every round (the caller checks that); times are medians over rounds.
    """
    values = {}
    for name in COUNTED:
        values[f"{name}.calls"] = rounds[0].get(name, [0, 0.0])[0]
    for name in TIMED:
        values[f"{name}.time_s"] = statistics.median(r.get(name, [0, 0.0])[1] for r in rounds)
    calls = values["static_route.shortest_path.calls"]
    values["static_route.shortest_path.us_per_call"] = (
        values["static_route.shortest_path.time_s"] / calls * 1e6 if calls else 0.0
    )
    hop_calls = rounds[0].get("greedy_route.next_hop", [0, 0.0])[0]
    hop_time = statistics.median(r.get("greedy_route.next_hop", [0, 0.0])[1] for r in rounds)
    values["greedy_route.next_hop.us_per_call"] = hop_time / hop_calls * 1e6 if hop_calls else 0.0
    values.update(extra)
    hops = values["greedy_route.hops"]
    values["greedy_route.us_per_hop"] = (
        values["greedy_route.greedy_path.time_s"] / hops * 1e6 if hops else 0.0
    )
    missing = set(LAYER_UNITS) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
