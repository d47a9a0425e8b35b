"""Workload definitions: which specs, batches and CLI requests a seed yields.

This module imports nothing heavy at module level, so the set-up probe can
import it before it starts its clock.  Inputs depend only on the workload
name and the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
# Kept out of tuning; later claims are re-checked on it.
HELD_OUT_SEED = 9

WORKLOADS = ("sim-src", "sim-greedy", "cli-sweep")


@dataclass(frozen=True)
class SimWorkload:
    mode: str
    # ((s, k), packets per batch); sizes put each random batch near the
    # same run time, so the median run lands inside one cluster of costs.
    random_batches: tuple
    batches_per_spec: int
    all_pairs_on: tuple
    # Tail percentile, fixed so that two commits are compared on the same
    # one; the run extends until at least ten samples lie beyond it.
    tail_pct: float


SIM = {
    "sim-src": SimWorkload(
        mode="source_routed",
        random_batches=(((4, 3), 128), ((6, 3), 64), ((3, 5), 48), ((4, 4), 48)),
        batches_per_spec=3,
        all_pairs_on=(4, 3),
        tail_pct=95.0,
    ),
    "sim-greedy": SimWorkload(
        mode="greedy",
        random_batches=(((4, 6), 2000), ((2, 12), 2000), ((4, 8), 1600)),
        batches_per_spec=4,
        all_pairs_on=(4, 4),
        tail_pct=95.0,
    ),
}

CLI_TAIL_PCT = 75.0


@dataclass(frozen=True)
class Batch:
    """One `run` call: a spec, and either all pairs or seeded random pairs."""

    spec: tuple
    kind: str  # "random" or "all"
    count: int = 0
    traffic_seed: int = 0


def sim_specs(name: str) -> list[tuple]:
    w = SIM[name]
    specs = [sk for sk, _ in w.random_batches]
    if w.all_pairs_on not in specs:
        specs.append(w.all_pairs_on)
    return specs


def sim_batches(name: str, seed: int) -> list[Batch]:
    """The batches of one round, in run order."""
    w = SIM[name]
    batches = []
    for rep in range(w.batches_per_spec):
        for sk, count in w.random_batches:
            batches.append(
                Batch(sk, "random", count, traffic_seed=seed * 1000 + len(batches))
            )
    batches.append(Batch(w.all_pairs_on, "all"))
    return batches


def sim_setup(name: str):
    """What a sim workload does before its first timed call.

    Import the package, build every spec, and make one one-packet warm-up
    `run` per spec in the workload's mode.  Returns the specs by (s, k).
    """
    from mcnoc import TrafficPattern, make_multiplicative, run

    mode = SIM[name].mode
    specs = {sk: make_multiplicative(*sk) for sk in sim_specs(name)}
    for spec in specs.values():
        run(spec, mode, TrafficPattern.single(0, 1))
    return specs


def cli_requests(seed: int) -> list[list[str]]:
    """One round of CLI requests: argv lists for `python -m mcnoc.cli`."""
    rng = random.Random(seed)

    def pair(s, k):
        src, dst = rng.sample(range(s**k), 2)
        return str(src), str(dst)

    a, b = pair(2, 16)
    c, d = pair(2, 16)
    e, f = pair(2, 14)
    g, h = pair(4, 8)
    return [
        ["gen", "--s", "2", "--k", "16"],
        ["metrics", "--s", "2", "--k", "12", "--format", "csv"],
        ["metrics", "--s", "2", "--k", "14", "--format", "json"],
        ["metrics", "--s", "4", "--k", "8", "--mesh-compare"],
        ["route", "--s", "2", "--k", "16", "--from", a, "--to", b,
         "--algo", "bfs", "--show-packet"],
        ["route", "--s", "2", "--k", "16", "--from", c, "--to", d,
         "--algo", "greedy", "--show-packet"],
        ["simulate", "--s", "2", "--k", "14", "--algo", "bfs", "--traffic", f"pair:{e}:{f}"],
        ["simulate", "--s", "4", "--k", "8", "--algo", "greedy", "--traffic", f"pair:{g}:{h}"],
        ["simulate", "--s", "2", "--k", "12", "--algo", "greedy", "--traffic", "random:2000",
         "--seed", str(rng.randrange(2**31))],
        ["memory", "--s", "4", "--k", "8"],
    ]
