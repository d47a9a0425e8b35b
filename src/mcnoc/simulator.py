"""Deterministic forwarding simulator and routing-cost benchmark.

The network is contention free: every packet is injected at cycle 0 and
advances one hop per cycle, so packets never interact and the cycle count of
a run is simply the longest hop count among its packets.  Source routing
forwards the batch in one loop.  Each spec keeps a memo from offset to path
field: a field enters it once, after its hop count, its framing and every
code are checked, and from then on every packet at that offset, in this run
and later ones, walks it with a bare decode (mask, step, shift), as a router
does (traffic yields in-range nodes only, so no pair is re-checked).  Greedy
routing walks the greedy rule hop by hop and counts the hops without keeping
the nodes.  Delivery is checked packet by packet; a packet that stops
anywhere but its destination aborts the run with a RoutingError rather than
being dropped silently.  One tally of per-packet hop counts gives every
figure of the report: a list indexed by hop count when source routed, a
Counter when greedy.

Random traffic uses an explicit linear congruential generator,
``x_{t+1} = (1664525 * x_t + 1013904223) mod 2**32`` from ``seed mod 2**32``,
so a seed produces the same pairs on every platform and run: src is one
draw and dst the next, drawn again while it equals src.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, starmap
from typing import NamedTuple

from .errors import CorruptPacketError, GuardLimitError, RoutingError
from .greedy_route import _hop_counter, greedy_path
from .metrics import _bfs, diameter
from .static_route import OFFSET_CACHE_SIZE, _by_code, _offset_packet, _tree_path, bits_per_hop
from .topology import CirculantSpec, _check_node, port_table

MODES = ("source_routed", "greedy")

BENCH_NODE_LIMIT = 10_000
ALL_PAIRS_NODE_LIMIT = 256


@dataclass(frozen=True)
class TrafficPattern:
    """Which (src, dst) pairs a run injects.

    Build one with the classmethods; ``pairs`` yields the ordered pairs in a
    reproducible order.
    """

    kind: str
    count: int | None = None
    seed: int | None = None
    src: int | None = None
    dst: int | None = None

    @classmethod
    def all_pairs(cls) -> "TrafficPattern":
        return cls(kind="all_pairs")

    @classmethod
    def random_pairs(cls, count: int, seed: int | None = None) -> "TrafficPattern":
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return cls(kind="random_pairs", count=count, seed=seed)

    @classmethod
    def single(cls, src: int, dst: int) -> "TrafficPattern":
        if src == dst:
            raise ValueError("single-pair traffic needs src != dst")
        return cls(kind="single", src=src, dst=dst)

    def pairs(self, spec: CirculantSpec, default_seed: int = 0):
        n = spec.n
        if self.kind == "all_pairs":
            yield from permutations(range(n), 2)
        elif self.kind == "random_pairs":
            seed = self.seed if self.seed is not None else default_seed
            x = seed % 2**32
            for _ in range(self.count):
                x = (1664525 * x + 1013904223) & 0xFFFFFFFF
                src = dst = x % n
                while dst == src:  # draws dst at least once, and again on a repeat
                    x = (1664525 * x + 1013904223) & 0xFFFFFFFF
                    dst = x % n
                yield src, dst
        elif self.kind == "single":
            _check_node(spec, "source", self.src)
            _check_node(spec, "destination", self.dst)
            yield self.src, self.dst
        else:
            raise ValueError(f"unknown traffic kind {self.kind!r}")


@dataclass(frozen=True)
class SimReport:
    """Outcome of one run."""

    mode: str
    injected: int
    delivered: int
    hop_histogram: dict
    avg_hops: float
    max_hops: int
    total_cycles: int


class _SourceRouter(NamedTuple):
    """What a source-routed run needs of one spec, built once per spec."""

    n: int
    offsets: tuple[int, ...]  # hop offset of port code c at index c - 1
    steps: tuple  # the same offsets at index c; index 0, the terminator, is never walked
    bits: int
    mask: int
    capacity: int  # the diameter: the longest route, and the tally's last slot
    fields: dict  # offset -> admitted path field, at most OFFSET_CACHE_SIZE of them


@lru_cache(maxsize=8)
def _source_router(spec: CirculantSpec) -> _SourceRouter:
    offsets = port_table(spec).offsets
    b = bits_per_hop(spec)
    return _SourceRouter(spec.n, offsets, (None, *offsets), b, (1 << b) - 1, diameter(spec), {})


def _admit(spec: CirculantSpec, off: int) -> int:
    """The path field of offset off, checked in full before any packet walks it.

    The field comes from ``_offset_packet``.  Its hop count must fit the
    capacity (ValueError), it may hold no code past its ``hops_encoded`` slots
    and every code up to the terminator must name a port (CorruptPacketError).
    A field that passes and leads from 0 to off enters the spec's memo while
    the memo holds fewer than OFFSET_CACHE_SIZE fields.  A refused field
    never does, and one that leads elsewhere is returned unstored, so its
    packet fails the delivery check: a bad cache entry cannot reach a later run.
    """
    n, offsets, _, b, mask, capacity, fields = _source_router(spec)
    packet = _offset_packet(spec, off)
    encoded = packet.hops_encoded
    if encoded > capacity:
        raise ValueError(f"{encoded} hops exceed capacity {capacity}")
    field = packet.path_field
    if field >> (encoded * b):
        raise CorruptPacketError(f"path field has codes past its {encoded} hop slots")
    end = 0
    rest = field
    while rest:
        end = (end + _by_code(offsets, rest & mask)) % n
        rest >>= b
    if end == off and len(fields) < OFFSET_CACHE_SIZE:
        fields[off] = field
    return field


def run(spec: CirculantSpec, mode: str, traffic: TrafficPattern, seed: int = 0) -> SimReport:
    """Inject the traffic pattern, forward every packet, and tally the run.

    ``seed`` feeds random traffic only when the pattern does not carry its
    own seed.  All-pairs traffic is n(n-1) packets, so it is refused above
    ALL_PAIRS_NODE_LIMIT nodes.  The slowest spec admitted is the ring
    MC(256,1), 65280 packets of up to 128 hops: about 1.2 s source routed
    and 0.7 s greedy on one Xeon core under CPython 3.11; MC(2,8), MC(4,4)
    and MC(16,2) take at most 0.2 s.  Random traffic is not guarded: its
    cost is linear in a count the caller chose.

    Source routed, the run reads the spec's ``_source_router`` record once:
    its port steps, slot width, capacity (the diameter) and its memo from
    offset to path field, which lives as long as the record (the last 8
    specs), not one run.  An offset missing from the memo is admitted by
    ``_admit``, which reads ``_offset_packet`` and checks the field in full;
    the memo holds at most OFFSET_CACHE_SIZE fields, that cache's own size,
    and past the cap a miss asks the cache again.  So no walk is longer than
    the capacity and no walked code is out of range, and each hop is a bare
    mask, step and shift; every packet is still walked hop by hop and its
    delivery checked.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if traffic.kind == "all_pairs" and spec.n > ALL_PAIRS_NODE_LIMIT:
        raise GuardLimitError(
            f"{spec.label} has {spec.n} nodes, above the {ALL_PAIRS_NODE_LIMIT} all-pairs guard"
        )
    if mode == "source_routed":
        n, _, steps, b, mask, capacity, fields = _source_router(spec)
        counts = [0] * (capacity + 1)
        for src, dst in traffic.pairs(spec, default_seed=seed):
            off = (dst - src) % n
            field = fields.get(off)
            if field is None:
                field = _admit(spec, off)
            node = src
            hops = 0
            while field:
                node = (node + steps[field & mask]) % n
                field >>= b
                hops += 1
            if node != dst:
                raise RoutingError(f"packet for {dst} stopped at {node}")
            counts[hops] += 1
        histogram = {hops: count for hops, count in enumerate(counts) if count}
    else:
        histogram = Counter(starmap(_hop_counter(spec), traffic.pairs(spec, default_seed=seed)))
    injected = sum(histogram.values())
    total_hops = sum(hops * count for hops, count in histogram.items())
    max_hops = max(histogram, default=0)
    return SimReport(
        mode=mode,
        injected=injected,
        delivered=injected,  # a misrouted packet raises instead of dropping
        hop_histogram=dict(sorted(histogram.items())),
        avg_hops=total_hops / injected if injected else 0.0,
        max_hops=max_hops,
        total_cycles=max_hops,
    )


def sim_report_document(report: SimReport) -> dict:
    """JSON-ready view of a report."""
    return {
        "mode": report.mode,
        "injected": report.injected,
        "delivered": report.delivered,
        "hop_histogram": {str(h): c for h, c in report.hop_histogram.items()},
        "avg_hops": report.avg_hops,
        "max_hops": report.max_hops,
        "total_cycles": report.total_cycles,
    }


SIM_CSV_HEADER = "mode,n,s,k,injected,delivered,avg_hops,max_hops,total_cycles"


def sim_report_csv(spec: CirculantSpec, report: SimReport) -> str:
    """CSV line for one run; avg_hops keeps full precision for re-parsing."""
    s = spec.s if spec.s is not None else ""
    return (
        f"{report.mode},{spec.n},{s},{spec.k},{report.injected},{report.delivered},"
        f"{report.avg_hops!r},{report.max_hops},{report.total_cycles}"
    )


def bench_route_computation(spec: CirculantSpec, algo: str, repeat: int = 3) -> float:
    """Median wall time of an all-ordered-pairs route computation sweep.

    ``bfs`` runs a fresh search from the source per pair, bypassing the
    cached tree; ``greedy`` walks the greedy rule per pair.  Refuses instances
    above BENCH_NODE_LIMIT nodes.
    """
    if spec.n > BENCH_NODE_LIMIT:
        raise GuardLimitError(
            f"{spec.label} has {spec.n} nodes, above the {BENCH_NODE_LIMIT} guard"
        )
    if algo == "bfs":

        def route(spec: CirculantSpec, src: int, dst: int) -> list[int]:
            return _tree_path(_bfs(spec, src)[1], dst)

    elif algo == "greedy":
        route = greedy_path
    else:
        raise ValueError(f"algo must be 'bfs' or 'greedy', got {algo!r}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    import statistics  # on first use, so importing the CLI never loads fractions or decimal

    times = []
    n = spec.n
    for _ in range(repeat):
        start = time.perf_counter()
        for src in range(n):
            for dst in range(n):
                if dst != src:
                    route(spec, src, dst)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
