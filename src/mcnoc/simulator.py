"""Deterministic forwarding simulator and routing-cost benchmark.

The network is contention free: every packet is injected at cycle 0 and
advances one hop per cycle, so packets never interact and the cycle count of
a run is simply the longest hop count among its packets.  A circulant is
vertex transitive, so ``run`` walks every packet hop by hop as the node-0
walk of its offset (dst - src) mod n (``TrafficPattern._offsets``), in
``static_route._hop_tally`` or ``greedy_route._hop_tally``.  All-pairs
traffic is refused above ALL_PAIRS_NODE_LIMIT = 256 nodes where its stream
is built, so that stream is one byte per packet.  A packet that stops
anywhere but its offset aborts the run with a RoutingError rather than
being dropped silently.  Either mode hands back one mapping from hop count
to packets, which gives every figure of the report.  A mode's router is
imported on its first run (``_TALLIES``), and ``bench_route_computation``
imports its routes when called, so a process loads only the router it walks.

Random traffic uses an explicit linear congruential generator,
``x_{t+1} = (1664525 * x_t + 1013904223) mod 2**32`` from ``seed mod 2**32``,
so a seed produces the same pairs on every platform and run: src is one
draw and dst the next, drawn again while it equals src.  ``_draws`` writes
the generator once.  ``pairs`` draws it pair by pair (``_by_pair``), the
loop this paragraph describes and the reference for the offset stream.
An offset stream of at least PAIRS pairs on a power of two n is drawn PAIRS
pairs at a time (``_by_block``).  Such an n divides 2**32, so a pair's offset
is the low bits of (x_dst - x_src) mod 2**32, and on even n no pair redraws,
since x_{t+1} - x_t is odd.  By the jump-ahead x_t = (a_t * x + c_t) mod 2**32
that difference is one multiply-add over the 64-bit lanes of one int
(``_lanes``), and one AND with n - 1 in every lane leaves a block's offsets.
Every other stream is drawn pair by pair.
"""

from __future__ import annotations

import struct
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, permutations

from .topology import CirculantSpec, _at_least, _check_int, _check_node, _guard

MODES = ("source_routed", "greedy")


class _Tallies(dict):
    """mode -> its router's ``_hop_tally``; a mode's first run imports that router."""

    def __missing__(self, mode):
        if mode == "source_routed":
            from .static_route import _hop_tally
        else:
            from .greedy_route import _hop_tally
        self[mode] = _hop_tally
        return _hop_tally


_TALLIES = _Tallies()

ALL_PAIRS_NODE_LIMIT = 256
PAIRS = 512  # random pairs drawn per block; a block's offsets and lanes peak near 32 KiB


@lru_cache(maxsize=1)
def _lanes(a: int, c: int) -> tuple:
    """The jump-ahead of x -> (a * x + c) mod 2**32 over a block, one 64-bit lane per pair.

    x_t = (a_t * x + c_t) mod 2**32, so pair j's x_(2j+2) - x_(2j+1) is
    a_j * x + c_j with a_j = a_(2j+2) - a_(2j+1) and c_j = c_(2j+2) - c_(2j+1),
    both mod 2**32.  Returns the int of every a_j, the int of every c_j, an
    int with a 1 in every lane, and the block's own jump a_(2 PAIRS) and
    c_(2 PAIRS).  Built on the first block drawn, x_t from 0 being c_t and
    x_t from 1 less c_t being a_t, straight into bytes: lists of the lanes'
    ints would more than double the build's peak.
    """
    a_lanes, c_lanes = bytearray(8 * PAIRS), bytearray(8 * PAIRS)
    zero, one = 0, 1
    for pair in range(PAIRS):
        src_zero, src_one = (a * zero + c) & 0xFFFFFFFF, (a * one + c) & 0xFFFFFFFF
        zero, one = (a * src_zero + c) & 0xFFFFFFFF, (a * src_one + c) & 0xFFFFFFFF
        struct.pack_into("<Q", a_lanes, 8 * pair, (one - zero - src_one + src_zero) & 0xFFFFFFFF)
        struct.pack_into("<Q", c_lanes, 8 * pair, (zero - src_zero) & 0xFFFFFFFF)
    ones = b"\1\0\0\0\0\0\0\0" * PAIRS
    lanes = (int.from_bytes(t, "little") for t in (a_lanes, c_lanes, ones))
    return (*lanes, (one - zero) & 0xFFFFFFFF, zero)


def _by_pair(a: int, c: int, n: int, x: int, count: int, offsets: bool):
    """count random pairs on n nodes from state x, or with ``offsets`` their offsets."""
    for _ in range(count):
        x = (a * x + c) & 0xFFFFFFFF
        src = x % n
        while True:  # draws dst at least once, and again while it is src
            x = (a * x + c) & 0xFFFFFFFF
            off = (x - src) % n
            if off:
                break
        yield off if offsets else (src, x % n)


def _by_block(a: int, c: int, n: int, x: int, count: int):
    """The offsets of ``_by_pair``'s draws on a power of two n, up to PAIRS at a time.

    From state x, pair j of a block has offset (x_(2j+2) - x_(2j+1)) mod n:
    n divides 2**32, and on even n dst is never src, so no pair redraws.
    That difference is ``a_j * x + c_j`` in lane j (``_lanes``), at most
    ``(2**32 - 1)**2 + 2**32 - 1 < 2**64``, so no lane carries into the
    next, and one AND of every lane with n - 1 leaves each offset in its
    lane.  Only the pairs the stream still needs are unpacked, and the
    block's own jump gives the next block's start state.
    """
    a_lanes, c_lanes, ones, jump_a, jump_c = _lanes(a, c)
    mask = (n - 1) * ones
    for left in range(count, 0, -PAIRS):
        lanes = (a_lanes * x + c_lanes) & mask
        yield struct.unpack_from(f"<{min(left, PAIRS)}Q", lanes.to_bytes(8 * PAIRS, "little"))
        x = (jump_a * x + jump_c) & 0xFFFFFFFF


@dataclass(frozen=True)
class TrafficPattern:
    """Which (src, dst) pairs a run injects.

    It checks its arguments however it is built and refuses a field its
    kind does not read; ``pairs`` yields the ordered pairs in a
    reproducible order.
    """

    kind: str
    count: int | None = None
    seed: int | None = None
    src: int | None = None
    dst: int | None = None

    def __post_init__(self):
        if self.kind == "random_pairs":
            _at_least("count", self.count, 0)
            if self.seed is not None:
                _check_int("seed", self.seed)
            unread = ("src", "dst")
        elif self.kind == "single":
            if self.src == self.dst:
                raise ValueError("single-pair traffic needs src != dst")
            unread = ("count", "seed")
        elif self.kind == "all_pairs":
            unread = ("count", "seed", "src", "dst")
        else:
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        for name in unread:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.kind} traffic takes no {name}")

    @classmethod
    def all_pairs(cls) -> "TrafficPattern":
        return cls(kind="all_pairs")

    @classmethod
    def random_pairs(cls, count: int, seed: int | None = None) -> "TrafficPattern":
        return cls(kind="random_pairs", count=count, seed=seed)

    @classmethod
    def single(cls, src: int, dst: int) -> "TrafficPattern":
        return cls(kind="single", src=src, dst=dst)

    def pairs(self, spec: CirculantSpec, default_seed: int = 0):
        if self.kind == "all_pairs":
            yield from permutations(range(spec.n), 2)
        elif self.kind == "random_pairs":
            yield from self._draws(spec.n, default_seed, False)
        else:  # single
            _check_node(spec, "source", self.src)
            _check_node(spec, "destination", self.dst)
            yield self.src, self.dst

    def _offsets(self, spec: CirculantSpec, default_seed: int = 0):
        """The offset (dst - src) mod n of each pair ``pairs`` yields.

        Random and single traffic keep ``pairs``'s order, and single traffic
        checks its nodes before it returns.  All-pairs traffic is n(n-1)
        packets, so it is refused above ALL_PAIRS_NODE_LIMIT nodes; within
        it, it is one byte per packet, n copies of 1..n-1: each source's
        offsets, ascending, with no Python work per packet.
        """
        n = spec.n
        if self.kind == "all_pairs":
            _guard(spec.label, n, ALL_PAIRS_NODE_LIMIT, "all-pairs guard")
            return bytes(range(1, n)) * n
        if self.kind == "random_pairs":
            return self._draws(n, default_seed, True)
        return [(dst - src) % n for src, dst in self.pairs(spec)]

    def _draws(self, n: int, default_seed: int, offsets: bool):
        """The random pairs on n nodes, or with ``offsets`` their offsets, as one iterator.

        Pairs are drawn pair by pair, by the documented loop.  Offsets are
        drawn in blocks only for a stream of at least PAIRS pairs on a power
        of two n, where no pair redraws: a shorter stream fills less than
        one block, whose fixed cost (the table lookup, one multiply-add over
        its lanes, the byte round trip) is not repaid.
        """
        a, c = 1664525, 1013904223  # the generator x_{t+1} = (a * x_t + c) mod 2**32
        x = (self.seed if self.seed is not None else default_seed) % 2**32
        if offsets and self.count >= PAIRS and n & (n - 1) == 0:
            return chain.from_iterable(_by_block(a, c, n, x, self.count))
        return _by_pair(a, c, n, x, self.count, offsets)


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


def run(spec: CirculantSpec, mode: str, traffic: TrafficPattern, seed: int = 0) -> SimReport:
    """Inject the traffic pattern, forward every packet, and tally the run.

    ``seed`` feeds random traffic only when the pattern does not carry its
    own seed.  All-pairs traffic is refused above ALL_PAIRS_NODE_LIMIT nodes
    (``TrafficPattern._offsets``); random traffic costs a count the caller
    chose.  Every packet of the offset stream is walked hop by hop and its
    delivery checked.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_int("seed", seed)
    offsets = traffic._offsets(spec, default_seed=seed)
    histogram = _TALLIES[mode](spec, offsets, traffic.kind != "single")
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
    """JSON-ready view of a report: its fields in order, mapping keys as strings."""
    return {
        name: {str(key): v for key, v in value.items()} if isinstance(value, dict) else value
        for name, value in asdict(report).items()
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
    above ALL_PAIRS_NODE_LIMIT nodes, as all-pairs ``run`` does: a ``bfs``
    sweep costs about n**3 times the ports.
    """
    _guard(spec.label, spec.n, ALL_PAIRS_NODE_LIMIT, "all-pairs guard")
    if algo == "bfs":
        from .metrics import _search_route as route
    elif algo == "greedy":
        from .greedy_route import greedy_path as route
    else:
        raise ValueError(f"algo must be 'bfs' or 'greedy', got {algo!r}")
    _at_least("repeat", repeat, 1)
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
