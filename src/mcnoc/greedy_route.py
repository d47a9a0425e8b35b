"""Greedy routing specialised to multiplicative circulants.

Each router knows only its own number, the destination carried by the
packet, and the generatrix ladder (s**0 .. s**(k-1)).  Per hop it computes
the cyclic offset to the destination, picks the shorter rotation direction
(ties go to +), and jumps by the generatrix closest to the remaining
distance in that direction (ties go to the smaller one).  Because the chosen
generatrix never overshoots by more than it advances, the cyclic distance
strictly decreases every hop and the walk terminates on its own.  The next
cyclic distance is ``|dd - g(dd)|`` whichever way the packet turns, so the
hop count follows from the distance alone; a greedy ``run`` walks only that.

The choice is one bisection on the spec's midpoint ladder: rung j is
``(g_j + g_(j+1)) // 2``, and ``g_j`` is kept exactly when the distance is at
most that rung, so ``generatrices[bisect_left(ladder, distance)]`` is the
closest generatrix with ties to the smaller one.  ``next_hop``,
``greedy_path`` and ``_hop_counter`` (the distance walk of ``stretch_report``
and of a one-packet ``run``) choose through it per hop.  ``_hop_tally``, the
walk of a batch ``run``, reads the same rule from a per-spec list by offset,
``nxt[off] = |dd - g(dd)|`` at off's distance dd, filled one rung segment at
a time for dd in 0..n // 2, refused at build if a step does not shrink, and
mirrored past n // 2: one index per hop from the offset itself, one tally
slot per packet.  On at most 256 nodes every offset is a byte, and the batch
advances all its packets one hop per cycle with one ``bytes.translate``
through the same list.  Above NEXT_DISTANCE_NODE_LIMIT nodes, and for a
one-packet run, it counts ``_hop_counter``'s walks instead, so no list is
built.

Greedy walks are shortest, and balanced base-s digits reach any offset in at
most k * (s // 2) hops, which passes GREEDY_HOP_LIMIT only on rings above
2**21 + 1 nodes.  There ``greedy_path`` and the bisecting walk refuse, before
the first hop, a pair whose cyclic distance passes it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import RoutingError
from .topology import CirculantSpec, _check_node, _guard

STRETCH_NODE_LIMIT = 10_000

# Largest spec that walks a next-distance list: n entries, 1.49 MiB held at
# 2**16 nodes (2.24 MiB at build), and at most 8 lists are cached.
NEXT_DISTANCE_NODE_LIMIT = 2**16

# Longest greedy walk taken: at this length greedy_path's node list peaks at
# about 40 MiB.
GREEDY_HOP_LIMIT = 2**20


class GreedyDecision(NamedTuple):
    """One routing step with the quantities that led to it."""

    direction: int  # +1 or -1 around the ring
    distance_in_direction: int  # hops-worth of offset still to cover
    g_lo: int  # largest generatrix <= that distance
    g_hi: int  # next larger generatrix (= g_lo at the top of the ladder)
    chosen: int
    next_node: int


@lru_cache(maxsize=256)
def _ladder(spec: CirculantSpec) -> tuple[int, ...]:
    """Midpoints of adjacent generatrices, one rung per pair.

    ``g_lo`` beats ``g_hi`` when ``dd - g_lo <= g_hi - dd``, i.e. when
    ``dd <= (g_lo + g_hi) // 2``; a distance above the top rung bisects to
    index k - 1, the largest generatrix.  This is also the one spec check
    of greedy routing: a refused spec is never cached, so it raises on
    every call.
    """
    if not spec.is_multiplicative:
        raise ValueError(f"greedy routing needs a multiplicative circulant, got {spec.label}")
    gens = spec.generatrices
    return tuple((lo + hi) // 2 for lo, hi in zip(gens, gens[1:]))


def relative_dest(spec: CirculantSpec, current: int, dst: int) -> int:
    """Cyclic offset (dst - current) mod n seen by the router."""
    _check_node(spec, "current", current)
    _check_node(spec, "destination", dst)
    return (dst - current) % spec.n


def next_hop(spec: CirculantSpec, current: int, dst: int) -> GreedyDecision:
    """The greedy step taken at ``current`` for a packet headed to ``dst``."""
    ladder = _ladder(spec)
    offset = relative_dest(spec, current, dst)
    if offset == 0:
        raise ValueError("already at the destination, no hop to take")
    n = spec.n
    gens = spec.generatrices
    if 2 * offset <= n:
        direction, dd = 1, offset
    else:
        direction, dd = -1, n - offset
    i = bisect_right(gens, dd) - 1
    g_lo = gens[i]
    g_hi = gens[i + 1] if i + 1 < spec.k else g_lo
    chosen = gens[bisect_left(ladder, dd)]
    return GreedyDecision(
        direction=direction,
        distance_in_direction=dd,
        g_lo=g_lo,
        g_hi=g_hi,
        chosen=chosen,
        next_node=(current + direction * chosen) % n,
    )


def _check_walk(spec: CirculantSpec, src: int, dst: int) -> None:
    """Refuse, before any hop, a greedy walk longer than GREEDY_HOP_LIMIT hops.

    A greedy walk is shortest, and balanced base-s digits reach every offset
    in k * (s // 2) hops.  Within MAX_NODES that bound is at most 46 340 for
    k >= 2, so only a ring can pass the limit, and a ring walk is as long as
    its cyclic distance.
    """
    n = spec.n
    if spec.k == 1 and n // 2 > GREEDY_HOP_LIMIT:
        d = (dst - src) % n
        walk = f"greedy walk from {src} to {dst}"
        _guard(walk, min(d, n - d), GREEDY_HOP_LIMIT, "hop guard", "hops")


def greedy_path(spec: CirculantSpec, src: int, dst: int) -> list[int]:
    """Node list of the greedy walk from src to dst (just [src] if equal)."""
    ladder = _ladder(spec)
    _check_node(spec, "source", src)
    _check_node(spec, "destination", dst)
    _check_walk(spec, src, dst)
    n = spec.n
    half = n // 2
    gens = spec.generatrices
    path = [src]
    cur = src
    for _ in range(n):
        if cur == dst:
            return path
        offset = (dst - cur) % n
        if offset <= half:
            cur = (cur + gens[bisect_left(ladder, offset)]) % n
        else:
            cur = (cur - gens[bisect_left(ladder, n - offset)]) % n
        path.append(cur)
    raise RoutingError(f"greedy walk from {src} to {dst} exceeded {n} hops")


@lru_cache(maxsize=8)
def _next_distances(n: int, gens: tuple[int, ...], ladder: tuple[int, ...]) -> list[int]:
    """``|dd - gens[bisect_left(ladder, dd)]|`` at each offset's cyclic distance dd.

    Offsets 0..n // 2 are their own distances, and the rest mirror them in
    one more slice.  Rung j's segment is the distances that bisect to g_j,
    from the end of the list so far up to the rung.  Inside it the next
    distance runs down as ``g_j - dd`` below g_j and up as ``dd - g_j`` from
    g_j, so one build is at most 2k + 1 slices of one pool of values, and
    entries share their int objects.  The key is the ladder, not the spec,
    so a list always follows the ladder it was filled from.

    A list where some ``nxt[dd] >= dd`` for dd >= 1 raises RoutingError and
    is never cached, so a walk on a cached list ends within dd hops.  Inside
    a run ``dd - nxt[dd]`` never falls (``2dd - g_j``, then ``g_j``), and a
    run starting at g_j passes there, so the check reads only dd = 1 and the
    distance just past each rung.
    """
    half = n // 2
    runs = []  # (start, stop, step) slices of the pool
    lo = 0
    for g, top in zip(gens, (*ladder, half)):
        hi = min(top, half)  # this segment: lo..hi, empty when hi < lo
        runs += (max(g - lo, 0), max(g - hi - 1, 0), -1), (max(lo - g, 0), max(hi + 1 - g, 0), 1)
        lo = max(lo, hi + 1)
    pool = list(range(1 + max(max(start, stop) for start, stop, _ in runs)))
    nxt: list[int] = []
    for start, stop, step in runs:
        nxt += pool[start:stop:step]
    for dd in {1, *(rung + 1 for rung in ladder)}:
        if 1 <= dd <= half and nxt[dd] >= dd:
            raise RoutingError(f"greedy step from distance {dd} goes to {nxt[dd]}, not closer")
    return nxt + nxt[n - half - 1 : 0 : -1]


def _hop_counter(spec: CirculantSpec):
    """``offset -> hops`` of the greedy walk from node 0, for an offset already in range.

    It counts ``greedy_path``'s hops by walking the cyclic distance
    ``dd -> |dd - g(dd)|``: that is the node walk's next cyclic distance in
    either direction, and ``g`` reads ``dd`` alone.  Each hop bisects the
    ladder, and a walk past GREEDY_HOP_LIMIT is refused first.  The spec is
    checked once.
    """
    ladder = _ladder(spec)
    n = spec.n
    half = n // 2
    gens = spec.generatrices

    def hops_of(off: int) -> int:
        _check_walk(spec, 0, off)
        d = off if off <= half else n - off
        hops = 0
        while d:
            if hops == n:
                raise RoutingError(f"greedy walk from 0 to {off} exceeded {n} hops")
            d -= gens[bisect_left(ladder, d)]
            if d < 0:
                d = -d
            hops += 1
        return hops

    return hops_of


def _hop_tally(spec: CirculantSpec, offsets, batch: bool = True) -> dict[int, int]:
    """Walk each offset's greedy distance from node 0; map each hop count to its packets.

    A batch on at most 256 nodes is one byte per packet, and every cycle
    advances them all one hop with ``bytes.translate`` through the spec's
    checked list: delivered bytes stay 0, bytes of offsets n..255 map to
    themselves, and each cycle's new zeros are the packets delivered on that
    hop.  A batch on more nodes, up to NEXT_DISTANCE_NODE_LIMIT, walks the
    list from each offset into k * (s // 2) + 1 slots.  Either walk raises
    RoutingError past k * (s // 2) hops (greedy walks are shortest), naming
    the first such offset.  Any other run counts ``_hop_counter``.
    """
    n = spec.n
    if not batch or n > NEXT_DISTANCE_NODE_LIMIT:
        return Counter(map(_hop_counter(spec), offsets))
    nxt = _next_distances(n, spec.generatrices, _ladder(spec))
    bound = spec.k * (spec.s // 2)
    counts = [0] * (bound + 1)
    if n <= 256:
        start = live = bytes(offsets)
        counts[0] = delivered = live.count(0)
        table = bytes([0, *nxt[1:], *range(n, 256)])
        for hops in range(1, bound + 1):
            if delivered == len(live):
                break
            live = live.translate(table)
            counts[hops] = live.count(0) - delivered
            delivered += counts[hops]
        if delivered < len(live):
            off = start[len(live) - len(live.lstrip(b"\0"))]
            raise RoutingError(f"greedy walk from 0 to {off} exceeded {bound} hops")
    else:
        for off in offsets:
            d = off
            hops = 0
            while d:
                d = nxt[d]
                hops += 1
            try:
                counts[hops] += 1
            except IndexError:
                raise RoutingError(f"greedy walk from 0 to {off} exceeded {bound} hops") from None
    return {hops: count for hops, count in enumerate(counts) if count}


@dataclass(frozen=True)
class StretchReport:
    """Greedy hop counts compared against BFS distance over all ordered pairs."""

    label: str
    pairs: int
    max_stretch: float
    avg_stretch: float
    worst_pairs: list  # (src, dst, greedy_hops, shortest_hops), stretch > 1 only


def stretch_report(spec: CirculantSpec) -> StretchReport:
    """Exhaustive stretch survey; refuses instances above STRETCH_NODE_LIMIT nodes."""
    from .metrics import _route  # here, so a greedy run never loads the route core

    hops_of = _hop_counter(spec)
    _guard(spec.label, spec.n, STRETCH_NODE_LIMIT)
    n = spec.n
    # greedy hops and shortest distance depend only on the offset (dst - src) mod n
    total = 0.0
    worst_ratio = 0.0
    stretched = []  # (offset, greedy_hops, shortest_hops) where stretch > 1
    for offset in range(1, n):
        greedy_hops = hops_of(offset)
        shortest = sum(hops for _, hops in _route(spec, offset))
        ratio = greedy_hops / shortest
        total += ratio
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            stretched.append((offset, greedy_hops, shortest))
    worst = [
        (src, (src + off) % n, hops, best) for src in range(n) for off, hops, best in stretched
    ]
    pairs = n * (n - 1)
    worst.sort(key=lambda t: (-t[2] / t[3], t[0], t[1]))  # worst first, then src, dst
    return StretchReport(
        label=spec.label,
        pairs=pairs,
        max_stretch=worst_ratio,
        avg_stretch=total / (n - 1),
        worst_pairs=worst,
    )
