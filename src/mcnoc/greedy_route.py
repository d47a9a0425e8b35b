"""Greedy routing specialised to multiplicative circulants.

Each router knows only its own number, the destination carried by the
packet, and the generatrix ladder (s**0 .. s**(k-1)).  Per hop it computes
the cyclic offset to the destination, picks the shorter rotation direction
(ties go to +), and jumps by the generatrix closest to the remaining
distance in that direction (ties go to the smaller one).  Because the chosen
generatrix never overshoots by more than it advances, the cyclic distance
strictly decreases every hop and the walk terminates on its own.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GuardLimitError, RoutingError
from .metrics import _tree
from .topology import CirculantSpec


class GreedyDecision(NamedTuple):
    """One routing step with the quantities that led to it."""

    direction: int  # +1 or -1 around the ring
    distance_in_direction: int  # hops-worth of offset still to cover
    g_lo: int  # largest generatrix <= that distance
    g_hi: int  # next larger generatrix (= g_lo at the top of the ladder)
    chosen: int
    next_node: int


def _check_spec(spec: CirculantSpec):
    if not spec.is_multiplicative:
        raise ValueError(f"greedy routing needs a multiplicative circulant, got {spec.label}")


def _check_node(spec: CirculantSpec, name: str, v: int):
    if not 0 <= v < spec.n:
        raise ValueError(f"{name} {v} outside 0..{spec.n - 1}")


def relative_dest(spec: CirculantSpec, current: int, dst: int) -> int:
    """Cyclic offset (dst - current) mod n seen by the router."""
    _check_node(spec, "current", current)
    _check_node(spec, "destination", dst)
    return (dst - current) % spec.n


def next_hop(spec: CirculantSpec, current: int, dst: int) -> GreedyDecision:
    """The greedy step taken at ``current`` for a packet headed to ``dst``."""
    _check_spec(spec)
    _check_node(spec, "current", current)
    _check_node(spec, "destination", dst)
    if current == dst:
        raise ValueError("already at the destination, no hop to take")
    n = spec.n
    gens = spec.generatrices
    offset = (dst - current) % n
    if 2 * offset <= n:
        direction, dd = 1, offset
    else:
        direction, dd = -1, n - offset
    i = bisect_right(gens, dd) - 1
    g_lo = gens[i]
    g_hi = gens[i + 1] if i + 1 < spec.k else g_lo
    chosen = g_lo if (dd - g_lo) <= (g_hi - dd) else g_hi
    return GreedyDecision(
        direction=direction,
        distance_in_direction=dd,
        g_lo=g_lo,
        g_hi=g_hi,
        chosen=chosen,
        next_node=(current + direction * chosen) % n,
    )


def greedy_path(spec: CirculantSpec, src: int, dst: int) -> list[int]:
    """Node list of the greedy walk from src to dst (just [src] if equal)."""
    _check_spec(spec)
    _check_node(spec, "source", src)
    _check_node(spec, "destination", dst)
    n = spec.n
    gens = spec.generatrices
    k = spec.k
    path = [src]
    cur = src
    # same decision rule as next_hop, inlined for the all-pairs sweeps
    for _ in range(n):
        if cur == dst:
            return path
        offset = (dst - cur) % n
        if 2 * offset <= n:
            sign, dd = 1, offset
        else:
            sign, dd = -1, n - offset
        i = bisect_right(gens, dd) - 1
        g = gens[i]
        if i + 1 < k:
            g_hi = gens[i + 1]
            if (dd - g) > (g_hi - dd):
                g = g_hi
        cur = (cur + sign * g) % n
        path.append(cur)
    raise RoutingError(f"greedy walk from {src} to {dst} exceeded {n} hops")


@dataclass(frozen=True)
class StretchReport:
    """Greedy hop counts compared against BFS distance over all ordered pairs."""

    label: str
    pairs: int
    max_stretch: float
    avg_stretch: float
    worst_pairs: list  # (src, dst, greedy_hops, shortest_hops), stretch > 1 only


def stretch_report(spec: CirculantSpec, *, limit: int = 10_000) -> StretchReport:
    """Exhaustive stretch survey; refuses instances with more than ``limit`` nodes."""
    _check_spec(spec)
    if spec.n > limit:
        raise GuardLimitError(f"{spec.label} has {spec.n} nodes, above the {limit} guard")
    n = spec.n
    # greedy hops and BFS distance depend only on the offset (dst - src) mod n
    dist = _tree(spec).dist
    total = 0.0
    worst_ratio = 0.0
    stretched = []  # (offset, greedy_hops, shortest_hops) where stretch > 1
    for offset in range(1, n):
        greedy_hops = len(greedy_path(spec, 0, offset)) - 1
        shortest = dist[offset]
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
