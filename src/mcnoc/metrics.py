"""Distance metrics and the route core for circulants, and the square-mesh reference formulas.

One breadth-first search, in ascending port-code order with the first-found
predecessor kept, serves the general circulants.  The tree from node 0,
shifted by src, is the tree from src, so each spec needs one cached tree.
Pass ``all_pairs=True`` to re-derive the metrics from every source.

MC(s, k) needs no tree.  An offset x is reached by c_j hops along s**j with
x = sum c_j * s**j (mod s**k), at cost sum |c_j|, and a digit DP over the
base-s digits of x finds the least cost (``_digit_hops``); summed over every
x it gives the diameter and the distance total (``_digit_distances``).  The
route the search records is the least port-code sequence among shortest
paths, which the DP also returns (see README), so a route is one DP.  Both
keep the search's node guard.  ``_distances`` and ``_route`` choose between
DP and tree; a route is port-code runs ``[(code, hops), ...]`` in ascending
code order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from .topology import (
    CirculantSpec, _at_least, _check_float, _check_node, _guard, ceil_log2, neighbor_offsets,
)

# Largest node count the search accepts: a 2**20-node tree already costs
# seconds and tens of megabytes in pure Python.
BFS_NODE_LIMIT = 2**20


def _check_size(spec: CirculantSpec):
    _guard(spec.label, spec.n, BFS_NODE_LIMIT, "BFS guard")


def _bfs(spec: CirculantSpec, src: int) -> tuple[list[int], list[int]]:
    """Hop distance and BFS-tree predecessor of every node, seen from src."""
    _check_size(spec)
    _check_node(spec, "source", src)
    n = spec.n
    offsets = neighbor_offsets(spec)
    dist = [-1] * n
    pred = [-1] * n
    dist[src] = 0
    pred[src] = src
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for off in offsets:
            v = (u + off) % n
            if dist[v] < 0:
                dist[v] = du
                pred[v] = u
                queue.append(v)
    return dist, pred


class _Distances(NamedTuple):
    pred: list[int] | None  # the node-0 tree; None on MC(s, k), whose routes need none
    diameter: int
    total: int


@lru_cache(maxsize=8)
def _tree(spec: CirculantSpec) -> _Distances:
    """The BFS tree from node 0; by translation, every node's tree."""
    dist, pred = _bfs(spec, 0)
    return _Distances(pred, max(dist), sum(dist))


def _tree_path(pred: list[int], node: int) -> list[int]:
    """Nodes from the tree's root (its own predecessor) to node."""
    path = [node]
    while pred[node] != node:
        node = pred[node]
        path.append(node)
    path.reverse()
    return path


def _search_route(spec: CirculantSpec, src: int, dst: int) -> list[int]:
    """The route src -> dst that a fresh search from src records, with no cached tree."""
    return _tree_path(_bfs(spec, src)[1], dst)


# Digit j of x, with carry t in {0, 1} from below, leaves v = r_j + t to
# cover: c_j = v with carry 0 out, or c_j = v - s with carry 1 out.  Low
# digits need no other choice, since s hops along s**j cost more than one
# along s**(j+1).  The top digit drops its carry.


def _carries(s: int, r: int, cost: tuple) -> tuple:
    """Least costs with carry 0 and 1 out of low digit r, from those with carry 0 and 1 in."""
    in0, in1 = cost
    return min(in0 + r, in1 + r + 1), min(in0 + s - r, in1 + s - r - 1)


def _top(s: int, v: int) -> int:
    """Top coefficient: the least |c| with c = v (mod s), the minus side on a tie."""
    c = v % s
    return c - s if 2 * c >= s else c


def _digit_hops(s: int, k: int, x: int) -> list[int]:
    """Hop counts c_(k-1)..c_0 of the route the node-0 search records to x on MC(s, k).

    Among least-cost vectors it takes the most hops on the first port code:
    the most negative c_(k-1), else the largest, then the same for c_(k-2),
    and so on down.  At a low digit that means a carry in unlike the carry
    out whenever the costs allow it.  On a ring (k = 1) it is ``_top(s, x)``.
    """
    digits = []
    for _ in range(k):
        x, r = divmod(x, s)
        digits.append(r)
    costs = [(0, math.inf)]  # costs[j]: least cost of digits below j, per carry into j
    for r in digits[:-1]:
        costs.append(_carries(s, r, costs[-1]))
    in0, in1 = costs[-1]
    a, b = _top(s, digits[-1]), _top(s, digits[-1] + 1)
    ta, tb = in0 + abs(a), in1 + abs(b)
    carry = 1 if tb < ta or (tb == ta and (b < 0, abs(b)) > (a < 0, abs(a))) else 0
    hops = [b if carry else a]
    for j in range(k - 2, -1, -1):
        r = digits[j]
        t = 1 - carry
        c = r + t - s * carry
        if costs[j][t] + abs(c) != costs[j + 1][carry]:
            t = carry
            c = r + t - s * carry
        hops.append(c)
        carry = t
    return hops


@lru_cache(maxsize=8)
def _ports(spec: CirculantSpec) -> tuple:
    """(minus, plus) port codes per generatrix of MC(s, k), largest generatrix first.

    The node guard runs here, so a warm route skips it and a refused spec,
    never cached, raises on every call.
    """
    _check_size(spec)
    code = neighbor_offsets(spec).index
    return tuple((code(spec.n - g) + 1, code(g) + 1) for g in reversed(spec.generatrices))


def _route(spec: CirculantSpec, offset: int) -> list[tuple[int, int]]:
    """Runs (code, hops), ascending by code, of the route 0 -> offset the node-0 search records.

    On MC(s, k), rings included, they are the nonzero hop counts of one
    ``_digit_hops`` call; a general circulant reads its cached tree.
    """
    if not spec.is_multiplicative:
        codes = neighbor_offsets(spec).index
        path = _tree_path(_tree(spec).pred, offset)
        steps = [codes((v - u) % spec.n) + 1 for u, v in zip(path, path[1:])]
        return [(code, len(list(run))) for code, run in groupby(steps)]
    ports = _ports(spec)  # ascending codes: the largest generatrix first, minus before plus
    hops = _digit_hops(spec.s, spec.k, offset)
    return [(port[c > 0], abs(c)) for port, c in zip(ports, hops) if c]


@lru_cache(maxsize=256)
def _digit_distances(spec: CirculantSpec) -> _Distances:
    """Diameter and distance total over every offset of MC(s, k), in O(k * s**2)."""
    _check_size(spec)
    s = spec.s
    # The costs per carry, less the carry-0 cost, form the state d; per d keep
    # the count of digit prefixes, and the sum and max of their carry-0 cost.
    states = {math.inf: (1, 0, 0)}
    for _ in range(spec.k - 1):
        grown: dict = {}
        for d, (count, total, worst) in states.items():
            for r in range(s):
                out0, out1 = _carries(s, r, (0, d))
                c, t, w = grown.get(out1 - out0, (0, 0, 0))
                grown[out1 - out0] = (c + count, t + total + count * out0, max(w, worst + out0))
        states = grown
    diameter = total_cost = 0
    for d, (count, total, worst) in states.items():
        for r in range(s):
            last = min(abs(_top(s, r)), d + abs(_top(s, r + 1)))
            total_cost += total + count * last
            diameter = max(diameter, worst + last)
    return _Distances(None, diameter, total_cost)


def _distances(spec: CirculantSpec) -> _Distances:
    """The cached record holding ``diameter`` and ``total`` of spec's distance profile."""
    return _digit_distances(spec) if spec.is_multiplicative else _tree(spec)


def bfs_distances(spec: CirculantSpec, src: int) -> np.ndarray:
    """Hop distance from src to every node, as an int64 array of length n."""
    import numpy as np  # on first use, so importing the package or the CLI never loads numpy

    return np.asarray(_bfs(spec, src)[0], dtype=np.int64)


def diameter(spec: CirculantSpec, *, all_pairs: bool = False) -> int:
    if not all_pairs:
        return _distances(spec).diameter
    return max(max(_bfs(spec, src)[0]) for src in range(spec.n))


def average_distance(spec: CirculantSpec, *, all_pairs: bool = False) -> float:
    """Mean hop distance over ordered pairs (i, j) with i != j."""
    n = spec.n
    if not all_pairs:
        return _distances(spec).total / (n - 1)
    total = sum(sum(_bfs(spec, src)[0]) for src in range(n))
    return total / (n * (n - 1))


def analytic_diameter_mc2(k: int) -> int:
    """Closed-form diameter of MC(2, k)."""
    _at_least("k", k, 1)
    return (k + 1) // 2


def analytic_avg_mc2(k: int) -> float:
    """Closed-form estimate k/3 of the MC(2, k) average distance.

    This is an estimate, not an identity; it approaches the brute-force
    value as k grows but does not match it exactly.
    """
    _at_least("k", k, 2)
    _check_float("k", k)
    return k / 3.0


def mesh_diameter(n: int) -> float:
    """Diameter 2*(sqrt(n) - 1) of the sqrt(n) x sqrt(n) mesh-of-rings."""
    _at_least("n", n, 1)
    _check_float("n", n)
    return 2.0 * (math.sqrt(n) - 1.0)


def mesh_avg(n: int) -> float:
    """Average distance 2*(n - 1) / (3*sqrt(n)) of the square mesh."""
    _at_least("n", n, 1)
    _check_float("n", n)
    return 2.0 * (n - 1) / (3.0 * math.sqrt(n))


@dataclass(frozen=True)
class MetricsRow:
    """One comparison row: a circulant instance against the equal-size mesh."""

    label: str
    n: int
    diameter: int
    avg_distance: float
    analytic_diameter: int | None
    analytic_avg: float | None
    mesh_diameter: float
    mesh_avg: float


def compare_row(spec: CirculantSpec) -> MetricsRow:
    """The spec's cached distance profile, the mesh reference, and closed forms for s = 2."""
    has_closed_form = spec.s == 2
    return MetricsRow(
        label=spec.label,
        n=spec.n,
        diameter=diameter(spec),
        avg_distance=average_distance(spec),
        analytic_diameter=analytic_diameter_mc2(spec.k) if has_closed_form else None,
        analytic_avg=analytic_avg_mc2(spec.k) if has_closed_form and spec.k >= 2 else None,
        mesh_diameter=mesh_diameter(spec.n),
        mesh_avg=mesh_avg(spec.n),
    )


METRICS_CSV_HEADER = "spec,n,d_circ,l_av_circ,d_mesh,l_av_mesh"


def metrics_csv_row(row: MetricsRow) -> str:
    """CSV line for one comparison row; reals carry two decimals.

    Labels such as MC(2,4) contain a comma, so the spec field is quoted.
    """
    label = f'"{row.label}"' if "," in row.label else row.label
    return (
        f"{label},{row.n},{row.diameter},{row.avg_distance:.2f},"
        f"{row.mesh_diameter:.2f},{row.mesh_avg:.2f}"
    )


@dataclass(frozen=True)
class MemoryEstimate:
    """Routing-table footprint of one node and of the whole network, in bits."""

    per_node_bits: int
    total_bits: int
    address_bits: int


def memory_bits(spec: CirculantSpec) -> MemoryEstimate:
    """Bit cost of the greedy router state for a multiplicative circulant.

    Per node: destination and current-node registers (address_bits each), k
    generatrix entries of ceil_log2(s**(k-1)) + 1 bits, two index registers
    of ceil_log2(k) bits plus one more for the comparison scratch, and 2
    status bits.
    """
    if not spec.is_multiplicative:
        raise ValueError("memory model is defined for multiplicative circulants only")
    s, k, n = spec.s, spec.k, spec.n
    address_bits = ceil_log2(n)
    gen_entry = ceil_log2(s ** (k - 1)) + 1
    per_node = 2 * address_bits + k * gen_entry + 3 * ceil_log2(k) + 2
    return MemoryEstimate(
        per_node_bits=per_node,
        total_bits=n * per_node,
        address_bits=address_bits,
    )
