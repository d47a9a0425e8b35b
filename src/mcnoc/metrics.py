"""Distance metrics for circulants and the square-mesh reference formulas.

One breadth-first search, in ascending port-code order with the first-found
predecessor kept, serves the package.  Circulants are vertex transitive, so
the tree from node 0, shifted by src, is the tree from src: each spec needs
one cached tree, which diameter, average distance and every source route
read.  Pass ``all_pairs=True`` to re-derive the metrics from every source.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GuardLimitError
from .topology import CirculantSpec, neighbor_offsets

# Largest node count the search accepts: a 2**20-node tree already costs
# seconds and tens of megabytes in pure Python.
BFS_NODE_LIMIT = 2**20


def ceil_log2(x: int) -> int:
    """Smallest integer b with 2**b >= x."""
    if x < 1:
        raise ValueError(f"ceil_log2 needs x >= 1, got {x}")
    return (x - 1).bit_length()


def _bfs(spec: CirculantSpec, src: int) -> tuple[list[int], list[int]]:
    """Hop distance and BFS-tree predecessor of every node, seen from src."""
    n = spec.n
    if n > BFS_NODE_LIMIT:
        raise GuardLimitError(f"{spec.label} has {n} nodes, above the {BFS_NODE_LIMIT} BFS guard")
    if not 0 <= src < n:
        raise ValueError(f"source {src} outside 0..{n - 1}")
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


class _Tree(NamedTuple):
    dist: list[int]
    pred: list[int]
    diameter: int


@lru_cache(maxsize=8)
def _tree(spec: CirculantSpec) -> _Tree:
    """The BFS tree from node 0; by translation, every node's tree."""
    dist, pred = _bfs(spec, 0)
    return _Tree(dist, pred, max(dist))


def bfs_distances(spec: CirculantSpec, src: int) -> np.ndarray:
    """Hop distance from src to every node, as an int64 array of length n."""
    return np.asarray(_bfs(spec, src)[0], dtype=np.int64)


def diameter(spec: CirculantSpec, *, all_pairs: bool = False) -> int:
    if not all_pairs:
        return _tree(spec).diameter
    return max(max(_bfs(spec, src)[0]) for src in range(spec.n))


def average_distance(spec: CirculantSpec, *, all_pairs: bool = False) -> float:
    """Mean hop distance over ordered pairs (i, j) with i != j."""
    n = spec.n
    if not all_pairs:
        return sum(_tree(spec).dist) / (n - 1)
    total = sum(sum(_bfs(spec, src)[0]) for src in range(n))
    return total / (n * (n - 1))


def analytic_diameter_mc2(k: int) -> int:
    """Closed-form diameter of MC(2, k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (k + 1) // 2


def analytic_avg_mc2(k: int) -> float:
    """Closed-form estimate k/3 of the MC(2, k) average distance.

    This is an estimate, not an identity; it approaches the brute-force
    value as k grows but does not match it exactly.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return k / 3.0


def mesh_diameter(n: int) -> float:
    """Diameter 2*(sqrt(n) - 1) of the sqrt(n) x sqrt(n) mesh-of-rings."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * (math.sqrt(n) - 1.0)


def mesh_avg(n: int) -> float:
    """Average distance 2*(n - 1) / (3*sqrt(n)) of the square mesh."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    """Brute-force metrics plus mesh reference; closed forms only for s = 2."""
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
