"""The README's worst-case memory of the route caches, the longest greedy walk and random traffic.

Each cache test builds one cache at its worst admitted spec and checks the
bytes it holds afterwards, and the peak while it is built (tracemalloc),
against the bound the README's "Worst-case cache memory" list states.  The
greedy walk's node list is sized with sys.getsizeof, since tracing a walk
of GREEDY_HOP_LIMIT hops takes seconds.
"""

import sys
import tracemalloc
from collections import deque
from itertools import islice

import pytest

from mcnoc import (
    TrafficPattern,
    greedy_path,
    make_circulant,
    make_multiplicative,
    metrics,
    port_table,
    simulator,
    static_route,
)
from mcnoc.greedy_route import GREEDY_HOP_LIMIT, NEXT_DISTANCE_NODE_LIMIT, _ladder, _next_distances
from mcnoc.metrics import BFS_NODE_LIMIT
from mcnoc.simulator import PAIRS
from mcnoc.static_route import FIELD_LIST_BYTES
from mcnoc.topology import MAX_NODES

KIB = 2**10
MIB = 2**20
LCG = (1664525, 1013904223)  # the traffic generator's multiplier and increment


def traced(build):
    """(bytes held after build(), peak bytes while it ran), both above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return held - start, peak - start


@pytest.mark.parametrize("sk", [(5, 7), (5282, 1)])
def test_a_full_field_list_at_its_largest_specs(sk):
    # MC(5,7): 78 125 entries of up to 14 hops of 4 bits, the largest full MC
    # list measured; MC(5282,1): the longest ring within the byte bound
    spec = make_multiplicative(*sk)
    routes = static_route._routes(spec)
    assert spec.n * (40 + routes.capacity * routes.bits // 7) <= FIELD_LIST_BYTES
    for off in range(spec.n):  # fill the route tables first: only the list is measured
        metrics._route(spec, off)
    static_route._field_list.cache_clear()

    def fill():
        fields = static_route._field_list(spec)
        for off in range(spec.n):
            fields[off] = static_route._field(spec, off)
        return fields

    held, peak = traced(fill)
    static_route._field_list.cache_clear()
    metrics._halves.cache_clear()
    assert held <= 3.25 * MIB and peak <= 3.25 * MIB


def test_route_tables_at_their_largest_spec():
    # MC(101,3) is the MC spec below the BFS guard with the most table entries:
    # 101 low and 10 201 high, all filled
    spec = make_multiplicative(101, 3)
    assert spec.n <= BFS_NODE_LIMIT < 102**3

    def fill():
        tables = metrics._halves(spec)
        for high in range(len(tables[1])):
            metrics._half(spec, tables, True, high)
        for low in range(len(tables[0])):
            metrics._half(spec, tables, False, low)
        return tables

    metrics._halves.cache_clear()
    held, peak = traced(fill)
    metrics._halves.cache_clear()
    # 2.65 MiB measured, held and at build, plus a 0.25 MiB margin
    assert held <= 2.9 * MIB and peak <= 2.9 * MIB


def test_digit_distances_for_256_specs():
    # each entry keeps its spec alive, and a spec's generatrices grow with k:
    # the 83 MC(s, k) with k >= 4 below the BFS guard, then rings, the specs
    # computed fastest, up to 256; 154-169 KiB measured, held and at build,
    # plus a 35 KiB margin
    sks = [(s, k) for k in range(4, 21) for s in range(2, 33) if s**k <= BFS_NODE_LIMIT]
    sks += [(s, 1) for s in range(3, 3 + 256 - len(sks))]
    metrics._digit_distances.cache_clear()
    held, peak = traced(lambda: [metrics._digit_distances(make_multiplicative(*sk)) for sk in sks])
    assert metrics._digit_distances.cache_info().currsize == len(sks) == 256
    metrics._digit_distances.cache_clear()
    assert held <= 0.2 * MIB and peak <= 0.2 * MIB


def test_tree_per_node():
    # the 2**20-node tree is too slow to trace, so the bound is per node at
    # 2**16: 18.7 bytes held and 36.6 at build measured, plus 1.3 and 3.4
    spec = make_circulant(2**16, [1, 3, 9])
    metrics._tree.cache_clear()
    held, peak = traced(lambda: metrics._tree(spec))
    metrics._tree.cache_clear()
    assert held <= 20 * spec.n and peak <= 40 * spec.n


def test_port_table_at_the_most_ports():
    # MC(2,30): 59 ports, the most of any MC spec within MAX_NODES
    spec = make_multiplicative(2, 30)
    assert len(port_table(spec)) == 59
    port_table.cache_clear()
    held, peak = traced(lambda: port_table(spec))
    assert held <= 12 * KIB and peak <= 14 * KIB


def test_greedy_path_at_the_hop_limit():
    # the 2**21 + 1 ring walks GREEDY_HOP_LIMIT hops to n // 2; getsizeof
    # leaves out the allocator's rounding of each 28-byte int to 32 bytes
    ring = make_multiplicative(2**21 + 1, 1)
    path = greedy_path(ring, 0, GREEDY_HOP_LIMIT)
    assert len(path) == GREEDY_HOP_LIMIT + 1
    assert sys.getsizeof(path) + sum(map(sys.getsizeof, path)) <= 40 * MIB


@pytest.mark.parametrize("sk", [(256, 2), (65536, 1)])
def test_next_distance_list_at_the_node_limit(sk):
    spec = make_multiplicative(*sk)
    assert spec.n == NEXT_DISTANCE_NODE_LIMIT
    ladder = _ladder(spec)
    _next_distances.cache_clear()
    held, peak = traced(lambda: _next_distances(spec.n, spec.generatrices, ladder))
    assert held <= 1.5 * MIB and peak <= 2.25 * MIB


def test_random_traffic_lane_tables():
    # three ints of PAIRS 64-bit lanes and the block's jump: 13.6 KiB held,
    # 26.2 KiB while built
    simulator._lanes.cache_clear()
    held, peak = traced(lambda: simulator._lanes(*LCG))
    assert held <= 16 * KIB and peak <= 32 * KIB


@pytest.mark.parametrize("n", [2**12, 2**30, MAX_NODES])
def test_random_traffic_holds_one_block(n):
    # reading three blocks' worth of a 10**7-pair offset stream holds one
    # block's offsets and lane ints on a power of two n, and one pair on any
    # other n (MAX_NODES), which is drawn pair by pair as ``pairs`` is; a
    # list of every offset would take 80 MB
    spec = make_circulant(n, [1])
    simulator._lanes(*LCG)
    for stream in (TrafficPattern.random_pairs(10**7, 5)._offsets(spec),
                   TrafficPattern.random_pairs(10**7, 5).pairs(spec)):
        held, peak = traced(lambda: deque(islice(stream, 3 * PAIRS), maxlen=0))
        assert held <= 64 * KIB and peak <= 96 * KIB
