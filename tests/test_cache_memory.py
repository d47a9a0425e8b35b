"""The README's worst-case memory of the route caches, measured with tracemalloc.

Each test builds one cache at its worst admitted spec and checks the bytes
it holds afterwards, and the peak while it is built, against the bound the
README's "Worst-case cache memory" list states.
"""

import tracemalloc

import pytest

from mcnoc import make_multiplicative, metrics, static_route
from mcnoc.greedy_route import NEXT_DISTANCE_NODE_LIMIT, _ladder, _next_distances
from mcnoc.metrics import BFS_NODE_LIMIT
from mcnoc.static_route import FIELD_LIST_BYTES

MIB = 2**20


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
        tables = metrics._halves(spec, spec.k // 2)
        for high in range(len(tables[2])):
            metrics._half(spec, tables, True, high)
        for low in range(len(tables[1])):
            metrics._half(spec, tables, False, low)
        return tables

    metrics._halves.cache_clear()
    held, peak = traced(fill)
    assert held <= 4.5 * MIB and peak <= 4.5 * MIB


@pytest.mark.parametrize("sk", [(256, 2), (65536, 1)])
def test_next_distance_list_at_the_node_limit(sk):
    spec = make_multiplicative(*sk)
    assert spec.n == NEXT_DISTANCE_NODE_LIMIT
    ladder = _ladder(spec)
    _next_distances.cache_clear()
    held, peak = traced(lambda: _next_distances(spec.n, spec.generatrices, ladder))
    assert held <= 1.5 * MIB and peak <= 2.25 * MIB
