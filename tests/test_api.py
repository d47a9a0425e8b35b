import re

import pytest

import mcnoc
from mcnoc import (
    TrafficPattern,
    bfs_distances,
    build_packet,
    greedy_path,
    make_multiplicative,
    neighbors,
    next_hop,
    relative_dest,
    shortest_path,
)

SPEC = make_multiplicative(2, 4)  # n = 16

NODE_ARGUMENTS = [
    ("shortest_path", "source", lambda v: shortest_path(SPEC, v, 3)),
    ("shortest_path", "destination", lambda v: shortest_path(SPEC, 3, v)),
    ("build_packet", "source", lambda v: build_packet(SPEC, v, 3)),
    ("build_packet", "destination", lambda v: build_packet(SPEC, 3, v)),
    ("greedy_path", "source", lambda v: greedy_path(SPEC, v, 3)),
    ("greedy_path", "destination", lambda v: greedy_path(SPEC, 3, v)),
    ("next_hop", "current", lambda v: next_hop(SPEC, v, 3)),
    ("next_hop", "destination", lambda v: next_hop(SPEC, 3, v)),
    ("relative_dest", "current", lambda v: relative_dest(SPEC, v, 3)),
    ("relative_dest", "destination", lambda v: relative_dest(SPEC, 3, v)),
    ("neighbors", "node", lambda v: neighbors(SPEC, v)),
    ("bfs_distances", "source", lambda v: bfs_distances(SPEC, v)),
    ("single.pairs", "source", lambda v: list(TrafficPattern.single(v, 3).pairs(SPEC))),
    ("single.pairs", "destination", lambda v: list(TrafficPattern.single(3, v).pairs(SPEC))),
]


@pytest.mark.parametrize("bad", [-1, SPEC.n])
@pytest.mark.parametrize(
    "name, call",
    [(name, call) for _, name, call in NODE_ARGUMENTS],
    ids=[f"{entry}-{name}" for entry, name, _ in NODE_ARGUMENTS],
)
def test_node_range_message(name, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {bad} outside 0..15')}$"):
        call(bad)


def test_public_names_are_pinned():
    assert sorted(mcnoc.__all__) == [
        "CirculantSpec",
        "CorruptPacketError",
        "GreedyDecision",
        "GuardLimitError",
        "HopAction",
        "MemoryEstimate",
        "MetricsRow",
        "PortCode",
        "RoutingError",
        "SimReport",
        "SourceRoutedPacket",
        "StretchReport",
        "TrafficPattern",
        "analytic_avg_mc2",
        "analytic_diameter_mc2",
        "apply_action",
        "average_distance",
        "bench_route_computation",
        "bfs_distances",
        "bits_per_hop",
        "build_packet",
        "ceil_log2",
        "compare_row",
        "consume_step",
        "diameter",
        "encode_path",
        "greedy_path",
        "make_circulant",
        "make_multiplicative",
        "memory_bits",
        "mesh_avg",
        "mesh_diameter",
        "metrics_csv_row",
        "neighbor_offsets",
        "neighbors",
        "next_hop",
        "path_to_actions",
        "port_count",
        "port_table",
        "relative_dest",
        "run",
        "shortest_path",
        "sim_report_csv",
        "sim_report_document",
        "stretch_report",
        "topology_document",
    ]
    for name in mcnoc.__all__:
        assert hasattr(mcnoc, name), name
