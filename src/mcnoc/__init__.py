"""Network-on-chip toolkit for multiplicative circulant topologies.

Construction and validation of circulant graphs, two routing schemes
(static source routing with port-coded path fields, and greedy routing that
needs only node-local state), distance and memory metrics with square-mesh
reference formulas, and a deterministic forwarding simulator.

Public names resolve on first use (PEP 562), so importing the package, or
one of its modules, compiles only the modules that are used.
"""

import sys

__version__ = "0.1.0"

# module -> the public names it defines; the one list of the package's API
_EXPORTS = {
    "errors": ("CorruptPacketError", "GuardLimitError", "RoutingError"),
    "greedy_route": (
        "GreedyDecision", "StretchReport", "greedy_path", "next_hop", "relative_dest",
        "stretch_report",
    ),
    "metrics": (
        "MemoryEstimate", "MetricsRow", "analytic_avg_mc2", "analytic_diameter_mc2",
        "average_distance", "bfs_distances", "compare_row", "diameter", "memory_bits",
        "mesh_avg", "mesh_diameter", "metrics_csv_row",
    ),
    "simulator": (
        "SimReport", "TrafficPattern", "bench_route_computation", "run", "sim_report_csv",
        "sim_report_document",
    ),
    "static_route": (
        "SourceRoutedPacket", "bits_per_hop", "build_packet", "consume_step", "encode_path",
        "path_to_actions", "shortest_path",
    ),
    "topology": (
        "CirculantSpec", "HopAction", "PortCode", "apply_action", "ceil_log2", "make_circulant",
        "make_multiplicative", "neighbor_offsets", "neighbors", "port_count", "port_table",
        "topology_document",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module behind a public name (or a module itself) and bind it here."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # the interpreter's own import path, which -X importtime reports
    if module == name:
        return sys.modules[qualified]  # the import binds it
    value = getattr(sys.modules[qualified], name)
    globals()[name] = value  # later lookups find it without calling this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
