"""Command line front end.

Six subcommands: ``gen`` (topology document), ``metrics`` (distance metrics
with an optional mesh comparison), ``route`` (one path, optionally with the
packet encoding), ``simulate`` (forwarding run), ``memory`` (router bit
budget), and ``bench`` (route-computation timing sweep).  ``main`` builds
the spec; each command imports what it calls, so a process compiles no more:
``route`` and ``simulate`` load only the router of their ``--algo``.

Exit codes: 0 on success, 1 on usage errors (bad flags, malformed values,
out-of-range arguments, an ``--out`` file that cannot be written), 2 when a
routing or resource invariant is violated.
All numeric output uses '.' as the decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import CorruptPacketError, GuardLimitError, RoutingError
from .topology import ceil_log2, make_multiplicative, topology_document


def _add_spec_args(parser: argparse.ArgumentParser):
    parser.add_argument("--s", type=int, required=True, help="multiplicative base (>= 2)")
    parser.add_argument("--k", type=int, required=True, help="dimension, n = s**k")


def _parse_traffic(text: str, seed: int):
    from .simulator import TrafficPattern

    if text == "all":
        return TrafficPattern.all_pairs()
    if text.startswith("random:"):
        return TrafficPattern.random_pairs(int(text.split(":", 1)[1]), seed=seed)
    if text.startswith("pair:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected pair:SRC:DST, got {text!r}")
        return TrafficPattern.single(int(parts[1]), int(parts[2]))
    raise ValueError(f"traffic must be all, random:N or pair:SRC:DST, got {text!r}")


def cmd_gen(spec, args) -> int:
    text = json.dumps(topology_document(spec), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_metrics(spec, args) -> int:
    from .metrics import METRICS_CSV_HEADER, compare_row, metrics_csv_row

    row = compare_row(spec)
    if args.format == "csv":
        print(METRICS_CSV_HEADER)
        print(metrics_csv_row(row))
    elif args.format == "json":
        print(json.dumps(asdict(row), indent=2))
    else:
        print(f"spec: {row.label}")
        print(f"n: {row.n}")
        print(f"diameter: {row.diameter}")
        print(f"avg_distance: {row.avg_distance:.2f}")
        if row.analytic_diameter is not None:
            print(f"closed_form_diameter: {row.analytic_diameter}")
        if row.analytic_avg is not None:
            print(f"closed_form_avg: {row.analytic_avg:.2f}")
        if args.mesh_compare:
            print(f"mesh_diameter: {row.mesh_diameter:.2f}")
            print(f"mesh_avg: {row.mesh_avg:.2f}")
    return 0


def cmd_route(spec, args) -> int:
    if args.algo == "bfs":
        from .static_route import build_packet, shortest_path

        print(*shortest_path(spec, args.src, args.dst))
        if args.show_packet:
            packet = build_packet(spec, args.src, args.dst)
            print(
                f"packet bits={packet.bits()} bits_per_hop={packet.bits_per_hop} "
                f"hops={packet.hops_encoded}"
            )
    else:
        from .greedy_route import greedy_path

        print(*greedy_path(spec, args.src, args.dst))
        if args.show_packet:
            p = ceil_log2(spec.n)
            print(f"packet dst_bits={args.dst:0{p}b} address_bits={p}")
    return 0


def cmd_simulate(spec, args) -> int:
    from .simulator import run, sim_report_document

    mode = "source_routed" if args.algo == "bfs" else "greedy"
    report = run(spec, mode, _parse_traffic(args.traffic, args.seed), seed=args.seed)
    print(json.dumps(sim_report_document(report), indent=2))
    return 0


def cmd_memory(spec, args) -> int:
    from .metrics import memory_bits

    for name, bits in asdict(memory_bits(spec)).items():
        print(f"{name}: {bits}")
    return 0


def cmd_bench(spec, args) -> int:
    from .simulator import bench_route_computation

    bfs_s = bench_route_computation(spec, "bfs", repeat=args.repeat)
    greedy_s = bench_route_computation(spec, "greedy", repeat=args.repeat)
    print("n,bfs_seconds,greedy_seconds")
    print(f"{spec.n},{bfs_s:.6f},{greedy_s:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcnoc",
        description="Multiplicative-circulant network-on-chip toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit the topology document as JSON")
    _add_spec_args(p)
    p.add_argument("--out", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("metrics", help="distance metrics, optionally against a mesh")
    _add_spec_args(p)
    p.add_argument(
        "--mesh-compare",
        action="store_true",
        help="include the equal-size square mesh in table output",
    )
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("route", help="print one route as a node list")
    _add_spec_args(p)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--algo", choices=("bfs", "greedy"), required=True)
    p.add_argument(
        "--show-packet",
        action="store_true",
        help="also print the packet encoding for the chosen scheme",
    )
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("simulate", help="forward packets and print the run report")
    _add_spec_args(p)
    p.add_argument("--algo", choices=("bfs", "greedy"), required=True)
    p.add_argument(
        "--traffic",
        required=True,
        help="all | random:N | pair:SRC:DST",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("memory", help="router memory budget in bits")
    _add_spec_args(p)
    p.set_defaults(func=cmd_memory)

    p = sub.add_parser("bench", help="time all-pairs route computation per scheme")
    _add_spec_args(p)
    p.add_argument("--repeat", type=int, default=3, help="sweeps per scheme, median wins")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help; fold to our codes
        return 0 if exc.code == 0 else 1
    try:
        return args.func(make_multiplicative(args.s, args.k), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GuardLimitError, CorruptPacketError, RoutingError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
