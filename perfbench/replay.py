"""Traced replays: the public calls a command or a `run` call makes, one span each.

`simulator.run` forwards each packet through calls the package exports, so
the replay makes the same calls in the same order from outside the package:
`metrics.diameter` once per source-routed batch, then per packet
`shortest_path`, `path_to_actions`, `encode_path`, and `consume_step` and
`apply_action` per hop; or `greedy_path`, then `next_hop` per hop.  The real
call is timed in its own span next to its replay, so the difference is the
simulator's own overhead.
"""

from __future__ import annotations

from mcnoc import (
    TrafficPattern,
    apply_action,
    build_packet,
    compare_row,
    consume_step,
    diameter,
    encode_path,
    greedy_path,
    make_multiplicative,
    memory_bits,
    next_hop,
    path_to_actions,
    run,
    shortest_path,
    sim_report_document,
    topology_document,
)

from spans import GROUPS


class ReplayError(Exception):
    """The replay disagreed with the call it mirrors."""


def replay_run(tracer, spec, mode, traffic, seed, ids, parent=-1) -> dict:
    """Replay one `run` call; returns its hop histogram."""
    batch_id = next(ids)
    batch = tracer.open("batch", parent, batch_id)
    pairs = tracer.call(
        "simulator.traffic", batch, batch_id, lambda: list(traffic.pairs(spec, default_seed=seed))
    )
    histogram: dict[int, int] = {}
    if mode == "source_routed":
        capacity = tracer.call("metrics.diameter", batch, batch_id, diameter, spec)
    for src, dst in pairs:
        pid = next(ids)
        packet_span = tracer.open("packet", batch, pid)
        node, hops = src, 0
        if mode == "source_routed":
            path = tracer.call("static_route.shortest_path", packet_span, pid,
                               shortest_path, spec, src, dst)
            actions = tracer.call("static_route.path_to_actions", packet_span, pid,
                                  path_to_actions, spec, path)
            packet = tracer.call("static_route.encode_path", packet_span, pid,
                                 encode_path, spec, actions, dst, capacity)
            while True:
                action, packet = tracer.call("static_route.consume_step", packet_span, pid,
                                             consume_step, spec, packet)
                if action is None:
                    break
                node = tracer.call("topology.apply_action", packet_span, pid,
                                   apply_action, spec, node, action)
                hops += 1
        else:
            path = tracer.call("greedy_route.greedy_path", packet_span, pid,
                               greedy_path, spec, src, dst)
            walk = [src]
            while node != dst and hops <= spec.n:
                node = tracer.call("greedy_route.next_hop", packet_span, pid,
                                   next_hop, spec, node, dst).next_node
                walk.append(node)
                hops += 1
            if walk != path:
                raise ReplayError(f"next_hop walk {src}->{dst} differs from greedy_path")
        tracer.close(packet_span)
        if node != dst:
            raise ReplayError(f"replayed packet for {dst} stopped at {node}")
        histogram[hops] = histogram.get(hops, 0) + 1
    tracer.close(batch)
    return dict(sorted(histogram.items()))


def traced_run(tracer, spec, mode, traffic, seed, ids, parent=-1) -> dict:
    """Time the real `run`, then replay it; returns the report document."""
    report = tracer.call("simulator.run", parent, next(ids), run, spec, mode, traffic, seed)
    histogram = replay_run(tracer, spec, mode, traffic, seed, ids, parent)
    if histogram != report.hop_histogram:
        raise ReplayError("replayed hop histogram differs from the run report")
    return sim_report_document(report)


def overhead_seconds(tracer) -> float:
    """Time of the real `run` calls minus the layer calls replayed for them.

    `next_hop` is left out: `run` never calls it, the replay adds it to time
    greedy decisions one by one.
    """
    inside: set[int] = set()
    run_ns = replayed_ns = 0
    for i, (name, start, end, parent) in enumerate(
        zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    ):
        if name == "simulator.run":
            run_ns += end - start
        elif name == "batch" or parent in inside:
            inside.add(i)
            if name not in GROUPS and name != "greedy_route.next_hop":
                replayed_ns += end - start
    return (run_ns - replayed_ns) / 1e9


def traffic_of(text: str, seed: int) -> TrafficPattern:
    """The pattern the CLI builds from --traffic (all | random:N | pair:SRC:DST)."""
    if text == "all":
        return TrafficPattern.all_pairs()
    if text.startswith("random:"):
        return TrafficPattern.random_pairs(int(text.split(":", 1)[1]), seed=seed)
    _, src, dst = text.split(":")
    return TrafficPattern.single(int(src), int(dst))


def replay_request(tracer, args, trace_id, ids) -> object:
    """Time the library calls one CLI command dispatches to.

    `args` is the namespace the CLI's own parser returned.  Returns a value
    the caller compares with the command's printed output.
    """
    spec = tracer.call("topology.make_multiplicative", -1, trace_id,
                       make_multiplicative, args.s, args.k)
    if args.command == "gen":
        return tracer.call("topology.topology_document", -1, trace_id, topology_document, spec)
    if args.command == "metrics":
        return tracer.call("metrics.compare_row", -1, trace_id, compare_row, spec)
    if args.command == "memory":
        return tracer.call("metrics.memory_bits", -1, trace_id, memory_bits, spec)
    if args.command == "route":
        if args.algo == "greedy":
            return tracer.call("greedy_route.greedy_path", -1, trace_id,
                               greedy_path, spec, args.src, args.dst)
        path = tracer.call("static_route.shortest_path", -1, trace_id,
                           shortest_path, spec, args.src, args.dst)
        if args.show_packet:
            packet = tracer.call("static_route.build_packet", -1, trace_id,
                                 build_packet, spec, args.src, args.dst)
            return path, packet.bits()
        return path
    if args.command == "simulate":
        mode = "source_routed" if args.algo == "bfs" else "greedy"
        traffic = traffic_of(args.traffic, args.seed)
        return traced_run(tracer, spec, mode, traffic, args.seed, ids)
    raise ReplayError(f"no replay for command {args.command}")
