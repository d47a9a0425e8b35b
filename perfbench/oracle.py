"""Correctness oracle that shares no code with the package under test.

Distances come from a breadth-first search from node 0, written here with
numpy.  A circulant is vertex transitive, so dist(u, v) = dist0[(v - u) mod n].
The port numbering and the traffic generator are re-derived from their
documented definitions, not imported.
"""

from __future__ import annotations

import json
import math

import numpy as np


def distances(s: int, k: int) -> np.ndarray:
    """Hop distance from node 0 to every node of MC(s, k)."""
    n = s**k
    steps = np.array(sorted({(sign * s**j) % n for j in range(k) for sign in (1, -1)}))
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.array([0])
    d = 0
    while frontier.size:
        d += 1
        reached = np.unique((frontier[:, None] + steps[None, :]).ravel() % n)
        frontier = reached[dist[reached] < 0]
        dist[frontier] = d
    return dist


def ports(s: int, k: int) -> list[tuple[int, int]]:
    """(generatrix, sign) of port codes 1..P, in code order.

    Largest generatrix first, minus before plus, and a single (+) port for a
    generatrix g with 2g = n.
    """
    n = s**k
    out = []
    for j in range(k - 1, -1, -1):
        g = s**j
        out.extend([(g, 1)] if 2 * g == n else [(g, -1), (g, 1)])
    return out


def ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def lcg_pairs(n: int, count: int, seed: int):
    """The documented random traffic: x' = (1664525 x + 1013904223) mod 2**32."""
    x = seed % 2**32

    def draw():
        nonlocal x
        x = (1664525 * x + 1013904223) % 2**32
        return x % n

    for _ in range(count):
        src = draw()
        dst = draw()
        while dst == src:
            dst = draw()
        yield src, dst


def simulate_pairs(n: int, opts: dict) -> list[tuple[int, int]]:
    """The pairs a `simulate` request injects, from its --traffic pair: or random:N."""
    traffic = opts["--traffic"]
    if traffic.startswith("pair:"):
        _, src, dst = traffic.split(":")
        return [(int(src), int(dst))]
    count = int(traffic.split(":")[1])
    return list(lcg_pairs(n, count, int(opts.get("--seed", 0))))


class Oracle:
    """Distance tables per (s, k), built on first use."""

    def __init__(self):
        self._dist = {}

    def dist(self, s: int, k: int) -> np.ndarray:
        if (s, k) not in self._dist:
            self._dist[(s, k)] = distances(s, k)
        return self._dist[(s, k)]

    # -- simulator reports -------------------------------------------------

    def expected_histogram(self, s, k, pairs=None) -> dict:
        """Hop histogram of shortest routes over `pairs`, or over all ordered pairs."""
        dist = self.dist(s, k)
        n = s**k
        if pairs is None:
            levels = np.bincount(dist[1:])
            return {d: int(c) * n for d, c in enumerate(levels) if c}
        hist: dict[int, int] = {}
        for src, dst in pairs:
            h = int(dist[(dst - src) % n])
            hist[h] = hist.get(h, 0) + 1
        return hist

    @staticmethod
    def check_report(doc: dict, mode: str, hist: dict) -> list[str]:
        """Compare a report (as sim_report_document gives it) with the oracle.

        Greedy hops can never be below the distance, so an equal histogram
        also means every greedy packet took exactly the oracle distance.
        """
        injected = sum(hist.values())
        total = sum(h * c for h, c in hist.items())
        want = {
            "mode": mode,
            "injected": injected,
            "delivered": injected,
            "hop_histogram": {str(h): c for h, c in sorted(hist.items())},
            "avg_hops": total / injected,
            "max_hops": max(hist),
            "total_cycles": max(hist),
        }
        return [
            f"{key}: got {doc.get(key)!r}, oracle {value!r}"
            for key, value in want.items()
            if doc.get(key) != value
        ]

    # -- CLI outputs -------------------------------------------------------

    def check_walk(self, s, k, path, src, dst) -> list[str]:
        n = s**k
        steps = {(sign * g) % n for g, sign in ports(s, k)}
        errors = []
        if not path or path[0] != src or path[-1] != dst:
            errors.append(f"route does not run from {src} to {dst}")
        if any((v - u) % n not in steps for u, v in zip(path, path[1:])):
            errors.append("route has a step that is not an edge")
        want = int(self.dist(s, k)[(dst - src) % n])
        if len(path) - 1 != want:
            errors.append(f"route has {len(path) - 1} hops, oracle distance {want}")
        return errors

    def check_cli(self, argv: list[str], out: str) -> list[str]:
        """Check one CLI request's standard output against the oracle."""
        opts = dict(zip(argv[1::2], argv[2::2]))
        s, k = int(opts["--s"]), int(opts["--k"])
        n = s**k
        cmd = argv[0]
        try:
            if cmd == "gen":
                return self._check_gen(s, k, json.loads(out))
            if cmd == "metrics":
                return self._check_metrics(s, k, argv, out)
            if cmd == "route":
                return self._check_route(s, k, opts, out)
            if cmd == "simulate":
                mode = "source_routed" if opts["--algo"] == "bfs" else "greedy"
                hist = self.expected_histogram(s, k, simulate_pairs(n, opts))
                return self.check_report(json.loads(out), mode, hist)
            if cmd == "memory":
                p = ceil_log2(n)
                per_node = 2 * p + k * (ceil_log2(s ** (k - 1)) + 1) + 3 * ceil_log2(k) + 2
                want = f"per_node_bits: {per_node}\ntotal_bits: {n * per_node}\naddress_bits: {p}\n"
                return [] if out == want else [f"memory output {out!r}, oracle {want!r}"]
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable {cmd} output: {exc!r}"]
        return [f"no oracle for command {cmd}"]

    def _check_gen(self, s, k, doc) -> list[str]:
        want = {
            "s": s,
            "k": k,
            "n": s**k,
            "generatrices": [s**j for j in range(k)],
            "ports": [
                {"code": code, "gen": g, "sign": sign}
                for code, (g, sign) in enumerate(ports(s, k), start=1)
            ],
        }
        return [] if doc == want else ["topology document differs from the oracle"]

    def _check_metrics(self, s, k, argv, out) -> list[str]:
        n = s**k
        dist = self.dist(s, k)
        diam = int(dist.max())
        avg = float(int(dist.sum())) / (n - 1)
        mesh_d = 2.0 * (math.sqrt(n) - 1.0)
        mesh_a = 2.0 * (n - 1) / (3.0 * math.sqrt(n))
        # the paper's closed forms, printed for s = 2 only
        closed_d = (k + 1) // 2 if s == 2 else None
        closed_a = k / 3.0 if s == 2 and k >= 2 else None
        label = f"MC({s},{k})"
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
        if fmt == "json":
            want = {
                "label": label, "n": n, "diameter": diam, "avg_distance": avg,
                "analytic_diameter": closed_d, "analytic_avg": closed_a,
                "mesh_diameter": mesh_d, "mesh_avg": mesh_a,
            }
            got = json.loads(out)
            bad = [key for key in want if got.get(key) != want[key]]
            return [f"metrics json differs from the oracle in {bad}"] if bad else []
        if fmt == "csv":
            lines = [
                "spec,n,d_circ,l_av_circ,d_mesh,l_av_mesh",
                f'"{label}",{n},{diam},{avg:.2f},{mesh_d:.2f},{mesh_a:.2f}',
            ]
        else:
            lines = [f"spec: {label}", f"n: {n}", f"diameter: {diam}", f"avg_distance: {avg:.2f}"]
            if closed_d is not None:
                lines.append(f"closed_form_diameter: {closed_d}")
            if closed_a is not None:
                lines.append(f"closed_form_avg: {closed_a:.2f}")
            if "--mesh-compare" in argv:
                lines += [f"mesh_diameter: {mesh_d:.2f}", f"mesh_avg: {mesh_a:.2f}"]
        want = "\n".join(lines) + "\n"
        return [] if out == want else [f"metrics {fmt} output {out!r}, oracle {want!r}"]

    def _check_route(self, s, k, opts, out) -> list[str]:
        n = s**k
        src, dst = int(opts["--from"]), int(opts["--to"])
        lines = out.splitlines()
        path = [int(v) for v in lines[0].split()]
        errors = self.check_walk(s, k, path, src, dst)
        if len(lines) != 2:
            return errors + [f"route printed {len(lines)} lines, expected 2"]
        fields = dict(item.split("=", 1) for item in lines[1].split()[1:])
        if opts["--algo"] == "greedy":
            p = ceil_log2(n)
            if fields != {"dst_bits": format(dst, f"0{p}b"), "address_bits": str(p)}:
                errors.append(f"greedy packet line {lines[1]!r} is wrong")
            return errors
        table = ports(s, k)
        b = ceil_log2(len(table) + 1)
        if int(fields["bits_per_hop"]) != b or int(fields["hops"]) != len(path) - 1:
            errors.append(f"packet framing {lines[1]!r} does not match the route")
        # groups print last hop first; decode and walk from src
        codes = [int(group, 2) for group in reversed(fields["bits"].split("|"))]
        node, walk = src, [src]
        for code in codes[: len(path) - 1]:
            if not 1 <= code <= len(table):
                return errors + [f"packet holds port code {code}"]
            g, sign = table[code - 1]
            node = (node + sign * g) % n
            walk.append(node)
        if walk != path:
            errors.append("packet does not decode to the printed route")
        return errors
