"""The cli-sweep workload: one fresh `python -m mcnoc.cli` process per request.

Requests run one after another from a single caller (a closed loop).
Nothing is shared between them, so every request pays the interpreter,
the import and any table it needs.  No console script is installed; the
package is found through PYTHONPATH=src.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import measure
from cli_child import MARK
from oracle import Oracle, simulate_pairs
from replay import overhead_seconds
from spans import Tracer
from workloads import CLI_TAIL_PCT, cli_requests

CHILD = str(measure.BENCH_DIR / "cli_child.py")


def _opts(argv):
    return dict(zip(argv[1::2], argv[2::2]))


def _spec_of(argv):
    opts = _opts(argv)
    return int(opts["--s"]), int(opts["--k"])


def shortest_path_calls(argv):
    """(spec, n, src, dst) of each `shortest_path` the request makes, in order.

    `route --algo bfs` routes once to print the path and once more inside
    `build_packet`; a source-routed `simulate` routes every packet.
    """
    s, k = _spec_of(argv)
    n = s**k
    opts = _opts(argv)
    if argv[0] == "route" and opts["--algo"] == "bfs":
        src, dst = int(opts["--from"]), int(opts["--to"])
        return [((s, k), n, src, dst)] * (2 if "--show-packet" in argv else 1)
    if argv[0] == "simulate" and opts["--algo"] == "bfs":
        return [((s, k), n, src, dst) for src, dst in simulate_pairs(n, opts)]
    return []


class CliBench(measure.Tally):
    def __init__(self, seed: int):
        super().__init__()
        self.requests = cli_requests(seed)
        self.oracle = Oracle()
        for argv in self.requests:
            self.oracle.dist(*_spec_of(argv))
        # wall time of a fresh interpreter importing mcnoc.cli
        self.setup_samples = measure.setup_samples(
            ["-c", "import mcnoc.cli"], measure.process_scale, lambda proc, wall: wall)
        self.nonzero = 0

    def _check(self, argv, proc, stderr) -> bool:
        errors = []
        if proc.returncode != 0:
            self.nonzero += 1
            errors.append(f"exit code {proc.returncode}")
        if stderr.strip():
            errors.append(f"stderr: {stderr.strip()[:200]}")
        if not errors:
            errors = self.oracle.check_cli(argv, proc.stdout)
        if errors:
            self.fail(f"{' '.join(argv)}: {errors}")
        return not errors

    def request(self, argv):
        """Run one plain CLI request; returns (seconds, stdout or None)."""
        self.attempted += 1
        start = perf_counter()
        try:
            proc = measure.run_child(["-m", "mcnoc.cli", *argv])
        except Exception as exc:  # a hung or unstartable request is a failed one
            self.fail(f"{' '.join(argv)}: {exc!r}")
            return perf_counter() - start, None
        elapsed = perf_counter() - start
        return elapsed, proc.stdout if self._check(argv, proc, proc.stderr) else None

    def untraced(self, seconds: float) -> dict:
        ops = [lambda argv=argv: self.request(argv)[0] for argv in self.requests]
        rounds, elapsed = measure.closed_loop(
            lambda: measure.scaled_round(ops, measure.process_scale), seconds, CLI_TAIL_PCT)
        metrics, self.summary = measure.end_to_end(
            rounds, [1] * len(self.requests), CLI_TAIL_PCT, self.setup_samples,
            measure.peak_rss_mb(children=True))
        self.summary["measured_s"] = elapsed
        return metrics

    # -- traced run --------------------------------------------------------

    def traced_request(self, tracer: Tracer, trace_id: int, argv, plain_out):
        """Run argv under the child driver, then replay its library calls.

        Returns (import s, main s, library s, result of the replay).
        """
        self.attempted += 1
        req = tracer.open("request", -1, trace_id)
        main = measure.run_child([CHILD, "main", *argv])
        lines = main.stderr.splitlines()
        if not lines or not lines[-1].startswith(MARK):
            tracer.close(req)
            self.fail(f"traced {' '.join(argv)}: no record from the child driver")
            return None
        record = json.loads(lines[-1][len(MARK):])
        tracer.add("cli.import", *record["import"], req, trace_id)
        tracer.add("cli.main", *record["main"], req, trace_id)
        self._check(argv, main, "\n".join(lines[:-1]))
        if plain_out is not None and main.stdout != plain_out:
            self.fail(f"traced {' '.join(argv)}: output differs from the untraced request")
        lib = measure.run_child([CHILD, "lib", str(trace_id), *argv])
        tracer.close(req)
        if lib.returncode != 0:
            self.fail(f"replay of {' '.join(argv)} failed: {lib.stderr.strip()[-300:]}")
            return None
        replay = json.loads(lib.stdout)
        tracer.merge(replay["spans"], req)
        top = [r for r in replay["spans"] if r["parent"] < 0 and r["name"] != "batch"]
        lib_s = sum(r["end_ns"] - r["start_ns"] for r in top) / 1e9
        ns = [record["import"], record["main"]]
        return (ns[0][1] - ns[0][0]) / 1e9, (ns[1][1] - ns[1][0]) / 1e9, lib_s, replay["result"]

    def _replay_agrees(self, argv, out, result) -> bool:
        cmd = argv[0]
        if cmd in ("gen", "simulate"):
            return json.loads(out) == result
        if cmd == "metrics":
            return not self.oracle.check_cli(
                [*argv[:5], "--format", "json"], json.dumps(result))
        if cmd == "memory":
            return out == "".join(f"{key}: {value}\n" for key, value in result.items())
        if cmd == "route":
            lines = out.splitlines()
            path = [int(v) for v in lines[0].split()]
            if "--show-packet" in argv and _opts(argv)["--algo"] == "bfs":
                return [path, lines[1].split()[1][len("bits="):]] == result
            return path == result
        return False

    def traced(self, seconds: float, spans_path) -> dict:
        rounds, ratios, overheads = [], [], []
        imports, mains, selfs = [], [], []
        first: Tracer | None = None
        greedy_hops = None
        start = perf_counter()
        while True:
            t0 = perf_counter()
            plain = [self.request(argv)[1] for argv in self.requests]
            t1 = perf_counter()
            tracer = Tracer()
            main_total = self_total = 0.0
            hops = 0
            for trace_id, (argv, out) in enumerate(zip(self.requests, plain)):
                got = self.traced_request(tracer, trace_id, argv, out)
                if got is None:
                    continue
                imp, main_s, lib_s, result = got
                imports.append(imp)
                main_total += main_s
                self_total += main_s - lib_s
                if out is not None and not self._replay_agrees(argv, out, result):
                    self.fail(f"replay of {' '.join(argv)} disagrees with the CLI output")
                if _opts(argv).get("--algo") == "greedy":
                    hops += (len(result) - 1 if argv[0] == "route"
                             else sum(int(h) * c for h, c in result["hop_histogram"].items()))
            t2 = perf_counter()
            ratios.append((t2 - t1) / (t1 - t0))
            mains.append(main_total)
            selfs.append(self_total)
            if greedy_hops not in (None, hops):
                self.fail("greedy hop count changed between rounds")
            greedy_hops = hops
            totals = tracer.totals()
            if rounds and any(totals.get(n, [0])[0] != rounds[0].get(n, [0])[0]
                              for n in set(totals) | set(rounds[0])):
                self.fail("span counts changed between traced rounds")
            if totals.get("request", [0])[0] != len(self.requests):
                self.fail("traced round did not run every request")
            rounds.append(totals)
            overheads.append(overhead_seconds(tracer))
            if first is None:
                first = tracer
            elapsed = perf_counter() - start
            if elapsed >= seconds or elapsed > measure.HARD_CAP_S:
                break
        written = first.write(spans_path, measure.SPANS_WRITTEN)
        from mcnoc import make_multiplicative

        specs = {_spec_of(argv) for argv in self.requests}
        total = repeats = 0
        for argv in self.requests:  # each request is a fresh process
            t, r = measure.repeat_offset_counts(shortest_path_calls(argv))
            total += t
            repeats += r
        hop_total = 0
        for argv in self.requests:
            if argv[0] == "simulate":
                s, k = _spec_of(argv)
                hist = self.oracle.expected_histogram(s, k, simulate_pairs(s**k, _opts(argv)))
                hop_total += sum(h * c for h, c in hist.items())
        run_time = statistics.median(r.get("simulator.run", [0, 0.0])[1] for r in rounds)
        extra = {
            "topology.port_table.us_per_call": measure.port_table_us(
                make_multiplicative(*sk) for sk in sorted(specs)),
            "static_route.repeat_offset_share": repeats / total if total else 0.0,
            "greedy_route.hops": greedy_hops,
            "simulator.run.overhead_s": statistics.median(overheads),
            "simulator.host_us_per_hop": run_time / hop_total * 1e6 if hop_total else 0.0,
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "cli.main.time_s": statistics.median(mains),
            "cli.main.self_s": statistics.median(selfs),
            "cli.exit_nonzero": self.nonzero,
            "trace.overhead_ratio": statistics.median(ratios),
        }
        self.summary = {"traced_rounds": len(rounds), "spans_in_first_round": len(first),
                        "spans_written": written, "spans_file": str(spans_path)}
        return measure.layer_metrics(rounds, extra)

