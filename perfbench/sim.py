"""The sim-src and sim-greedy workloads: closed-loop `simulator.run` calls.

One caller in one process makes each call after the previous one returns.
A round is the workload's fixed list of batches; rounds repeat until the
time is up and the tail percentile has at least ten samples beyond it.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter

import measure
from oracle import Oracle, lcg_pairs
from replay import overhead_seconds, traced_run
from spans import Tracer
from workloads import SIM, Batch, sim_batches, sim_setup

SETUP_PROBE = str(measure.BENCH_DIR / "setup_probe.py")


class SimBench(measure.Tally):
    def __init__(self, name: str, seed: int):
        from mcnoc import TrafficPattern

        super().__init__()
        self.work = SIM[name]
        # the probe prints the time it measured itself, interpreter start excluded
        self.setup_samples = measure.setup_samples(
            [SETUP_PROBE, name], measure.cpu_scale, lambda proc, wall: float(proc.stdout))
        self.specs = sim_setup(name)
        self.batches: list[Batch] = sim_batches(name, seed)
        self.patterns = [
            TrafficPattern.all_pairs() if b.kind == "all"
            else TrafficPattern.random_pairs(b.count, seed=b.traffic_seed)
            for b in self.batches
        ]
        oracle = Oracle()
        self.expected = [
            oracle.expected_histogram(*b.spec, None if b.kind == "all" else
                                      lcg_pairs(b.spec[0] ** b.spec[1], b.count, b.traffic_seed))
            for b in self.batches
        ]
        self.packets = [sum(h.values()) for h in self.expected]

    # -- one untraced round ------------------------------------------------

    def op(self, i: int) -> tuple[float, dict | None]:
        """Make the i-th `run` call of the round and check it; returns (seconds, report)."""
        from mcnoc import run, sim_report_document

        batch = self.batches[i]
        self.attempted += 1
        start = perf_counter()
        try:
            report = run(self.specs[batch.spec], self.work.mode, self.patterns[i])
        except Exception as exc:  # any failure of the program is counted, not fatal
            elapsed = perf_counter() - start
            self.fail(f"{batch}: {exc!r}")
            return elapsed, None
        elapsed = perf_counter() - start
        doc = sim_report_document(report)
        errors = Oracle.check_report(doc, self.work.mode, self.expected[i])
        if errors:
            self.fail(f"{batch}: {errors}")
        return elapsed, doc

    def untraced(self, seconds: float) -> dict:
        ops = [lambda i=i: self.op(i)[0] for i in range(len(self.batches))]
        rounds, elapsed = measure.closed_loop(
            lambda: measure.scaled_round(ops, measure.cpu_scale), seconds, self.work.tail_pct)
        metrics, self.summary = measure.end_to_end(
            rounds, self.packets, self.work.tail_pct, self.setup_samples, measure.peak_rss_mb())
        self.summary["measured_s"] = elapsed
        return metrics

    # -- traced run --------------------------------------------------------

    def traced_round(self, tracer: Tracer) -> list[dict | None]:
        from mcnoc import make_multiplicative

        ids = itertools.count()
        for sk in self.specs:
            tracer.call("topology.make_multiplicative", -1, next(ids), make_multiplicative, *sk)
        docs = []
        for batch, pattern in zip(self.batches, self.patterns):
            self.attempted += 1
            try:
                docs.append(traced_run(tracer, self.specs[batch.spec], self.work.mode,
                                       pattern, 0, ids))
            except Exception as exc:  # counted like an untraced failure
                docs.append(None)
                self.fail(f"traced {batch}: {exc!r}")
        return docs

    def expected_counts(self, docs: list[dict]) -> dict:
        """Span counts one round must show, derived from the untraced reports."""
        packets = sum(d["injected"] for d in docs)
        hops = sum(int(h) * c for d in docs for h, c in d["hop_histogram"].items())
        counts = {"simulator.run": len(docs), "simulator.traffic": len(docs),
                  "batch": len(docs), "packet": packets}
        if self.work.mode == "source_routed":
            counts.update({
                "metrics.diameter": len(docs),
                "static_route.shortest_path": packets,
                "static_route.path_to_actions": packets,
                "static_route.encode_path": packets,
                "static_route.consume_step": hops + packets,
                "topology.apply_action": hops,
            })
        else:
            counts.update({"greedy_route.greedy_path": packets, "greedy_route.next_hop": hops})
        return counts

    def traced(self, seconds: float, spans_path) -> dict:
        rounds, ratios, overheads = [], [], []
        first: Tracer | None = None
        start = perf_counter()
        while True:
            t0 = perf_counter()
            plain = [self.op(i)[1] for i in range(len(self.batches))]
            t1 = perf_counter()
            tracer = Tracer()
            docs = self.traced_round(tracer)
            t2 = perf_counter()
            ratios.append((t2 - t1) / (t1 - t0))
            rounds.append(tracer.totals())
            if docs != plain:
                self.fail("traced round reports differ from the untraced round")
            elif None not in plain:
                want = self.expected_counts(plain)
                got = {name: rounds[-1].get(name, [0])[0] for name in want}
                if got != want:
                    self.fail(f"traced span counts {got} differ from {want}")
            overheads.append(overhead_seconds(tracer))
            if first is None:
                first = tracer
            elapsed = perf_counter() - start
            if elapsed >= seconds or elapsed > measure.HARD_CAP_S:
                break
        written = first.write(spans_path, measure.SPANS_WRITTEN)
        greedy = self.work.mode == "greedy"
        hops = sum(int(h) * c for hist in self.expected for h, c in hist.items())
        total, repeats = (0, 0) if greedy else measure.repeat_offset_counts(
            (b.spec, self.specs[b.spec].n, src, dst)
            for b, p in zip(self.batches, self.patterns)
            for src, dst in p.pairs(self.specs[b.spec])
        )
        run_time = statistics.median(r["simulator.run"][1] for r in rounds)
        extra = {
            "topology.port_table.us_per_call": measure.port_table_us(self.specs.values()),
            "static_route.repeat_offset_share": repeats / total if total else 0.0,
            "greedy_route.hops": hops if greedy else 0,
            "simulator.run.overhead_s": statistics.median(overheads),
            "simulator.host_us_per_hop": run_time / hops * 1e6,
            "cli.import_s": 0.0,
            "cli.main.time_s": 0.0,
            "cli.main.self_s": 0.0,
            "cli.exit_nonzero": 0,
            "trace.overhead_ratio": statistics.median(ratios),
        }
        self.summary = {"traced_rounds": len(rounds), "spans_in_first_round": len(first),
                        "spans_written": written, "spans_file": str(spans_path)}
        return measure.layer_metrics(rounds, extra)
