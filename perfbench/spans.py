"""In-memory spans recorded around calls into the package's public functions.

A span has an id (its index), a name, start and end in perf_counter_ns
(CLOCK_MONOTONIC on Linux, so child processes share the time base), the id
of its parent span (-1 for none), and a trace id shared by the spans of one
packet or request.  Nothing is written until the caller asks.
"""

from __future__ import annotations

import itertools
import json
from time import perf_counter_ns

# Structural spans that group layer calls; they are not calls into a layer.
GROUPS = ("batch", "packet", "request")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.traces: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, parent: int, trace: int) -> int:
        self.names.append(name)
        self.starts.append(perf_counter_ns())
        self.ends.append(0)
        self.parents.append(parent)
        self.traces.append(trace)
        return len(self.names) - 1

    def close(self, span: int):
        self.ends[span] = perf_counter_ns()

    def call(self, name: str, parent: int, trace: int, fn, *args):
        """Run fn(*args) inside a span and return its result."""
        start = perf_counter_ns()
        result = fn(*args)
        end = perf_counter_ns()
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.traces.append(trace)
        return result

    def add(self, name: str, start: int, end: int, parent: int, trace: int) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.traces.append(trace)
        return len(self.names) - 1

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds]."""
        out: dict[str, list] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) / 1e9
        return out

    def merge(self, records: list, parent: int):
        """Add spans recorded by another Tracer, hanging its roots under parent."""
        base = len(self.names)
        for rec in records:
            p = rec["parent"]
            self.add(rec["name"], rec["start_ns"], rec["end_ns"],
                     parent if p < 0 else p + base, rec["trace"])

    def records(self):
        for i, (n, s, e, p, t) in enumerate(
            zip(self.names, self.starts, self.ends, self.parents, self.traces)
        ):
            yield {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "trace": t}

    def write(self, path, limit: int) -> int:
        """Write the first `limit` spans as JSON lines; returns how many were written."""
        with open(path, "w") as fh:
            for rec in itertools.islice(self.records(), limit):
                fh.write(json.dumps(rec) + "\n")
        return min(limit, len(self))
