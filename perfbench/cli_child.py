"""Child-process driver for traced CLI requests.

    python perfbench/cli_child.py main ARGV...   # import mcnoc.cli, run main(ARGV)
    python perfbench/cli_child.py lib TRACE_ID ARGV...  # replay ARGV's library calls

`main` prints exactly what the CLI prints and exits with its code; the
timings of the import and of `main` go to the last line of standard error.
`lib` runs in a fresh process of its own, so no state left by `main` can
speed up or slow down the replayed calls; it prints its spans and the
replayed result as one JSON object.  `src` must be on PYTHONPATH.
"""

import sys
from time import perf_counter_ns

MARK = "PERFBENCH-CHILD "


def main_mode(argv):
    t0 = perf_counter_ns()
    import mcnoc.cli

    t1 = perf_counter_ns()
    code = mcnoc.cli.main(argv)
    t2 = perf_counter_ns()
    sys.stdout.flush()
    import json

    record = {"import": [t0, t1], "main": [t1, t2], "code": code}
    print(MARK + json.dumps(record), file=sys.stderr)
    return code


def lib_mode(trace_id, argv):
    import itertools
    import json
    from dataclasses import asdict, is_dataclass

    from mcnoc.cli import build_parser
    from replay import replay_request
    from spans import Tracer

    args = build_parser().parse_args(argv)
    tracer = Tracer()
    result = replay_request(tracer, args, trace_id, itertools.count(trace_id * 1_000_000))
    if is_dataclass(result):
        result = asdict(result)
    json.dump({"spans": list(tracer.records()), "result": result}, sys.stdout)
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "main":
        sys.exit(main_mode(sys.argv[2:]))
    sys.exit(lib_mode(int(sys.argv[2]), sys.argv[3:]))
