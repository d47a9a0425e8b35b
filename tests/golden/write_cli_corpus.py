"""Write the golden CLI corpus, ``tests/golden/cli.json``.

Each entry is one argv run through ``mcnoc.cli.main`` in-process, with the
stdout, stderr and exit code it gave.  ``tests/test_golden_cli.py`` replays
every entry and compares byte for byte, so default output cannot change
silently.  ``bench`` prints wall time and is left out.

Run from the repository root, against the tree whose output is the reference:

    PYTHONPATH=src python tests/golden/write_cli_corpus.py

A change that alters output on purpose rewrites the file and lists every
changed entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("cli.json")

# argparse wraps its usage lines to the terminal width
COLUMNS = "80"


def _mc(s: int, k: int) -> list[str]:
    return ["--s", str(s), "--k", str(k)]


def _argvs() -> list[list[str]]:
    mc24, mc26, mc33, mc43, ring = _mc(2, 4), _mc(2, 6), _mc(3, 3), _mc(4, 3), _mc(7, 1)
    argvs = [
        ["gen", *mc43],
        ["gen", *mc24],
        ["gen", *ring],
        ["metrics", *mc24],
        ["metrics", *mc26, "--mesh-compare"],
        ["metrics", *mc33, "--mesh-compare"],
        ["metrics", *mc43, "--format", "csv"],
        ["metrics", *mc24, "--mesh-compare", "--format", "csv"],
        ["metrics", *mc33, "--format", "json"],
        ["metrics", *mc26, "--format", "json"],
        ["memory", *mc43],
        ["memory", *mc26],
    ]
    big_seed = str(2**32 + 7)
    for algo in ("bfs", "greedy"):
        argvs += [
            # diametral ports, src = dst and the ring MC(7,1)
            ["route", *mc24, "--from", "0", "--to", "8", "--algo", algo, "--show-packet"],
            ["route", *mc26, "--from", "3", "--to", "35", "--algo", algo, "--show-packet"],
            ["route", *mc43, "--from", "5", "--to", "5", "--algo", algo, "--show-packet"],
            ["route", *ring, "--from", "1", "--to", "5", "--algo", algo, "--show-packet"],
            ["route", *mc43, "--from", "1", "--to", "42", "--algo", algo],
            ["simulate", *mc24, "--algo", algo, "--traffic", "all"],
            ["simulate", *mc33, "--algo", algo, "--traffic", "all"],
            ["simulate", *ring, "--algo", algo, "--traffic", "all"],
            ["simulate", *_mc(4, 4), "--algo", algo, "--traffic", "random:300"],
            ["simulate", *mc43, "--algo", algo, "--traffic", "random:500", "--seed", "7"],
            ["simulate", *mc43, "--algo", algo, "--traffic", "random:200", "--seed", "-5"],
            ["simulate", *mc43, "--algo", algo, "--traffic", "random:200", "--seed", big_seed],
            ["simulate", *mc43, "--algo", algo, "--traffic", "random:0"],
            ["simulate", *mc43, "--algo", algo, "--traffic", "pair:5:17"],
            # long streams on many nodes, drawn in blocks; n = 729 is odd, so blocks end at redraws
            ["simulate", *_mc(3, 6), "--algo", algo, "--traffic", "random:1500", "--seed", "11"],
            ["simulate", *_mc(2, 10), "--algo", algo, "--traffic", "random:1500", "--seed", "11"],
        ]
    argvs += [
        # out-of-range nodes
        ["route", *mc43, "--from", "0", "--to", "64", "--algo", "bfs", "--show-packet"],
        ["route", *mc43, "--from", "-1", "--to", "3", "--algo", "greedy"],
        ["simulate", *mc43, "--algo", "bfs", "--traffic", "pair:0:64"],
        ["simulate", *mc43, "--algo", "greedy", "--traffic", "pair:-1:3"],
        # malformed traffic
        ["simulate", *mc43, "--algo", "bfs", "--traffic", "pair:3:3"],
        ["simulate", *mc43, "--algo", "bfs", "--traffic", "pair:1"],
        ["simulate", *mc43, "--algo", "greedy", "--traffic", "random:x"],
        ["simulate", *mc43, "--algo", "greedy", "--traffic", "random:-1"],
        ["simulate", *mc43, "--algo", "bfs", "--traffic", "every"],
        # bad specs and malformed flags
        ["gen", *_mc(1, 3)],
        ["gen", *_mc(2, 0)],
        ["gen", "--s", "2", "--k", "x"],
        ["metrics", *mc24, "--format", "xml"],
        ["simulate", *mc24, "--algo", "bfs"],
        # the BFS guard
        ["metrics", *_mc(3, 14)],
        ["route", *_mc(2, 21), "--from", "0", "--to", "5", "--algo", "bfs"],
        ["simulate", *_mc(2, 21), "--algo", "bfs", "--traffic", "pair:0:1"],
        # the construction guard
        ["gen", *_mc(2, 40)],
        ["memory", "--s", "9" * 2000, "--k", "2"],
        # int() reads non-ASCII digits: --k ١٢ is 12
        ["metrics", "--s", "2", "--k", "١٢"],
    ]
    return argvs


def run_main(argv: list[str]) -> dict:
    """One in-process ``main(argv)`` call with its outputs."""
    from mcnoc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    corpus = [run_main(argv) for argv in _argvs()]
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
