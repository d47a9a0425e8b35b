"""Default CLI output matches the committed golden corpus byte for byte.

``tests/golden/write_cli_corpus.py`` writes the corpus and says when to
rewrite it.
"""

import json
from pathlib import Path

from mcnoc.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))


def test_default_output_matches_the_corpus(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this width
    changed = []
    for entry in CORPUS:
        code = main(list(entry["argv"]))
        out, err = capsys.readouterr()
        if (out, err, code) != (entry["stdout"], entry["stderr"], entry["exit"]):
            changed.append(entry["argv"])
    assert changed == []
    assert len(CORPUS) >= 50
