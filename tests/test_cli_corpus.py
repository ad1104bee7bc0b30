"""Replay the CLI transcript corpus: every command's exit code, stdout and stderr, exactly.

Each tests/cli_corpus/*.json file is one command with its input files inline;
tools/cli_corpus.py writes them from the current tree.
"""

import json
from pathlib import Path

import pytest

from helpers import replay_cli

CORPUS = sorted((Path(__file__).resolve().parent / "cli_corpus").glob("*.json"))


def test_the_corpus_covers_every_command():
    # also fails if the corpus is missing, where the replay below would collect no case
    argvs = [json.loads(path.read_text(encoding="utf-8"))["argv"] for path in CORPUS]
    assert {"groebner", "standard-basis", "verify", "nf"} <= {argv[0] for argv in argvs if argv}


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_cli_transcript(tmp_path, path):
    record = json.loads(path.read_text(encoding="utf-8"))
    files = {name: "".join(lines) for name, lines in record["files"].items()}
    code, out, err = replay_cli(record["argv"], files, record["columns"], tmp_path)
    assert out == "".join(record["stdout"])
    assert err == "".join(record["stderr"])
    assert code == record["exit"]
