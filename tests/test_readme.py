"""README's examples run as written: CLI lines against their shown output, and the Python blocks."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

from codegb.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    """The bodies of README's unindented fenced blocks tagged language ('' for untagged)."""
    found, body, tag = [], None, None
    for line in README.splitlines(keepends=True):
        if body is None:
            if line.startswith("```"):
                body, tag = [], line[3:].strip()
        elif line.rstrip("\n") == "```":
            if tag == language:
                found.append("".join(body))
            body = None
        else:
            body.append(line)
    return found


@pytest.fixture
def readme_files(tmp_path, monkeypatch):
    """README's matrix block as matrix.txt and its heredoc as basis.txt, in the cwd."""
    (matrix,) = blocks("")
    (basis,) = re.findall(r"<<'EOF'\n(.*?)^EOF$", README, re.M | re.S)
    (tmp_path / "matrix.txt").write_text(matrix, encoding="utf-8")
    (tmp_path / "basis.txt").write_text(basis, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def cli_examples() -> list[tuple[str, str]]:
    """Each 'codegb ...' line that '# ' output lines follow, with that output."""
    examples = []
    for block in blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            output = takewhile(lambda text: text.startswith("# "), lines[i + 1:])
            shown = "".join(text[2:] + "\n" for text in output)
            if line.startswith("codegb ") and shown:
                examples.append((line, shown))
    return examples


def test_readme_cli_examples_print_what_they_show(readme_files, capsys):
    examples = cli_examples()
    assert len(examples) >= 3
    for command, shown in examples:
        code = main(shlex.split(command)[1:])
        assert (command, code, capsys.readouterr().out) == (command, 0, shown)


def test_readme_python_blocks_run_in_order(readme_files):
    python = blocks("python")
    assert len(python) >= 2
    namespace: dict = {}
    for block in python:
        exec(compile(block, "README.md", "exec"), namespace)
