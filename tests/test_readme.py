"""The README's examples run as written, so a removed option cannot stay documented."""

import json
import shlex
from pathlib import Path

from lcmoments.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The body of the first fenced code block under ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)[1:]
        for line in _block("Command line").splitlines()
        if line.startswith("lcmoments ")
    ]
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv
        json.loads(capsys.readouterr().out)
    exec(_block("Quick start"), {})
