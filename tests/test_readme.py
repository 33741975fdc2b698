"""The README's examples run as written, and every name the README and the
package's docstrings cite exists, so a removed option or function cannot
stay documented."""

import ast
import dataclasses
import importlib
import json
import re
import shlex
from pathlib import Path

import lcmoments
from lcmoments.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(lcmoments.__file__).parent

# a backticked Python name, possibly dotted, whose last part is lowercase
# snake_case or private
_CITED = re.compile(r"`+((?:[A-Za-z_][A-Za-z0-9_]*\.)*(?:_+[a-z][a-z0-9_]*|[a-z][a-z0-9]*(?:_[a-z0-9]+)+))`+")


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


def _has(obj, name) -> bool:
    return hasattr(obj, name) or (dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)})


def _resolves(cited: str, modules, owners) -> bool:
    first, *rest = cited.removeprefix("lcmoments.").split(".")
    if not rest:
        return any(_has(owner, first) for owner in owners)
    obj = modules.get(first, getattr(lcmoments, first, None))
    for part in rest if obj is not None else ():  # other dotted names lie outside the package
        if not _has(obj, part):
            return False
        obj = getattr(obj, part, None)
    return True


def test_cited_names_exist():
    """Each name cited in the README's prose or in a module, class or function
    docstring is an attribute of the package, of one of its modules or of a
    class defined there (dataclass fields included); a dotted name that
    starts in the package resolves part by part."""
    modules = {path.stem: importlib.import_module(f"lcmoments.{path.stem}") for path in PACKAGE.glob("[!_]*.py")}
    owners = [lcmoments, *modules.values()]
    owners += [obj for module in modules.values() for obj in vars(module).values() if isinstance(obj, type)]
    texts = [re.sub(r"```.*?```", "", README.read_text(), flags=re.S)]
    nodes = [node for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))]
    texts += [ast.get_docstring(n) or "" for n in nodes if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    cited = {name for text in texts for name in _CITED.findall(text)}
    assert "moment_et" in cited and "_tie" in cited
    assert sorted(name for name in cited if not _resolves(name, modules, owners)) == []
