"""The package's import graph keeps its layers: the special functions and the
root finder, the one search routine, sit on the errors alone, the simplex on
the special functions, only the package itself imports the command line,
only the simplex and the Monte-Carlo oracle import numpy, only the oracle
starts threads, only the constants name the tie routine, and no module
imports ``typing`` or, but for the simplex, ``dataclasses``; no module imports
``argparse`` at its top level, and only the command line's ``build_parser``
imports it, inside the function; and only ``__init__.py`` declares the public
names."""

import ast
from pathlib import Path

import pytest

import lcmoments

PACKAGE = Path(lcmoments.__file__).parent


def _imports(path: Path) -> set[str]:
    """The package modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)  # from . import cli
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "lcmoments":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lcmoments" and len(parts) > 1:
                    found.add(parts[1])
    return found


def _top_level_imports(path: Path) -> set[str]:
    """The first names of the absolute imports of a source file, at any depth in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


GRAPH = {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_import_names_a_module_of_the_package():
    for module, imported in GRAPH.items():
        assert imported <= set(GRAPH), (module, imported - set(GRAPH))


def test_the_lowest_layers():
    assert GRAPH["errors"] == set()
    assert GRAPH["search"] <= {"errors"}
    assert GRAPH["specfun"] <= {"errors"}


def test_the_root_finder_is_the_one_search_routine():
    # the scans read their extrema off a grid: a second 1-D routine is a deliberate change here
    tree = ast.parse((PACKAGE / "search.py").read_text())
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [name for name in defined if not name.startswith("_")] == ["bisect_root"]


@pytest.mark.parametrize("module", ["errors", "search", "specfun", "expfamily", "constants", "crossings", "cli"])
def test_the_family_layer_imports_no_numpy(module):
    assert "numpy" not in _top_level_imports(PACKAGE / f"{module}.py")


def test_only_simplex_and_mc_import_numpy():
    assert {module for module in GRAPH if "numpy" in _top_level_imports(PACKAGE / f"{module}.py")} == {"simplex", "mc"}


def test_only_mc_imports_threads():
    threads = {"threading", "concurrent"}
    assert {module for module in GRAPH if threads & _top_level_imports(PACKAGE / f"{module}.py")} == {"mc"}


def test_records_are_named_tuples_and_no_module_imports_typing():
    # WeightVector stays a frozen dataclass: its length is its dimension, not a field count
    assert {module for module in GRAPH if "dataclasses" in _top_level_imports(PACKAGE / f"{module}.py")} == {"simplex"}
    assert not any("typing" in _top_level_imports(PACKAGE / f"{module}.py") for module in GRAPH)


def test_simplex_sits_on_the_special_functions_alone():
    # the Monte-Carlo oracle may check its weights through simplex, not the reverse
    assert GRAPH["simplex"] <= {"errors", "specfun"}


def test_crossings_sit_above_the_constants():
    assert "constants" in GRAPH["crossings"]
    assert "crossings" not in GRAPH["constants"]


def _names(path: Path) -> set[str]:
    """Every identifier a source file names: variables, attributes, imports and definitions."""
    fields = ("id", "attr", "name", "asname")
    return {getattr(node, field, None) for node in ast.walk(ast.parse(path.read_text())) for field in fields}


def test_only_the_constants_solve_for_a_tie():
    # the tie routine behind p0 and the 1.68 transition; the decomposition
    # check reads the member gap's signs at its bracket ends and solves for no q
    assert {module for module in GRAPH if "_tie" in _names(PACKAGE / f"{module}.py")} == {"constants"}


def _argparse_importers(path: Path) -> list[str]:
    """Where a source file imports argparse: "<module>" at its top level, else the enclosing function's name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Import) and "argparse" in {a.name.split(".")[0] for a in child.names}:
                found.append(scope)
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module.split(".")[0] == "argparse":
                found.append(scope)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_build_parser_imports_argparse():
    # a call reads its options off the command table; argparse loads for help and usage errors alone
    found = {module: _argparse_importers(PACKAGE / f"{module}.py") for module in GRAPH}
    assert {module: scopes for module, scopes in found.items() if scopes} == {"cli": ["build_parser"]}


def test_only_the_package_imports_the_command_line():
    assert {module for module, imported in GRAPH.items() if "cli" in imported} <= {"__init__"}


def _top_level(path: Path) -> list[ast.stmt]:
    return ast.parse(path.read_text()).body


def test_only_the_package_declares_its_public_names():
    # __init__.py is the one declaration; a module's own __all__ would be a second copy to keep in step
    assert {module for module in GRAPH if "__all__" in _names(PACKAGE / f"{module}.py")} == {"__init__"}


def test_every_lazy_name_is_defined_at_the_top_of_its_module():
    (lazy,) = [
        ast.literal_eval(node.value)
        for node in _top_level(PACKAGE / "__init__.py")
        if isinstance(node, ast.Assign) and [target.id for target in node.targets] == ["_LAZY"]
    ]
    for module, names in lazy.items():
        defined = {
            node.name
            for node in _top_level(PACKAGE / f"{module}.py")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert set(names) <= defined, (module, set(names) - defined)
