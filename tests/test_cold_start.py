"""Fresh interpreters: the package imports, and every subcommand and suite
runs, without loading scipy; all but the simplex and Monte-Carlo commands
run without loading numpy, which those load on first use, nor
``dataclasses``, ``inspect`` or ``csv`` (a ``--csv`` profile loads the last); a
first ``moment`` loads neither the constants nor the root finder, nor argparse
and gettext, and builds no parser, which a following ``--help`` builds; no
thread outlives the import or a subcommand; and the package's public names
resolve as when it imported all of its modules up front."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from lcmoments import cli

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, os, sys, tempfile, threading

    # relative to what the interpreter loaded before the package, which differs with the site
    before = set(sys.modules)
    import lcmoments
    from lcmoments import cli

    def loaded(package):
        return sorted(name for name in sys.modules if name == package or name.startswith(package + "."))

    assert loaded("scipy") == [], loaded("scipy")
    assert loaded("numpy") == [], loaded("numpy")
    assert threading.active_count() == 1

    # the family layer and the crossing certificates compute in Python floats
    without_numpy = [
        ["p0"],
        ["constant", "--which", "lp-l1-upper", "--p", "4"],
        ["scan", "--p", "4", "--grid", "100"],
        ["scan-l2", "--p", "1.5", "--grid", "100"],
        ["moment", "--p", "3", "--t", "0.2", "--normalized"],
        ["moment", "--p", "150.5", "--t", "0.0049"],
        ["constant", "--which", "lp-l1-lower", "--p", "0.1"],
        ["verify", "--suite", "reduction"],
        ["verify", "--suite", "fradelizi"],
        ["verify", "--suite", "constants"],
        ["crossings", "--t", "0.5"],
        ["verify", "--suite", "crossings"],
    ]
    with_numpy = [
        ["slice", "--weights", "1,0,-1", "--project", "--volume"],
        ["max-section", "--n", "3", "--seed", "1"],
        ["verify", "--suite", "mc", "--samples", "300000"],  # three chunks, so the pool starts both workers
    ]

    def run(argv):
        assert cli.main(argv) == 0, argv
        assert loaded("scipy") == [], (argv, loaded("scipy"))
        assert threading.active_count() == 1, argv
        assert (argv in with_numpy) == ("numpy" in sys.modules), argv

    with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
        for argv in without_numpy:
            run(argv)
        added = {"dataclasses", "inspect", "csv"} & (set(sys.modules) - before)
        assert not added, added
        profile = os.path.join(tmp, "profile.csv")
        run(["scan", "--p", "4", "--grid", "100", "--csv", profile])
        with open(profile) as fh:
            assert fh.readline() == "t,value\\n" and len(fh.readlines()) == 100
        for argv in with_numpy:
            run(argv)

    import scipy.integrate

    # the lazy loader still hands out scipy's quad, which a tracer may replace
    assert lcmoments.specfun.integrate.quad is scipy.integrate.quad
    print("ok")
    """
)

# every public name of the package, by the module that defines it
_PUBLIC = {
    "constants": [
        "ScanResult",
        "branch_gap",
        "find_l2_transition",
        "find_p0",
        "lp_lq_ratio",
        "scan_family_extrema",
        "scan_l2_ratio",
        "sharp_constant",
    ],
    "crossings": [
        "SignChangeReport",
        "ThreeCrossingsResult",
        "nonneg_decomposition_check",
        "verify_3crossings",
    ],
    "errors": ["BracketError", "CrossingPatternError", "DegenerateSectionError", "DomainError", "NumericalError"],
    "expfamily": [
        "ComparisonCheck",
        "LogConcaveTestDensity",
        "TwoSidedExpParams",
        "abs_moment",
        "catalogue",
        "centred_gaussian",
        "centred_uniform",
        "family_scale",
        "fradelizi_check",
        "match_two_sided",
        "moment_et",
        "norm_ebar",
        "prob_positive",
        "reduction_check",
        "truncated_exponential",
        "two_sided_exponential_density",
    ],
    "mc": ["McConfig", "McEstimate", "estimate_density_at_zero", "estimate_xab_moments"],
    "search": [],
    "simplex": [
        "MaxSectionResult",
        "WeightVector",
        "density_at_zero",
        "geometry_oracle_volume",
        "maximize_section",
        "section_volume",
    ],
    "specfun": ["exp_power_integral", "gamma", "shifted_exp_moment"],
}

_SURFACE_SCRIPT = textwrap.dedent(
    """
    import importlib

    import lcmoments

    PUBLIC = {public!r}
    for module_name, names in PUBLIC.items():
        module = importlib.import_module("lcmoments." + module_name)
        for name in [module_name, *names]:
            held = module if name == module_name else getattr(module, name)
            scope = {{}}
            exec(f"from lcmoments import {{name}} as value", scope)
            assert getattr(lcmoments, name) is held and scope["value"] is held, name
            assert name in dir(lcmoments), name

    scope = {{}}
    exec("from lcmoments import *", scope)
    expected = {{name for module_name, names in PUBLIC.items() for name in [module_name, *names]}}
    assert set(scope) - {{"__builtins__"}} == expected, set(scope) ^ expected
    assert lcmoments.__version__ == "0.1.0"

    try:
        lcmoments.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc), exc
    else:
        raise AssertionError("an unknown name resolved")
    try:
        from lcmoments import no_such_name
    except ImportError:
        pass
    else:
        raise AssertionError("an unknown name imported")
    print("ok")
    """
).format(public=_PUBLIC)


# the help and records a fresh interpreter prints after its first moment, to compare with this one's
_AFTER_MOMENT = [["p0"], ["scan", "--p", "4", "--grid", "100"], ["scan-l2", "--p", "1.5", "--grid", "100"]]
_HELP = ["moment", "--help"]

_MOMENT_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys

    import lcmoments
    from lcmoments import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["moment", "--p", "2.5", "--t", "0.5"]) == 0
    loaded = {{"lcmoments.constants", "lcmoments.search", "argparse", "gettext"}} & set(sys.modules)
    assert not loaded, loaded
    # the table's reader read the options: no parser was built
    assert cli.build_parser.cache_info().currsize == 0
    # help builds the top-level parser, and prints as it does in this test's interpreter
    assert cli.main({help!r}) == 0
    assert cli.build_parser.cache_info().currsize == 1

    # the handlers that need the constants import them
    for argv in {after!r}:
        assert cli.main(argv) == 0, argv
    print("ok")
    """
).format(after=_AFTER_MOMENT, help=_HELP)


def _run(script: str) -> list[str]:
    """The lines the script printed before its closing "ok"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1:] == ["ok"], result.stdout
    return lines[:-1]


def test_no_subcommand_imports_scipy_integrate():
    assert _run(_SCRIPT) == []


def test_a_cold_moment_loads_no_constants_and_builds_no_parser(capsys, monkeypatch):
    # argparse wraps its help to the width in COLUMNS, which the fresh interpreter inherits
    monkeypatch.setenv("COLUMNS", "80")
    cold = _run(_MOMENT_SCRIPT)
    assert cli.main(_HELP) == 0
    for argv in _AFTER_MOMENT:
        assert cli.main(argv) == 0
    assert cold == capsys.readouterr().out.splitlines()


def test_public_names_resolve_to_their_modules_objects():
    assert _run(_SURFACE_SCRIPT) == []


def test_a_lazy_name_follows_a_rebinding_in_its_module(monkeypatch):
    import lcmoments
    from lcmoments import simplex

    original = simplex.density_at_zero
    assert lcmoments.density_at_zero is original
    monkeypatch.setattr(simplex, "density_at_zero", lambda weights: 0.5)
    assert lcmoments.density_at_zero is simplex.density_at_zero
    monkeypatch.undo()
    assert lcmoments.density_at_zero is original
