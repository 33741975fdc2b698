"""A fresh interpreter imports the package and runs every subcommand and
suite without loading scipy, and no thread outlives the import or a
subcommand."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys, threading

    import lcmoments
    from lcmoments import cli

    def scipy_modules():
        return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

    assert scipy_modules() == [], scipy_modules()
    assert threading.active_count() == 1

    commands = [
        ["p0"],
        ["constant", "--which", "lp-l1-upper", "--p", "4"],
        ["scan", "--p", "4", "--grid", "100"],
        ["scan-l2", "--p", "1.5", "--grid", "100"],
        ["moment", "--p", "3", "--t", "0.2", "--normalized"],
        ["moment", "--p", "150.5", "--t", "0.0049"],
        ["constant", "--which", "lp-l1-lower", "--p", "0.1"],
        ["slice", "--weights", "1,0,-1", "--project", "--volume"],
        ["max-section", "--n", "3", "--seed", "1"],
        ["crossings", "--t", "0.5"],
        ["verify", "--suite", "crossings"],
        ["verify", "--suite", "constants"],
        ["verify", "--suite", "mc", "--samples", "300000"],  # three chunks, so both lanes run
        ["verify", "--suite", "reduction"],
        ["verify", "--suite", "fradelizi"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.main(argv) == 0, argv
            assert scipy_modules() == [], (argv, scipy_modules())
            assert threading.active_count() == 1, argv

    import scipy.integrate

    # the lazy loader still hands out scipy's quad, which a tracer may replace
    assert lcmoments.specfun.integrate.quad is scipy.integrate.quad
    print("ok")
    """
)


def test_no_subcommand_imports_scipy_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
