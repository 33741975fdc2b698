import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmoments import cli, constants, crossings
from lcmoments.cli import build_parser, main
from lcmoments.constants import _MAX_GRID
from lcmoments.errors import CrossingPatternError
from oracles import mp_moment_et


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


_RECORD_KEYS = {"command", "inputs", "outputs", "tolerances", "status"}


def _plain(value) -> bool:
    """Whether ``value`` is a str, int, float, bool or None, or a list or str-keyed dict of such values,
    and not, say, a numpy scalar, a float subclass that json writes as a float."""
    if type(value) is list:
        return all(map(_plain, value))
    if type(value) is dict:
        return all(type(key) is str and _plain(item) for key, item in value.items())
    return type(value) in (str, int, float, bool, type(None))


def _assert_records(records):
    """Each record is a plain dict of exactly the five keys, and its status is ok or violated."""
    for record in records:
        assert set(record) == _RECORD_KEYS
        assert record["status"] in ("ok", "violated")
        assert _plain(record), record


def test_p0_command(capsys):
    code, payload = _run(capsys, ["p0"])
    assert code == 0
    assert 2.9414 < payload["outputs"]["p0"] < 2.9415
    assert abs(payload["outputs"]["residual"]) < 1e-12


def test_constant_commands(capsys):
    code, payload = _run(capsys, ["constant", "--which", "lp-l2-lower", "--p", "1"])
    assert code == 0
    assert payload["outputs"]["value"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    code, payload = _run(capsys, ["constant", "--which", "lp-lq", "--p", "1", "--q", "2"])
    assert code == 0
    assert payload["outputs"]["value"] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_constant_domain_error_exit_code(capsys):
    assert main(["constant", "--which", "lp-l1-lower", "--p", "3"]) == 2


def test_orders_next_to_zero(capsys):
    # the lower constant tends to e^(-euler_gamma) as p -> 0; it printed 1.0 at 1e-17
    code, payload = _run(capsys, ["constant", "--which", "lp-l1-lower", "--p", "1e-17"])
    assert code == 0
    assert payload["outputs"]["value"] == pytest.approx(math.exp(-np.euler_gamma), rel=1e-15)
    # the scan's norms cannot keep 1e-8 there: an error, not a value reported as ok
    assert main(["scan", "--p", "1e-17"]) == 2
    assert "geometric mean" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("which, p", [("lp-l1-lower", "0.5"), ("lp-l1-upper", "2"), ("lp-l2-lower", "0.5")])
def test_constant_rejects_q_outside_lp_lq(capsys, which, p):
    assert main(["constant", "--which", which, "--p", p]) == 0
    capsys.readouterr()
    assert main(["constant", "--which", which, "--p", p, "--q", "3"]) == 2
    assert "--q" in json.loads(capsys.readouterr().err)["message"]


def _no_grid(*args, **kwargs):
    raise AssertionError("the grid was built")


@pytest.mark.parametrize("grid", [str(10**20), str(_MAX_GRID + 1)])
@pytest.mark.parametrize("command", ["scan", "scan-l2"])
def test_oversized_grid_exits_2(capsys, monkeypatch, command, grid):
    monkeypatch.setattr(np, "linspace", _no_grid)
    assert main([command, "--p", "3", "--grid", grid]) == 2
    assert json.loads(capsys.readouterr().err)["status"] == "error"


def test_scan_command_with_csv(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    code, payload = _run(capsys, ["scan", "--p", "4", "--grid", "200", "--csv", str(path)])
    assert code == 0
    assert payload["outputs"]["argopt_t"] == 0.0
    assert payload["outputs"]["opt_value"] == pytest.approx(0.5 * math.e * 9.0**0.25, abs=1e-8)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 201


def test_moment_command_normalized(capsys):
    code, payload = _run(capsys, ["moment", "--p", "2", "--t", "0.5", "--normalized"])
    assert code == 0
    scale = payload["outputs"]["scale"]
    assert payload["outputs"]["moment"] == pytest.approx(1.25 / scale**2, rel=1e-10)


def test_large_order_moment_below_one_over_201(capsys):
    # the shifted moment's continued fraction at u = 316, p = 150.5
    code, payload = _run(capsys, ["moment", "--p", "150.5", "--t", "0.0031519"])
    assert code == 0
    with mpmath.workdps(40):
        oracle = float(mp_moment_et(150.5, 0.0031519))
    assert payload["outputs"]["moment"] == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_slice_requires_n_at_least_two_for_volume(capsys):
    assert main(["slice", "--weights", "1,-1", "--volume"]) == 2


def test_slice_strict_validation(capsys):
    # unnormalised weights fail without --project
    assert main(["slice", "--weights", "1,0,-1", "--volume"]) == 2


def test_slice_with_projection(capsys):
    code, payload = _run(capsys, ["slice", "--weights", "1,0,-1", "--project", "--volume"])
    assert code == 0
    assert payload["outputs"]["density_at_zero"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    assert payload["outputs"]["volume"] == pytest.approx(math.sqrt(1.5), abs=1e-8)


@pytest.mark.parametrize("scale", ["1e300", "1e-20"])
def test_slice_projection_at_extreme_scales(capsys, scale):
    code, payload = _run(capsys, ["slice", "--weights", f"{scale},0,-{scale}", "--project", "--volume"])
    assert code == 0
    assert payload["outputs"]["density_at_zero"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert payload["outputs"]["volume"] == pytest.approx(math.sqrt(1.5), rel=1e-15)


def test_slice_projection_rejects_an_infinite_weight(capsys):
    assert main(["slice", "--weights", "1,2,inf", "--project"]) == 2
    assert "finite" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("n", [171, 172, 200])
def test_slice_volume_where_the_factorial_overflows(capsys, n):
    weights = ",".join(["1", "-1", *["0"] * (n - 1)])
    code = main(["slice", "--weights", weights, "--project", "--volume"])
    out, err = capsys.readouterr()
    if n == 171:
        assert code == 0
        assert 0.0 < json.loads(out)["outputs"]["volume"] < math.inf
    else:
        assert code == 2 and out == ""
        assert "overflows" in json.loads(err)["message"]


def test_slice_overflowing_norm_prints_one_error_record():
    # the norm of [1e300, -1e300] overflowed with a RuntimeWarning printed ahead of the record
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "lcmoments.cli", "slice", "--weights", "[1e300,-1e300]"]
    result = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stdout) == (2, "")
    (line,) = result.stderr.splitlines()
    record = json.loads(line)
    assert record["status"] == "error" and "unit norm" in record["message"]
    assert len(record["message"]) < 120  # the norm in short form, not its 301 digits


def test_slice_json_weights(capsys):
    code, payload = _run(capsys, ["slice", "--weights", "[0.7071067811865476, -0.7071067811865476]"])
    assert code == 0
    assert payload["outputs"]["density_at_zero"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)


@pytest.mark.parametrize(
    "weights",
    ['[true, "2", -1]', "[1, false, -1]", '[1, "0", -1]', "[1, null, -1]", f"[1{'0' * 400}, 0, -1]", "true,0,-1"],
    ids=["bool-and-string", "false", "string", "null", "int-past-float", "token"],
)
def test_slice_weights_are_numbers_only(capsys, weights):
    # float() reads true as 1 and "2" as 2: the JSON form takes only JSON numbers
    assert main(["slice", "--project", "--weights", weights]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be numbers" in json.loads(err)["message"]


def test_slice_weights_in_either_form_agree(capsys):
    outputs = []
    for weights in ["[2, 0, -1.5e0]", "2, 0,-1.5e0", "2.0,0,-1.5"]:
        assert main(["slice", "--project", "--volume", "--weights", weights]) == 0
        outputs.append(json.loads(capsys.readouterr().out)["outputs"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_crossings_command(capsys):
    code, payload = _run(capsys, ["crossings", "--t", "0.5"])
    assert code == 0
    assert payload["outputs"]["report_upper"]["pattern"] == "+-+-"
    assert len(payload["outputs"]["report_lower"]["crossings"]) == 3


@pytest.mark.parametrize("t", ["1e-6", "0.999999"])
def test_crossings_command_near_the_ends(capsys, t):
    code, payload = _run(capsys, ["crossings", "--t", t])
    assert code == 0
    for report in (payload["outputs"]["report_upper"], payload["outputs"]["report_lower"]):
        assert report["pattern"] == "+-+-" and report["certified"]


@pytest.mark.parametrize("argv", [["crossings", "--t", "0.5"], ["verify", "--suite", "crossings"]], ids=" ".join)
def test_a_violated_record_exits_1(capsys, monkeypatch, argv):
    # the exit code is read from the records' statuses
    def crossing_pattern_error(t):
        raise CrossingPatternError(f"forced at t={t}")

    monkeypatch.setattr(crossings, "verify_3crossings", crossing_pattern_error)
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    statuses = [r["status"] for r in payload] if isinstance(payload, list) else [payload["status"]]
    assert "violated" in statuses


def test_a_decomposition_gap_off_pattern_is_a_violated_record(capsys, monkeypatch):
    # it escaped main as a CrossingPatternError traceback
    gap_crossings = crossings._gap_crossings

    def one_dropped(s, t):
        found, pattern = gap_crossings(s, t)
        return found[:-1], pattern[:-1]

    monkeypatch.setattr(crossings, "_gap_crossings", one_dropped)
    assert main(["verify", "--suite", "crossings"]) == 1
    records = json.loads(capsys.readouterr().out)
    decomposition = [r for r in records if r["command"] == "verify/decomposition"]
    assert [r["inputs"]["p"] for r in decomposition] == [-0.5, 2.0, 3.5]
    for record in decomposition:
        assert record["status"] == "violated"
        assert list(record["outputs"]) == ["message"]
        assert "2 crossings" in record["outputs"]["message"]


def test_crossings_uncertified_exits_2(capsys):
    assert main(["crossings", "--t", "1e-8"]) == 2
    assert json.loads(capsys.readouterr().err)["status"] == "error"


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--p", "200", "--t", "0.5"],
        ["constant", "--which", "lp-l1-upper", "--p", "200"],
    ],
)
def test_gamma_overflow_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "overflows" in json.loads(capsys.readouterr().err)["message"]


def test_normalized_moment_overflow_exits_2(capsys):
    assert main(["moment", "--p", "170", "--t", "0", "--normalized"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "mc", "--seed", "-3"],
        ["max-section", "--n", "3", "--seed", "-3"],
    ],
)
def test_negative_seed_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "seed" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("suite", ["reduction", "fradelizi", "crossings", "constants"])
@pytest.mark.parametrize("flag", [["--samples", "3"], ["--seed", "5"]])
def test_mc_flags_with_another_suite_exit_2(capsys, suite, flag):
    assert main(["verify", "--suite", suite, *flag]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "only to the mc suite" in json.loads(err)["message"]


def _config(tmp_path, text):
    path = tmp_path / "quad.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv, usage_error",
    [
        (lambda tmp: ["slice", "--weights", "1,x,-1"], False),
        (lambda tmp: ["slice", "--weights", "[[1,2],[3]]"], False),
        (lambda tmp: ["slice", "--weights", '[1,"a"]'], False),
        (lambda tmp: ["slice", "--weights", "[" * 20000 + "]" * 20000], False),
        (lambda tmp: ["--tol", "1e-9", "verify", "--suite", "fradelizi"], True),
        (lambda tmp: ["--config", _config(tmp, "rel_tol = 1e-9\n"), "verify", "--suite", "fradelizi"], True),
    ],
    ids=["weights-token", "weights-nested", "weights-string", "weights-too-deep", "removed-tol", "removed-config"],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, usage_error):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    if usage_error:
        # argparse rejects an unknown option with a usage message, before any handler runs
        assert "lcmoments: error:" in err
    else:
        assert json.loads(err)["status"] == "error"


@pytest.mark.parametrize(
    "argv, p",
    [
        (["scan", "--p", "-6.3e-05", "--grid", "100"], -6.3e-05),
        (["moment", "--p", "-1e-3", "--t", "0.5"], -1e-3),
        (["moment", "--p", "-5E-1", "--t", "0.5"], -0.5),
    ],
)
def test_negative_order_in_exponent_notation(capsys, argv, p):
    code, payload = _run(capsys, argv)
    assert code == 0
    assert payload["inputs"]["p"] == p


def test_negative_exponent_notation_reaches_the_order_check(capsys):
    # -.5e1 is the number -5: the order check rejects it, not the parser
    assert main(["moment", "--p", "-.5e1", "--t", "0.5"]) == 2
    assert "got -5.0" in json.loads(capsys.readouterr().err)["message"]


def test_negative_non_number_is_an_option_name(capsys):
    assert main(["moment", "--p", "-x", "--t", "0.5"]) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--p", "inf", "--t", "0.5"],
        ["constant", "--which", "lp-l1-upper", "--p", "inf"],
        ["scan", "--p", "inf"],
        ["scan-l2", "--p", "inf"],
    ],
)
def test_non_finite_order_exits_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_max_section_command(capsys):
    code, payload = _run(capsys, ["max-section", "--n", "2", "--restarts", "20", "--seed", "4"])
    assert code == 0
    assert payload["outputs"]["value"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_seedless_commands_record_the_default_seed_whatever_the_environment(capsys, monkeypatch):
    # LCMOMENTS_SEED is set to show that no environment variable supplies the seed
    monkeypatch.setenv("LCMOMENTS_SEED", "777")
    code, payload = _run(capsys, ["max-section", "--n", "2", "--restarts", "20"])
    assert code == 0 and payload["inputs"]["seed"] == 20250808
    code, payload = _run(capsys, ["verify", "--suite", "mc", "--samples", "100000"])
    assert code == 0 and {record["inputs"]["seed"] for record in payload} == {20250808}


def test_verify_constants_suite(capsys):
    code, payload = _run(capsys, ["verify", "--suite", "constants"])
    assert code == 0
    assert all(record["status"] == "ok" for record in payload)


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    code, first = _run(capsys, ["scan", "--p", "4", "--grid", "200", "--csv", str(path)])
    assert code == 0 and first["outputs"]["csv"] == str(path)
    code, second = _run(capsys, ["scan", "--p", "4", "--grid", "200"])
    assert code == 0 and "csv" not in second["outputs"]

    parser = build_parser()
    assert parser is build_parser()
    assert parser.parse_args(["scan", "--p", "4", "--csv", "x.csv"]).csv == "x.csv"
    assert parser.parse_args(["scan", "--p", "4"]).csv is None


def test_unknown_subcommand_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_slice_many_repeated_weights(capsys):
    # the product of the 201 weights underflows to zero in the inversion route
    weights = ",".join(["1"] * 190 + ["-1"] * 11)
    code, payload = _run(capsys, ["slice", "--project", "--weights", weights])
    assert code == 0
    assert payload["outputs"]["density_at_zero"] == pytest.approx(0.397902344289480, abs=1e-12)


# every subcommand, every suite, and negative orders in exponent notation
_EVERY_COMMAND = [
    ["p0"],
    ["constant", "--which", "lp-lq", "--p", "0.5", "--q", "2"],
    ["scan", "--p", "4", "--grid", "100"],
    ["scan", "--p", "-6.3e-05", "--grid", "100"],
    ["scan-l2", "--p", "1.5", "--grid", "100"],
    ["moment", "--p", "3", "--t", "0.2", "--normalized"],
    ["moment", "--p", "-6.3e-05", "--t", "0.5"],
    ["slice", "--weights", "1,0,-1", "--project", "--volume"],
    ["max-section", "--n", "3", "--restarts", "20", "--seed", "1"],
    ["crossings", "--t", "0.5"],
    ["verify", "--suite", "reduction"],
    ["verify", "--suite", "fradelizi"],
    ["verify", "--suite", "crossings"],
    ["verify", "--suite", "constants"],
    ["verify", "--suite", "mc", "--samples", "300000", "--seed", "7"],
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=" ".join)
def test_stdout_is_the_records_as_sorted_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    # the records of the top parser's two-level parse are the oracle of the fast path
    args = build_parser().parse_args(argv)
    records = args.handler(args)
    _assert_records(records)
    assert code == (1 if any(r["status"] == "violated" for r in records) else 0)
    assert out == json.dumps(records[0] if len(records) == 1 else records, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["moment", "--p", "2", "--t", "0.5", "extra"],
        ["moment", "--p", "2", "--t", "0.5", "--bogus", "1"],
        ["--tol", "1e-9", "verify", "--suite", "fradelizi"],
        [],
        ["no-such-command"],
        ["--help"],
        ["moment", "--help"],
        ["moment", "--t", "0.5"],
        ["moment", "--p", "-x", "--t", "0.5"],
        ["--", "moment", "--p", "2", "--t", "0.5"],
        ["scan", "--grid", "200"],
        ["constant", "--which", "lp-l9", "--p", "1"],
        ["verify", "--suite", "no-such-suite"],
        ["verify", "--s", "mc"],
        ["p0", "extra"],
    ],
    ids=" ".join,
)
def test_usage_errors_and_help_match_the_top_parser(capsys, argv):
    code = main(argv)
    new = (code, *capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    old = (2 if exc.value.code not in (0, None) else 0, *capsys.readouterr())
    assert new == old
    assert "usage: lcmoments" in new[1] + new[2]


# valid argv of every subcommand, option abbreviations, `--opt=value` and negative numbers among them
_VALID_ARGV = [
    *_EVERY_COMMAND,
    ["constant", "--wh", "lp-l1-lower", "--p=-6.3e-05"],
    ["scan", "--p=2.5", "--gr", "200", "--csv", "x.csv"],
    ["scan-l2", "--p", "3"],
    ["moment", "--p=2.5", "--t", "0.5", "--norm"],
    ["moment", "--normalized", "--t=1", "--p", "-0.5"],
    ["slice", "--weights=-1,2,-1", "--vol", "--proj"],
    ["max-section", "--n", "4", "--re", "3"],
    ["verify", "--suite", "mc", "--sam", "10"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=" ".join)
def test_the_subcommand_parser_reads_argv_as_the_top_parser(argv):
    # the table's reader returns a SimpleNamespace, argparse a Namespace: their fields compare
    assert vars(cli._parse_args(argv)) == vars(build_parser().parse_args(argv))


def _readme_commands():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("lcmoments ")]


@pytest.mark.parametrize("argv", [*_EVERY_COMMAND, *_readme_commands()], ids=" ".join)
def test_the_table_reader_itself_reads_every_command(argv):
    # the oracle property below would hold for a reader that left every argv to argparse
    args = cli._read_args(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


def test_top_level_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    names = ["constant", "p0", "scan", "scan-l2", "moment", "slice", "max-section", "crossings", "verify"]
    assert f"{{{','.join(names)}}}" in out
    for name in names:
        assert re.search(rf"^    {re.escape(name)} +\S", out, re.MULTILINE), name


def test_module_run_prints_what_main_prints(capsys, monkeypatch):
    # argparse wraps its usage text to the width in COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for argv, code in [
        (["moment", "--p", "3", "--t", "0.2", "--normalized"], 0),
        (["moment", "--p", "2", "--t", "0.5"], 0),
        (["moment", "--p", "2"], 2),
    ]:
        assert main(argv) == code
        expected = capsys.readouterr()
        command = [sys.executable, "-m", "lcmoments.cli", *argv]
        result = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert (result.returncode, result.stdout, result.stderr) == (code, expected.out, expected.err)
        if code == 0:
            _assert_records([json.loads(result.stdout)])  # one record
        else:
            assert "the following arguments are required: --t" in result.stderr


@pytest.mark.parametrize(
    "subcommand, scanner, p", [("scan", "scan_family_extrema", "4"), ("scan-l2", "scan_l2_ratio", "1.5")]
)
def test_scan_calls_the_scanner_bound_on_constants_at_call_time(capsys, monkeypatch, subcommand, scanner, p):
    # a rebinding of the constants attribute, as a tracer makes, reaches the subcommand
    real, calls = getattr(constants, scanner), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constants, scanner, spy)
    code, record = _run(capsys, [subcommand, "--p", p, "--grid", "100"])
    assert code == 0 and record["command"] == subcommand
    assert calls == [(float(p), 100)]


# option values: finite and non-finite numbers, in plain and exponent notation,
# and text that is no number at all.  A one_of nested in another joins its
# branches, so the mapping keeps the odd values to a third of the draws.
_NUMBERS = st.floats(allow_nan=True, allow_infinity=True)
_VALUES = st.one_of(
    st.floats(-1.5, 8.0).map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.one_of(
        _NUMBERS.map(repr),
        _NUMBERS.map(lambda x: f"{x:e}"),
        st.floats(-2.0, 200.0).map(lambda x: f"{x:e}"),
        st.sampled_from(["nan", "-inf", "1e999", "-1e-320", "0x10", "1e", "--p", "", " "]),
        st.text(max_size=6),
    ).map(str),
)
_WEIGHTS = st.one_of(
    st.lists(st.one_of(_NUMBERS, st.floats(-1.0, 1.0)), min_size=1, max_size=8).map(
        lambda ws: ",".join(map(repr, ws))
    ),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8).map(json.dumps),
    st.text(max_size=12),
)


_ARGV = st.one_of(
    st.just(["p0"]),
    st.tuples(st.sampled_from(["lp-l1-lower", "lp-l1-upper", "lp-l2-lower", "lp-l3"]), _VALUES).map(
        lambda c: ["constant", "--which", c[0], "--p", c[1]]
    ),
    st.tuples(_VALUES, st.one_of(st.just([]), _VALUES.map(lambda q: ["--q", q]))).map(
        lambda c: ["constant", "--which", "lp-lq", "--p", c[0], *c[1]]
    ),
    st.tuples(_VALUES, _VALUES, st.booleans()).map(
        lambda c: ["moment", "--p", c[0], "--t", c[1]] + ["--normalized"] * c[2]
    ),
    st.tuples(st.sampled_from(["scan", "scan-l2"]), _VALUES, st.integers(100, 300)).map(
        lambda c: [c[0], "--p", c[1], "--grid", str(c[2])]
    ),
    st.tuples(_WEIGHTS, st.booleans(), st.booleans()).map(
        lambda c: ["slice", "--weights", c[0]] + ["--project"] * c[1] + ["--volume"] * c[2]
    ),
    _VALUES.map(lambda t: ["crossings", "--t", t]),
    st.sampled_from(["reduction", "fradelizi", "crossings", "constants"]).map(lambda s: ["verify", "--suite", s]),
)


@settings(max_examples=120, deadline=None)
@given(argv=_ARGV)
def test_main_returns_an_exit_code_and_never_raises(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if out.getvalue():
        payload = json.loads(out.getvalue())
        _assert_records(payload if isinstance(payload, list) else [payload])


# edits that leave argv to argparse (abbreviations, `--flag=value`, a dropped value or option, `--`,
# `-h`, an unknown option) or keep it with the table's reader (a flag repeated with another value)
_ABBREVIATIONS = {"--normalized": "--norm", "--which": "--wh", "--grid": "--gr", "--project": "--p", "--suite": "--s"}
_EDITS = [
    lambda argv, i: argv,
    lambda argv, i: [_ABBREVIATIONS.get(token, token) for token in argv],
    lambda argv, i: [*argv[:1], f"{argv[1]}={argv[2]}", *argv[3:]] if len(argv) > 2 else argv,
    lambda argv, i: [*argv, argv[1], argv[-1]] if len(argv) > 2 else argv,
    lambda argv, i: argv[:-1] if i % 3 == 2 or len(argv) < 3 else argv[:1] + argv[2 + i % 3 :],
    lambda argv, i: [*argv[: i % (len(argv) + 1)], "--", *argv[i % (len(argv) + 1) :]],
    lambda argv, i: [*argv[: i % (len(argv) + 1)], "-h", *argv[i % (len(argv) + 1) :]],
    lambda argv, i: [*argv[: i % (len(argv) + 1)], ["--bogus", "-x", "--p"][i % 3], *argv[i % (len(argv) + 1) :]],
]


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=_ARGV, edit=st.sampled_from(_EDITS), i=st.integers(0, 12))
def test_main_prints_what_the_top_parser_and_the_handler_print(argv, edit, i):
    argv = edit(argv, i)
    new = _main_output(argv)
    # the oracle: every argv through argparse's top parser, then the handler
    with mock.patch.object(cli, "_read_args", lambda argv: None):
        assert _main_output(argv) == new
