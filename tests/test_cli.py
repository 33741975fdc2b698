import json
import math

import pytest

from lcmoments.cli import OutputRecord, build_parser, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_output_record_round_trip():
    record = OutputRecord(
        command="scan",
        inputs={"p": 4.0, "grid": 100},
        outputs={"argopt_t": 0.0, "opt_value": 2.354},
        tolerances={"value": 1e-8},
        status="ok",
    )
    assert OutputRecord.from_json(record.to_json()) == record


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


def test_slice_json_weights(capsys):
    code, payload = _run(capsys, ["slice", "--weights", "[0.7071067811865476, -0.7071067811865476]"])
    assert code == 0
    assert payload["outputs"]["density_at_zero"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)


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


def _config(tmp_path, text):
    path = tmp_path / "quad.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["slice", "--weights", "1,x,-1"],
        lambda tmp: ["slice", "--weights", "[[1,2],[3]]"],
        lambda tmp: ["slice", "--weights", '[1,"a"]'],
        lambda tmp: ["--config", _config(tmp, "abs_tol = abc\n"), "verify", "--suite", "fradelizi"],
        lambda tmp: ["--config", _config(tmp, "max_refinements = 1.5\n"), "verify", "--suite", "fradelizi"],
        lambda tmp: ["--config", str(tmp), "verify", "--suite", "fradelizi"],
    ],
    ids=["weights-token", "weights-nested", "weights-string", "config-float", "config-int", "config-directory"],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    assert json.loads(capsys.readouterr().err)["status"] == "error"


def test_max_section_command(capsys):
    code, payload = _run(capsys, ["max-section", "--n", "2", "--restarts", "20", "--seed", "4"])
    assert code == 0
    assert payload["outputs"]["value"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)


def test_env_var_supplies_seed(capsys, monkeypatch):
    monkeypatch.setenv("LCMOMENTS_SEED", "777")
    code, payload = _run(capsys, ["max-section", "--n", "2", "--restarts", "20"])
    assert code == 0
    assert payload["inputs"]["seed"] == 777


def test_verify_constants_suite(capsys):
    code, payload = _run(capsys, ["verify", "--suite", "constants"])
    assert code == 0
    assert all(record["status"] == "ok" for record in payload)


def test_tol_override(capsys):
    code, payload = _run(capsys, ["--tol", "1e-9", "verify", "--suite", "fradelizi"])
    assert code == 0
    assert all(record["status"] == "ok" for record in payload)


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("rel_tol = 1e-9\nmax_refinements = 150\n")
    code, payload = _run(capsys, ["--config", str(cfg), "verify", "--suite", "fradelizi"])
    assert code == 0
    assert all(record["status"] == "ok" for record in payload)

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    assert main(["--config", str(bad), "verify", "--suite", "fradelizi"]) == 2

    # the family moments are closed forms, so the tail cutoff is no longer a setting
    retired = tmp_path / "retired.cfg"
    retired.write_text("tail_cutoff_log = 40\n")
    assert main(["--config", str(retired), "verify", "--suite", "fradelizi"]) == 2


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    code, first = _run(capsys, ["--tol", "1e-9", "scan", "--p", "4", "--grid", "200", "--csv", str(path)])
    assert code == 0 and first["outputs"]["csv"] == str(path)
    code, second = _run(capsys, ["scan", "--p", "4", "--grid", "200"])
    assert code == 0 and "csv" not in second["outputs"]

    parser = build_parser()
    assert parser is build_parser()
    assert parser.parse_args(["--tol", "1e-9", "scan", "--p", "4", "--csv", "x.csv"]).tol == 1e-9
    args = parser.parse_args(["scan", "--p", "4"])
    assert args.tol is None and args.csv is None


def test_unknown_subcommand_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_slice_many_repeated_weights(capsys):
    # the product of the 201 weights underflows to zero in the inversion route
    weights = ",".join(["1"] * 190 + ["-1"] * 11)
    code, payload = _run(capsys, ["slice", "--project", "--weights", weights])
    assert code == 0
    assert payload["outputs"]["density_at_zero"] == pytest.approx(0.397902344289480, abs=1e-12)
