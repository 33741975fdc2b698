"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import json
from collections import Counter
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# checkers reject planted wrong values
# ---------------------------------------------------------------------------


def test_density_checker_rejects_planted_value():
    ref = oracles.density_at_zero([2**-0.5, -(2**-0.5)])
    assert oracles.check_density(ref, ref) is None
    assert oracles.check_density(0.75, ref) is not None
    assert oracles.check_ceiling(0.75) is not None
    assert oracles.check_ceiling(ref) is None


def test_pattern_checker_rejects_planted_pattern():
    good = {"crossings": [0.3, 1.1, 2.4], "pattern": "+-+-"}
    assert oracles.check_pattern(good, "upper") is None
    assert oracles.check_pattern({"crossings": [0.3, 1.1], "pattern": "+-+"}, "upper") is not None
    assert oracles.check_pattern({"crossings": [0.3, 1.1, 2.4], "pattern": "-+-+"}, "lower") is not None


def test_mc_checker_rejects_four_standard_errors():
    target, se = 2.0, 0.001
    assert oracles.check_mc(target + 2.0 * se, se, target) is None
    assert oracles.check_mc(target - 4.0 * se, se, target) is not None
    assert oracles.check_mc(target + 4.0 * se, se, target) is not None


def test_close_checker_rejects_non_numbers():
    assert oracles.check_close(float("nan"), 1.0, atol=1.0) is not None
    assert oracles.check_close("1.0", 1.0, atol=1.0) is not None


# ---------------------------------------------------------------------------
# the references themselves
# ---------------------------------------------------------------------------


def test_density_oracle_closed_forms():
    r = 2**-0.5
    assert oracles.density_at_zero([r, -r]) == pytest.approx(r, rel=1e-15)
    # repeated weights: (G1 - G2)/2 with G ~ Gamma(2) has density 1/2 at zero
    assert oracles.density_at_zero([0.5, 0.5, -0.5, -0.5]) == pytest.approx(0.5, rel=1e-15)
    # zero weights contribute nothing
    assert oracles.density_at_zero([r, 0.0, -r]) == pytest.approx(r, rel=1e-15)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 7), (12, 20)])
def test_two_level_closed_form_matches_partial_fractions(a, b):
    w = [b / math.sqrt(a * b * (a + b))] * a + [-a / math.sqrt(a * b * (a + b))] * b
    assert oracles.two_level_density_at_zero(w) == pytest.approx(oracles.density_at_zero(w), rel=1e-12)


def test_density_oracle_survives_cancellation():
    # a near-two-point normal: the tiny weights barely move the density
    w = [-5.5e-09, -(2**-0.5), 1.7e-10, 2**-0.5]
    assert oracles.density_at_zero(w) == pytest.approx(2**-0.5, abs=1e-8)


@pytest.mark.parametrize("p,t", [(-0.5, 0.3), (2.5, 0.0), (4.0, 0.7), (1.5, 1.0), (2.0, 0.4)])
def test_moment_oracle_matches_density_quadrature(p, t):
    """The closed form against direct quadrature of the density of
    E_t = (E - 1) - t (E' - 1), which has its kink at x = t - 1."""
    with mpmath.workdps(30):
        kink = mpmath.mpf(t) - 1

        def density(x):
            if x >= kink:
                return mpmath.exp(-(x - kink)) / (1 + t)
            return mpmath.exp((x - kink) / t) / (1 + t) if t > 0 else mpmath.mpf(0)

        direct = mpmath.quad(lambda x: abs(x) ** p * density(x), sorted({-mpmath.inf, kink, 0, mpmath.inf}))
    assert float(oracles.family_moment(p, t)) == pytest.approx(float(direct), rel=1e-12)
    if p == 2.0:
        assert float(oracles.family_moment(p, t)) == pytest.approx(1 + t * t, rel=1e-15)


def test_p0_reference():
    assert 2.9414 < oracles.p0() < 2.9415
    assert abs(oracles.l2_transition() - 1.68) < 0.02


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_moves_inputs_not_operation_count(name):
    first = workloads.BUILDERS[name](1)
    second = workloads.BUILDERS[name](2)
    assert len(first) == len(second) >= 100
    assert Counter(op.label for op in first) == Counter(op.label for op in second)
    assert [op.inputs for op in first] != [op.inputs for op in second]
    again = workloads.BUILDERS[name](1)
    assert [op.inputs for op in first] == [op.inputs for op in again]


def test_known_defects_follow_seed_with_fixed_count():
    first, second = workloads.known_defects(1), workloads.known_defects(2)
    assert [op.label for op in first] == [op.label for op in second]
    assert [op.inputs for op in first] != [op.inputs for op in second]


def test_two_level_normal_is_unit_zero_sum_with_two_weights():
    import numpy as np

    w = np.array(workloads.two_level(np.random.default_rng(0), 120))
    assert w.size == 121
    assert abs(w.sum()) < 1e-12 and abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert len(set(w.tolist())) == 2


def test_strata_cover_each_slice_once():
    import numpy as np

    xs = workloads.strata(np.random.default_rng(0), -1.0, 1.0, 8)
    assert [math.floor((x + 1.0) / 0.25) for x in xs] == list(range(8))


# ---------------------------------------------------------------------------
# speed scaling
# ---------------------------------------------------------------------------


def test_speed_scale_follows_nearby_probes():
    probe = SpeedProbe()
    probe.times = [0.5 * k for k in range(40)]
    probe.durations = [REFERENCE_S] * 20 + [2.0 * REFERENCE_S] * 20
    assert probe.scale(2.2, 3.2) == pytest.approx(1.0)  # a fast spell
    assert probe.scale(15.2, 16.2) == pytest.approx(0.5)  # twice as slow: halve the time
    assert probe.scale(30.0, 30.0) == pytest.approx(0.5)  # past the last probe


def test_speed_probe_interrupts_only_long_operations():
    import signal
    import time

    probe = SpeedProbe()
    with probe:
        probe.op_start = time.perf_counter()
        while time.perf_counter() < probe.op_start + 0.3:  # short: left alone
            pass
        assert probe.durations == [] and probe.paused == 0.0
        while time.perf_counter() < probe.op_start + 1.05:  # long: probed from 0.5 s on
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 4 <= len(probe.durations) <= 7
    assert all(0.0 < d < 0.05 for d in probe.durations)
    assert 0.0 < probe.paused < 0.5
    assert probe.scale(probe.times[0], probe.times[-1]) > 0.0


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_rebinds_imported_names_and_restores_them():
    from lcmoments import constants, expfamily, specfun

    original = expfamily.exp_power_integral
    assert original is specfun.exp_power_integral
    with Tracer() as tracer:
        assert expfamily.exp_power_integral is not original
        assert expfamily.exp_power_integral is specfun.exp_power_integral
        constants.sharp_constant(3.0)
    assert expfamily.exp_power_integral is original
    assert specfun.integrate.quad.__module__.startswith("scipy")
    summary = tracer.summary()
    assert summary["constants.sharp_constant"]["calls"] == 1
    assert summary["expfamily.moment_et"]["calls"] == 1
    assert tracer.counters["specfun.quad.neval"] > 0
    spans = tracer.spans()
    assert (spans["self"] >= -1e-9).all()


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = _benchmark_json()
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", "certify", "--seed", "5", "--seconds", "1"]
    proc = subprocess.run(argv + ["--trace", str(trace)], capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert result["attempted"] >= 100 and result["failed"] == 0 and result["correct"] is True


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
