"""lcmoments benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload family_scans --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop: one client in this process sends one
operation at a time.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run together with
the tracing overhead.  The last line of standard output is one JSON object;
the lines before it are a readable table.  Every run writes its result,
the failure ledger and (when traced) the spans under ``perfbench/out/``.
A ``sections`` run also calls ``workloads.known_defects`` once after the
timed passes and lists their failures apart: they are not operations of
the workload and do not count in ``attempted``, ``failed`` or ``correct``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools pinned to one thread before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_INTERPRETERS = 7

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "specfun.integrate_adaptive.calls": "count",
    "specfun.integrate_adaptive.self_s": "s",
    "specfun.quad.neval": "count",
    "specfun.shifted_exp_moment.calls": "count",
    "specfun.exp_power_integral.calls": "count",
    "expfamily.moment_et.calls": "count",
    "expfamily.moment_et.self_s": "s",
    "expfamily.abs_moment.calls": "count",
    "expfamily.abs_moment.self_s": "s",
    "constants.scan.calls": "count",
    "constants.scan.self_s": "s",
    "constants.scan.norm_evals": "count",
    "constants.find_p0.self_s": "s",
    "search.bisect_root.f_evals": "count",
    "search.golden_section.f_evals": "count",
    "crossings.verify_3crossings.calls": "count",
    "crossings.verify_3crossings.self_s": "s",
    "crossings.detect_sign_changes.points": "count",
    "crossings.nonneg_decomposition_check.self_s": "s",
    "simplex.density_at_zero.ms_p50.n2-10": "ms",
    "simplex.density_at_zero.ms_p50.n11-50": "ms",
    "simplex.density_at_zero.ms_p50.n51-200": "ms",
    "simplex.density_at_zero.failed": "count",
    "simplex.maximize_section.s_per_restart": "s",
    "simplex.maximize_section.evaluations": "count",
    "simplex.maximize_section.above_ceiling": "count",
    "mc.sample_xab.msamples_per_s": "Msamples/s",
    "mc.estimate_abs_moment.msamples_per_s": "Msamples/s",
    "mc.estimate_density_at_zero.msamples_per_s": "Msamples/s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# import and first-call set-up, timed inside a fresh interpreter, then the
# speed probe in the same interpreter (see speed.py)
_SETUP_CODE = """
import contextlib, io, statistics, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import lcmoments, lcmoments.cli
with contextlib.redirect_stdout(io.StringIO()):
    lcmoments.cli.main(["moment", "--p", "2.5", "--t", "0.5"])
elapsed = time.perf_counter() - t0
import speed
probe = speed.SpeedProbe()
for _ in range(21):  # the first sample pays for warming the probe's code paths
    probe.sample()
print(elapsed, statistics.median(probe.durations[1:]))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of import plus first-call set-up,
    scaled by each interpreter's own speed probe, and raw.

    One discarded interpreter first, so byte-code compilation is not timed.
    """
    from speed import REFERENCE_S

    code = _SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR))
    scaled, raw = [], []
    for i in range(SETUP_INTERPRETERS + 1):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        if i:
            elapsed, probe_s = map(float, proc.stdout.split()[-2:])
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / probe_s)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(ops, workload: str, probe, ctx: dict | None = None):
    """One closed-loop pass over the operation list; checks and the speed
    probe (see speed.py) run off the clock.

    Returns each operation's latency, the failed operations, the context the
    checks filled in (``ctx``, a new one by default), and each operation's
    start time.
    """
    ctx = {} if ctx is None else ctx
    latencies, failures, starts = [], [], []
    with probe:
        for index, op in enumerate(ops):
            if probe.due():
                probe.sample()
            paused = probe.paused
            t0 = probe.op_start = time.perf_counter()
            try:
                output = op.run(ctx)
                error = None
            except Exception as exc:  # an operation that raised counts as failed
                output, error = None, f"{type(exc).__name__}: {exc}"
            probe.op_start = None
            latencies.append(time.perf_counter() - t0 - (probe.paused - paused))
            starts.append(t0)
            if error is None:
                try:
                    error = op.check(output, ctx)
                except Exception as exc:  # an unreadable output fails its check
                    error = f"unreadable output, {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(
                    {"index": index, "workload": workload, "op": op.label, "inputs": op.inputs, "error": error}
                )
    return latencies, failures, ctx, starts


def run_passes(ops, workload: str, budget: float, probe):
    """Passes until the next would overrun ``budget`` seconds (at least one)."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(ops, workload, probe))
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def scaled_latencies(p, probe) -> list[float]:
    """A pass's latencies in reference seconds (see speed.py)."""
    return [lat * probe.scale(start, start + lat) for lat, start in zip(p[0], p[3])]


def timing_metrics(latency_lists) -> dict:
    """wall_s (median pass), and op_p50_ms and op_p90_ms over the operations,
    each operation taken at its median latency over the passes."""
    per_op = np.median(np.asarray(latency_lists), axis=0)
    return {
        "wall_s": statistics.median(sum(lats) for lats in latency_lists),
        "op_p50_ms": float(np.percentile(per_op, 50) * 1e3),
        "op_p90_ms": float(np.percentile(per_op, 90) * 1e3),
    }


def layer_metrics(tracer, ctx, defects) -> dict:
    """The PER_LAYER values of one traced pass (all but the overhead).

    The two defect counts also take in the known-defect probes' pass
    (``defects``, untraced; None on workloads without probes).
    """
    spans = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}
    duration = spans["end"] - spans["start"]

    def mask(*names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(spans["name"], wanted)

    def calls(*names):
        return int(mask(*names).sum())

    def self_s(*names):
        return float(spans["self"][mask(*names)].sum())

    def rate(name):
        m = mask(name)
        busy = float(duration[m].sum())
        return float(spans["tag"][m].sum()) / busy / 1e6 if busy > 0 else 0.0

    scans = ("constants.scan_family_extrema", "constants.scan_l2_ratio")
    in_scan = tracer.within(spans, set(scans))
    density = mask("simplex.density_at_zero")
    out = {
        "specfun.integrate_adaptive.calls": calls("specfun.integrate_adaptive"),
        "specfun.integrate_adaptive.self_s": self_s("specfun.integrate_adaptive"),
        "specfun.quad.neval": tracer.counters["specfun.quad.neval"],
        "specfun.shifted_exp_moment.calls": calls("specfun.shifted_exp_moment"),
        "specfun.exp_power_integral.calls": calls("specfun.exp_power_integral"),
        "expfamily.moment_et.calls": calls("expfamily.moment_et"),
        "expfamily.moment_et.self_s": self_s("expfamily.moment_et"),
        "expfamily.abs_moment.calls": calls("expfamily.abs_moment"),
        "expfamily.abs_moment.self_s": self_s("expfamily.abs_moment"),
        "constants.scan.calls": calls(*scans),
        "constants.scan.self_s": self_s(*scans),
        "constants.scan.norm_evals": int((mask("expfamily.norm_ebar", "constants.l2_ratio") & in_scan).sum()),
        "constants.find_p0.self_s": self_s("constants.find_p0"),
        "search.bisect_root.f_evals": tracer.counters["search.bisect_root.f_evals"],
        "search.golden_section.f_evals": tracer.counters["search.golden_section.f_evals"],
        "crossings.verify_3crossings.calls": calls("crossings.verify_3crossings"),
        "crossings.verify_3crossings.self_s": self_s("crossings.verify_3crossings"),
        "crossings.detect_sign_changes.points": tracer.counters["crossings.detect_sign_changes.points"],
        "crossings.nonneg_decomposition_check.self_s": self_s("crossings.nonneg_decomposition_check"),
    }
    for lo, hi in ((2, 10), (11, 50), (51, 200)):
        m = density & (spans["tag"] >= lo) & (spans["tag"] <= hi)
        out[f"simplex.density_at_zero.ms_p50.n{lo}-{hi}"] = float(np.median(duration[m]) * 1e3) if m.any() else 0.0
    out["simplex.density_at_zero.failed"] = int(spans["failed"][density].sum())
    results = ctx.get("max_section", [])
    if defects is not None:
        out["simplex.density_at_zero.failed"] += sum(f["op"] == "cli slice" for f in defects[1])
        results = results + defects[2].get("max_section", [])
    optimiser = mask("simplex.maximize_section")
    restarts = int(spans["tag"][optimiser].sum())
    out["simplex.maximize_section.s_per_restart"] = float(duration[optimiser].sum()) / restarts if restarts else 0.0
    out["simplex.maximize_section.evaluations"] = sum(evals for _, evals in ctx.get("max_section", []))
    out["simplex.maximize_section.above_ceiling"] = sum(oracles.check_ceiling(v) is not None for v, _ in results)
    for name in ("mc.sample_xab", "mc.estimate_abs_moment", "mc.estimate_density_at_zero"):
        out[f"{name}.msamples_per_s"] = rate(name)
    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = self_s("cli.main")
    return out


def ledger(passes) -> list[dict]:
    """Each failed operation once, with the number of passes it failed in."""
    by_index: dict[int, dict] = {}
    for _, failures, *_ in passes:
        for f in failures:
            entry = by_index.setdefault(f["index"], dict(f, passes_failed=0))
            entry["passes_failed"] += 1
    return [by_index[i] for i in sorted(by_index)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcmoments" / "__init__.py").is_file():
        print(f"error: no lcmoments sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lcmoments
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer

    if Path(lcmoments.__file__).resolve().parent != (SRC / "lcmoments").resolve():
        print(f"error: imported lcmoments from {lcmoments.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    # the program's RuntimeWarnings would only clutter the table; failures are checked
    warnings.simplefilter("ignore")

    env = environment(args.seed)
    probe = SpeedProbe()

    def known_defects(ctx):
        """The known-defect probes' pass, off the clock, on ``sections`` only;
        ``ctx`` is the context of the workload's last pass."""
        if args.workload != "sections":
            return None
        probes = workloads.known_defects(args.seed)
        return run_pass(probes, "sections/known_defects", probe, {"a_star": dict(ctx.get("a_star", {}))})

    setup_s, raw_setup_s = measure_setup() if args.trace == 0 else (None, None)
    ops = workloads.BUILDERS[args.workload](args.seed)
    workloads.call_cli(["moment", "--p", "2.5", "--t", "0.5"])  # warm-up, off the clock

    if args.trace == 1:
        # the traced pass goes first, so it meets the caches cold, as one
        # CLI invocation does; the untraced passes after it give the overhead
        begin = time.perf_counter()
        with Tracer() as tracer:
            traced = run_pass(ops, args.workload, probe)
        passes = run_passes(ops, args.workload, args.seconds - (time.perf_counter() - begin), probe)
        defects = known_defects(passes[-1][2])
        untraced = statistics.fmean(sum(scaled_latencies(p, probe)) for p in passes)
        values = layer_metrics(tracer, traced[2], defects)
        values["trace.overhead_frac"] = sum(scaled_latencies(traced, probe)) / untraced - 1.0
        units = PER_LAYER
        passes.insert(0, traced)
        raw = {}
    else:
        passes = run_passes(ops, args.workload, args.seconds, probe)
        defects = known_defects(passes[-1][2])
        values = timing_metrics([scaled_latencies(p, probe) for p in passes])
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        raw = timing_metrics([p[0] for p in passes])
        raw["setup_s"] = raw_setup_s
    walls = [sum(p[0]) for p in passes]
    by_label: dict[str, float] = {}
    for op, *times in zip(ops, *(p[0] for p in passes)):
        by_label[op.label] = by_label.get(op.label, 0.0) + sum(times) / len(passes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = ledger(passes)
    attempted = len(ops) * len(passes)
    failed_ops = sum(len(p[1]) for p in passes)
    known = [dict(f, known_defect=True) for f in defects[1]] if defects is not None else []

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": env,
        "passes": len(passes),
        "raw_metrics": raw,
        "speed_probe_s": [[t - probe.times[0], d] for t, d in zip(probe.times, probe.durations)],
        "op_start_latency_s": [[[t - probe.times[0], lat] for t, lat in zip(p[3], p[0])] for p in passes],
        "pass_wall_s": walls,
        "op_seconds_per_pass": by_label,
        "operations_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed_ops,
        "failed_frac": failed_ops / attempted,
        "metrics": metrics,
        "ledger": failed,
        "known_defects": known,
    }
    if args.trace == 1:
        result["spans"] = tracer.summary()
        tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    with open(OUT / f"ledger-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for entry in failed + known:
            fh.write(json.dumps(entry) + "\n")

    print(f"# environment {json.dumps(env)}")
    print(f"# workload {args.workload}: {len(ops)} operations x {len(passes)} passes, closed loop, 1 client")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}")
    for name, value in raw.items():
        print(f"{'raw ' + name:48s} {value:>16.6g} {END_TO_END[name]} (unscaled, see speed.py)")
    print(f"{'failed_frac':48s} {failed_ops / attempted:>16.6g} ratio ({failed_ops} of {attempted})")
    for entry in failed:
        print(f"# FAILED [{entry['op']}] {json.dumps(entry['inputs'])[:160]}: {entry['error'][:240]}")
    if defects is not None:
        print(f"# known defects: {len(known)} of {len(defects[0])} probes failed (not counted in failed_frac)")
    for entry in known:
        print(f"# KNOWN DEFECT [{entry['op']}] {json.dumps(entry['inputs'])[:160]}: {entry['error'][:240]}")
    print(json.dumps({"correct": failed_ops == 0, "attempted": attempted, "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
