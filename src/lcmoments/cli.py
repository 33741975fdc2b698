"""Batch command-line front end.

Every computation is exposed as a subcommand emitting one JSON record (or a
list of records for the verification suites) on stdout; scan profiles can
additionally be exported as CSV.  Exit codes: 0 all checks ok, 1 a verified
inequality was violated, 2 usage, domain or numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import constants, crossings, expfamily, mc, simplex
from .errors import (
    BracketError,
    CrossingPatternError,
    DegenerateSectionError,
    DomainError,
    NumericalError,
    QuadratureError,
)
from .specfun import DEFAULT_QUADRATURE, QuadratureConfig

SEED_ENV_VAR = "LCMOMENTS_SEED"
_DEFAULT_SEED = 20250808


@dataclasses.dataclass
class OutputRecord:
    command: str
    inputs: dict
    outputs: dict
    tolerances: dict = dataclasses.field(default_factory=dict)
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        return cls(**json.loads(text))


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, _DEFAULT_SEED))


def _quad_config(args) -> QuadratureConfig:
    overrides = {}
    if getattr(args, "config", None):
        fields = {f.name for f in dataclasses.fields(QuadratureConfig)}
        with open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in fields:
                    raise DomainError(f"unknown quadrature option {key!r}")
                try:
                    overrides[key] = int(value) if key == "max_refinements" else float(value)
                except ValueError:
                    raise DomainError(f"cannot read {value.strip()!r} as quadrature option {key}") from None
    if getattr(args, "tol", None) is not None:
        overrides.setdefault("abs_tol", args.tol)
        overrides.setdefault("rel_tol", args.tol)
    return QuadratureConfig(**overrides) if overrides else DEFAULT_QUADRATURE


def _write_profile_csv(path: str, profile: np.ndarray, columns=("t", "value")) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in profile:
            writer.writerow([f"{row[0]:.17g}", f"{row[1]:.17g}"])


def _parse_weights(text: str) -> list[float]:
    text = text.strip()
    values = json.loads(text) if text.startswith("[") else [tok for tok in text.split(",") if tok.strip()]
    if not isinstance(values, list) or not values:
        raise DomainError("weights must be a nonempty JSON array or comma-separated list")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise DomainError(f"weights must be numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (records, exit_code)
# ---------------------------------------------------------------------------


def _cmd_constant(args, cfg):
    which = args.which
    if which == "lp-lq":
        if args.q is None:
            raise DomainError("lp-lq needs --q")
        value = constants.lp_lq_ratio(args.p, args.q)
        inputs = {"which": which, "p": args.p, "q": args.q}
    else:
        fn = {
            "lp-l1-lower": constants.lp_l1_lower,
            "lp-l1-upper": constants.sharp_constant,
            "lp-l2-lower": constants.lp_l2_lower,
        }[which]
        value = fn(args.p)
        inputs = {"which": which, "p": args.p}
    return [OutputRecord("constant", inputs, {"value": value})], 0


def _cmd_p0(args, cfg):
    p0 = constants.find_p0()
    residual = constants.branch_gap(p0)
    record = OutputRecord(
        "p0",
        {},
        {"p0": p0, "residual": residual},
        tolerances={"residual": 1e-12},
        status="ok" if abs(residual) < 1e-12 else "violated",
    )
    return [record], 0 if record.status == "ok" else 1


def _cmd_scan(args, cfg):
    result = constants.scan_family_extrema(args.p, args.grid)
    if args.csv:
        _write_profile_csv(args.csv, result.profile)
    outputs = {"argopt_t": result.argopt_t, "opt_value": result.opt_value}
    if args.csv:
        outputs["csv"] = args.csv
    return [OutputRecord("scan", {"p": args.p, "grid": args.grid}, outputs)], 0


def _cmd_scan_l2(args, cfg):
    result = constants.scan_l2_ratio(args.p, args.grid)
    if args.csv:
        _write_profile_csv(args.csv, result.profile, columns=("s", "value"))
    outputs = {"argopt_s": result.argopt_t, "opt_value": result.opt_value}
    if args.csv:
        outputs["csv"] = args.csv
    return [OutputRecord("scan-l2", {"p": args.p, "grid": args.grid}, outputs)], 0


def _cmd_moment(args, cfg):
    raw = expfamily.moment_et(args.p, args.t)
    outputs = {"moment": raw}
    if args.normalized:
        outputs["moment"] = raw / expfamily.family_scale(args.t) ** args.p
        outputs["scale"] = expfamily.family_scale(args.t)
    inputs = {"p": args.p, "t": args.t, "normalized": bool(args.normalized)}
    return [OutputRecord("moment", inputs, outputs)], 0


def _cmd_slice(args, cfg):
    values = _parse_weights(args.weights)
    n = len(values) - 1
    if args.volume and n < 2:
        raise DomainError(f"section volume needs n >= 2, got n = {n}")
    weights = simplex.WeightVector.from_raw(values, project=args.project)
    outputs = {"density_at_zero": simplex.density_at_zero(weights)}
    if args.volume:
        outputs["volume"] = simplex.section_volume(weights, n)
    inputs = {"weights": list(weights.a), "n": n, "project": bool(args.project)}
    return [OutputRecord("slice", inputs, outputs)], 0


def _cmd_max_section(args, cfg):
    seed = args.seed if args.seed is not None else _default_seed()
    result = simplex.maximize_section(args.n, args.restarts, seed)
    outputs = {
        "a_star": list(result.a_star.a),
        "value": result.value,
        "max_evaluated": result.max_evaluated,
        "evaluations": result.evaluations,
    }
    inputs = {"n": args.n, "restarts": args.restarts, "seed": seed}
    return [OutputRecord("max-section", inputs, outputs)], 0


def _cmd_crossings(args, cfg):
    try:
        result = crossings.verify_3crossings(args.t)
    except CrossingPatternError as exc:
        outputs = {"message": str(exc), "reports": [r.as_dict() for r in exc.reports]}
        return [OutputRecord("crossings", {"t": args.t}, outputs, status="violated")], 1
    outputs = {
        "report_upper": result.report_upper.as_dict(),
        "report_lower": result.report_lower.as_dict(),
    }
    return [OutputRecord("crossings", {"t": args.t}, outputs)], 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_reduction(cfg, seed, samples):
    records = []
    for density in expfamily.catalogue():
        for p in (-0.5, 0.5, 1.5, 3.0):
            check = expfamily.reduction_check(density, p, cfg)
            records.append(
                OutputRecord(
                    "verify/reduction",
                    {"density": density.name, "p": p},
                    {"lhs": check.lhs, "rhs": check.rhs},
                    tolerances={"slack": expfamily.COMPARISON_SLACK},
                    status="ok" if check.holds else "violated",
                )
            )
    return records


def _suite_fradelizi(cfg, seed, samples):
    records = []
    for density in expfamily.catalogue():
        for exponent in (2.0, 3.0, 2.5):
            phi = expfamily.convex_power(exponent)
            check = expfamily.fradelizi_check(density, phi, cfg)
            records.append(
                OutputRecord(
                    "verify/fradelizi",
                    {"density": density.name, "phi": phi.__name__},
                    {"lhs": check.lhs, "rhs": check.rhs},
                    tolerances={"slack": expfamily.COMPARISON_SLACK},
                    status="ok" if check.holds else "violated",
                )
            )
    return records


def _suite_crossings(cfg, seed, samples):
    records = []
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        try:
            result = crossings.verify_3crossings(t)
        except CrossingPatternError as exc:
            records.append(
                OutputRecord("verify/crossings", {"t": t}, {"message": str(exc)}, status="violated")
            )
            continue
        records.append(
            OutputRecord(
                "verify/crossings",
                {"t": t},
                {
                    "upper_crossings": list(result.report_upper.crossings),
                    "lower_crossings": list(result.report_lower.crossings),
                },
            )
        )
    for p in (-0.5, 2.0, 3.5):
        ok = crossings.nonneg_decomposition_check(0.5, p)
        records.append(
            OutputRecord(
                "verify/decomposition",
                {"t": 0.5, "p": p},
                {"nonnegative": bool(ok)},
                tolerances={"slack": crossings.DECOMPOSITION_SLACK},
                status="ok" if ok else "violated",
            )
        )
    return records


def _suite_constants(cfg, seed, samples):
    records = []
    p0 = constants.find_p0()
    checks = [
        ("p0_bracket", 2.9414 < p0 < 2.9415, {"p0": p0}),
        ("gap_below", constants.branch_gap(2.9414) > 1e-5, {}),
        ("gap_above", constants.branch_gap(2.9415) < -1e-5, {}),
    ]
    for p in (0.5, 2.0, 4.0):
        scan = constants.scan_family_extrema(p, 400)
        target = constants.lp_l1_lower(p) if p <= 1 else constants.sharp_constant(p)
        checks.append(
            (f"scan_p{p:g}", abs(scan.opt_value - target) < 1e-8, {"opt": scan.opt_value})
        )
    for name, ok, extra in checks:
        records.append(
            OutputRecord(
                "verify/constants", {"check": name}, extra, status="ok" if ok else "violated"
            )
        )
    return records


def _suite_mc(cfg, seed, samples):
    records = []
    config = mc.McConfig(seed=seed, samples=samples)
    cases = [
        ((1.0, 1.0), 2.0, expfamily.moment_et(2.0, 1.0)),
        ((1.0, 0.5), 2.0, expfamily.moment_et(2.0, 0.5)),
        ((1.0, 0.0), 4.0, expfamily.moment_et(4.0, 0.0)),
    ]
    for (a, b), p, target in cases:
        stream = mc.sample_xab(expfamily.TwoSidedExpParams(a, b), config)
        est = mc.estimate_abs_moment(stream, p)
        ok = abs(est.estimate - target) <= 3.0 * est.standard_error
        records.append(
            OutputRecord(
                "verify/mc",
                {"a": a, "b": b, "p": p, "seed": seed},
                {"estimate": est.estimate, "se": est.standard_error, "target": target},
                tolerances={"confidence": "3 standard errors"},
                status="ok" if ok else "violated",
            )
        )
    return records


_SUITES = {
    "reduction": _suite_reduction,
    "fradelizi": _suite_fradelizi,
    "crossings": _suite_crossings,
    "constants": _suite_constants,
    "mc": _suite_mc,
}


def _cmd_verify(args, cfg):
    seed = args.seed if args.seed is not None else _default_seed()
    records = _SUITES[args.suite](cfg, seed, args.samples)
    code = 0 if all(r.status == "ok" for r in records) else 1
    return records, code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmoments",
        description="Sharp moment-comparison constants and simplex slicing, batch interface.",
    )
    parser.add_argument("--tol", type=float, default=None, help="override quadrature tolerances")
    parser.add_argument("--config", default=None, help="key=value file with quadrature overrides")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constant", help="evaluate a sharp comparison constant")
    p.add_argument("--which", required=True, choices=["lp-l1-lower", "lp-l1-upper", "lp-l2-lower", "lp-lq"])
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    p.set_defaults(handler=_cmd_constant)

    p = sub.add_parser("p0", help="locate the branch-crossover order")
    p.set_defaults(handler=_cmd_p0)

    p = sub.add_parser("scan", help="profile the normalized family L_p norm over t")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("scan-l2", help="extremise the L_p/L_2 ratio over the family")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_scan_l2)

    p = sub.add_parser("moment", help="absolute moment of a family member")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(handler=_cmd_moment)

    p = sub.add_parser("slice", help="density at zero / section volume for a weight vector")
    p.add_argument("--weights", required=True, help="comma-separated values or JSON array")
    p.add_argument("--volume", action="store_true")
    p.add_argument("--project", action="store_true", help="recentre and renormalise the weights")
    p.set_defaults(handler=_cmd_slice)

    p = sub.add_parser("max-section", help="maximise the section volume over normals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_max_section)

    p = sub.add_parser("crossings", help="certify the three-crossings sign patterns")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_crossings)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=1_000_000, help="sample count for the mc suite")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _quad_config(args)
        records, code = args.handler(args, cfg)
    except (
        DomainError,
        OSError,
        json.JSONDecodeError,
        BracketError,
        DegenerateSectionError,
        NumericalError,
        QuadratureError,
    ) as exc:
        print(json.dumps({"status": "error", "message": str(exc)}), file=sys.stderr)
        return 2
    if len(records) == 1:
        print(records[0].to_json())
    else:
        print(json.dumps([dataclasses.asdict(r) for r in records], sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
