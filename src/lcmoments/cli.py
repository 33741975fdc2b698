"""Batch command-line front end.

Every computation is exposed as a subcommand emitting one JSON record (or a
list of records for the verification suites) on stdout; scan profiles can
additionally be exported as CSV.  Exit codes: 0 all checks ok, 1 a verified
inequality was violated, 2 usage, domain or numerical error.  Options are read
off the ``_COMMANDS`` table, where a negative number, exponent notation
included, is a value by the same pattern as in argparse; argparse, imported
only then, writes the help and usage errors and reads abbreviations and
``--flag=value``.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
import types

from . import expfamily  # the handlers that use constants, crossings, mc and simplex import them
from .errors import BracketError, CrossingPatternError, DomainError, NumericalError

_DEFAULT_SEED = 20250808
# sample count of the mc suite when --samples is not given
_MC_SAMPLES = 1_000_000

# the q of lp_lq_ratio behind each named lower constant
_LOWER_CONSTANT_Q = {"lp-l1-lower": 1.0, "lp-l2-lower": 2.0}

# a negative number, exponent notation included: a value to the table's reader and to argparse,
# whose own pattern in Python 3.11 has no exponent and would take "-6.3e-05" for an option name
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _record(command, inputs, outputs, tolerances=None, ok=True) -> dict:
    """One JSON record, as printed; a record whose check failed has status "violated"."""
    status = "ok" if ok else "violated"
    return {"command": command, "inputs": inputs, "outputs": outputs, "tolerances": tolerances or {}, "status": status}


def _write_profile_csv(path: str, profile, columns) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f"{x:.17g}", f"{value:.17g}"] for x, value in zip(*profile))


def _parse_weights(text: str) -> list[float]:
    text = text.strip()
    as_json = text.startswith("[")
    try:
        values = json.loads(text) if as_json else [tok for tok in text.split(",") if tok.strip()]
    except RecursionError:
        raise DomainError("weights must be a flat array, got one nested too deeply to parse") from None
    if not isinstance(values, list) or not values:
        raise DomainError("weights must be a nonempty JSON array or comma-separated list")
    try:
        # a JSON array holds numbers only: float() would read true as 1 and "2" as 2
        if as_json and not all(type(v) in (int, float) for v in values):
            raise TypeError
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"weights must be numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its records
# ---------------------------------------------------------------------------


def _cmd_constant(args):
    from . import constants
    which = args.which
    if args.q is not None and which != "lp-lq":
        raise DomainError(f"--q applies only to lp-lq, not {which}")
    inputs = {"which": which, "p": args.p}
    if which == "lp-lq":
        if args.q is None:
            raise DomainError("lp-lq needs --q")
        value = constants.lp_lq_ratio(args.p, args.q)
        inputs["q"] = args.q
    elif which == "lp-l1-upper":
        value = constants.sharp_constant(args.p)
    else:
        value = constants.lp_lq_ratio(args.p, _LOWER_CONSTANT_Q[which])
    return [_record("constant", inputs, {"value": value})]


def _cmd_p0(args):
    from . import constants
    p0 = constants.find_p0()
    residual = constants.branch_gap(p0)
    outputs = {"p0": p0, "residual": residual}
    return [_record("p0", {}, outputs, tolerances={"residual": 1e-12}, ok=abs(residual) < 1e-12)]


# subcommand -> (scanner's name in constants, read at each call; output key of the extremiser; CSV column)
_SCANS = {
    "scan": ("scan_family_extrema", "argopt_t", "t"),
    "scan-l2": ("scan_l2_ratio", "argopt_s", "s"),
}


def _cmd_scan(args):
    from . import constants
    scanner, key, column = _SCANS[args.subcommand]
    result = getattr(constants, scanner)(args.p, args.grid)
    outputs = {key: result.argopt_t, "opt_value": result.opt_value}
    if args.csv:
        _write_profile_csv(args.csv, result.profile, columns=(column, "value"))
        outputs["csv"] = args.csv
    return [_record(args.subcommand, {"p": args.p, "grid": args.grid}, outputs)]


def _cmd_moment(args):
    raw = expfamily.moment_et(args.p, args.t)
    outputs = {"moment": raw}
    if args.normalized:
        scale = expfamily.family_scale(args.t)
        outputs["moment"] = raw / scale**args.p
        if not math.isfinite(outputs["moment"]):
            raise NumericalError(f"normalized moment of order {args.p} overflows")
        outputs["scale"] = scale
    inputs = {"p": args.p, "t": args.t, "normalized": bool(args.normalized)}
    return [_record("moment", inputs, outputs)]


def _cmd_slice(args):
    from . import simplex
    values = _parse_weights(args.weights)
    weights = simplex.WeightVector.from_raw(values, project=args.project)
    outputs = {"density_at_zero": simplex.density_at_zero(weights)}
    if args.volume:
        outputs["volume"] = simplex.section_volume(weights)
    inputs = {"weights": weights.a.tolist(), "n": len(values) - 1, "project": bool(args.project)}
    return [_record("slice", inputs, outputs)]


def _cmd_max_section(args):
    from . import simplex
    result = simplex.maximize_section(args.n, args.restarts, args.seed)
    outputs = {
        "a_star": result.a_star.a.tolist(),
        "value": result.value,
        "max_evaluated": result.max_evaluated,
        "evaluations": result.evaluations,
    }
    inputs = {"n": args.n, "restarts": args.restarts, "seed": args.seed}
    return [_record("max-section", inputs, outputs)]


def _cmd_crossings(args):
    from . import crossings
    try:
        result = crossings.verify_3crossings(args.t)
    except CrossingPatternError as exc:
        outputs = {"message": str(exc), "reports": [r.as_dict() for r in exc.reports]}
        return [_record("crossings", {"t": args.t}, outputs, ok=False)]
    outputs = {
        "report_upper": result.report_upper.as_dict(),
        "report_lower": result.report_lower.as_dict(),
    }
    return [_record("crossings", {"t": args.t}, outputs)]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_comparison(name, check, orders, label):
    """One record per catalogue density and order: ``check``'s two sides."""
    records = []
    for density in expfamily.catalogue():
        for order in orders:
            result = check(density, order)
            records.append(
                _record(
                    f"verify/{name}",
                    {"density": density.name, **label(order)},
                    {"lhs": result.lhs, "rhs": result.rhs},
                    tolerances={"slack": expfamily.COMPARISON_SLACK},
                    ok=result.holds,
                )
            )
    return records


def _suite_crossings():
    from . import crossings
    records = []
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        try:
            result = crossings.verify_3crossings(t)
            upper, lower = result.report_upper.crossings, result.report_lower.crossings
            outputs, ok = {"upper_crossings": list(upper), "lower_crossings": list(lower)}, True
        except CrossingPatternError as exc:
            outputs, ok = {"message": str(exc)}, False
        records.append(_record("verify/crossings", {"t": t}, outputs, ok=ok))
    for p in (-0.5, 2.0, 3.5):
        try:
            ok = bool(crossings.nonneg_decomposition_check(0.5, p))
            outputs = {"nonnegative": ok}
        except CrossingPatternError as exc:
            outputs, ok = {"message": str(exc)}, False
        records.append(_record("verify/decomposition", {"t": 0.5, "p": p}, outputs, ok=ok))
    return records


def _suite_constants():
    from . import constants
    p0 = constants.find_p0()
    checks = [
        ("p0_bracket", 2.9414 < p0 < 2.9415, {"p0": p0}),
        ("gap_below", constants.branch_gap(2.9414) > 1e-5, {}),
        ("gap_above", constants.branch_gap(2.9415) < -1e-5, {}),
    ]
    for p in (0.5, 2.0, 4.0):
        scan = constants.scan_family_extrema(p, 400)
        target = constants.lp_lq_ratio(p, 1.0) if p <= 1 else constants.sharp_constant(p)
        checks.append(
            (f"scan_p{p:g}", abs(scan.opt_value - target) < 1e-8, {"opt": scan.opt_value})
        )
    return [_record("verify/constants", {"check": name}, extra, ok=ok) for name, ok, extra in checks]


def _suite_mc(seed, samples):
    from . import mc
    config = mc.McConfig(seed=seed, samples=samples)
    cases = [
        ((1.0, 1.0), 2.0, expfamily.moment_et(2.0, 1.0)),
        ((1.0, 0.5), 2.0, expfamily.moment_et(2.0, 0.5)),
        ((1.0, 0.0), 4.0, expfamily.moment_et(4.0, 0.0)),
    ]
    estimates = mc.estimate_xab_moments(
        [(expfamily.TwoSidedExpParams(a, b), p) for (a, b), p, _ in cases], config
    )
    records = []
    for ((a, b), p, target), est in zip(cases, estimates):
        ok = abs(est.estimate - target) <= 3.0 * est.standard_error
        records.append(
            _record(
                "verify/mc",
                {"a": a, "b": b, "p": p, "seed": seed},
                {"estimate": est.estimate, "se": est.standard_error, "target": target},
                tolerances={"confidence": "3 standard errors"},
                ok=ok,
            )
        )
    return records


_SUITES = {
    "reduction": lambda: _suite_comparison(
        "reduction", expfamily.reduction_check, (-0.5, 0.5, 1.5, 3.0), lambda p: {"p": p}
    ),
    "fradelizi": lambda: _suite_comparison(
        "fradelizi", expfamily.fradelizi_check, (2.0, 3.0, 2.5), lambda r: {"phi": f"abs_power_{r:g}"}
    ),
    "crossings": _suite_crossings,
    "constants": _suite_constants,
    "mc": _suite_mc,
}


def _cmd_verify(args):
    if args.suite == "mc":
        seed = args.seed if args.seed is not None else _DEFAULT_SEED
        return _suite_mc(seed, args.samples if args.samples is not None else _MC_SAMPLES)
    if args.samples is not None or args.seed is not None:
        raise DomainError(f"--samples and --seed apply only to the mc suite, not {args.suite}")
    return _SUITES[args.suite]()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


_P = ("--p", dict(type=float, required=True))
_SCAN = (_P, ("--grid", dict(type=int, default=1000)), ("--csv", dict(default=None)))

# subcommand -> (its line in the top-level help, its handler, its arguments as (flag, add_argument's keywords))
_COMMANDS = {
    "constant": ("evaluate a sharp comparison constant", _cmd_constant, (
        ("--which", dict(required=True, choices=["lp-l1-lower", "lp-l1-upper", "lp-l2-lower", "lp-lq"])),
        _P,
        ("--q", dict(type=float, default=None)),
    )),
    "p0": ("locate the branch-crossover order", _cmd_p0, ()),
    "scan": ("profile the normalized family L_p norm over t", _cmd_scan, _SCAN),
    "scan-l2": ("extremise the L_p/L_2 ratio over the family", _cmd_scan, _SCAN),
    "moment": ("absolute moment of a family member", _cmd_moment, (
        _P, ("--t", dict(type=float, required=True)), ("--normalized", dict(action="store_true")),
    )),
    "slice": ("density at zero / section volume for a weight vector", _cmd_slice, (
        ("--weights", dict(required=True, help="comma-separated values or JSON array")),
        ("--volume", dict(action="store_true")),
        ("--project", dict(action="store_true", help="recentre and renormalise the weights")),
    )),
    "max-section": ("maximise the section volume over normals", _cmd_max_section, (
        ("--n", dict(type=int, required=True)),
        ("--restarts", dict(type=int, default=20)),
        ("--seed", dict(type=int, default=_DEFAULT_SEED)),
    )),
    "crossings": ("certify the three-crossings sign patterns", _cmd_crossings, (
        ("--t", dict(type=float, required=True)),
    )),
    "verify": ("run a verification suite", _cmd_verify, (
        ("--suite", dict(required=True, choices=sorted(_SUITES))),
        ("--seed", dict(type=int, default=None)),
        ("--samples", dict(type=int, default=None, help="sample count for the mc suite")),
    )),
}


@functools.cache
def build_parser():
    """The top-level parser with every subcommand, for help, usage errors and what ``_read_args`` leaves."""
    import argparse
    description = "Sharp moment-comparison constants and simplex slicing, batch interface."
    parser = argparse.ArgumentParser(prog="lcmoments", description=description)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, handler, arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=text)
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, keywords in arguments:
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(handler=handler)
    return parser


def _read_args(argv):
    """``argv``'s arguments read off ``_COMMANDS`` as argparse reads them, or None where argparse alone
    reads them: help, abbreviations, ``--flag=value``, ``--`` and every usage error."""
    _, handler, arguments = _COMMANDS[argv[0]]
    options = dict(arguments)
    # argparse's defaults; a required flag has none, so its absence leaves ``values`` short
    values = {f: kw.get("default", False if "action" in kw else None) for f, kw in arguments if not kw.get("required")}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None:
            return None
        if "action" in keywords:  # store_true
            values[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as an option name
        if text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
            return None
        try:
            value = values[flag] = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", [value]):
            return None
    if len(values) == len(arguments):
        return types.SimpleNamespace(subcommand=argv[0], **{flag[2:]: v for flag, v in values.items()}, handler=handler)


def _parse_args(argv):
    """The parsed arguments of ``argv``, or SystemExit as ``build_parser().parse_args`` raises it."""
    args = _read_args(argv) if argv and argv[0] in _COMMANDS else None
    return args or build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        records = args.handler(args)
    except (DomainError, OSError, json.JSONDecodeError, BracketError, NumericalError) as exc:
        print(json.dumps({"status": "error", "message": str(exc)}), file=sys.stderr)
        return 2
    print(json.dumps(records[0] if len(records) == 1 else records, sort_keys=True))
    return 1 if any(r["status"] == "violated" for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
