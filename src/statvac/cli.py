"""Batch front end: estimation runs, sweeps, and verification suites.

Modes
-----
fields        boundary-data file (or stdin-free empty data) -> mass report
small-sphere  curvature-jet file -> per-radius reports and coefficients
verify        run named oracle suites with a fixed seed
moments       shorthand for verify restricted to the quadrature suite

Exit codes: 0 success, 2 malformed input or configuration, 3 solver
residual above threshold, 4 verification or oracle failure.  Output is
deterministic byte-for-byte for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import io, mass
from .curvature import reference_expansions
from .errors import NumericalFailure
from .spherical.grid import build_grid

__all__ = ["RunConfig", "main", "run_fields", "run_small_sphere", "run_verify"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_RESIDUAL = 3
EXIT_VERIFY = 4

RESIDUAL_LIMIT = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Parsed command-line configuration."""

    mode: str
    lmax: int = 16
    tau: tuple = ()
    input: str | None = None
    output: str | None = None
    format: str = "json"
    seed: int = 0
    only: tuple = field(default_factory=tuple)


class _Outcome(Exception):
    """Internal control flow carrying (exit code, output text)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statvac",
        description="Second-order mass estimates and verification suites "
                    "for near-round sphere data.")
    parser.add_argument("--mode", required=True,
                        choices=["fields", "small-sphere", "verify", "moments"],
                        help="run type")
    parser.add_argument("--lmax", type=int, default=16,
                        help="spherical harmonic band limit (default 16)")
    parser.add_argument("--tau", type=float, nargs="+", default=None,
                        help="radius list for small-sphere runs "
                             "(default 0.01)")
    parser.add_argument("--input", default=None,
                        help="input JSON file (boundary data or jet); "
                             "omitted means all-zero input")
    parser.add_argument("--output", default=None,
                        help="output file (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json",
                        help="output format for estimation runs")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized verification suites")
    parser.add_argument("--only", default=None,
                        help="comma-separated suite names for verify mode")
    return parser


def _check_config(config: RunConfig) -> None:
    if config.lmax < 4:
        raise io.SchemaError("lmax must be at least 4 to hold the data bands")
    if config.lmax > 128:
        raise io.SchemaError("lmax above 128 is not supported")
    for tau in config.tau:
        if not (tau > 0.0 and math.isfinite(tau)):
            raise io.SchemaError("tau values must be positive and finite")
    if config.mode == "fields" and len(config.tau) > 1:
        raise io.SchemaError("fields mode takes a single --tau; give each "
                             'case its own radius with its "tau" key')
    if config.mode in ("verify", "moments") and config.format == "csv":
        raise io.SchemaError("csv output is only available for fields and "
                             "small-sphere runs")
    if config.mode in ("verify", "moments") and config.seed < 0:
        raise io.SchemaError("seed must be nonnegative")


def _report_row(report: mass.MassReport) -> dict:
    ref = report.reference
    row = {
        "tau": report.tau,
        "m1": report.m1,
        "m2": report.m2,
        "total": report.total,
        "tau_scaled_total": report.tau_scaled_total,
        "hawking_ref": None,
        "by_ref": None,
        "static_ref": None,
    }
    if ref and report.tau is not None:
        t3, t5 = report.tau ** 3, report.tau ** 5
        row["hawking_ref"] = ref["hawking_c3"] * t3 + ref["hawking_c5"] * t5
        row["by_ref"] = ref["brown_york_c3"] * t3 + ref["brown_york_c5"] * t5
        row["static_ref"] = ref["static_c3"] * t3 + ref["static_c5"] * t5
    return row


def _gate_residuals(report: mass.MassReport) -> None:
    residuals = report.diagnostics.get("residuals", {})
    # written so that a NaN residual fails the gate too
    if all(r <= RESIDUAL_LIMIT for r in residuals.values()):
        return
    block = {
        "error": "boundary solver residual above threshold",
        "limit": RESIDUAL_LIMIT,
        "residuals": {name: r if math.isfinite(r) else None
                      for name, r in residuals.items()},
    }
    raise _Outcome(EXIT_RESIDUAL, io.dump_json(block))


def run_fields(config: RunConfig) -> str:
    """Mass reports for one data set or a {"cases": [...]} sweep."""
    payload = io.load_json(config.input) if config.input else {}
    sweep = isinstance(payload, dict) and "cases" in payload
    if sweep:
        extra = set(payload) - {"cases"}
        if extra:
            raise io.SchemaError(f"input: unknown keys {sorted(extra)}")
        cases = payload["cases"]
        if not isinstance(cases, list) or not cases:
            raise io.SchemaError("input.cases: expected a nonempty list")
    else:
        cases = [payload]

    grid = build_grid(config.lmax)
    default_tau = config.tau[0] if config.tau else None
    reports = []
    for pos, case in enumerate(cases):
        where = f"input.cases[{pos}]" if sweep else "input"
        data = io.data_from_dict(case, grid, where=where)
        tau = io.case_tau(case, where)
        try:
            with np.errstate(over="raise"):
                report = mass.estimate(data, tau=tau if tau is not None else default_tau)
            # the totals are Python float sums and products, which overflow silently
            scaled = report.tau_scaled_total
            if not math.isfinite(report.total if scaled is None else scaled):
                raise OverflowError
        except (OverflowError, FloatingPointError):
            raise io.SchemaError(f"{where}: data too large: the mass report "
                                 "overflows") from None
        _gate_residuals(report)
        reports.append(report)

    if config.format == "csv":
        return io.rows_to_csv(_report_row(r) for r in reports)
    return io.dump_json({
        "mode": "fields",
        "lmax": config.lmax,
        "reports": [r.to_dict() for r in reports],
    })


def run_small_sphere(config: RunConfig) -> str:
    """Per-radius mass reports and mass-curve coefficients from a jet."""
    payload = io.load_json(config.input) if config.input else {}
    jet = io.jet_from_dict(payload)
    grid = build_grid(config.lmax)
    taus = list(config.tau) if config.tau else [0.01]
    for tau in taus:
        try:
            tau ** 5  # the highest power of tau in the output
        except OverflowError:
            raise io.SchemaError(f"tau {tau!r} too large: tau**5 overflows") from None
    try:
        with np.errstate(over="raise"):
            reference = reference_expansions(jet).to_dict()
    except (OverflowError, FloatingPointError):
        reference = None
    if reference is None or not all(map(math.isfinite, reference.values())):
        raise io.SchemaError("input: curvature jet too large: its reference "
                             "expansion coefficients overflow")

    reports = []
    for tau in taus:
        try:
            with np.errstate(over="raise"):
                report = mass.small_sphere_report(jet, tau, grid)
        except (OverflowError, FloatingPointError):
            raise io.SchemaError(f"tau {tau!r} too large: the small-sphere "
                                 "data overflow") from None
        _gate_residuals(report)
        reports.append(report)
    quintic = mass.small_sphere_quintic(jet)
    coefficients = {
        "assembled_c3": quintic["c3"],
        "assembled_c5": quintic["c5"],
        "fit_c3": None,
        "fit_c5": None,
        "reference": reference,
    }
    if len(taus) >= 2:
        t = np.asarray(taus)
        design = np.stack([t ** 3, t ** 5], axis=1)
        target = np.array([r.tau_scaled_total for r in reports])
        fit, *_ = np.linalg.lstsq(design, target, rcond=None)
        coefficients["fit_c3"] = float(fit[0])
        coefficients["fit_c5"] = float(fit[1])

    if config.format == "csv":
        return io.rows_to_csv(_report_row(r) for r in reports)
    return io.dump_json({
        "mode": "small-sphere",
        "lmax": config.lmax,
        "tau": taus,
        "reports": [r.to_dict() for r in reports],
        "coefficients": coefficients,
    })


def __getattr__(name):
    # ``cli.suites`` resolves on first use: the oracle suites load only
    # when a verify run needs them
    if name == "suites":
        from .oracles import suites
        return suites
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_verify(config: RunConfig, names=None) -> str:
    """Run verification suites; failure exits through _Outcome."""
    from .oracles import suites

    if names is None:
        names = config.only if config.only else None
    if names is not None:
        unknown = [n for n in names if n not in suites.SUITE_NAMES]
        if unknown:
            raise io.SchemaError(
                f"unknown suite names {unknown}; available: "
                + ", ".join(suites.SUITE_NAMES))
    try:
        report = suites.run_all(names, seed=config.seed, lmax=config.lmax)
    except NumericalFailure as exc:
        raise _Outcome(EXIT_VERIFY, io.dump_json({
            "error": "oracle numerical failure",
            "detail": str(exc),
        })) from exc
    text = io.dump_json({
        "mode": "verify",
        "seed": config.seed,
        "lmax": config.lmax,
        "suites": report["suites"],
        "passed": report["passed"],
    })
    if not report["passed"]:
        raise _Outcome(EXIT_VERIFY, text)
    return text


def _dispatch(config: RunConfig) -> str:
    if config.mode == "fields":
        return run_fields(config)
    if config.mode == "small-sphere":
        return run_small_sphere(config)
    if config.mode == "verify":
        return run_verify(config)
    return run_verify(config, names=("moments",))


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise io.SchemaError(f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    only = tuple(part.strip() for part in args.only.split(",") if part.strip()) \
        if args.only else ()
    config = RunConfig(mode=args.mode, lmax=args.lmax,
                       tau=tuple(args.tau or ()), input=args.input,
                       output=args.output, format=args.format,
                       seed=args.seed, only=only)
    try:
        try:
            _check_config(config)
            code, text = EXIT_OK, _dispatch(config)
        except _Outcome as outcome:
            code, text = outcome.code, outcome.text
        _write(config.output, text)
    except io.SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_VERIFY
    return code


if __name__ == "__main__":
    sys.exit(main())
