"""Command-line front end.

Subcommands:
    forward         operator JSON -> classified spectrum JSON
    inverse         three-spectra JSON -> recovered {alpha, potential}
    synth           spectrum JSON -> admissibility report (+ operator)
    validate        operator JSON -> identity-residual report
    oracle-compare  operator JSON -> solver vs oracle eigenvalue table

Outputs are deterministic JSON (fixed key order, 17-significant-digit
floats). Exit status is 0 only when every verdict in the produced report
passed; input or computation errors exit with status 2 and a machine-
readable {"error", "detail"} record.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import diagnostics, io, recovery, spectrum
from .errors import SpectralError
from .potential import OperatorSpec, as_int
from .spectrum import ClassifiedSpectrum


def _default_window(order: int) -> float:
    return spectrum.level_value(order + 1)


def _window(args, op: OperatorSpec) -> float:
    """--window, else the default window of op's order, at least 40, and at
    least 4K^2 + 2 alpha ||v||^2, the top of the exterior root's bracket in
    numerics.secular_equation_roots, so that for alpha > 0 it holds that
    root."""
    if args.window is not None:
        return args.window
    pot = op.potential
    top = spectrum.level_value(pot.K) + 2.0 * op.alpha * pot.norm_sq
    return max(40.0, _default_window(pot.K), top)


def _emit(args, payload: dict) -> None:
    if args.output:
        io.write_json(args.output, payload)
    else:
        sys.stdout.write(io.dumps_canonical(payload))


def _plot_path(args) -> Path:
    if args.output:
        return Path(args.output).with_suffix(".csv")
    return Path("plot.csv")


def _cmd_forward(args) -> int:
    op = OperatorSpec.from_dict(io.read_json(args.input))
    window = _window(args, op)
    cs = spectrum.classify_spectrum(op, window)
    _emit(args, cs.to_dict())
    if args.emit_plot:
        rows = diagnostics.char_samples(op, lam_max=max(6.0, window ** 0.5))
        io.write_csv(_plot_path(args), ["lambda", "char_real"], rows)
    return 0


def _cmd_inverse(args) -> int:
    record = io.read_json(args.input)
    try:
        order = as_int(record["K"]) if args.order is None else args.order
        base = ClassifiedSpectrum.from_dict(record["base"])
        shifted = ClassifiedSpectrum.from_dict(record["shifted"])
        squared = ClassifiedSpectrum.from_dict(record["squared"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"three-spectra record missing or malformed field: {exc}") from exc
    ts = recovery.ThreeSpectra.from_classified(base, shifted, squared, order)
    alpha, pot, mismatches = recovery.invert_three_spectra(ts)
    residuals = [{"k": k, "norm_residual": r} for k, r in enumerate(mismatches)]
    _emit(
        args,
        {"alpha": float(alpha), "potential": pot.to_dict(), "residuals": residuals},
    )
    return 0


def _cmd_synth(args) -> int:
    cs = ClassifiedSpectrum.from_dict(io.read_json(args.input))
    data = recovery.SpectralData.from_classified(cs)
    report = recovery.check_admissibility(data)
    payload = {"report": report.to_dict(), "operator": None}
    if report.accepted:
        payload["operator"] = recovery.synthesize_from_admissible(report).to_dict()
    _emit(args, payload)
    return 0 if report.accepted else 1


def _cmd_validate(args) -> int:
    op = OperatorSpec.from_dict(io.read_json(args.input))
    report, rows = diagnostics.identity_report_and_rows(op)
    _emit(args, report)
    if args.emit_plot:
        io.write_csv(
            _plot_path(args),
            ["lambda", "char_real", "secular_factorization_residual"],
            rows,
        )
    return 0 if report["passed"] else 1


def _cmd_oracle_compare(args) -> int:
    op = OperatorSpec.from_dict(io.read_json(args.input))
    window = _window(args, op)
    report = diagnostics.oracle_comparison(op, window)
    _emit(args, report)
    return 0 if report["passed"] else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call (each parse returns a fresh namespace); do not modify it."""
    parser = argparse.ArgumentParser(
        prog="rankonespec",
        description="Direct and inverse spectral problems for the periodic "
        "second-derivative operator with a rank-one non-local potential.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--window": dict(type=float, help="spectral window"),
        "--order": dict(type=int, help="reconstruction order override"),
        "--emit-plot": dict(action="store_true", help="write CSV plot samples next to the output"),
    }
    # each subcommand: its handler, its help and only the options the handler reads
    commands = {
        "forward": ("_cmd_forward", "compute and classify the spectrum of an operator", ("--window", "--emit-plot")),
        "inverse": ("_cmd_inverse", "reconstruct the operator from three spectra", ("--order",)),
        "synth": ("_cmd_synth", "check admissibility of a spectrum and synthesize an operator", ()),
        "validate": ("_cmd_validate", "evaluate identity residuals for an operator", ("--emit-plot",)),
        "oracle-compare": ("_cmd_oracle_compare", "compare solver eigenvalues with the matrix oracle", ("--window",)),
    }
    for name, (handler, help_text, flags) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", help="output JSON path (stdout when omitted)")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the handler is looked up by name on every call, so rebinding it on
        # the module (a test double, a tracing wrapper) outlives the cache
        return globals()[args.handler](args)
    except (SpectralError, ValueError, OverflowError, OSError) as exc:
        payload = {"error": type(exc).__name__, "detail": {"message": str(exc)}}
        if args.output:
            io.write_json(args.output, payload)
        sys.stderr.write(io.dumps_canonical(payload))
        return 2


if __name__ == "__main__":
    sys.exit(main())
