"""The public surface: names exported by the package, the members of
Eigenfunction, AdmissibilityReport, PotentialSpec, SpectrumEntry and
SpectralData, the keys of the synth report, the signatures of the
characteristic-function entry points and of the trimmed recovery, oracle
and diagnostics functions, and the options of each CLI subcommand. A
change here is an API change and belongs in CHANGES.md."""

import argparse
import dataclasses
import inspect

import pytest

import rankonespec
from rankonespec import Eigenfunction, charfn, cli, diagnostics

PUBLIC_NAMES = [
    "AdmissibilityReport",
    "ClassifiedSpectrum",
    "ConvergenceError",
    "DegenerateOperatorError",
    "Eigenfunction",
    "InconsistentSpectraError",
    "MalformedSpectrumError",
    "OperatorSpec",
    "PoleError",
    "PotentialSpec",
    "SpectralData",
    "SpectralError",
    "SpectrumClass",
    "SpectrumEntry",
    "ThreeSpectra",
    "WeightTable",
    "alpha_and_norms",
    "autocorr_transform",
    "autocorr_transform_star",
    "build_potential",
    "char_perturbed",
    "char_unperturbed",
    "check_admissibility",
    "classify_spectrum",
    "companions",
    "eigenfunctions",
    "evaluate",
    "fourier_transform",
    "fourier_transform_star",
    "invert_three_spectra",
    "jacobi_eigenvalues",
    "magnitudes_from_two_spectra",
    "oracle_eigenvalues",
    "scan_char_zeros",
    "secular_function",
    "secular_roots",
    "synthesize_from_admissible",
    "weight_table",
    "weights_from_char_derivative",
    "weights_from_spectrum",
]


def test_all_is_pinned():
    assert rankonespec.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(rankonespec, name) is not None


def test_eigenfunction_members():
    fields = [f.name for f in dataclasses.fields(Eigenfunction)]
    assert fields == ["kind", "series", "level", "lam"]
    assert callable(Eigenfunction.__call__)
    assert callable(Eigenfunction.derivative)


def test_transform_signatures():
    # the transforms are pure functions of (spec, lam): no series switch
    for name in (
        "fourier_transform",
        "fourier_transform_star",
        "autocorr_transform",
        "autocorr_transform_star",
    ):
        assert list(inspect.signature(getattr(rankonespec, name)).parameters) == ["spec", "lam"]


def test_char_signatures():
    # the perturbed function has one closed form everywhere: the operator
    # alone determines it
    for fn in (rankonespec.char_perturbed, charfn.char_with_autocorr_residual):
        assert list(inspect.signature(fn).parameters) == ["op", "lam"]


def test_potential_spec_fields():
    # the order K is derived from the terms, not stored
    assert [f.name for f in dataclasses.fields(rankonespec.PotentialSpec)] == ["c0", "pairs"]


def test_spectrum_entry_members():
    # the class is derived from (z, multiplicity), not passed in
    entry = rankonespec.SpectrumEntry
    assert list(inspect.signature(entry).parameters) == ["z", "multiplicity"]
    assert [f.name for f in dataclasses.fields(entry)] == ["z", "multiplicity", "tag"]


def test_spectral_data_fields():
    assert [f.name for f in dataclasses.fields(rankonespec.SpectralData)] == [
        "active_levels",
        "mus",
        "window",
    ]


@pytest.mark.parametrize(
    "fn, params",
    [
        (rankonespec.alpha_and_norms, ["table"]),
        (rankonespec.weights_from_char_derivative, ["op"]),
        (rankonespec.scan_char_zeros, ["op", "lambda_max"]),
        (cli._default_window, ["order"]),
        (rankonespec.oracle_eigenvalues, ["op", "n"]),
        (diagnostics.oracle_comparison, ["op", "window"]),
    ],
)
def test_trimmed_signatures(fn, params):
    # the grid spacing, the level cap and the sign check each have one value
    # in use, so they are constants, not parameters; the oracle's truncation
    # follows from the window; the bench harness calls _default_window
    assert list(inspect.signature(fn).parameters) == params


CLI_OPTIONS = {
    "forward": ["--input", "--output", "--window", "--emit-plot"],
    "inverse": ["--input", "--output", "--order"],
    "synth": ["--input", "--output"],
    "validate": ["--input", "--output", "--emit-plot"],
    "oracle-compare": ["--input", "--output", "--window"],
}


def test_cli_options_are_pinned():
    # each subcommand takes only the options its handler reads
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [a.option_strings[0] for a in parser._actions if a.option_strings and a.dest != "help"]
        for name, parser in sub.choices.items()
    }
    assert got == CLI_OPTIONS


SYNTH_REPORT_KEYS = [
    "accepted",
    "symmetry_ok",
    "zero_structure_ok",
    "normalization_ok",
    "boundedness_ok",
    "same_sign_ok",
    "residues",
    "alpha",
    "norms",
    "detail",
]


def test_admissibility_report_members():
    fields = [f.name for f in dataclasses.fields(rankonespec.AdmissibilityReport)]
    assert fields == ["accepted", "residues", "alpha", "norms", "detail"]


@pytest.mark.parametrize("mus, accepted", [((5.0, 10.0), False), ((5.0, 40.0), True)])
def test_synth_report_keys(mus, accepted):
    # synth writes the report format's ten keys in this order; for finite
    # data admissibility is interlacing, so every verdict key but the
    # structural symmetry is the one verdict
    data = rankonespec.SpectralData(
        active_levels=(4.0, 36.0), mus=mus, window=40.0
    )
    report = rankonespec.check_admissibility(data).to_dict()
    assert list(report) == SYNTH_REPORT_KEYS
    assert report["accepted"] is accepted
    assert report["symmetry_ok"] is True
    for key in ("zero_structure_ok", "normalization_ok", "boundedness_ok", "same_sign_ok"):
        assert report[key] is accepted
