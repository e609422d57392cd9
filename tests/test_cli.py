import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from rankonespec import charfn, cli, diagnostics
from rankonespec.cli import build_parser, main
from rankonespec.io import dumps_canonical, read_json
from rankonespec.potential import OperatorSpec, build_potential, companions
from rankonespec.recovery import ThreeSpectra, invert_three_spectra
from rankonespec.spectrum import ClassifiedSpectrum, SpectrumEntry, classify_spectrum

from conftest import reference_csv
from test_api import CLI_OPTIONS


@pytest.fixture
def const_op_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"alpha": 1.0, "potential": {"c0": 1.0, "terms": [], "K": 0}}))
    return path


def test_forward(tmp_path, const_op_file, capsys):
    out = tmp_path / "spec.json"
    rc = main(["forward", "--input", str(const_op_file), "--window", "40", "--output", str(out)])
    assert rc == 0
    record = read_json(out)
    assert record["window"] == 40.0
    assert [(e["z"], e["m"], e["tag"]) for e in record["entries"]] == [
        (1.0, 1, "secular"),
        (4.0, 2, "unchanged"),
        (16.0, 2, "unchanged"),
        (36.0, 2, "unchanged"),
    ]


def test_forward_deterministic_bytes(tmp_path, const_op_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        main(["forward", "--input", str(const_op_file), "--window", "40", "--output", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_forward_emit_plot(tmp_path, const_op_file):
    out = tmp_path / "spec.json"
    rc = main([
        "forward", "--input", str(const_op_file), "--window", "40",
        "--output", str(out), "--emit-plot",
    ])
    assert rc == 0
    csv = (tmp_path / "spec.csv").read_text().splitlines()
    assert csv[0] == "lambda,char_real"
    assert len(csv) > 100
    # the samples as they were built before char_samples read tolist()
    # columns: one float() per element
    op = OperatorSpec.from_dict(read_json(const_op_file))
    grid = np.arange(0.01, max(6.0, 40.0 ** 0.5) + 0.005, 0.01)
    values = np.real(charfn.char_perturbed(op, grid))
    rows = [(float(l), float(v)) for l, v in zip(grid, values)]
    assert (tmp_path / "spec.csv").read_text() == reference_csv(["lambda", "char_real"], rows)


def test_forward_without_output_writes_to_stdout(tmp_path, const_op_file, monkeypatch, capsys):
    # the same bytes as --output writes, and the plot as plot.csv in the
    # working directory
    out = tmp_path / "spec.json"
    argv = ["forward", "--input", str(const_op_file), "--window", "40", "--emit-plot"]
    assert main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()


def test_forward_plot_writes_no_negative_zero(tmp_path):
    # D vanishes at lambda = 2, 4 and 6 on the plot grid, levels 1 and 3
    # inactive; the kernel's sums round two of those zeros to -0
    op_path, out = tmp_path / "op.json", tmp_path / "spec.json"
    op_path.write_text(json.dumps({"alpha": -4.51, "potential": {
        "c0": 1.0, "terms": [{"k": 2, "c": 0.3, "s": -0.53}], "K": 2,
    }}))
    assert main(["forward", "--input", str(op_path), "--window", "40", "--output", str(out), "--emit-plot"]) == 0
    fields = [f for line in (tmp_path / "spec.csv").read_text().splitlines()[1:] for f in line.split(",")]
    assert fields.count("0") == 3
    assert not [f for f in fields if f.startswith("-0") and float(f) == 0.0]


def test_forward_plot_beyond_its_point_bound_exits_2(tmp_path, const_op_file, monkeypatch):
    # the bound is checked before anything is sampled; window 40 samples
    # (0, sqrt(40)] on 632 points, window 41 on 640
    monkeypatch.setattr(diagnostics, "MAX_PLOT_POINTS", 632)
    out = tmp_path / "spec.json"
    argv = ["forward", "--input", str(const_op_file), "--output", str(out), "--emit-plot", "--window"]
    assert main(argv + ["40"]) == 0
    assert len((tmp_path / "spec.csv").read_text().splitlines()) == 633
    (tmp_path / "spec.csv").unlink()
    monkeypatch.setattr(charfn, "char_perturbed", None)  # D is never sampled
    assert main(argv + ["41"]) == 2
    payload = read_json(out)
    assert payload["error"] == "OverflowError"
    assert "640 points, more than MAX_PLOT_POINTS = 632" in payload["detail"]["message"]
    assert not (tmp_path / "spec.csv").exists()


def test_validate(tmp_path, const_op_file):
    out = tmp_path / "report.json"
    rc = main(["validate", "--input", str(const_op_file), "--output", str(out), "--emit-plot"])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["secular_factorization_max"] <= 1e-9
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "lambda,char_real,secular_factorization_residual"
    assert len(lines) == len(diagnostics.identity_grid()) + 1
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(table))
    assert table[:, 2].max() == report["secular_factorization_max"]


def _reference_validation(op):
    """validate's report and CSV rows as they were computed before the one
    kernel pass: D from char_perturbed, D0 from char_unperturbed, and the
    autocorrelation identity from the four public transforms."""
    grid = diagnostics.identity_grid()
    spec = op.potential
    d = charfn.char_perturbed(op, grid)
    d0 = charfn.char_unperturbed(grid)
    q = charfn.secular_function(op.alpha, spec.level_norms(), grid * grid)
    fact = np.abs(d - q * d0) / np.maximum(1.0, np.abs(d))
    lhs = charfn.autocorr_transform(spec, grid) + charfn.autocorr_transform_star(spec, grid)
    rhs = charfn.fourier_transform(spec, grid) * charfn.fourier_transform_star(spec, grid)
    # both symmetries hold bit for bit by construction (checked on validate's
    # complex points in test_charfn), so validate writes 0.0 for them
    report = {
        "secular_factorization_max": float(np.max(fact)),
        "autocorr_identity_max": float(np.max(np.abs(lhs - rhs))),
        "evenness_max": 0.0,
        "star_symmetry_max": 0.0,
    }
    report["passed"] = bool(
        report["secular_factorization_max"] <= 1e-9 and report["autocorr_identity_max"] <= 1e-10
    )
    rows = [(float(l), float(v), float(r)) for l, v, r in zip(grid, d.real, fact)]
    return report, rows


def _validate_operators(order, count, seed):
    """count operators of the given order, alpha cycling through 0, + and -;
    order 0 is a potential with only c0."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        pairs = [(k, float(rng.normal()), float(rng.normal())) for k in range(1, order + 1)]
        alpha = (0.0, 1.0, -1.0)[i % 3] * float(rng.uniform(0.25, 5.0))
        yield OperatorSpec(alpha, build_potential(float(rng.normal()), pairs, normalize=i % 2 == 0))


@pytest.mark.parametrize("order", [0, 1, 8, 16])
def test_validate_bytes_match_reference(tmp_path, order):
    header = ["lambda", "char_real", "secular_factorization_residual"]
    for i, op in enumerate(_validate_operators(order, 13, 8100 + order)):
        inp = tmp_path / f"op{i}.json"
        inp.write_text(json.dumps(op.to_dict()))
        out = tmp_path / f"report{i}.json"
        main(["validate", "--input", str(inp), "--output", str(out), "--emit-plot"])
        report, rows = _reference_validation(op)
        assert out.read_text() == dumps_canonical(report)
        assert (tmp_path / f"report{i}.csv").read_text() == reference_csv(header, rows)
        if i < 3:
            got_report, got_rows = diagnostics.identity_report_and_rows(op)
            assert got_report == report
            assert list(got_rows) == rows


def test_validate_makes_one_grid_kernel_pass(tmp_path, monkeypatch):
    op = OperatorSpec(-1.7, build_potential(0.3, [(k, 0.5 / k, 0.2) for k in range(1, 9)]))
    inp = tmp_path / "op.json"
    inp.write_text(json.dumps(op.to_dict()))
    sizes = []
    kernel = charfn._transforms

    def counted(spec, lam):
        sizes.append(lam.size)
        return kernel(spec, lam)

    monkeypatch.setattr(charfn, "_transforms", counted)
    out = tmp_path / "report.json"
    assert main(["validate", "--input", str(inp), "--output", str(out), "--emit-plot"]) == 0
    grid = diagnostics.identity_grid()
    assert sizes == [grid.size]


def test_oracle_compare(tmp_path, const_op_file):
    out = tmp_path / "cmp.json"
    rc = main(["oracle-compare", "--input", str(const_op_file), "--window", "40", "--output", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-8


def test_oracle_compare_merged_cluster(tmp_path):
    # the reduced level 36 and the secular root 36 + 1.03e-8 are matched by
    # rank, each with its own oracle eigenvalue; they lie just over
    # ORACLE_TOL apart, so each row counts one oracle eigenvalue near it
    op = OperatorSpec(1.0, build_potential(0.8, [(1, 0.6, 0.0), (3, 1e-4, 0.0)]))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.to_dict()))
    out = tmp_path / "cmp.json"
    rc = main(["oracle-compare", "--input", str(path), "--window", "64", "--output", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-8
    merged = [row for row in report["entries"] if abs(row["z_solver"] - 36.0) < 1e-6]
    assert [row["m_solver"] for row in merged] == [1, 1]
    assert all(row["m_oracle"] == 1 for row in merged)
    assert sum(row["m_solver"] for row in report["entries"]) == sum(
        e.multiplicity for e in classify_spectrum(op, 64.0).entries
    )


def test_oracle_compare_near_floor_merged_cluster(tmp_path):
    # level 1 carries weight 9e-8, so its secular root sits 8.7e-8 above
    # the reduced level 4; matched by rank, neither entry is charged with
    # half their gap, as it would be against their mean
    op = OperatorSpec(1.0, build_potential(0.0, [(1, 3e-4, 0.0), (3, 1.0, 0.0)]))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.to_dict()))
    out = tmp_path / "cmp.json"
    rc = main(["oracle-compare", "--input", str(path), "--window", "64", "--output", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-12
    merged = [row for row in report["entries"] if abs(row["z_solver"] - 4.0) < 1e-6]
    assert [row["m_solver"] for row in merged] == [1, 1]
    assert all(row["m_oracle"] == 1 for row in merged)
    assert merged[0]["z_oracle"] == 4.0
    assert merged[1]["z_oracle"] == pytest.approx(4.0 + 8.7e-8, abs=1e-9)
    assert all(row["deviation"] == abs(row["z_solver"] - row["z_oracle"]) for row in report["entries"])


@pytest.mark.parametrize("window", [63.0, 64.0, 99.9, 100.0])
def test_oracle_compare_window_at_a_level(tmp_path, window):
    # the oracle reaches one level past the window, so a window on a level
    # or just below it is covered
    op = OperatorSpec(1.5, build_potential(0.3, [(1, 0.5, 0.2), (2, 0.1, 0.4)]))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.to_dict()))
    out = tmp_path / "cmp.json"
    assert main(["oracle-compare", "--input", str(path), "--window", str(window), "--output", str(out)]) == 0
    assert read_json(out)["max_deviation"] <= 1e-13


def test_oracle_compare_large_window():
    # the oracle lists the 50,000 untouched levels instead of building a
    # dense matrix on them
    report = diagnostics.oracle_comparison(OperatorSpec(1.0, build_potential(1.0)), 1e10)
    assert report["passed"] is True
    assert len(report["entries"]) == 50001
    assert report["max_deviation"] == 0.0


ROOT_BELOW_OUTER_LEVEL = OperatorSpec(12.0 - 1e-7, build_potential(0.0, [(1, 1.0, 0.0)]))
ROOT_ON_INACTIVE_LEVEL = OperatorSpec(
    40.949637987232535,
    build_potential(
        0.42732553886505786,
        [
            (1, 0.21083497486825156, 0.44239571675911515),
            (2, -0.17050595226761, 0.4194714629820206),
            (3, -0.5374424331738763, 0.2887119152518003),
        ],
    ),
)


@pytest.mark.parametrize(
    "op, window",
    [
        # the secular root 16 - 1e-7 lies inside the window, 1e-7 below the
        # level 16 just outside it
        (ROOT_BELOW_OUTER_LEVEL, ["--window", "15.99999995"]),
        # the exterior root sits on the inactive level 4, at the default
        # window 64 itself: the solver lists 64 with multiplicity 3
        (ROOT_ON_INACTIVE_LEVEL, []),
        (ROOT_ON_INACTIVE_LEVEL, ["--window", "65"]),
    ],
    ids=["root-below-outer-level", "root-on-level-at-window", "root-on-level-inside-window"],
)
def test_oracle_compare_root_next_to_window_edge(tmp_path, op, window):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op.to_dict()))
    out = tmp_path / "cmp.json"
    assert main(["oracle-compare", "--input", str(path), "--output", str(out), *window]) == 0
    report = read_json(out)
    assert report["max_deviation"] <= 1e-13
    assert [row["m_oracle"] for row in report["entries"]] == [row["m_solver"] for row in report["entries"]]


def _drop_top(entries):
    return entries[:-1]


def _lower_multiplicity(entries):
    # the unchanged level 4 listed once, as if reduced
    return (entries[0], SpectrumEntry(4.0, 1), *entries[2:])


def _move_z(entries):
    return (SpectrumEntry(entries[0].z + 1e-6, 1), *entries[1:])


def _list_too_many(entries):
    # ten eigenvalues, one more than the oracle's nine up to level 4
    return (*entries, SpectrumEntry(37.0, 1), SpectrumEntry(38.0, 1), SpectrumEntry(39.0, 1))


@pytest.mark.parametrize("corrupt", [_drop_top, _lower_multiplicity, _move_z, _list_too_many])
def test_oracle_compare_fails_on_a_wrong_spectrum(tmp_path, const_op_file, monkeypatch, corrupt):
    # entries 1 (secular), then 4, 16 and 36 unchanged with multiplicity 2
    classify = diagnostics.classify_spectrum

    def wrong(op, window):
        return SimpleNamespace(entries=corrupt(classify(op, window).entries))

    monkeypatch.setattr(diagnostics, "classify_spectrum", wrong)
    op = OperatorSpec.from_dict(read_json(const_op_file))
    assert diagnostics.oracle_comparison(op, 40.0)["passed"] is False
    out = tmp_path / "cmp.json"
    assert main(["oracle-compare", "--input", str(const_op_file), "--window", "40", "--output", str(out)]) == 1
    assert read_json(out)["passed"] is False


def test_parser_built_once_and_options_do_not_leak(tmp_path, const_op_file):
    assert build_parser() is build_parser()
    first = tmp_path / "first.json"
    rc = main([
        "forward", "--input", str(const_op_file), "--window", "20",
        "--output", str(first), "--emit-plot",
    ])
    assert rc == 0
    assert read_json(first)["window"] == 20.0
    assert (tmp_path / "first.csv").exists()
    second = tmp_path / "second.json"
    rc = main(["forward", "--input", str(const_op_file), "--output", str(second)])
    assert rc == 0
    assert read_json(second)["window"] == 40.0  # the K=0 default
    assert not (tmp_path / "second.csv").exists()


def test_handler_rebound_after_parser_is_cached(monkeypatch, const_op_file):
    build_parser()
    calls = []
    monkeypatch.setattr(cli, "_cmd_forward", lambda args: calls.append(args.input) or 0)
    assert main(["forward", "--input", str(const_op_file)]) == 0
    assert calls == [str(const_op_file)]


def test_inverse_round_trip(tmp_path):
    v = build_potential(0.6, [(1, 0.64, 0.48)])
    order = 16
    w, what = companions(v, order)
    window = 4.0 * (order + 1) ** 2
    record = {
        "base": classify_spectrum(OperatorSpec(1.0, v), window).to_dict(),
        "shifted": classify_spectrum(OperatorSpec(1.0, w), window).to_dict(),
        "squared": classify_spectrum(OperatorSpec(1.0, what), window).to_dict(),
        "K": order,
    }
    inp = tmp_path / "three.json"
    inp.write_text(dumps_canonical(record))
    out = tmp_path / "rec.json"
    rc = main(["inverse", "--input", str(inp), "--output", str(out)])
    assert rc == 0
    rec = read_json(out)
    assert rec["alpha"] == pytest.approx(1.0, rel=1e-6)
    assert rec["potential"]["c0"] == pytest.approx(0.6, abs=1e-6)
    terms = {t["k"]: (t["c"], t["s"]) for t in rec["potential"]["terms"]}
    assert terms[1][0] == pytest.approx(0.64, abs=1e-6)
    assert terms[1][1] == pytest.approx(0.48, abs=1e-6)
    assert max(r["norm_residual"] for r in rec["residuals"]) < 1e-6
    # the residuals written are the library's, on the record as read back
    read = read_json(inp)
    spectra = (ClassifiedSpectrum.from_dict(read[key]) for key in ("base", "shifted", "squared"))
    residuals = invert_three_spectra(ThreeSpectra.from_classified(*spectra, order))[2]
    assert rec["residuals"] == [{"k": k, "norm_residual": r} for k, r in enumerate(residuals)]


def test_synth_accept_and_reject(tmp_path):
    two_level = OperatorSpec(
        1.0, build_potential(1 / math.sqrt(2), [(1, 1 / math.sqrt(2), 0.0)])
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_canonical(classify_spectrum(two_level, 40.0).to_dict()))
    out = tmp_path / "synth.json"
    rc = main(["synth", "--input", str(spec_path), "--output", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["report"]["accepted"] is True
    assert payload["operator"]["alpha"] == pytest.approx(1.0, abs=1e-9)

    # squeeze both secular roots into one gap: interlacing violation
    record = read_json(spec_path)
    for e in record["entries"]:
        if e["tag"] == "secular" and e["z"] > 4.0:
            e["z"] = 2.0
    bad_path = tmp_path / "bad_spec.json"
    bad_path.write_text(json.dumps(record))
    rc = main(["synth", "--input", str(bad_path), "--output", str(out)])
    assert rc == 1
    payload = read_json(out)
    assert payload["report"]["accepted"] is False
    assert payload["operator"] is None


_ALPHA_50 = {"alpha": 50.0, "potential": {
    "c0": 0.6, "terms": [{"k": 1, "c": 0.6, "s": 0.0}, {"k": 2, "c": 0.4, "s": 0.346}], "K": 2,
}}


_CUT_AT_40 = (
    "expected 3 secular roots for 3 active levels, got 2 within the window 40.0; "
    "the root above the top active level 16.0 lies beyond that window"
)


def test_synth_detail_names_the_window_that_cuts_the_exterior_root(tmp_path):
    # at alpha = 50 the exterior secular root lies in (16, 66], beyond the
    # window 40: an input error, not a rejected spectrum
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(_ALPHA_50))
    spec_path, out = tmp_path / "spec.json", tmp_path / "synth.json"
    assert main(["forward", "--input", str(op_path), "--output", str(spec_path), "--window", "40"]) == 0
    assert read_json(spec_path)["window"] == 40.0
    assert main(["synth", "--input", str(spec_path), "--output", str(out)]) == 2
    assert read_json(out) == {"error": "ValueError", "detail": {"message": _CUT_AT_40}}


def test_inverse_on_a_cut_spectrum_exits_2_naming_the_window(tmp_path):
    op = OperatorSpec.from_dict(_ALPHA_50)
    w, what = companions(op.potential, 2)
    record = {"K": 2}
    for key, pot in (("base", op.potential), ("shifted", w), ("squared", what)):
        record[key] = classify_spectrum(OperatorSpec(op.alpha, pot), 40.0).to_dict()
    inp, out = tmp_path / "three.json", tmp_path / "rec.json"
    inp.write_text(dumps_canonical(record))
    assert main(["inverse", "--input", str(inp), "--output", str(out)]) == 2
    assert read_json(out) == {"error": "ValueError", "detail": {"message": _CUT_AT_40}}


def test_synth_rejects_a_spectrum_without_an_interior_root(tmp_path):
    # one root short, but the missing root is the one between levels 1 and
    # 2, not the exterior one: the roots do not interlace, and synth
    # rejects the spectrum (exit 1) with MalformedSpectrumError's detail
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(_ALPHA_50))
    spec_path, out = tmp_path / "spec.json", tmp_path / "synth.json"
    assert main(["forward", "--input", str(op_path), "--output", str(spec_path)]) == 0
    record = read_json(spec_path)
    secular = [e["z"] for e in record["entries"] if e["tag"] == "secular"]
    assert len(secular) == 3 and 4.0 < secular[1] < 16.0 < secular[2]
    record["entries"] = [e for e in record["entries"] if e["z"] != secular[1]]
    spec_path.write_text(dumps_canonical(record))
    assert main(["synth", "--input", str(spec_path), "--output", str(out)]) == 1
    report = read_json(out)["report"]
    assert report["accepted"] is False
    assert report["detail"] == (
        f"expected 3 secular roots for 3 active levels, got 2 within the window {record['window']}"
    )


def test_default_window_holds_the_exterior_root(tmp_path):
    # the default window reaches 4K^2 + 2 alpha ||v||^2, past the root in
    # (16, 66]
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(_ALPHA_50))
    spec_path, out = tmp_path / "spec.json", tmp_path / "synth.json"
    assert main(["forward", "--input", str(op_path), "--output", str(spec_path)]) == 0
    assert main(["synth", "--input", str(spec_path), "--output", str(out)]) == 0
    # synth's potential has unit norm, so its coupling is alpha ||v||^2
    coupling = 50.0 * OperatorSpec.from_dict(_ALPHA_50).potential.norm_sq
    assert read_json(out)["operator"]["alpha"] == pytest.approx(coupling, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "order, alpha_range", [(0, (25.0, 50.0)), (1, (25.0, 50.0)), (2, (25.0, 50.0)),
                           (8, (500.0, 1000.0)), (32, (500.0, 1000.0))]
)
def test_default_window_round_trip_at_large_coupling(tmp_path, order, alpha_range):
    # forward x3 with no --window, then inverse: every spectrum holds its
    # exterior root, so the inverse completes
    for seed in range(3):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(*alpha_range))
        c = rng.standard_normal(2 * order + 1)
        c /= np.linalg.norm(c)
        terms = [(k, float(c[2 * k - 1]), float(c[2 * k])) for k in range(1, order + 1)]
        v = build_potential(float(c[0]), terms)
        record = {"K": order}
        for key, pot in zip(("base", "shifted", "squared"), (v, *companions(v, order))):
            op_path, spec_path = tmp_path / f"{key}.json", tmp_path / f"{key}.out.json"
            op_path.write_text(json.dumps({"alpha": alpha, "potential": pot.to_dict()}))
            assert main(["forward", "--input", str(op_path), "--output", str(spec_path)]) == 0
            record[key] = read_json(spec_path)
        (tmp_path / "three.json").write_text(json.dumps(record))
        out = tmp_path / "rec.json"
        assert main(["inverse", "--input", str(tmp_path / "three.json"), "--output", str(out)]) == 0
        rec = read_json(out)
        assert rec["alpha"] == pytest.approx(alpha, rel=1e-6)
        recovered = rec["potential"]
        got = np.array([recovered["c0"]] + [x for t in recovered["terms"] for x in (t["c"], t["s"])])
        assert np.max(np.abs(got - c)) < 1e-6


def test_synth_and_inverse_with_a_root_on_zero(tmp_path):
    # alpha = -4 and v = sqrt(2/pi) cos 2x put a secular root on the
    # inactive constant level: the base spectrum holds an exact 0.0
    # coincident entry
    v = build_potential(0.0, [(1, 1.0, 0.0)])
    order = 4
    w, what = companions(v, order)
    window = 4.0 * (order + 1) ** 2
    base = classify_spectrum(OperatorSpec(-4.0, v), window).to_dict()
    assert base["entries"][0] == {"z": 0.0, "m": 2, "tag": "coincident"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_canonical(base))
    out = tmp_path / "synth.json"
    assert main(["synth", "--input", str(spec_path), "--output", str(out)]) == 0
    assert read_json(out)["operator"]["alpha"] == pytest.approx(-4.0, rel=1e-12)

    record = {
        "base": base,
        "shifted": classify_spectrum(OperatorSpec(-4.0, w), window).to_dict(),
        "squared": classify_spectrum(OperatorSpec(-4.0, what), window).to_dict(),
        "K": order,
    }
    inp = tmp_path / "three.json"
    inp.write_text(dumps_canonical(record))
    out = tmp_path / "rec.json"
    assert main(["inverse", "--input", str(inp), "--output", str(out)]) == 0
    rec = read_json(out)
    assert rec["alpha"] == pytest.approx(-4.0, rel=1e-12)
    assert {t["k"]: (t["c"], t["s"]) for t in rec["potential"]["terms"]}[1] == pytest.approx(
        (1.0, 0.0), abs=1e-12
    )


def test_error_json_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["forward", "--input", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert "detail" in payload


def test_error_json_written_to_output(tmp_path):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"alpha": 0.0, "potential": {"c0": 1.0, "terms": [], "K": 0}}))
    out = tmp_path / "out.json"
    rc = main(["forward", "--input", str(op), "--window", "40", "--output", str(out)])
    assert rc == 2
    payload = read_json(out)
    assert payload["error"] == "DegenerateOperatorError"


@pytest.mark.parametrize(
    "cmd, window",
    [
        ("forward", "inf"),
        ("oracle-compare", "inf"),
        ("forward", "1e300"),
        # finite, but listing every level up to them would exhaust memory
        ("forward", "1e20"),
        ("oracle-compare", "1e16"),
    ],
)
def test_window_beyond_the_float_range_exits_2(tmp_path, const_op_file, cmd, window):
    out = tmp_path / "out.json"
    rc = main([cmd, "--input", str(const_op_file), "--window", window, "--output", str(out)])
    assert rc == 2
    payload = read_json(out)
    assert payload["error"] == "OverflowError"
    assert "message" in payload["detail"]


_FRACTIONAL_M = {"window": 40.0, "entries": [{"z": 1.0, "m": 1.9, "tag": "secular"}]}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"base": {}, "shifted": {}, "squared": {}, "K": None}, "three-spectra record"),
        ([{"base": {}, "shifted": {}, "squared": {}, "K": 4}], "three-spectra record"),
        ({"base": {}, "shifted": {}, "squared": {}, "K": 4.5}, "three-spectra record"),
        (
            {"base": _FRACTIONAL_M, "shifted": _FRACTIONAL_M, "squared": _FRACTIONAL_M, "K": 0},
            "malformed spectrum record",
        ),
    ],
    ids=["null-order", "top-level-list", "fractional-order", "fractional-multiplicity"],
)
def test_inverse_malformed_record_exits_2(tmp_path, record, message):
    inp = tmp_path / "three.json"
    inp.write_text(json.dumps(record))
    out = tmp_path / "out.json"
    assert main(["inverse", "--input", str(inp), "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "ValueError"
    assert message in payload["detail"]["message"]


def test_synth_fractional_multiplicity_exits_2(tmp_path):
    inp = tmp_path / "spec.json"
    inp.write_text(json.dumps(_FRACTIONAL_M))
    out = tmp_path / "out.json"
    assert main(["synth", "--input", str(inp), "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "ValueError"
    assert "malformed spectrum record" in payload["detail"]["message"]


@pytest.mark.parametrize("cmd", ["forward", "oracle-compare"])
def test_nan_window_exits_2(tmp_path, const_op_file, cmd):
    out = tmp_path / "out.json"
    assert main([cmd, "--input", str(const_op_file), "--window", "nan", "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "ValueError"
    assert payload["detail"]["message"] == "window must be at least 4, got nan"


@pytest.mark.parametrize(
    "window, entry, error, message",
    [
        (40.0, {"z": 1.0, "m": True, "tag": "secular"}, "ValueError", "malformed spectrum record"),
        # float() would read either
        (40.0, {"z": "1.0", "m": 1, "tag": "secular"}, "ValueError", "malformed spectrum record"),
        ("40", None, "ValueError", "malformed spectrum record"),
        (40.0, {"z": math.nan, "m": 1, "tag": "secular"}, "MalformedSpectrumError", "non-finite"),
        (40.0, {"z": math.inf, "m": 1, "tag": "secular"}, "MalformedSpectrumError", "non-finite"),
        (math.nan, None, "MalformedSpectrumError", "window nan is not finite"),
        (math.inf, None, "MalformedSpectrumError", "window inf is not finite"),
    ],
    ids=["bool-multiplicity", "string-z", "string-window", "nan-z", "infinite-z", "nan-window", "infinite-window"],
)
def test_synth_malformed_field_exits_2(tmp_path, window, entry, error, message):
    # json writes the non-finite floats as NaN and Infinity, which it reads back
    inp = tmp_path / "spec.json"
    inp.write_text(json.dumps({"window": window, "entries": [entry] if entry else []}))
    out = tmp_path / "out.json"
    assert main(["synth", "--input", str(inp), "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == error
    assert message in payload["detail"]["message"]


_K1 = OperatorSpec(1.0, build_potential(0.5, [(1, 0.6, 0.3)]))


def _not_a_spectrum(kind):
    """The window-40 spectrum of _K1, changed into a record that is no
    operator's spectrum, although its secular part still interlaces."""
    record = classify_spectrum(_K1, 40.0).to_dict()
    entries = record["entries"]
    if kind == "level-deleted":
        entries.remove({"z": 16.0, "m": 2, "tag": "unchanged"})
    elif kind == "last-duplicated":
        entries.append(dict(entries[-1]))
    elif kind == "negative-multiplicity":
        for e in entries:
            e["m"] = -3
    else:
        entries.append({"z": 1e4, "m": 2, "tag": "unchanged"})
    return record


@pytest.mark.parametrize(
    "kind, message",
    [
        ("level-deleted", "lists 2 of the 3 levels"),
        ("last-duplicated", "lists z=36.0 twice"),
        ("negative-multiplicity", "with multiplicity -3"),
        ("beyond-window", "z=10000.0 lies beyond the spectrum window 40.0"),
    ],
)
def test_synth_and_inverse_reject_a_record_that_is_no_spectrum(tmp_path, kind, message):
    record = _not_a_spectrum(kind)
    w, what = companions(_K1.potential, 1)
    three = {
        "base": record,
        "shifted": classify_spectrum(OperatorSpec(1.0, w), 40.0).to_dict(),
        "squared": classify_spectrum(OperatorSpec(1.0, what), 40.0).to_dict(),
        "K": 1,
    }
    for cmd, payload in (("synth", record), ("inverse", three)):
        inp = tmp_path / f"{cmd}.json"
        inp.write_text(json.dumps(payload))
        out = tmp_path / f"{cmd}-out.json"
        assert main([cmd, "--input", str(inp), "--output", str(out)]) == 2
        got = read_json(out)
        assert got["error"] == "MalformedSpectrumError"
        assert message in got["detail"]["message"]


@pytest.mark.parametrize(
    "potential, message",
    [
        ({"c0": 0.6, "terms": [{"k": 1, "c": 0.64, "s": 0.48}], "K": 2}, "does not match largest harmonic"),
        ({"c0": 0.6, "terms": [{"c": 0.64, "s": 0.48}], "K": 1}, "malformed potential record"),
        ({"c0": 0.6, "terms": [{"k": 1.9, "c": 0.64, "s": 0.48}], "K": 1}, "malformed potential record"),
        ({"c0": 0.6, "terms": [{"k": 1, "c": 0.64, "s": 0.48}], "K": 1.7}, "malformed potential record"),
        # int() would read either as 1
        ({"c0": 0.6, "terms": [{"k": 1, "c": 0.64, "s": 0.48}], "K": True}, "malformed potential record"),
        ({"c0": 0.6, "terms": [{"k": "1", "c": 0.64, "s": 0.48}], "K": 1}, "malformed potential record"),
        ({"c0": 0.6, "terms": [{"k": 0, "c": 0.64, "s": 0.48}], "K": 0}, "must be a positive integer, got 0"),
        # json reads NaN and Infinity
        ({"c0": 0.6, "terms": [{"k": 1, "c": math.nan, "s": 0.48}], "K": 1}, "non-finite coefficient at k=1"),
        ({"c0": -math.inf, "terms": [{"k": 1, "c": 0.64, "s": 0.48}], "K": 1}, "non-finite constant coefficient"),
    ],
    ids=[
        "mismatched-order",
        "term-without-index",
        "fractional-index",
        "fractional-order",
        "bool-order",
        "string-index",
        "index-zero",
        "nan-coefficient",
        "infinite-c0",
    ],
)
def test_forward_malformed_potential_exits_2(tmp_path, potential, message):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"alpha": 1.0, "potential": potential}))
    out = tmp_path / "out.json"
    assert main(["forward", "--input", str(path), "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "ValueError"
    assert message in payload["detail"]["message"]


@pytest.mark.parametrize("cmd", ["forward", "validate", "oracle-compare"])
def test_potential_whose_squared_norm_overflows_exits_2(tmp_path, cmd):
    # c0^2 leaves the float range for |c0| above about 1.3e154
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"alpha": 0.0, "potential": {"c0": 1e160, "terms": [], "K": 0}}))
    out = tmp_path / "out.json"
    assert main([cmd, "--input", str(path), "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "ValueError"
    assert "potential's squared norm overflows the float range (c0 = 1e+160" in payload["detail"]["message"]


@pytest.mark.parametrize("cmd", ["forward", "oracle-compare"])
@pytest.mark.parametrize("order", [1, 8])
def test_weights_summing_beyond_the_float_range_exit_2(tmp_path, cmd, order):
    # alpha = 1e308 with c0 = 1 and (c, s) = (1, 0.5) at k = 1..order: the
    # active weights, and with them the exterior root, sum beyond the float
    # range
    terms = [{"k": k, "c": 1.0, "s": 0.5} for k in range(1, order + 1)]
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"alpha": 1e308, "potential": {"c0": 1.0, "terms": terms, "K": order}}))
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([cmd, "--input", str(path), "--window", "1000", "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "OverflowError"
    assert "beyond the float range" in payload["detail"]["message"]
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize(
    "alpha, c0, c, s",
    [(True, 0.5, 0.6, 0.3), (1.0, "0.5", 0.6, 0.3), (1.0, 0.5, "0.6", 0.3), (1.0, 0.5, 0.6, True)],
    ids=["bool-alpha", "string-c0", "string-c", "bool-s"],
)
def test_forward_bool_or_string_float_exits_2(tmp_path, alpha, c0, c, s):
    # float() would read True as 1.0 and "0.5" as 0.5
    record = {"alpha": alpha, "potential": {"c0": c0, "terms": [{"k": 1, "c": c, "s": s}], "K": 1}}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(record))
    out = tmp_path / "out.json"
    assert main(["forward", "--input", str(path), "--window", "40", "--output", str(out)]) == 2
    payload = read_json(out)
    assert payload["error"] == "ValueError"
    assert "malformed" in payload["detail"]["message"]


def test_forward_non_finite_alpha_exits_2(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"alpha": math.inf, "potential": {"c0": 1.0, "terms": [], "K": 0}}))
    out = tmp_path / "out.json"
    assert main(["forward", "--input", str(path), "--output", str(out)]) == 2
    assert read_json(out) == {"error": "ValueError", "detail": {"message": "coupling constant must be finite"}}


def test_synth_rejects_an_unperturbed_spectrum(tmp_path):
    # levels 0, 1 and 2 with their full multiplicities: no level is active
    entries = [{"z": 0.0, "m": 1, "tag": "unchanged"}]
    entries += [{"z": z, "m": 2, "tag": "unchanged"} for z in (4.0, 16.0)]
    inp, out = tmp_path / "spec.json", tmp_path / "synth.json"
    inp.write_text(json.dumps({"window": 16.0, "entries": entries}))
    assert main(["synth", "--input", str(inp), "--output", str(out)]) == 1
    payload = read_json(out)
    assert payload["report"]["accepted"] is False
    assert payload["report"]["detail"] == "no active level in spectral data"
    assert payload["operator"] is None


def test_inverse_negative_order_exits_2(tmp_path):
    v = build_potential(0.6, [(1, 0.64, 0.48), (2, 0.3, -0.2)], normalize=True)
    w, what = companions(v, 2)
    record = {
        name: classify_spectrum(OperatorSpec(1.0, p), 36.0).to_dict()
        for name, p in (("base", v), ("shifted", w), ("squared", what))
    }
    for K, extra in ((-1, []), (2, ["--order", "-1"])):
        inp = tmp_path / "three.json"
        inp.write_text(dumps_canonical({**record, "K": K}))
        out = tmp_path / "rec.json"
        assert main(["inverse", "--input", str(inp), "--output", str(out), *extra]) == 2
        payload = read_json(out)
        assert payload["error"] == "ValueError"
        assert payload["detail"]["message"] == "reconstruction order must be non-negative, got -1"


_OPTION_VALUES = {"--window": ["40"], "--order": ["3"], "--truncation": ["20"], "--emit-plot": []}
_UNREAD = [(cmd, flag) for cmd, read in CLI_OPTIONS.items() for flag in _OPTION_VALUES if flag not in read]


@pytest.mark.parametrize("cmd, flag", _UNREAD)
def test_unread_option_rejected(const_op_file, capsys, cmd, flag):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--input", str(const_op_file), flag, *_OPTION_VALUES[flag]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_inverse_order_override(tmp_path):
    # --order 3 on a K = 8 record recovers alpha, c0 and the k = 1..3 terms
    # exactly as the full inversion does, with residuals for k = 0..3
    rng = np.random.default_rng(8)
    c = rng.standard_normal(17)
    c /= np.linalg.norm(c)
    v = build_potential(c[0], [(k, c[2 * k - 1], c[2 * k]) for k in range(1, 9)])
    order = 8
    w, what = companions(v, order)
    window = 4.0 * (order + 1) ** 2
    record = {
        "base": classify_spectrum(OperatorSpec(-1.3, v), window).to_dict(),
        "shifted": classify_spectrum(OperatorSpec(-1.3, w), window).to_dict(),
        "squared": classify_spectrum(OperatorSpec(-1.3, what), window).to_dict(),
        "K": order,
    }
    inp = tmp_path / "three.json"
    inp.write_text(dumps_canonical(record))
    full, part = tmp_path / "full.json", tmp_path / "part.json"
    assert main(["inverse", "--input", str(inp), "--output", str(full)]) == 0
    assert main(["inverse", "--input", str(inp), "--output", str(part), "--order", "3"]) == 0
    full, part = read_json(full), read_json(part)
    assert part["alpha"] == full["alpha"]
    assert part["potential"]["c0"] == full["potential"]["c0"]
    assert part["potential"]["terms"] == full["potential"]["terms"][:3]
    assert [t["k"] for t in part["potential"]["terms"]] == [1, 2, 3]
    assert [r["k"] for r in part["residuals"]] == [0, 1, 2, 3]
    assert part["residuals"] == full["residuals"][:4]
    assert full["alpha"] == pytest.approx(-1.3, rel=1e-9)


def test_canonical_float_formatting():
    # 17 significant digits round-trip any double
    text = dumps_canonical({"x": 0.1, "y": 2.0, "z": [1, True, None]})
    assert text == '{"x": 0.10000000000000001, "y": 2.0, "z": [1, true, null]}\n'
    assert json.loads(text)["x"] == 0.1
