import json
import math

import pytest

from rankonespec.cli import main
from rankonespec.io import dumps_canonical, read_json
from rankonespec.potential import OperatorSpec, build_potential, companions
from rankonespec.spectrum import classify_spectrum


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


def test_validate(tmp_path, const_op_file):
    out = tmp_path / "report.json"
    rc = main(["validate", "--input", str(const_op_file), "--output", str(out), "--emit-plot"])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["secular_factorization_max"] <= 1e-9
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == "lambda,char_real,secular_factorization_residual"


def test_oracle_compare(tmp_path, const_op_file):
    out = tmp_path / "cmp.json"
    rc = main(["oracle-compare", "--input", str(const_op_file), "--window", "40", "--output", str(out)])
    assert rc == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-8


def test_oracle_compare_merged_cluster(tmp_path):
    # the reduced level 36 and the secular root 36 + 1e-8 lie closer than the
    # oracle's cluster radius, so the oracle reports one cluster (36, 2)
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
    assert all(row["m_oracle"] == 2 for row in merged)
    assert sum(row["m_solver"] for row in report["entries"]) == sum(
        e.multiplicity for e in classify_spectrum(op, 64.0).entries
    )


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


def test_canonical_float_formatting():
    # 17 significant digits round-trip any double
    text = dumps_canonical({"x": 0.1, "y": 2.0, "z": [1, True, None]})
    assert text == '{"x": 0.10000000000000001, "y": 2.0, "z": [1, true, null]}\n'
    assert json.loads(text)["x"] == 0.1
