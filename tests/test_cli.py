import json
import math

import pytest

from rankonespec import cli
from rankonespec.cli import build_parser, main
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


def test_oracle_compare_near_floor_merged_cluster(tmp_path):
    # level 1 carries weight 9e-8, so its secular root sits 8.7e-8 above
    # the reduced level 4 and the oracle merges them into (4.00000004, 2);
    # compared with that mean, each entry would be off by half their gap
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
    assert all(row["m_oracle"] == 2 for row in merged)
    assert merged[0]["z_oracle"] == 4.0
    assert merged[1]["z_oracle"] == pytest.approx(4.0 + 8.7e-8, abs=1e-9)
    assert all(row["deviation"] == abs(row["z_solver"] - row["z_oracle"]) for row in report["entries"])


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
