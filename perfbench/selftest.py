"""Checker self-test: a correct answer passes, and a corrupted answer, a
failed verdict and an error exit are each counted as failed.

    python3 perfbench/selftest.py

run.py runs it before every benchmark run. It needs neither the program nor
numpy: the answers are built here.
"""

from __future__ import annotations

import sys

import checks

CSV_ROWS = 3  # rows of a full validate CSV in these cases
TRUTH = {"alpha": 1.5, "c0": 0.6, "terms": {1: (0.64, 0.48)}, "active": [0, 1], "csv_rows": CSV_ROWS}
# audit: levels 0, 1 and 3 active, level 2 inactive
AUDIT_TRUTH = {"alpha": -7.25, "c0": 0.6, "terms": {1: (0.5, 0.3), 3: (0.4, 0.37)}, "active": [0, 1, 3]}


def _roundtrip_calls(alpha=1.5, c1=0.64, inverse_rc=0):
    forward = {"cmd": "forward", "rc": 0, "out": {"window": 324.0, "entries": []}, "crash": None}
    inverse = {
        "alpha": alpha,
        "potential": {"c0": 0.6, "terms": [{"k": 1, "c": c1, "s": 0.48}], "K": 1},
        "residuals": [],
    }
    if inverse_rc == 2:
        inverse = {"error": "InconsistentSpectraError", "detail": {"message": "level 1"}}
    return [forward, forward, forward, {"cmd": "inverse", "rc": inverse_rc, "out": inverse, "crash": None}]


def _validate_call(passed=True, rc=0):
    report = {name: 1e-15 for name in checks.VALIDATE_TOLS}
    report["passed"] = passed
    rows = [checks.CSV_HEADER] + [["1.0", "0.5", "1e-16"]] * CSV_ROWS
    return [{"cmd": "validate", "rc": rc, "out": report, "crash": None, "csv": rows}]


def _audit_calls(level2="unchanged", synth_alpha=-7.25, synth_rc=0, oracle_rc=0):
    entries = [
        {"z": -3.1, "tag": "secular"},
        {"z": 2.7, "tag": "secular"},
        {"z": 4.0, "tag": "reduced"},
        {"z": 16.0, "tag": level2, "m": 2},
        {"z": 20.5, "tag": "secular"},
        {"z": 36.0, "tag": "reduced"},
    ]
    synth = {"report": {"accepted": synth_rc == 0, "alpha": synth_alpha}}
    if synth_rc == 2:
        synth = {"error": "InconsistentSpectraError", "detail": {"message": "level 2"}}
    oracle = {"max_deviation": 3e-12 if oracle_rc == 0 else 28.0, "passed": oracle_rc == 0}
    return [
        {"cmd": "forward", "rc": 0, "out": {"window": 64.0, "entries": entries}, "crash": None},
        {"cmd": "synth", "rc": synth_rc, "out": synth, "crash": None},
        {"cmd": "oracle-compare", "rc": oracle_rc, "out": oracle, "crash": None},
    ]


def cases():
    """(label, workload, calls, expected kind) for every case."""
    return [
        ("correct round trip", "roundtrip", _roundtrip_calls(), None),
        ("corrupted coefficient", "roundtrip", _roundtrip_calls(c1=0.64 + 1e-3), "inaccurate:inverse"),
        ("non-finite alpha", "roundtrip", _roundtrip_calls(alpha=float("nan")), "malformed:inverse"),
        ("error exit", "roundtrip", _roundtrip_calls(inverse_rc=2), "exit2:InconsistentSpectraError"),
        ("correct validate", "validate", _validate_call(), None),
        ("failed verdict", "validate", _validate_call(passed=False, rc=1), "exit1:validate"),
        ("truncated csv", "validate", [{**_validate_call()[0], "csv": [checks.CSV_HEADER]}], "malformed:validate.csv"),
        ("correct audit", "audit", _audit_calls(), None),
        ("inactive level taken for coincident", "audit", _audit_calls(level2="coincident"), "mismatch:forward"),
        ("synth alpha off by 1e-3", "audit", _audit_calls(synth_alpha=-7.25 * (1 + 1e-3)), "inaccurate:synth"),
        ("synth error exit", "audit", _audit_calls(synth_rc=2), "exit2:InconsistentSpectraError"),
        ("failed oracle verdict", "audit", _audit_calls(oracle_rc=1), "exit1:oracle-compare"),
    ]


def run(verbose: bool = False) -> bool:
    ok = True
    kinds = []
    for label, workload, calls, want in cases():
        got, _ = checks.check(workload, AUDIT_TRUTH if workload == "audit" else TRUTH, calls)
        kinds.append(got)
        if got != want:
            ok = False
            sys.stderr.write(f"selftest: {label}: expected {want}, got {got}\n")
        elif verbose:
            print(f"ok  {label}: {got}")
    tally = checks.tally(kinds)
    expected_failed = sum(1 for *_, want in cases() if want)
    if tally["failed"] != expected_failed or tally["correct"]:
        ok = False
        sys.stderr.write(f"selftest: tally {tally} does not count every failure\n")
    return ok


if __name__ == "__main__":
    sys.exit(0 if run(verbose=True) else 1)
