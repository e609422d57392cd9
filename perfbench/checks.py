"""Answer checker: compares every job's CLI outputs with the generator's truth.

Standard library only, so the self-test runs without the program or numpy.

A job's outcome is the list of its calls, each a dict

    {"cmd": subcommand, "rc": exit status, "out": parsed output JSON or None,
     "crash": exception name when cli.main raised, else None}

(validate calls also carry "csv": the plot rows, or None). The truth is the
generator's record: alpha, c0, terms, the active levels, and for validate
jobs csv_rows, the row count of a full
CSV as the program's own grid gives it. ``check`` returns
``(kind, err)``: kind is None for a job that passed, else the first failure
in call order, one of

    crash:<Exception>     cli.main raised instead of returning a status
    exit2:<ErrorName>     the program reported an error record
    exit1:<subcommand>    a verdict failed (synth rejected, identities or
                          oracle comparison failed)
    mismatch:forward      a forward classification contradicts the truth
    inaccurate:<cmd>      a finite answer outside the acceptance tolerance
    malformed:<cmd>       exit 0 with a missing, unparsable, non-finite or
                          self-contradicting output

err is the job's worst error against the truth (None when a failure left
nothing to measure). Only ``malformed`` makes a run incorrect: every other
kind is a failure the program reported or an accuracy miss, and is counted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Tolerances of the acceptance suite (tests/test_cli.py, diagnostics.py).
ROUNDTRIP_TOL = 1e-6  # alpha (relative) and every coefficient (absolute)
SYNTH_ALPHA_TOL = 1e-6  # relative
ORACLE_TOL = 1e-8  # absolute eigenvalue deviation
VALIDATE_TOLS = {
    "secular_factorization_max": 1e-9,
    "autocorr_identity_max": 1e-10,
    "evenness_max": 1e-10,
    "star_symmetry_max": 1e-10,
}
CSV_HEADER = ["lambda", "char_real", "secular_factorization_residual"]

DIGITS_CAP = 16.0


def load_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def load_csv(path: Path):
    try:
        return [line.split(",") for line in Path(path).read_text().splitlines()]
    except OSError:
        return None


def digits(err) -> float:
    """-log10 of an error, capped at DIGITS_CAP; 0 when there is no error to score."""
    if err is None or not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(max(err, 10.0 ** -DIGITS_CAP)))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _status(call) -> str | None:
    cmd, rc, out = call["cmd"], call["rc"], call["out"]
    if call.get("crash"):
        return f"crash:{call['crash']}"
    if rc == 2:
        name = out.get("error") if isinstance(out, dict) else None
        return f"exit2:{name or 'unreported'}"
    if rc != 0:
        return f"exit{rc}:{cmd}"
    if not isinstance(out, dict):
        return f"malformed:{cmd}"
    return None


def _check_roundtrip(truth, calls):
    for call in calls:
        kind = _status(call)
        if kind:
            return kind, None
    for call in calls[:3]:
        if not isinstance(call["out"].get("entries"), list):
            return "malformed:forward", None
    inv = calls[3]["out"]
    try:
        alpha = inv["alpha"]
        pot = inv["potential"]
        got = {0: (pot["c0"], 0.0)}
        got.update({int(t["k"]): (t["c"], t["s"]) for t in pot["terms"]})
    except (KeyError, TypeError, ValueError):
        return "malformed:inverse", None
    if not _finite(alpha, *(x for cs in got.values() for x in cs)):
        return "malformed:inverse", None
    want = {0: (truth["c0"], 0.0), **truth["terms"]}
    err = abs(alpha - truth["alpha"]) / abs(truth["alpha"])
    for k in set(want) | set(got):
        (c, s), (tc, ts) = got.get(k, (0.0, 0.0)), want.get(k, (0.0, 0.0))
        err = max(err, abs(c - tc), abs(s - ts))
    return ("inaccurate:inverse" if err > ROUNDTRIP_TOL else None), err


def _check_validate(truth, calls):
    (call,) = calls
    kind = _status(call)
    if kind:
        return kind, None
    rep = call["out"]
    values = [rep.get(name) for name in VALIDATE_TOLS]
    if not _finite(*values) or rep.get("passed") is not True:
        return "malformed:validate", None
    if any(v > tol for v, tol in zip(values, VALIDATE_TOLS.values())):
        return "malformed:validate", None  # passed despite a residual over tolerance
    rows = call.get("csv")
    if not rows or rows[0] != CSV_HEADER or len(rows) - 1 != truth["csv_rows"]:
        return "malformed:validate.csv", None
    try:
        if not all(len(r) == 3 and _finite(*map(float, r)) for r in rows[1:]):
            return "malformed:validate.csv", None
    except ValueError:
        return "malformed:validate.csv", None
    return None, max(values)


def _check_forward_classes(truth, spec) -> bool:
    """Reduced levels as the truth implies, no coincident entry, and one
    secular root per active level."""
    entries = spec["entries"]
    reduced = sorted(e["z"] for e in entries if e["tag"] == "reduced")
    want_reduced = sorted(4.0 * k * k for k in truth["active"] if k > 0)
    coincident = [e for e in entries if e["tag"] == "coincident"]
    roots = sum(1 for e in entries if e["tag"] == "secular")
    return reduced == want_reduced and not coincident and roots == len(truth["active"])


def _check_audit(truth, calls):
    fwd, syn, orc = calls
    kind = _status(fwd)
    if kind:
        return kind, None
    try:
        classes_ok = _check_forward_classes(truth, fwd["out"])
    except (KeyError, TypeError):
        return "malformed:forward", None
    if not classes_ok:
        return "mismatch:forward", None
    kind = _status(syn)
    if kind:
        return kind, None
    try:
        report = syn["out"]["report"]
        accepted, alpha = report["accepted"], report["alpha"]
    except (KeyError, TypeError):
        return "malformed:synth", None
    if accepted is not True or not _finite(alpha):
        return "malformed:synth", None  # exit 0 must mean accepted
    alpha_err = abs(alpha - truth["alpha"]) / abs(truth["alpha"])
    if alpha_err > SYNTH_ALPHA_TOL:
        return "inaccurate:synth", alpha_err
    kind = _status(orc)
    if kind:
        return kind, None
    dev = orc["out"].get("max_deviation")
    if not _finite(dev) or orc["out"].get("passed") is not True or dev > ORACLE_TOL:
        return "malformed:oracle-compare", None
    return None, max(alpha_err, dev)


CHECKERS = {
    "roundtrip": _check_roundtrip,
    "validate": _check_validate,
    "audit": _check_audit,
}


def check(workload: str, truth: dict, calls: list) -> tuple[str | None, float | None]:
    return CHECKERS[workload](truth, calls)


def tally(kinds) -> dict:
    """Failure counts by kind, plus whether the run stayed correct."""
    counts: dict[str, int] = {}
    for kind in kinds:
        if kind:
            counts[kind] = counts.get(kind, 0) + 1
    return {
        "failed": sum(counts.values()),
        "kinds": dict(sorted(counts.items())),
        "correct": not any(k.startswith("malformed:") for k in counts),
    }
