"""Seeded inputs and job execution for the three workloads.

A job is a fixed list of CLI calls made in-process through
``rankonespec.cli.main`` on JSON files in the job's own directory. Inputs are
drawn from a numpy Generator, so one seed gives the same files every time.
A round holds one job per order, shuffled; rounds keep the job counts equal
per order.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from rankonespec import cli, diagnostics, potential

import checks

# Orders on which every call succeeds, so that a run's failed count does not
# depend on how many jobs fit in it. Where the program fails today is listed
# in README.md.
ORDERS = (8, 16)
ALPHA_RANGE = (0.25, 5.0)  # |alpha| ~ U(ALPHA_RANGE), sign +-1 with equal odds
SPARSE_ACTIVE = 4  # active levels of an audit potential, K included


@dataclass
class Job:
    order: int
    dir: Path
    truth: dict
    seconds: float = 0.0
    calls: list = field(default_factory=list)


# --- generation -----------------------------------------------------------


def _alpha(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(*ALPHA_RANGE))


def _dense(rng, order: int) -> tuple[float, dict]:
    """Unit-norm potential with every level 0..order carrying weight."""
    c = rng.standard_normal(2 * order + 1)
    c /= np.linalg.norm(c)
    return float(c[0]), {k: (float(c[2 * k - 1]), float(c[2 * k])) for k in range(1, order + 1)}


def _sparse(rng, order: int) -> tuple[float, dict]:
    """Unit-norm potential on SPARSE_ACTIVE levels, order among them."""
    others = rng.choice(order, size=SPARSE_ACTIVE - 1, replace=False)
    coef = {k: rng.standard_normal(2) * ((1.0, 1.0) if k else (1.0, 0.0)) for k in {order, *map(int, others)}}
    scale = math.sqrt(1.0 / sum(float(c @ c) for c in coef.values()))
    c0 = float(coef[0][0]) * scale if 0 in coef else 0.0
    return c0, {k: (float(c) * scale, float(s) * scale) for k, (c, s) in sorted(coef.items()) if k > 0}


def _operator_json(alpha: float, c0: float, terms: dict, order: int) -> str:
    return json.dumps({
        "alpha": alpha,
        "potential": {
            "c0": c0,
            "terms": [{"k": k, "c": c, "s": s} for k, (c, s) in sorted(terms.items())],
            "K": order,
        },
    })


def make_job(rng, workload: str, order: int, path: Path) -> Job:
    """Draw one operator and write the job's input files under path."""
    path.mkdir(parents=True)
    alpha = _alpha(rng)
    c0, terms = (_sparse if workload == "audit" else _dense)(rng, order)
    active = sorted(k for k, (c, s) in {0: (c0, 0.0), **terms}.items() if c or s)
    truth = {"alpha": alpha, "c0": c0, "terms": terms, "active": active}
    if workload == "validate":
        truth["csv_rows"] = len(diagnostics.identity_grid())
    (path / "op.json").write_text(_operator_json(alpha, c0, terms, order))
    if workload == "roundtrip":
        spec = potential.build_potential(c0, [(k, c, s) for k, (c, s) in sorted(terms.items())])
        for name, comp in zip(("w", "wh"), potential.companions(spec, order)):
            (path / f"{name}.json").write_text(json.dumps({"alpha": alpha, "potential": comp.to_dict()}))
    return Job(order=order, dir=path, truth=truth)


def make_rounds(rng, workload: str, count: int, root: Path) -> list[list[Job]]:
    """count rounds of jobs, each round one job per order, shuffled."""
    return [
        [make_job(rng, workload, int(order), root / f"r{r:04d}-{i}") for i, order in enumerate(rng.permutation(ORDERS))]
        for r in range(count)
    ]


# --- execution ------------------------------------------------------------


def _call(job: Job, cmd: str, *argv: str) -> None:
    """One CLI call; a raised exception is recorded, not propagated."""
    crash = None
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([cmd, *argv])
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        rc, crash = -1, (type(exc).__name__, traceback.format_exc())
    job.calls.append((cmd, rc, argv[argv.index("--output") + 1], crash))


def _read_or_empty(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _run_roundtrip(job: Job) -> None:
    d, win = job.dir, str(cli._default_window(job.order))
    for name in ("op", "w", "wh"):
        _call(job, "forward", "--input", str(d / f"{name}.json"),
              "--output", str(d / f"{name}.out.json"), "--window", win)
    record = {
        key: _read_or_empty(d / f"{name}.out.json")
        for key, name in (("base", "op"), ("shifted", "w"), ("squared", "wh"))
    }
    record["K"] = job.order
    (d / "three.json").write_text(json.dumps(record))
    _call(job, "inverse", "--input", str(d / "three.json"), "--output", str(d / "inv.json"))


def _run_validate(job: Job) -> None:
    d = job.dir
    _call(job, "validate", "--input", str(d / "op.json"), "--output", str(d / "rep.json"), "--emit-plot")


def _run_audit(job: Job) -> None:
    d = job.dir
    _call(job, "forward", "--input", str(d / "op.json"), "--output", str(d / "spec.json"))
    _call(job, "synth", "--input", str(d / "spec.json"), "--output", str(d / "syn.json"))
    _call(job, "oracle-compare", "--input", str(d / "op.json"), "--output", str(d / "cmp.json"))


RUNNERS = {"roundtrip": _run_roundtrip, "validate": _run_validate, "audit": _run_audit}


def outcome(job: Job) -> list[dict]:
    """The job's calls with their outputs parsed, in the checker's form."""
    out = []
    for cmd, rc, path, crash in job.calls:
        call = {"cmd": cmd, "rc": rc, "out": checks.load_json(path), "crash": crash and crash[0]}
        if cmd == "validate":
            call["csv"] = checks.load_csv(Path(path).with_suffix(".csv"))
        out.append(call)
    return out


def base_spectrum(job: Job):
    """The operator's own forward output, when the job produced one."""
    for name in ("op.out.json", "spec.json"):
        if (job.dir / name).exists():
            return checks.load_json(job.dir / name)
    return None
