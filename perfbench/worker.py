"""One benchmark process: set-up (interpreter start-up, imports, one warm-up
round), then a timed loop; with --trace 1 every second round of the loop is
traced. run.py launches it and pools what it prints: one JSON object on the
last line of its standard output, with one record per job. The timed inputs
are generated after set-up has been clocked, so their count, which follows
the warm-up time, does not enter setup_s.

Load shape: a closed loop with one client in this one process and no
threads. The CLI runs in-process, so interpreter start-up counts once, in
set-up. Every timed job has an operator drawn for it alone: the program's
per-process caches are keyed by the potential, and a CLI user pays for them
on every invocation.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one client, one thread

import argparse
import json
import math
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_IDS = {"roundtrip": 1, "validate": 2, "audit": 3}
ROUND_MARGIN = 2.0  # rounds generated = ROUND_MARGIN x the warm-up estimate, + 1
MAX_ROUNDS = 1000


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import rankonespec

    where = Path(rankonespec.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        sys.exit(f"rankonespec imported from {where}, not from this checkout's src/")


def _reference_kernel(np):
    """A function that times one pass of the reference kernel, in ms.

    The kernel is fixed work of the benchmark's own, of the three kinds the
    program's jobs do: a Python float loop, numpy calls on short arrays, and
    numpy on a long array. It runs before every round, off the job clock, so
    that run.py can scale job times to the speed the shared host gives the
    process in that run; see run.py's REF_MS."""
    short = np.linspace(0.5, 1.5, 33)
    long = np.linspace(0.0, 4.0, 200_000)

    def timed() -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(30_000):
            acc += i * 0.5
        z = 0.3
        for _ in range(600):
            z = 1.0 + float(np.sum(short / (short - z - 2.0)))
        for _ in range(4):
            acc += float(np.expm1(-long).sum())
        return 1e3 * (time.perf_counter() - t0)

    return timed


def _timed_loop(rounds, seconds, run, reference, tracer=None):
    """Whole rounds until `seconds` have passed; returns {loop: (jobs, wall
    seconds, reference ms)}, with one reference pass timed before each round.
    Without a tracer every round is in loop "timed". With one, every second
    round runs traced (loop "traced") and the others untraced, so both loops
    sample the same phases of the machine; at least one round of each runs."""
    jobs = {"timed": [], "traced": []}
    wall = {"timed": 0.0, "traced": 0.0}
    refs = {"timed": [], "traced": []}
    least = 1 if tracer is None else 2
    start = time.perf_counter()
    for i, rnd in enumerate(rounds):
        if i >= least and time.perf_counter() - start >= seconds:
            break
        loop = "traced" if tracer is not None and i % 2 else "timed"
        refs[loop].append(reference())
        if loop == "traced":
            tracer.install()
        try:
            t_round = time.perf_counter()
            for job in rnd:
                if loop == "traced":
                    tracer.job = len(jobs[loop])
                t0 = time.perf_counter()
                run(job)
                job.seconds = time.perf_counter() - t0
                jobs[loop].append(job)
            wall[loop] += time.perf_counter() - t_round
        finally:
            if loop == "traced":
                tracer.job = -1
                tracer.uninstall()
    return {loop: (jobs[loop], wall[loop], refs[loop]) for loop in jobs if jobs[loop]}


def _checked(workload, jobs, wall, ref_ms):
    """One loop's jobs checked against the truth: wall seconds, the reference
    passes (ms) and one [order, ms, failure kind or None, digits] record per
    job."""
    import checks
    import workloads

    records, first_crash = [], None
    for job in jobs:
        kind, err = checks.check(workload, job.truth, workloads.outcome(job))
        records.append([job.order, 1e3 * job.seconds, kind, 0.0 if kind else checks.digits(err)])
        crash = next((c[3] for c in job.calls if c[3]), None)
        if crash and first_crash is None:
            first_crash = crash[1]
    if first_crash:
        sys.stderr.write(first_crash)
    return {"wall_s": wall, "ref_ms": ref_ms, "jobs": records}


def _weight_relerr(truth, spectrum_dict, recovery, spectrum):
    """Worst relative error of the residue weights X_k = alpha ||v_k||^2
    recovered from the operator's own spectrum; None when not finite."""
    data = recovery.SpectralData.from_classified(spectrum.ClassifiedSpectrum.from_dict(spectrum_dict))
    got = recovery.weights_from_spectrum(data).weights
    want = {0: truth["c0"] ** 2, **{k: c * c + s * s for k, (c, s) in truth["terms"].items()}}
    worst = 0.0
    for k, n in want.items():
        if n > 0.0:
            x = truth["alpha"] * n
            worst = max(worst, abs(got.get(k, 0.0) - x) / abs(x))
    return worst if math.isfinite(worst) else None


def _root_relerr(truth, spectrum_dict, mp, top=3):
    """Relative error of the `top` largest secular roots against a 50-digit
    solve of 1 + sum_k X_k / (4k^2 - z) = 0, bracketed around the program's
    root inside its pole gap (the function is monotone there); None when no
    bracket within 1e-3 relative holds the root."""
    mp.mp.dps = 50
    alpha = mp.mpf(truth["alpha"])
    xs = [(0, alpha * mp.mpf(truth["c0"]) ** 2)]
    xs += [(4 * k * k, alpha * (mp.mpf(c) ** 2 + mp.mpf(s) ** 2)) for k, (c, s) in truth["terms"].items()]
    xs = [(p, x) for p, x in xs if x != 0]
    poles = sorted(p for p, _ in xs)

    def q(z):
        return 1 + mp.fsum(x / (p - z) for p, x in xs)

    roots = sorted(e["z"] for e in spectrum_dict["entries"] if e["tag"] in ("secular", "coincident"))
    worst = 0.0
    for z in roots[-top:]:
        z = mp.mpf(z)
        lo = max((p for p in poles if p < z), default=-mp.inf)
        hi = min((p for p in poles if p > z), default=mp.inf)
        delta = mp.mpf(10) ** -12 * max(1, abs(z))
        while True:
            a, b = max(z - delta, (lo + z) / 2), min(z + delta, (z + hi) / 2)
            if q(a) * q(b) < 0:
                break
            delta *= 100
            if delta > mp.mpf(10) ** -3 * max(1, abs(z)):
                return None
        exact = mp.findroot(q, (a, b), solver="illinois", verify=False)
        worst = max(worst, float(abs((z - exact) / exact)))
    return worst


def _accuracy(workload, jobs):
    """Per-layer accuracy on the traced jobs' own forward spectra."""
    from rankonespec import OperatorSpec, cli, recovery, spectrum

    import workloads

    rel, nonfinite, base = [], 0, {}
    for job in jobs:
        spec = workloads.base_spectrum(job)
        if workload == "validate":  # validate makes no forward call: classify here
            op = OperatorSpec.from_dict(json.loads((job.dir / "op.json").read_text()))
            spec = spectrum.classify_spectrum(op, cli._default_window(job.order)).to_dict()
        base.setdefault(job.order, (job, spec))
        try:
            err = _weight_relerr(job.truth, spec, recovery, spectrum) if spec and "entries" in spec else None
        except Exception:  # a failed recovery is counted, whatever it raised
            err = None
        if err is None:
            nonfinite += 1
        else:
            rel.append(err)
    out = {
        "recovery.weight_relerr_max": max(rel, default=0.0),
        "recovery.weight_relerr_nonfinite": nonfinite,
    }
    try:
        import mpmath
    except ImportError:
        out["notes"] = "mpmath not importable: spectrum.root_relerr_max skipped"
        return out
    worst = {}
    for order in sorted(base):
        if order in base and base[order][1] and "entries" in base[order][1]:
            job, spec = base[order]
            err = _root_relerr(job.truth, spec, mpmath)
            if err is None:
                out["notes"] = f"K{order}: a top root has no 50-digit bracket within 1e-3"
            else:
                worst[order] = err
    if worst:
        out["spectrum.root_relerr_max"] = max(worst.values())
        out.update({f"spectrum.root_relerr.K{o}": v for o, v in worst.items()})
    else:
        out.setdefault("notes", "no forward spectrum traced: spectrum.root_relerr_max skipped")
    return out


def _per_job(stats, jobs):
    """Per-layer figures normalized per traced job (ms or count per job)."""
    n = max(1, len(jobs))
    out = {}
    for key, value in stats.items():
        head, _, stat = key.rpartition(".")
        if stat in ("s", "self_s"):
            out[f"{head}.{'ms' if stat == 's' else 'self_ms'}_per_job"] = 1e3 * value / n
        elif stat in ("calls", "points", "misses", "dim_sum", "f_evals", "df_evals", "bytes_out", "roots"):
            out[f"{key}_per_job"] = value / n
    calls = stats.get("numerics.bisect_newton.calls", 0)
    out["numerics.bisect_newton.f_evals_per_call"] = stats.get("numerics.bisect_newton.f_evals", 0) / calls if calls else 0.0
    for name, failed in (("recovery.invert_three_spectra", "raised"), ("diagnostics.oracle_comparison", "verdict_failed")):
        calls = stats.get(f"{name}.calls", 0)
        out[f"{name}.failed_frac"] = stats.get(f"{name}.{failed}", 0) / calls if calls else 0.0
    s = stats.get("charfn.char_perturbed.s", 0.0)
    out["charfn.char_perturbed.points_per_s"] = stats.get("charfn.char_perturbed.points", 0) / s if s else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0, help="which of run.py's workers this is")
    args = parser.parse_args()

    _import_program()
    import numpy as np

    import workloads

    wl = args.workload
    run = workloads.RUNNERS[wl]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl}-", dir=out_dir))
    try:
        warm_rng = np.random.default_rng([args.seed, WORKLOAD_IDS[wl], args.part, 0])
        rng = np.random.default_rng([args.seed, WORKLOAD_IDS[wl], args.part, 1])
        t_imported = time.monotonic()
        warm = workloads.make_rounds(warm_rng, wl, 1, work / "warm")[0]
        t0 = time.perf_counter()
        for job in warm:
            run(job)
        t_round = time.perf_counter() - t0
        t_ready = time.monotonic()  # set-up ends here; the timed inputs are made off the clock
        n_rounds = max(2, min(MAX_ROUNDS, math.ceil(ROUND_MARGIN * args.seconds / t_round) + 1))
        rounds = workloads.make_rounds(rng, wl, n_rounds, work / "timed")

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        loops = _timed_loop(rounds, args.seconds, run, _reference_kernel(np), tracer)
        jobs, wall, refs = loops["timed"]
        result = {
            "t_imported": t_imported,
            "t_ready": t_ready,
            "loops": {"timed": _checked(wl, jobs, wall, refs)},
        }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "seed": args.seed,
            "rounds_generated": n_rounds,
            "warmup_round_s": t_round,
        }
        if tracer is not None:
            tjobs, twall, trefs = loops["traced"]
            result["loops"]["traced"] = _checked(wl, tjobs, twall, trefs)
            stats = tracer.stats(sum(j.seconds for j in tjobs))
            layer = {
                "trace_overhead_frac": 1.0 - (len(tjobs) / twall) / (len(jobs) / wall),
                **stats,
                **_per_job(stats, tjobs),
                **_accuracy(wl, tjobs),
            }
            result["per_layer"] = layer
            spans_path = out_dir / "traces" / f"{wl}-seed{args.seed}.json"
            tracer.write(spans_path, {"workload": wl, "seed": args.seed, "jobs": len(tjobs)})
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
