"""Benchmark entry point.

    python3 perfbench/run.py --workload {roundtrip,validate,audit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. It first runs the checker self-test, then
worker.py in child processes, one after another. With --trace 0 there are
three workers; each sets up and runs a third of the S seconds on operators
of its own, and the jobs are pooled (setup_s is the median of the three
set-ups). With --trace 1 one worker runs S seconds of rounds, every second
one traced. run.py prints a readable report, writes the full result to
.bench_out/results/, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3  # workers per untraced run; setup_s is the median of their set-ups
# Job times are reported at a reference speed: scaled by REF_MS / the run's
# median time of one pass of the worker's reference kernel. The kernel is
# fixed code of the benchmark, so the scale follows the speed the shared
# host gives the run, and a change to the program moves the scaled times as
# much as the wall times.
REF_MS = 15.0
DEADLINE_S = 170.0  # the whole run, children included


def _worker(args, part: int, seconds: float, started: float) -> tuple[dict, dict]:
    """Run worker.py; returns its result and its set-up: seconds from spawn
    to ready, split into start-up with imports and the warm-up round."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--part", str(part),
    ]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    spawn = time.monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, DEADLINE_S - (spawn - started)),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return result, {
        "total_s": result["t_ready"] - spawn,
        "import_s": result["t_imported"] - spawn,
        "warmup_s": result["t_ready"] - result["t_imported"],
    }


def summarize(loops: list[dict]) -> dict:
    """End-to-end figures of pooled loops: jobs per second over their summed
    wall time, and per order the median job time and the digits of passed
    jobs; times also at the reference speed (REF_MS)."""
    jobs = [job for loop in loops for job in loop["jobs"]]
    wall = sum(loop["wall_s"] for loop in loops)
    ref_ms = statistics.median(r for loop in loops for r in loop["ref_ms"])
    scale = REF_MS / ref_ms
    metrics = {"jobs_per_s_ref": len(jobs) / (wall * scale)}
    orders = {}
    for order, ms, kind, digits in jobs:
        orders.setdefault(order, []).append((ms, kind, digits))
    table = {}
    for order, rows in sorted(orders.items()):
        passed = [d for _, kind, d in rows if not kind]
        p50 = statistics.median(ms for ms, _, _ in rows)
        mean = statistics.fmean(passed) if passed else 0.0
        metrics[f"p50_ms_ref.K{order}"] = p50 * scale
        metrics[f"digits_mean.K{order}"] = mean
        table[f"K{order}"] = {
            "n": len(rows),
            "p50_ms": p50,
            "p50_ms_ref": p50 * scale,
            "failed": len(rows) - len(passed),
            "digits": min(0.0 if kind else d for _, kind, d in rows),  # failed jobs score 0
            "digits_mean": mean,  # over passed jobs
        }
    return {
        "n": len(jobs),
        "wall_s": wall,
        "jobs_per_s": len(jobs) / wall,
        "ref_ms": ref_ms,
        "metrics": metrics,
        "orders": table,
        "tally": checks.tally(job[2] for job in jobs),
    }


def _report(args, env, phases, setups, peak_rss_mb, layer) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for label, res in phases.items():
        tally, n = res["tally"], res["n"]
        print(
            f"{label}: {n} jobs in {res['wall_s']:.2f} s, jobs_per_s={res['jobs_per_s']:.4g} 1/s "
            f"(reference pass {res['ref_ms']:.3f} ms: {res['metrics']['jobs_per_s_ref']:.4g} 1/s at {REF_MS:g} ms), "
            f"failed_frac={tally['failed'] / n:.4g} ({tally['failed']}/{n}), correct={tally['correct']}"
        )
        print("  order      n    p50_ms  p50_ms_ref  failed  digits  digits_mean")
        for order, row in res["orders"].items():
            print(
                f"  {order:<6} {row['n']:>5} {row['p50_ms']:>9.2f} {row['p50_ms_ref']:>11.2f} {row['failed']:>7} "
                f"{row['digits']:>7.2f} {row['digits_mean']:>12.2f}"
            )
        if tally["kinds"]:
            print("  failures: " + ", ".join(f"{k} x{v}" for k, v in tally["kinds"].items()))
    if setups:
        print(
            "setup_s: " + ", ".join(f"{s['total_s']:.3f} ({s['import_s']:.3f} start-up + {s['warmup_s']:.3f} warm-up)"
                                    for s in setups)
            + f", median {statistics.median(s['total_s'] for s in setups):.3f}"
        )
    print(f"peak_rss_mb: {peak_rss_mb:.1f}")
    if layer is None:
        return
    if "notes" in layer:
        print("note: " + layer["notes"])
    shares = sorted(k for k in layer if k.endswith(".self_frac"))
    print("layer self time / traced job time: " + " ".join(f"{k[:-10]}={layer[k]:.3f}" for k in shares))
    print("  function                                   calls/job      ms/job  self_ms/job")
    for name in sorted(k[:-6] for k in layer if k.endswith(".calls") and layer[k]):
        print(
            f"  {name:<40} {layer[name + '.calls_per_job']:>11.1f} {layer[name + '.ms_per_job']:>11.3f} "
            f"{layer[name + '.self_ms_per_job']:>12.3f}"
        )
    timing = (".calls", ".s", ".self_s", ".self_frac", "ms_per_job", "calls_per_job")
    counters = sorted(k for k in layer if k != "notes" and not k.endswith(timing))
    print("  " + ", ".join(f"{k}={layer[k]:.4g}" for k in counters))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in config["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not selftest.run():
        sys.stderr.write("perfbench: checker self-test failed\n")
        return 1

    parts = 1 if args.trace else WORKERS
    try:
        results = [_worker(args, part, args.seconds / parts, started) for part in range(parts)]
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    phases = {"timed": summarize([r["loops"]["timed"] for r, _ in results])}
    setups = [] if args.trace else [ready for _, ready in results]
    peak_rss_mb = max(r["peak_rss_mb"] for r, _ in results)
    layer = results[0][0].get("per_layer")
    if args.trace:
        phases["traced"] = summarize([results[0][0]["loops"]["traced"]])
        values, wanted = layer, config["per_layer"]
    else:
        setup_s = statistics.median(s["total_s"] for s in setups)
        values = {**phases["timed"]["metrics"], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        wanted = config["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif not (m["name"] == "spectrum.root_relerr_max" and "notes" in values):
            sys.stderr.write(f"perfbench: metric {m['name']} was not measured\n")
            return 1

    env = {**results[0][0]["env"], "rounds_generated": [r["env"]["rounds_generated"] for r, _ in results]}
    env["jobs_per_order"] = {o: row["n"] for o, row in phases["timed"]["orders"].items()}
    _report(args, env, phases, setups, peak_rss_mb, layer)
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "env": env, "phases": phases, "setups": setups, "peak_rss_mb": peak_rss_mb,
        "per_layer": layer, "spans_file": results[0][0].get("spans_file"),
    }, indent=1))
    print(json.dumps({
        "correct": all(p["tally"]["correct"] for p in phases.values()),
        "attempted": sum(p["n"] for p in phases.values()),
        "failed": sum(p["tally"]["failed"] for p in phases.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
