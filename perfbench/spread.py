"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload validate --seeds 1-10

Runs run.py --trace 0 once per seed, one run after another, with the
run_seconds of BENCHMARK.json. For each end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median, with the quartiles of statistics.quantiles(values, n=4),
next to the metric's bound; a spread of a third of the bound or more is
flagged. The values are also written to .bench_out/spread/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range, e.g. 1-10")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = []
    for seed in args.seeds:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        if proc.returncode != 0:
            sys.stderr.write(f"seed {seed}: run.py exited with status {proc.returncode}\n")
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        print(f"seed {seed}: attempted={last['attempted']} failed={last['failed']} correct={last['correct']}", flush=True)

    print(f"{'metric':<40} {'median':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        sp = spread(values) if len(values) >= 2 and med else float("nan")
        bound = bounds[name]
        flag = " <-- spread >= bound/3" if not sp < bound / 3 else ""
        print(f"{name:<40} {med:>12.6g} {sp:>8.4f} {bound:>6}{flag}")
        summary[name] = {"median": med, "spread": sp, "bound": bound, "values": values}
    out = ROOT / ".bench_out" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    (out / name).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
