"""Repeat mode: N runs of one workload, each metric's median and quartiles
against its bound in BENCHMARK.json.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 100]
                                [--seconds S]

Run n uses seed first-seed + n; every run is untraced (per-layer metrics
come from `run.py --trace 1`). The spread of a metric is the distance
between its first and third quartile (statistics.quantiles, n=4) as a share
of its median; a steady benchmark keeps every end-to-end spread except that
of setup_s under its bound. Each run's full output is kept in
perfbench/out/repeat-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for n in range(args.runs):
        seed = args.first_seed + n
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return 1
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "detail": detail, "result": result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"rounds {detail['rounds']} {values}", flush=True)

    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else (" ok" if spread <= bound / 3 else
                                            " within bound" if spread <= bound else " OVER BOUND")
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
              + ("" if bound is None else f" bound {bound}{verdict}"))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"repeat-{args.workload}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
