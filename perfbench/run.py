"""curv4 benchmark: one workload, timed, traced on request, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The workloads are listed in BENCHMARK.json and
described in perfbench/README.md.

With `--trace 0` the run measures the end-to-end metrics: `setup_s`, the
median time for a fresh interpreter to import `curv4` and `curv4.cli`, over
probes spread across the run;
`points_per_s`, points finished per second, scaled to the nominal host speed
of hostspeed.py; and `peak_rss_mb`, the peak resident set of the process
that ran the workload.
With `--trace 1` it reports the per-layer metrics instead and writes the
spans to perfbench/out/. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The workload runs in a child process (worker.py) so that the oracles, which
use sympy, do not count towards its memory; this process checks every
output the child recorded. `--smoke` runs one round of each workload
and then feeds corrupted copies of the outputs to the checks, which must
reject every one.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 140.0  # the whole run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "curv4", "__init__.py")):
        raise BenchError(f"no curv4 package under {SRC}")


def run_worker(workload, seed, seconds, trace, setup_probes=0):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--setup-probes", str(setup_probes),
    ]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.json")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(workload, run):
    """(attempted, failed, reasons) over every recorded operation."""
    import checks

    failed, reasons = 0, []
    for rec in run["outputs"]:
        bad = checks.check(workload, rec["op"], rec)
        if bad:
            failed += 1
            reasons.append({"round": rec["round"], "op": rec["op"].get("argv") or rec["op"], "why": bad[:3]})
    return len(run["outputs"]), failed, reasons


def points_per_s(run):
    """Points per second of a typical operation mix, at the host's speed.

    Takes one operation of each kind (one kind per example; scan and variety
    have one kind) and divides their points by the sum of their median wall
    times in this run, so a rare slow operation (a host hiccup, one of the
    root search's 4000-evaluation draws) does not move the figure.
    """
    times, points = {}, {}
    for rec in run["outputs"]:
        key = rec["op"].get("example", "")
        times.setdefault(key, []).append(rec["wall_s"])
        points[key] = rec["op"]["points"]
    return sum(points.values()) / sum(statistics.median(t) for t in times.values())


def bench(workload, seed, seconds, trace):
    _require_source()
    run = run_worker(workload, seed, seconds, trace, setup_probes=0 if trace else SETUP_PROBES)
    attempted, failed, reasons = check_outputs(workload, run)
    slow = run["slowdown"]
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": len(run["rounds"]),
        "points_per_round": run["rounds"][0]["points"],
        "round_wall_s": [round(r["wall_s"], 4) for r in run["rounds"]],
        "op_wall_s": [round(r["wall_s"], 4) for r in run["outputs"]],
        "slowdown": slow,
        "setup_probe_s": [round(t, 4) for t in run["setup_probe_s"]],
        "raw_points_per_s": points_per_s(run),
        "failures": reasons[:5],
    }
    if trace:
        import tracing

        metrics = tracing.layer_metrics([r["layers"] for r in run["rounds"]])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(run["setup_probe_s"]), "unit": "s"},
            "points_per_s": {"value": detail["raw_points_per_s"] * slow, "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(detail))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- smoke run and self-test -------------------------------------------------


def _matching_rows(point):
    """Residual rows that agree with the re-implementation at `point`, so that
    only the membership oracle can reject a perturbed point."""
    import oracles

    mine = oracles.variety_residuals(point["F"], point["sigma"], point["lam"])
    return {"eq1.lam": mine["eq1"], "eq1.sym": 0.0, "eq1.pair": 0.0, "eq1.row": 0.0,
            "fsi": mine["fsi"], "fsp.sv4": mine["fsp.sv4"]}


def _corruptions(workload, run):
    """(label, corrupted record, op, reason prefix) tuples the checks must
    reject; when the prefix is set, every reason must start with it."""
    import checks

    out = []
    for rec in run["outputs"]:
        op = rec["op"]
        if workload == "verify-registry" and op["example"] in ("s4", "bump:0.1"):
            bad = copy.deepcopy(rec)
            bad["report"]["summary"]["s_values"][0] += 1e-3
            out.append((f"{op['example']}: s shifted by 1e-3", bad, op, None))
            bad = copy.deepcopy(rec)
            bad["exit"] = 1 - bad["exit"]
            out.append((f"{op['example']}: exit code flipped", bad, op, None))
            bad = copy.deepcopy(rec)
            verdicts = bad["report"]["summary"]["verdicts"]
            verdicts["harmonic"] = not verdicts["harmonic"]
            out.append((f"{op['example']}: harmonic verdict flipped", bad, op, None))
        if workload == "verify-registry" and op["example"] in ("s2xs2:1,2", "rxs3"):
            bad = copy.deepcopy(rec)
            bad["report"]["summary"]["counts"]["case"] = "A"
            out.append((f"{op['example']}: case label A", bad, op, None))
        if workload == "verify-registry" and op["example"] == "h4":
            bad = copy.deepcopy(rec)
            bad["report"]["summary"]["counts"]["degenerate_points"] = 0
            out.append(("h4: no degenerate frame point", bad, op, None))
        if workload == "scan-grid":
            bad = copy.deepcopy(rec)
            bad["report"]["points"][4]["harmonic"] = False
            out.append(("scan: one cell flipped to non-harmonic", bad, op, None))
            bad = copy.deepcopy(rec)
            bad["report"]["points"][1]["counts"]["case"] = "A"
            out.append(("scan: case label of an unequal cell set to A", bad, op, None))
        if workload == "variety-sample":
            bad = copy.deepcopy(rec)
            p = bad["report"]["points"][0]
            p["F"][0][1] += 1e-3
            p["lam"][0] += 1e-3
            p["residuals"] = _matching_rows(p)
            out.append(("variety: sampled point perturbed by 1e-3", bad, op, checks.MEMBERSHIP))
        if workload == "frames-harvest":
            bad = copy.deepcopy(rec)
            fr = bad["frames"][0]
            if op["example"] == "kpc":
                fr["mixed_max"] = 1e-3
                out.append(("kpc: mixed components raised to 1e-3", bad, op, None))
            else:
                fr["sectional"][0][1] += 1e-3
                out.append((f"{op['example']}: sectional curvature shifted by 1e-3", bad, op, None))
            if op["example"] != "bump:0.1":  # a non-harmonic metric's point need not be a member
                bad = copy.deepcopy(rec)
                pt = bad["frames"][0]["point"]
                pt["F"][0][1] += 1e-2
                pt["lam"][0] += 1e-2
                bad["frames"][0]["rows"] = _matching_rows(pt)
                out.append((f"{op['example']}: harvested point perturbed by 1e-2", bad, op, checks.MEMBERSHIP))
    return out


def smoke():
    import checks

    _require_source()
    ok = True
    for workload in workloads.WORKLOADS:
        t0 = time.perf_counter()
        run = run_worker(workload, seed=1, seconds=0, trace=0, setup_probes=1)
        attempted, failed, reasons = check_outputs(workload, run)
        good = failed == 0
        print(f"{workload}: {attempted} ops, {failed} failed, {time.perf_counter() - t0:.1f} s")
        for r in reasons:
            print(f"  FAIL {r}")
        for label, rec, op, prefix in _corruptions(workload, run):
            why = checks.check(workload, op, rec)
            caught = bool(why) and (prefix is None or all(r.startswith(prefix) for r in why))
            print(f"  {'rejects' if caught else 'MISSES '} {label}")
            good = good and caught
        ok = ok and good
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload and oracle")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
