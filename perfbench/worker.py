"""Runs one workload in a process of its own and prints what it saw.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-probes K] [--spans FILE]

The parent (`run.py`) starts it with `src/` on PYTHONPATH. It runs whole
rounds of the workload's operations, closed loop in one thread, until
`--seconds` have passed, and prints one JSON document: per-round and
per-operation wall times and points, host-speed samples taken between
operations (outside the timed spans), every operation's output (checked later by the parent, which
keeps sympy out of this process's memory), its own peak RSS, the set-up
probe times, and with `--trace 1` the per-layer values of every round.

A set-up probe is a fresh interpreter that imports `curv4` and `curv4.cli`.
The K probes are spread evenly over the run, each started between two
rounds while this process is idle, so their median samples the host's speed
across the run rather than in one moment; their time is not counted in
`--seconds`. A child's memory does not count in this process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


REFERENCE_SLICES = 5  # host-speed samples taken before each operation
SETUP_CODE = "import curv4, curv4.cli"
SETUP_TIMEOUT_S = 30.0


def setup_probe():
    """Wall time of a fresh interpreter importing curv4 and curv4.cli."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()}")
    return elapsed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probes", type=int, default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    import curv4.cli  # noqa: F401  (import cost is setup_s, probed apart)

    workloads.set_threads(args.workload)
    host = hostspeed.Reference(workloads.REFERENCE_THREADS[args.workload])
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    rounds, outputs, reference, probes = [], [], [], []
    op_id = 0
    probe_s = 0.0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start - probe_s < args.seconds:
        due = len(probes) * args.seconds / max(1, args.setup_probes)
        if len(probes) < args.setup_probes and time.perf_counter() - start - probe_s >= due:
            probes.append(setup_probe())
            probe_s += probes[-1]
        ops = workloads.round_ops(args.workload, args.seed, len(rounds))
        before = tracer.snapshot() if tracer else None
        first_span = len(tracer.spans) if tracer else 0
        first_output = len(outputs)
        for op in ops:
            op_id += 1
            reference.extend(host.sample() for _ in range(REFERENCE_SLICES))
            record = {"round": len(rounds), "op": op}
            t_op = time.perf_counter()
            try:
                if tracer is None:
                    record.update(workloads.run_op(op))
                else:
                    tracer.op = op_id
                    with tracer.span("op"):
                        if op["kind"] == "cli":
                            with tracer.span("cli.main"):
                                record.update(workloads.run_op(op))
                        else:
                            record.update(workloads.run_op(op))
            except Exception:
                record["error"] = traceback.format_exc(limit=3)
            record["wall_s"] = time.perf_counter() - t_op
            outputs.append(record)
        wall = sum(rec["wall_s"] for rec in outputs[first_output:])
        entry = {"wall_s": wall, "points": sum(op["points"] for op in ops)}
        if tracer is not None:
            after = tracer.snapshot()
            counts = {k: v - before[0].get(k, 0) for k, v in after[0].items()}
            busy = {k: v - before[1].get(k, 0.0) for k, v in after[1].items()}
            entry["layers"] = tracing.round_layer_values(
                tracer.spans[first_span:], counts, busy, entry["points"]
            )
        rounds.append(entry)

    while len(probes) < args.setup_probes:
        probes.append(setup_probe())
    host.close()
    if tracer is not None:
        tracer.uninstall()
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            fields = ("id", "parent", "op", "name", "start", "end")
            with open(args.spans, "w") as fh:
                json.dump({"fields": fields, "spans": tracer.spans}, fh)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {
            "rounds": rounds,
            "peak_rss_mb": peak_kb / 1024.0,
            "outputs": outputs,
            "reference_s": reference,
            "slowdown": host.slowdown(reference),
            "setup_probe_s": probes,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
