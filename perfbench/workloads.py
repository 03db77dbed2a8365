"""The four benchmark workloads: what one round of operations is.

A round is a fixed list of operations, the same operations in every round,
on inputs made from the run's seed and the round's index. The cost of an
operation depends on its input (curvature-cache hits depend on the bits of
the sample point, the root search on its start), so each round draws fresh
inputs and a run averages over many; two runs with the same seed see the
same inputs in the same order. Each operation goes through a public entry
point of curv4: `curv4.cli.main(argv)` for the CLI workloads and the
`curv4` package functions for the frame harvest.

This module is imported by the worker (which runs the operations) and by
the checker (which only reads the operation lists), so it must not import
curv4 at module level.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

# Every registry example; `kpc` is spline-backed and `randflat` takes the
# numeric eigenframe path.
REGISTRY_EXAMPLES = ("s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0")
SCAN_GRID = {"k1": (1, 2, 3), "k2": (1, 2, 3)}
HARVEST_EXAMPLES = ("s2xs2:1,2", "kpc", "bump:0.1")

VERIFY_SAMPLES = 1  # sample points per `verify` call
SCAN_SAMPLES = 1  # sample points per scan cell
VARIETY_SEEDS = 2  # `variety --sample` calls per round
VARIETY_POINTS = 1  # points drawn per call
HARVEST_POINTS = 1  # frames per example per round

# CURV4_THREADS per workload; None leaves the pool at its default size.
THREADS = {
    "verify-registry": "1",
    "scan-grid": None,
    "variety-sample": None,
    "frames-harvest": None,
}

WORKLOADS = tuple(THREADS)

# Threads of the host-speed reference: as many as the workload runs at once
# on the 2-core reference host (scan's default pool has two workers there),
# and the thread counts hostspeed.NOMINAL_S was measured with.
REFERENCE_THREADS = {
    "verify-registry": 1,
    "scan-grid": 2,
    "variety-sample": 1,
    "frames-harvest": 1,
}


def _seeds(seed, round_index, count):
    rng = np.random.default_rng([seed, round_index])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def round_ops(workload, seed, round_index):
    """The operations of one round, as JSON-able dicts.

    Each op names its kind, its inputs and the number of points it works on.
    """
    if workload == "verify-registry":
        n = VERIFY_SAMPLES
        seeds = _seeds(seed, round_index, len(REGISTRY_EXAMPLES))
        return [
            {
                "kind": "cli",
                "example": ex,
                "argv": ["verify", "--example", ex, "--samples", str(n), "--seed", str(s)],
                "points": n,
            }
            for ex, s in zip(REGISTRY_EXAMPLES, seeds)
        ]
    if workload == "scan-grid":
        n = SCAN_SAMPLES
        (s,) = _seeds(seed, round_index, 1)
        argv = ["scan", "s2xs2"]
        for name, values in SCAN_GRID.items():
            argv += ["--param", f"{name}={','.join(str(v) for v in values)}"]
        argv += ["--samples", str(n), "--seed", str(s)]
        cells = int(np.prod([len(v) for v in SCAN_GRID.values()]))
        return [{"kind": "cli", "argv": argv, "points": cells * n}]
    if workload == "variety-sample":
        n = VARIETY_POINTS
        return [
            {
                "kind": "cli",
                "argv": ["variety", "--sample", str(n), "--mode", "full", "--seed", str(s)],
                "points": n,
            }
            for s in _seeds(seed, round_index, VARIETY_SEEDS)
        ]
    if workload == "frames-harvest":
        n = HARVEST_POINTS
        seeds = _seeds(seed, round_index, len(HARVEST_EXAMPLES))
        return [
            {"kind": "harvest", "example": ex, "count": n, "seed": s, "points": n}
            for ex, s in zip(HARVEST_EXAMPLES, seeds)
        ]
    raise KeyError(f"unknown workload {workload!r}")


def set_threads(workload):
    value = THREADS[workload]
    if value is None:
        os.environ.pop("CURV4_THREADS", None)
    else:
        os.environ["CURV4_THREADS"] = value


def run_cli(op):
    """`curv4.cli.main(argv)` with its report captured from stdout."""
    import curv4.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = curv4.cli.main(op["argv"])
    return {"exit": code, "report": json.loads(buf.getvalue())}


def run_harvest(op):
    """One frame per sample point through every structure-data stage."""
    import curv4

    chart = curv4.build_example(op["example"])
    frames = []
    for x in curv4.sample_points(chart, count=op["count"], seed=op["seed"]):
        fr = curv4.extract_frame(chart, x)
        skw = curv4.skw_residuals(fr)
        sd = curv4.structure_data(chart, fr)
        sec, mixed = curv4.curvature_from_structure(sd, fr)
        point = curv4.from_frame(fr).normalized()
        member = curv4.system_residuals(point, tol=1e-3)
        frames.append(
            {
                "x": fr.x.tolist(),
                "E": fr.E.tolist(),
                "source": fr.source,
                "skw": skw,
                "sectional": sec.tolist(),
                "mixed_max": float(np.max(np.abs(mixed))),
                "point": {
                    "F": point.F.tolist(),
                    "sigma": point.sigma.tolist(),
                    "lam": point.lam.tolist(),
                    "s": point.s,
                },
                "rows": {k: float(v) for k, v in member.rows.items()},
                "passed": member.passed,
            }
        )
    return {"exit": 0, "frames": frames}


def run_op(op):
    return run_cli(op) if op["kind"] == "cli" else run_harvest(op)
