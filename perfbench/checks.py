"""Checks every recorded operation output against the oracles.

`check(workload, op, record)` returns a list of reasons the output is wrong;
an empty list means the operation passed. It reads only the worker's record,
so the self-test can feed it deliberately corrupted copies.
"""

from __future__ import annotations

import itertools

import numpy as np

import oracles
import workloads

S_RTOL = 1e-6  # FD scalar curvature is within ~3e-9 of the exact value
SECTIONAL_ATOL = 1e-6  # FD frame sectional curvatures within ~1e-10
MIXED_ATOL = 1e-6  # mixed components on the harmonic charts stay below ~1e-10
SAMPLE_TOL = 1e-6  # the sampler's own acceptance tolerance
HARVEST_TOL = 1e-3  # membership tolerance of harvested frame data (as in the CLI)
AGREE_ATOL = 1e-10  # package residual rows against the re-implementation
HARMONIC_HARVEST = ("s2xs2", "kpc")
MEMBERSHIP = "membership:"  # prefix of the reasons the variety oracle gives


def _is_true(value):
    # the CLI's JSON writes verdict booleans as 1 and 0
    return value is True or (type(value) is int and value == 1)


def _kind_params(example):
    kind, _, raw = example.partition(":")
    params = tuple(float(p) for p in raw.split(",")) if raw else ()
    defaults = {"s2xs2": (1.0, 2.0), "rxs3": (1.0,), "bump": (0.1,)}
    return kind, params or defaults.get(kind, ())


def _check_verify(op, rec):
    bad = []
    kind, params = _kind_params(op["example"])
    expected = oracles.EXPECTED_EXIT[kind]
    if rec["exit"] != expected:
        bad.append(f"exit {rec['exit']} != {expected}")
    rep = rec["report"]
    summary = rep["summary"]
    verdicts = summary["verdicts"]
    harmonic = expected == 0
    if _is_true(verdicts["overall"]) != harmonic or _is_true(verdicts["harmonic"]) != harmonic:
        bad.append(f"verdicts {verdicts} for a {'harmonic' if expected == 0 else 'non-harmonic'} metric")
    points = rep["points"]
    if len(points) != op["points"] or len(summary["s_values"]) != op["points"]:
        bad.append(f"{len(points)} points reported, {op['points']} asked for")
        return bad
    if kind in ("s4", "h4", "s2xs2", "rxs3", "bump"):
        for p, s in zip(points, summary["s_values"]):
            exact = oracles.scalar_curvature(kind, params, p["x"])
            if not abs(s - exact) <= S_RTOL * max(1.0, abs(exact)):
                bad.append(f"s = {s!r} at {p['x']}, exact {exact!r}")
    counts = summary["counts"]
    frame_points = min(4, op["points"])
    if kind == "s2xs2":
        want = "A" if params[0] == params[1] else "C"
        if counts["case"] != want:
            bad.append(f"case {counts['case']} != {want}")
    elif kind == "rxs3" and counts["case"] != "B":
        bad.append(f"case {counts['case']} != B")
    elif kind in ("s4", "h4") and counts["degenerate_points"] != frame_points:
        bad.append(f"{counts['degenerate_points']} of {frame_points} frame points degenerate")
    return bad


def _check_scan(op, rec):
    bad = []
    if rec["exit"] != 0:
        bad.append(f"exit {rec['exit']} != 0")
    rep = rec["report"]
    if not _is_true(rep["summary"]["verdicts"]["overall"]):
        bad.append(f"verdicts {rep['summary']['verdicts']} on a grid of harmonic metrics")
    grid = workloads.SCAN_GRID
    want_cells = [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]
    got_cells = [{k: row["params"].get(k) for k in grid} for row in rep["points"]]
    if got_cells != want_cells:
        bad.append(f"cells {got_cells} != {want_cells}")
        return bad
    for row in rep["points"]:
        k1, k2 = row["params"]["k1"], row["params"]["k2"]
        want = "A" if k1 == k2 else "C"
        if row["counts"]["case"] != want or not _is_true(row["harmonic"]):
            bad.append(f"cell {k1:g},{k2:g}: case {row['counts']['case']}, harmonic {row['harmonic']}")
    return bad


def _agreement(rows, mine):
    bad = []
    theirs = {
        "eq1": max(rows["eq1.lam"], rows["eq1.sym"], rows["eq1.pair"], rows["eq1.row"]),
        "fsi": rows["fsi"],
        "fsp.sv4": rows["fsp.sv4"],
    }
    for key, value in theirs.items():
        if not abs(value - mine[key]) <= AGREE_ATOL + 1e-6 * abs(mine[key]):
            bad.append(f"{key} reported {value:.3e}, recomputed {mine[key]:.3e}")
    return bad


def _membership(point, tol):
    """Reasons the point is off the variety; each starts with MEMBERSHIP."""
    found = oracles.membership_failures(point["F"], point["sigma"], point["lam"], tol)
    return [f"{MEMBERSHIP} {reason}" for reason in found]


def _check_variety(op, rec):
    bad = []
    if rec["exit"] != 0:
        bad.append(f"exit {rec['exit']} != 0")
    points = rec["report"]["points"]
    if len(points) != op["points"]:
        bad.append(f"{len(points)} points drawn, {op['points']} asked for")
    for p in points:
        bad += _membership(p, SAMPLE_TOL)
        bad += _agreement(p["residuals"], oracles.variety_residuals(p["F"], p["sigma"], p["lam"]))
        if not _is_true(p["passed"]):
            bad.append("a drawn point is reported as not a member")
    return bad


def _check_harvest(op, rec):
    bad = []
    kind, params = _kind_params(op["example"])
    frames = rec["frames"]
    if len(frames) != op["points"]:
        bad.append(f"{len(frames)} frames, {op['points']} asked for")
    for fr in frames:
        pt = fr["point"]
        mine = oracles.variety_residuals(pt["F"], pt["sigma"], pt["lam"])
        bad += _agreement(fr["rows"], mine)
        if kind in ("s2xs2", "bump"):
            try:
                exact = oracles.sectional_in_frame(kind, params, fr["x"], fr["E"])
            except AssertionError as exc:
                bad.append(str(exc))
                continue
            err = float(np.max(np.abs(np.asarray(fr["sectional"]) - exact)))
            if not err <= SECTIONAL_ATOL:
                bad.append(f"sectional curvature off by {err:.3e}")
        if kind in HARMONIC_HARVEST:
            bad += _membership(pt, HARVEST_TOL)
            if not _is_true(fr["passed"]):
                bad.append("harvested point of a harmonic metric reported as not a member")
            if not fr["mixed_max"] <= MIXED_ATOL:
                bad.append(f"mixed components reach {fr['mixed_max']:.3e}")
    return bad


_CHECKS = {
    "verify-registry": _check_verify,
    "scan-grid": _check_scan,
    "variety-sample": _check_variety,
    "frames-harvest": _check_harvest,
}


def check(workload, op, record):
    if "error" in record:
        return [record["error"].strip().splitlines()[-1]]
    return _CHECKS[workload](op, record)
