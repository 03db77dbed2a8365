"""Command-line driver: verify examples, exercise the variety, scan grids.

Exit codes: 0 all verdicts pass, 1 a verification ran and failed, 2 usage
or configuration error, among them a tolerance that is not a finite
positive number, a spec-file sample count or seed that is not an integer, a
negative seed, an unknown spec-file key or parameter name, a spec-file
example, name or kind that is not a string, params that are not an object
of numbers, a spec file that names its example more than once or gives
params without kind, a scan grid axis with no values or given twice, and a
variety --mode without --sample or --count without --from-example. Reports
(schema "2") are deterministic for a fixed (config, seed) apart from the
wall-time field. Every chart is built by examples.build_example, from a
registry string or from a kind and its parameter values, and reports the
exact name it was built under. Every registry chart has an exact metric
jet, so no finite-difference setting enters a report. verify and scan frame
every sample: a scan's cells, like verify's one chart, take one stacked
harmonicity batch and one frame pass over it, and each cell's row reads its
slice of the frames, skw rows and invariants.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import variety as vy
from .chart import (
    DEFAULT_TOLS,
    _checked_tols,
    _tolerance,
    curvature_batch,
    harmonicity_report,
    harmonicity_reports,
    parallel_map,
    sample_points,
)
from .errors import Curv4Error, InputError
from .examples import REGISTRY, build_example, canonical_name, example_names
from .frames import extract_frames, fold_invariants, frame_invariants, skw_residuals

SCHEMA_VERSION = "2"

# the keys a --spec file may hold
_SPEC_KEYS = ("example", "kind", "name", "params", "samples", "seed", "tolerances")
_TOL_TIERS = tuple(DEFAULT_TOLS)


@dataclass
class RunConfig:
    """Echoed verbatim into every report."""

    example: str = ""
    samples: int = 16
    # explicit overrides only; DEFAULT_TOLS fills in the rest
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    output: str = ""
    fmt: str = "json"

    def to_dict(self):
        return {
            "example": self.example,
            "samples": self.samples,
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "format": self.fmt,
        }


@dataclass
class Report:
    """Payload plus the exit code derived from its verdicts."""

    payload: dict
    exit_code: int


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload, fmt, out, csv_writer=None):
    """Serialize the payload to --out or stdout; returns nothing."""
    if fmt == "json":
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    else:
        if csv_writer is None:
            raise InputError("csv output is not available for this command")
        import io

        buf = io.StringIO()
        csv_writer(buf)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        verdicts = payload.get("summary", {}).get("verdicts", {})
        print(f"wrote {out}; verdicts: {_jsonable(verdicts)}")
    else:
        sys.stdout.write(text)


def _frame_pass(charts, reports):
    """One stacked frame pass over the reports' one stack (extract_frames,
    which evaluates no curvature of its own), as the tuple (framed, source,
    skw rows, invariants), each over every sample of the reports of
    `charts`: which samples have a frame, its source, and the skw_residuals
    and frame_invariants of the stack."""
    point_charts = [chart for chart, rep in zip(charts, reports) for _ in rep.points]
    frames = extract_frames(point_charts, reports[0].stack)
    framed = frames.framed
    if not framed.any():
        # no sample has a frame (constant curvature): there are no rows to read
        return framed, frames.source, {}, {}
    return framed, frames.source, skw_residuals(frames), frame_invariants(frames)


def _verify_payload(config, chart, rep, framing):
    """The verify report body on `chart` from its harmonicity report `rep`
    and the _frame_pass `framing` of rep's stack, without timing: the rows
    and counts of rep's samples are their slice rep.span of the stack's
    framing. verify and each scan cell make it the same way."""
    tols = rep.tols
    stack_framed, source, stack_skw, stack_invariants = framing
    framed = stack_framed[rep.span]
    points = [
        {"x": list(map(float, x)), "residuals": dict(rows), "counts": {"degenerate": True}}
        for x, rows in zip(rep.points, rep.rows)
    ]
    skw_max, invariants = {}, {}
    if framed.any():
        # the rows and counts of the framed points, as Python numbers
        at = np.flatnonzero(framed)
        skw = {key: v[rep.span][at].tolist() for key, v in stack_skw.items()}
        invariants = {key: v[rep.span][at].tolist() for key, v in stack_invariants.items()}
        for m, n in enumerate(at.tolist()):
            points[n]["residuals"].update((key, v[m]) for key, v in skw.items())
            counts = {key: v[m] for key, v in invariants.items()}
            points[n]["counts"] = {**counts, "source": source}
        skw_max = {key: max(v) for key, v in skw.items()}

    counts = fold_invariants(invariants, degenerate_points=int(np.count_nonzero(~framed)))
    skw_ok = all(v <= tols["third"] for v in skw_max.values())

    maxima = dict(rep.maxima)
    maxima.update(skw_max)
    verdicts = {
        "harmonic": bool(rep.harmonic),
        "skw": bool(skw_ok),
    }
    verdicts["overall"] = bool(verdicts["harmonic"] and verdicts["skw"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "chart": {"name": chart.name, "params": _jsonable(chart.params)},
        "points": points,
        "summary": {
            "verdicts": verdicts,
            "maxima": maxima,
            "s_values": [float(v) for v in rep.s_values],
            "s_spread": float(rep.s_spread),
            "counts": {
                "r": counts.r,
                "w": counts.w,
                "w_minus": counts.w_minus,
                "d_lower": counts.d_lower,
                "case": counts.case_label,
                "degenerate_points": counts.degenerate_points,
            },
            "tolerances": tols,
        },
    }
    return payload


def _verify_csv(payload, fh):
    keys = sorted({k for p in payload["points"] for k in p["residuals"]})
    fh.write(f"# curv4 verify {payload['chart']['name']} schema {SCHEMA_VERSION}\n")
    fh.write(",".join(["x1", "x2", "x3", "x4"] + keys) + "\n")
    for p in payload["points"]:
        vals = [repr(v) for v in p["x"]]
        vals += [repr(p["residuals"][k]) if k in p["residuals"] else "" for k in keys]
        fh.write(",".join(vals) + "\n")


def cmd_verify(config, chart=None):
    """The verify report on `chart`, by default build_example(config.example):
    the one-chart case of a scan."""
    if chart is None:
        chart = build_example(config.example)
    t_start = time.perf_counter()
    rep = harmonicity_report(chart, count=config.samples, seed=config.seed, tols=config.tolerances)
    payload = _verify_payload(config, chart, rep, _frame_pass([chart], [rep]))
    payload["timing"] = {"wall_seconds": time.perf_counter() - t_start}
    exit_code = 0 if payload["summary"]["verdicts"]["overall"] else 1
    return Report(payload=payload, exit_code=exit_code)


def cmd_variety(config, source, tol):
    """Membership of the points of one source: ("point", name),
    ("sample", count, mode) or ("example", name, count)."""
    t_start = time.perf_counter()
    points = []
    origin = {}
    if source[0] == "point":
        name = source[1]
        if name not in vy.NAMED_POINTS:
            raise InputError(
                f"unknown named point {name!r}; choices: {', '.join(sorted(vy.NAMED_POINTS))}"
            )
        points = [vy.NAMED_POINTS[name]()]
        origin = {"point": name}
        tol = 1e-6 if tol is None else tol
    elif source[0] == "sample":
        _, count, mode = source
        points = vy.sample_variety(seed=config.seed, count=count, constraint_mode=mode)
        origin = {"sample": count, "mode": mode}
        tol = 1e-6 if tol is None else tol
    else:
        name, count = canonical_name(source[1]), source[2]
        chart = build_example(name)
        xs = sample_points(chart, count=count, seed=config.seed)
        frames = extract_frames(chart, curvature_batch(chart, xs, degree=3))
        tol = 1e-3 if tol is None else tol
        # frames[n] raises DegenerateFrameError at a point with no frame
        points = [vy.from_frame(frames[n]).normalized() for n in range(len(xs))]
        origin = {"from_example": name, "count": count}

    reports = [vy.system_residuals(p, tol) for p in points]
    all_passed = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {**config.to_dict(), "origin": origin, "tol": tol},
        "points": [
            {
                "F": rep.point.F,
                "sigma": rep.point.sigma,
                "lam": rep.point.lam,
                "s": rep.point.s,
                "residuals": dict(rep.rows),
                "rank": rep.rank,
                "passed": rep.passed,
            }
            for rep in reports
        ],
        "summary": {
            "verdicts": {"membership": all_passed, "overall": all_passed},
            "maxima": {
                "eq1": max(r.eq1_residual for r in reports),
                "fsi": max(r.fsi_residual for r in reports),
                "fsp.sv4": max(r.fsp_residual for r in reports),
            },
            "ranks": [r.rank for r in reports],
        },
        "timing": {"wall_seconds": time.perf_counter() - t_start},
    }

    def csv_writer(fh):
        note = f"curv4 variety {origin} seed {config.seed} tol {tol:g}"
        vy.export_csv(reports, fh, note=note)

    return Report(payload=payload, exit_code=0 if all_passed else 1), csv_writer


def cmd_scan(config, kind, param_grid):
    """The scan report over the grid's cells: every cell's chart is built
    before any curvature is evaluated, so a cell its factory rejects ends
    the scan (exit 2); then all cells' samples go through one stacked
    harmonicity pass (harmonicity_reports) and one frame pass over the same
    stack (_frame_pass), and each cell's row is made from its report and
    its slice of the frames, as its verify would make it."""
    kind = canonical_name(kind)
    for name, values in param_grid.items():
        if not values:
            raise InputError(f"--param {name} has no grid values")
    # the grid replaces default axes; build_example judges the kind and each cell
    grid = {n: [d] for n, d in REGISTRY.get(kind, (None, {}))[1].items()} | param_grid
    cells = [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]

    t_start = time.perf_counter()
    charts = [build_example(kind, cell) for cell in cells]
    reports = harmonicity_reports(
        charts, count=config.samples, seed=config.seed, tols=config.tolerances
    )
    framing = _frame_pass(charts, reports)

    def run_cell(item):
        cell, chart, rep = item
        payload = _verify_payload(replace(config, example=chart.name), chart, rep, framing)
        return {
            "params": cell,
            "example": chart.name,
            "maxima": payload["summary"]["maxima"],
            "counts": payload["summary"]["counts"],
            "harmonic": payload["summary"]["verdicts"]["harmonic"],
        }

    rows = parallel_map(run_cell, list(zip(cells, charts, reports)))
    rows.sort(key=lambda r: tuple(r["params"].values()))
    all_harmonic = all(r["harmonic"] for r in rows)
    agg = {}
    for row in rows:
        for key, val in row["maxima"].items():
            agg[key] = max(agg.get(key, 0.0), val)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {**config.to_dict(), "kind": kind, "grid": {k: list(v) for k, v in param_grid.items()}},
        "points": rows,
        "summary": {
            "verdicts": {"all_harmonic": all_harmonic, "overall": all_harmonic},
            "maxima": agg,
            "cells": len(rows),
        },
        "timing": {"wall_seconds": time.perf_counter() - t_start},
    }

    def csv_writer(fh):
        keys = sorted(agg)
        fh.write(f"# curv4 scan {kind} schema {SCHEMA_VERSION}\n")
        fh.write(",".join(list(grid) + keys + ["case", "harmonic"]) + "\n")
        for row in rows:
            vals = [repr(float(v)) for v in row["params"].values()]
            vals += [repr(row["maxima"].get(k, 0.0)) for k in keys]
            vals += [row["counts"]["case"], str(int(row["harmonic"]))]
            fh.write(",".join(vals) + "\n")

    return Report(payload=payload, exit_code=0 if all_harmonic else 1), csv_writer


def _add_sampling(p):
    """--samples and the tolerance tiers, for verify and scan; variety takes
    --count and --tol instead. Numeric defaults (here and in _add_common)
    live in _config_from_args, so a --spec file can fill them."""
    p.add_argument("--samples", type=int, default=None, help="sample point count (default 16)")
    p.add_argument("--tol-second", type=float, default=None)
    p.add_argument("--tol-third", type=float, default=None)


def _add_common(p):
    """--seed, --out and --format, for every subcommand."""
    p.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    p.add_argument("--out", default="", help="write the report here instead of stdout")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")


def _integer(key, value):
    """A spec file's integer `key`: value as an int, if it is an integer or an
    integral float; InputError naming the key otherwise."""
    ok = isinstance(value, int | float) and not isinstance(value, bool)
    if not (ok and math.isfinite(value) and value == int(value)):
        raise InputError(f"spec key {key!r} must be an integer, got {value!r}")
    return int(value)


def _config_from_args(args, file_cfg=None):
    file_cfg = file_cfg or {}
    tols = dict(file_cfg.get("tolerances", {}))
    _checked_tols(tols)
    for tier in _TOL_TIERS:
        val = getattr(args, f"tol_{tier}", None)
        if val is not None:
            tols[tier] = _tolerance(f"--tol-{tier}", val)
    samples = getattr(args, "samples", None)
    if samples is None:
        samples = _integer("samples", file_cfg.get("samples", 16))
    if samples < 1:
        raise InputError("--samples must be at least 1")
    seed = args.seed if args.seed is not None else _integer("seed", file_cfg.get("seed", 0))
    if seed < 0:
        # numpy's generators take no negative seed
        raise InputError(f"--seed must be non-negative, got {seed}")
    return RunConfig(
        samples=samples,
        tolerances=tols,
        seed=seed,
        output=args.out,
        fmt=args.fmt,
    )


def _load_spec_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"spec file {path} must hold a JSON object")
    for key in data:
        if key not in _SPEC_KEYS:
            raise InputError(
                f"spec file {path}: unknown key {key!r}; keys: {', '.join(_SPEC_KEYS)}"
            )
    named = [key for key in ("name", "example", "kind", "params") if key in data]
    if named not in ([], ["name"], ["example"], ["kind"], ["kind", "params"]):
        raise InputError(
            f"spec file {path} has keys {named}: name the example by one of 'name', "
            "'example' or 'kind', and give 'params' only with 'kind'"
        )
    for key in ("tolerances", "params"):
        if not isinstance(data.get(key, {}), dict):
            raise InputError(f"spec file {path}: {key!r} must be a JSON object")
    for key in ("example", "name", "kind"):
        if not isinstance(data.get(key, ""), str):
            raise InputError(f"spec file {path}: {key!r} must be a string, got {data[key]!r}")
    for name, value in data.get("params", {}).items():
        if isinstance(value, bool) or not isinstance(value, int | float):
            raise InputError(
                f"spec file {path}: parameter {name!r} must be a number, got {value!r}"
            )
    return data


@functools.cache
def build_parser():
    """The `curv4` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="curv4",
        description="numerical verification of harmonic-curvature 4-metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="harmonicity and frame-identity report")
    pv.add_argument("--example", default=None, help=f"one of: {', '.join(example_names())}")
    pv.add_argument("--spec", default=None, help="JSON config file with an example definition")
    _add_sampling(pv)
    _add_common(pv)

    pt = sub.add_parser("variety", help="polynomial-system membership")
    src = pt.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-example", default=None, help="harvest frame data from an example")
    src.add_argument("--point", default=None, help="named point, e.g. zeros-with-product-sigma")
    src.add_argument("--sample", type=int, default=None, metavar="N", help="draw N variety samples")
    pt.add_argument("--count", type=int, help="points --from-example harvests (default 4)")
    pt.add_argument(
        "--mode", choices=("linear-only", "full"), help="--sample draw constraints (default full)"
    )
    pt.add_argument("--tol", type=float, default=None, help="membership tolerance")
    _add_common(pt)

    ps = sub.add_parser("scan", help="parameter-grid harmonicity scan")
    ps.add_argument("kind", help="example kind, e.g. s2xs2 or product_surfaces")
    ps.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="name=v1,v2,...",
        help="grid values for one parameter; repeatable",
    )
    _add_sampling(ps)
    _add_common(ps)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            file_cfg = _load_spec_file(args.spec) if args.spec else {}
            config = _config_from_args(args, file_cfg)
            # --example overrides the one example the spec file names
            if args.example is not None:
                name, params = args.example, None
            elif "kind" in file_cfg:
                name, params = file_cfg["kind"], file_cfg.get("params", {})
            else:
                name, params = file_cfg.get("name", file_cfg.get("example")), None
            if name is None:
                raise InputError("verify needs --example or a --spec file that names an example")
            chart = build_example(name, params)
            config.example = canonical_name(name) if params is None else chart.name
            report = cmd_verify(config, chart)
            _emit(
                report.payload,
                config.fmt,
                config.output,
                csv_writer=lambda fh: _verify_csv(report.payload, fh),
            )
            return report.exit_code

        if args.command == "variety":
            config = _config_from_args(args)
            if args.mode is not None and args.sample is None:
                raise InputError("--mode applies to --sample draws only")
            if args.count is not None and args.from_example is None:
                raise InputError("--count applies to --from-example only")
            if args.point is not None:
                source = ("point", args.point)
            elif args.sample is not None:
                if args.sample < 1:
                    raise InputError("--sample must be at least 1")
                source = ("sample", args.sample, args.mode or "full")
            else:
                source = ("example", args.from_example, 4 if args.count is None else args.count)
                config.example = canonical_name(args.from_example)
            tol = None if args.tol is None else _tolerance("--tol", args.tol)
            report, csv_writer = cmd_variety(config, source, tol)
            _emit(report.payload, config.fmt, config.output, csv_writer=csv_writer)
            return report.exit_code

        grid = {}
        for item in args.param:
            name, _, raw = item.partition("=")
            name = name.strip()
            if not raw:
                raise InputError(f"--param needs name=v1,v2,... (got {item!r})")
            if name in grid:
                raise InputError(f"--param {name} is given twice; give each axis once")
            try:
                grid[name] = [float(v) for v in raw.split(",") if v.strip()]
            except ValueError as exc:
                raise InputError(f"bad grid values in {item!r}") from exc
        config = _config_from_args(args)
        report, csv_writer = cmd_scan(config, args.kind, grid)
        _emit(report.payload, config.fmt, config.output, csv_writer=csv_writer)
        return report.exit_code
    except Curv4Error as exc:
        print(f"curv4: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
