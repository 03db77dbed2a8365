"""Stage timings of one verified point, as pytest-benchmark cases.

The test run takes each case once (`--benchmark-disable` in pyproject's
addopts), so they check only that every stage runs. For the timings:

    pytest tests/test_stage_bench.py --benchmark-enable

prints per-stage statistics: chart validation, of one chart and of the
nine rows of a 3x3 s2xs2 scan as one family, one scrambled Halton draw,
the three harmonicity residual norms of a one-point batch, extract_frame
on s2xs2 (two pair clusters) and bump (a 3-point cluster), skw_residuals,
structure_data on a frame made from an entry (which takes its own jet),
one harvested point (extract_frame with no entry, then structure_data on
the jet the frame carries), the stacked harmonicity pass of a 3x3 s2xs2 scan at
one sample per cell (nine reports from one curvature batch), the frames
of those nine cells as one stack with their skw rows and invariants, the
stacked harmonicity pass of a 16-sample verify (the CLI default, one
degree-3 batch of its 16 samples), the stacked frames of that verify
with their skw rows and invariants, the rows and JSON text of the 3x3
scan from its reports and frame pass, and the JSON text of a 16-sample
verify payload. A stack keeps the
W and nabla W it makes, so the frame stages time every round after the
first without them, as a scan's or verify's frame pass reads the nabla W
its harmonicity pass made.
"""

import json

import numpy as np
import pytest

import curv4
import curv4.chart as chart_module
import curv4.cli as cli
from curv4.frames import (
    extract_frame,
    extract_frames,
    frame_invariants,
    skw_residuals,
    structure_data,
)
from curv4.numerics import halton

EXAMPLES = ["s2xs2:1,2", "bump:0.1"]


@pytest.fixture(scope="module", params=EXAMPLES)
def one_point(request):
    chart = curv4.build_example(request.param)
    report = chart_module.harmonicity_report(chart, count=1, seed=3)
    return chart, report.points[0], report.batch


def test_stage_validation(benchmark, one_point):
    chart, _, _ = one_point
    assert benchmark(chart_module._validate_chart, chart) is None


def test_stage_family_validation(benchmark):
    # the nine rows of a 3x3 s2xs2 scan, validated as one chart family
    cells = [{"k1": k1, "k2": k2} for k1 in (1, 2, 3) for k2 in (1, 2, 3)]
    charts = curv4.examples.build_examples("s2xs2", cells)
    assert benchmark(chart_module._validate_chart, *charts) is None


def test_stage_halton_one_point(benchmark):
    u = benchmark(halton, 1, 12345)
    assert u.shape == (1, 4) and np.all((u >= 0.0) & (u < 1.0))


def test_stage_residual_norms(benchmark, one_point):
    _, _, batch = one_point
    norms = benchmark(lambda: [residual(batch) for residual in chart_module._RESIDUALS.values()])
    assert all(n.shape == (1,) for n in norms)


def test_stage_extract_frame(benchmark, one_point):
    chart, x, batch = one_point
    frame = benchmark(extract_frame, chart, x, batch[0])
    assert frame.source == "eigen"


def test_stage_skw_residuals(benchmark, one_point):
    chart, x, batch = one_point
    rows = benchmark(skw_residuals, extract_frame(chart, x, batch[0]))
    assert set(rows) == {"skw.a", "skw.b", "skw.c", "skw.d", "skw.e", "skw.f"}


def test_stage_structure_data(benchmark, one_point):
    chart, x, batch = one_point
    frame = extract_frame(chart, x, batch[0])
    sd = benchmark(structure_data, chart, frame)
    assert sd.DF.shape == (4, 4, 4)


def test_stage_one_point_harvest(benchmark, one_point):
    # extract_frame(chart, x) takes one curvature jet of degree 4 at x, and
    # structure_data reads its first-order terms
    chart, x, _ = one_point

    def harvest():
        frame = extract_frame(chart, x)
        return frame, structure_data(chart, frame)

    frame, sd = benchmark(harvest)
    assert frame.jets is not None and sd.DF.shape == (4, 4, 4)


def test_stage_stacked_harmonicity(benchmark):
    charts = [curv4.build_example(f"s2xs2:{k1},{k2}") for k1 in (1, 2, 3) for k2 in (1, 2, 3)]
    reports = benchmark(chart_module.harmonicity_reports, charts, count=1, seed=3)
    assert [len(r.points) for r in reports] == [1] * 9


@pytest.mark.parametrize("name", EXAMPLES)
def test_stage_verify_harmonicity(benchmark, name):
    # the harmonicity pass of a default verify: its 16 samples in one
    # degree-3 curvature batch, and the residuals over it
    chart = curv4.build_example(name)
    report = benchmark(chart_module.harmonicity_report, chart, count=16, seed=3)
    assert len(report.rows) == 16 and report.stack.nabla_riem.shape == (16, 4, 6, 6)


def test_stage_stacked_scan_frames(benchmark):
    # the frames of the nine one-sample cells of a 3x3 s2xs2 scan, made in
    # one pass over their stacked harmonicity batch, each point on its chart;
    # the Einstein cells (k1 = k2) have no canonical frame
    cells = [(k1, k2) for k1 in (1, 2, 3) for k2 in (1, 2, 3)]
    charts = [curv4.build_example(f"s2xs2:{k1},{k2}") for k1, k2 in cells]
    stack = chart_module.harmonicity_reports(charts, count=1, seed=3)[0].stack

    def frame_stage():
        frames = extract_frames(charts, stack)
        return frames, skw_residuals(frames), frame_invariants(frames)

    frames, rows, counts = benchmark(frame_stage)
    assert frames.framed.tolist() == [k1 != k2 for k1, k2 in cells]
    assert rows["skw.a"].shape == counts["r"].shape == (9,)


@pytest.mark.parametrize("name", EXAMPLES)
def test_stage_stacked_frames(benchmark, name):
    # every sample of a default verify framed in one pass, as its report
    # makes them: the frames, their skw rows and their invariants
    chart = curv4.build_example(name)
    batch = chart_module.harmonicity_report(chart, count=16, seed=3).stack

    def frame_stage():
        frames = extract_frames(chart, batch)
        return frames, skw_residuals(frames), frame_invariants(frames)

    frames, rows, counts = benchmark(frame_stage)
    assert frames.framed.all() and rows["skw.a"].shape == counts["r"].shape == (16,)


def test_stage_scan_report(benchmark):
    # the rows of the nine one-sample cells of a 3x3 s2xs2 scan, read from
    # their reports and one frame pass, and the JSON text of those rows
    cells = [{"k1": k1, "k2": k2} for k1 in (1.0, 2.0, 3.0) for k2 in (1.0, 2.0, 3.0)]
    charts = curv4.examples.build_examples("s2xs2", cells)
    reports = chart_module.harmonicity_reports(charts, count=1, seed=3)
    framing = cli._frame_pass(charts, reports)

    def report_stage():
        rows = [cli._scan_row(*item, framing) for item in zip(cells, charts, reports)]
        return rows, cli._dump(rows)

    rows, text = benchmark(report_stage)
    assert len(rows) == 9 and text.count('"harmonic": true') == 9


def test_stage_verify_text(benchmark):
    # the JSON text of a default verify report: 16 points with their rows
    payload = cli.cmd_verify(cli.RunConfig(example="s2xs2:1,2")).payload
    text = benchmark(cli._dump, payload)
    assert len(json.loads(text)["points"]) == 16
