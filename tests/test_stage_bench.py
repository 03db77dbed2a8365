"""Stage timings of one verified point, as pytest-benchmark cases.

The test run takes each case once (`--benchmark-disable` in pyproject's
addopts), so they check only that every stage runs. For the timings:

    pytest tests/test_stage_bench.py --benchmark-enable

prints per-stage statistics: chart validation, one scrambled Halton draw,
the three harmonicity residual norms of a one-point batch, extract_frame
on an adapted (s2xs2) and an eigen (bump) frame, skw_residuals,
structure_data, the stacked harmonicity pass of a 3x3 s2xs2 scan at
one sample per cell (nine reports from one curvature batch), the frames
of those nine cells as one stack with their skw rows and invariants, and
the stacked frames of a 16-sample verify with theirs. A stack keeps the
W and nabla W it makes, so the frame stages time every round after the
first without them, as a scan's or verify's frame pass reads the nabla W
its harmonicity pass made.
"""

import numpy as np
import pytest

import curv4
import curv4.chart as chart_module
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
    assert frame.source == ("adapted" if chart.adapted_frame_fn else "eigen")


def test_stage_skw_residuals(benchmark, one_point):
    chart, x, batch = one_point
    rows = benchmark(skw_residuals, extract_frame(chart, x, batch[0]))
    assert set(rows) == {"skw.a", "skw.b", "skw.c", "skw.d", "skw.e", "skw.f"}


def test_stage_structure_data(benchmark, one_point):
    chart, x, batch = one_point
    frame = extract_frame(chart, x, batch[0])
    sd = benchmark(structure_data, chart, frame)
    assert sd.DF.shape == (4, 4, 4)


def test_stage_stacked_harmonicity(benchmark):
    charts = [curv4.build_example(f"s2xs2:{k1},{k2}") for k1 in (1, 2, 3) for k2 in (1, 2, 3)]
    reports = benchmark(chart_module.harmonicity_reports, charts, count=1, seed=3)
    assert [len(r.points) for r in reports] == [1] * 9


def test_stage_stacked_scan_frames(benchmark):
    # the frames of the nine one-sample cells of a 3x3 s2xs2 scan, made in
    # one pass over their stacked harmonicity batch, each point on its chart
    charts = [curv4.build_example(f"s2xs2:{k1},{k2}") for k1 in (1, 2, 3) for k2 in (1, 2, 3)]
    stack = chart_module.harmonicity_reports(charts, count=1, seed=3)[0].stack

    def frame_stage():
        frames = extract_frames(charts, stack)
        return frames, skw_residuals(frames), frame_invariants(frames)

    frames, rows, counts = benchmark(frame_stage)
    assert frames.framed.all() and rows["skw.a"].shape == counts["r"].shape == (9,)


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
