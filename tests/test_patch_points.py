"""Names the benchmark's layer trace patches without a hasattr guard.

`perfbench/tracing.py` wraps these attributes to count and time calls; a
missing one breaks `perfbench/run.py --trace 1`. The list is written out
here, and the benchmark is not imported: a change that deletes or renames
one of them must re-point the trace first.
"""
import importlib

import pytest

PATCH_POINTS = [
    ("curv4.chart", "central_diff"),
    ("curv4.frames", "central_diff"),
    ("curv4.chart", "CurvatureField.at"),
    ("curv4.chart", "christoffel"),
    ("curv4.cli", "parallel_map"),
    ("curv4.chart", "parallel_map"),
    ("curv4.chart", "curvature_symmetrize"),
    ("curv4.chart", "ricci_contract"),
    ("curv4.chart", "weyl_from_curv"),
    ("curv4.frames", "frame_components"),
    ("curv4.frames", "sd_split"),
    ("curv4.variety", "least_squares"),
]


@pytest.mark.parametrize("module, path", PATCH_POINTS)
def test_patch_point_resolves(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
