"""Coordinate invariance: every registry chart pulled back by an affine map.

x = c + A y with a non-orthogonal A turns the chart's metric into
g~(y) = A^T g(c + A y) A, which is off-diagonal even where g is diagonal.
The pulled-back chart's formula composes the chart's formula with the affine
map, written with operations that jets support, so its jet is exact and
nothing is differenced. Scalars of the geometry (s, |Ric|_g, |W|_g and the
harmonicity residuals, all metric norms) do not depend on coordinates: they
must agree at mapped points, and the harmonicity verdict must not change.
Nor do the counts r, w and w_minus, the numbers of distinct eigenvalues of
Ricci and of the W+ and W- blocks (the map keeps the orientation).
Both sides run the same curvature algebra on metrics that differ by the
change of coordinates, so an index or sign slip that diagonal metrics hide
shows here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curv4
from curv4.chart import _RESIDUALS, curvature_batch, harmonicity_report, metric_norm
from curv4.frames import extract_frames, frame_invariants
from curv4.tensor4 import curvature_tensor
from tests.conftest import pulled_back

NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "kpc:1,1.2,5", "bump:0.1", "randflat:0"]


@pytest.fixture(scope="module")
def registry():
    """Each chart with its harmonicity verdict in its own coordinates."""
    charts = {name: curv4.build_example(name) for name in NAMES}
    return {name: (chart, harmonicity_report(chart).harmonic) for name, chart in charts.items()}


def invariants(batch):
    """s, |Ric|_g, |W|_g per point of a degree-3 batch."""
    weyl = curvature_tensor(batch.weyl)
    return {
        "s": batch.s,
        "|ric|": np.array([metric_norm(r, gi) for r, gi in zip(batch.ric, batch.g_inv)]),
        "|W|": np.array([metric_norm(w, gi) for w, gi in zip(weyl, batch.g_inv)]),
    }


off_diagonal = st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12)
shift = st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(off=off_diagonal, scale=st.floats(0.5, 1.5), move=shift)
def test_pullback_keeps_scalars_and_verdict(registry, name, off, scale, move):
    chart, harmonic = registry[name]
    # unit diagonal and off-diagonal entries of at most 0.3: diagonally
    # dominant, so invertible with a positive determinant, and never
    # orthogonal
    A = np.eye(4)
    A[~np.eye(4, dtype=bool)] = off
    A *= scale
    mid, half = chart.box.mean(axis=1), 0.5 * np.diff(chart.box, axis=1)[:, 0]
    c = mid + np.array(move) * half
    pulled = pulled_back(chart, c, A)
    rep = harmonicity_report(pulled, count=4, seed=0)
    base = curvature_batch(chart, c + rep.points @ A.T, degree=3)
    # roundoff grows with the size of the curvature and its derivatives
    # (|nabla Ric| reaches about 490 on kpc:1,1.2,5)
    atol = 1e-11 * max(1.0, np.max(np.abs(base.R)), np.max(np.abs(base.nabla_ric)))
    ours, theirs = invariants(rep.batch), invariants(base)
    for key in ours:
        np.testing.assert_allclose(ours[key], theirs[key], rtol=0, atol=atol, err_msg=key)
    for key, residual in _RESIDUALS.items():
        got = [row[key] for row in rep.rows]
        np.testing.assert_allclose(got, residual(base), rtol=0, atol=atol, err_msg=key)
    assert rep.harmonic == harmonic
    counts = frame_invariants(extract_frames(pulled, rep.batch))
    base_counts = frame_invariants(extract_frames(chart, base))
    for key in ("r", "w", "w_minus"):
        assert np.array_equal(counts[key], base_counts[key]), key
