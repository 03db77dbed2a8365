"""Shared fixtures: charts and frames are expensive, so build once per session."""
import os
from pathlib import Path

import numpy as np
import pytest

import curv4
from curv4.chart import MetricChart, curvature_batch
from curv4.frames import extract_frame, extract_frames, fold_invariants, frame_invariants
from curv4.tensor4 import bivector_frame, curvature_tensor, frame_components

# the CLI tests start fresh interpreters: they import the package from the
# same src/ that pyproject's `pythonpath` puts on this process's path
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def s4_chart():
    return curv4.build_example("s4")


@pytest.fixture(scope="session")
def s2xs2_chart():
    return curv4.build_example("s2xs2:1,2")


@pytest.fixture(scope="session")
def rxs3_chart():
    return curv4.build_example("rxs3:1")


@pytest.fixture(scope="session")
def bump_chart():
    return curv4.build_example("bump:0.1")


@pytest.fixture(scope="session")
def kpc_profile():
    return curv4.solve_kpc_profile(1.0, 1.2, 0.5)


@pytest.fixture(scope="session")
def kpc_chart():
    return curv4.build_example("kpc")


@pytest.fixture(scope="session")
def s2xs2_frames(s2xs2_chart):
    pts = curv4.sample_points(s2xs2_chart, count=4, seed=0)
    return [extract_frame(s2xs2_chart, x) for x in pts]


@pytest.fixture(scope="session")
def kpc_frames(kpc_chart):
    pts = curv4.sample_points(kpc_chart, count=4, seed=0)
    return [extract_frame(kpc_chart, x) for x in pts]


@pytest.fixture(scope="session")
def randflat_charts():
    return curv4.build_examples("randflat", [{"seed": seed} for seed in range(5)])


def sample_counts(chart, X):
    """The summary counts of chart's points X, as a report folds them: the
    frames of one stacked pass, r, w and w_minus folded over every point and
    zeta over the framed ones (frames.fold_invariants)."""
    frames = extract_frames(chart, curvature_batch(chart, np.asarray(X), degree=3))
    invariants = frame_invariants(frames)
    invariants["zeta"] = invariants["zeta"][frames.framed]
    return fold_invariants(invariants, degenerate_points=int(np.sum(~frames.framed)))


def ric_eigenvalues(entry):
    """Eigenvalues of Ric as an endomorphism (g^-1 Ric), ascending."""
    vals = np.linalg.eigvals(entry.g_inv @ entry.ric)
    return np.sort(vals.real)


def frame_tensor(M, E):
    """The 4-index components T[a, b, c, d] = R(e_a, e_b, e_c, e_d) of pair
    operators M in the frame whose vectors are the columns of E."""
    return curvature_tensor(frame_components(M, bivector_frame(E)))


def diagonal(x, *entries):
    """The metric diag(entries) at stacked points x (..., 4), for test charts
    written as formulas: each entry is a number or a field of x (an array,
    or a numerics.Jet on the coordinate jets). np.diag of jet entries is no
    jet, so the matrix is a sum of each entry times its unit diagonal."""
    zero = 0.0 * x[..., 0]
    return sum((zero + e)[..., None, None] * np.diag(unit) for e, unit in zip(entries, np.eye(4)))


def pulled_back(chart, c, A, name=None):
    """The chart in coordinates y with x = c + A y, g~(y) = A^T g(c + A y) A,
    on the largest cube around y = 0 that A maps into the chart's box. Its
    formula composes the chart's with the affine map: `@` contracts a jet's
    last axis, so A^T (g A) is the sum over a of the outer products of A's
    row a with row a of g A, and the pulled-back jet is exact."""
    formula = chart.eval_fn

    def eval_fn(y):
        gA = formula(y @ A.T + c) @ A
        return sum(A[a][:, None] * gA[..., a, None, :] for a in range(4))

    room = np.minimum(c - chart.box[:, 0], chart.box[:, 1] - c)
    width = np.min(room / np.abs(A).sum(axis=1))
    box = np.array([[-width, width]] * 4)
    return MetricChart(name=name or f"{chart.name}-affine", box=box, eval_fn=eval_fn)
