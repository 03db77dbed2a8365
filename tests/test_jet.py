"""Curvature entries from the metric jet against the nested-difference path."""
import numpy as np
import pytest

import curv4
from curv4.chart import MetricChart, christoffel, curvature_at, sample_points
from curv4.errors import Curv4Error, DomainError
from curv4.numerics import DEFAULT_STENCIL, StencilConfig, central_diff, metric_jet
from curv4.tensor4 import curvature_symmetrize

REGISTRY_NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0"]


@pytest.fixture(scope="module")
def registry_charts():
    return {name: curv4.build_example(name) for name in REGISTRY_NAMES}


def without_jet(chart):
    """The same metric as a hand-built chart, whose jet comes from the stencil."""
    return MetricChart(
        name=f"{chart.name}-fd", box=chart.box, eval_fn=chart.eval_fn, batched=True
    )


def nested_riemann(chart, x, cfg=DEFAULT_STENCIL):
    """R_ijkl the way curvature entries were assembled before the jet:
    central differences of the Christoffels, each from central differences
    of the metric."""
    g = chart.eval(x)
    gamma = christoffel(chart, x, cfg)
    dgamma = np.stack(
        [central_diff(lambda y: christoffel(chart, y, cfg), x, d, cfg) for d in range(4)]
    )
    rm = (
        np.einsum("jmik->mijk", dgamma)
        - np.einsum("imjk->mijk", dgamma)
        + np.einsum("pik,mjp->mijk", gamma, gamma)
        - np.einsum("pjk,mip->mijk", gamma, gamma)
    )
    return curvature_symmetrize(np.einsum("lm,mijk->ijkl", g, rm)).R, gamma


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_jet_matches_nested_differences(registry_charts, name):
    chart = registry_charts[name]
    for x in sample_points(chart, count=3, seed=5):
        ref, gamma = nested_riemann(chart, x)
        entry = curvature_at(chart, x)
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert np.max(np.abs(entry.riem.R - ref)) <= 1e-8 * scale
        assert np.max(np.abs(entry.gamma - gamma)) <= 1e-10


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_eval_batch_matches_pointwise(registry_charts, name):
    chart = registry_charts[name]
    assert chart.batched
    pts = sample_points(chart, count=32, seed=2)
    batch = chart.eval_batch(pts)
    stacked = np.stack([chart.eval(x) for x in pts])
    assert batch.shape == (32, 4, 4)
    assert np.max(np.abs(batch - stacked)) <= 1e-14 * np.max(np.abs(stacked))


def test_unbatched_chart_evaluates_row_by_row():
    calls = []

    def eval_fn(x):
        calls.append(np.shape(x))
        return np.diag([1.0, 1.0 + x[0] ** 2, 1.0, 1.0])

    chart = MetricChart(name="rows", box=np.array([[-1.0, 1.0]] * 4), eval_fn=eval_fn)
    calls.clear()
    pts = np.array([[0.1, 0, 0, 0], [0.5, 0, 0, 0]])
    G = chart.eval_batch(pts)
    assert calls == [(4,), (4,)]
    assert G[1, 1, 1] == pytest.approx(1.25)
    with pytest.raises(DomainError):
        chart.eval_batch(np.array([[2.0, 0, 0, 0]]))


def test_batched_chart_that_does_not_broadcast_is_rejected():
    # declares batched, but collapses a stack of points to one metric
    def eval_fn(x):
        return (1.0 + 0.01 * float(np.sum(x))) * np.eye(4)

    with pytest.raises(Curv4Error):
        MetricChart(name="bad", box=np.array([[-1.0, 1.0]] * 4), eval_fn=eval_fn, batched=True)


def test_entry_guard_covers_the_nested_footprint(registry_charts):
    chart = without_jet(registry_charts["s4"])
    cfg = DEFAULT_STENCIL
    reach = cfg.reach * cfg.step
    # between one and two stencil reaches from the lower edge of axis 0
    x = np.zeros(4)
    x[0] = chart.box[0, 0] + 1.5 * reach
    christoffel(chart, x, cfg)  # a single stencil still fits
    with pytest.raises(DomainError):
        curvature_at(chart, x, cfg)
    x[0] = chart.box[0, 0] + 2.5 * reach
    assert curvature_at(chart, x, cfg).riem.norm > 0.0


@pytest.mark.parametrize("order, points", [(2, 41), (4, 129), (6, 265)])
def test_one_batched_evaluation_per_entry(order, points):
    chart = without_jet(curv4.build_example("s2xs2:1,2"))
    shapes = []
    inner = chart.eval_fn

    def recording(x):
        shapes.append(np.shape(x))
        return inner(x)

    chart.eval_fn = recording
    x = sample_points(chart, count=1, seed=17)[0]
    curvature_at(chart, x, StencilConfig(order=order))
    assert shapes == [(points, 4)]


def test_metric_jet_exact_on_quadratics():
    # central stencils differentiate quadratics exactly up to roundoff
    A = np.array(
        [[1.0, 0.5, 0.0, -0.2], [0.5, 2.0, 0.3, 0.0], [0.0, 0.3, -1.0, 0.1], [-0.2, 0.0, 0.1, 0.5]]
    )
    b = np.array([0.3, -0.1, 0.7, 0.2])

    def f(X):
        return np.einsum("ni,ij,nj->n", X, A, X) + X @ b

    x = np.array([0.2, -0.4, 0.1, 0.3])
    value, d1, d2 = metric_jet(f, x)
    assert value == pytest.approx(f(x[None])[0], abs=1e-14)
    assert np.allclose(d1, 2.0 * A @ x + b, atol=1e-9)
    assert np.allclose(d2, 2.0 * A, atol=1e-8)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_exact_jet_matches_third_order_stencil(registry_charts, name):
    # the exact jet against the finite-difference fallback on the same
    # metric: R to 1e-8 and nabla Ric to 1e-6 of the curvature scale, the
    # nested stencil's roundoff (1e-16 / step^2) differenced at third_step
    chart = registry_charts[name]
    fallback = without_jet(chart)
    for x in sample_points(chart, count=2, seed=11):
        exact = curvature_at(chart, x, degree=3)
        fd = curvature_at(fallback, x, degree=3)
        scale = max(1.0, exact.riem.norm)
        assert np.max(np.abs(exact.riem.R - fd.riem.R)) <= 1e-8 * scale
        assert np.max(np.abs(exact.nabla_ric - fd.nabla_ric)) <= 1e-6 * scale


def test_exact_jet_entry_needs_no_stencil_room(registry_charts):
    # an exact jet reads the metric at x alone: entries reach the box edge
    chart = registry_charts["s4"]
    x = chart.box[:, 0].copy()
    assert curvature_at(chart, x).s == pytest.approx(12.0, abs=1e-12)
    with pytest.raises(DomainError):
        curvature_at(chart, x - 1e-6)
