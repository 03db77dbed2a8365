"""Curvature entries from the exact metric jet against difference references:
nested central differences of the metric, and Richardson-extrapolated
central differences of lower-degree curvature batches."""
import numpy as np
import pytest

import curv4
from curv4.chart import (
    MetricChart,
    christoffel,
    curvature_at,
    curvature_batch,
    curvature_jets,
    sample_points,
)
from curv4.errors import Curv4Error, DomainError
from curv4.numerics import DEFAULT_STENCIL, Jet, central_diff
from curv4.tensor4 import PAIR_INDICES, curvature_symmetrize, curvature_tensor, tensor_norm

REGISTRY_NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0"]


@pytest.fixture(scope="module")
def registry_charts():
    return {name: curv4.build_example(name) for name in REGISTRY_NAMES}


def richardson(field, X, h=5e-4):
    """First partials [p] = d_p field at stacked points X (N, 4), field a
    function of stacked points: central differences at steps h and h / 2,
    Richardson-extrapolated."""
    steps = np.eye(4)[:, None, :]

    def central(h):
        plus, minus = (field((X + sign * h * steps).reshape(-1, 4)) for sign in (1.0, -1.0))
        return ((plus - minus) / (2.0 * h)).reshape((4, len(X)) + plus.shape[1:])

    return (4.0 * central(h / 2) - central(h)) / 3.0


def nested_riemann(chart, x, cfg=DEFAULT_STENCIL):
    """R on the pairs the way curvature entries were assembled before the
    jet: central differences of the Christoffels, each from central
    differences of the metric, antisymmetrized in (k, l) and projected."""
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
    raw = np.einsum("lm,mijk->ijkl", g, rm)
    raw = 0.5 * (raw - np.einsum("ijlk->ijkl", raw))
    i, j = PAIR_INDICES[:, :, None]
    k, l = PAIR_INDICES[:, None, :]
    return curvature_symmetrize(raw[i, j, k, l]), gamma


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_jet_matches_nested_differences(registry_charts, name):
    chart = registry_charts[name]
    for x in sample_points(chart, count=3, seed=5):
        ref, gamma = nested_riemann(chart, x)
        entry = curvature_at(chart, x)
        scale = max(1.0, float(tensor_norm(ref)))
        assert np.max(np.abs(entry.R - ref)) <= 1e-8 * scale
        assert np.max(np.abs(entry.gamma - gamma)) <= 1e-10


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_eval_batch_matches_pointwise(registry_charts, name):
    # the formula on a batch of stacked points is the metric at each
    chart = registry_charts[name]
    pts = sample_points(chart, count=32, seed=2)
    batch = chart.eval_fn(pts)
    stacked = np.stack([chart.eval(x) for x in pts])
    assert batch.shape == (32, 4, 4)
    assert np.max(np.abs(batch - stacked)) <= 1e-14 * np.max(np.abs(stacked))


def test_batched_chart_that_does_not_broadcast_is_rejected():
    # collapses a stack of points to one metric
    def eval_fn(x):
        return (1.0 + 0.01 * float(np.sum(x))) * np.eye(4)

    with pytest.raises(Curv4Error):
        MetricChart(name="bad", box=np.array([[-1.0, 1.0]] * 4), eval_fn=eval_fn)


def test_entry_guard_covers_the_nested_footprint(registry_charts):
    # the nested reference differences christoffel, so its stencil reaches
    # twice as far as one christoffel call; chart.eval names the stencil
    # point that leaves the box, and the exact entry needs no room at all
    chart = registry_charts["s4"]
    cfg = DEFAULT_STENCIL
    reach = cfg.reach * cfg.step
    # between one and two stencil reaches from the lower edge of axis 0
    x = np.zeros(4)
    x[0] = chart.box[0, 0] + 1.5 * reach
    christoffel(chart, x, cfg)  # a single stencil still fits
    with pytest.raises(DomainError, match="outside"):
        nested_riemann(chart, x, cfg)
    exact = curvature_at(chart, x).R
    x[0] = chart.box[0, 0] + 2.5 * reach
    ref, _ = nested_riemann(chart, x, cfg)
    assert np.max(np.abs(curvature_at(chart, x).R - ref)) <= 1e-8 * max(1.0, tensor_norm(ref))
    assert np.linalg.norm(exact) > 0.0


def test_metric_jet_exact_on_quadratics():
    # truncated Taylor arithmetic differentiates quadratics exactly up to
    # roundoff
    A = np.array(
        [[1.0, 0.5, 0.0, -0.2], [0.5, 2.0, 0.3, 0.0], [0.0, 0.3, -1.0, 0.1], [-0.2, 0.0, 0.1, 0.5]]
    )
    b = np.array([0.3, -0.1, 0.7, 0.2])

    def f(X):
        # `@` of a jet takes matrices: sums are products with a column
        return (((X @ A) * X) @ np.ones((4, 1)) + X @ b[:, None])[..., 0]

    x = np.array([0.2, -0.4, 0.1, 0.3])
    value, d1, d2 = f(Jet.variables(x, 2)).derivatives()
    assert value == pytest.approx(f(x), abs=1e-14)
    assert np.allclose(d1, 2.0 * A @ x + b, atol=1e-9)
    assert np.allclose(d2, 2.0 * A, atol=1e-8)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_exact_jet_matches_third_order_stencil(registry_charts, name):
    # the degree-3 batch against difference references: R against the
    # nested differences of the metric to 1e-8 of the curvature scale, and
    # nabla Ric against d Ric, Richardson central differences of degree-2
    # batches, less the exact Gamma terms, to 1e-6
    chart = registry_charts[name]
    X = sample_points(chart, count=2, seed=11)
    exact = curvature_batch(chart, X, degree=3)
    d_ric = np.moveaxis(richardson(lambda Y: curvature_batch(chart, Y).ric, X), 0, 1)
    # nabla_q ric_ij = d_q ric_ij - Gamma^m_qi ric_mj - Gamma^m_qj ric_im
    gamma, ric = exact.gamma, exact.ric
    nabla_ric = (
        d_ric
        - np.einsum("nmqi,nmj->nqij", gamma, ric)
        - np.einsum("nmqj,nim->nqij", gamma, ric)
    )
    for n, x in enumerate(X):
        ref, _ = nested_riemann(chart, x)
        scale = max(1.0, tensor_norm(exact.R[n]))
        assert np.max(np.abs(exact.R[n] - ref)) <= 1e-8 * scale
        assert np.max(np.abs(exact.nabla_ric[n] - nabla_ric[n])) <= 1e-6 * scale


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_exact_jet_matches_fourth_order_stencil(registry_charts, name):
    # the first partials of the covariant derivatives in a degree-4 jet
    # against Richardson central differences (steps 1e-3 and 5e-4) of the
    # degree-3 batch, to 1e-4 of the curvature scale
    chart = registry_charts[name]
    X = sample_points(chart, count=2, seed=11)
    exact = curvature_jets(chart, X, 4)
    scale = max(1.0, float(np.max(np.abs(exact["R"][0]))))
    for key in ("nabla_riem", "nabla_ric", "ds"):
        ref = richardson(lambda Y: getattr(curvature_batch(chart, Y, degree=3), key), X, 1e-3)
        assert np.max(np.abs(exact[key][1:5] - ref)) <= 1e-4 * scale, key


def test_exact_jet_entry_needs_no_stencil_room(registry_charts):
    # an exact jet reads the metric at x alone: entries reach the box edge
    chart = registry_charts["s4"]
    x = chart.box[:, 0].copy()
    assert curvature_at(chart, x).s == pytest.approx(12.0, abs=1e-12)
    with pytest.raises(DomainError):
        curvature_at(chart, x - 1e-6)


@pytest.mark.parametrize("name", REGISTRY_NAMES + ["kpc:1,1.2,5"])
def test_degree_four_nabla_ric_jet_matches_richardson(registry_charts, name):
    # the same algebra at degree 4 carries nabla Ric as a jet of degree 1:
    # its value term is the degree-3 nabla_ric, and its first partials match
    # a Richardson central difference (steps h and h/2) of it to 1e-7
    chart = registry_charts.get(name) or curv4.build_example(name)
    X = sample_points(chart, count=4, seed=3)
    jets = curvature_jets(chart, X, 4)
    batch = curvature_batch(chart, X, degree=3)
    roundoff = 1e-13 * max(1.0, np.max(np.abs(batch.R)), np.max(np.abs(batch.nabla_ric)))
    for key in ("g_inv", "gamma", "R", "ric", "s", "nabla_riem", "nabla_ric", "ds"):
        assert np.max(np.abs(jets[key][0] - getattr(batch, key))) <= roundoff, key
    ref = richardson(lambda Y: curvature_batch(chart, Y, degree=3).nabla_ric, X)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(jets["nabla_ric"][1:5] - ref)) <= 1e-7 * scale


@pytest.mark.parametrize(
    "degree, counts",
    [
        (2, {"g": 15, "g_inv": 5, "gamma": 5, "R": 1, "ric": 1, "s": 1}),
        (3, {"g": 35, "g_inv": 5, "gamma": 5, "R": 5, "ric": 5, "s": 5,
             "nabla_riem": 1, "nabla_ric": 1, "ds": 1}),
        (4, {"g": 70, "g_inv": 15, "gamma": 15, "R": 15, "ric": 15, "s": 15,
             "nabla_riem": 5, "nabla_ric": 5, "ds": 5}),
    ],
)  # fmt: skip
def test_curvature_jets_coefficient_counts(registry_charts, degree, counts):
    # g to degree d, g^-1 and Gamma to max(1, d - 2), R, Ric and s to d - 2,
    # the covariant derivatives to d - 3; R and nabla R on the six pairs
    X = sample_points(registry_charts["s2xs2:1,2"], count=3, seed=0)
    jets = curvature_jets(registry_charts["s2xs2:1,2"], X, degree)
    assert {key: len(jet) for key, jet in jets.items()} == counts
    assert jets["R"].shape[1:] == (3, 6, 6)
    if degree >= 3:
        assert jets["nabla_riem"].shape[1:] == (3, 4, 6, 6)
