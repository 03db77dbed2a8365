"""Closed-form frame derivatives against a per-point finite-difference reference.

The reference below builds the frame field one stencil point at a time: a
curvature entry and a frame per point (with the W rotation inside pair
clusters at every point), aligned to the center frame, then nested
`central_diff` calls for dE, D sigma and DF. Its first-derivative level is
taken at two steps and Richardson-extrapolated, (16 ref_h - ref_2h) / 15, so
that the order-4 truncation error it carries (up to 9e-9 on randflat at the
default step) does not hide in the comparison; DF's outer level is
extrapolated the same way in its step, third_step and third_step / 2, since
structure_data's DF is exact.
"""
import contextlib
import dataclasses
import io
import itertools
import json

import numpy as np
import pytest

import curv4
import curv4.cli
from curv4.chart import (
    MetricChart,
    curvature_at,
    curvature_batch,
    sample_points,
    stacked_curvature_batch,
)
from curv4.errors import DegenerateFrameError, DomainError, InputError
from curv4.frames import (
    extract_frame,
    extract_frames,
    frame_invariants,
    skw_residuals,
    structure_data,
)
from curv4.numerics import DEFAULT_STENCIL, Jet, StencilConfig, central_diff
from curv4.tensor4 import frame_components

REGISTRY_NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0"]
# closed-form and reference values agree to this, relative to max(1, |reference|)
RTOL = 1e-9
# the reference's first-derivative level at twice the default step, and its
# outer level of DF at half the default third_step
DOUBLE_STEP = StencilConfig(step=2 * DEFAULT_STENCIL.step, third_step=DEFAULT_STENCIL.third_step)
HALF_THIRD = StencilConfig(third_step=DEFAULT_STENCIL.third_step / 2)
HALF_THIRD_DOUBLE_STEP = StencilConfig(
    step=2 * DEFAULT_STENCIL.step, third_step=DEFAULT_STENCIL.third_step / 2
)


@pytest.fixture(scope="module")
def registry_charts():
    return {name: curv4.build_example(name) for name in REGISTRY_NAMES}


def without_jet(chart):
    return MetricChart(
        name=f"{chart.name}-fd", box=chart.box, eval_fn=chart.eval_fn, batched=True
    )


def eigen_only(chart):
    """The chart without its adapted frame: frames take the eigen path."""
    return dataclasses.replace(chart, adapted_frame_fn=None)


def ref_eigenframe(entry):
    # inside a cluster the basis eigh returns is arbitrary, and the center's
    # is kept: symmetrize and scale exactly as frames.py does, so that the
    # center's basis comes out bit for bit the same
    g = entry.g
    b = entry.ric - entry.s * g / 4.0
    w, V = np.linalg.eigh(0.5 * (g + g.T))
    s_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    A = s_inv @ b @ s_inv
    _, U = np.linalg.eigh(0.5 * (A + A.T))
    # sign fix before any rotation: the first largest component positive
    for a in range(4):
        if U[np.argmax(np.abs(U[:, a])), a] < 0.0:
            U[:, a] = -U[:, a]
    return s_inv @ U


def ref_clusters(lam):
    # the lambda clusters as index lists, sorted values split at gaps above
    # frames.py's threshold, walked one neighbour at a time
    order = np.argsort(lam, kind="stable")
    gap = max(curv4.frames.CLUSTER_ATOL, curv4.frames.CLUSTER_RTOL * (lam.max() - lam.min()))
    clusters = [[int(order[0])]]
    for a, b in zip(order[:-1], order[1:]):
        if lam[b] - lam[a] > gap:
            clusters.append([])
        clusters[-1].append(int(b))
    return clusters


def ref_pair_rotation(entry, E, clusters):
    E = E.copy()
    for cl in clusters:
        if len(cl) != 2:
            continue
        a, b = cl
        c = [k for k in range(4) if k not in cl][0]
        Wf = frame_components(entry.weyl, E)
        num, den = 2.0 * Wf[a, c, b, c], Wf[a, c, a, c] - Wf[b, c, b, c]
        if abs(num) < 1e-14 and abs(den) < 1e-14:
            continue
        t = 0.5 * np.arctan2(num, den)
        R = np.eye(4)
        R[a, a] = R[b, b] = np.cos(t)
        R[a, b], R[b, a] = -np.sin(t), np.sin(t)
        E = E @ R
    return E


def ref_align(E, E_ref, g_ref, clusters, rotate):
    overlap = E.T @ g_ref @ E_ref
    perm, used = [], set()
    for b in range(4):
        a = max((a for a in range(4) if a not in used), key=lambda a: abs(overlap[a, b]))
        perm.append(a)
        used.add(a)
    E = E[:, perm]
    out = E.copy()
    for cl in clusters:
        if len(cl) > 1 and rotate:
            U, _, Vt = np.linalg.svd(E[:, cl].T @ g_ref @ E_ref[:, cl])
            out[:, cl] = E[:, cl] @ U @ Vt
        else:
            for a in cl:
                if E[:, a] @ g_ref @ E_ref[:, a] < 0.0:
                    out[:, a] = -E[:, a]
    return out


def ref_center(chart, x):
    """(E, lam, sigma, source, clusters) at x, or DegenerateFrameError."""
    e = curvature_at(chart, x)
    g = e.g
    b = e.ric - e.s * g / 4.0
    b_norm = np.sqrt(np.einsum("ij,kl,ik,jl->", b, b, e.g_inv, e.g_inv))
    einstein = b_norm <= 1e-8 * max(1.0, abs(e.s))
    flat_w = np.linalg.norm(e.weyl) <= 1e-8 * max(1.0, np.linalg.norm(e.R))
    if einstein and flat_w:
        raise DegenerateFrameError("Einstein and W = 0")
    if chart.adapted_frame_fn is not None:
        E = np.asarray(chart.adapted_frame_fn(x), dtype=float)
        E = E / np.sqrt(np.einsum("ma,mn,na->a", E, g, E))
        lam = np.diag(E.T @ b @ E)
        E = E[:, np.argsort(np.round(lam, 9), kind="stable")]
        source = "adapted"
    else:
        if einstein:
            raise DegenerateFrameError("Einstein without an adapted frame")
        E, source = ref_eigenframe(e), "eigen"
    lam = np.diag(E.T @ b @ E)
    clusters = ref_clusters(lam)
    if source == "eigen" and not flat_w:
        E = ref_pair_rotation(e, E, clusters)
    for a in range(4):
        if E[np.argmax(np.abs(E[:, a])), a] < 0.0:
            E[:, a] = -E[:, a]
    if np.linalg.det(E) < 0.0:
        E[:, 3] = -E[:, 3]
    Wf = frame_components(e.weyl, E)
    sigma = np.array([[Wf[i, j, i, j] if i != j else 0.0 for j in range(4)] for i in range(4)])
    return E, np.diag(E.T @ b @ E), sigma, source, clusters


def reference(chart, x, cfg=DEFAULT_STENCIL, df_only=False):
    """Every frame quantity the closed form computes (DF alone with
    df_only), one point at a time, with central differences on cfg; the
    curvature entries come from the chart's exact jet."""
    E, lam, sigma, source, clusters = ref_center(chart, x)
    entry = curvature_at(chart, x)
    g = entry.g

    def field(y):
        if source == "adapted":
            Ey = np.asarray(chart.adapted_frame_fn(y), dtype=float)
            gy = chart.eval(y)
            Ey = Ey / np.sqrt(np.einsum("ma,mn,na->a", Ey, gy, Ey))
        else:
            ey = curvature_at(chart, y)
            Ey = ref_pair_rotation(ey, ref_eigenframe(ey), clusters)
        return ref_align(Ey, E, g, clusters, source == "eigen")

    def brackets(Ey, dEy, gy):
        F = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                if a != b:
                    vec = Ey[:, a] @ dEy[:, :, b] - Ey[:, b] @ dEy[:, :, a]
                    F[b, a] = vec @ gy @ Ey[:, a]
        return F

    def sigma_at(y):
        Wf = frame_components(curvature_at(chart, y).weyl, field(y))
        return np.array([[Wf[i, j, i, j] if i != j else 0.0 for j in range(4)] for i in range(4)])

    def f_at(y):
        dEy = np.stack([central_diff(field, y, d, cfg) for d in range(4)])
        return brackets(field(y), dEy, chart.eval(y))

    dF = np.stack([central_diff(f_at, x, d, cfg, step=cfg.third_step) for d in range(4)])
    out = {"DF": np.einsum("ma,mbc->abc", E, dF), "source": source}
    if df_only:
        return out
    dE = np.stack([central_diff(field, x, d, cfg) for d in range(4)])
    directional = np.einsum("ma,mnb->abn", E, dE)
    correction = np.einsum("nmr,ma,rb->abn", entry.gamma, E, E)
    gamma = np.einsum("abn,nm,mk->abk", directional + correction, g, E)
    dsig = np.stack([central_diff(sigma_at, x, d, cfg) for d in range(4)])
    return {
        **out,
        "E": E,
        "lam": lam,
        "sigma": sigma,
        "F": brackets(E, dE, g),
        "gamma": gamma,
        "dsig": np.einsum("ma,mbc->abc", E, dsig),
    }


def richardson(fine, coarse):
    # order-4 truncation removed: the step of `coarse` is twice that of `fine`
    return (16.0 * fine - coarse) / 15.0


def extrapolated_reference(chart, x):
    """The reference with its first-derivative level extrapolated in the
    step, and DF's outer level in third_step as well."""
    ref_h = reference(chart, x)
    ref_2h = reference(chart, x, DOUBLE_STEP)
    out = dict(ref_h)
    for key in ("F", "gamma", "dsig", "DF"):
        out[key] = richardson(ref_h[key], ref_2h[key])
    half = richardson(
        reference(chart, x, HALF_THIRD, df_only=True)["DF"],
        reference(chart, x, HALF_THIRD_DOUBLE_STEP, df_only=True)["DF"],
    )
    out["DF"] = richardson(half, out["DF"])
    return out


def closed_form(chart, x):
    fr = extract_frame(chart, x)
    sd = structure_data(chart, fr)
    return {
        "E": fr.E,
        "lam": fr.lam,
        "sigma": fr.sigma,
        "F": fr.F,
        "gamma": fr.gamma,
        "dsig": fr.dsig,
        "DF": sd.DF,
        "source": fr.source,
    }


def assert_matches(got, ref, rtol=None, keys=("E", "lam", "sigma", "F", "gamma", "dsig", "DF")):
    assert got["source"] == ref["source"]
    for key in keys:
        scale = max(1.0, float(np.max(np.abs(ref[key]))))
        tol = RTOL if rtol is None else rtol[key]
        assert np.max(np.abs(got[key] - ref[key])) <= tol * scale, key


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_batched_frames_match_per_point_reference(registry_charts, name):
    chart = registry_charts[name]
    x = sample_points(chart, count=1, seed=5)[0]
    if name in ("s4", "h4"):
        with pytest.raises(DegenerateFrameError):
            reference(chart, x)
        with pytest.raises(DegenerateFrameError):
            extract_frame(chart, x)
        return
    assert_matches(closed_form(chart, x), extrapolated_reference(chart, x))


@pytest.mark.parametrize("name", ["s2xs2:1,2", "kpc"])
def test_batched_eigen_path_with_pair_clusters(registry_charts, name):
    # the eigen path on charts with 2-point Ricci clusters and W != 0: the
    # reference rotates inside the clusters at every stencil point, the
    # closed form takes the in-cluster blocks from the alignment's gauge
    chart = eigen_only(registry_charts[name])
    x = sample_points(chart, count=1, seed=6)[0]
    got = closed_form(chart, x)
    assert got["source"] == "eigen"
    assert_matches(got, extrapolated_reference(chart, x))


def assert_same_frame(a, b):
    # every field of two point frames, bit for bit
    assert vars(a).keys() == vars(b).keys()
    for key, value in vars(a).items():
        other = getattr(b, key)
        if key == "diagnostics":
            assert value.keys() == other.keys()
            assert all(np.array_equal(value[k], other[k]) for k in value), key
        else:
            assert np.array_equal(value, other), key


def test_stacked_frames_with_mixed_cluster_patterns(registry_charts):
    # one stack whose points differ in cluster pattern, all on the eigen
    # path: two pair clusters on s2xs2, one on kpc, none on randflat, so the
    # rotation's masked steps run on some points and pairs and skip others,
    # and s4's points have no frame. extract_frames reads a chart only for
    # its adapted frame and its name, so one eigen-only chart serves the
    # stack; each framed point equals its own chart's one-point frame, bit
    # for bit, and each s4 point raises as it does alone
    names = ("s2xs2:1,2", "kpc", "randflat:0", "s4")
    charts = [eigen_only(registry_charts[n]) for n in names]
    parts = [(chart, sample_points(chart, count=3, seed=0)) for chart in charts]
    batch = curv4.chart.stacked_curvature_batch(parts, degree=3)
    frames = extract_frames(charts[0], batch)
    assert frames.framed.tolist() == [True] * 9 + [False] * 3 and frames.source == "eigen"
    patterns = [sorted(np.bincount(c).tolist()) for c in frames.clusters[:9]]
    assert patterns == [[2, 2]] * 3 + [[1, 1, 2]] * 3 + [[1, 1, 1, 1]] * 3
    points = [(chart, x) for chart, X in parts for x in X]
    for n, (chart, x) in enumerate(points[:9]):
        assert_same_frame(frames[n], extract_frame(chart, x))
    for n, (chart, x) in enumerate(points[9:], start=9):
        with pytest.raises(DegenerateFrameError, match="Ricci is a multiple of g and W = 0"):
            frames[n]
    # the stack's skw rows and invariants are those of its framed points
    rows, counts = skw_residuals(frames), frame_invariants(frames)
    for n in range(9):
        assert {k: v[n] for k, v in rows.items()} == skw_residuals(frames[n])
        assert {k: v[n] for k, v in counts.items()} == frame_invariants(frames[n])


def test_stacked_pair_rotation_matches_one_point_at_a_time():
    # the registry's pair clusters are W-isotropic, so their Jacobi angle is
    # 0; on random Weyl tensors and frames the masked steps over (0, 1),
    # (1, 2), (2, 3) turn, and each frame equals the one-point loop over its
    # clusters in ascending order, each angle read in the frame the turns
    # before it left, bit for bit
    rng = np.random.default_rng(11)
    patterns = [(1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    rotate = np.array(patterns * 2, dtype=bool)
    g = np.eye(4)
    R = curv4.curvature_symmetrize(rng.normal(size=(len(rotate), 4, 4, 4, 4)))
    ric, s = curv4.ricci_contract(R, g)
    W = curv4.weyl_from_curv(g, R, ric, s)
    E = np.linalg.qr(rng.normal(size=(len(rotate), 4, 4)))[0]
    got = curv4.frames._pair_cluster_rotation(W, E, rotate)
    for n, marks in enumerate(rotate):
        ref = E[n].copy()
        for a in np.flatnonzero(marks):
            b, c = a + 1, 2 if a == 0 else 0
            Wf = frame_components(W[n], ref)
            t = 0.5 * np.arctan2(2.0 * Wf[a, c, b, c], Wf[a, c, a, c] - Wf[b, c, b, c])
            turn = np.eye(4)
            turn[a, a] = turn[b, b] = np.cos(t)
            turn[a, b], turn[b, a] = -np.sin(t), np.sin(t)
            ref = ref @ turn
        assert np.array_equal(got[n], ref)
        assert np.array_equal(got[n], E[n]) == (not marks.any())


def test_stacked_degenerate_points_carry_their_status():
    # s4's points are Einstein and conformally flat: the stack frames none
    # of them, and each point raises the error extract_frame raises there
    chart = curv4.build_example("s4")
    X = sample_points(chart, count=3, seed=0)
    frames = extract_frames(chart, curvature_batch(chart, X, degree=3))
    assert not frames.framed.any()
    for n, x in enumerate(X):
        with pytest.raises(DegenerateFrameError) as stacked:
            frames[n]
        with pytest.raises(DegenerateFrameError) as alone:
            extract_frame(chart, x)
        assert str(stacked.value) == str(alone.value) == frames.status[n]
        assert "Ricci is a multiple of g and W = 0" in frames.status[n]


def framed_stack(charts, count=2, seed=1):
    """Each chart's `count` sample points stacked in one third-order batch,
    framed in one pass on the chart of each point; and the (chart, X) parts."""
    parts = [(chart, sample_points(chart, count=count, seed=seed)) for chart in charts]
    at = [chart for chart, X in parts for _ in X]
    return extract_frames(at, stacked_curvature_batch(parts, degree=3)), parts


@pytest.mark.parametrize(
    "names",
    [
        ("s2xs2:1,2", "s2xs2:2,3", "s2xs2:3,0.5", "kpc", "rxs3"),
        ("bump:0.1", "randflat:0", "s4"),
    ],
)
def test_multi_chart_stack_equals_each_chart_alone(names):
    # a stack of adapted charts (s2xs2 cells, kpc, rxs3) and one of eigen
    # charts (bump, randflat, s4): each chart's slice of the stack's frames,
    # diagnostics, skw rows and invariants is its own extract_frames, bit
    # for bit; s4's points have no frame, and their status names s4
    charts = [curv4.build_example(name) for name in names]
    frames, parts = framed_stack(charts)
    rows, counts = skw_residuals(frames), frame_invariants(frames)
    lo = 0
    for chart, X in parts:
        part = slice(lo, lo + len(X))
        lo += len(X)
        alone = extract_frames(chart, curvature_batch(chart, X, degree=3))
        if chart.name == "s4":
            assert frames[part].status == alone.status and not alone.framed.any()
            assert all(f"chart '{chart.name}'" in why for why in alone.status)
            continue
        assert alone.framed.all() and frames.source == alone.source
        assert_same_frame(frames[part], alone)
        for key, value in skw_residuals(alone).items():
            assert np.array_equal(rows[key][part], value), key
        for key, value in frame_invariants(alone).items():
            assert np.array_equal(counts[key][part], value), key


def test_a_stack_that_mixes_frame_sources_is_rejected(registry_charts):
    charts = [registry_charts["s2xs2:1,2"], registry_charts["bump:0.1"]]
    with pytest.raises(InputError, match="adapted frame"):
        framed_stack(charts)
    batch = curvature_batch(charts[1], sample_points(charts[1], count=3), degree=3)
    with pytest.raises(InputError, match="2 charts for a stack of 3 points"):
        extract_frames(charts[1:] * 2, batch)


def test_frame_stack_slices(registry_charts):
    # a slice is the sub-stack, its statuses and diagnostics sliced too; an
    # integer index still raises at a point with no frame
    chart = registry_charts["s2xs2:1,2"]
    frames = extract_frames(chart, curvature_batch(chart, sample_points(chart, count=3), degree=3))
    head = frames[0:2]
    assert head.status == ("", "") and head.framed.all() and head.source == "adapted"
    for key, value in vars(head).items():
        if key == "diagnostics":
            assert all(np.array_equal(v, frames.diagnostics[k][0:2]) for k, v in value.items())
        elif key not in ("source", "status"):
            assert np.array_equal(value, getattr(frames, key)[0:2]), key
    assert_same_frame(head[1], frames[1])
    charts = [registry_charts[name] for name in ("bump:0.1", "s4")]
    frames, _ = framed_stack(charts)
    tail = frames[1:4]
    assert tail.status == frames.status[1:4] and tail.framed.tolist() == [True, False, False]
    assert_same_frame(tail[0], frames[1])
    with pytest.raises(DegenerateFrameError, match="chart 's4'"):
        tail[1]


def rotated_product_chart(with_jet):
    """S2(1) x S2(2) in coordinates turned by a fixed rotation: its Ricci
    eigenspaces are two planes that no coordinate axis lies in, so the
    eigensolver's basis inside each is arbitrary (set by roundoff or by the
    finite-difference noise) and only the alignment makes the field smooth.
    with_jet gives the chart the exact jet of the turned product."""
    product = curv4.build_example("s2xs2:1,2")
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))

    def eval_fn(x):
        g = product.eval_fn(x @ Q.T)
        return np.swapaxes(Q, 0, 1) @ g @ Q

    def jet_fn(x, degree):
        coef = product.eval_fn(Jet.variables(x, degree) @ Q.T).coef
        return np.einsum("ia,...ijn,jb->...abn", Q, coef, Q)

    return MetricChart(
        name="s2xs2-turned",
        box=np.array([[-0.25, 0.25]] * 4),
        eval_fn=eval_fn,
        batched=True,
        jet_fn=jet_fn if with_jet else None,
    )


def sheared_chart(name, eps=0.3):
    """s2xs2:1,2 or bump:0.1, whose metrics are diagonal, diag(d(u)), in the
    curved coordinates u = (x0, x1, x2 + eps x0^2, x3 + eps x1 x2), with an
    exact jet. Their Ricci eigenspaces turn against these coordinates from
    point to point, so the alignment to a center frame rotates inside the
    clusters: at the structure stencil's points the in-cluster rotation
    rate Omega reaches 1e-4 on the bump's 3-point cluster (3e-7 on the
    product's pairs), where it is 0 on every registry chart."""

    def formula(x):
        x0, x1, x2, x3 = (x[..., i] for i in range(4))
        u = (x0, x1, x2 + eps * x0 * x0, x3 + eps * x1 * x2)
        if name == "s2xs2:1,2":
            c1 = (1.0 + 0.25 * (u[0] * u[0] + u[1] * u[1])) ** -2.0
            c2 = (1.0 + 0.5 * (u[2] * u[2] + u[3] * u[3])) ** -2.0
            d = (c1, c1, c2, c2)
        else:
            d = (np.exp(0.2 * u[0] * u[0] * u[0]),) * 4
        # rows of du/dx, None for a zero entry; g = sum_m d_m du_m du_m^T
        rows = [
            (1.0, None, None, None),
            (None, 1.0, None, None),
            (2.0 * eps * x0, None, 1.0, None),
            (None, eps * x2, eps * x1, 1.0),
        ]
        g = 0.0
        for a, b in itertools.combinations_with_replacement(range(4), 2):
            unit = np.zeros((4, 4))
            unit[a, b] = unit[b, a] = 1.0
            for m in range(4):
                if rows[m][a] is not None and rows[m][b] is not None:
                    g = g + (d[m] * rows[m][a] * rows[m][b])[..., None, None] * unit
        return g

    return MetricChart(
        name=f"{name}-sheared",
        box=curv4.build_example(name).box,
        eval_fn=formula,
        jet_fn=lambda x, degree: formula(Jet.variables(x, degree)).coef,
        batched=True,
    )


@pytest.mark.parametrize("name", ["s2xs2:1,2", "bump:0.1"])
def test_closed_form_cluster_gauge_in_curved_coordinates(name):
    # pair clusters with W != 0 and a 3-point cluster with W = 0, both
    # turning against the coordinates: DF with the solved in-cluster
    # rotation meets the aligned per-point reference
    chart = sheared_chart(name)
    x = sample_points(chart, count=1, seed=5)[0]
    got = closed_form(chart, x)
    assert np.bincount(extract_frame(chart, x).clusters).tolist() == (
        [2, 2] if name == "s2xs2:1,2" else [1, 3]
    )
    assert_matches(got, extrapolated_reference(chart, x))


# a finite-difference metric jet carries its own error into every frame
# quantity: the tolerances of test_jet's fallback comparison, 1e-8 for what
# comes from R and 1e-6 for what comes from nabla Ric (Gamma, F, D sigma),
# and DF, those F differenced at third_step, to 1e-5 (measured up to 6e-6 on
# randflat sample points)
FD_JET_RTOL = {
    "E": 1e-8, "lam": 1e-8, "sigma": 1e-8, "F": 1e-6, "gamma": 1e-6, "dsig": 1e-6, "DF": 1e-5
}


@pytest.mark.parametrize("make", [lambda charts: without_jet(charts["randflat:0"]), None])
def test_batched_frames_on_a_chart_without_jet(registry_charts, make):
    # the frame of a jet-less chart against the exact-jet frame of the same
    # metric; on the turned product, whose in-cluster basis differs between
    # the two, only the quantities that do not depend on it are compared,
    # and the closed form with the exact jet meets the reference
    if make:
        chart, exact = make(registry_charts), registry_charts["randflat:0"]
        keys = FD_JET_RTOL
    else:
        chart, exact = rotated_product_chart(False), rotated_product_chart(True)
        keys = ("lam", "sigma", "dsig")
    x = sample_points(chart, count=1, seed=5)[0]
    got, ref = closed_form(chart, x), closed_form(exact, x)
    assert got["source"] == "eigen"
    assert_matches(got, ref, FD_JET_RTOL, keys)
    if not make:
        assert_matches(ref, extrapolated_reference(exact, x))
        # the sectional curvatures that F and DF give in the frame's own
        # gauge equal those of the exact curvature in that frame
        fr = extract_frame(chart, x)
        sec, _ = curv4.curvature_from_structure(structure_data(chart, fr), fr)
        Rf = frame_components(curvature_at(exact, x).R, fr.E)
        exact_sec = np.einsum("ijij->ij", Rf)
        assert np.max(np.abs(sec - exact_sec)) <= FD_JET_RTOL["DF"] * max(1.0, np.abs(Rf).max())


@pytest.mark.parametrize("name", ["kpc", "bump:0.1"])
def test_dlam_is_the_derivative_of_lambda(registry_charts, name):
    # exact D_c lambda_a against central differences of lambda along the
    # aligned frame field, accurate on these charts; s is constant on kpc
    # and not on bump, so both terms of D lambda are seen
    chart = eigen_only(registry_charts[name])
    x = sample_points(chart, count=1, seed=2)[0]
    fr = extract_frame(chart, x)
    E, lam, sigma, source, clusters = ref_center(chart, x)
    g = curvature_at(chart, x).g

    def lam_at(y):
        e = curvature_at(chart, y)
        Ey = ref_align(ref_pair_rotation(e, ref_eigenframe(e), clusters), E, g, clusters, True)
        return np.diag(Ey.T @ (e.ric - e.s * e.g / 4.0) @ Ey)

    fd = np.einsum("ma,mb->ab", E, np.stack([central_diff(lam_at, x, d) for d in range(4)]))
    assert np.max(np.abs(fr.dlam - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(fd))))


def recording(chart, attr):
    calls = []
    inner = getattr(chart, attr)

    def wrapped(x, *args):
        calls.append(np.shape(x))
        return inner(x, *args)

    setattr(chart, attr, wrapped)
    return calls


@pytest.mark.parametrize("name", ["s2xs2:1,2", "randflat:0"])
def test_one_evaluation_per_stencil(name):
    # given the third-order entry at x, the frame evaluates nothing more,
    # and structure_data is one jet_fn call at x: degree 2 for adapted
    # frames, which need d g and d Gamma, degree 4 for eigenframes, which
    # need d nabla Ric
    chart = curv4.build_example(name)
    x = sample_points(chart, count=1, seed=3)[0]
    entry = curvature_at(chart, x, degree=3)
    jets, evals = recording(chart, "jet_fn"), recording(chart, "eval_fn")
    fr = extract_frame(chart, x, entry=entry)
    assert jets == [] and evals == []
    structure_data(chart, fr)
    assert jets == [(4,)] and evals == []


def test_one_evaluation_per_stencil_without_jet():
    # the finite-difference degree-4 jet at x: the nested stencil (129
    # points) around each of the 129 points of the same stencil at
    # third_step, in one call
    chart = without_jet(curv4.build_example("randflat:0"))
    x = sample_points(chart, count=1, seed=3)[0]
    entry = curvature_at(chart, x, degree=3)
    evals = recording(chart, "eval_fn")
    fr = extract_frame(chart, x, entry=entry)
    assert evals == []
    structure_data(chart, fr)
    assert evals == [(129 * 129, 4)]


@pytest.mark.parametrize("name", ["s2xs2:1,2", "randflat:0"])
def test_stencil_point_outside_the_box_is_named(registry_charts, name):
    chart = registry_charts[name]
    cfg = DEFAULT_STENCIL
    x = np.zeros(4)
    x[0] = chart.box[0, 0] + 0.5 * cfg.reach * cfg.step
    # an exact jet needs no room around the frame point, for the frame or
    # its structure data; a finite-difference one does, and its error names
    # the point
    fr = extract_frame(chart, x)
    assert fr.source in ("adapted", "eigen")
    assert np.all(np.isfinite(structure_data(chart, fr).DF))
    with pytest.raises(DomainError) as err:
        extract_frame(without_jet(chart), x)
    assert str(x.tolist()) in str(err.value)
    # a jet-less frame whose degree-4 jet, one outer level wider than its
    # degree-3 entry, reaches out of the box
    fd = without_jet(eigen_only(chart))
    x[0] = chart.box[0, 0] + cfg.reach * (2 * cfg.step + 1.5 * cfg.third_step)
    fr = extract_frame(fd, x)
    reach = cfg.reach * (2 * cfg.step + 2 * cfg.third_step)
    with pytest.raises(DomainError) as err:
        structure_data(fd, fr)
    assert str(x.tolist()) in str(err.value)
    assert f"reach {reach:g}" in str(err.value)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_curvature_batch_matches_entries(registry_charts, name):
    chart = registry_charts[name]
    X = sample_points(chart, count=5, seed=8)
    batch = curvature_batch(chart, X, degree=3)
    for n, x in enumerate(X):
        e = curvature_at(chart, x, degree=3)
        for got, ref in (
            (batch.g[n], e.g),
            (batch.R[n], e.R),
            (batch.ric[n], e.ric),
            (batch.weyl[n], e.weyl),
            (batch.nabla_ric[n], e.nabla_ric),
            (batch.ds[n], e.ds),
        ):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        assert batch.s[n] == pytest.approx(e.s, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_batch_point_is_the_batch_slice(registry_charts, name):
    # batch[n] holds the n-th slices of the batch's fields, bit for bit, and
    # makes W and nabla W for its point alone with the same bits
    chart = registry_charts[name]
    batch = curvature_batch(chart, sample_points(chart, count=3, seed=4), degree=3)
    weyl, nabla_weyl = batch.weyl, batch.nabla_weyl
    for n in range(3):
        point = batch[n]
        for key, value in vars(batch).items():
            assert np.array_equal(getattr(point, key), value[n])
        assert np.array_equal(point.weyl, weyl[n])
        assert np.array_equal(point.nabla_weyl, nabla_weyl[n])
    point = curvature_batch(chart, batch.x, degree=2)[1]
    assert point.x.shape == (4,) and point.R.shape == (4, 4, 4, 4) and np.ndim(point.s) == 0
    assert point.nabla_riem is None and point.nabla_ric is None and point.ds is None
    assert point.nabla_weyl is None


def test_curvature_batch_names_the_point_outside(registry_charts):
    chart = registry_charts["kpc"]
    X = sample_points(chart, count=3, seed=1)
    X[1, 2] = chart.box[2, 1] + 0.01
    with pytest.raises(DomainError, match="outside") as err:
        curvature_batch(chart, X)
    assert str(X[1].tolist()) in str(err.value)


def _verify_exit(name, samples):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = curv4.cli.main(["verify", "--example", name, "--samples", str(samples)])
    return code, json.loads(out.getvalue())["summary"]["maxima"]


def test_verify_kpc_with_small_profile_passes_and_bump_fails():
    # skw.e reads an exact D lambda: the harmonic kpc:1,1.2,5 now passes
    # every tier, while the non-harmonic control still fails
    code, maxima = _verify_exit("kpc:1,1.2,5", 16)
    assert code == 0
    assert maxima["skw.e"] <= 1e-9
    code, maxima = _verify_exit("bump:0.1", 4)
    assert code == 1
    assert maxima["skw.e"] > 1e-2


@pytest.mark.parametrize("name", ["kpc:1,1.2,5", "kpc:-0.5,1,1"])
def test_truncated_kpc_skw_f_at_roundoff(name):
    # D sigma and Gamma come from the jet: on the truncated profiles, where
    # a frame stencil read skw.f at 3e-7 and 2e-6, it reads at roundoff
    code, maxima = _verify_exit(name, 16)
    assert code == 0
    assert maxima["skw.f"] <= 1e-9
