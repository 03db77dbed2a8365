"""Closed-form frame derivatives against a per-point finite-difference reference.

The reference below builds the frame field one stencil point at a time: a
curvature entry and a frame per point by the frame rule of frames.py,
written apart here (coordinate-aligned directions inside clusters, then the
W rotation inside pair clusters), aligned to the center frame, then nested
`central_diff` calls for dE, D sigma and DF. Its first-derivative level is
taken at two steps and Richardson-extrapolated, (16 ref_h - ref_2h) / 15, so
that the order-4 truncation error it carries (up to 9e-9 on randflat at the
default step) does not hide in the comparison; DF's outer level, at the
wider OUTER_STEP, is extrapolated the same way in that step and its half,
since structure_data's DF is exact.
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
    christoffel,
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
from curv4.tensor4 import tensor_norm
from tests.conftest import frame_tensor, pulled_back

REGISTRY_NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0"]
# closed-form and reference values agree to this, relative to max(1, |reference|)
RTOL = 1e-9
# the step of the reference's outer level of DF, and its first-derivative
# level at twice the default step
OUTER_STEP = 5e-3
DOUBLE_STEP = StencilConfig(step=2 * DEFAULT_STENCIL.step)


@pytest.fixture(scope="module")
def registry_charts():
    return {name: curv4.build_example(name) for name in REGISTRY_NAMES}


def ref_eigenframe(entry):
    # a g-orthonormal eigenbasis of b, lam ascending, and in each cluster of
    # two or more the coordinate-aligned directions of the frame rule: the
    # projections of the unit axes onto the cluster's eigenspace, made
    # g-orthonormal one at a time, each the longest remaining part (ties
    # within 1e-9 by axis index)
    g = entry.g
    b = entry.ric - entry.s * g / 4.0
    w, V = np.linalg.eigh(g)
    s_inv = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    lam, U = np.linalg.eigh(s_inv @ b @ s_inv)
    E = s_inv @ U
    for cl in ref_clusters(lam):
        if len(cl) < 2:
            continue
        project = E[:, cl] @ E[:, cl].T @ g
        axes = [project[:, m] / np.sqrt(g[m, m]) for m in range(4)]
        chosen = []
        for _ in cl:
            rest = [v - sum((q @ g @ v) * q for q in chosen) for v in axes]
            lengths = [np.sqrt(v @ g @ v) for v in rest]
            m = next(m for m in range(4) if lengths[m] >= max(lengths) - 1e-9)
            chosen.append(rest[m] / lengths[m])
        E[:, cl] = np.stack(chosen, axis=1)
    return E


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
        Wf = frame_tensor(entry.weyl, E)
        num, den = 2.0 * Wf[a, c, b, c], Wf[a, c, a, c] - Wf[b, c, b, c]
        bar = 1e-12 * max(1.0, tensor_norm(entry.weyl))
        if abs(num) < bar and abs(den) < bar:
            continue
        t = 0.5 * np.arctan2(num, den)
        R = np.eye(4)
        R[a, a] = R[b, b] = np.cos(t)
        R[a, b], R[b, a] = -np.sin(t), np.sin(t)
        E = E @ R
    return E


def ref_align(E, E_ref, g_ref, clusters):
    overlap = E.T @ g_ref @ E_ref
    perm, used = [], set()
    for b in range(4):
        a = max((a for a in range(4) if a not in used), key=lambda a: abs(overlap[a, b]))
        perm.append(a)
        used.add(a)
    E = E[:, perm]
    out = E.copy()
    for cl in clusters:
        if len(cl) > 1:
            U, _, Vt = np.linalg.svd(E[:, cl].T @ g_ref @ E_ref[:, cl])
            out[:, cl] = E[:, cl] @ U @ Vt
        else:
            for a in cl:
                if E[:, a] @ g_ref @ E_ref[:, a] < 0.0:
                    out[:, a] = -E[:, a]
    return out


def ref_center(chart, x):
    """(E, lam, sigma, clusters) at x, or DegenerateFrameError."""
    e = curvature_at(chart, x)
    g = e.g
    b = e.ric - e.s * g / 4.0
    b_norm = np.sqrt(np.einsum("ij,kl,ik,jl->", b, b, e.g_inv, e.g_inv))
    einstein = b_norm <= 1e-8 * max(1.0, abs(e.s))
    flat_w = tensor_norm(e.weyl) <= 1e-8 * max(1.0, tensor_norm(e.R))
    if einstein:
        raise DegenerateFrameError("Einstein" + (" and W = 0" if flat_w else ""))
    E = ref_eigenframe(e)
    lam = np.diag(E.T @ b @ E)
    clusters = ref_clusters(lam)
    if not flat_w:
        E = ref_pair_rotation(e, E, clusters)
    for a in range(4):
        if E[np.argmax(np.abs(E[:, a])), a] < 0.0:
            E[:, a] = -E[:, a]
    if np.linalg.det(E) < 0.0:
        E[:, 3] = -E[:, 3]
    Wf = frame_tensor(e.weyl, E)
    sigma = np.array([[Wf[i, j, i, j] if i != j else 0.0 for j in range(4)] for i in range(4)])
    return E, np.diag(E.T @ b @ E), sigma, clusters


def reference(chart, x, cfg=DEFAULT_STENCIL, outer=OUTER_STEP, df_only=False):
    """Every frame quantity the closed form computes (DF alone with
    df_only), one point at a time, with central differences on cfg, and
    DF's outer level at step `outer`; the curvature entries come from the
    chart's exact jet."""
    E, lam, sigma, clusters = ref_center(chart, x)
    entry = curvature_at(chart, x)
    g = entry.g

    def field(y):
        ey = curvature_at(chart, y)
        return ref_align(ref_pair_rotation(ey, ref_eigenframe(ey), clusters), E, g, clusters)

    def brackets(Ey, dEy, gy):
        F = np.zeros((4, 4))
        for a in range(4):
            for b in range(4):
                if a != b:
                    vec = Ey[:, a] @ dEy[:, :, b] - Ey[:, b] @ dEy[:, :, a]
                    F[b, a] = vec @ gy @ Ey[:, a]
        return F

    def sigma_at(y):
        Wf = frame_tensor(curvature_at(chart, y).weyl, field(y))
        return np.array([[Wf[i, j, i, j] if i != j else 0.0 for j in range(4)] for i in range(4)])

    def f_at(y):
        dEy = np.stack([central_diff(field, y, d, cfg) for d in range(4)])
        return brackets(field(y), dEy, chart.eval(y))

    dF = np.stack([central_diff(f_at, x, d, cfg, step=outer) for d in range(4)])
    out = {"DF": np.einsum("ma,mbc->abc", E, dF)}
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
    step, and DF's outer level in its step as well."""
    ref_h = reference(chart, x)
    ref_2h = reference(chart, x, DOUBLE_STEP)
    out = dict(ref_h)
    for key in ("F", "gamma", "dsig", "DF"):
        out[key] = richardson(ref_h[key], ref_2h[key])
    half = richardson(
        reference(chart, x, outer=OUTER_STEP / 2, df_only=True)["DF"],
        reference(chart, x, DOUBLE_STEP, OUTER_STEP / 2, df_only=True)["DF"],
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
    }


def assert_matches(got, ref, rtol=None, keys=("E", "lam", "sigma", "F", "gamma", "dsig", "DF")):
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
    chart = registry_charts[name]
    x = sample_points(chart, count=1, seed=6)[0]
    assert_matches(closed_form(chart, x), extrapolated_reference(chart, x))


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
    # one stack whose points differ in cluster pattern: two pair clusters
    # on s2xs2, one on kpc, none on randflat, so the rotation's masked steps
    # run on some points and pairs and skip others, and s4's points have no
    # frame. extract_frames reads a chart only for its name, so one chart
    # serves the stack; each framed point equals the one-point frame of its
    # own chart on its entry of the stack, bit for bit (without an entry, a
    # one-point frame comes from a degree-4 jet), and each s4 point raises
    # as it does alone
    names = ("s2xs2:1,2", "kpc", "randflat:0", "s4")
    charts = [registry_charts[n] for n in names]
    parts = [(chart, sample_points(chart, count=3, seed=0)) for chart in charts]
    batch = curv4.chart.stacked_curvature_batch(parts, degree=3)
    frames = extract_frames(charts[0], batch)
    assert frames.framed.tolist() == [True] * 9 + [False] * 3 and frames.source == "eigen"
    patterns = [sorted(np.bincount(c).tolist()) for c in frames.clusters[:9]]
    assert patterns == [[2, 2]] * 3 + [[1, 1, 2]] * 3 + [[1, 1, 1, 1]] * 3
    points = [(chart, x) for chart, X in parts for x in X]
    for n, (chart, x) in enumerate(points[:9]):
        assert_same_frame(frames[n], extract_frame(chart, x, entry=batch[n]))
    for n, (chart, x) in enumerate(points[9:], start=9):
        with pytest.raises(DegenerateFrameError, match="Ricci is a multiple of g and W = 0"):
            frames[n]
    # the stack's skw rows and invariants are those of its framed points
    rows, counts = skw_residuals(frames), frame_invariants(frames)
    for n in range(9):
        assert {k: v[n] for k, v in rows.items()} == skw_residuals(frames[n])
        assert {k: v[n] for k, v in counts.items()} == frame_invariants(frames[n])
    # the charts given must be one per point of the stack
    with pytest.raises(InputError, match="2 charts for a stack of 12 points"):
        extract_frames(charts[:2], batch)


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
    R = curv4.curvature_symmetrize(rng.normal(size=(len(rotate), 6, 6)))
    ric, s = curv4.ricci_contract(R, g)
    W = curv4.weyl_from_curv(g, R, ric, s)
    E = np.linalg.qr(rng.normal(size=(len(rotate), 4, 4)))[0]
    got = curv4.frames._pair_cluster_rotation(W, E, rotate)
    for n, marks in enumerate(rotate):
        ref = E[n].copy()
        for a in np.flatnonzero(marks):
            b, c = a + 1, 2 if a == 0 else 0
            Wf = frame_tensor(W[n], ref)
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
    # a stack of charts with pair clusters (s2xs2 cells, kpc, rxs3) and one
    # of others (bump, randflat, s4): each chart's slice of the stack's frames,
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


def test_frame_stack_slices(registry_charts):
    # a slice is the sub-stack, its statuses and diagnostics sliced too, and
    # like the stack it carries no jets; an integer index still raises at a
    # point with no frame
    chart = registry_charts["s2xs2:1,2"]
    frames = extract_frames(chart, curvature_batch(chart, sample_points(chart, count=3), degree=3))
    head = frames[0:2]
    assert head.status == ("", "") and head.framed.all() and head.source == "eigen"
    assert frames.jets is head.jets is head[1].jets is None
    for key, value in vars(head).items():
        if key == "diagnostics":
            assert all(np.array_equal(v, frames.diagnostics[k][0:2]) for k, v in value.items())
        elif key not in ("source", "status", "jets"):
            assert np.array_equal(value, getattr(frames, key)[0:2]), key
    assert_same_frame(head[1], frames[1])
    charts = [registry_charts[name] for name in ("bump:0.1", "s4")]
    frames, _ = framed_stack(charts)
    tail = frames[1:4]
    assert tail.status == frames.status[1:4] and tail.framed.tolist() == [True, False, False]
    assert_same_frame(tail[0], frames[1])
    with pytest.raises(DegenerateFrameError, match="chart 's4'"):
        tail[1]


def test_one_point_frame_framed_is_a_boolean(registry_charts):
    # a one-point frame's status is one string, and framed one 0-d boolean:
    # True at a framed s2xs2 point, False at an s4 point, whose record is
    # taken from its stack field by field (indexing it raises)
    chart = registry_charts["s2xs2:1,2"]
    framed = extract_frame(chart, sample_points(chart, count=1)[0]).framed
    assert framed.shape == () and framed.dtype == bool and framed
    frames, _ = framed_stack([registry_charts["s4"]], count=1)
    point = curv4.RicciFrame(
        **{
            k: v if k in ("source", "diagnostics", "jets") else v[0]
            for k, v in vars(frames).items()
        }
    )
    assert point.status.startswith("chart 's4'")
    assert point.framed.shape == () and not point.framed


def turned_product_chart():
    """S2(1) x S2(2) in coordinates turned by a fixed rotation: its Ricci
    eigenspaces are two planes that no coordinate axis lies in, so the
    eigensolver's basis inside each is arbitrary (set by roundoff) and only
    the alignment makes the field smooth."""
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))
    return pulled_back(curv4.build_example("s2xs2:1,2"), np.zeros(4), Q, "s2xs2-turned")


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

    return MetricChart(name=f"{name}-sheared", box=curv4.build_example(name).box, eval_fn=formula)


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


def test_frames_on_a_turned_product():
    # the turned product's in-cluster basis is set by roundoff: the closed
    # form meets the aligned reference, and the sectional curvatures that F
    # and DF give in the frame's own gauge equal those of the curvature in
    # that frame
    chart = turned_product_chart()
    x = sample_points(chart, count=1, seed=5)[0]
    assert_matches(closed_form(chart, x), extrapolated_reference(chart, x))
    fr = extract_frame(chart, x)
    sec, _ = curv4.curvature_from_structure(structure_data(chart, fr), fr)
    Rf = frame_tensor(curvature_at(chart, x).R, fr.E)
    assert np.max(np.abs(sec - np.einsum("ijij->ij", Rf))) <= RTOL * max(1.0, np.abs(Rf).max())


def test_frame_rule_fixes_the_frame_not_roundoff():
    # on charts whose Ricci eigenspaces no coordinate axis lies in, the
    # frame rule, not the eigensolver's roundoff, fixes the basis inside a
    # cluster: a point's E is the same from the degree-3 entry of a stack
    # and from extract_frame's own degree-4 jet, alone and inside one stack
    # of all three charts, and after a change of Ricci at roundoff size,
    # which turns an eigensolver's basis inside a cluster arbitrarily
    charts = [turned_product_chart(), sheared_chart("s2xs2:1,2"), sheared_chart("bump:0.1")]
    parts = [(chart, sample_points(chart, count=4, seed=2)) for chart in charts]
    points = [(chart, x) for chart, X in parts for x in X]
    batch = stacked_curvature_batch(parts, degree=3)
    frames = extract_frames([chart for chart, _ in points], batch)
    assert frames.framed.all()
    for n, (chart, x) in enumerate(points):
        E = extract_frame(chart, x).E
        assert np.max(np.abs(frames.E[n] - E)) <= 1e-12 * np.max(np.abs(E)), chart.name
        alone = extract_frame(chart, x, entry=curvature_at(chart, x, degree=3)).E
        assert np.max(np.abs(alone - E)) <= 1e-12 * np.max(np.abs(E)), chart.name
        noise = np.random.default_rng(n).normal(size=(4, 4)) * 1e-15 * np.abs(batch.ric[n]).max()
        nudged = dataclasses.replace(batch[n], ric=batch.ric[n] + noise + noise.T)
        turned = extract_frame(chart, x, entry=nudged).E
        assert np.max(np.abs(turned - E)) <= 1e-12 * np.max(np.abs(E)), chart.name


@pytest.mark.parametrize("name", ["kpc", "bump:0.1"])
def test_dlam_is_the_derivative_of_lambda(registry_charts, name):
    # exact D_c lambda_a against central differences of lambda along the
    # aligned frame field, accurate on these charts; s is constant on kpc
    # and not on bump, so both terms of D lambda are seen
    chart = registry_charts[name]
    x = sample_points(chart, count=1, seed=2)[0]
    fr = extract_frame(chart, x)
    E, lam, sigma, clusters = ref_center(chart, x)
    g = curvature_at(chart, x).g

    def lam_at(y):
        e = curvature_at(chart, y)
        Ey = ref_align(ref_pair_rotation(e, ref_eigenframe(e), clusters), E, g, clusters)
        return np.diag(Ey.T @ (e.ric - e.s * e.g / 4.0) @ Ey)

    fd = np.einsum("ma,mb->ab", E, np.stack([central_diff(lam_at, x, d) for d in range(4)]))
    assert np.max(np.abs(fr.dlam - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(fd))))


def recording(chart):
    # the shape of x in each call of chart.eval_fn, as ("jet", shape,
    # degree) where x is the coordinate jets
    calls = []
    inner = chart.eval_fn

    def wrapped(x):
        calls.append(("jet", x.shape, x.degree) if isinstance(x, Jet) else np.shape(x))
        return inner(x)

    chart.eval_fn = wrapped
    return calls


@pytest.mark.parametrize("name", ["s2xs2:1,2", "randflat:0"])
def test_one_evaluation_per_stencil(name):
    # given the third-order entry at x, the frame evaluates nothing more and
    # carries no jets, so structure_data evaluates the metric at x, its check
    # that the chart is the frame's, and then one jet at x, of degree 4 for
    # the d nabla Ric it needs
    chart = curv4.build_example(name)
    x = sample_points(chart, count=1, seed=3)[0]
    entry = curvature_at(chart, x, degree=3)
    calls = recording(chart)
    fr = extract_frame(chart, x, entry=entry)
    assert calls == [] and fr.jets is None
    structure_data(chart, fr)
    assert calls == [(4,), ("jet", (4,), 4)]


@pytest.mark.parametrize("name", ["s2xs2:1,2", "kpc", "bump:0.1"])
def test_one_jet_per_harvested_point(name):
    # a harvested point, extract_frame(chart, x) then structure_data, makes
    # one jet evaluation, at x, of degree 4, what its structure data need:
    # the frame carries that jet's first-order terms, and structure_data
    # evaluates only the metric at x (the chart check)
    chart = curv4.build_example(name)
    x = sample_points(chart, count=1, seed=3)[0]
    calls = recording(chart)
    fr = extract_frame(chart, x)
    assert calls == [("jet", (4,), 4)]
    assert set(fr.jets) == {"g", "gamma", "nabla_ric"}
    assert all(term.shape[0] == 5 for term in fr.jets.values())
    structure_data(chart, fr)
    assert calls == [("jet", (4,), 4), (4,)]


@pytest.mark.parametrize("name", ["s2xs2:1,2", "randflat:0"])
def test_stencil_point_outside_the_box_is_named(registry_charts, name):
    chart = registry_charts[name]
    cfg = DEFAULT_STENCIL
    x = np.zeros(4)
    x[0] = chart.box[0, 0] + 0.5 * cfg.reach * cfg.step
    # an exact jet needs no room around the frame point, for the frame or
    # its structure data; the difference reference does, and chart.eval
    # names its first stencil point outside the box, x - 2 h e_0
    fr = extract_frame(chart, x)
    assert fr.source == "eigen"
    assert np.all(np.isfinite(structure_data(chart, fr).DF))
    outside = x.copy()
    outside[0] += -2 * cfg.step
    with pytest.raises(DomainError, match="outside") as err:
        christoffel(chart, x)
    assert str(outside.tolist()) in str(err.value)


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
    assert point.x.shape == (4,) and point.R.shape == (6, 6) and np.ndim(point.s) == 0
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
