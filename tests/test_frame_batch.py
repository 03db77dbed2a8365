"""Batched frame stencils against a per-point reference.

The reference below builds the frame field the way frames were built one
stencil point at a time: a curvature entry and a frame per point (with the W
rotation inside pair clusters at every point), aligned to the center frame,
then nested `central_diff` calls for dE, D sigma and DF.
"""
import contextlib
import io
import json

import numpy as np
import pytest

import curv4
import curv4.cli
from curv4.chart import MetricChart, curvature_at, curvature_batch, sample_points
from curv4.errors import DegenerateFrameError, DomainError
from curv4.frames import _align_to_reference, extract_frame, structure_data
from curv4.numerics import DEFAULT_STENCIL, axis_stencil, central_diff
from curv4.tensor4 import frame_components

REGISTRY_NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0"]
# batched and per-point values agree to this, relative to max(1, |reference|)
RTOL = 1e-9


@pytest.fixture(scope="module")
def registry_charts():
    return {name: curv4.build_example(name) for name in REGISTRY_NAMES}


def without_jet(chart):
    return MetricChart(
        name=f"{chart.name}-fd", box=chart.box, eval_fn=chart.eval_fn, batched=True
    )


def ref_eigenframe(entry):
    # inside a cluster the basis eigh returns is arbitrary, and the center's
    # is kept: symmetrize and scale exactly as frames.py does, so that the
    # center's basis comes out bit for bit the same
    g = entry.metric.g
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


def ref_center(chart, x, prefer_adapted, cfg=DEFAULT_STENCIL):
    """(E, lam, sigma, source, clusters) at x, or DegenerateFrameError."""
    e = curvature_at(chart, x, cfg)
    g = e.metric.g
    b = e.ric - e.s * g / 4.0
    b_norm = np.sqrt(np.einsum("ij,kl,ik,jl->", b, b, e.metric.g_inv, e.metric.g_inv))
    einstein = b_norm <= 1e-8 * max(1.0, abs(e.s))
    flat_w = e.weyl.norm <= 1e-8 * max(1.0, e.riem.norm)
    if einstein and flat_w:
        raise DegenerateFrameError("Einstein and W = 0")
    if chart.adapted_frame_fn is not None and prefer_adapted:
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
    clusters = curv4.cluster_indices(lam)
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


def reference(chart, x, prefer_adapted=True, cfg=DEFAULT_STENCIL):
    """Every frame quantity the batched path computes, one point at a time."""
    E, lam, sigma, source, clusters = ref_center(chart, x, prefer_adapted, cfg)
    entry = curvature_at(chart, x, cfg)
    g = entry.metric.g

    def field(y):
        if source == "adapted":
            Ey = np.asarray(chart.adapted_frame_fn(y), dtype=float)
            gy = chart.eval(y)
            Ey = Ey / np.sqrt(np.einsum("ma,mn,na->a", Ey, gy, Ey))
        else:
            ey = curvature_at(chart, y, cfg)
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
        Wf = frame_components(curvature_at(chart, y, cfg).weyl, field(y))
        return np.array([[Wf[i, j, i, j] if i != j else 0.0 for j in range(4)] for i in range(4)])

    def f_at(y):
        dEy = np.stack([central_diff(field, y, d, cfg) for d in range(4)])
        return brackets(field(y), dEy, chart.eval(y))

    dE = np.stack([central_diff(field, x, d, cfg) for d in range(4)])
    directional = np.einsum("ma,mnb->abn", E, dE)
    correction = np.einsum("nmr,ma,rb->abn", entry.gamma, E, E)
    gamma = np.einsum("abn,nm,mk->abk", directional + correction, g, E)
    dsig = np.stack([central_diff(sigma_at, x, d, cfg) for d in range(4)])
    dF = np.stack([central_diff(f_at, x, d, cfg, step=cfg.third_step) for d in range(4)])
    return {
        "E": E,
        "lam": lam,
        "sigma": sigma,
        "F": brackets(E, dE, g),
        "gamma": gamma,
        "dsig": np.einsum("ma,mbc->abc", E, dsig),
        "DF": np.einsum("ma,mbc->abc", E, dF),
        "source": source,
    }


def batched(chart, x, prefer_adapted=True):
    fr = extract_frame(chart, x, prefer_adapted=prefer_adapted)
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


def assert_matches(got, ref):
    assert got["source"] == ref["source"]
    for key in ("E", "lam", "sigma", "F", "gamma", "dsig", "DF"):
        scale = max(1.0, float(np.max(np.abs(ref[key]))))
        assert np.max(np.abs(got[key] - ref[key])) <= RTOL * scale, key


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
    assert_matches(batched(chart, x), reference(chart, x))


@pytest.mark.parametrize("name", ["s2xs2:1,2", "kpc"])
def test_batched_eigen_path_with_pair_clusters(registry_charts, name):
    # the eigen path on charts with 2-point Ricci clusters and W != 0: the
    # reference rotates inside the clusters at every stencil point, the
    # batched path only at the center
    chart = registry_charts[name]
    x = sample_points(chart, count=1, seed=6)[0]
    got, ref = batched(chart, x, prefer_adapted=False), reference(chart, x, prefer_adapted=False)
    assert got["source"] == "eigen"
    assert_matches(got, ref)


def rotated_product_chart():
    """S2(1) x S2(2) in coordinates turned by a fixed rotation, without a
    jet: its Ricci eigenspaces are two planes that no coordinate axis lies
    in, so the eigensolver's basis inside each is arbitrary (set by the
    finite-difference noise) and only the alignment makes the field smooth."""
    product = curv4.build_example("s2xs2:1,2")
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))

    def eval_fn(x):
        g = product.eval_fn(x @ Q.T)
        return np.swapaxes(Q, 0, 1) @ g @ Q

    return MetricChart(
        name="s2xs2-turned", box=np.array([[-0.25, 0.25]] * 4), eval_fn=eval_fn, batched=True
    )


@pytest.mark.parametrize("make", [lambda charts: without_jet(charts["randflat:0"]), None])
def test_batched_frames_on_a_chart_without_jet(registry_charts, make):
    chart = make(registry_charts) if make else rotated_product_chart()
    x = sample_points(chart, count=1, seed=5)[0]
    got, ref = batched(chart, x), reference(chart, x)
    assert got["source"] == "eigen"
    assert_matches(got, ref)


@pytest.mark.parametrize("name", ["kpc", "bump:0.1"])
def test_dlam_is_the_derivative_of_lambda(registry_charts, name):
    # exact D_c lambda_a against central differences of lambda along the
    # aligned frame field, accurate on these charts; s is constant on kpc
    # and not on bump, so both terms of D lambda are seen
    chart = registry_charts[name]
    x = sample_points(chart, count=1, seed=2)[0]
    fr = extract_frame(chart, x, prefer_adapted=False)
    E, lam, sigma, source, clusters = ref_center(chart, x, False)
    g = curvature_at(chart, x).metric.g

    def lam_at(y):
        e = curvature_at(chart, y)
        Ey = ref_align(ref_pair_rotation(e, ref_eigenframe(e), clusters), E, g, clusters, True)
        return np.diag(Ey.T @ (e.ric - e.s * e.metric.g / 4.0) @ Ey)

    fd = np.einsum("ma,mb->ab", E, np.stack([central_diff(lam_at, x, d) for d in range(4)]))
    assert np.max(np.abs(fr.dlam - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(fd))))


def test_batched_alignment_matches_per_frame_alignment():
    # random orthonormal frames near a permuted, sign-flipped reference, plus
    # a tie: two columns overlap reference column 0 equally, and the greedy
    # pass must not hand the same column to two reference columns
    rng = np.random.default_rng(4)
    g = np.eye(4)
    E_ref = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    frames = []
    for _ in range(6):
        turn = np.linalg.qr(np.eye(4) + 0.3 * rng.normal(size=(4, 4)))[0]
        frames.append((E_ref @ turn)[:, rng.permutation(4)] * rng.choice([-1.0, 1.0], size=4))
    tie = np.eye(4)
    tie[:, :2] = np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]) / np.sqrt(2.0)
    frames.append(tie)
    for clusters, rotate in (([[0], [1], [2], [3]], False), ([[0, 1], [2], [3]], True)):
        for ref_frame in (E_ref, np.eye(4)):
            got = _align_to_reference(np.stack(frames), ref_frame, g, clusters, rotate)
            for n, E in enumerate(frames):
                expected = ref_align(E, ref_frame, g, clusters, rotate)
                assert np.max(np.abs(got[n] - expected)) <= 1e-14


def recording(chart, attr):
    calls = []
    inner = getattr(chart, attr)

    def wrapped(x, *args):
        calls.append(np.shape(x))
        return inner(x, *args)

    setattr(chart, attr, wrapped)
    return calls


@pytest.mark.parametrize(
    "name, structure_attr", [("s2xs2:1,2", "eval_fn"), ("randflat:0", "jet_fn")]
)
def test_one_evaluation_per_stencil(name, structure_attr):
    # given the third-order entry at x, the frame stencil is one jet_fn
    # call, and structure_data one more call: eval_fn for adapted frames,
    # which need the metric only, jet_fn for eigenframes
    chart = curv4.build_example(name)
    x = sample_points(chart, count=1, seed=3)[0]
    entry = curvature_at(chart, x, degree=3)
    jets, evals = recording(chart, "jet_fn"), recording(chart, "eval_fn")
    fr = extract_frame(chart, x, entry=entry)
    assert jets == [(16, 4)] and evals == []
    jets.clear()
    structure_data(chart, fr)
    calls = {"jet_fn": jets, "eval_fn": evals}
    assert calls[structure_attr] == [(272, 4)]
    assert sum(len(c) for c in calls.values()) == 1


def test_one_evaluation_per_stencil_without_jet():
    chart = without_jet(curv4.build_example("randflat:0"))
    x = sample_points(chart, count=1, seed=3)[0]
    entry = curvature_at(chart, x, degree=3)
    evals = recording(chart, "eval_fn")
    fr = extract_frame(chart, x, entry=entry)
    assert evals == [(16 * 129, 4)]
    evals.clear()
    structure_data(chart, fr)
    assert evals == [(272 * 129, 4)]


@pytest.mark.parametrize("name", ["s2xs2:1,2", "randflat:0"])
def test_stencil_point_outside_the_box_is_named(registry_charts, name):
    chart = registry_charts[name]
    cfg = DEFAULT_STENCIL
    x = np.zeros(4)
    x[0] = chart.box[0, 0] + 0.5 * cfg.reach * cfg.step
    with pytest.raises(DomainError) as err:
        extract_frame(chart, x)
    # the first stencil point, x - reach * step * e_0, is the one outside;
    # the message names the frame point and the stencil's reach
    assert axis_stencil(x, cfg)[0, 0, 0] < chart.box[0, 0]
    assert str(x.tolist()) in str(err.value)
    assert f"reach {cfg.reach * cfg.step:g}" in str(err.value)
    # a frame well inside, whose structure stencil at third_step reaches out
    x[0] = chart.box[0, 0] + cfg.reach * (cfg.third_step + 0.5 * cfg.step)
    fr = extract_frame(chart, x)
    with pytest.raises(DomainError) as err:
        structure_data(chart, fr)
    assert str(x.tolist()) in str(err.value)
    assert f"reach {cfg.reach * (cfg.third_step + cfg.step):g}" in str(err.value)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_curvature_batch_matches_entries(registry_charts, name):
    chart = registry_charts[name]
    X = sample_points(chart, count=5, seed=8)
    batch = curvature_batch(chart, X, degree=3)
    for n, x in enumerate(X):
        e = curvature_at(chart, x, degree=3)
        for got, ref in (
            (batch.g[n], e.metric.g),
            (batch.R[n], e.riem.R),
            (batch.ric[n], e.ric),
            (batch.weyl[n], e.weyl.R),
            (batch.nabla_ric[n], e.nabla_ric),
            (batch.ds[n], e.ds),
        ):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        assert batch.s[n] == pytest.approx(e.s, rel=1e-12, abs=1e-12)


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
