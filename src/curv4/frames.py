"""Ricci eigenframes and their structure functions.

At a point where the traceless Ricci tensor b = ric - s g/4 is not zero, an
orthonormal frame e_1..e_4 diagonalizing Ric carries the data used by the
polynomial identities of harmonic-curvature geometry:

* lambda_i = b(e_i, e_i), ascending;
* sigma_ij = W(e_i, e_j, e_i, e_j);
* Gamma[i, j, k] = g(nabla_{e_i} e_j, e_k)  (direction, field, component);
* F_ji, defined by [e_i, e_j] = F_ji e_i - F_ij e_j, equal to Gamma[i, j, i].

Index conventions: everything in code is 0-based; a quantity named after a
1-based identity (say D_1 lambda_2) lands at the corresponding 0-based slots.

Derivatives of the frame field are central differences over a stencil, and
every stencil is evaluated as one batch: one curvature evaluation (or, for
adapted frames in structure_data, one metric evaluation) at all its points,
one batched eigensolve, one batched alignment, then the difference weights
contracted over the stencil axis. extract_frame differences the frame and
sigma over the first-derivative stencil at `step` around x (16 points at
order 4), which gives Gamma, F and D sigma; structure_data differences F
over the stencil at `third_step`, each F from the stencil at `step` around
its point (16 + 256 points), which gives DF. D lambda needs no stencil:
D_c lambda_a = (nabla_{e_c} Ric)(e_a, e_a) - ds(e_c) / 4, read from the
third-order curvature entry at x. A stencil that would leave the chart box
is refused up front, with an error naming x and the stencil's reach.

Gauge: frames at stencil points are aligned to the center frame before any
differentiation: a greedy permutation by overlap and sign fixes always, plus
orthogonal Procrustes inside eigenvalue clusters for numerically extracted
frames (registered adapted frames are already smooth and must not be
re-rotated). The rotation that diagonalizes W inside a pair cluster is made
at the center only; at a stencil point it would be dead work, since
Procrustes returns the same block from any basis of the cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .chart import _guard_footprint, curvature_at, curvature_batch, metric_norm
from .errors import (
    DegenerateFrameError,
    InconsistencyError,
    InputError,
    PreconditionError,
)

# central_diff stays importable from here for perfbench/tracing.py, which
# counts calls through this name
from .numerics import (  # noqa: F401
    DEFAULT_STENCIL,
    axis_stencil,
    central_diff,
    stencil_derivative,
    sym_eigen,
)
from .tensor4 import frame_components, sd_split

_TRIPLES = [t for t in itertools.permutations(range(4), 3)]
_PAIRS_ORDERED = [(i, j) for i in range(4) for j in range(4) if i != j]
_OFF_DIAGONAL = 1.0 - np.eye(4)


def cluster_indices(values, rtol=1e-5, atol=1e-9):
    """Group sorted-value indices into clusters separated by gaps above
    max(atol, rtol * spread)."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    spread = float(values.max() - values.min()) if values.size else 0.0
    gap = max(atol, rtol * spread)
    clusters, current = [], [int(order[0])]
    for a, b in zip(order[:-1], order[1:]):
        if values[b] - values[a] > gap:
            clusters.append(current)
            current = []
        current.append(int(b))
    clusters.append(current)
    return clusters


def cluster_count(values, rtol=1e-5, atol=1e-9):
    return len(cluster_indices(values, rtol, atol))


@dataclass
class RicciFrame:
    """Ricci eigenframe at a point with its first-order structure functions.

    x: the point; g: the metric at x; E: the frame vectors as columns, in
    chart coordinates; lam[a] = lambda_a; sigma[a, b] = sigma_ab; s: scalar
    curvature; F[j, i] = F_ji; gamma[i, j, k] = g(nabla_{e_i} e_j, e_k);
    dlam[c, a] = D_c lambda_a, exact; dsig[a, b, c] = D_a sigma_bc, central
    differences on the stencil; w_plus / w_minus: the self-dual and
    anti-self-dual Weyl blocks; source: 'adapted' or 'eigen'; clusters: the
    lambda clusters (index lists) the stencil frames were aligned by;
    stencil: the StencilConfig the derivatives were taken with, and the
    default of structure_data.
    """

    x: np.ndarray
    g: np.ndarray
    E: np.ndarray
    lam: np.ndarray
    sigma: np.ndarray
    s: float
    F: np.ndarray
    gamma: np.ndarray
    dlam: np.ndarray
    dsig: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    source: str
    clusters: list
    stencil: object
    diagnostics: dict = field(default_factory=dict)

    @property
    def distinct_gamma_max(self):
        """Largest |Gamma^k_ij| over mutually distinct (i, j, k); zero for
        the orthogonal-web ('D0') structure."""
        return max(abs(self.gamma[i, j, k]) for (i, j, k) in _TRIPLES)


def _orthonormalize_columns(E, g):
    """Normalize columns in g (frames stacked on leading axes); verify they
    were already g-orthogonal."""
    E = np.asarray(E, dtype=float)
    E = E / np.sqrt(np.einsum("...ma,...mn,...na->...a", E, g, E))[..., None, :]
    gram = np.swapaxes(E, -1, -2) @ g @ E
    if np.max(np.abs(gram - np.eye(4))) > 1e-8:
        raise InconsistencyError("adapted frame columns are not g-orthogonal")
    return E


def _metric_sqrt_inv(g):
    """g^(-1/2), metrics stacked on leading axes."""
    res = sym_eigen(g)
    scaled = res.vectors * (1.0 / np.sqrt(res.values))[..., None, :]
    return scaled @ np.swapaxes(res.vectors, -1, -2)


def _eigenframes(g, b):
    """g-orthonormal eigenframes of traceless Ricci forms b, ascending
    values; metrics and forms stacked on leading axes."""
    s_inv = _metric_sqrt_inv(g)
    res = sym_eigen(s_inv @ b @ s_inv)
    return res.values, s_inv @ res.vectors


def _fix_column_signs(E):
    E = E.copy()
    for a in range(4):
        lead = int(np.argmax(np.abs(E[:, a])))
        if E[lead, a] < 0.0:
            E[:, a] = -E[:, a]
    return E


def _pair_cluster_rotation(entry, E, clusters):
    """Rotate inside 2-point lambda clusters so the frame diagonalizes W.

    The Jacobi angle zeroing W(a,c,b,c) for one complementary direction c
    zeroes it for the other as well: tracelessness of W ties the two
    numerators and denominators together with opposite signs.
    """
    E = E.copy()
    for cl in clusters:
        if len(cl) == 1:
            continue
        a, b = cl
        c1 = [c for c in range(4) if c not in (a, b)][0]
        Wf = frame_components(entry.weyl, E)
        num = 2.0 * Wf[a, c1, b, c1]
        den = Wf[a, c1, a, c1] - Wf[b, c1, b, c1]
        if abs(num) < 1e-14 and abs(den) < 1e-14:
            continue
        t = 0.5 * np.arctan2(num, den)
        R = np.eye(4)
        R[a, a] = R[b, b] = np.cos(t)
        R[a, b] = -np.sin(t)
        R[b, a] = np.sin(t)
        E = E @ R
    return E


def _w_offdiag(entry, E):
    """How far the frame is from diagonalizing W (max cross component)."""
    Wf = frame_components(entry.weyl, E)
    worst = 0.0
    for (i, j) in itertools.combinations(range(4), 2):
        for (k, l) in itertools.combinations(range(4), 2):
            if (i, j) != (k, l):
                worst = max(worst, abs(Wf[i, j, k, l]))
    return float(worst)


def _align_to_reference(E, E_ref, g_ref, clusters, rotate_clusters):
    """Permute/flip (and for extracted frames, rotate) the columns of the
    stacked frames E (N, 4, 4) to match the reference frame.

    Permutation by greedy max-overlap, then signs for singleton clusters;
    multi-point clusters get an orthogonal Procrustes block rotation only
    when rotate_clusters is set (numeric eigenframes carry an arbitrary
    in-cluster basis, adapted frames are already coherent).
    """
    overlap = np.abs(np.swapaxes(E, 1, 2) @ (g_ref @ E_ref))
    rows = np.arange(len(E))
    perm = np.empty((len(E), 4), dtype=int)
    free = np.ones((len(E), 4), dtype=bool)
    for b in range(4):
        # the largest overlap with reference column b among unused columns;
        # ties go to the lowest index
        a = np.argmax(np.where(free, overlap[:, :, b], -1.0), axis=1)
        perm[:, b] = a
        free[rows, a] = False
    E = np.take_along_axis(E, perm[:, None, :], axis=2)
    out = E.copy()
    for cl in clusters:
        ref = g_ref @ E_ref[:, cl]
        if len(cl) > 1 and rotate_clusters:
            block = E[:, :, cl]
            U, _, Vt = np.linalg.svd(np.swapaxes(block, 1, 2) @ ref)
            out[:, :, cl] = block @ (U @ Vt)
        else:
            dots = np.einsum("nma,ma->na", E[:, :, cl], ref)
            out[:, :, cl] = np.where(dots[:, None, :] < 0.0, -E[:, :, cl], E[:, :, cl])
    return out


def _stencil_frames(chart, X, cfg, source, E_ref, g_ref, clusters, with_sigma):
    """The frame field at stacked points X (N, 4), aligned to the reference
    frame E_ref (with the metric g_ref and the lambda clusters at its
    point), and the metric at X; with_sigma adds sigma[n, i, j] at X.

    One curvature batch serves every point; adapted frames that need no
    sigma read only the metric, by one eval_batch call.
    """
    if source == "adapted" and not with_sigma:
        g, batch = chart.eval_batch(X), None
    else:
        batch = curvature_batch(chart, X, cfg)
        g = batch.g
    if source == "adapted":
        E = _orthonormalize_columns(
            np.stack([np.asarray(chart.adapted_frame_fn(y), dtype=float) for y in X]), g
        )
    else:
        _, E = _eigenframes(g, batch.ric - batch.s[:, None, None] * g / 4.0)
    E = _align_to_reference(E, E_ref, g_ref, clusters, rotate_clusters=source == "eigen")
    return E, g, (_sigma(batch.weyl, E) if with_sigma else None)


def _sigma(weyl, E):
    """sigma[n, i, j] = W(e_i, e_j, e_i, e_j) at stacked points (zero for
    i = j), from W contracted with the frame as one matrix on index pairs."""
    n = len(E)
    pairs = np.einsum("npi,nqj->npqij", E, E).reshape(n, 16, 16)
    Wf = np.swapaxes(pairs, 1, 2) @ weyl.reshape(n, 16, 16) @ pairs
    return np.diagonal(Wf, axis1=1, axis2=2).reshape(n, 4, 4) * _OFF_DIAGONAL


def _directional(E, dE):
    """D[..., a, b, n] = e_a^m d_m E[n, b] from dE[..., m, n, b] = d_m E[n, b]."""
    return np.einsum("...ma,...mnb->...abn", E, dE)


def _brackets(E, dE, g):
    """C[..., a, b, k] = g([e_a, e_b], e_k), with
    [e_a, e_b]^n = e_a^m d_m e_b^n - e_b^m d_m e_a^n."""
    J = _directional(E, dE) @ (g @ E)[..., None, :, :]
    return J - np.swapaxes(J, -3, -2)


def _structure_f(C):
    """F[..., j, i] = g([e_i, e_j], e_i) for i != j, zero diagonal."""
    return np.einsum("...iji->...ji", C)


def extract_frame(
    chart,
    x,
    cfg=DEFAULT_STENCIL,
    prefer_adapted=True,
    cluster_rtol=1e-5,
    cluster_atol=1e-9,
    entry=None,
):
    """Build the Ricci eigenframe and structure functions at x.

    Uses the chart's registered adapted frame when available (source
    'adapted'), otherwise the numeric eigenframe of the traceless Ricci
    form with within-cluster rotations diagonalizing W (source 'eigen').
    Raises DegenerateFrameError when no canonical frame exists: Einstein
    and conformally flat, or Einstein with W != 0 and no adapted frame,
    or a 3-point eigenvalue cluster with W != 0 and no adapted frame.

    `entry` is the third-order curvature entry at x (for D lambda), as a
    harmonicity report's batch holds it; it is evaluated when not given.
    One curvature batch on the stencil at cfg.step around x follows; a
    stencil that leaves the chart box raises DomainError naming x.
    """
    x = np.asarray(x, dtype=float)
    if entry is None:
        entry = curvature_at(chart, x, cfg, degree=3)
    g = entry.metric.g
    g_inv = entry.metric.g_inv
    b = entry.ric - entry.s * g / 4.0
    b_scale = metric_norm(b, g_inv)
    w_scale = entry.weyl.norm
    curv_scale = max(1.0, entry.riem.norm)
    einstein = b_scale <= 1e-8 * max(1.0, abs(entry.s))
    if einstein and w_scale <= 1e-8 * curv_scale:
        raise DegenerateFrameError(
            f"chart '{chart.name}' at {x.tolist()}: Ricci is a multiple of g and W = 0"
        )

    adapted = chart.adapted_frame_fn is not None and prefer_adapted
    if adapted:
        E = _orthonormalize_columns(np.asarray(chart.adapted_frame_fn(x), dtype=float), g)
        lam = np.array([E[:, a] @ b @ E[:, a] for a in range(4)])
        # round before sorting so FD noise cannot shuffle registered columns
        # inside an eigenvalue cluster
        order = np.argsort(np.round(lam, 9), kind="stable")
        E, lam = E[:, order], lam[order]
        source = "adapted"
    else:
        if einstein:
            raise DegenerateFrameError(
                f"chart '{chart.name}' at {x.tolist()}: Ricci is a multiple of g; "
                "register an adapted frame to pick the W-eigenframe"
            )
        lam, E = _eigenframes(g, b)
        source = "eigen"
    clusters = cluster_indices(lam, cluster_rtol, cluster_atol)

    if source == "eigen" and any(len(c) > 1 for c in clusters):
        if w_scale > 1e-8 * curv_scale:
            if any(len(c) > 2 for c in clusters):
                raise DegenerateFrameError(
                    f"chart '{chart.name}' at {x.tolist()}: Ricci eigenvalue cluster "
                    "of size > 2 with W != 0; register an adapted frame"
                )
            E = _pair_cluster_rotation(entry, E, clusters)

    E = _fix_column_signs(E)
    if np.linalg.det(E) < 0.0:
        E[:, 3] = -E[:, 3]

    gram_resid = float(np.max(np.abs(E.T @ g @ E - np.eye(4))))
    b_frame = E.T @ b @ E
    diag_resid = float(np.max(np.abs(b_frame - np.diag(np.diag(b_frame)))))
    lam = np.diag(b_frame).copy()

    split = sd_split(entry.weyl, entry.metric, E)
    w_diag_resid = _w_offdiag(entry, E)

    # the frame field and sigma on the stencil around x, in one batch
    _guard_footprint(chart, x, cfg.reach * cfg.step)
    points = axis_stencil(x, cfg)
    Ey, _, sig_y = _stencil_frames(
        chart, points.reshape(-1, 4), cfg, source, E, g, clusters, with_sigma=True
    )
    on_stencil = points.shape[:2] + (4, 4)
    dE = stencil_derivative(Ey.reshape(on_stencil), cfg)  # dE[m, n, b] = d_m E[n, b]
    dsig = np.einsum("ma,mbc->abc", E, stencil_derivative(sig_y.reshape(on_stencil), cfg))
    # D_c lambda_a = (nabla_c b)(e_a, e_a), b = ric - s g / 4 and nabla g = 0
    dlam = np.einsum("pki,pc,ka,ia->ca", entry.nabla_ric, E, E, E)
    dlam -= (entry.ds @ E)[:, None] / 4.0

    correction = np.einsum("nmr,ma,rb->abn", entry.gamma, E, E)
    gamma_f = np.einsum("abn,nm,mk->abk", _directional(E, dE) + correction, g, E)
    C = _brackets(E, dE, g)
    F = _structure_f(C)
    bracket_resid = max(abs(C[a, b2, k]) for (a, b2, k) in _TRIPLES if a < b2)
    f_gamma_resid = max(abs(F[b2, a] - gamma_f[a, b2, a]) for (a, b2) in _PAIRS_ORDERED)

    diagnostics = {
        "gram_resid": gram_resid,
        "ric_diag_resid": diag_resid,
        "w_diag_resid": w_diag_resid,
        "bracket_offplane_resid": float(bracket_resid),
        "f_vs_gamma_resid": float(f_gamma_resid),
        "b_scale": float(b_scale),
        "w_scale": float(w_scale),
        "non_d0_warning": bool(bracket_resid > 1e-4),
    }

    return RicciFrame(
        x=x,
        g=g,
        E=E,
        lam=lam,
        sigma=split.sigma,
        s=float(entry.s),
        F=F,
        gamma=gamma_f,
        dlam=dlam,
        dsig=dsig,
        w_plus=split.w_plus,
        w_minus=split.w_minus,
        source=source,
        clusters=clusters,
        stencil=cfg,
        diagnostics=diagnostics,
    )


def skw_residuals(frame):
    """Residuals of the first-order frame identities, keyed by anchor code.

    skw.a  Gamma^k_ij + Gamma^j_ik = 0
    skw.b  sigma pairings (sigma_ij = sigma_kl) and row sums
    skw.c  (lam_j - lam_k) Gamma^k_ij equal along the cyclic chain
    skw.d  (sigma_ij - sigma_ik) Gamma^k_ij equal along the cyclic chain
    skw.e  D_i lam_j = (lam_j - lam_i) Gamma^i_jj
    skw.f  D_j sigma_ij = (sigma_ij - sigma_ik) Gamma^j_kk
                         + (sigma_ij - sigma_il) Gamma^j_ll
    """
    lam, sig, gm = frame.lam, frame.sigma, frame.gamma
    Dlam, Dsig = frame.dlam, frame.dsig

    res_a = max(abs(gm[i, j, k] + gm[i, k, j]) for (i, j, k) in _TRIPLES)

    res_b = 0.0
    for (i, j) in ((0, 1), (0, 2), (0, 3)):
        k, l = sorted(set(range(4)) - {i, j})
        res_b = max(res_b, abs(sig[i, j] - sig[k, l]))
    for i in range(4):
        res_b = max(res_b, abs(sum(sig[i, j] for j in range(4) if j != i)))

    res_c = max(
        abs((lam[j] - lam[k]) * gm[i, j, k] - (lam[k] - lam[i]) * gm[j, k, i])
        for (i, j, k) in _TRIPLES
    )
    res_d = max(
        abs((sig[i, j] - sig[i, k]) * gm[i, j, k] - (sig[j, k] - sig[j, i]) * gm[j, k, i])
        for (i, j, k) in _TRIPLES
    )
    res_e = max(
        abs(Dlam[i, j] - (lam[j] - lam[i]) * gm[j, j, i]) for (i, j) in _PAIRS_ORDERED
    )
    res_f = 0.0
    for (i, j) in _PAIRS_ORDERED:
        k, l = sorted(set(range(4)) - {i, j})
        rhs = (sig[i, j] - sig[i, k]) * gm[k, k, j] + (sig[i, j] - sig[i, l]) * gm[l, l, j]
        res_f = max(res_f, abs(Dsig[j, i, j] - rhs))

    return {
        "skw.a": float(res_a),
        "skw.b": float(res_b),
        "skw.c": float(res_c),
        "skw.d": float(res_d),
        "skw.e": float(res_e),
        "skw.f": float(res_f),
    }


def sy_from_components(sigma, lam, gamma, zero_tol=1e-6):
    """S_l, y_l and alpha_l = S_l / y_l from raw frame components.

    For {i, j, k, l} = {1, 2, 3, 4}: S_l = (sigma_ij - sigma_ik) Gamma^k_ij,
    y_l = (lam_j - lam_k) Gamma^k_ij; both are selection-independent, and
    the cross-selection disagreement is returned as a consistency residual.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    S = np.zeros(4)
    y = np.zeros(4)
    consistency = 0.0
    for l in range(4):
        i, j, k = sorted(set(range(4)) - {l})
        S[l] = (sigma[i, j] - sigma[i, k]) * gamma[i, j, k]
        y[l] = (lam[j] - lam[k]) * gamma[i, j, k]
        s_alt = (sigma[j, k] - sigma[j, i]) * gamma[j, k, i]
        y_alt = (lam[k] - lam[i]) * gamma[j, k, i]
        consistency = max(consistency, abs(S[l] - s_alt), abs(y[l] - y_alt))
    alpha = np.full(4, np.nan)
    mask = np.abs(y) > zero_tol
    alpha[mask] = S[mask] / y[mask]
    zeta = int(np.sum(np.abs(S) > zero_tol))
    return {
        "S": S,
        "y": y,
        "alpha": alpha,
        "zeta": zeta,
        "consistency": float(consistency),
        "consistent": bool(consistency <= 1e-4),
    }


def sy_invariants(frame, zero_tol=1e-6):
    """Selection invariants of a frame."""
    return sy_from_components(frame.sigma, frame.lam, frame.gamma, zero_tol)


@dataclass(frozen=True)
class InvariantCounts:
    """Pointwise-maximal discrete invariants over a sample of frames.

    r: distinct Ricci eigenvalues; w / w_minus: distinct eigenvalues of the
    self-dual / anti-self-dual Weyl blocks; d_lower: max count of nonzero
    S_l seen on the samples (a lower bound for the sup over the manifold).
    """

    r: int
    w: int
    w_minus: int
    d_lower: int
    case_label: str
    degenerate_points: int = 0


def _case_label(r, w, d):
    if r == 1:
        return "A"
    if w == 1:
        return "B"
    if w == 2:
        return "C"
    return {0: "D0", 1: "D1"}.get(d, "D2-excluded")


def invariant_counts(
    frames, cluster_rtol=1e-5, cluster_atol=1e-9, zero_tol=1e-6, degenerate_points=0
):
    """Fold frames from several sample points into the discrete invariants.

    With no frames at all (every sampled point Einstein and conformally
    flat) the counts collapse to the constant-curvature pattern r = w = 1.
    """
    frames = list(frames)
    if not frames:
        if degenerate_points == 0:
            raise InputError("no frames and no degenerate points")
        return InvariantCounts(
            r=1, w=1, w_minus=1, d_lower=0, case_label="A", degenerate_points=degenerate_points
        )
    r = w = wm = d = 0
    for fr in frames:
        r = max(r, cluster_count(fr.lam, cluster_rtol, cluster_atol))
        w = max(w, cluster_count(np.linalg.eigvalsh(fr.w_plus), cluster_rtol, cluster_atol))
        wm = max(wm, cluster_count(np.linalg.eigvalsh(fr.w_minus), cluster_rtol, cluster_atol))
        d = max(d, sy_invariants(fr, zero_tol=zero_tol)["zeta"])
    return InvariantCounts(
        r=r,
        w=w,
        w_minus=wm,
        d_lower=d,
        case_label=_case_label(r, w, d),
        degenerate_points=degenerate_points,
    )


@dataclass(frozen=True)
class StructureData:
    """F and its frame-directional derivatives DF[a, b, c] = D_a F_bc."""

    x: np.ndarray
    F: np.ndarray
    DF: np.ndarray


def structure_data(chart, frame, cfg=None):
    """F and DF at the frame's base point: DF by central differences at
    cfg.third_step of F, each F from the frame field differenced at
    cfg.step around its point; all 16 + 256 points (order 4) in one batch.
    cfg defaults to the frame's own stencil."""
    cfg = cfg or frame.stencil
    x, E = frame.x, frame.E
    _guard_footprint(chart, x, cfg.reach * (cfg.third_step + cfg.step))
    outer = axis_stencil(x, cfg, cfg.third_step)  # (4, k, 4)
    inner = axis_stencil(outer, cfg)  # (4, k, 4, k, 4)
    n = outer.shape[0] * outer.shape[1]
    Ey, g, _ = _stencil_frames(
        chart,
        np.concatenate([outer.reshape(-1, 4), inner.reshape(-1, 4)]),
        cfg,
        frame.source,
        E,
        frame.g,
        frame.clusters,
        with_sigma=False,
    )
    dE = stencil_derivative(Ey[n:].reshape((n,) + inner.shape[2:4] + (4, 4)), cfg, axis=1)
    F = _structure_f(_brackets(Ey[:n], dE, g[:n]))
    dF = stencil_derivative(F.reshape(outer.shape[:2] + (4, 4)), cfg, cfg.third_step)
    DF = np.einsum("ma,mbc->abc", E, dF)
    return StructureData(x=x, F=frame.F.copy(), DF=DF)


def curvature_from_structure(sd, frame=None, d0_tol=1e-4):
    """Frame curvature components rebuilt from (F, DF) alone.

    sectional[i, j] = R_ijij
        = -(D_i F_ij + D_j F_ji + F_ij^2 + F_ji^2 + sum_c F_ci F_cj),
    mixed[i, j, k] = R_kijk = D_i F_jk - (F_ji - F_jk) F_ik,
    the latter vanishing exactly for harmonic-curvature data. The formulas
    presuppose an orthogonal web: when the originating frame is supplied,
    its distinct-index Gamma components must stay below d0_tol.
    """
    if frame is not None and frame.distinct_gamma_max > d0_tol:
        raise PreconditionError(
            f"distinct-index Gamma reach {frame.distinct_gamma_max:.3e} > {d0_tol:g}; "
            "the web reconstruction formulas do not apply"
        )
    F, DF = sd.F, sd.DF
    sec = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            rest = [c for c in range(4) if c not in (i, j)]
            sec[i, j] = -(
                DF[i, i, j]
                + DF[j, j, i]
                + F[i, j] ** 2
                + F[j, i] ** 2
                + sum(F[c, i] * F[c, j] for c in rest)
            )
    mixed = np.zeros((4, 4, 4))
    for (i, j, k) in _TRIPLES:
        mixed[i, j, k] = DF[i, j, k] - (F[j, i] - F[j, k]) * F[i, k]
    return sec, mixed
