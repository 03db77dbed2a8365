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
Frame fields at stencil points are gauge-aligned to the center frame before
any differentiation: permutation and sign fixes always, plus orthogonal
Procrustes inside eigenvalue clusters for numerically extracted frames
(registered adapted frames are already smooth and must not be re-rotated).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .chart import curvature_at, metric_norm
from .errors import (
    DegenerateFrameError,
    InconsistencyError,
    InputError,
    PreconditionError,
)
from .numerics import DEFAULT_STENCIL, central_diff, sym_eigen
from .tensor4 import frame_components, sd_split

_TRIPLES = [t for t in itertools.permutations(range(4), 3)]
_PAIRS_ORDERED = [(i, j) for i in range(4) for j in range(4) if i != j]


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
    """Ricci eigenframe at a point with its first-order structure functions."""

    x: np.ndarray
    E: np.ndarray  # columns are the frame vectors in chart coordinates
    lam: np.ndarray
    sigma: np.ndarray
    s: float
    F: np.ndarray
    gamma: np.ndarray  # gamma[i, j, k] = g(nabla_{e_i} e_j, e_k)
    w_plus: np.ndarray
    w_minus: np.ndarray
    source: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def distinct_gamma_max(self):
        """Largest |Gamma^k_ij| over mutually distinct (i, j, k); zero for
        the orthogonal-web ('D0') structure."""
        return max(abs(self.gamma[i, j, k]) for (i, j, k) in _TRIPLES)


def _orthonormalize_columns(E, g):
    """Normalize columns in g; verify they were already g-orthogonal."""
    E = np.array(E, dtype=float)
    for a in range(4):
        E[:, a] = E[:, a] / np.sqrt(E[:, a] @ g @ E[:, a])
    gram = E.T @ g @ E
    if np.max(np.abs(gram - np.eye(4))) > 1e-8:
        raise InconsistencyError("adapted frame columns are not g-orthogonal")
    return E


def _metric_sqrt_inv(g):
    res = sym_eigen(g)
    return res.vectors @ np.diag(1.0 / np.sqrt(res.values)) @ res.vectors.T


def _eigenframe(entry):
    """g-orthonormal eigenframe of the traceless Ricci form, ascending values."""
    g = entry.metric.g
    b = entry.ric - entry.s * g / 4.0
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
    """Permute/flip (and for extracted frames, rotate) columns to match
    the reference frame.

    Permutation by greedy max-overlap, then signs for singleton clusters;
    multi-point clusters get an orthogonal Procrustes block rotation only
    when rotate_clusters is set (numeric eigenframes carry an arbitrary
    in-cluster basis, adapted frames are already coherent).
    """
    overlap = E.T @ g_ref @ E_ref
    perm = [-1] * 4
    used = set()
    for b in range(4):
        for a in sorted(range(4), key=lambda a: -abs(overlap[a, b])):
            if a not in used:
                perm[b] = a
                used.add(a)
                break
    E = E[:, perm]
    out = E.copy()
    for cl in clusters:
        if len(cl) > 1 and rotate_clusters:
            block = E[:, cl]
            O = block.T @ g_ref @ E_ref[:, cl]
            U, _, Vt = np.linalg.svd(O)
            out[:, cl] = block @ (U @ Vt)
        else:
            for a in cl:
                if E[:, a] @ g_ref @ E_ref[:, a] < 0.0:
                    out[:, a] = -out[:, a]
    return out


def extract_frame(
    chart,
    x,
    cfg=DEFAULT_STENCIL,
    prefer_adapted=True,
    cluster_rtol=1e-5,
    cluster_atol=1e-9,
):
    """Build the Ricci eigenframe and structure functions at x.

    Uses the chart's registered adapted frame when available (source
    'adapted'), otherwise the numeric eigenframe of the traceless Ricci
    form with within-cluster rotations diagonalizing W (source 'eigen').
    Raises DegenerateFrameError when no canonical frame exists: Einstein
    and conformally flat, or Einstein with W != 0 and no adapted frame,
    or a 3-point eigenvalue cluster with W != 0 and no adapted frame.
    """
    x = np.asarray(x, dtype=float)
    entry = curvature_at(chart, x, cfg)
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
        lam, E = _eigenframe(entry)
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

    rotate_clusters = source == "eigen"
    need_pair_rotation = (
        rotate_clusters
        and any(len(c) > 1 for c in clusters)
        and w_scale > 1e-8 * curv_scale
    )

    def frame_field(y):
        y = np.asarray(y, dtype=float)
        if np.allclose(y, x, rtol=0.0, atol=1e-15):
            return E
        if source == "adapted":
            Ey = _orthonormalize_columns(
                np.asarray(chart.adapted_frame_fn(y), dtype=float), chart.eval(y)
            )
        else:
            entry_y = curvature_at(chart, y, cfg)
            _, Ey = _eigenframe(entry_y)
            if need_pair_rotation:
                Ey = _pair_cluster_rotation(entry_y, Ey, clusters)
        return _align_to_reference(Ey, E, g, clusters, rotate_clusters)

    dE = np.stack([central_diff(frame_field, x, d, cfg) for d in range(4)])
    # dE[m, n, b] = d_m E[n, b]

    directional = np.einsum("ma,mnb->abn", E, dE)
    correction = np.einsum("nmr,ma,rb->abn", entry.gamma, E, E)
    gamma_f = np.einsum("abn,nm,mk->abk", directional + correction, g, E)

    # brackets straight from the Jacobians:
    # [e_a, e_b]^n = e_a^m d_m e_b^n - e_b^m d_m e_a^n
    F = np.zeros((4, 4))
    bracket_resid = 0.0
    for a in range(4):
        for b2 in range(a + 1, 4):
            vec = np.einsum("m,mn->n", E[:, a], dE[:, :, b2]) - np.einsum(
                "m,mn->n", E[:, b2], dE[:, :, a]
            )
            coeff = vec @ g @ E
            F[b2, a] = coeff[a]
            F[a, b2] = -coeff[b2]
            for k in range(4):
                if k not in (a, b2):
                    bracket_resid = max(bracket_resid, abs(coeff[k]))

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

    frame = RicciFrame(
        x=x,
        E=E,
        lam=lam,
        sigma=split.sigma,
        s=float(entry.s),
        F=F,
        gamma=gamma_f,
        w_plus=split.w_plus,
        w_minus=split.w_minus,
        source=source,
        diagnostics=diagnostics,
    )
    frame._field = frame_field  # reused by the derivative helpers
    frame._entry = entry
    frame._cfg = cfg
    frame._chart = chart
    frame._clusters = clusters
    return frame


def _frame_scalars(chart, frame, y, cfg):
    """(lam_b(y), sigma_bc(y)) in the center-aligned gauge."""
    entry = curvature_at(chart, y, cfg)
    Ey = frame._field(y)
    g = entry.metric.g
    b = entry.ric - entry.s * g / 4.0
    lam = np.array([Ey[:, a] @ b @ Ey[:, a] for a in range(4)])
    Wf = frame_components(entry.weyl, Ey)
    sig = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i != j:
                sig[i, j] = Wf[i, j, i, j]
    return lam, sig


def directional_invariant_derivatives(chart, frame, cfg=None):
    """D_a lambda_b and D_a sigma_bc along the frame directions."""
    cfg = cfg or frame._cfg
    x = frame.x

    def scalars(y):
        # one frame per stencil point: lam in row 0, sigma in rows 1-4
        lam, sig = _frame_scalars(chart, frame, y, cfg)
        return np.vstack([lam, sig])

    d = np.stack([central_diff(scalars, x, k, cfg) for k in range(4)])
    Dlam = np.einsum("ma,mb->ab", frame.E, d[:, 0])
    Dsig = np.einsum("ma,mbc->abc", frame.E, d[:, 1:])
    return Dlam, Dsig


def skw_residuals(frame, chart=None, cfg=None):
    """Residuals of the first-order frame identities, keyed by anchor code.

    skw.a  Gamma^k_ij + Gamma^j_ik = 0
    skw.b  sigma pairings (sigma_ij = sigma_kl) and row sums
    skw.c  (lam_j - lam_k) Gamma^k_ij equal along the cyclic chain
    skw.d  (sigma_ij - sigma_ik) Gamma^k_ij equal along the cyclic chain
    skw.e  D_i lam_j = (lam_j - lam_i) Gamma^i_jj
    skw.f  D_j sigma_ij = (sigma_ij - sigma_ik) Gamma^j_kk
                         + (sigma_ij - sigma_il) Gamma^j_ll
    """
    chart = chart or frame._chart
    cfg = cfg or frame._cfg
    lam, sig, gm = frame.lam, frame.sigma, frame.gamma
    Dlam, Dsig = directional_invariant_derivatives(chart, frame, cfg)

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


def sy_invariants(frame, chart=None, cfg=None, zero_tol=1e-6):
    """Selection invariants of a frame; chart/cfg accepted for signature
    parity with the other frame reports (the data is already stored)."""
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


def structure_f_at(chart, frame, y, cfg=None):
    """The F-matrix of the center-aligned frame field at a nearby point."""
    cfg = cfg or frame._cfg
    y = np.asarray(y, dtype=float)
    Ey = frame._field(y)
    dEy = np.stack([central_diff(frame._field, y, d, cfg) for d in range(4)])
    g_y = chart.eval(y)
    Fy = np.zeros((4, 4))
    for a in range(4):
        for b in range(a + 1, 4):
            vec = np.einsum("m,mn->n", Ey[:, a], dEy[:, :, b]) - np.einsum(
                "m,mn->n", Ey[:, b], dEy[:, :, a]
            )
            coeff = vec @ g_y @ Ey
            Fy[b, a] = coeff[a]
            Fy[a, b] = -coeff[b]
    return Fy


def structure_data(chart, frame, cfg=None):
    """Numerically differentiate the F-field around the frame's base point."""
    cfg = cfg or frame._cfg
    x = frame.x

    def f_field(y):
        return structure_f_at(chart, frame, y, cfg)

    dF = np.stack(
        [central_diff(f_field, x, d, cfg, step=cfg.third_step) for d in range(4)]
    )
    DF = np.einsum("ma,mbc->abc", frame.E, dF)
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
