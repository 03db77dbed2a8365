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

Derivatives of the frame field are closed form in the third-order
curvature entry at the point: A[p, k, b] = g(e_k, d_p e_b), so d_p E = E A_p,
is fixed by orthonormality (its symmetric part, -(E^T d_p g E) / 2, with d g
from g and the Christoffel symbols) and, across lambda clusters, by the
eigen-equation differentiated: (nabla_p b)(e_b, e_k) / (lambda_b -
lambda_k) minus the connection term. Gamma, F and D sigma follow from A,
nabla W and W, and D lambda from nabla Ric and ds; extract_frame evaluates
nothing beyond its entry. structure_data carries the same construction one
order further, as first-order Taylor jets at x (Griewank & Walther,
Evaluating Derivatives, SIAM 2008, ch. 13): E(x + h) = E + h^p E A_p, and
the connection, the brackets and F from the first-order jets of g, Gamma
and, for eigenframes, nabla Ric and lambda, so DF is the exact first
partial of F from one curvature jet at x (numerics.jet_contract does the
product rule).

Gauge: a frame's derivative is that of the frame field aligned to it: in
each lambda cluster, the frame E_y at a nearby point y is the basis of its
cluster's eigenspace that keeps P = E_cl^T g(x) E_y,cl symmetric (the
orthogonal Procrustes alignment to E), after a permutation and sign fixes,
which leave derivatives alone. At x that makes the in-cluster block of A
symmetric (the block above). Away from x it adds an antisymmetric
in-cluster rotation rate Omega_p, fixed by d_p P staying symmetric; Omega
is 0 at x, and its first partial there is d_q Omega_p = -(M - M^T) / 2 on
the cluster blocks, M = A_q A_p, which is what DF needs. Registered adapted
frames have constant directions and are only normalized, so they get no
Omega. The rotation that diagonalizes W inside a pair cluster is made at
the frame point only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .chart import connection_jets, curvature_at, curvature_jets, metric_norm
from .errors import (
    DegenerateFrameError,
    InconsistencyError,
    InputError,
    PreconditionError,
)

# central_diff stays importable from here for perfbench/tracing.py, which
# counts calls through this name
from .numerics import _fix_signs, central_diff, jet_contract, sym_eigen  # noqa: F401
from .tensor4 import bivector_matrix, frame_components, weyl_split

# sd_split stays importable from here for perfbench/tracing.py, which counts
# calls through this name
from .tensor4 import sd_split  # noqa: F401

_TRIPLES = [t for t in itertools.permutations(range(4), 3)]


def _complement(*indices):
    return sorted(set(range(4)) - set(indices))


# index arrays over the distinct triples (i, j, k); over the ordered pairs
# (i, j) with the other two indices k < l; over the pairs (0, j) with theirs;
# and over i = 0..3 with the other three indices, ascending
_TRIPLE_INDEX = np.array(_TRIPLES).T
_PAIR_INDEX = np.array([(*p, *_complement(*p)) for p in itertools.permutations(range(4), 2)]).T
_PAIRINGS = np.array([(0, j, *_complement(0, j)) for j in (1, 2, 3)]).T
_OTHERS = np.array([_complement(i) for i in range(4)]).T
# the triples (a, b, k) with a < b
_BRACKET_TRIPLES = tuple(_TRIPLE_INDEX[:, _TRIPLE_INDEX[0] < _TRIPLE_INDEX[1]])
_OFF_DIAGONAL = 1.0 - np.eye(4)

# eigenvalues closer than max(CLUSTER_ATOL, CLUSTER_RTOL * spread) count as one
CLUSTER_RTOL = 1e-5
CLUSTER_ATOL = 1e-9
# S_l and y_l at or below ZERO_TOL count as zero
ZERO_TOL = 1e-6
# distinct-index Gamma up to D0_TOL counts as an orthogonal web
D0_TOL = 1e-4


def cluster_indices(values):
    """Group sorted-value indices into clusters separated by gaps above
    max(CLUSTER_ATOL, CLUSTER_RTOL * spread)."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    spread = float(values.max() - values.min()) if values.size else 0.0
    gap = max(CLUSTER_ATOL, CLUSTER_RTOL * spread)
    clusters, current = [], [int(order[0])]
    for a, b in zip(order[:-1], order[1:]):
        if values[b] - values[a] > gap:
            clusters.append(current)
            current = []
        current.append(int(b))
    clusters.append(current)
    return clusters


def cluster_count(values):
    return len(cluster_indices(values))


@dataclass
class RicciFrame:
    """Ricci eigenframe at a point with its first-order structure functions.

    x: the point; g: the metric at x; E: the frame vectors as columns, in
    chart coordinates; lam[a] = lambda_a; sigma[a, b] = sigma_ab; s: scalar
    curvature; F[j, i] = F_ji; gamma[i, j, k] = g(nabla_{e_i} e_j, e_k);
    dlam[c, a] = D_c lambda_a and dsig[a, b, c] = D_a sigma_bc, closed form
    from the third-order entry at x, as are F and gamma; w_plus / w_minus:
    the self-dual and anti-self-dual Weyl blocks; source: 'adapted' or
    'eigen'; clusters: the lambda clusters (index lists) that set the gauge
    of the frame derivatives.
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
    diagnostics: dict = field(default_factory=dict)

    @property
    def distinct_gamma_max(self):
        """Largest |Gamma^k_ij| over mutually distinct (i, j, k); zero for
        the orthogonal-web ('D0') structure."""
        return float(np.abs(self.gamma[tuple(_TRIPLE_INDEX)]).max())


def _orthonormalize_columns(E, g):
    """Normalize columns in g; verify they were already g-orthogonal."""
    E = E / np.sqrt(np.einsum("ma,mn,na->a", E, g, E))
    gram = E.T @ g @ E
    if np.max(np.abs(gram - np.eye(4))) > 1e-8:
        raise InconsistencyError("adapted frame columns are not g-orthogonal")
    return E


def _metric_sqrt_inv(g):
    """g^(-1/2)."""
    res = sym_eigen(g)
    return (res.vectors * (1.0 / np.sqrt(res.values))) @ res.vectors.T


def _eigenframes(g, b):
    """The g-orthonormal eigenframe of the traceless Ricci form b, ascending
    values."""
    s_inv = _metric_sqrt_inv(g)
    res = sym_eigen(s_inv @ b @ s_inv)
    return res.values, s_inv @ res.vectors


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


# the cross components W_ijkl, i < j, k < l, (i, j) != (k, l): the entries
# off the diagonal of W's bivector matrix
_BIVECTOR_CROSS = ~np.eye(6, dtype=bool)


def _w_offdiag(Wf):
    """How far the frame is from diagonalizing W (max cross component), from
    W's frame components."""
    return float(np.abs(bivector_matrix(Wf)[_BIVECTOR_CROSS]).max())


def _frame_connection(E, gE, gamma, same, lam=None, nabla_ric=None):
    """N[p, k, b] = g(e_k, nabla_p e_b) and its Christoffel part
    G[p, k, b] = g(e_k, Gamma_p e_b), (Gamma_p)^n_m = Gamma^n_pm, from jets
    of degree 0 or 1 (coefficient axis first, numerics.Jet's layout) of the
    frame, its lowered columns gE = g E, gamma, and for eigenframes lam and
    nabla_ric; the frame derivative is d_p E = E A_p with A = N - G.

    same[k, b] marks k and b in one lambda cluster (every pair, for adapted
    frames). Orthonormality makes N_p antisymmetric, so A_p has the
    symmetric part -(E^T d_p g E) / 2 = -(G_p + G_p^T) / 2; inside a cluster
    that is all of A at the frame point, the first-order form of a frame
    aligned to itself (Procrustes) or of normalized constant directions, and
    N = (G - G^T) / 2. Across clusters, differentiating b(e_b, e_k) = 0 with
    b = ric - s g / 4 gives N[p, k, b] = (nabla_p b)(e_b, e_k) / (lam_b -
    lam_k), where the ds term drops out since g(e_b, e_k) = 0.
    """
    G = jet_contract("nk,npb->pkb", gE, jet_contract("npm,mb->npb", gamma, E))
    N = 0.5 * (G - np.swapaxes(G, -1, -2))
    if not same.all():
        nabla_b = jet_contract("pjb,jk->pkb", jet_contract("pij,ib->pjb", nabla_ric, E), E)
        gap = lam[:, None, :] - lam[:, :, None]  # gap[k, b] = lam_b - lam_k
        # the constant 1 inside clusters, where N is no quotient
        gap[:, same] = 0.0
        gap[0, same] = 1.0
        gap = gap[: len(nabla_b), None]
        # the quotient of jets of degree 0 or 1
        value = nabla_b[:1] / gap[:1]
        cross = np.concatenate([value, (nabla_b[1:] - value * gap[1:]) / gap[:1]])
        N = np.where(same, N, cross)
    return N, G


def _same_cluster(clusters):
    same = np.zeros((4, 4), dtype=bool)
    for cl in clusters:
        same[np.ix_(cl, cl)] = True
    return same


def _brackets(E, dE, gE):
    """C[a, b, k] = g([e_a, e_b], e_k), with [e_a, e_b]^n = e_a^m d_m e_b^n -
    e_b^m d_m e_a^n, from jets of E, dE[m, n, b] = d_m E[n, b] and gE = g E."""
    directional = jet_contract("ma,mnb->abn", E, dE)
    J = jet_contract("abn,nk->abk", directional, gE)
    return J - np.swapaxes(J, -3, -2)


def _structure_f(C):
    """F[..., j, i] = g([e_i, e_j], e_i) for i != j, zero diagonal."""
    return np.einsum("...iji->...ji", C)


def extract_frame(chart, x, entry=None):
    """Build the Ricci eigenframe and structure functions at x.

    Uses the chart's registered adapted frame when available (source
    'adapted'), otherwise the numeric eigenframe of the traceless Ricci
    form with within-cluster rotations diagonalizing W (source 'eigen').
    Raises DegenerateFrameError when no canonical frame exists: Einstein
    and conformally flat, or Einstein with W != 0 and no adapted frame,
    or a 3-point eigenvalue cluster with W != 0 and no adapted frame.

    `entry` is the third-order curvature entry at x, as a harmonicity
    report's batch holds it; it is evaluated when not given, and nothing
    else is: every derivative of the frame is closed form in the entry. An
    entry without covariant derivatives, or at another point, raises
    InputError.
    """
    x = np.asarray(x, dtype=float)
    if entry is None:
        entry = curvature_at(chart, x, degree=3)
    elif entry.nabla_ric is None:
        raise InputError(
            f"the curvature entry at {x.tolist()} has no covariant derivatives; "
            "frames need an entry of degree 3 or more"
        )
    elif not np.array_equal(entry.x, x):
        raise InputError(f"the curvature entry is at {entry.x.tolist()}, not at {x.tolist()}")
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

    adapted = chart.adapted_frame_fn is not None
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
    clusters = cluster_indices(lam)

    if source == "eigen" and any(len(c) > 1 for c in clusters):
        if w_scale > 1e-8 * curv_scale:
            if any(len(c) > 2 for c in clusters):
                raise DegenerateFrameError(
                    f"chart '{chart.name}' at {x.tolist()}: Ricci eigenvalue cluster "
                    "of size > 2 with W != 0; register an adapted frame"
                )
            E = _pair_cluster_rotation(entry, E, clusters)

    E = _fix_signs(E)
    if np.linalg.det(E) < 0.0:
        E[:, 3] = -E[:, 3]

    gE = g @ E
    gram = E.T @ gE
    gram_resid = float(np.max(np.abs(gram - np.eye(4))))
    if np.linalg.norm(gram - np.eye(4)) > 1e-8:
        raise InputError("frame is not g-orthonormal within 1e-8")
    b_frame = E.T @ b @ E
    diag_resid = float(np.max(np.abs(b_frame - np.diag(np.diag(b_frame)))))
    lam = np.diag(b_frame).copy()

    # W's frame components, made once; E is positively oriented
    Wf = frame_components(entry.weyl, E)
    split = weyl_split(Wf, 1)
    w_diag_resid = _w_offdiag(Wf)

    same = np.ones((4, 4), dtype=bool) if adapted else _same_cluster(clusters)
    # the connection and the brackets take jets; values are jets of degree 0
    N, G = _frame_connection(
        E[None], gE[None], entry.gamma[None], same, lam[None], entry.nabla_ric[None]
    )
    dE = E @ (N - G)[0]  # dE[p, n, b] = d_p E[n, b]
    gamma_f = np.einsum("pa,pkb->abk", E, N[0])
    # D_c lambda_a = (nabla_c b)(e_a, e_a), b = ric - s g / 4 and nabla g = 0
    dlam = np.einsum("pki,pc,ka,ia->ca", entry.nabla_ric, E, E, E)
    dlam -= (entry.ds @ E)[:, None] / 4.0
    # D_a sigma_bc = (nabla_a W)(e_b, e_c, e_b, e_c)
    #   + 2 W(nabla_a e_b, e_c, e_b, e_c) + 2 W(e_b, nabla_a e_c, e_b, e_c)
    nabla_w = frame_components(entry.nabla_weyl, E)
    dsig = (
        np.einsum("abcbc->abc", nabla_w)
        + 2.0 * np.einsum("abk,kcbc->abc", gamma_f, Wf)
        + 2.0 * np.einsum("ack,bkbc->abc", gamma_f, Wf)
    ) * _OFF_DIAGONAL

    C = _brackets(E[None], dE[None], gE[None])[0]
    F = _structure_f(C)
    bracket_resid = np.abs(C[_BRACKET_TRIPLES]).max()
    i, j = _PAIR_INDEX[:2]
    f_gamma_resid = np.abs(F[j, i] - gamma_f[i, j, i]).max()

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
    i, j, k = _TRIPLE_INDEX
    res_a = np.abs(gm[i, j, k] + gm[i, k, j]).max()
    res_c = np.abs((lam[j] - lam[k]) * gm[i, j, k] - (lam[k] - lam[i]) * gm[j, k, i]).max()
    res_d = np.abs(
        (sig[i, j] - sig[i, k]) * gm[i, j, k] - (sig[j, k] - sig[j, i]) * gm[j, k, i]
    ).max()

    # the pairings over the complementary pairs of (0, 1), (0, 2), (0, 3)
    # and the row sums, each summed in column order
    i, j, k, l = _PAIRINGS
    rows, (a, b, c) = np.arange(4), _OTHERS
    res_b = max(
        np.abs(sig[i, j] - sig[k, l]).max(),
        np.abs(sig[rows, a] + sig[rows, b] + sig[rows, c]).max(),
    )

    # ordered pairs (i, j), with k < l the other two indices
    i, j, k, l = _PAIR_INDEX
    res_e = np.abs(Dlam[i, j] - (lam[j] - lam[i]) * gm[j, j, i]).max()
    rhs = (sig[i, j] - sig[i, k]) * gm[k, k, j] + (sig[i, j] - sig[i, l]) * gm[l, l, j]
    res_f = np.abs(Dsig[j, i, j] - rhs).max()

    return {
        "skw.a": float(res_a),
        "skw.b": float(res_b),
        "skw.c": float(res_c),
        "skw.d": float(res_d),
        "skw.e": float(res_e),
        "skw.f": float(res_f),
    }


def sy_from_components(sigma, lam, gamma):
    """S_l, y_l and alpha_l = S_l / y_l from raw frame components.

    For {i, j, k, l} = {1, 2, 3, 4}: S_l = (sigma_ij - sigma_ik) Gamma^k_ij,
    y_l = (lam_j - lam_k) Gamma^k_ij; both are selection-independent, and
    the cross-selection disagreement is returned as a consistency residual.
    """
    sigma = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    # S_l and y_l from the ascending triple (i, j, k) of the indices other than l
    i, j, k = _OTHERS
    S = (sigma[i, j] - sigma[i, k]) * gamma[i, j, k]
    y = (lam[j] - lam[k]) * gamma[i, j, k]
    s_alt = (sigma[j, k] - sigma[j, i]) * gamma[j, k, i]
    y_alt = (lam[k] - lam[i]) * gamma[j, k, i]
    consistency = max(0.0, np.abs(S - s_alt).max(), np.abs(y - y_alt).max())
    alpha = np.full(4, np.nan)
    mask = np.abs(y) > ZERO_TOL
    alpha[mask] = S[mask] / y[mask]
    zeta = int(np.sum(np.abs(S) > ZERO_TOL))
    return {
        "S": S,
        "y": y,
        "alpha": alpha,
        "zeta": zeta,
        "consistency": float(consistency),
        "consistent": bool(consistency <= 1e-4),
    }


def sy_invariants(frame):
    """Selection invariants of a frame."""
    return sy_from_components(frame.sigma, frame.lam, frame.gamma)


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


def frame_invariants(frame):
    """The discrete invariants of one frame: r distinct Ricci eigenvalues,
    w / w_minus distinct eigenvalues of the W+ / W- blocks, and zeta, the
    count of nonzero S_l."""
    w_plus, w_minus = np.linalg.eigvalsh(np.stack([frame.w_plus, frame.w_minus]))
    return {
        "r": cluster_count(frame.lam),
        "w": cluster_count(w_plus),
        "w_minus": cluster_count(w_minus),
        "zeta": sy_invariants(frame)["zeta"],
    }


def fold_invariants(rows, degenerate_points=0):
    """Fold the frame_invariants of frames from several sample points into
    the discrete invariants: the maximum of each count.

    With no rows at all (every sampled point Einstein and conformally
    flat) the counts collapse to the constant-curvature pattern r = w = 1.
    """
    rows = list(rows)
    if not rows:
        if degenerate_points == 0:
            raise InputError("no frames and no degenerate points")
        return InvariantCounts(
            r=1, w=1, w_minus=1, d_lower=0, case_label="A", degenerate_points=degenerate_points
        )
    r, w, wm, d = (max(row[key] for row in rows) for key in ("r", "w", "w_minus", "zeta"))
    return InvariantCounts(
        r=r,
        w=w,
        w_minus=wm,
        d_lower=d,
        case_label=_case_label(r, w, d),
        degenerate_points=degenerate_points,
    )


def invariant_counts(frames, degenerate_points=0):
    """Fold frames from several sample points into the discrete invariants
    (fold_invariants of their frame_invariants)."""
    return fold_invariants(map(frame_invariants, frames), degenerate_points)


@dataclass(frozen=True)
class StructureData:
    """F and its frame-directional derivatives DF[a, b, c] = D_a F_bc."""

    x: np.ndarray
    F: np.ndarray
    DF: np.ndarray


def structure_data(chart, frame):
    """F and DF at the frame's base point, DF[a, b, c] = D_a F_bc the exact
    first partial of F along e_a in the gauge of the module docstring, from
    one jet at x: the degree-2 connection jet (chart.connection_jets) for
    adapted frames, whose A needs d g and d Gamma only, and the degree-4
    curvature jet for eigenframes, whose A needs d nabla Ric too. A chart
    without a jet_fn differences that jet on its stencil
    (numerics.metric_jet); a stencil that leaves the chart box raises
    DomainError naming x and the stencil's reach."""
    x, E = frame.x, frame.E
    adapted = frame.source == "adapted"
    if adapted:
        # g and Gamma only: the frame's own degree-3 entry at x has passed
        # the curvature checks
        jets = connection_jets(chart, x[None], degree=2)
    else:
        jets = curvature_jets(chart, x[None], degree=4)
    # first-order jets at x (value and four partials), the point axis dropped
    g, gamma = jets["g"][:5, 0], jets["gamma"][:5, 0]
    same = np.ones((4, 4), dtype=bool) if adapted else _same_cluster(frame.clusters)
    lam = nabla_ric = None
    if not adapted:
        nabla_ric = jets["nabla_ric"][:, 0]
        # d_q lambda_a = (nabla_q b)(e_a, e_a) with b = ric - s g / 4; its
        # -d_q s / 4 is the same for every a and cancels in lam's only use,
        # the gaps lam_b - lam_k
        dlam = np.einsum("qij,ia,ja->qa", nabla_ric[0], E, E)
        lam = np.concatenate([frame.lam[None], dlam])
    # A at x first (a frame jet of degree 0 truncates every product to its
    # values), then the frame as a jet, E(x + h) = E + h^p E A_p
    N, G = _frame_connection(E[None], (g[0] @ E)[None], gamma, same, lam, nabla_ric)
    A = (N - G)[0]
    E_jet = np.concatenate([E[None], E @ A])
    gE = jet_contract("nm,mk->nk", g, E_jet)
    N, G = _frame_connection(E_jet, gE, gamma, same, lam, nabla_ric)
    A_jet = N - G
    if not adapted:
        # the alignment's in-cluster rotation rate: d_q Omega_p = -(M - M^T) / 2
        # on the cluster blocks, M = A_q A_p
        M = A[:, None] @ A[None, :]
        A_jet[1:] -= 0.5 * (M - np.swapaxes(M, -1, -2)) * same
    dE = jet_contract("nk,pkb->pnb", E_jet, A_jet)  # dE[p, n, b] = d_p E[n, b]
    F = _structure_f(_brackets(E_jet, dE, gE))
    DF = np.einsum("ma,mbc->abc", E, F[1:])
    return StructureData(x=x, F=frame.F.copy(), DF=DF)


def curvature_from_structure(sd, frame=None):
    """Frame curvature components rebuilt from (F, DF) alone.

    sectional[i, j] = R_ijij
        = -(D_i F_ij + D_j F_ji + F_ij^2 + F_ji^2 + sum_c F_ci F_cj),
    mixed[i, j, k] = R_kijk = D_i F_jk - (F_ji - F_jk) F_ik,
    the latter vanishing exactly for harmonic-curvature data. The formulas
    presuppose an orthogonal web: when the originating frame is supplied,
    its distinct-index Gamma components must not exceed D0_TOL.
    """
    if frame is not None and frame.distinct_gamma_max > D0_TOL:
        raise PreconditionError(
            f"distinct-index Gamma reach {frame.distinct_gamma_max:.3e} > {D0_TOL:g}; "
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
