"""Ricci eigenframes and their structure functions.

At a point where the traceless Ricci tensor b = ric - s g/4 is not zero, an
orthonormal frame e_1..e_4 diagonalizing Ric carries the data used by the
polynomial identities of harmonic-curvature geometry:

* lambda_i = b(e_i, e_i), ascending;
* sigma_ij = W(e_i, e_j, e_i, e_j);
* Gamma[i, j, k] = g(nabla_{e_i} e_j, e_k)  (direction, field, component);
* F_ji, defined by [e_i, e_j] = F_ji e_i - F_ij e_j, equal to Gamma[i, j, i].

Indices are 0-based, and every gather over index tuples reads
tensor4's index tables (its docstring fixes the convention).

extract_frames builds the frames at every point of a third-order curvature
batch in one stacked pass, the point axis first, each point framed on its
own chart (a scan's cells are one stack); a point with no canonical frame
gets a status naming why, which extract_frame, the one-point case, raises.

Derivatives of the frame field are closed form in the third-order
curvature at the point, a point of a curvature batch: A[p, k, b] =
g(e_k, d_p e_b), so d_p E = E A_p, is fixed by orthonormality (its
symmetric part, -(E^T d_p g E) / 2, with d g from g and the Christoffel
symbols) and, across lambda clusters, by the eigen-equation
differentiated: (nabla_p b)(e_b, e_k) / (lambda_b - lambda_k) minus the
connection term. Gamma, F and D sigma follow from A, nabla W and W, and
D lambda from nabla Ric and ds; extract_frames evaluates nothing beyond
that curvature. structure_data carries the same construction one
order further, as first-order Taylor jets at x (Griewank & Walther,
Evaluating Derivatives, SIAM 2008, ch. 13): E(x + h) = E + h^p E A_p, and
the connection, the brackets and F from the first-order jets of g, Gamma
and, for eigenframes, nabla Ric and lambda, so DF is the exact first
partial of F from one curvature jet at x (numerics.jet_contract does the
product rule).

extract_frame(chart, x), one point with no entry given, takes one
curvature jet at x of the degree its frame and structure data need, 3 for
adapted frames and 4 for eigenframes, frames x from its value terms, and
carries its first-order terms (g, Gamma and, for eigenframes, nabla Ric)
as RicciFrame.jets; structure_data reads them and evaluates no jet. Frames
of a stack carry none, and for a point of one structure_data takes the
lowest jet that holds those terms: degree 2 for adapted frames, 4 for
eigenframes.

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

from dataclasses import dataclass, field

import numpy as np

from .chart import MetricChart, _metric_norms, curvature_jets, curvature_with_jets
from .errors import DegenerateFrameError, InconsistencyError, InputError, PreconditionError

# central_diff stays importable from here for perfbench/tracing.py, which
# counts calls through this name
from .numerics import _fix_signs, central_diff, jet_contract, sym_eigen  # noqa: F401
from .tensor4 import (
    OFF_DIAGONAL,
    ORDERED_PAIRS,
    OTHERS,
    TRIPLES,
    _norm,
    bivector_frame,
    curvature_tensor,
    frame_components,
    pair_entries,
    sd_split,
    sigma_relations,
    tensor_norm,
)

# the triples (a, b, k) with a < b
_BRACKET_TRIPLES = tuple(TRIPLES[:, TRIPLES[0] < TRIPLES[1]])

# eigenvalues closer than max(CLUSTER_ATOL, CLUSTER_RTOL * spread) count as one
CLUSTER_RTOL = 1e-5
CLUSTER_ATOL = 1e-9
# S_l and y_l at or below ZERO_TOL count as zero
ZERO_TOL = 1e-6
# distinct-index Gamma up to D0_TOL counts as an orthogonal web
D0_TOL = 1e-4

_FRAME_SHAPES = dict(E=(4, 4), lam=(4,), sigma=(4, 4), s=(), F=(4, 4), gamma=(4, 4, 4),
                     dlam=(4, 4), dsig=(4, 4, 4), w_plus=(3, 3), w_minus=(3, 3))  # fmt: skip
# why a point has no canonical frame, in the order the conditions are read
_DEGENERATE = (
    "Ricci is a multiple of g and W = 0",
    "Ricci is a multiple of g; register an adapted frame to pick the W-eigenframe",
    "Ricci eigenvalue cluster of size > 2 with W != 0; register an adapted frame",
)


def _status(charts, X, causes):
    # per point: '' where no cause holds, else the _DEGENERATE message of
    # the first that does, naming the point's chart; and the points where
    # none holds
    degenerate = np.logical_or.reduce(causes)
    status = [""] * len(X)
    if degenerate.any():
        for n in np.flatnonzero(degenerate):
            why = next(k for k, cause in enumerate(causes) if cause[n])
            status[n] = f"chart '{charts[n].name}' at {X[n].tolist()}: {_DEGENERATE[why]}"
    return tuple(status), ~degenerate


def _cluster_steps(values):
    # the sorted values, and where a gap exceeds max(ATOL, RTOL * spread)
    ranked = np.sort(values, axis=-1)
    gap = np.maximum(CLUSTER_ATOL, CLUSTER_RTOL * (ranked[..., -1:] - ranked[..., :1]))
    return ranked, ranked[..., 1:] - ranked[..., :-1] > gap


def cluster_indices(values):
    """The cluster of each value over the last axis, leading axes a stack:
    the sorted values split where a gap exceeds max(CLUSTER_ATOL,
    CLUSTER_RTOL * spread), numbered 0, 1, ... in ascending order."""
    values = np.asarray(values, dtype=float)
    ranked, steps = _cluster_steps(values)
    # a value's cluster counts the steps below it
    return (steps[..., None, :] & (ranked[..., None, 1:] <= values[..., :, None])).sum(axis=-1)


def cluster_count(values):
    return _cluster_steps(np.asarray(values, dtype=float))[1].sum(axis=-1) + 1


@dataclass
class RicciFrame:
    """Ricci eigenframes at stacked points and their first-order structure
    functions, the point axis first; frames[n] is point n without it, and
    frames[lo:hi] the sub-stack of those points.

    x: the point; g: the metric at x; E: the frame vectors as columns, in
    chart coordinates; lam[a] = lambda_a; sigma[a, b] = sigma_ab; s: scalar
    curvature; F[j, i] = F_ji; gamma[i, j, k] = g(nabla_{e_i} e_j, e_k);
    dlam[c, a] = D_c lambda_a and dsig[a, b, c] = D_a sigma_bc, closed form
    from the third-order curvature at x, as are F and gamma; w_plus /
    w_minus: the self-dual and anti-self-dual Weyl blocks; source: 'adapted'
    or 'eigen', one per stack; clusters[a]: the lambda cluster of e_a (the
    gauge of the derivatives); status: '' at a canonical frame, else why
    there is none (frames[n] raises it as DegenerateFrameError).

    jets: the first-order terms at x (the value, then the four partials) of
    the curvature jet that structure_data reads, g and gamma, and nabla_ric
    on an eigenframe, from the jet extract_frame(chart, x) framed x with;
    None on the frames of a stack, their points and slices, and on a frame
    made from a given entry.
    """

    x: np.ndarray
    g: np.ndarray
    E: np.ndarray
    lam: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    F: np.ndarray
    gamma: np.ndarray
    dlam: np.ndarray
    dsig: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    source: str
    clusters: np.ndarray
    status: tuple | str = ""
    diagnostics: dict = field(default_factory=dict)
    jets: dict | None = None

    @property
    def framed(self):
        """Per point of a stack: whether it has its canonical frame; a 0-d
        boolean on a one-point frame, whose status is one string."""
        if isinstance(self.status, str):
            return np.array(not self.status)
        return np.array([not why for why in self.status], dtype=bool)

    @property
    def distinct_gamma_max(self):
        """Largest |Gamma^k_ij| over mutually distinct (i, j, k); zero for
        the orthogonal-web ('D0') structure."""
        return np.abs(self.gamma[(..., *TRIPLES)]).max(axis=-1)

    def __getitem__(self, n):
        """Point n, DegenerateFrameError where it has no canonical frame; or
        the sub-stack of a slice, statuses and all."""
        if not isinstance(n, slice) and self.status[n]:
            raise DegenerateFrameError(self.status[n])
        kept = ("source", "diagnostics", "jets")
        part = {k: v[n] for k, v in vars(self).items() if k not in kept}
        diagnostics = {k: v[n] for k, v in self.diagnostics.items()}
        return RicciFrame(**part, source=self.source, diagnostics=diagnostics)


def _metric_sqrt_inv(g):
    """g^(-1/2), over leading axes."""
    V = sym_eigen(g)
    return (V.vectors * (1.0 / np.sqrt(V.values))[..., None, :]) @ V.vectors.swapaxes(-1, -2)


def _eigenframes(g, b):
    """The g-orthonormal eigenframes of the traceless Ricci forms b and their
    ascending values, over leading axes."""
    s_inv = _metric_sqrt_inv(g)
    res = sym_eigen(s_inv @ b @ s_inv)
    return res.values, s_inv @ res.vectors


def _adapted_frames(charts, X, g, b, framed):
    """The adapted frame of the chart charts[n] at each point X[n], its
    columns normalized in g[n] and ordered by ascending b(e_a, e_a), and
    those values. Raises InconsistencyError where a framed point's columns
    are not g-orthogonal."""
    E = np.array([np.asarray(c.adapted_frame_fn(x), dtype=float) for c, x in zip(charts, X)])
    E = E / np.sqrt(np.einsum("...ma,...mn,...na->...a", E, g, E))[..., None, :]
    gram = np.abs(E.swapaxes(-1, -2) @ g @ E - np.eye(4)).reshape(len(X), -1)
    if (gram.max(axis=-1)[framed] > 1e-8).any():
        raise InconsistencyError("adapted frame columns are not g-orthogonal")
    lam = np.einsum("...ma,...mn,...na->...a", E, b, E)
    # round before sorting so FD noise cannot shuffle registered columns
    # inside an eigenvalue cluster
    order = np.argsort(np.round(lam, 9), axis=-1, kind="stable")
    rows = np.arange(len(X))[:, None]
    return lam[rows, order], E[rows, :, order].swapaxes(-1, -2)


# the adjacent pairs (a, a + 1) a pair cluster can be, in ascending order,
# each with the first index c outside it
_ADJACENT = ((0, 1, 2), (1, 2, 0), (2, 3, 0))


def _pair_cluster_rotation(W, E, rotate):
    """Rotate the frames E (N, 4, 4) inside the 2-point lambda clusters
    (a, a + 1) that rotate (N, 3) marks so that they diagonalize W: one
    masked step per pair in ascending order, each reading W in the frames
    the steps before it left.

    The Jacobi angle zeroing W(a,c,b,c) for one complementary direction c
    zeroes it for the other as well: tracelessness of W ties the two
    numerators and denominators together with opposite signs.
    """
    E = E.copy()
    for step, (a, b, c) in enumerate(_ADJACENT):
        at = np.flatnonzero(rotate[:, step])
        if not at.size:
            continue
        Wf = frame_components(W[at], bivector_frame(E[at]))
        num = 2.0 * pair_entries(Wf, a, c, b, c)
        den = pair_entries(Wf, a, c, a, c) - pair_entries(Wf, b, c, b, c)
        turn = (np.abs(num) >= 1e-14) | (np.abs(den) >= 1e-14)
        at, t = at[turn], 0.5 * np.arctan2(num[turn], den[turn])
        R = np.tile(np.eye(4), (len(at), 1, 1))
        R[:, a, a] = R[:, b, b] = np.cos(t)
        R[:, a, b] = -np.sin(t)
        R[:, b, a] = np.sin(t)
        E[at] = E[at] @ R
    return E


def _frame_connection(E, gE, gamma, same, lam=None, nabla_ric=None):
    """N[p, k, b] = g(e_k, nabla_p e_b) and its Christoffel part
    G[p, k, b] = g(e_k, Gamma_p e_b), (Gamma_p)^n_m = Gamma^n_pm, from jets
    of degree 0 or 1 (coefficient axis first, numerics.Jet's layout, and
    any stack axes next) of the frame, its lowered columns gE = g E, gamma,
    and for eigenframes lam and nabla_ric; the frame derivative is
    d_p E = E A_p with A = N - G.

    same[..., k, b] marks k and b in one lambda cluster (every pair, for
    adapted frames). Orthonormality makes N_p antisymmetric, so A_p has the
    symmetric part -(E^T d_p g E) / 2 = -(G_p + G_p^T) / 2; inside a cluster
    that is all of A at the frame point, the first-order form of a frame
    aligned to itself (Procrustes) or of normalized constant directions, and
    N = (G - G^T) / 2. Across clusters, differentiating b(e_b, e_k) = 0 with
    b = ric - s g / 4 gives N[p, k, b] = (nabla_p b)(e_b, e_k) / (lam_b -
    lam_k), where the ds term drops out since g(e_b, e_k) = 0.
    """
    G = jet_contract("nk,npb->pkb", gE, jet_contract("npm,mb->npb", gamma, E))
    N = 0.5 * (G - G.swapaxes(-1, -2))
    if not same.all():
        nabla_b = jet_contract("pjb,jk->pkb", jet_contract("pij,ib->pjb", nabla_ric, E), E)
        gap = lam[..., None, :] - lam[..., :, None]  # gap[k, b] = lam_b - lam_k
        # the constant 1 inside clusters, where N is no quotient
        gap[:, same] = 0.0
        gap[0, same] = 1.0
        gap = gap[: len(nabla_b), ..., None, :, :]
        # the quotient of jets of degree 0 or 1
        value = nabla_b[:1] / gap[:1]
        cross = np.concatenate([value, (nabla_b[1:] - value * gap[1:]) / gap[:1]])
        N = np.where(same[..., None, :, :], N, cross)
    return N, G


def _brackets(E, dE, gE):
    """C[a, b, k] = g([e_a, e_b], e_k), with [e_a, e_b]^n = e_a^m d_m e_b^n -
    e_b^m d_m e_a^n, from jets of E, dE[m, n, b] = d_m E[n, b] and gE = g E."""
    directional = jet_contract("ma,mnb->abn", E, dE)
    J = jet_contract("abn,nk->abk", directional, gE)
    return J - np.swapaxes(J, -3, -2)


def _structure_f(C):
    """F[..., j, i] = g([e_i, e_j], e_i) for i != j, zero diagonal."""
    return np.einsum("...iji->...ji", C)


def extract_frames(charts, batch):
    """The Ricci eigenframes and structure functions at every point of the
    third-order curvature batch `batch` (chart.CurvatureBatch), in one
    stacked pass that evaluates nothing beyond the batch. `charts` is the
    chart of each point, in order, or one chart for them all: a scan frames
    the samples of all its cells at once, on the stack their harmonicity
    residuals were taken on, and each cell reads its slice.

    Source 'adapted' is the registered frame of each point's chart, 'eigen'
    the eigenframe of the traceless Ricci form rotated in pair clusters to
    diagonalize W; it is one per stack, and a stack whose charts mix them
    raises InputError. A point has no canonical frame (a status naming its
    chart instead) when Einstein and conformally flat or, without an
    adapted frame, Einstein, or with a 3-point cluster and W != 0. The
    checks (adapted columns g-orthogonal, the frame g-orthonormal,
    sd_split's) read the framed points only.
    """
    X, g, ric_d = batch.x, batch.g, batch.nabla_ric
    if ric_d is None:
        raise InputError(
            f"the curvature at {X[0].tolist()} has no covariant derivatives; "
            "frames need curvature of degree 3 or more"
        )
    charts = [charts] * len(X) if isinstance(charts, MetricChart) else list(charts)
    if len(charts) != len(X):
        raise InputError(f"{len(charts)} charts for a stack of {len(X)} points")
    sources = {c.adapted_frame_fn is not None for c in charts}
    if len(sources) > 1:
        raise InputError("the stack mixes charts with and without an adapted frame")
    (adapted,) = sources
    b = batch.ric - batch.s[:, None, None] * g / 4.0
    b_scale = _metric_norms(b, batch.g_inv)
    W = batch.weyl
    w_scale = tensor_norm(W)
    einstein = b_scale <= 1e-8 * np.maximum(1.0, np.abs(batch.s))
    w_zero = w_scale <= 1e-8 * np.maximum(1.0, tensor_norm(batch.R))

    source = "adapted" if adapted else "eigen"
    # why a point has no canonical frame, in _DEGENERATE's order
    causes = [einstein & w_zero] + ([] if adapted else [einstein])
    status, framed = _status(charts, X, causes)
    if not framed.any():
        # no point has a frame (as on a constant-curvature chart): zeros fill in
        zeros = {name: np.zeros((len(X), *shape)) for name, shape in _FRAME_SHAPES.items()}
        clusters = np.zeros(X.shape, dtype=int)
        return RicciFrame(x=X, g=g, source=source, clusters=clusters, status=status, **zeros)
    if adapted:
        lam, E = _adapted_frames(charts, X, g, b, framed)
    else:
        lam, E = _eigenframes(g, b)
    clusters = cluster_indices(lam)
    # same[n, k, b]: e_k and e_b turn together in the gauge (module docstring)
    same = np.ones(lam.shape + (4,), bool) if adapted else clusters[..., None] == clusters[:, None]
    if not adapted:
        # eigh's values ascend, so a cluster is a run of adjacent indices:
        # adjacent[:, a] marks e_a and e_(a + 1) in one
        adjacent = same[:, (0, 1, 2), (1, 2, 3)]
        causes.append(~w_zero & (adjacent[:, 1:] & adjacent[:, :-1]).any(axis=-1))
        if causes[-1].any():
            status, framed = _status(charts, X, causes)

    if not adapted:
        rotate = adjacent & (framed & ~w_zero)[:, None]
        if rotate.any():
            E = _pair_cluster_rotation(W, E, rotate)

    E = _fix_signs(E)
    # a negatively oriented frame turns its last vector
    flip = np.linalg.det(E) < 0.0
    if flip.any():
        E[flip, :, 3] = -E[flip, :, 3]

    gE = g @ E
    gram = E.swapaxes(-1, -2) @ gE - np.eye(4)
    if (_norm(gram, 2)[framed] > 1e-8).any():
        raise InputError("frame is not g-orthonormal within 1e-8")
    b_frame = E.swapaxes(-1, -2) @ b @ E
    lam = np.diagonal(b_frame, axis1=-2, axis2=-1).copy()

    # W's frame components, made once; E is positively oriented, and the
    # split reads the framed points only
    minors = bivector_frame(E)
    Wf = frame_components(W, minors)
    split = sd_split(Wf * framed[:, None, None], 1)

    # the connection and the brackets take jets; values are jets of degree 0
    N, G = _frame_connection(E[None], gE[None], batch.gamma[None], same, lam[None], ric_d[None])
    dE = E[:, None] @ (N - G)[0]  # dE[n, p, m, b] = d_p E[m, b]
    gamma_f = np.einsum("...pa,...pkb->...abk", E, N[0])
    # D_c lambda_a = (nabla_c b)(e_a, e_a), b = ric - s g / 4 and nabla g = 0
    dlam = np.einsum("...pki,...pc,...ka,...ia->...ca", ric_d, E, E, E)
    dlam -= (batch.ds[:, None, :] @ E).swapaxes(-1, -2) / 4.0
    # D_a sigma_bc = (nabla_a W)(e_b, e_c, e_b, e_c)
    #   + 2 W(nabla_a e_b, e_c, e_b, e_c) + 2 W(e_b, nabla_a e_c, e_b, e_c),
    # the last term the middle one with b and c swapped (W_bkbc = W_kbcb)
    nabla_w = curvature_tensor(frame_components(batch.nabla_weyl, minors[:, None]))
    along = np.einsum("...pa,...pbcbc->...abc", E, nabla_w)
    turned = 2.0 * np.einsum("...abk,...kcbc->...abc", gamma_f, curvature_tensor(Wf))
    dsig = (along + turned + turned.swapaxes(-1, -2)) * OFF_DIAGONAL

    C = _brackets(E[None], dE[None], gE[None])[0]
    F = _structure_f(C)
    bracket_resid = np.abs(C[(..., *_BRACKET_TRIPLES)]).max(axis=-1)
    i, j = ORDERED_PAIRS[:2]
    diagnostics = {
        "gram_resid": np.abs(gram).reshape(len(X), -1).max(axis=-1),
        "ric_diag_resid": np.abs(b_frame[..., OFF_DIAGONAL]).max(axis=-1),
        "w_diag_resid": np.abs(Wf[..., ~np.eye(6, dtype=bool)]).max(axis=-1),
        "bracket_offplane_resid": bracket_resid,
        "f_vs_gamma_resid": np.abs(F[..., j, i] - gamma_f[..., i, j, i]).max(axis=-1),
        "b_scale": b_scale,
        "w_scale": w_scale,
        "non_d0_warning": bracket_resid > 1e-4,
    }

    return RicciFrame(
        x=X, g=g, E=E, lam=lam, sigma=split.sigma, s=batch.s, F=F, gamma=gamma_f, dlam=dlam,
        dsig=dsig, w_plus=split.w_plus, w_minus=split.w_minus, source=source, clusters=clusters,
        status=status, diagnostics=diagnostics,
    )  # fmt: skip


def _first_order(jets, adapted):
    # the value and first partials at the one point of curvature jets: the
    # terms structure_data reads
    keys = ("g", "gamma") if adapted else ("g", "gamma", "nabla_ric")
    return {key: jets[key][:5, 0] for key in keys}


def extract_frame(chart, x, entry=None):
    """The Ricci eigenframe and structure functions at x, the one-point case
    of extract_frames: DegenerateFrameError where x has no canonical frame.

    `entry` is the third-order curvature at x, a point of a curvature batch
    such as report.batch[n] of a harmonicity report; nothing else is
    evaluated, and the frame carries no jets. An entry without covariant
    derivatives, or at another x, raises InputError. Without an entry, x
    gets one curvature jet of the degree its frame and structure data need
    (chart.curvature_with_jets): 3 for an adapted frame, 4 for an
    eigenframe. The frame is made from the jet's value terms and carries
    its first-order terms (RicciFrame.jets), so structure_data evaluates
    nothing more.
    """
    x = np.asarray(x, dtype=float)
    if entry is not None:
        if not np.array_equal(entry.x, x):
            raise InputError(f"the curvature is at {entry.x.tolist()}, not at {x.tolist()}")
        return extract_frames(chart, entry[None])[0]
    adapted = chart.adapted_frame_fn is not None
    # the frame needs degree 3, and an eigenframe's structure data degree 4
    batch, jets = curvature_with_jets(chart, x[None], 3 if adapted else 4)
    frame = extract_frames(chart, batch)[0]
    frame.jets = _first_order(jets, adapted)
    return frame


def skw_residuals(frame):
    """Residuals of the first-order frame identities, keyed by anchor code,
    one value per point of a stack of frames (a scalar for one point).

    skw.a  Gamma^k_ij + Gamma^j_ik = 0
    skw.b  sigma pairings (sigma_ij = sigma_kl) and row sums
    skw.c  (lam_j - lam_k) Gamma^k_ij equal along the cyclic chain
    skw.d  (sigma_ij - sigma_ik) Gamma^k_ij equal along the cyclic chain
    skw.e  D_i lam_j = (lam_j - lam_i) Gamma^i_jj
    skw.f  D_j sigma_ij = (sigma_ij - sigma_ik) Gamma^j_kk
                         + (sigma_ij - sigma_il) Gamma^j_ll
    """
    lam, sig, gm = frame.lam, frame.sigma, frame.gamma
    i, j, k = TRIPLES
    g_ijk, g_jki = gm[..., i, j, k], gm[..., j, k, i]
    a = g_ijk + gm[..., i, k, j]
    c = (lam[..., j] - lam[..., k]) * g_ijk - (lam[..., k] - lam[..., i]) * g_jki
    d = (sig[..., i, j] - sig[..., i, k]) * g_ijk - (sig[..., j, k] - sig[..., j, i]) * g_jki
    b = np.concatenate(sigma_relations(sig), axis=-1)
    i, j, k, l = ORDERED_PAIRS
    s_ij = sig[..., i, j]
    e = frame.dlam[..., i, j] - (lam[..., j] - lam[..., i]) * gm[..., j, j, i]
    rhs = (s_ij - sig[..., i, k]) * gm[..., k, k, j] + (s_ij - sig[..., i, l]) * gm[..., l, l, j]
    f = frame.dsig[..., j, i, j] - rhs

    rows = {"skw.a": a, "skw.b": b, "skw.c": c, "skw.d": d, "skw.e": e, "skw.f": f}
    return {key: np.abs(v).max(axis=-1) for key, v in rows.items()}


def sy_from_components(sigma, lam, gamma):
    """S_l, y_l and alpha_l = S_l / y_l from raw frame components, over any
    leading axes.

    For {i, j, k, l} = {1, 2, 3, 4}: S_l = (sigma_ij - sigma_ik) Gamma^k_ij,
    y_l = (lam_j - lam_k) Gamma^k_ij; both are selection-independent, and
    the cross-selection disagreement is returned as a consistency residual.
    """
    sigma, lam, gamma = (np.asarray(v, dtype=float) for v in (sigma, lam, gamma))
    # S_l and y_l from the ascending triple (i, j, k) of the indices other than l
    i, j, k = OTHERS
    g_ijk, g_jki = gamma[..., i, j, k], gamma[..., j, k, i]
    S = (sigma[..., i, j] - sigma[..., i, k]) * g_ijk
    y = (lam[..., j] - lam[..., k]) * g_ijk
    s_alt = (sigma[..., j, k] - sigma[..., j, i]) * g_jki
    y_alt = (lam[..., k] - lam[..., i]) * g_jki
    consistency = np.maximum(np.abs(S - s_alt).max(axis=-1), np.abs(y - y_alt).max(axis=-1))
    alpha = np.divide(S, y, out=np.full(S.shape, np.nan), where=np.abs(y) > ZERO_TOL)
    zeta = (np.abs(S) > ZERO_TOL).sum(axis=-1)
    return {"S": S, "y": y, "alpha": alpha, "zeta": zeta, "consistency": consistency,
            "consistent": consistency <= 1e-4}  # fmt: skip


def sy_invariants(frame):
    """Selection invariants of a frame, or of each frame of a stack."""
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


_INVARIANTS = ("r", "w", "w_minus", "zeta")


def frame_invariants(frame):
    """The discrete invariants of a frame, or of each frame of a stack: r
    distinct Ricci eigenvalues, w / w_minus distinct eigenvalues of the
    W+ / W- blocks, and zeta, the count of nonzero S_l."""
    w_plus, w_minus = np.linalg.eigvalsh(np.stack([frame.w_plus, frame.w_minus]))
    r, w, wm = (cluster_count(v) for v in (frame.lam, w_plus, w_minus))
    return {"r": r, "w": w, "w_minus": wm, "zeta": sy_invariants(frame)["zeta"]}


def fold_invariants(invariants, degenerate_points=0):
    """Fold frame_invariants over several sample points, each key's values at
    the framed points, into the discrete invariants: each count's maximum.

    With no frames at all (every sampled point Einstein and conformally
    flat; invariants may be empty) the counts are those of constant curvature.
    """
    if len(invariants.get("r", ())):
        r, w, wm, d = (int(max(invariants[key])) for key in _INVARIANTS)
    elif degenerate_points:
        r, w, wm, d = 1, 1, 1, 0
    else:
        raise InputError("no frames and no degenerate points")
    return InvariantCounts(r, w, wm, d, _case_label(r, w, d), degenerate_points)


def invariant_counts(frames, degenerate_points=0):
    """Fold frames from several sample points into the discrete invariants
    (fold_invariants of their frame_invariants)."""
    rows = [frame_invariants(fr) for fr in frames]
    invariants = {key: [row[key] for row in rows] for key in _INVARIANTS}
    return fold_invariants(invariants, degenerate_points)


@dataclass(frozen=True)
class StructureData:
    """F and its frame-directional derivatives DF[a, b, c] = D_a F_bc."""

    x: np.ndarray
    F: np.ndarray
    DF: np.ndarray


def structure_data(chart, frame):
    """F and DF at the frame's base point, DF[a, b, c] = D_a F_bc the exact
    first partial of F along e_a in the gauge of the module docstring, from
    the first-order terms of one curvature jet at x: g and Gamma for
    adapted frames, whose A needs d g and d Gamma only, and nabla Ric too
    for eigenframes, whose A needs d nabla Ric.

    A frame from extract_frame(chart, x) carries them (RicciFrame.jets), and
    nothing is evaluated but the metric at x, to check that `chart` is the
    frame's. A frame that carries none (a point of a stack, a frame made
    from a given entry) gets the lowest curvature jet at x that holds them,
    degree 2 for adapted frames and 4 for eigenframes. A stack of frames,
    or a chart whose metric at x is not the frame's g within 1e-12
    relative, raises InputError.
    """
    x, E = frame.x, frame.E
    if x.ndim != 1:
        raise InputError(f"structure_data takes one frame, frames[n], not a stack of {len(x)}")
    # the bound _validate_chart holds a formula's jet and its value to
    metric = np.asarray(chart.eval_fn(x), dtype=float) if chart.contains(x) else None
    if metric is None or np.abs(metric - frame.g).max() > 1e-12 * max(1.0, np.abs(metric).max()):
        raise InputError(
            f"chart '{chart.name}' is not the frame's: its metric at {x.tolist()} is another"
        )
    adapted = frame.source == "adapted"
    jets = frame.jets
    if jets is None:
        # the lowest jet that holds them: an adapted frame's A needs d g and
        # d Gamma, which degree 2 holds, and an eigenframe's d nabla Ric too
        jets = _first_order(curvature_jets(chart, x[None], 2 if adapted else 4), adapted)
    g, gamma = jets["g"], jets["gamma"]
    same = np.ones((4, 4), dtype=bool) if adapted else frame.clusters[:, None] == frame.clusters
    lam = nabla_ric = None
    if not adapted:
        nabla_ric = jets["nabla_ric"]
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
        A_jet[1:] -= 0.5 * (M - M.swapaxes(-1, -2)) * same
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
    its distinct-index Gamma components must not exceed D0_TOL, and it must
    be the frame at sd.x (InputError otherwise).
    """
    if frame is not None and not np.array_equal(sd.x, frame.x):
        raise InputError(
            f"the structure data is at {sd.x.tolist()}, the frame at {frame.x.tolist()}"
        )
    if frame is not None and frame.distinct_gamma_max > D0_TOL:
        raise PreconditionError(
            f"distinct-index Gamma reach {frame.distinct_gamma_max:.3e} > {D0_TOL:g}; "
            "the web reconstruction formulas do not apply"
        )
    F, DF = sd.F, sd.DF
    i, j, k, l = ORDERED_PAIRS
    sec = np.zeros((4, 4))
    sec[i, j] = -(
        DF[i, i, j]
        + DF[j, j, i]
        + F[i, j] * F[i, j]
        + F[j, i] * F[j, i]
        + (F[k, i] * F[k, j] + F[l, i] * F[l, j])
    )
    i, j, k = TRIPLES
    mixed = np.zeros((4, 4, 4))
    mixed[i, j, k] = DF[i, j, k] - (F[j, i] - F[j, k]) * F[i, k]
    return sec, mixed
