"""Pointwise tensor algebra on a 4-dimensional tangent space.

Conventions, fixed once here and relied on everywhere else:

* R(v,w)u = nabla_w nabla_v u - nabla_v nabla_w u + nabla_[v,w] u and
  R_ijkl = g(R(e_i,e_j)e_k, e_l). The unit round 4-sphere then has
  R_ijkl = g_ik g_jl - g_il g_jk, ric = 3 g and s = 12, and sectional
  curvatures of orthonormal pairs are R_ijij. (Readers used to the
  opposite-sign convention: our R_ijkl equals the negated tensor of that
  convention with the same index names.)
* Kulkarni-Nomizu product:
  (a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il,
  so g ^ (g/2) is the constant-curvature-one tensor.
* Weyl tensor (n = 4): W = R - (n-2)^-1 g ^ Sch with the Schouten tensor
  Sch = ric - s g / (2(n-1)).
* Bivector basis order: e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4. With the
  standard orientation the Hodge star maps e1^e2 -> e3^e4,
  e1^e3 -> -e2^e4, e1^e4 -> e2^e3 (an involution with zero trace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistencyError, InputError, PreconditionError

N = 4

# index pairs of the bivector basis, in order
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}


def _norm(T):
    # Frobenius norm, the value np.linalg.norm gives, without its dispatch
    flat = np.asarray(T, dtype=float).ravel()
    return math.sqrt(flat.dot(flat))


@dataclass(frozen=True)
class Metric4:
    """Positive-definite symmetric 4x4 metric with its cached inverse."""

    g: np.ndarray
    g_inv: np.ndarray = field(default=None)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (N, N):
            raise InputError(f"metric must be 4x4, got {g.shape}")
        if _norm(g - g.T) > 1e-12 * max(1.0, _norm(g)):
            raise InputError("metric is not symmetric")
        eigvals = np.linalg.eigvalsh(0.5 * (g + g.T))
        if eigvals[0] <= 1e-6:
            raise InputError(f"metric is not positive definite (min eigenvalue {eigvals[0]:.3e})")
        object.__setattr__(self, "g", g)
        g_inv = np.linalg.inv(g)
        if _norm(g @ g_inv - np.eye(N)) > 1e-10:
            raise InconsistencyError("metric inverse fails g g^-1 = I within 1e-10")
        object.__setattr__(self, "g_inv", g_inv)


@dataclass(frozen=True)
class SymBilinear4:
    """Symmetric bilinear form (Ricci, Schouten, traceless Ricci, ...)."""

    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (N, N):
            raise InputError(f"bilinear form must be 4x4, got {b.shape}")
        if _norm(b - b.T) > 1e-10 * max(1.0, _norm(b)):
            raise InputError("bilinear form is not symmetric")
        object.__setattr__(self, "b", 0.5 * (b + b.T))


# flat positions of the slot permutations the symmetry checks compare R
# with, and how each check combines them with R itself
_SYM_GATHER = np.stack(
    [
        np.arange(N**4).reshape(N, N, N, N).transpose(perm).ravel()
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (1, 2, 0, 3), (2, 0, 1, 3))
    ]
)
_SYM_WEIGHTS = np.array(
    [[1.0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0], [0, 0, -1.0, 0, 0], [0, 0, 0, 1.0, 1.0]]
)


def _sym_residuals(R):
    """Max violations of the four algebraic curvature symmetries + Bianchi:
    R + R_jikl, R + R_ijlk, R - R_klij and the cyclic sum over i, j, k."""
    flat = R.ravel()
    worst = np.abs(flat + _SYM_WEIGHTS @ flat[_SYM_GATHER]).max(axis=1).tolist()
    return dict(zip(("antisym_ij", "antisym_kl", "pair", "bianchi"), worst))


@dataclass(frozen=True)
class Curv4:
    """Algebraic curvature tensor: both antisymmetries, pair symmetry and the
    first Bianchi identity hold within 1e-10 * ||R|| at construction."""

    R: np.ndarray
    projection_distance: float = 0.0

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        if R.shape != (N, N, N, N):
            raise InputError(f"curvature tensor must be 4^4, got {R.shape}")
        budget = 1e-10 * max(1.0, _norm(R))
        bad = {k: v for k, v in _sym_residuals(R).items() if v > budget}
        if bad:
            raise InputError(f"curvature symmetries violated: {bad}")
        object.__setattr__(self, "R", R)

    @property
    def norm(self):
        return _norm(self.R)


def curvature_projection(raw):
    """The linear projection of curvature_symmetrize, on the last four axes.

    Being linear, it commutes with differentiation: the partials of a
    projected field are the projected partials.
    """
    lead = tuple(range(raw.ndim - 4))

    def slots(T, *perm):
        return T.transpose(lead + tuple(len(lead) + p for p in perm))

    A = 0.25 * (raw - slots(raw, 1, 0, 2, 3) - slots(raw, 0, 1, 3, 2) + slots(raw, 1, 0, 3, 2))
    P = 0.5 * (A + slots(A, 2, 3, 0, 1))
    # cyclic sum over the first three slots is totally antisymmetric here
    B = P + slots(P, 1, 2, 0, 3) + slots(P, 2, 0, 1, 3)
    return P - B / 3.0


def curvature_symmetrize(raw):
    """Project a raw 4^4 array onto the algebraic curvature tensors.

    Antisymmetrize both index pairs, symmetrize the pair swap, then remove
    the totally antisymmetric (Bianchi-violating) part. Returns a Curv4
    whose `projection_distance` records ||raw - projected||; a distance
    beyond 1e-3 * ||raw|| means the input was not approximately a curvature
    tensor and raises instead.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (N, N, N, N):
        raise InputError(f"expected a 4^4 array, got {raw.shape}")
    proj = curvature_projection(raw)
    dist = _norm(raw - proj)
    scale = _norm(raw)
    if scale > 0.0 and dist > 1e-3 * scale:
        raise InconsistencyError(
            f"projection distance {dist:.3e} exceeds 1e-3 * ||raw|| = {1e-3 * scale:.3e}"
        )
    return Curv4(R=proj, projection_distance=dist)


def ricci_contract(R, metric):
    """Ricci tensor ric_jl = g^ik R_ijkl and scalar curvature s."""
    Rarr = R.R if isinstance(R, Curv4) else np.asarray(R, dtype=float)
    ric = np.einsum("ik,ijkl->jl", metric.g_inv, Rarr)
    s = float(np.einsum("jl,jl->", metric.g_inv, ric))
    return SymBilinear4(b=ric), s


def kulkarni_nomizu(a, b):
    """(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il.

    Leading axes of a and b broadcast (a stack of forms gives a stack of
    products).
    """
    return (
        np.einsum("...ik,...jl->...ijkl", a, b)
        + np.einsum("...jl,...ik->...ijkl", a, b)
        - np.einsum("...il,...jk->...ijkl", a, b)
        - np.einsum("...jk,...il->...ijkl", a, b)
    )


def weyl_from_curv(R, metric):
    """Weyl part of an algebraic curvature tensor (n = 4).

    W = R - (n-2)^-1 g ^ Sch, Sch = ric - s g / (2(n-1)). The Ricci
    contraction of the result vanishes identically up to roundoff.
    """
    ric, s = ricci_contract(R, metric)
    sch = ric.b - s * metric.g / (2.0 * (N - 1))
    Rarr = R.R if isinstance(R, Curv4) else np.asarray(R, dtype=float)
    W = Rarr - kulkarni_nomizu(metric.g, sch) / (N - 2)
    return Curv4(R=W, projection_distance=0.0)


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _star_matrix():
    # the star of the standard orientation: e_i ^ e_j -> sign(i j k l) e_k ^ e_l
    M = np.zeros((6, 6))
    for p, (i, j) in enumerate(PAIRS):
        k, l = sorted(set(range(N)) - {i, j})
        M[_PAIR_INDEX[(k, l)], p] = _perm_sign((i, j, k, l))
    M.setflags(write=False)
    return M


_STAR = _star_matrix()


def frame_components(R, frame):
    """Components of a covariant tensor of any rank in a frame given by the
    columns of `frame`: T(e_a, e_b, ...)."""
    T = R.R if isinstance(R, Curv4) else np.asarray(R, dtype=float)
    E = np.asarray(frame, dtype=float)
    # contract the leading slot with E, once per slot: the slot-first matrix,
    # transposed, times E appends the new frame index last, so the result
    # comes out ordered (a, b, c, ...)
    out = T
    for _ in range(T.ndim):
        out = out.reshape(N, -1).T @ E
    return out.reshape(T.shape)


# bivector_matrix's gather: entry [p, q] reads slots (i_q, j_q, k_p, l_p)
_FIRST, _SECOND = np.array(PAIRS).T
_BIVECTOR_GATHER = (_FIRST, _SECOND, _FIRST[:, None], _SECOND[:, None])


def bivector_matrix(A_frame):
    """6x6 matrix of a curvature-type tensor acting on bivectors.

    In an orthonormal frame the operator sends e_i ^ e_j to
    sum_{k<l} A_ijkl e_k ^ e_l, so entry [(kl),(ij)] is A_ijkl.
    """
    return np.asarray(A_frame)[_BIVECTOR_GATHER]


# normalized self-dual / anti-self-dual bases as columns over the PAIRS axis:
# (e1^e2 +- e3^e4)/sqrt2, (e1^e3 -+ e2^e4)/sqrt2, (e1^e4 +- e2^e3)/sqrt2
_SQ = 1.0 / np.sqrt(2.0)
_BASIS_PLUS = np.array(
    [
        [_SQ, 0.0, 0.0],
        [0.0, _SQ, 0.0],
        [0.0, 0.0, _SQ],
        [0.0, 0.0, _SQ],
        [0.0, -_SQ, 0.0],
        [_SQ, 0.0, 0.0],
    ]
)
_BASIS_MINUS = np.array(
    [
        [_SQ, 0.0, 0.0],
        [0.0, _SQ, 0.0],
        [0.0, 0.0, _SQ],
        [0.0, 0.0, -_SQ],
        [0.0, _SQ, 0.0],
        [-_SQ, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class WeylSplit:
    """3x3 blocks of a Weyl-type operator on the self-dual and anti-self-dual
    bivector subspaces, plus the sectional values sigma[i, j] = W(e_i,e_j,e_i,e_j)."""

    w_plus: np.ndarray
    w_minus: np.ndarray
    sigma: np.ndarray
    orientation: int = 1

    @property
    def traces(self):
        return float(np.trace(self.w_plus)), float(np.trace(self.w_minus))


def sd_split(W, metric, frame):
    """Split a Ricci-traceless curvature tensor into its W+ and W- blocks.

    `frame` holds g-orthonormal columns; a negatively oriented frame flips
    the star operator so the split stays tied to the coordinate orientation.
    Raises InputError when the frame is not g-orthonormal, and otherwise
    what weyl_split raises.
    """
    E = np.asarray(frame, dtype=float)
    gram = E.T @ metric.g @ E
    if np.linalg.norm(gram - np.eye(N)) > 1e-8:
        raise InputError("frame is not g-orthonormal within 1e-8")
    orientation = 1 if np.linalg.det(E) > 0 else -1
    return weyl_split(frame_components(W, E), orientation)


# sigma keeps the sectional values W_ijij off the diagonal only
_OFF_DIAGONAL = ~np.eye(N, dtype=bool)


def weyl_split(Wf, orientation):
    """sd_split from the components Wf[a, b, c, d] of W in an orthonormal
    frame of the given orientation (+1 or -1). Raises PreconditionError when
    the Ricci contraction is not ~0 and InconsistencyError when the operator
    fails to commute with the star."""
    scale = max(1e-300, _norm(Wf))
    if _norm(np.einsum("abad->bd", Wf)) > 1e-8 * max(1.0, scale):
        raise PreconditionError("operator has a nonvanishing Ricci contraction")
    M = bivector_matrix(Wf)
    star = orientation * _STAR
    if _norm(M @ star - star @ M) > 1e-9 * max(1.0, scale):
        raise InconsistencyError("operator does not commute with the Hodge star")
    w_plus = _BASIS_PLUS.T @ M @ _BASIS_PLUS
    w_minus = _BASIS_MINUS.T @ M @ _BASIS_MINUS
    if orientation < 0:
        w_plus, w_minus = w_minus, w_plus
    sigma = np.where(_OFF_DIAGONAL, np.einsum("ijij->ij", Wf), 0.0)
    return WeylSplit(w_plus=w_plus, w_minus=w_minus, sigma=sigma, orientation=orientation)
