"""Pointwise tensor algebra on a 4-dimensional tangent space.

Conventions, fixed once here and relied on everywhere else:

* R(v,w)u = nabla_w nabla_v u - nabla_v nabla_w u + nabla_[v,w] u and
  R_ijkl = g(R(e_i,e_j)e_k, e_l). The unit round 4-sphere then has
  R_ijkl = g_ik g_jl - g_il g_jk, ric = 3 g and s = 12, and sectional
  curvatures of orthonormal pairs are R_ijij. (Readers used to the
  opposite-sign convention: our R_ijkl equals the negated tensor of that
  convention with the same index names.)
* Curvature-type tensors are operators on bivectors: a 6 x 6 array
  M[P, Q] over the pairs P = (i, j), Q = (k, l) of PAIRS, i < j and k < l,
  with M[P, Q] = R_ijkl. The 4-index components are
  R_ijkl = s_ij s_kl M[P(i, j), P(k, l)] with s_ij = +1 for i < j, -1 for
  i > j and 0 for i = j (PAIR_SIGN; pair_entries reads them). A
  derivative adds its axis ahead of the pairs: nabla R is (4, 6, 6),
  [q, P, Q] = nabla_q R_ijkl. The 4-index Frobenius norm counts every
  entry of a pair four times, so it is twice the 6 x 6 one; every norm
  that a bound reads (tensor_norm) keeps the 4-index value.
* Kulkarni-Nomizu product:
  (a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il,
  so g ^ (g/2) is the constant-curvature-one tensor.
* Weyl tensor (n = 4): W = R - (n-2)^-1 g ^ Sch with the Schouten tensor
  Sch = ric - s g / (2(n-1)).
* Bivector basis order: e1^e2, e1^e3, e1^e4, e2^e3, e2^e4, e3^e4. With the
  standard orientation the Hodge star maps e1^e2 -> e3^e4,
  e1^e3 -> -e2^e4, e1^e4 -> e2^e3 (an involution with zero trace).
* Index tables: every gather over index tuples of the four frame indices
  (the pairs, ordered pairs, triples, complements and the even triples of
  the Z_l sums) reads the read-only tables below, 0-based, with 1-based
  identities landing at the corresponding 0-based slots.

Each operation is written once, on plain arrays, and works over any
leading axes: a stack of points, a coefficient axis of a jet, or none.
Curvature batches (chart) and the stacked Ricci eigenframes (frames) call
them by these names, and check the metric, the projection distance and
the frame before they do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError, PreconditionError

N = 4


def _perm_sign(perm):
    inversions = sum(a > b for n, a in enumerate(perm) for b in perm[n + 1 :])
    return -1 if inversions % 2 else 1


def _table(rows):
    T = np.array(rows, dtype=np.intp)
    T.setflags(write=False)
    return T


def _others(*indices):
    return tuple(c for c in range(N) if c not in indices)


# index pairs of the bivector basis, in order, as a tuple and as the rows
# (i, j) of a table over the six pairs
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_INDICES = _table(PAIRS).T
# PAIR_COLUMN[i, j]: the position of the pair {i, j} in PAIRS; the diagonal
# holds 6, past every pair, so that reading it from a pair axis raises
PAIR_COLUMN = _table(
    [[PAIRS.index((min(i, j), max(i, j))) if i != j else 6 for j in range(N)] for i in range(N)]
)
# PAIR_SIGN[i, j]: the sign of e_i ^ e_j against its basis pair, 0 for i = j
PAIR_SIGN = _table(np.sign(np.arange(N) - np.arange(N)[:, None]))
# rows (i, j, k, l) over the ordered pairs i != j, lexicographic, with k < l
# the other two indices
ORDERED_PAIRS = _table([(i, j, *_others(i, j)) for i in range(N) for j in range(N) if i != j]).T
# rows (i, j, k) over the distinct triples, lexicographic
TRIPLES = _table(
    [(i, j, k) for i in range(N) for j in range(N) for k in range(N) if len({i, j, k}) == 3]
).T
# column l: the other three indices, ascending
OTHERS = _table([_others(l) for l in range(N)]).T
# column l: the triple (i, j, k) of the Z_l sum, the first even permutation
# (i, j, k, l) in lexicographic order; the other two even choices are its
# cyclic rotations
CYCLIC = _table(
    [
        (i, j, k) if _perm_sign((i, j, k, l)) > 0 else (i, k, j)
        for l, (i, j, k) in enumerate(OTHERS.T)
    ]
).T
# the entries off the diagonal of a 4 x 4 array
OFF_DIAGONAL = ~np.eye(N, dtype=bool)
OFF_DIAGONAL.setflags(write=False)
# the column sets of the maximal minors of a 4 x 7 matrix (the six pair
# columns and one more), lexicographic
_C7 = range(len(PAIRS) + 1)
MINOR_COLUMNS = _table(
    [(a, b, c, d) for a in _C7 for b in _C7 for c in _C7 for d in _C7 if a < b < c < d]
)
# PAIR_COLUMN with 0 on the diagonal, where PAIR_SIGN zeroes what it reads
_PAIR_AT = _table(np.where(OFF_DIAGONAL, PAIR_COLUMN, 0))
# a pair operator's indices: the pair (i, j) down its rows, (k, l) across
PAIR_ROWS, PAIR_COLS = PAIR_INDICES[:, :, None], PAIR_INDICES[:, None, :]
# the entries (i, k), (i, l), (j, l), (j, k) of a 4 x 4 array at each [P, Q],
# flat, the four reads last: the 2 x 2 minors and the Kulkarni-Nomizu
# product read them
_i, _j = PAIR_ROWS
_k, _l = PAIR_COLS
_CROSS = _table((4 * np.array([_i, _i, _j, _j]) + np.array([_k, _l, _l, _k])).transpose(1, 2, 0))


def _norm(T, rank):
    """Frobenius norm over the last `rank` axes, leading axes a stack."""
    flat = T.reshape(T.shape[: T.ndim - rank] + (1, -1))
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def tensor_norm(M):
    """The 4-index Frobenius norm of pair operators M (..., 6, 6): twice
    their 6 x 6 norm."""
    return 2.0 * _norm(M, 2)


def pair_entries(M, i, j, k, l):
    """The 4-index components R_ijkl = s_ij s_kl M[P(i, j), P(k, l)] of pair
    operators M (..., 6, 6), at index arrays i, j, k, l that broadcast
    together (0 where i = j or k = l); leading axes of M a stack."""
    sign = PAIR_SIGN[i, j] * PAIR_SIGN[k, l]
    return M[..., _PAIR_AT[i, j], _PAIR_AT[k, l]] * sign


# curvature_tensor's gather: the flat pair entry [P, Q] and the sign of
# each (i, j, k, l), as pair_entries reads them
_a, _b, _c, _d = np.ogrid[:N, :N, :N, :N]
_FULL_AT = _table(6 * _PAIR_AT[_a, _b] + _PAIR_AT[_c, _d])
_FULL_SIGN = PAIR_SIGN[_a, _b] * PAIR_SIGN[_c, _d]
_FULL_SIGN.setflags(write=False)


def curvature_tensor(M):
    """The 4-index tensor R[..., i, j, k, l] of pair operators M (..., 6, 6),
    pair_entries at every (i, j, k, l) in one gather."""
    M = np.asarray(M)
    return M.reshape(M.shape[:-2] + (36,))[..., _FULL_AT] * _FULL_SIGN


def curvature_symmetrize(raw):
    """Project raw pair operators onto the algebraic curvature operators, on
    the last two axes (any leading axes are a stack).

    An operator on the pairs is antisymmetric in each index pair by
    construction; the projection symmetrizes the pair swap, (A + A^T) / 2,
    and removes the totally antisymmetric (Bianchi-violating) part, the
    component along the Hodge star. Being linear, the projection commutes
    with differentiation: the partials of a projected field are the
    projected partials.
    """
    S = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    # <S, star> / <star, star> = (S_0123 + S_0231 + S_0312) / 3, summed in
    # order, so that a value does not depend on the leading axes
    along = (S[..., 0, 5] - S[..., 1, 4] + S[..., 2, 3]) / 3.0
    return S - along[..., None, None] * _STAR


def ricci_contract(R, g_inv):
    """Ricci tensor ric_jl = g^ik R_ijkl and scalar curvature s = g^jl ric_jl
    of pair operators R, over any leading axes of R and g_inv."""
    ric = np.einsum("...ik,...ijkl->...jl", g_inv, curvature_tensor(R))
    return ric, np.einsum("...jl,...jl->...", g_inv, ric)


def kulkarni_nomizu(a, b):
    """(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il on the
    pairs (i, j), (k, l), a pair operator (..., 6, 6).

    Leading axes of a and b broadcast (a stack of forms gives a stack of
    products). With t(a, b)_ijkl = a_ik b_jl - a_il b_jk the product is
    t(a, b) + t(b, a).
    """
    a_ik, a_il, a_jl, a_jk = _crossed(a)
    b_ik, b_il, b_jl, b_jk = _crossed(b)
    return (a_ik * b_jl - a_il * b_jk) + (b_ik * a_jl - b_il * a_jk)


def _crossed(a):
    # a's four entries at _CROSS, each (..., 6, 6)
    a = np.asarray(a, dtype=float)
    x = a.reshape(a.shape[:-2] + (16,))[..., _CROSS]
    return x[..., 0], x[..., 1], x[..., 2], x[..., 3]


def weyl_from_curv(g, R, ric, s):
    """Weyl part W = R - (g ^ Sch) / 2 of a curvature operator (n = 4), with
    the Schouten tensor Sch = ric - s g / 6, over any leading axes. W is
    linear in R, ric and s, so the same call with nabla R, nabla ric, ds and
    g[..., None, :, :] gives nabla W (nabla g = 0). The Ricci contraction of
    W vanishes identically up to roundoff."""
    sch = ric - s[..., None, None] * g / 6.0
    return R - 0.5 * kulkarni_nomizu(g, sch)


def _star_matrix():
    # the star of the standard orientation: e_i ^ e_j -> sign(i j k l) e_k ^ e_l
    i, j, k, l = ORDERED_PAIRS[:, ORDERED_PAIRS[0] < ORDERED_PAIRS[1]]
    M = np.zeros((6, 6))
    M[PAIR_COLUMN[k, l], PAIR_COLUMN[i, j]] = [_perm_sign(p) for p in zip(i, j, k, l)]
    M.setflags(write=False)
    return M


_STAR = _star_matrix()


def bivector_frame(frame):
    """The 2 x 2 minors of frames E (..., 4, 4), whose columns are the frame
    vectors: L[P, A] = E_ia E_jb - E_ib E_ja over the coordinate pairs
    P = (i, j) and the frame pairs A = (a, b), so that e_a ^ e_b =
    sum_P L[P, A] (d_i ^ d_j) and frame_components(M, L) is M in the frame."""
    ia, ib, jb, ja = _crossed(frame)
    return ia * jb - ib * ja


def frame_components(M, minors):
    """Components of pair operators M (..., 6, 6) in a frame, from the 2 x 2
    minors L = bivector_frame(E) of its vectors: L^T M L, whose entry
    [A, B] over the frame pairs A = (a, b), B = (c, d) is
    R(e_a, e_b, e_c, e_d). Leading axes of M and L broadcast (a derivative
    axis of M takes L[..., None, :, :])."""
    L = np.asarray(minors, dtype=float)
    return np.swapaxes(L, -1, -2) @ np.asarray(M, dtype=float) @ L


# normalized self-dual / anti-self-dual bases as columns over the PAIRS axis,
# (e_p +- *e_p)/sqrt2 for the first three pairs p:
# (e1^e2 +- e3^e4)/sqrt2, (e1^e3 -+ e2^e4)/sqrt2, (e1^e4 +- e2^e3)/sqrt2
_SQ = 1.0 / np.sqrt(2.0)
_BASIS_PLUS = (np.eye(6) + _STAR)[:, :3] * _SQ
_BASIS_MINUS = (np.eye(6) - _STAR)[:, :3] * _SQ


@dataclass(frozen=True)
class WeylSplit:
    """3x3 blocks of a Weyl-type operator on the self-dual and anti-self-dual
    bivector subspaces, plus the sectional values sigma[i, j] = W(e_i,e_j,e_i,e_j)."""

    w_plus: np.ndarray
    w_minus: np.ndarray
    sigma: np.ndarray


def sd_split(Wf, orientation):
    """Split a Ricci-traceless curvature operator into its W+ and W- blocks,
    from its components Wf[..., A, B] (frame_components) in orthonormal
    frames of the given orientation (+1 or -1), leading axes a stack: a
    negatively oriented frame flips the star operator, so the split stays
    tied to the coordinate orientation. Raises PreconditionError when a
    Ricci contraction is not ~0 and InconsistencyError when an operator
    fails to commute with the star; both bounds scale with the 4-index
    norm."""
    M = np.asarray(Wf, dtype=float)
    bound = np.maximum(1.0, tensor_norm(M))
    if (_norm(np.einsum("...abad->...bd", curvature_tensor(M)), 2) > 1e-8 * bound).any():
        raise PreconditionError("operator has a nonvanishing Ricci contraction")
    star = orientation * _STAR
    if (_norm(M @ star - star @ M, 2) > 1e-9 * bound).any():
        raise InconsistencyError("operator does not commute with the Hodge star")
    w_plus = _BASIS_PLUS.T @ M @ _BASIS_PLUS
    w_minus = _BASIS_MINUS.T @ M @ _BASIS_MINUS
    if orientation < 0:
        w_plus, w_minus = w_minus, w_plus
    # sigma_ij = s_ij^2 M[P(i, j), P(i, j)]: the diagonal
    sigma = np.where(OFF_DIAGONAL, np.diagonal(M, axis1=-2, axis2=-1)[..., _PAIR_AT], 0.0)
    return WeylSplit(w_plus=w_plus, w_minus=w_minus, sigma=sigma)


def sigma_relations(sigma):
    """The linear relations of W's sectional values sigma[i, j] =
    W(e_i, e_j, e_i, e_j), zero diagonal: the three pairings
    sigma_0j - sigma_kl over the pairs (0, j) and their complements, and the
    four row sums, each summed in column order (W is Ricci-traceless). Both
    vanish for a Weyl tensor. Leading axes of sigma are a stack."""
    i, j, k, l = ORDERED_PAIRS[:, :3]
    a, b, c = OTHERS
    rows = np.arange(N)
    row_sums = sigma[..., rows, a] + sigma[..., rows, b] + sigma[..., rows, c]
    return sigma[..., i, j] - sigma[..., k, l], row_sums
