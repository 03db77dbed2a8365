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


def _norm(T, rank):
    """Frobenius norm over the last `rank` axes, leading axes a stack."""
    flat = T.reshape(T.shape[: T.ndim - rank] + (1, -1))
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def _slots(T, *perm):
    # T with its last four axes permuted, leading axes kept
    lead = tuple(range(T.ndim - 4))
    return T.transpose(lead + tuple(len(lead) + p for p in perm))


def curvature_symmetrize(raw):
    """Project raw arrays onto the algebraic curvature tensors, on the last
    four axes (any leading axes are a stack).

    Antisymmetrize both index pairs, symmetrize the pair swap, then remove
    the totally antisymmetric (Bianchi-violating) part. Being linear, the
    projection commutes with differentiation: the partials of a projected
    field are the projected partials.
    """
    A = 0.25 * (raw - _slots(raw, 1, 0, 2, 3) - _slots(raw, 0, 1, 3, 2) + _slots(raw, 1, 0, 3, 2))
    P = 0.5 * (A + _slots(A, 2, 3, 0, 1))
    # cyclic sum over the first three slots is totally antisymmetric here
    B = P + _slots(P, 1, 2, 0, 3) + _slots(P, 2, 0, 1, 3)
    return P - B / 3.0


def ricci_contract(R, g_inv):
    """Ricci tensor ric_jl = g^ik R_ijkl and scalar curvature s = g^jl ric_jl,
    over any leading axes of R and g_inv."""
    ric = np.einsum("...ik,...ijkl->...jl", g_inv, R)
    return ric, np.einsum("...jl,...jl->...", g_inv, ric)


def kulkarni_nomizu(a, b):
    """(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il.

    Leading axes of a and b broadcast (a stack of forms gives a stack of
    products). The four terms are the one outer product t_ijkl = a_ik b_jl
    read with its slots swapped.
    """
    t = np.einsum("...ik,...jl->...ijkl", a, b)
    return t + _slots(t, 1, 0, 3, 2) - _slots(t, 0, 1, 3, 2) - _slots(t, 1, 0, 2, 3)


def weyl_from_curv(g, R, ric, s):
    """Weyl part W = R - (g ^ Sch) / 2 of a curvature tensor (n = 4), with
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


def frame_components(R, frame):
    """Components T(e_a, e_b, ...) of a covariant tensor of any rank in a
    frame given by the columns of `frame`. Leading axes of `frame` (..., 4, 4)
    are a stack, which R shares ahead of its tensor slots."""
    T = np.asarray(R, dtype=float)
    E = np.asarray(frame, dtype=float)
    lead = E.shape[:-2]
    # contract the first slot with E, once per slot: the slot-first matrix,
    # transposed, times E appends the new frame index last, so the result
    # comes out ordered (a, b, c, ...)
    out = T
    for _ in range(T.ndim - len(lead)):
        out = out.reshape(lead + (N, -1)).swapaxes(-1, -2) @ E
    return out.reshape(T.shape)


# bivector_matrix's gather: entry [p, q] reads slots (i_q, j_q, k_p, l_p)
_BIVECTOR_GATHER = (*PAIR_INDICES, *PAIR_INDICES[:, :, None])


def bivector_matrix(A_frame):
    """6x6 matrix of a curvature-type tensor acting on bivectors, over any
    leading axes.

    In an orthonormal frame the operator sends e_i ^ e_j to
    sum_{k<l} A_ijkl e_k ^ e_l, so entry [(kl),(ij)] is A_ijkl.
    """
    return np.asarray(A_frame)[(..., *_BIVECTOR_GATHER)]


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
    """Split a Ricci-traceless curvature tensor into its W+ and W- blocks,
    from its components Wf[..., a, b, c, d] in orthonormal frames of the
    given orientation (+1 or -1), leading axes a stack: a negatively oriented
    frame flips the star operator, so the split stays tied to the coordinate
    orientation. Raises PreconditionError when a Ricci contraction is not ~0
    and InconsistencyError when an operator fails to commute with the star."""
    Wf = np.asarray(Wf, dtype=float)
    bound = np.maximum(1.0, _norm(Wf, 4))
    if (_norm(np.einsum("...abad->...bd", Wf), 2) > 1e-8 * bound).any():
        raise PreconditionError("operator has a nonvanishing Ricci contraction")
    M = bivector_matrix(Wf)
    star = orientation * _STAR
    if (_norm(M @ star - star @ M, 2) > 1e-9 * bound).any():
        raise InconsistencyError("operator does not commute with the Hodge star")
    w_plus = _BASIS_PLUS.T @ M @ _BASIS_PLUS
    w_minus = _BASIS_MINUS.T @ M @ _BASIS_MINUS
    if orientation < 0:
        w_plus, w_minus = w_minus, w_plus
    sigma = np.where(OFF_DIAGONAL, np.einsum("...ijij->...ij", Wf), 0.0)
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
