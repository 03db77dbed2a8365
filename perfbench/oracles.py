"""Correctness oracles computed apart from curv4.

Nothing here imports curv4. Curvature of the closed-form charts comes from
sympy applied to the metric formulas; the variety equations are written out
again from their definitions; verdicts, exit codes and case labels are the
known answers for each registry example.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import sympy as sp

X = sp.symbols("x1:5", real=True)

# Known answers per registry kind: expected exit code of `curv4 verify`.
EXPECTED_EXIT = {"s4": 0, "h4": 0, "s2xs2": 0, "rxs3": 0, "kpc": 0, "bump": 1, "randflat": 1}


def _conformal(k, coords):
    return (1 + sp.Rational(1, 4) * k * sum(c * c for c in coords)) ** -2


def metric_expr(kind, params):
    """The 4x4 metric of a closed-form registry chart as a sympy matrix."""
    x1, x2, x3, x4 = X
    if kind in ("s4", "h4"):
        k = 1 if kind == "s4" else -1
        return _conformal(k, X) * sp.eye(4)
    if kind == "s2xs2":
        k1, k2 = (sp.nsimplify(p) for p in params)
        c1, c2 = _conformal(k1, (x1, x2)), _conformal(k2, (x3, x4))
        return sp.diag(c1, c1, c2, c2)
    if kind == "rxs3":
        c = _conformal(sp.nsimplify(params[0]), (x2, x3, x4))
        return sp.diag(1, c, c, c)
    if kind == "bump":
        a = sp.nsimplify(params[0])
        return sp.exp(2 * a * x1**3) * sp.eye(4)
    raise KeyError(f"no closed form for {kind!r}")


@lru_cache(maxsize=None)
def exact_curvature(kind, params=()):
    """(metric(x), R(x)) as numpy callables, with R[a,b,c,d] = R_abcd lowered so
    that R_abab is the sectional curvature of (d_a, d_b) times its area.

    The Christoffel symbols and their partials are exact sympy derivatives of
    the metric; the quadratic terms of R are assembled numerically.
    """
    g = metric_expr(kind, params)
    ginv = sp.diag(*[1 / g[i, i] for i in range(4)]) if g.is_diagonal() else g.inv()
    n = range(4)
    dg = [[[sp.diff(g[a, b], X[c]) for c in n] for b in n] for a in n]
    # gam[r][a][b] = Gamma^r_ab
    gam = [
        [
            [sum(ginv[r, m] * (dg[m][a][b] + dg[m][b][a] - dg[a][b][m]) for m in n) / 2 for b in n]
            for a in n
        ]
        for r in n
    ]
    dgam = [[[[sp.diff(gam[r][a][b], X[c]) for c in n] for b in n] for a in n] for r in n]
    fn = sp.lambdify([X], [g, gam, dgam], "numpy")

    def parts(x):
        return [np.array(v, dtype=float) for v in fn(np.asarray(x, dtype=float))]

    def metric(x):
        return parts(x)[0]

    def riemann(x):
        gx, gm, dgm = parts(x)
        # R^r_{s m v} = d_m Gamma^r_{vs} - d_v Gamma^r_{ms}
        #             + Gamma^r_{ml} Gamma^l_{vs} - Gamma^r_{vl} Gamma^l_{ms}
        up = (
            np.einsum("rvsm->rsmv", dgm)
            - np.einsum("rmsv->rsmv", dgm)
            + np.einsum("rml,lvs->rsmv", gm, gm)
            - np.einsum("rvl,lms->rsmv", gm, gm)
        )
        return np.einsum("ar,rbmv->abmv", gx, up)

    return metric, riemann


def scalar_curvature(kind, params, x):
    metric, riemann = exact_curvature(kind, tuple(params))
    g_inv = np.linalg.inv(metric(x))
    R = riemann(x)
    # Ric_bv = R^a_{b a v}, s = g^{bv} Ric_bv
    ric = np.einsum("ar,rbav->bv", g_inv, R)
    return float(np.einsum("bv,bv->", g_inv, ric))


def sectional_in_frame(kind, params, x, E):
    """K(e_i, e_j) for the columns of E, which must be g-orthonormal."""
    metric, riemann = exact_curvature(kind, tuple(params))
    g = metric(x)
    E = np.asarray(E, dtype=float)
    gram = E.T @ g @ E
    if np.max(np.abs(gram - np.eye(4))) > 1e-8:
        raise AssertionError(f"frame is not orthonormal in the exact metric: {gram.tolist()}")
    Rf = np.einsum("abmv,ai,bj,mk,vl->ijkl", riemann(x), E, E, E, E)
    return np.array([[Rf[i, j, i, j] if i != j else 0.0 for j in range(4)] for i in range(4)])


# -- the polynomial system, written out again from its definition ----------


def _parity(p):
    return sum(1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b]) % 2


def variety_residuals(F, sigma, lam):
    """Residuals of the variety equations at (F, sigma, lam).

    eq1: lam_1+..+lam_4 = 0, sigma_ij = sigma_ji, sigma_ij = sigma_kl for
    complementary pairs, sum_j sigma_ij = 0. fsi: H_ji Z_j + H_ij Z_i = 0
    with H_ij = F_kl F_lj + F_lk F_kj - F_kj F_lj and Z_l the cyclic sum
    (lam_i - lam_j) s_ij + (lam_j - lam_k) s_jk + (lam_k - lam_i) s_ki over
    an even permutation (i, j, k, l). fsp: the fourth singular value of the
    4x7 matrix [H_ij in the column of pair {i,j} | 1], over max(1, largest).
    """
    F = np.asarray(F, dtype=float)
    s = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    eq1 = abs(lam.sum())
    eq1 = max(eq1, float(np.max(np.abs(s - s.T))))
    for i in range(4):
        eq1 = max(eq1, abs(sum(s[i, j] for j in range(4) if j != i)))
        for j in range(4):
            if i != j:
                k, l = (m for m in range(4) if m not in (i, j))
                eq1 = max(eq1, abs(s[i, j] - s[k, l]))
    H = np.zeros((4, 4))
    for i, j in itertools.permutations(range(4), 2):
        k, l = (m for m in range(4) if m not in (i, j))
        H[i, j] = F[k, l] * F[l, j] + F[l, k] * F[k, j] - F[k, j] * F[l, j]
    Z = np.zeros(4)
    for p in itertools.permutations(range(4)):
        if _parity(p) == 0:
            i, j, k, l = p
            # the three even choices for one l give the same cyclic sum
            Z[l] = (lam[i] - lam[j]) * s[i, j] + (lam[j] - lam[k]) * s[j, k] + (lam[k] - lam[i]) * s[k, i]
    fsi = max(abs(H[j, i] * Z[j] + H[i, j] * Z[i]) for i, j in itertools.combinations(range(4), 2))
    M = np.ones((4, 7))
    for i in range(4):
        for c, (a, b) in enumerate(itertools.combinations(range(4), 2)):
            M[i, c] = H[i, b if a == i else a] if i in (a, b) else 0.0
    sv = np.linalg.svd(M, compute_uv=False)
    return {"eq1": float(eq1), "fsi": float(fsi), "fsp.sv4": float(sv[3] / max(1.0, sv[0]))}


def rescaled(F, sigma, lam, t):
    """The weighted rescaling (sqrt(t) F, t sigma, t lam) of a metric change g -> g/t."""
    return np.sqrt(t) * np.asarray(F, dtype=float), t * np.asarray(sigma), t * np.asarray(lam)


def membership_failures(F, sigma, lam, tol, scales=(0.5, 2.0)):
    """Why (F, sigma, lam) and its weighted rescalings are not on the variety.

    Under the rescaling eq1 scales by t and fsi by t^3, and the rank test
    moves by at most max(t, 1/t), so the rescaled point is held to the
    tolerance times those factors.
    """
    bad = []
    for t in (1.0,) + tuple(scales):
        res = variety_residuals(*rescaled(F, sigma, lam, t))
        limits = {"eq1": tol * max(1.0, t), "fsi": tol * max(1.0, t**3), "fsp.sv4": tol * max(t, 1.0 / t)}
        for key, lim in limits.items():
            if not res[key] <= lim:
                bad.append(f"{key}={res[key]:.3e} > {lim:.1e} at scale {t:g}")
    return bad
