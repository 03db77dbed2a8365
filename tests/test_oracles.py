"""A sympy oracle for the closed-form registry charts.

The curvature tensor R, the scalar curvature s and its gradient are derived
here from each chart's metric written out in sympy (Christoffel symbols,
their derivatives, contractions), with no curv4 code, and checked against
curv4's third-order curvature entries and against the sectional curvatures
that curv4 rebuilds from the structure functions F and DF of its frames.
"""

import functools
import itertools

import numpy as np
import pytest
import sympy as sp

import curv4

X = sp.symbols("x0:4", real=True)


def _conformal(k, *coords):
    return (1 + sp.Rational(k) * sum(y**2 for y in coords) / 4) ** -2


def _metric(name):
    if name in ("s4", "h4"):
        return _conformal(1 if name == "s4" else -1, *X) * sp.eye(4)
    if name == "s2xs2:1,2":
        c1, c2 = _conformal(1, X[0], X[1]), _conformal(2, X[2], X[3])
        return sp.diag(c1, c1, c2, c2)
    if name == "rxs3":
        c = _conformal(1, *X[1:])
        return sp.diag(1, c, c, c)
    assert name == "bump:0.1"
    return sp.exp(2 * sp.Rational(1, 10) * X[0] ** 3) * sp.eye(4)


# s of the space forms and products: 12 K for curvature K, 2 k per surface,
# 6 c for a 3-dimensional factor; the bump's s is checked on its formula
CLOSED_FORM_S = {"s4": 12, "h4": -12, "s2xs2:1,2": 6, "rxs3": 6}
BUMP_S = -6 * sp.exp(-sp.Rational(1, 5) * X[0] ** 3) * (
    sp.Rational(3, 5) * X[0] + sp.Rational(9, 100) * X[0] ** 4
)
# where the bump's ds vanishes: d/dx1 of BUMP_S is zero at x1^6 = 0.6 / 0.054
BUMP_FLAT_X1 = (0.6 / 0.054) ** (1.0 / 6.0)
NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "bump:0.1"]


@functools.cache
def _christoffel(name):
    """g, g^-1 and G[k][i][j] = Gamma^k_ij of the chart's sympy metric."""
    g = _metric(name)
    g_inv = sp.diag(*[1 / g[i, i] for i in range(4)])  # every metric here is diagonal
    d = [[[sp.diff(g[i, j], X[k]) for k in range(4)] for j in range(4)] for i in range(4)]
    gamma = [
        [
            [
                sum(g_inv[k, m] * (d[j][m][i] + d[i][m][j] - d[i][j][m]) for m in range(4)) / 2
                for j in range(4)
            ]
            for i in range(4)
        ]
        for k in range(4)
    ]
    return g, g_inv, gamma


@functools.cache
def _scalar_curvature(name):
    """s of the chart's sympy metric: R_ij = d_k G^k_ij - d_j G^k_ik
    + G^k_kl G^l_ij - G^k_jl G^l_ik, s = g^ij R_ij."""
    _, g_inv, gamma = _christoffel(name)
    s = 0
    for i in range(4):
        for j in range(4):
            if g_inv[i, j] == 0:
                continue
            ric = sum(
                sp.diff(gamma[k][i][j], X[k])
                - sp.diff(gamma[k][i][k], X[j])
                + sum(gamma[k][k][m] * gamma[m][i][j] - gamma[k][j][m] * gamma[m][i][k] for m in range(4))
                for k in range(4)
            )
            s += g_inv[i, j] * ric
    return s


@functools.cache
def _riemann_tensor(name):
    """R[i, j, k, l] = g_lm R^m_ijk with R^m_ijk = d_j G^m_ik - d_i G^m_jk
    + G^p_ik G^m_jp - G^p_jk G^m_ip, positive R_ijij on round spheres."""
    g, _, gamma = _christoffel(name)
    R = sp.MutableDenseNDimArray.zeros(4, 4, 4, 4)
    for i, j, k in itertools.product(range(4), repeat=3):
        for m in range(4):
            rm = (
                sp.diff(gamma[m][i][k], X[j])
                - sp.diff(gamma[m][j][k], X[i])
                + sum(
                    gamma[p][i][k] * gamma[m][j][p] - gamma[p][j][k] * gamma[m][i][p]
                    for p in range(4)
                )
            )
            R[i, j, k, m] = g[m, m] * rm
    return R


def _numeric(expr):
    """x -> the array of a sympy expression (nested lists) at x."""
    fn = sp.lambdify(X, expr, "math")
    return lambda x: np.array(fn(*x), dtype=float)


@functools.cache
def _riemann(name):
    """x -> R[i, j, k, l] of _riemann_tensor."""
    return _numeric(_riemann_tensor(name).tolist())


@functools.cache
def _nabla_ricci(name):
    """nabla_q ric_ij [q][i][j] = d_q ric_ij - G^m_qi ric_mj - G^m_qj ric_im,
    with ric_jl = g^ik R_ijkl, and ds_q = d_q s."""
    _, g_inv, gamma = _christoffel(name)
    R = _riemann_tensor(name)
    ric = [[sum(g_inv[i, i] * R[i, j, i, l] for i in range(4)) for l in range(4)] for j in range(4)]
    nabla = [
        [
            [
                sp.diff(ric[i][j], X[q])
                - sum(gamma[m][q][i] * ric[m][j] + gamma[m][q][j] * ric[i][m] for m in range(4))
                for j in range(4)
            ]
            for i in range(4)
        ]
        for q in range(4)
    ]
    return nabla, [sp.diff(_scalar_curvature(name), y) for y in X]


@pytest.mark.parametrize("name", NAMES)
def test_scalar_curvature_matches_sympy(name):
    s = _scalar_curvature(name)
    s_fn = sp.lambdify(X, s, "math")
    ds_fn = sp.lambdify(X, [sp.diff(s, y) for y in X], "math")
    closed = sp.lambdify(X, BUMP_S if name == "bump:0.1" else CLOSED_FORM_S[name], "math")
    chart = curv4.build_example(name)
    for x in curv4.sample_points(chart, count=3, seed=0):
        entry = curv4.curvature_at(chart, x, degree=3)
        # the oracle's own s agrees with the closed form
        assert s_fn(*x) == pytest.approx(closed(*x), rel=1e-12, abs=1e-12)
        assert entry.s == pytest.approx(s_fn(*x), rel=1e-10, abs=1e-10)
        assert entry.ds == pytest.approx(np.array(ds_fn(*x)), rel=1e-9, abs=1e-9)


def test_bump_is_harmonic_where_its_ds_vanishes():
    # a conformally flat 4-metric has d^nabla Ric = ds ^ g / 6, so at the
    # zero of the bump's ds its curvature is harmonic
    ds1 = sp.lambdify(X[0], sp.diff(BUMP_S, X[0]), "math")
    assert abs(ds1(BUMP_FLAT_X1)) < 1e-14
    assert abs(ds1(BUMP_FLAT_X1 + 1e-3)) > 1e-3
    chart = curv4.build_example("bump:0.1")
    for x in ([BUMP_FLAT_X1, 0.0, 0.0, 0.0], [BUMP_FLAT_X1, 0.3, -0.2, 0.1]):
        x = np.array(x)
        assert curv4.codazzi_residual(chart, x) < 1e-12
        assert curv4.scalar_gradient_norm(chart, x) < 1e-12


@pytest.mark.parametrize("name", NAMES)
def test_riemann_tensor_matches_sympy(name):
    chart = curv4.build_example(name)
    R = _riemann(name)
    for x in curv4.sample_points(chart, count=3, seed=0):
        exact = R(x)
        scale = max(1.0, float(np.abs(exact).max()))
        got = curv4.curvature_tensor(curv4.curvature_at(chart, x).R)
        assert np.max(np.abs(got - exact)) <= 1e-10 * scale
    if name == "s4":
        # the sign convention: R_ijij = K g_ii g_jj > 0 on the round sphere
        assert R(np.zeros(4))[0, 1, 0, 1] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["s2xs2:1,2", "bump:0.1"])
def test_sectional_curvature_from_structure_matches_sympy(name):
    # F and DF alone rebuild R_ijij in the reported frame: the product's
    # coordinate frame, and the bump's frame with its 3-point cluster
    chart = curv4.build_example(name)
    R = _riemann(name)
    for x in curv4.sample_points(chart, count=3, seed=1):
        fr = curv4.extract_frame(chart, x)
        sec, _ = curv4.curvature_from_structure(curv4.structure_data(chart, fr), fr)
        Rf = np.einsum("abcd,ai,bj,ck,dl->ijkl", R(x), fr.E, fr.E, fr.E, fr.E)
        assert np.max(np.abs(sec - np.einsum("ijij->ij", Rf))) <= 1e-8


@pytest.mark.parametrize("name", NAMES)
def test_degree_three_curvature_matches_sympy(name):
    # R on the pairs, nabla Ric and ds of a degree-3 batch against the
    # oracle's, at the samples of a default verify
    chart = curv4.build_example(name)
    nabla, ds = _nabla_ricci(name)
    R, nabla_ric, ds = _riemann(name), _numeric(nabla), _numeric(ds)
    X3 = curv4.sample_points(chart, count=4, seed=0)
    batch = curv4.chart.curvature_batch(chart, X3, degree=3)
    for n, x in enumerate(X3):
        exact = R(x)
        scale = max(1.0, float(np.abs(exact).max()))
        assert np.max(np.abs(curv4.curvature_tensor(batch.R[n]) - exact)) <= 1e-10 * scale
        ref = nabla_ric(x)
        assert np.max(np.abs(batch.nabla_ric[n] - ref)) <= 1e-9 * max(1.0, np.abs(ref).max())
        assert batch.ds[n] == pytest.approx(ds(x), rel=1e-9, abs=1e-9)


def test_degree_four_eigen_harvest_matches_sympy():
    # extract_frame takes one degree-4 jet and carries nabla Ric to first
    # order for structure_data; its value and
    # partials are the oracle's, as are the jet's R and ds
    name = "bump:0.1"
    chart = curv4.build_example(name)
    nabla, ds = _nabla_ricci(name)
    partials = _numeric([[[[sp.diff(e, y) for e in row] for row in m] for m in nabla] for y in X])
    R, nabla_ric, ds = _riemann(name), _numeric(nabla), _numeric(ds)
    for x in curv4.sample_points(chart, count=3, seed=1):
        fr = curv4.extract_frame(chart, x)
        assert fr.source == "eigen"
        ref = np.concatenate([nabla_ric(x)[None], partials(x)])
        got = fr.jets["nabla_ric"]
        assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.abs(ref).max())
        jets = curv4.chart.curvature_jets(chart, x[None], 4)
        exact = R(x)
        scale = max(1.0, float(np.abs(exact).max()))
        assert np.max(np.abs(curv4.curvature_tensor(jets["R"][0, 0]) - exact)) <= 1e-10 * scale
        assert jets["ds"][0, 0] == pytest.approx(ds(x), rel=1e-9, abs=1e-9)
