import numpy as np
import pytest

from curv4.errors import InputError
from curv4.numerics import (
    DEFAULT_STENCIL,
    Jet,
    StencilConfig,
    axis_stencil,
    central_diff,
    halton,
    jet_contract,
    jet_partials,
    numerical_rank,
    stencil_derivative,
    sym_eigen,
)


def test_stencil_config_validation():
    with pytest.raises(InputError):
        StencilConfig(step=0.0)
    with pytest.raises(InputError):
        StencilConfig(order=3)
    assert StencilConfig(order=2).reach == 1
    assert DEFAULT_STENCIL.reach == 2
    assert StencilConfig(order=6).reach == 3


def test_central_diff_polynomial_exact():
    # degree <= order differentiates exactly up to roundoff
    f = lambda x: x[0] ** 2
    assert central_diff(f, np.array([3.0, 0, 0, 0]), 0) == pytest.approx(6.0, abs=1e-9)
    g = lambda x: x[1] ** 4 - 2 * x[1]
    got = central_diff(g, np.array([0.0, 1.5, 0, 0]), 1)
    assert got == pytest.approx(4 * 1.5 ** 3 - 2, abs=1e-9)


def test_central_diff_sin_and_const():
    f = lambda x: np.sin(x[1])
    assert central_diff(f, np.zeros(4), 1, StencilConfig(step=1e-3, order=4)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert central_diff(lambda x: 7.5, np.ones(4), 2) == 0.0


def test_central_diff_array_valued():
    f = lambda x: np.array([x[0] ** 2, np.cos(x[0])])
    got = central_diff(f, np.array([0.5, 0, 0, 0]), 0)
    assert got == pytest.approx([1.0, -np.sin(0.5)], abs=1e-10)


def test_central_diff_order_convergence():
    # truncation error drops with the order on a generic analytic function
    f = lambda x: np.exp(np.sin(2.0 * x[0]))
    x = np.array([0.3, 0, 0, 0])
    exact = 2.0 * np.cos(0.6) * np.exp(np.sin(0.6))
    cfg = lambda o: StencilConfig(step=2e-2, order=o)
    err = [abs(central_diff(f, x, 0, cfg(o)) - exact) for o in (2, 4, 6)]
    assert err[0] > 30 * err[1] > 30 * 30 * err[2]


def test_sym_eigen_basic():
    res = sym_eigen(np.eye(4))
    assert res.values == pytest.approx([1, 1, 1, 1])
    res = sym_eigen(np.diag([3.0, 1.0, 2.0, 1.0]))
    assert res.values == pytest.approx([1, 1, 2, 3])


def test_sym_eigen_reconstruction_and_signs():
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        A = rng.standard_normal((n, n))
        A = A + A.T
        res = sym_eigen(A)
        recon = res.vectors @ np.diag(res.values) @ res.vectors.T
        assert np.max(np.abs(recon - A)) < 1e-10
        assert np.max(np.abs(res.vectors.T @ res.vectors - np.eye(n))) < 1e-12
        for k in range(n):
            lead = np.argmax(np.abs(res.vectors[:, k]))
            assert res.vectors[lead, k] > 0.0


def test_sym_eigen_permutation_invariant_values():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    A = A + A.T
    P = np.eye(4)[[2, 0, 3, 1]]
    assert sym_eigen(P @ A @ P.T).values == pytest.approx(sym_eigen(A).values, abs=1e-12)


def test_sym_eigen_rejects():
    with pytest.raises(InputError):
        sym_eigen(np.arange(16.0).reshape(4, 4))  # not symmetric
    with pytest.raises(InputError):
        sym_eigen(np.eye(5))


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((4, 7))).rank == 0
    M = np.zeros((4, 7))
    M[:, 6] = 1.0
    assert numerical_rank(M).rank == 1
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 7))
    res = numerical_rank(A)
    assert res.rank == 3
    assert np.all(np.diff(res.singular_values) <= 0)


def test_numerical_rank_zero_column_monotone():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 5))
    r0 = numerical_rank(A).rank
    assert numerical_rank(np.hstack([A, np.zeros((4, 1))])).rank == r0


def test_halton_matches_scipy_qmc():
    # the generator replaces scipy.stats.qmc.Halton without moving a sample point
    from scipy.stats import qmc

    for seed in (0, 1, 7, 123):
        for n in (1, 3, 16, 50):
            ref = qmc.Halton(d=4, scramble=True, seed=np.random.default_rng(seed)).random(n)
            assert np.array_equal(halton(n, seed=seed), ref)
    for seed in (0, 1, 837004221):
        for n in (1, 4096):
            ref = qmc.Halton(d=4, scramble=True, seed=np.random.default_rng(seed)).random(n)
            assert np.array_equal(halton(n, seed=seed), ref)
    assert np.array_equal(halton(200), qmc.Halton(d=4, scramble=False).random(200))
    assert np.array_equal(halton(4)[:, 0], [0.0, 0.5, 0.25, 0.75])


def univariate(value, degree=3):
    """The coordinate t at `value` as a jet in one variable."""
    return Jet.variables(np.array([value]), degree)[0]


def test_jet_univariate_taylor_coefficients():
    t0 = 0.3
    t = univariate(t0)
    fact = np.array([1.0, 1.0, 2.0, 6.0])
    assert np.allclose(np.exp(t).coef, np.exp(t0) / fact, rtol=1e-15, atol=0)
    assert np.allclose(
        np.sin(t).coef, [np.sin(t0), np.cos(t0), -np.sin(t0) / 2, -np.cos(t0) / 6], atol=1e-16
    )
    # product and quotient: (1 + t)^2 (1 + t) and 1 / (1 - t) at t = 0
    one = univariate(0.0)
    assert np.allclose(((1.0 + one) * (1.0 + one) * (1.0 + one)).coef, [1, 3, 3, 1], atol=1e-15)
    assert np.allclose((1.0 / (1.0 - one)).coef, [1, 1, 1, 1], atol=1e-15)
    assert np.allclose((t / (2.0 + t)).coef[:2], [t0 / 2.3, 2.0 / 2.3**2], atol=1e-15)
    # powers: binom(p, k) t0^(p - k), and none above k = p for integer p
    assert np.allclose((t**-2.0).coef, [t0**-2, -2 * t0**-3, 3 * t0**-4, -4 * t0**-5], rtol=1e-14)
    assert np.allclose(np.sqrt(t).coef[:2], [np.sqrt(t0), 0.5 / np.sqrt(t0)], rtol=1e-15)
    assert np.array_equal((one**2).coef, [0.0, 0.0, 1.0, 0.0])


def test_jet_multivariate_partials():
    # f = x0^2 x1 + x2 sin(x3): every partial up to third order
    x = np.array([0.5, -1.5, 2.0, 0.7])
    X = Jet.variables(x, 3)
    assert X.shape == (4,) and Jet.variables(x, 3).coef.shape == (4, 35)
    f = X[0] ** 2 * X[1] + X[2] * np.sin(X[3])
    value, d1, d2, d3 = f.derivatives()
    a, b, c, d = x
    assert value == pytest.approx(a * a * b + c * np.sin(d), rel=1e-15)
    assert d1 == pytest.approx([2 * a * b, a * a, np.sin(d), c * np.cos(d)], rel=1e-15)
    H = np.zeros((4, 4))
    H[0, 0], H[0, 1], H[2, 3], H[3, 3] = 2 * b, 2 * a, np.cos(d), -c * np.sin(d)
    H[1, 0], H[3, 2] = H[0, 1], H[2, 3]
    assert np.allclose(d2, H, atol=1e-15)
    T = np.zeros((4, 4, 4))
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        T[idx] = 2.0
    for idx in ((2, 3, 3), (3, 2, 3), (3, 3, 2)):
        T[idx] = -np.sin(d)
    T[3, 3, 3] = -c * np.cos(d)
    assert np.allclose(d3, T, atol=1e-15)


def test_jet_batch_axes():
    # a batch of points, constant matrices and reshapes act on the batch
    pts = np.array([[0.1, 0.2, 0.3, 0.4], [-0.5, 0.0, 0.5, 1.0]])
    X = Jet.variables(pts, 2)
    M = np.arange(12.0).reshape(4, 3)
    Y = np.cos(X @ M).reshape((2, 3, 1)) + np.ones((3, 1))
    assert Y.shape == (2, 3, 1)
    assert np.allclose(Y.value[..., 0], np.cos(pts @ M) + 1.0, atol=1e-15)
    _, d1, _ = Y.derivatives()
    assert np.allclose(d1[..., 0], -np.sin(pts @ M)[None] * M[:, None, :], atol=1e-14)


def test_jet_partials_one_degree_lower():
    # the partials of a degree-d jet are the jets of the partials at d - 1
    x = np.array([0.5, -1.5, 2.0, 0.7])
    for degree in (1, 3, 5):
        X = Jet.variables(x, degree)
        f = X[0] ** 2 * X[1] + X[2] * np.sin(X[3])
        Y = Jet.variables(x, degree - 1)
        grads = [2 * Y[0] * Y[1], Y[0] ** 2, np.sin(Y[3]), Y[2] * np.cos(Y[3])]
        partials = jet_partials(f.coef)
        for p, grad in enumerate(grads):
            assert np.allclose(partials[:, p], grad.coef, atol=1e-14)


def test_jet_contract_matches_jet_products():
    # an einsum of jets of tensors, against products and sums of Jet entries;
    # batch axes ahead of the tensor axes, and the lower degree wins
    rng = np.random.default_rng(3)
    A = Jet(rng.normal(size=(2, 3, 4, 35)))
    B = Jet(rng.normal(size=(2, 4, 3, 15)))
    got = jet_contract("im,mj->ji", np.moveaxis(A.coef, -1, 0), np.moveaxis(B.coef, -1, 0))
    A2 = Jet(A.coef[..., :15])
    for n in range(2):
        for i in range(3):
            for j in range(3):
                ref = sum(A2[n, i, m] * B[n, m, j] for m in range(4))
                assert np.allclose(got[:, n, j, i], ref.coef, atol=1e-13)
    a, b = np.moveaxis(A2.coef[:, :, :3], -1, 0), np.moveaxis(B.coef[:, :3], -1, 0)
    trace = jet_contract("ij,ij->", a, b)
    ref = sum(A2[1, i, j] * B[1, i, j] for i in range(3) for j in range(3))
    assert trace.shape == (15, 2) and np.allclose(trace[:, 1], ref.coef, atol=1e-13)


def test_sym_eigen_stacked_matches_single():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(5, 4, 4))
    A = A + np.swapaxes(A, 1, 2)
    stacked = sym_eigen(A)
    for n in range(5):
        single = sym_eigen(A[n])
        assert np.array_equal(stacked.values[n], single.values)
        assert np.array_equal(stacked.vectors[n], single.vectors)
    with pytest.raises(InputError):
        sym_eigen(np.stack([np.eye(4), np.arange(16.0).reshape(4, 4)]))


def test_axis_stencil_contracts_like_central_diff():
    def f(y):
        return np.array([np.sin(y[0]) * y[1], np.exp(y[2] * y[3]) + y[0] ** 3])

    X = np.array([[0.1, 0.2, 0.3, 0.4], [-0.3, 0.5, 0.1, -0.2]])
    for cfg, step in ((DEFAULT_STENCIL, None), (StencilConfig(order=6), 5e-3)):
        pts = axis_stencil(X, cfg, step)
        assert pts.shape == (2, 4, cfg.reach * 2, 4)
        values = np.array([[[f(p) for p in row] for row in block] for block in pts])
        for n, x in enumerate(X):
            got = stencil_derivative(values[n], cfg, step)
            ref = np.stack([central_diff(f, x, d, cfg, step=step) for d in range(4)])
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_metric_jet_stacked_bases_match_single_points():
    # a formula on the coordinate jets of stacked points gives each point's
    # own jet, at every degree curvature takes
    def f(Y):
        first = (np.sin(Y[..., 0]) * Y[..., 1] * Y[..., 3])[..., None] * np.array([1.0, 0.0])
        return first + np.exp(Y[..., 2] * Y[..., 0])[..., None] * np.array([0.0, 1.0])

    X = np.array([[0.1, 0.2, 0.3, 0.4], [-0.3, 0.5, 0.1, -0.2], [0.0, 0.1, -0.4, 0.2]])
    for degree in (2, 3, 4):
        stacked = f(Jet.variables(X, degree)).derivatives()
        for n, x in enumerate(X):
            for got, ref in zip(stacked, f(Jet.variables(x, degree)).derivatives()):
                assert got[..., n, :].shape == ref.shape
                assert np.max(np.abs(got[..., n, :] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
