import numpy as np
import pytest

from curv4.errors import InconsistencyError, InputError, PreconditionError
from curv4.numerics import sym_eigen
from curv4.tensor4 import (
    PAIRS,
    Curv4,
    Metric4,
    bivector_matrix,
    check_weyl_frame_identities,
    curvature_symmetrize,
    frame_components,
    hodge_star,
    invariants_from_sectional,
    kulkarni_nomizu,
    ricci_contract,
    sd_split,
    sectional_from_invariants,
    weyl_from_curv,
)


def constant_curvature_tensor(g, K=1.0):
    """R_ijkl = K (g_ik g_jl - g_il g_jk), sectional curvature K."""
    return K * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g))


def random_algebraic_curvature(seed):
    """Sums of Kulkarni-Nomizu squares have all curvature symmetries."""
    rng = np.random.default_rng(seed)
    R = np.zeros((4, 4, 4, 4))
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        R += kulkarni_nomizu(a + a.T, b + b.T)
    return R


def product_s2xs2_curvature(k1=1.0, k2=1.0):
    """Orthonormal-frame curvature of S2(k1) x S2(k2): two sectional blocks."""
    R = np.zeros((4, 4, 4, 4))
    for (i, j, k) in ((0, 1, k1), (2, 3, k2)):
        R[i, j, i, j] = R[j, i, j, i] = k
        R[i, j, j, i] = R[j, i, i, j] = -k
    return R


def test_metric4_validation():
    m = Metric4(g=np.diag([1.0, 4.0, 1.0, 1.0]))
    assert np.max(np.abs(m.g @ m.g_inv - np.eye(4))) < 1e-10
    with pytest.raises(InputError):
        Metric4(g=np.arange(16.0).reshape(4, 4))
    with pytest.raises(InputError):
        Metric4(g=np.diag([1.0, -1.0, 1.0, 1.0]))


def test_curvature_symmetrize_fixed_point():
    R = constant_curvature_tensor(np.eye(4))
    out = curvature_symmetrize(R)
    assert np.max(np.abs(out.R - R)) < 1e-14
    assert out.projection_distance < 1e-14


def test_curvature_symmetrize_removes_noise():
    R = constant_curvature_tensor(np.eye(4))
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((4, 4, 4, 4)) * 1e-8
    anti = noise + np.einsum("jikl->ijkl", noise)  # symmetric in (ij): killed
    out = curvature_symmetrize(R + anti)
    assert np.max(np.abs(out.R - R)) < 1e-7
    assert curvature_symmetrize(np.zeros((4,) * 4)).norm == 0.0


def test_curvature_symmetrize_rejects_garbage():
    rng = np.random.default_rng(0)
    with pytest.raises(InconsistencyError):
        curvature_symmetrize(rng.standard_normal((4, 4, 4, 4)))


def test_curv4_invariant_check():
    bad = np.zeros((4, 4, 4, 4))
    bad[0, 1, 2, 3] = 1.0  # violates every symmetry
    with pytest.raises(InputError):
        Curv4(R=bad)


def test_ricci_contract_constant_curvature():
    m = Metric4(g=np.eye(4))
    ric, s = ricci_contract(constant_curvature_tensor(m.g), m)
    assert np.max(np.abs(ric.b - 3.0 * np.eye(4))) < 1e-12
    assert s == pytest.approx(12.0, abs=1e-12)
    ric0, s0 = ricci_contract(np.zeros((4,) * 4), m)
    assert np.all(ric0.b == 0.0) and s0 == 0.0


def test_kulkarni_nomizu_identities():
    g = np.eye(4)
    assert np.max(np.abs(kulkarni_nomizu(g, g / 2) - constant_curvature_tensor(g))) == 0.0
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = rng.standard_normal((4, 4))
    b = b + b.T
    assert np.max(np.abs(kulkarni_nomizu(a, b) - kulkarni_nomizu(b, a))) < 1e-12
    assert np.all(kulkarni_nomizu(np.zeros((4, 4)), b) == 0.0)


def test_weyl_constant_curvature_vanishes():
    m = Metric4(g=np.eye(4))
    W = weyl_from_curv(constant_curvature_tensor(m.g, 2.5), m)
    assert W.norm < 1e-12


def test_weyl_traceless_for_generic_curvature():
    for seed in range(4):
        R = random_algebraic_curvature(seed)
        m = Metric4(g=np.eye(4))
        W = weyl_from_curv(R, m)
        ric, _ = ricci_contract(W, m)
        assert np.linalg.norm(ric.b) < 1e-9 * np.linalg.norm(R)


def test_weyl_s2xs2_sigma_values():
    # S2(1) x S2(1): sigma_12 = 2/3, sigma_13 = sigma_14 = -1/3
    m = Metric4(g=np.eye(4))
    R = product_s2xs2_curvature()
    ric, s = ricci_contract(R, m)
    assert np.max(np.abs(ric.b - np.eye(4))) < 1e-12 and s == pytest.approx(4.0)
    W = weyl_from_curv(R, m)
    assert W.R[0, 1, 0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert W.R[0, 2, 0, 2] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert W.R[0, 3, 0, 3] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_hodge_star():
    star = hodge_star().M
    assert np.array_equal(star @ star, np.eye(6))
    assert np.trace(star) == 0.0
    e12 = np.zeros(6)
    e12[0] = 1.0
    out = star @ e12
    assert out[5] == 1.0 and np.count_nonzero(out) == 1  # e1^e2 -> e3^e4


def test_sd_split_zero_and_traces():
    m = Metric4(g=np.eye(4))
    split = sd_split(np.zeros((4,) * 4), m, np.eye(4))
    assert np.all(split.w_plus == 0.0) and np.all(split.w_minus == 0.0)
    for seed in range(4):
        W = weyl_from_curv(random_algebraic_curvature(seed), m)
        split = sd_split(W, m, np.eye(4))
        tp, tm = split.traces
        assert abs(tp) < 1e-10 * max(1.0, W.norm)
        assert abs(tm) < 1e-10 * max(1.0, W.norm)
        assert np.max(np.abs(split.w_plus - split.w_plus.T)) < 1e-12


def test_sd_split_s2xs2_spectrum():
    m = Metric4(g=np.eye(4))
    W = weyl_from_curv(product_s2xs2_curvature(), m)
    split = sd_split(W, m, np.eye(4))
    spec = sym_eigen(split.w_plus).values
    assert spec == pytest.approx([-1 / 3, -1 / 3, 2 / 3], abs=1e-12)
    assert split.sigma[0, 1] == pytest.approx(2 / 3)
    assert split.sigma[2, 3] == pytest.approx(2 / 3)
    assert split.sigma[0, 2] == pytest.approx(-1 / 3)


def test_sd_split_orientation_swap():
    # flipping one frame vector swaps the roles of L+ and L-
    m = Metric4(g=np.eye(4))
    W = weyl_from_curv(random_algebraic_curvature(2), m)
    E = np.eye(4)
    F = E.copy()
    F[:, 3] = -F[:, 3]
    a = sd_split(W, m, E)
    b = sd_split(W, m, F)
    assert sym_eigen(a.w_plus).values == pytest.approx(sym_eigen(b.w_plus).values, abs=1e-12)


def test_sd_split_rejects_nonweyl():
    m = Metric4(g=np.eye(4))
    with pytest.raises(PreconditionError):
        sd_split(constant_curvature_tensor(m.g), m, np.eye(4))
    W = weyl_from_curv(random_algebraic_curvature(1), m)
    with pytest.raises(InputError):
        sd_split(W, m, 2.0 * np.eye(4))  # not orthonormal


def test_sectional_roundtrip_product_values():
    sigma = np.zeros((4, 4))
    pairs = {(0, 1): 1.0, (2, 3): 1.0, (0, 2): -0.5, (0, 3): -0.5, (1, 2): -0.5, (1, 3): -0.5}
    for (i, j), v in pairs.items():
        sigma[i, j] = sigma[j, i] = v
    lam = np.array([-0.5, -0.5, 0.5, 0.5])
    sec = sectional_from_invariants(sigma, lam, 6.0)
    assert sec[0, 1] == pytest.approx(1.0, abs=1e-13)  # R_1212 of S2(1) x S2(2)
    assert sec[2, 3] == pytest.approx(2.0, abs=1e-13)
    assert sec[0, 2] == pytest.approx(0.0, abs=1e-13)
    sig2, lam2, s2 = invariants_from_sectional(sec)
    assert np.max(np.abs(sig2 - sigma)) < 1e-13
    assert np.max(np.abs(lam2 - lam)) < 1e-13
    assert s2 == pytest.approx(6.0, abs=1e-12)


def test_sectional_roundtrip_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        sec = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                sec[i, j] = sec[j, i] = rng.standard_normal()
        sig, lam, s = invariants_from_sectional(sec)
        assert abs(lam.sum()) < 1e-13
        back = sectional_from_invariants(sig, lam, s)
        assert np.max(np.abs(back - sec)) < 1e-13
    zero = sectional_from_invariants(np.zeros((4, 4)), np.zeros(4), 0.0)
    assert np.all(zero == 0.0)


def test_check_weyl_frame_identities():
    sigma = np.zeros((4, 4))
    vals = {(0, 1): 2 / 3, (2, 3): 2 / 3, (0, 2): -1 / 3, (1, 3): -1 / 3, (0, 3): -1 / 3, (1, 2): -1 / 3}
    for (i, j), v in vals.items():
        sigma[i, j] = sigma[j, i] = v
    res = check_weyl_frame_identities(sigma)
    assert max(abs(v) for v in res.values()) < 1e-15
    sigma[0, 1] += 0.01
    sigma[1, 0] += 0.01
    res = check_weyl_frame_identities(sigma)
    assert max(abs(v) for v in res.values()) == pytest.approx(0.01)
    assert max(abs(v) for v in check_weyl_frame_identities(np.zeros((4, 4))).values()) == 0.0


def test_frame_components_rotation():
    # components transform correctly under an orthogonal change of frame
    m = Metric4(g=np.eye(4))
    R = random_algebraic_curvature(4)
    th = 0.3
    E = np.eye(4)
    E[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    Rf = frame_components(R, E)
    assert Rf[2, 3, 2, 3] == pytest.approx(R[2, 3, 2, 3], abs=1e-12)
    v = E[:, 0]
    assert Rf[0, 1, 0, 1] == pytest.approx(
        np.einsum("ijkl,i,j,k,l->", R, v, E[:, 1], v, E[:, 1]), abs=1e-12
    )


def test_frame_components_and_bivector_gather_match_loop_references():
    # frame_components against the tensordot chain it replaced, at ranks 4
    # and 5, and bivector_matrix and the star against their loops
    rng = np.random.default_rng(8)
    E = rng.normal(size=(4, 4))
    for rank in (4, 5):
        T = rng.normal(size=(4,) * rank)
        ref = T
        for _ in range(rank):
            ref = np.tensordot(ref, E, axes=(0, 0))
        assert np.allclose(frame_components(T, E), ref, rtol=1e-14, atol=1e-14)
    A = rng.normal(size=(4, 4, 4, 4))
    M = np.empty((6, 6))
    for q, (i, j) in enumerate(PAIRS):
        for p, (k, l) in enumerate(PAIRS):
            M[p, q] = A[i, j, k, l]
    assert np.array_equal(bivector_matrix(A), M)
    star = np.zeros((6, 6))
    for p, (i, j) in enumerate(PAIRS):
        k, l = sorted(set(range(4)) - {i, j})
        star[PAIRS.index((k, l)), p] = np.linalg.det(np.eye(4)[[i, j, k, l]])
    for orientation in (1, -1):
        assert np.array_equal(hodge_star(orientation).M, orientation * star)
