import io
import itertools

import numpy as np
import pytest

import curv4.variety as variety
from curv4.errors import InputError
from curv4.variety import (
    VarietyPoint,
    export_csv,
    from_frame,
    fsp_matrix,
    h_components,
    permute_point,
    product_sigma_point,
    sample_variety,
    system_residuals,
    z_components,
)


def _parity(perm):
    inv = sum(
        1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b]
    )
    return 1 if inv % 2 == 0 else -1


def brute_force_h(F):
    """H_ij from the defining formula, checked over every index instance."""
    H = np.zeros((4, 4))
    for (i, j) in itertools.permutations(range(4), 2):
        vals = []
        for perm in itertools.permutations(range(4)):
            if perm[0] == i and perm[1] == j:
                k, l = perm[2], perm[3]
                vals.append(F[k, l] * F[l, j] + F[l, k] * F[k, j] - F[k, j] * F[l, j])
        assert max(vals) - min(vals) < 1e-12  # k <-> l symmetric
        H[i, j] = vals[0]
    return H


def brute_force_z(sigma, lam):
    Z = np.zeros(4)
    for l in range(4):
        vals = []
        for perm in itertools.permutations(range(4)):
            if perm[3] == l and _parity(perm) == 1:
                i, j, k = perm[0], perm[1], perm[2]
                vals.append(
                    (lam[i] - lam[j]) * sigma[i, j]
                    + (lam[j] - lam[k]) * sigma[j, k]
                    + (lam[k] - lam[i]) * sigma[k, i]
                )
        assert max(vals) - min(vals) < 1e-12  # cyclic choices agree
        Z[l] = vals[0]
    return Z


def random_point(rng):
    F = rng.standard_normal((4, 4))
    np.fill_diagonal(F, 0.0)
    sigma = rng.standard_normal((4, 4))
    sigma = sigma + sigma.T
    np.fill_diagonal(sigma, 0.0)
    lam = rng.standard_normal(4)
    return F, sigma, lam


def test_h_components_zero_and_unit():
    assert np.all(h_components(np.zeros((4, 4))) == 0.0)
    # F_kl = F_lj = 1 with (i,j,k,l) = (0,1,2,3): H_01 = 1
    F = np.zeros((4, 4))
    F[2, 3] = F[3, 1] = 1.0
    assert h_components(F)[0, 1] == 1.0


def test_hz_brute_force_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(200):
        F, sigma, lam = random_point(rng)
        assert np.max(np.abs(h_components(F) - brute_force_h(F))) < 1e-12
        assert np.max(np.abs(z_components(sigma, lam) - brute_force_z(sigma, lam))) < 1e-12


def test_z_product_data_and_zero():
    assert np.all(z_components(np.ones((4, 4)) - np.eye(4), np.zeros(4)) == 0.0)
    p = product_sigma_point()
    assert np.max(np.abs(z_components(p.sigma, p.lam))) == 0.0


def test_z_sum_vanishes_on_constraints():
    # points satisfying the linear display have Z_1 + ... + Z_4 = 0
    for p in sample_variety(seed=3, count=6, constraint_mode="linear-only"):
        assert abs(z_components(p.sigma, p.lam).sum()) < 1e-12
        assert abs(p.lam.sum()) < 1e-12


def test_variety_point_validation():
    with pytest.raises(InputError):
        VarietyPoint(F=np.zeros((3, 3)), sigma=np.zeros((4, 4)), lam=np.zeros(4), s=0.0)
    F = np.zeros((4, 4))
    F[0, 0] = 1.0
    with pytest.raises(InputError):
        VarietyPoint(F=F, sigma=np.zeros((4, 4)), lam=np.zeros(4), s=0.0)


def test_product_point_membership():
    rep = system_residuals(product_sigma_point())
    assert rep.passed
    assert rep.rank == 1
    assert rep.total == 0.0
    assert rep.eq1_residual == 0.0 and rep.fsi_residual == 0.0


def test_perturbed_pairing_fails():
    p = product_sigma_point()
    sigma = p.sigma.copy()
    sigma[0, 1] += 0.01
    sigma[1, 0] += 0.01
    rep = system_residuals(VarietyPoint(F=p.F, sigma=sigma, lam=p.lam, s=p.s))
    assert not rep.passed
    assert rep.eq1_residual >= 0.005


def test_fsp_matrix_layout():
    H = np.zeros((4, 4))
    M = fsp_matrix(H)
    assert M.shape == (4, 7)
    assert np.all(M[:, 6] == 1.0)
    assert np.all(M[:, :6] == 0.0)
    H[0, 1] = 5.0
    M = fsp_matrix(H)
    assert M[0, 0] == 5.0  # pair column {0,1}
    assert M.sum() == 9.0


def test_membership_from_frames(s2xs2_frames, kpc_frames):
    for fr in s2xs2_frames + kpc_frames:
        rep = system_residuals(from_frame(fr).normalized(), tol=1e-3)
        assert rep.passed
        assert rep.rank <= 3


def test_permutation_invariance():
    rng = np.random.default_rng(1)
    F, sigma, lam = random_point(rng)
    p = VarietyPoint(F=F, sigma=sigma, lam=lam, s=0.3).normalized()
    base = system_residuals(p)
    for perm in itertools.permutations(range(4)):
        q = permute_point(p, perm)
        rep = system_residuals(q)
        assert abs(rep.eq1_residual - base.eq1_residual) < 1e-12
        assert abs(rep.fsi_residual - base.fsi_residual) < 1e-12
        assert rep.rank == base.rank


def test_homogeneity_exponents():
    rng = np.random.default_rng(8)
    for _ in range(5):
        F, sigma, lam = random_point(rng)
        p = VarietyPoint(F=F, sigma=sigma, lam=lam, s=0.0)
        base = system_residuals(p)
        for t in (0.5, 2.0, 7.5):
            scaled = system_residuals(p.scaled(t))
            assert scaled.eq1_residual == pytest.approx(t * base.eq1_residual, rel=1e-10)
            assert scaled.fsi_residual == pytest.approx(t ** 3 * base.fsi_residual, rel=1e-10)
            assert scaled.rank == base.rank


def test_normalized_scale_invariant_verdict():
    for p in sample_variety(seed=5, count=4):
        for t in (0.1, 10.0):
            q = p.scaled(t).normalized()
            assert system_residuals(q).passed
        n = p.normalized()
        assert np.sqrt(np.linalg.norm(n.F) ** 2 + np.linalg.norm(n.sigma) ** 2) == pytest.approx(
            1.0, abs=1e-12
        )


def test_sampler_linear_only():
    pts = sample_variety(seed=2, count=6, constraint_mode="linear-only")
    fsi_vals = []
    for p in pts:
        rep = system_residuals(p)
        assert rep.eq1_residual < 1e-12
        fsi_vals.append(rep.fsi_residual)
    assert max(fsi_vals) > 1e-3  # the bilinear identity is generically violated


def test_sampler_full_and_deterministic():
    pts = sample_variety(seed=0, count=6)
    assert len(pts) == 6
    for p in pts:
        rep = system_residuals(p)
        assert rep.passed and rep.total < 1e-6
    again = sample_variety(seed=0, count=6)
    for a, b in zip(pts, again):
        assert np.array_equal(a.F, b.F)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.lam, b.lam)
    assert np.any(pts[0].F != sample_variety(seed=1, count=1)[0].F)
    with pytest.raises(InputError):
        sample_variety(seed=0, count=2, constraint_mode="nonsense")


def test_kernels_match_scipy_null_space():
    # the numpy kernel replaces scipy.linalg.null_space without moving a
    # sampled point: same bits, and products with it round the same way
    from scipy.linalg import null_space

    rng = np.random.default_rng(3)
    for ours, ref in (
        (variety._sigma_kernel(), null_space(variety._SIGMA_EQ1)),
        (variety._LAM_KERNEL, null_space(np.ones((1, 4)))),
    ):
        assert np.array_equal(ours, ref)
        for _ in range(20):
            v = rng.standard_normal(ref.shape[1])
            assert np.array_equal(ours @ v, ref @ v)


def test_root_search_goes_through_module_least_squares(monkeypatch):
    # the layer trace counts variety.lsq_calls and variety.lsq_nfev by
    # patching this global, so every draw must call it once
    results = []
    real = variety.least_squares

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(variety, "least_squares", counting)
    pts = sample_variety(seed=0, count=2)
    assert len(pts) == 2
    assert len(results) == 2
    for result in results:
        assert result.x.shape == (12 + 2 + 3,)
        assert 0 < result.nfev <= 1000


def test_f_zero_slice_always_passes():
    # with F = 0 the bilinear and rank conditions are vacuous
    rng = np.random.default_rng(12)
    for p in sample_variety(seed=9, count=4, constraint_mode="linear-only"):
        q = VarietyPoint(F=np.zeros((4, 4)), sigma=p.sigma, lam=p.lam, s=p.s)
        rep = system_residuals(q)
        assert rep.passed
        assert rep.rank <= 1


def test_export_csv_deterministic():
    pts = sample_variety(seed=4, count=3)
    out1, out2 = io.StringIO(), io.StringIO()
    export_csv(pts, out1, note="round one")
    export_csv(pts, out2, note="round one")
    assert out1.getvalue() == out2.getvalue()
    lines = out1.getvalue().splitlines()
    assert lines[0].startswith("#")
    assert "F12" in lines[1] and "sigma12" in lines[1] and "lambda1" in lines[1]
    assert len(lines) == 2 + len(pts)


def test_from_frame_symmetrizes(s2xs2_frames):
    p = from_frame(s2xs2_frames[0])
    assert np.max(np.abs(p.sigma - p.sigma.T)) == 0.0
    assert np.all(np.diag(p.sigma) == 0.0)
    assert np.all(np.diag(p.F) == 0.0)
