import hashlib
import io
import itertools
import warnings

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


def permuted(point, perm):
    """The point with its frame indices relabeled: new index a carries old
    perm[a]."""
    ix = np.ix_(perm, perm)
    return VarietyPoint(
        F=point.F[ix], sigma=point.sigma[ix], lam=point.lam[list(perm)], s=point.s
    )


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


@pytest.mark.parametrize("field", ["F", "sigma", "lam", "s"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_variety_point_rejects_non_finite_components(field, bad):
    p = product_sigma_point()
    parts = {"F": p.F.copy(), "sigma": p.sigma.copy(), "lam": p.lam.copy(), "s": p.s}
    if field == "s":
        parts["s"] = bad
    else:
        parts[field].flat[1] = bad  # off the diagonal of F and sigma
    with pytest.raises(InputError, match=f"^{field} (has a component that )?is not finite"):
        VarietyPoint(**parts)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), 0.0, -1.0])
def test_scaled_rejects_a_non_finite_or_non_positive_factor(t):
    # a nan factor passes a bare t <= 0 check, and system_residuals then
    # ends in numpy's LinAlgError, not a Curv4Error
    with pytest.raises(InputError, match="scale factor t must be finite and positive"):
        product_sigma_point().scaled(t)


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
        q = permuted(p, perm)
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


def test_normalized_does_not_overflow():
    # components near 1e200 overflow their squares: the point must still
    # come out at unit norm, failing eq1.pair as the raw point does, not as
    # the all-zero point that passes every equation
    F, sigma = np.zeros((4, 4)), np.zeros((4, 4))
    F[0, 1], F[2, 3], sigma[0, 1] = 1e200, 3e200, 5e199
    raw = VarietyPoint(F=F, sigma=sigma, lam=np.zeros(4))
    assert system_residuals(raw).rows["eq1.pair"] == 5e199
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = raw.normalized()
    norm = np.sqrt(np.sum(n.F**2) + np.sum(n.sigma**2))
    assert norm == pytest.approx(1.0, abs=1e-15)
    assert n.sigma[0, 1] == pytest.approx(0.5 / np.sqrt(10.25), rel=1e-15)
    assert not system_residuals(n).passed
    # where the squares are finite, the scale is the plain one, bit for bit
    F, sigma, lam = random_point(np.random.default_rng(3))
    n = VarietyPoint(F=F, sigma=sigma, lam=lam, s=2.0).normalized()
    scale = float(np.sqrt(np.sum(F**2) + np.sum(sigma**2)))
    assert np.array_equal(n.F, F / scale) and np.array_equal(n.sigma, sigma / scale)
    assert np.array_equal(n.lam, lam / scale) and n.s == 2.0 / scale


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
        (variety._SIGMA_KERNEL, null_space(variety._SIGMA_EQ1)),
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
    export_csv([system_residuals(p) for p in pts], out1, note="round one")
    export_csv([system_residuals(p) for p in pts], out2, note="round one")
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


def test_export_csv_writes_every_residual_as_a_plain_float():
    # eq1.pair is the largest eq1 row here: a numpy scalar there would be
    # written as its repr, "np.float64(2.0)"
    sigma = np.zeros((4, 4))
    sigma[0, 1] = sigma[1, 0] = sigma[1, 3] = sigma[3, 1] = 1.0
    sigma[2, 3] = sigma[3, 2] = sigma[0, 2] = sigma[2, 0] = -1.0
    rep = system_residuals(VarietyPoint(F=np.zeros((4, 4)), sigma=sigma, lam=np.zeros(4)))
    assert rep.rows["eq1.pair"] == rep.eq1_residual == 2.0
    out = io.StringIO()
    export_csv([rep], out)
    header, row = out.getvalue().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["eq1_residual"] == "2.0"
    assert float(fields["fsi_residual"]) == rep.fsi_residual


def test_minors_match_one_det_per_column_set():
    # the 35 stacked minors of _polynomial_residuals against one
    # np.linalg.det call per 4-column subset, bit for bit
    rng = np.random.default_rng(6)
    for _ in range(50):
        F, sigma, lam = random_point(rng)
        p = VarietyPoint(F=F, sigma=sigma, lam=lam)
        M = fsp_matrix(p.H)
        ref = [np.linalg.det(M[:, cols]) for cols in itertools.combinations(range(7), 4)]
        assert np.array_equal(variety._polynomial_residuals(F, sigma, lam)[6:], ref)


# sha256 of the F, sigma and lam bytes of sample_variety(seed=0, count=2),
# recorded before the residuals were written as gathers over tensor4's tables
FULL_DRAWS_DIGEST = "7b915121338cb0c8fe905975aaf96fc16df96c798f811137a33f14ae308ee986"


def test_full_draws_are_pinned():
    # a change to the residuals that moves a draw by one bit changes the
    # digest; draws depend on numpy's and scipy's LAPACK, so a different
    # build of either can move them as well
    digest = hashlib.sha256()
    for p in sample_variety(seed=0, count=2):
        for a in (p.F, p.sigma, p.lam):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert digest.hexdigest() == FULL_DRAWS_DIGEST
