import dataclasses
import itertools

import numpy as np
import pytest

import curv4
from curv4.errors import DegenerateFrameError, InconsistencyError, InputError, PreconditionError
from curv4.frames import (
    RicciFrame,
    StructureData,
    cluster_count,
    cluster_indices,
    curvature_from_structure,
    extract_frame,
    invariant_counts,
    skw_residuals,
    structure_data,
    sy_from_components,
    sy_invariants,
)
from curv4.tensor4 import tensor_norm
from tests.conftest import frame_tensor


def test_cluster_indices():
    # each value's cluster, numbered in ascending order of the values
    assert cluster_indices([1.0, 1.0, 2.0, 2.0]).tolist() == [0, 0, 1, 1]
    assert cluster_indices([2.0, 1.0, 3.0, 1.0]).tolist() == [1, 0, 2, 0]
    assert cluster_count([0.0, 0.0, 0.0, 0.0]) == 1
    assert cluster_count([1.0, 1.0 + 1e-12, 2.0, 3.0]) == 3
    # gaps compare against the overall spread, not the neighbour magnitude
    assert cluster_count([0.0, 1e-7, 1.0, 1.0 + 1e-7]) == 2
    # over a stack, one sort per row
    stack = [[1.0, 1.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0], [3.0, 2.0, 1.0, 0.0]]
    assert cluster_indices(stack).tolist() == [[0, 0, 1, 1], [0, 0, 0, 0], [3, 2, 1, 0]]
    assert cluster_count(stack).tolist() == [2, 1, 4]


def test_product_adapted_frame_values(s2xs2_chart, s2xs2_frames):
    for fr in s2xs2_frames:
        assert fr.source == "adapted"
        assert fr.lam == pytest.approx([-0.5, -0.5, 0.5, 0.5], abs=1e-6)
        assert fr.s == pytest.approx(6.0, abs=1e-6)
        assert fr.diagnostics["gram_resid"] < 1e-8
        assert fr.diagnostics["ric_diag_resid"] < 1e-8
        assert fr.sigma[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert fr.sigma[2, 3] == pytest.approx(1.0, abs=1e-6)
        assert fr.sigma[0, 2] == pytest.approx(-0.5, abs=1e-6)
        # row sums of sigma vanish
        for i in range(4):
            assert abs(fr.sigma[i].sum()) < 1e-6
        assert abs(fr.lam.sum()) < 1e-8


def test_product_frame_structure_functions(s2xs2_chart, s2xs2_frames):
    # conformal-factor closed forms: F_12 = -k1 x1/2, F_21 = -k1 x2/2, and
    # the second factor mirrors them; cross-factor entries vanish
    k1, k2 = 1.0, 2.0
    for fr in s2xs2_frames:
        x = fr.x
        assert fr.F[0, 1] == pytest.approx(-k1 * x[0] / 2, abs=1e-6)
        assert fr.F[1, 0] == pytest.approx(-k1 * x[1] / 2, abs=1e-6)
        assert fr.F[2, 3] == pytest.approx(-k2 * x[2] / 2, abs=1e-6)
        assert fr.F[3, 2] == pytest.approx(-k2 * x[3] / 2, abs=1e-6)
        for (j, i) in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)):
            assert abs(fr.F[j, i]) < 1e-9
        assert fr.distinct_gamma_max < 1e-9
        assert not fr.diagnostics["non_d0_warning"]


def test_product_frame_center_point(s2xs2_chart):
    # all F_ji vanish at the chart center (conformal factors are critical there)
    fr = extract_frame(s2xs2_chart, np.zeros(4))
    assert np.max(np.abs(fr.F)) < 1e-9


def test_s4_degenerate(s4_chart):
    x = curv4.sample_points(s4_chart, count=1, seed=0)[0]
    with pytest.raises(DegenerateFrameError):
        extract_frame(s4_chart, x)


def test_einstein_needs_adapted_frame():
    # S2(1) x S2(1) is Einstein with W != 0: the eigen path has no canonical
    # frame, the registered adapted frame does
    ch = curv4.make_product_surfaces(1, 1)
    x = curv4.sample_points(ch, count=1, seed=0)[0]
    fr = extract_frame(ch, x)
    assert fr.source == "adapted"
    with pytest.raises(DegenerateFrameError):
        extract_frame(dataclasses.replace(ch, adapted_frame_fn=None), x)


def test_adapted_frame_must_be_g_orthogonal():
    # a registered frame whose columns are not g-orthogonal is the chart's
    # inconsistency, raised for the whole stack, not a degenerate point
    sheared = np.eye(4) + 0.1 * np.triu(np.ones((4, 4)), 1)
    ch = dataclasses.replace(curv4.build_example("s2xs2:1,2"), adapted_frame_fn=lambda x: sheared)
    X = curv4.sample_points(ch, count=3, seed=0)
    with pytest.raises(InconsistencyError, match="not g-orthogonal"):
        extract_frame(ch, X[0])
    with pytest.raises(InconsistencyError, match="not g-orthogonal"):
        curv4.extract_frames(ch, curv4.chart.curvature_batch(ch, X, degree=3))


def test_eigen_frame_budgets():
    # generic metric: numeric eigenframe obeys the looser 1e-6 budgets
    ch = curv4.make_random_perturbed_flat(1)
    for x in curv4.sample_points(ch, count=3, seed=2):
        fr = extract_frame(ch, x)
        assert fr.source == "eigen"
        assert fr.diagnostics["gram_resid"] < 1e-6
        assert fr.diagnostics["ric_diag_resid"] < 1e-6
        assert np.all(np.diff(fr.lam) >= -1e-12)


def test_eigen_pair_cluster_matches_adapted(s2xs2_chart):
    # two 2-clusters with W != 0: the within-cluster rotation diagonalizing
    # W+ must reproduce the adapted-frame invariants
    x = curv4.sample_points(s2xs2_chart, count=1, seed=4)[0]
    fa = extract_frame(s2xs2_chart, x)
    fe = extract_frame(dataclasses.replace(s2xs2_chart, adapted_frame_fn=None), x)
    assert fe.source == "eigen"
    assert fe.diagnostics["gram_resid"] < 1e-6
    assert fe.diagnostics["ric_diag_resid"] < 1e-6
    assert fe.lam == pytest.approx(fa.lam, abs=1e-6)
    assert np.sort(fe.sigma, axis=None) == pytest.approx(
        np.sort(fa.sigma, axis=None), abs=1e-5
    )


def test_eigen_kpc_matches_adapted(kpc_chart, kpc_frames):
    fa = kpc_frames[0]
    fe = extract_frame(dataclasses.replace(kpc_chart, adapted_frame_fn=None), fa.x)
    assert fe.lam == pytest.approx(fa.lam, abs=1e-6)
    assert np.linalg.eigvalsh(fe.w_plus) == pytest.approx(
        np.linalg.eigvalsh(fa.w_plus), abs=1e-6
    )


def test_kpc_frame_warped_closed_forms(kpc_chart, kpc_frames, kpc_profile):
    # conformally rescaled product: F_12 = (K+c) f'/f - K', F_13 = F_14 = -K',
    # F_34 = (K+c) cot(u) for c = 1, everything else zero
    prof = kpc_profile
    for fr in kpc_frames:
        t, u = fr.x[0], fr.x[2]
        phi = prof.K(t) + prof.c
        dK = prof.dK(t)
        assert fr.F[0, 1] == pytest.approx(phi * prof.df(t) / prof.f(t) - dK, abs=1e-4)
        assert fr.F[0, 2] == pytest.approx(-dK, abs=1e-4)
        assert fr.F[0, 3] == pytest.approx(-dK, abs=1e-4)
        assert fr.F[2, 3] == pytest.approx(phi / np.tan(u), abs=1e-4)
        for (j, i) in ((1, 0), (2, 0), (3, 0), (1, 2), (1, 3), (2, 1), (3, 1), (3, 2)):
            assert abs(fr.F[j, i]) < 1e-4
        assert fr.distinct_gamma_max < 1e-6


def test_skw_residuals_product(s2xs2_chart, s2xs2_frames):
    for fr in s2xs2_frames:
        res = skw_residuals(fr)
        assert set(res) == {"skw.a", "skw.b", "skw.c", "skw.d", "skw.e", "skw.f"}
        assert max(res.values()) <= 1e-4


def test_skw_residuals_kpc(kpc_chart, kpc_frames):
    for fr in kpc_frames:
        res = skw_residuals(fr)
        assert max(res.values()) <= 1e-3


def test_skw_detects_non_harmonic():
    ch = curv4.make_random_perturbed_flat(1)
    worst = 0.0
    for x in curv4.sample_points(ch, count=4, seed=2):
        fr = extract_frame(ch, x)
        worst = max(worst, skw_residuals(fr)["skw.e"])
    assert worst > 1e-2


def test_sy_synthetic_oracle():
    # direct substitution: S_4 = (sigma_12 - sigma_13) Gamma^3_12 = 2,
    # y_4 = (lam_2 - lam_3) Gamma^3_12 = 5, alpha_4 = 0.4
    a = 0.3
    sigma = np.zeros((4, 4))
    for (i, j), v in {(0, 1): a, (0, 2): a - 2, (1, 2): a + 2}.items():
        sigma[i, j] = sigma[j, i] = v
    lam = np.array([0.0, 10.0, 5.0, -15.0])
    gamma = np.zeros((4, 4, 4))
    gamma[0, 1, 2] = 1.0  # Gamma^3_12
    gamma[1, 2, 0] = 1.0  # the cross-check selection, chosen consistently
    out = sy_from_components(sigma, lam, gamma)
    assert out["S"][3] == pytest.approx(2.0)
    assert out["y"][3] == pytest.approx(5.0)
    assert out["alpha"][3] == pytest.approx(0.4)
    assert out["consistency"] == pytest.approx(0.0)
    assert out["consistent"]
    assert out["zeta"] == 1


def _rest(*idx):
    return sorted(set(range(4)) - set(idx))


def _loop_skw(fr):
    # skw_residuals as loops over index tuples
    lam, sig, gm, Dlam, Dsig = fr.lam, fr.sigma, fr.gamma, fr.dlam, fr.dsig
    triples = list(itertools.permutations(range(4), 3))
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    res_b = 0.0
    for i, j in ((0, 1), (0, 2), (0, 3)):
        k, l = _rest(i, j)
        res_b = max(res_b, abs(sig[i, j] - sig[k, l]))
    for i in range(4):
        res_b = max(res_b, abs(sum(sig[i, j] for j in range(4) if j != i)))
    res_f = 0.0
    for i, j in pairs:
        k, l = _rest(i, j)
        rhs = (sig[i, j] - sig[i, k]) * gm[k, k, j] + (sig[i, j] - sig[i, l]) * gm[l, l, j]
        res_f = max(res_f, abs(Dsig[j, i, j] - rhs))
    return {
        "skw.a": max(abs(gm[i, j, k] + gm[i, k, j]) for i, j, k in triples),
        "skw.b": res_b,
        "skw.c": max(
            abs((lam[j] - lam[k]) * gm[i, j, k] - (lam[k] - lam[i]) * gm[j, k, i])
            for i, j, k in triples
        ),
        "skw.d": max(
            abs((sig[i, j] - sig[i, k]) * gm[i, j, k] - (sig[j, k] - sig[j, i]) * gm[j, k, i])
            for i, j, k in triples
        ),
        "skw.e": max(abs(Dlam[i, j] - (lam[j] - lam[i]) * gm[j, j, i]) for i, j in pairs),
        "skw.f": res_f,
    }


def test_skw_and_sy_match_loop_references():
    # skw_residuals and sy_from_components read index arrays; on generic
    # data they give exactly what loops over the index tuples give
    rng = np.random.default_rng(5)
    for _ in range(5):
        sig = rng.normal(size=(4, 4))
        sig = sig + sig.T
        np.fill_diagonal(sig, 0.0)
        lam, gm = rng.normal(size=4), rng.normal(size=(4, 4, 4))
        fr = RicciFrame(
            x=np.zeros(4), g=np.eye(4), E=np.eye(4), lam=lam, sigma=sig, s=0.0,
            F=np.zeros((4, 4)), gamma=gm, dlam=rng.normal(size=(4, 4)),
            dsig=rng.normal(size=(4, 4, 4)), w_plus=np.zeros((3, 3)),
            w_minus=np.zeros((3, 3)), source="eigen", clusters=np.arange(4),
        )  # fmt: skip
        assert skw_residuals(fr) == {key: float(v) for key, v in _loop_skw(fr).items()}
        out = sy_from_components(sig, lam, gm)
        consistency = 0.0
        for l in range(4):
            i, j, k = _rest(l)
            assert out["S"][l] == (sig[i, j] - sig[i, k]) * gm[i, j, k]
            assert out["y"][l] == (lam[j] - lam[k]) * gm[i, j, k]
            s_alt = (sig[j, k] - sig[j, i]) * gm[j, k, i]
            y_alt = (lam[k] - lam[i]) * gm[j, k, i]
            consistency = max(consistency, abs(out["S"][l] - s_alt), abs(out["y"][l] - y_alt))
        assert out["consistency"] == consistency


def test_sy_zero_on_web_examples(s2xs2_frames, kpc_frames):
    for fr in s2xs2_frames + kpc_frames:
        out = sy_invariants(fr)
        assert np.max(np.abs(out["S"])) < 1e-5
        assert np.max(np.abs(out["y"])) < 1e-5
        assert out["zeta"] == 0


def test_invariant_counts_product(s2xs2_frames):
    counts = invariant_counts(s2xs2_frames)
    assert (counts.r, counts.w, counts.w_minus) == (2, 2, 2)
    assert counts.case_label == "C"
    assert counts.d_lower == 0


def test_invariant_counts_kpc(kpc_frames):
    counts = invariant_counts(kpc_frames)
    assert counts.w == 2
    assert counts.case_label == "C"
    assert counts.d_lower <= 2


def test_invariant_counts_degenerate_only():
    counts = invariant_counts([], degenerate_points=3)
    assert counts.r == 1 and counts.case_label == "A"
    with pytest.raises(Exception):
        invariant_counts([], degenerate_points=0)


def test_spectral_symmetry_wpm(s2xs2_frames, kpc_frames):
    # spectrum(W+) = spectrum(W-) on non-Einstein harmonic examples
    for fr in s2xs2_frames + kpc_frames:
        sp = np.linalg.eigvalsh(fr.w_plus)
        sm = np.linalg.eigvalsh(fr.w_minus)
        assert sp == pytest.approx(sm, abs=1e-6)


def test_riz_offblock_vanishes(s2xs2_chart, kpc_chart, s2xs2_frames, kpc_frames):
    # in the eigenframe of a harmonic example, R_abcd ~ 0 unless {a,b} = {c,d}
    for ch, frames in ((s2xs2_chart, s2xs2_frames), (kpc_chart, kpc_frames)):
        fr = frames[0]
        entry = curv4.curvature_at(ch, fr.x)
        Rf = frame_tensor(entry.R, fr.E)
        scale = tensor_norm(entry.R)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    for d in range(4):
                        if {a, b} != {c, d}:
                            assert abs(Rf[a, b, c, d]) <= 1e-4 * scale


def test_rvovt_mixed_vanishes(kpc_chart, kpc_frames):
    # R(e_a, e_b) e_c = 0 for pairwise-distinct Ricci eigenvalues (a,b,c)
    fr = kpc_frames[0]
    entry = curv4.curvature_at(kpc_chart, fr.x)
    Rf = frame_tensor(entry.R, fr.E)
    scale = tensor_norm(entry.R)
    # lam_1, lam_2, lam_3 are pairwise distinct for this example
    assert np.max(np.abs(Rf[0, 1, 2, :])) <= 1e-4 * scale
    assert np.max(np.abs(Rf[1, 2, 0, :])) <= 1e-4 * scale


def test_structure_reconstruction(s2xs2_chart, kpc_chart, s2xs2_frames, kpc_frames):
    for ch, frames in ((s2xs2_chart, s2xs2_frames), (kpc_chart, kpc_frames)):
        fr = frames[0]
        sd = structure_data(ch, fr)
        sec, mixed = curvature_from_structure(sd, fr)
        entry = curv4.curvature_at(ch, fr.x)
        Rf = frame_tensor(entry.R, fr.E)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert sec[i, j] == pytest.approx(Rf[i, j, i, j], abs=1e-3)
        assert np.max(np.abs(mixed)) < 1e-3


@pytest.mark.parametrize("name", ["s2xs2:1,2", "rxs3", "kpc", "kpc:1,1.2,5", "bump:0.1"])
def test_structure_rebuilds_the_frame_curvature(name):
    # the sectional curvatures R_ijij and mixed components R_kijk that F and
    # DF rebuild are those of the point's own curvature entry in the frame,
    # to roundoff: DF is the exact partial of F, with no step to truncate
    chart = curv4.build_example(name)
    for x in curv4.sample_points(chart, count=4, seed=0):
        fr = extract_frame(chart, x)
        sec, mixed = curvature_from_structure(structure_data(chart, fr), fr)
        Rf = frame_tensor(curv4.curvature_at(chart, x).R, fr.E)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(Rf))))
        assert np.max(np.abs(sec - np.einsum("ijij->ij", Rf))) <= tol
        for i, j, k in itertools.permutations(range(4), 3):
            assert abs(mixed[i, j, k] - Rf[k, i, j, k]) <= tol


def test_frame_entry_must_carry_derivatives_at_the_point(s2xs2_chart):
    # the entry a caller hands in must be of degree 3 and at x itself
    x, y = curv4.sample_points(s2xs2_chart, count=2, seed=0)
    with pytest.raises(InputError, match="covariant derivatives"):
        extract_frame(s2xs2_chart, x, entry=curv4.curvature_at(s2xs2_chart, x, degree=2))
    with pytest.raises(InputError) as err:
        extract_frame(s2xs2_chart, x, entry=curv4.curvature_at(s2xs2_chart, y, degree=3))
    assert str(x.tolist()) in str(err.value) and str(y.tolist()) in str(err.value)
    entry = curv4.curvature_at(s2xs2_chart, x, degree=3)
    assert np.array_equal(extract_frame(s2xs2_chart, x, entry=entry).E, extract_frame(s2xs2_chart, x).E)


def test_structure_zero_data():
    sd = StructureData(x=np.zeros(4), F=np.zeros((4, 4)), DF=np.zeros((4, 4, 4)))
    sec, mixed = curvature_from_structure(sd)
    assert np.all(sec == 0.0) and np.all(mixed == 0.0)


def test_structure_requires_web():
    # a generic metric violates the orthogonal-web precondition
    ch = curv4.make_random_perturbed_flat(2)
    x = curv4.sample_points(ch, count=1, seed=0)[0]
    fr = extract_frame(ch, x)
    assert fr.distinct_gamma_max > 1e-4
    sd = structure_data(ch, fr)
    with pytest.raises(PreconditionError):
        curvature_from_structure(sd, fr)


def test_structure_data_takes_one_frame_of_its_chart():
    # a stack of frames is refused with the one-point form to use, and so is
    # a chart whose metric at x is not the frame's: an s2xs2:2,3 chart on an
    # s2xs2:1,2 frame, which would give another DF
    chart = curv4.build_example("s2xs2:1,2")
    X = curv4.sample_points(chart, count=3, seed=0)
    frames = curv4.extract_frames(chart, curv4.chart.curvature_batch(chart, X, degree=3))
    for stack in (frames, frames[0:1]):
        with pytest.raises(InputError, match=r"one frame, frames\[n\]"):
            structure_data(chart, stack)
    other = curv4.build_example("s2xs2:2,3")
    for fr in (extract_frame(chart, X[0]), frames[0]):
        with pytest.raises(InputError, match="chart 's2xs2:2,3'"):
            structure_data(other, fr)
    # a chart whose box leaves out the frame point is not the frame's either
    shifted = dataclasses.replace(chart, box=chart.box + 10.0)
    with pytest.raises(InputError, match="is not the frame's"):
        structure_data(shifted, frames[0])


def test_structure_and_frame_must_share_the_point(s2xs2_chart):
    # one frame's web gate must not pass another point's F and DF
    x, y = curv4.sample_points(s2xs2_chart, count=2, seed=0)
    fx, fy = extract_frame(s2xs2_chart, x), extract_frame(s2xs2_chart, y)
    with pytest.raises(InputError) as err:
        curvature_from_structure(structure_data(s2xs2_chart, fx), fy)
    assert str(x.tolist()) in str(err.value) and str(y.tolist()) in str(err.value)


@pytest.mark.parametrize(
    "name", ["s2xs2:1,2", "rxs3", "kpc", "kpc:1,1.2,5", "bump:0.1", "randflat:0", "s2xs2:eigen"]
)
def test_carried_jets_give_the_fallback_df(name):
    # DF from the first-order terms a one-point frame carries against DF
    # from the jet structure_data takes for a frame made from an entry: the
    # same jet, so bit for bit on adapted frames, whose E is the same too;
    # an eigenframe from a degree-4 jet may differ from one from the
    # degree-3 entry in roundoff, so to 1e-13 relative there
    if name == "s2xs2:eigen":
        chart = dataclasses.replace(curv4.build_example("s2xs2:1,2"), adapted_frame_fn=None)
    else:
        chart = curv4.build_example(name)
    for seed in range(20):
        x = curv4.sample_points(chart, count=1, seed=seed)[0]
        carried = extract_frame(chart, x)
        fallback = extract_frame(chart, x, entry=curv4.curvature_at(chart, x, 3))
        assert carried.jets is not None and fallback.jets is None
        got, ref = structure_data(chart, carried).DF, structure_data(chart, fallback).DF
        if carried.source == "adapted":
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))
