"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go;
a plain run prints them inside the captured-output block on failure.
"""
import itertools

import numpy as np
import pytest

import curv4
from curv4.errors import DegenerateFrameError
from curv4.frames import (
    _metric_sqrt_inv,
    extract_frame,
    invariant_counts,
    skw_residuals,
    structure_data,
    curvature_from_structure,
    sy_invariants,
)
from curv4.tensor4 import frame_components, ricci_contract, sd_split
from curv4.variety import VarietyPoint, from_frame, h_components, permute_point, system_residuals, z_components
from tests.conftest import ric_eigenvalues
from tests.test_variety import brute_force_h, brute_force_z, random_point


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_universal_identities(randflat_charts):
    worst = {"brt": 0.0, "sym": 0.0, "weyl_ric": 0.0, "tr_wpm": 0.0}
    for seed, ch in enumerate(randflat_charts):
        for x in curv4.sample_points(ch, count=10, seed=seed):
            e = curv4.curvature_at(ch, x)
            nr = e.riem.norm
            worst["brt"] = max(worst["brt"], curv4.contracted_bianchi_residual(ch, x))
            worst["sym"] = max(worst["sym"], e.projection_distance / nr)
            wric, _ = ricci_contract(e.weyl, e.metric)
            worst["weyl_ric"] = max(worst["weyl_ric"], np.linalg.norm(wric.b) / nr)
            split = sd_split(e.weyl, e.metric, _metric_sqrt_inv(e.metric.g))
            tp, tm = np.trace(split.w_plus), np.trace(split.w_minus)
            worst["tr_wpm"] = max(
                worst["tr_wpm"], max(abs(tp), abs(tm)) / max(e.weyl.norm, 1e-300)
            )
    ok = (
        worst["brt"] <= 1e-5
        and worst["sym"] <= 1e-9
        and worst["weyl_ric"] <= 1e-8
        and worst["tr_wpm"] <= 1e-10
    )
    report(
        1,
        ok,
        "50 points on 5 perturbed-flat charts: "
        f"2divRic-ds {worst['brt']:.2e} (<=1e-5), sym/Bianchi {worst['sym']:.2e} "
        f"(<=1e-9 rel), Weyl contraction {worst['weyl_ric']:.2e} (<=1e-8 rel), "
        f"tr W+- {worst['tr_wpm']:.2e} (<=1e-10 rel)",
    )


def test_criterion_2_constant_curvature(s4_chart):
    pts = curv4.sample_points(s4_chart, count=6, seed=0)
    s_err = max(abs(curv4.curvature_at(s4_chart, x).s - 12.0) for x in pts)
    w_norm = max(curv4.curvature_at(s4_chart, x).weyl.norm for x in pts)
    divr = max(curv4.div_riemann_norm(s4_chart, x) for x in pts[:4])
    degenerate = 0
    for x in pts:
        try:
            extract_frame(s4_chart, x)
        except DegenerateFrameError:
            degenerate += 1
    counts = invariant_counts([], degenerate_points=degenerate)
    ok = s_err <= 1e-5 and w_norm <= 1e-6 and divr <= 1e-4 and counts.case_label == "A"
    report(
        2,
        ok,
        f"s4: |s-12| {s_err:.2e} (<=1e-5), |W| {w_norm:.2e} (<=1e-6), "
        f"divR {divr:.2e} (<=1e-4), case {counts.case_label} (= A)",
    )


def test_criterion_3_product_surfaces(s2xs2_chart, s2xs2_frames):
    ric_err = s_err = sig_err = row_err = skw_worst = gamma_max = cross_f = 0.0
    for fr in s2xs2_frames:
        e = curv4.curvature_at(s2xs2_chart, fr.x)
        ric_err = max(ric_err, np.max(np.abs(ric_eigenvalues(e) - [1, 1, 2, 2])))
        s_err = max(s_err, abs(fr.s - 6.0))
        sig_err = max(
            sig_err,
            abs(fr.sigma[0, 1] - 1.0),
            abs(fr.sigma[2, 3] - 1.0),
            abs(fr.sigma[0, 2] + 0.5),
        )
        row_err = max(row_err, float(np.max(np.abs(fr.sigma.sum(axis=1)))))
        skw_worst = max(skw_worst, max(skw_residuals(fr).values()))
        gamma_max = max(gamma_max, fr.distinct_gamma_max)
        cross_f = max(
            cross_f, float(np.max(np.abs(fr.F[:2, 2:]))), float(np.max(np.abs(fr.F[2:, :2])))
        )
    counts = invariant_counts(s2xs2_frames)
    f_center = float(np.max(np.abs(extract_frame(s2xs2_chart, np.zeros(4)).F)))
    ok = (
        ric_err <= 1e-6
        and s_err <= 1e-6
        and sig_err <= 1e-6
        and row_err <= 1e-6
        and (counts.r, counts.w) == (2, 2)
        and skw_worst <= 1e-4
        and gamma_max <= 1e-6
        and cross_f <= 1e-6
        and f_center <= 1e-6
    )
    report(
        3,
        ok,
        f"s2xs2:1,2: Ric dev {ric_err:.1e}, s dev {s_err:.1e}, sigma dev {sig_err:.1e}, "
        f"row sums {row_err:.1e} (all <=1e-6), r={counts.r} w={counts.w} (=2,2), "
        f"skw {skw_worst:.1e} (<=1e-4), web data: distinct-index Gamma {gamma_max:.1e}, "
        f"cross-factor F {cross_f:.1e}, F at center {f_center:.1e} (<=1e-6)",
    )


def test_criterion_4_spectral_symmetry(s2xs2_frames, kpc_frames, rxs3_chart):
    frames = list(s2xs2_frames) + list(kpc_frames)
    frames += [
        extract_frame(rxs3_chart, x) for x in curv4.sample_points(rxs3_chart, count=3, seed=0)
    ]
    dev = max(
        float(np.max(np.abs(np.linalg.eigvalsh(f.w_plus) - np.linalg.eigvalsh(f.w_minus))))
        for f in frames
    )
    report(
        4,
        dev <= 1e-6,
        f"spectrum(W+) vs spectrum(W-) on {len(frames)} non-Einstein harmonic frames: "
        f"max deviation {dev:.2e} (<=1e-6)",
    )


def test_criterion_5_kpc_pipeline(kpc_profile, kpc_chart, kpc_frames):
    const = curv4.solve_kpc_profile(1.0, 3.0, 2.0)
    const_dev = float(max(np.max(np.abs(const.Ks - 2.0)), np.max(np.abs(const.dKs))))
    back = curv4.profile_residual(kpc_profile)
    pts = curv4.sample_points(kpc_chart, count=16, seed=0)
    divr = max(curv4.div_riemann_norm(kpc_chart, x) for x in pts)
    kc_min = min(kpc_profile.K(x[0]) + kpc_profile.c for x in pts)
    w = invariant_counts(kpc_frames).w
    ok = const_dev <= 1e-8 and back <= 1e-6 and divr <= 1e-3 and w == 2 and kc_min > 1e-3
    report(
        5,
        ok,
        f"kpc: constant-K profile dev {const_dev:.1e} (<=1e-8), back-substitution "
        f"{back:.2e} (<=1e-6), divR over 16 samples {divr:.2e} (<=1e-3), w={w} (=2), "
        f"min K+c {kc_min:.3f} (> 0)",
    )


def test_criterion_6_variety_membership(s2xs2_frames, kpc_frames):
    worst_total, worst_rank = 0.0, 0
    points = [from_frame(fr).normalized() for fr in list(s2xs2_frames) + list(kpc_frames)]
    for p in points:
        rep = system_residuals(p, tol=1e-3)
        assert rep.passed
        worst_total = max(worst_total, rep.total)
        worst_rank = max(worst_rank, rep.rank)

    p = points[0]
    sigma = p.sigma.copy()
    sigma[0, 1] += 0.01
    sigma[1, 0] += 0.01
    rep_bad = system_residuals(
        VarietyPoint(F=p.F, sigma=sigma, lam=p.lam, s=p.s), tol=1e-3
    )
    flip = (not rep_bad.passed) and rep_bad.total >= 0.005

    perm_dev = 0.0
    base = system_residuals(points[-1])
    for perm in itertools.permutations(range(4)):
        rep = system_residuals(permute_point(points[-1], perm))
        perm_dev = max(
            perm_dev,
            abs(rep.eq1_residual - base.eq1_residual),
            abs(rep.fsi_residual - base.fsi_residual),
        )

    rng = np.random.default_rng(0)
    expo_ok = True
    for _ in range(5):
        F, sigma, lam = random_point(rng)
        q = VarietyPoint(F=F, sigma=sigma, lam=lam, s=0.0)
        r1 = system_residuals(q)
        for t in (2.0, 5.0):
            rt = system_residuals(q.scaled(t))
            expo_ok &= abs(rt.eq1_residual / r1.eq1_residual - t) < 1e-9 * t
            expo_ok &= abs(rt.fsi_residual / r1.fsi_residual - t ** 3) < 1e-9 * t ** 3

    ok = worst_total <= 1e-3 and worst_rank <= 3 and flip and perm_dev <= 1e-12 and expo_ok
    report(
        6,
        ok,
        f"membership of {len(points)} harvested web points: residual {worst_total:.2e} "
        f"(<=1e-3), rank {worst_rank} (<=3); sigma_12+0.01 flips with residual "
        f"{rep_bad.total:.3f} (>=0.005); permutation invariance {perm_dev:.1e} (<=1e-12); "
        f"homogeneity exponents (1, 3) {'verified' if expo_ok else 'BROKEN'}",
    )


def test_criterion_7_structure_reconstruction(
    s2xs2_chart, kpc_chart, s2xs2_frames, kpc_frames
):
    worst = 0.0
    for ch, frames in ((s2xs2_chart, s2xs2_frames), (kpc_chart, kpc_frames)):
        for fr in frames[:2]:
            sec, mixed = curvature_from_structure(structure_data(ch, fr), fr)
            Rf = frame_components(curv4.curvature_at(ch, fr.x).riem, fr.E)
            for i in range(4):
                for j in range(4):
                    if i != j:
                        worst = max(worst, abs(sec[i, j] - Rf[i, j, i, j]))
            for (i, j, k) in itertools.permutations(range(4), 3):
                worst = max(worst, abs(mixed[i, j, k] - Rf[k, i, j, k]))
    report(
        7,
        worst <= 1e-3,
        f"curvature from (F, DF) vs chart curvature on s2xs2 and kpc frames: "
        f"max component deviation {worst:.2e} (<=1e-3)",
    )


def test_criterion_8_negative_control(bump_chart):
    rep = curv4.harmonicity_report(bump_chart, count=8, seed=3)
    ds = rep.maxima["dvw.ds"]
    worst_sym, worst_brt = 0.0, 0.0
    for x in curv4.sample_points(bump_chart, count=4, seed=0):
        e = curv4.curvature_at(bump_chart, x)
        worst_sym = max(worst_sym, e.projection_distance / e.riem.norm)
        worst_brt = max(worst_brt, curv4.contracted_bianchi_residual(bump_chart, x))
    ok = (not rep.harmonic) and ds > 1e-2 and worst_sym <= 1e-9 and worst_brt <= 1e-5
    report(
        8,
        ok,
        f"bump:0.1 fails harmonicity (|ds| {ds:.2f} > 1e-2) while universal identities "
        f"hold (sym {worst_sym:.1e} <=1e-9 rel, 2divRic-ds {worst_brt:.1e} <=1e-5)",
    )


def test_criterion_9_oracle_equivalence(s2xs2_frames, kpc_frames, rxs3_chart):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        F, sigma, lam = random_point(rng)
        worst = max(worst, float(np.max(np.abs(h_components(F) - brute_force_h(F)))))
        worst = max(
            worst, float(np.max(np.abs(z_components(sigma, lam) - brute_force_z(sigma, lam))))
        )
    frames = list(s2xs2_frames) + list(kpc_frames)
    frames += [
        extract_frame(rxs3_chart, x) for x in curv4.sample_points(rxs3_chart, count=3, seed=1)
    ]
    d_max = max(sy_invariants(fr)["zeta"] for fr in frames)
    ok = worst <= 1e-12 and d_max <= 2
    report(
        9,
        ok,
        f"h/z vs brute-force permutation loops on 1000 points: max dev {worst:.1e} "
        f"(<=1e-12); d <= 2 on all harmonic examples (max {d_max})",
    )
