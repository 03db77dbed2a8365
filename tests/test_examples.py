import io

import numpy as np
import pytest

import curv4
from curv4.errors import InputError
from curv4.examples import (
    REGISTRY,
    build_example,
    example_names,
    make_bump_nonharmonic,
    make_constant_curvature,
    make_kpc_warped,
    make_product_surfaces,
    profile_residual,
    solve_kpc_profile,
)
from curv4.frames import extract_frame
from curv4.numerics import rk4_step
from tests.conftest import ric_eigenvalues


def test_registry_and_parsing():
    names = example_names()
    for kind in ("s4", "h4", "s2xs2", "rxs3", "kpc", "bump", "randflat"):
        assert kind in names
    ch = build_example("s2xs2:1,2")
    assert ch.params["k1"] == 1.0 and ch.params["k2"] == 2.0
    # defaults fill omitted parameters
    assert build_example("kpc").params == {"c": 1.0, "r": 1.2, "K0": 0.5}
    assert build_example("rxs3").params["c"] == 1.0
    with pytest.raises(InputError):
        build_example("nosuch")
    with pytest.raises(InputError):
        build_example("s2xs2:1,2,3")
    with pytest.raises(InputError):
        build_example("s4:abc")
    # long aliases and the '-default' suffix work anywhere a name does
    assert build_example("product_surfaces:1,2").name == "s2xs2:1,2"
    assert build_example("s4-default").name == "s4"


def test_registry_descriptions():
    for kind, spec in REGISTRY.items():
        assert spec.description
        assert len(spec.param_names) == len(spec.defaults)


def test_constant_curvature_values():
    for K0, s_expect in ((1.0, 12.0), (-1.0, -12.0)):
        ch = make_constant_curvature(K0, name=f"cc:{K0:g}")
        x = curv4.sample_points(ch, count=1, seed=0)[0]
        e = curv4.curvature_at(ch, x)
        assert e.s == pytest.approx(s_expect, abs=1e-5)
        assert e.weyl.norm < 1e-6
    flat = make_constant_curvature(0.0, name="cc:0")
    e = curv4.curvature_at(flat, np.zeros(4))
    assert e.riem.norm < 1e-10


def test_product_einstein_case():
    # equal curvatures: lambda = 0 and W+ spectrum {2/3, -1/3, -1/3}
    ch = make_product_surfaces(1, 1)
    x = curv4.sample_points(ch, count=1, seed=0)[0]
    fr = extract_frame(ch, x)
    assert np.max(np.abs(fr.lam)) < 1e-7
    assert np.linalg.eigvalsh(fr.w_plus) == pytest.approx([-1 / 3, -1 / 3, 2 / 3], abs=1e-6)


def test_product_opposite_curvatures_conformally_flat():
    ch = make_product_surfaces(1, -1)
    x = curv4.sample_points(ch, count=1, seed=0)[0]
    assert curv4.curvature_at(ch, x).weyl.norm < 1e-6


def test_line_cross_space(rxs3_chart):
    x = curv4.sample_points(rxs3_chart, count=1, seed=0)[0]
    e = curv4.curvature_at(rxs3_chart, x)
    assert ric_eigenvalues(e) == pytest.approx([0.0, 2.0, 2.0, 2.0], abs=1e-6)
    assert e.weyl.norm < 1e-6


def test_kpc_profile_constant_solution():
    prof = solve_kpc_profile(1.0, 3.0, 2.0)  # K0 = r - c
    assert np.max(np.abs(prof.Ks - 2.0)) <= 1e-10
    assert np.max(np.abs(prof.dKs)) <= 1e-10
    # f reproduces the constant-curvature profile cos(sqrt(K0) t)
    assert np.max(np.abs(prof.fs - np.cos(np.sqrt(2.0) * prof.ts))) < 1e-8
    assert prof.truncated  # f reaches its floor before t = 2


def test_kpc_profile_back_substitution(kpc_profile):
    assert profile_residual(kpc_profile) <= 1e-6
    assert not kpc_profile.truncated
    assert np.min(kpc_profile.Ks + kpc_profile.c) > 1e-3
    assert np.min(kpc_profile.fs) > 0.0


def test_kpc_profile_consistency(kpc_profile):
    # K = -f''/f on the interior grid (grid second differences of f)
    fs, Ks = kpc_profile.fs, kpc_profile.Ks
    h = kpc_profile.ts[1] - kpc_profile.ts[0]
    d2f = (fs[2:] - 2.0 * fs[1:-1] + fs[:-2]) / h**2
    idx = slice(50, -50, 100)
    assert np.max(np.abs(Ks[1:-1][idx] + d2f[idx] / fs[1:-1][idx])) < 1e-6


def test_kpc_profile_grid_matches_rk4_step():
    # the float loop takes the steps numerics.rk4_step takes, bit for bit
    c, r, K0, steps = 1.0, 1.2, 5.0, 4000

    def rhs(t, y):
        f, fp, K, Kp = y
        kc = K + c
        return np.array(
            [fp, -K * f, Kp, (r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - (fp / f) * Kp]
        )

    prof = solve_kpc_profile(c, r, K0, steps=steps)
    h = 2.0 / steps
    t, y, ys = 0.0, np.array([1.0, 0.0, K0, 0.0]), []
    for _ in range(len(prof.ts)):
        ys.append(y)
        y = rk4_step(rhs, t, y, h)
        t = t + h
    ys = np.array(ys)
    assert np.array_equal(np.column_stack([prof.fs, prof.dfs, prof.Ks, prof.dKs]), ys)
    assert prof.truncated


def _rk4_step_profile(c, r, K0, t_span=(0.0, 2.0), steps=4000, f_min=1e-3, kappa_min=1e-3):
    """The profile grid from a written-out numerics.rk4_step loop, with the
    solver's stopping rules: (ts, states, truncated)."""

    def rhs(t, y):
        f, fp, K, Kp = y
        kc = K + c
        return np.array(
            [fp, -K * f, Kp, (r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - (fp / f) * Kp]
        )

    h = (t_span[1] - t_span[0]) / steps
    t, y = t_span[0], np.array([1.0, 0.0, K0, 0.0])
    ts, ys, truncated = [t], [y], False
    with np.errstate(all="ignore"):
        for _ in range(steps):
            y = rk4_step(rhs, t, y, h)
            if not np.all(np.isfinite(y)) or y[0] < f_min or y[2] + c < kappa_min:
                truncated = True
                break
            t = t + h
            ts.append(t)
            ys.append(y)
    return np.array(ts), np.array(ys), truncated


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1.0, 1.2, 0.5), {}),  # kpc default
        ((1.0, 1.2, 5.0), {}),
        ((1.0, 3.0, 2.0), {}),  # K0 = r - c: constant K
        ((-0.5, 1.0, 1.0), {}),
        ((0.0, 1.0, 0.5), {}),
        ((1.0, 1.2, 0.5), {"steps": 2000}),
        ((1.0, 1.2, 0.5), {"kappa_min": 1.4}),  # stopped by the K + c floor
        ((1.0, 0.5, -0.99), {}),  # K + c blows up: stopped by a non-finite state
    ],
)
def test_kpc_profile_grid_matches_rk4_loop(args, kwargs):
    prof = solve_kpc_profile(*args, **kwargs)
    ts, ys, truncated = _rk4_step_profile(*args, **kwargs)
    assert np.array_equal(prof.ts, ts)
    for k, grid in enumerate((prof.fs, prof.dfs, prof.Ks, prof.dKs)):
        assert np.array_equal(grid, ys[:, k])
    assert prof.truncated == truncated


def test_kpc_profile_between_nodes():
    # one RK4 step off the nearest node, and Taylor coefficients that
    # satisfy the profile ODE: f'' = -K f and K'' from the cubic equation
    prof = solve_kpc_profile(1.0, 1.2, 0.5)
    t = prof.ts[1234] + 0.3 * (prof.ts[1] - prof.ts[0])
    assert prof.f(prof.ts[1234]) == prof.fs[1234]
    f, fp, K, Kp = prof.state(t)
    (f0, f1, f2, f3), (k0, k1, k2, k3) = prof.series(t, 3)
    assert (f0, f1, k0, k1) == pytest.approx((f, fp, K, Kp), rel=1e-15)
    assert 2.0 * f2 == pytest.approx(-K * f, rel=1e-13)
    assert 6.0 * f3 == pytest.approx(-(Kp * f + K * fp), rel=1e-13)
    kc = K + prof.c
    assert 2.0 * k2 == pytest.approx(
        (prof.r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - fp / f * Kp, rel=1e-13
    )


def test_kpc_profile_step_convergence():
    a = solve_kpc_profile(1.0, 1.2, 0.5, steps=4000)
    b = solve_kpc_profile(1.0, 1.2, 0.5, steps=2000)
    assert np.max(np.abs(a.fs[::2] - b.fs)) <= 1e-7
    assert np.max(np.abs(a.Ks[::2] - b.Ks)) <= 1e-7


def test_kpc_profile_rejects_bad_start():
    with pytest.raises(InputError):
        solve_kpc_profile(1.0, 1.2, -1.0)  # K0 + c = 0


def test_profile_csv_export(kpc_profile):
    out = io.StringIO()
    kpc_profile.to_csv(out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "t,f,K"
    assert len(lines) == 1 + len(kpc_profile.ts)


def test_kpc_warped_harmonic(kpc_chart):
    rep = curv4.harmonicity_report(kpc_chart, count=6, seed=0)
    assert rep.harmonic
    assert all(v <= 1e-3 for v in rep.maxima.values())


def test_kpc_warped_pointwise_assembly(kpc_chart, kpc_profile):
    # block-diagonal product rescaled by (K+c)^-2, K interpolated in t only
    for x in curv4.sample_points(kpc_chart, count=5, seed=3):
        t, u = x[0], x[2]
        conf = (kpc_profile.K(t) + 1.0) ** -2
        expected = conf * np.diag([1.0, kpc_profile.f(t) ** 2, 1.0, np.sin(u) ** 2])
        assert np.max(np.abs(kpc_chart.eval(x) - expected)) < 1e-10


def test_kpc_constant_profile_matches_product():
    # constant K = r - c collapses to S2(K0 r^2) x S2(c r^2) invariants
    prof = solve_kpc_profile(1.0, 3.0, 2.0)
    warped = make_kpc_warped(prof)
    product = make_product_surfaces(18.0, 9.0)
    fw = extract_frame(warped, curv4.sample_points(warped, count=1, seed=0)[0])
    fp = extract_frame(product, curv4.sample_points(product, count=1, seed=0)[0])
    assert np.sort(fw.lam) == pytest.approx(np.sort(fp.lam), abs=1e-6)
    assert np.sort(fw.sigma, axis=None) == pytest.approx(
        np.sort(fp.sigma, axis=None), abs=1e-6
    )
    assert fw.s == pytest.approx(fp.s, abs=1e-5)


def test_bump_negative_control(bump_chart):
    rep = curv4.harmonicity_report(bump_chart, count=6, seed=0)
    assert not rep.harmonic
    assert rep.maxima["dvw.ds"] > 1e-2
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert curv4.contracted_bianchi_residual(bump_chart, x) <= 1e-5
    flat = make_bump_nonharmonic(0.0)
    assert curv4.harmonicity_report(flat, count=3, seed=0).harmonic


def test_randflat_deterministic():
    a = curv4.make_random_perturbed_flat(3)
    b = curv4.make_random_perturbed_flat(3)
    c = curv4.make_random_perturbed_flat(4)
    x = np.array([0.1, -0.2, 0.3, 0.0])
    assert np.array_equal(a.eval(x), b.eval(x))
    assert not np.array_equal(a.eval(x), c.eval(x))
    # perturbation stays metric-positive across the box
    for x in curv4.sample_points(a, count=16, seed=0):
        assert np.linalg.eigvalsh(a.eval(x))[0] > 0.3
