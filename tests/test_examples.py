import functools
import io

import numpy as np
import pytest

import curv4
from curv4 import examples
from curv4.errors import InputError
from curv4.tensor4 import tensor_norm
from curv4.chart import curvature_batch
from curv4.examples import (
    REGISTRY,
    build_example,
    example_names,
    profile_residual,
    solve_kpc_profile,
)
from curv4.frames import extract_frame, extract_frames
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
    # parameters are finite, and randflat's seed a non-negative integer
    for bad in ("s2xs2:nan,2", "rxs3:inf", "bump:-inf", "randflat:-1", "randflat:1.5"):
        with pytest.raises(InputError):
            build_example(bad)
    assert build_example("randflat:3.0").name == "randflat:3"
    # long aliases and the '-default' suffix work anywhere a name does
    assert build_example("product_surfaces:1,2").name == "s2xs2:1,2"
    assert build_example("s4-default").name == "s4"


def test_registry_factories_build_their_kind():
    # each entry is a chart family, its row maker and the row maker's
    # keyword defaults, and the defaults build the chart that the bare kind
    # names
    for kind, (family, make_row, defaults) in REGISTRY.items():
        (chart,) = family.charts([make_row(**defaults)])
        assert chart.name.partition(":")[0] == kind and chart.family is family
        assert build_example(kind).name == chart.name


def test_chart_names_round_trip():
    # every kind at its defaults, and values that six significant digits cut
    names = list(REGISTRY) + ["s2xs2:1.23456789", "randflat:12345678", "bump:1e-7"]
    for name in names:
        chart = build_example(name)
        again = build_example(chart.name)
        assert again.name == chart.name and again.params == chart.params
    assert build_example("s2xs2:1.23456789").name == "s2xs2:1.23456789,2"
    assert build_example("randflat:12345678").params["seed"] == 12345678
    assert build_example("bump:1e-7").params["a"] == 1e-7


def test_build_example_takes_a_kind_and_params():
    chart = build_example("product_surfaces", {"k2": 1.23456789})
    assert chart.name == "s2xs2:1,1.23456789"
    assert build_example("s4", {}).name == "s4"
    assert build_example("randflat", {"seed": 12345678.0}).name == "randflat:12345678"
    for name, params, match in (
        ("s2xs2:1", {"k2": 3.0}, "carries parameters"),
        ("s2xs2", {"k3": 1.0}, "no parameter 'k3'"),
        ("s4", {"K0": 2.0}, "no parameter 'K0'"),
        ("bump", {"a": float("nan")}, "'a' must be finite"),
        ("nosuch", {}, "unknown example"),
    ):
        with pytest.raises(InputError, match=match):
            build_example(name, params)


def test_randflat_factory_checks_its_seed():
    # the check lives in the row maker, so a request cannot truncate 1.5 to 1
    for bad in (1.5, -1, float("nan"), float("inf")):
        with pytest.raises(InputError, match="'seed'"):
            build_example("randflat", {"seed": bad})
    assert build_example("randflat", {"seed": 3.0}).name == "randflat:3"


def space_form(K0, name=None):
    """The constant-curvature chart of sectional curvature K0 from the
    registry's s4/h4 family and row maker, under `name`."""
    family = REGISTRY["s4"][0]
    (chart,) = family.charts([examples._space_form_row(K0, name)])
    return chart


def test_constant_curvature_values():
    for K0, s_expect in ((1.0, 12.0), (-1.0, -12.0)):
        ch = space_form(K0, name=f"cc:{K0:g}")
        x = curv4.sample_points(ch, count=1, seed=0)[0]
        e = curv4.curvature_at(ch, x)
        assert e.s == pytest.approx(s_expect, abs=1e-5)
        assert tensor_norm(e.weyl) < 1e-6
    flat = space_form(0.0, name="cc:0")
    e = curv4.curvature_at(flat, np.zeros(4))
    assert tensor_norm(e.R) < 1e-10


def test_constant_curvature_name_builds_it_back():
    # only the registry's own K0 take its names; any other needs a name
    for K0, name in ((1.0, "s4"), (-1.0, "h4")):
        ch = space_form(K0)
        assert ch.name == name
        assert build_example(ch.name).params == ch.params
    for K0 in (0.5, -0.5, 0.0, 2.0):
        with pytest.raises(InputError, match="explicit name"):
            space_form(K0)
    assert space_form(0.5, name="cc:0.5").params == {"K0": 0.5}


def test_product_einstein_case():
    # equal curvatures: lambda = 0 and W+ spectrum {2/3, -1/3, -1/3}; the
    # point has no canonical frame, and its stack still holds its W+ block
    ch = build_example("s2xs2:1,1")
    X = curv4.sample_points(ch, count=1, seed=0)
    frames = extract_frames(ch, curvature_batch(ch, X, degree=3))
    assert not frames.framed.any()
    assert np.max(np.abs(frames.lam[0])) < 1e-7
    spectrum = np.linalg.eigvalsh(frames.w_plus[0])
    assert spectrum == pytest.approx([-1 / 3, -1 / 3, 2 / 3], abs=1e-6)


def test_product_opposite_curvatures_conformally_flat():
    ch = build_example("s2xs2:1,-1")
    x = curv4.sample_points(ch, count=1, seed=0)[0]
    assert tensor_norm(curv4.curvature_at(ch, x).weyl) < 1e-6


def test_line_cross_space(rxs3_chart):
    x = curv4.sample_points(rxs3_chart, count=1, seed=0)[0]
    e = curv4.curvature_at(rxs3_chart, x)
    assert ric_eigenvalues(e) == pytest.approx([0.0, 2.0, 2.0, 2.0], abs=1e-6)
    assert tensor_norm(e.weyl) < 1e-6


def test_kpc_profile_constant_solution():
    prof = solve_kpc_profile(1.0, 3.0, 2.0)  # K0 = r - c
    t = np.linspace(0.0, prof.t1, 401)
    f, fp, K, Kp = prof.state(t)
    assert np.max(np.abs(K - 2.0)) <= 1e-10
    assert np.max(np.abs(Kp)) <= 1e-10
    # f reproduces the constant-curvature profile cos(sqrt(K0) t)
    assert np.max(np.abs(f - np.cos(np.sqrt(2.0) * t))) < 1e-8
    assert np.max(np.abs(fp + np.sqrt(2.0) * np.sin(np.sqrt(2.0) * t))) < 1e-8
    # f reaches its floor before t = 2, where cos(sqrt(2) t) = F_MIN
    assert prof.truncated
    assert prof.t1 == pytest.approx(np.arccos(examples.F_MIN) / np.sqrt(2.0), abs=1e-9)


def test_kpc_profile_back_substitution(kpc_profile):
    assert profile_residual(kpc_profile) <= 1e-6
    assert not kpc_profile.truncated
    assert np.min(kpc_profile.Ks + kpc_profile.c) > 1e-3
    assert np.min(kpc_profile.fs) > 0.0


def test_kpc_profile_consistency(kpc_profile):
    # K = -f''/f and f' = df/dt, with central differences of state at dense t
    prof, d = kpc_profile, 1e-3
    t = np.linspace(prof.t0 + 0.01, prof.t1 - 0.01, 500)
    (f_lo, _, _, _), (f, fp, K, _), (f_hi, _, _, _) = (prof.state(t + s) for s in (-d, 0.0, d))
    assert np.max(np.abs(K + (f_hi - 2.0 * f + f_lo) / d**2 / f)) < 1e-6
    assert np.max(np.abs(fp - (f_hi - f_lo) / (2.0 * d))) < 1e-6


def _rk4_step(rhs, t, y, h):
    """One classical Runge-Kutta step."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_step_profile(cases, steps):
    """The profiles of a classical RK4 loop over [0, 2] for parameter sets
    (c, r, K0, kappa_min), all at once, with the solver's floors: node times
    (steps + 1,) and states (steps + 1, 4, len(cases)), nan from where a
    state stops being finite or f or K + c passes its floor."""
    c, r, K0, kappa_min = np.array(cases).T

    def rhs(t, y):
        f, fp, K, Kp = y
        kc = K + c
        return np.array(
            [fp, -K * f, Kp, (r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - (fp / f) * Kp]
        )

    h = 2.0 / steps
    y = np.array([np.ones_like(c), np.zeros_like(c), K0, np.zeros_like(c)])
    ys = np.empty((steps + 1, 4, len(cases)))
    ys[0], t = y, 0.0
    with np.errstate(all="ignore"):
        for k in range(steps):
            y = _rk4_step(rhs, t, y, h)
            stopped = ~(np.all(np.isfinite(y), axis=0) & (y[0] >= examples.F_MIN))
            y[:, stopped | (y[2] + c < kappa_min)] = np.nan
            t = t + h
            ys[k + 1] = y
    return h * np.arange(steps + 1), ys


# (c, r, K0) of each profile checked against RK4, and the solver floors set
# on the module for its run
REFERENCE_PROFILES = [
    ((1.0, 1.2, 0.5), {}),  # kpc default
    ((1.0, 1.2, 5.0), {}),
    ((1.0, 3.0, 2.0), {}),  # K0 = r - c: constant K
    ((-0.5, 1.0, 1.0), {}),
    ((0.0, 1.0, 0.5), {}),
    ((1.0, 1.2, -0.5), {}),
    ((1.0, 1.2, 0.5), {"KAPPA_MIN": 1.4}),  # stopped by the K + c floor
    ((1.0, 0.5, -0.99), {}),  # stopped by the step floor near a singularity
]


@functools.lru_cache(maxsize=None)
def _rk4_reference(steps):
    cases = [args + (kw.get("KAPPA_MIN", examples.KAPPA_MIN),) for args, kw in REFERENCE_PROFILES]
    return _rk4_step_profile(cases, steps)


@pytest.mark.parametrize("args, kwargs", REFERENCE_PROFILES)
def test_kpc_profile_grid_matches_rk4_loop(args, kwargs, monkeypatch):
    # the nodes and the series between them agree with a converged 64000-step
    # RK4 loop on the chart box, to 1e-11 untruncated and 1e-10 truncated;
    # kwargs are the solver's floors, set on the module for the run
    case = REFERENCE_PROFILES.index((args, kwargs))
    # the references read the module's floors, so they are made before patching
    ts, fine = _rk4_reference(64000)
    _, coarse = _rk4_reference(32000)
    for name, value in kwargs.items():
        monkeypatch.setattr(examples, name, value)
    prof = solve_kpc_profile(*args)
    ts, fine, coarse = ts[::2], fine[::2, :, case], coarse[:, :, case]
    box = (ts >= prof.t0 + 0.03) & (ts <= prof.t1 - 0.03)
    assert np.count_nonzero(box) > 100
    scale = np.maximum(1.0, np.abs(fine[box]))
    # RK4 halves its error 16-fold per halved step: the reference is good to
    # about 1e-11 on the whole box
    assert np.max(np.abs(coarse[box] - fine[box]) / scale) <= 1.5e-10
    err = np.max(np.abs(np.column_stack(prof.state(ts[box])) - fine[box]) / scale)
    assert err <= (1e-10 if prof.truncated else 1e-11)
    # only the default profile reaches t = 2, and it ends there exactly
    assert prof.truncated == (case != 0)
    assert prof.truncated or prof.t1 == 2.0
    if kwargs:
        assert prof.Ks[-1] + prof.c == pytest.approx(kwargs["KAPPA_MIN"], abs=1e-12)


def test_kpc_profile_between_nodes():
    # each node's series reaches the next node exactly, and the Taylor
    # coefficients at any t satisfy the profile ODE: f'' = -K f and K'' from
    # the cubic equation
    prof = solve_kpc_profile(1.0, 1.2, 0.5)
    nodes = np.column_stack([prof.fs, prof.dfs, prof.Ks, prof.dKs])
    assert np.array_equal(np.column_stack(prof.state(prof.ts)), nodes)
    assert prof.f(prof.ts[4]) == prof.fs[4]
    t = np.linspace(prof.t0, prof.t1, 301)
    f, fp, K, Kp = prof.state(t)
    # the float path of one point sums the series as the array path does
    for n in range(0, len(t), 50):
        assert prof.state(t[n]) == (f[n], fp[n], K[n], Kp[n])
    (f0, f1, f2, f3), (k0, k1, k2, k3) = np.moveaxis(prof.series(t, 3), (-2, -1), (0, 1))
    assert np.array_equal(np.array([f0, f1, k0, k1]), np.array([f, fp, K, Kp]))
    assert 2.0 * f2 == pytest.approx(-K * f, rel=1e-13)
    assert 6.0 * f3 == pytest.approx(-(Kp * f + K * fp), rel=1e-13)
    kc = K + prof.c
    assert 2.0 * k2 == pytest.approx(
        (prof.r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - fp / f * Kp, rel=1e-13
    )


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
    warped = build_example("kpc:1,3,2")
    product = build_example("s2xs2:18,9")
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
    flat = build_example("bump:0")
    assert curv4.harmonicity_report(flat, count=3, seed=0).harmonic


def test_randflat_deterministic():
    a = build_example("randflat:3")
    b = build_example("randflat:3")
    c = build_example("randflat:4")
    x = np.array([0.1, -0.2, 0.3, 0.0])
    assert np.array_equal(a.eval(x), b.eval(x))
    assert not np.array_equal(a.eval(x), c.eval(x))
    # perturbation stays metric-positive across the box
    for x in curv4.sample_points(a, count=16, seed=0):
        assert np.linalg.eigvalsh(a.eval(x))[0] > 0.3
