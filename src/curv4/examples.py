"""Example metric charts: harmonic reference geometries and controls.

Registry names (parameters after a colon, comma-separated):

    s4, h4          constant curvature +1 / -1
    s2xs2:k1,k2     product of two surfaces of constant Gauss curvature
    rxs3:c          line times a 3-dimensional space form
    kpc:c,r,K0      warped product over a rotationally symmetric surface
                    whose Gauss curvature solves the cubic profile equation
    bump:a          conformally flat non-harmonic control, phi = a x1^3
    randflat:seed   seeded smooth perturbation of the flat metric

All charts are coordinate boxes with analytic (or spline-backed) metric
component functions, suitable for the finite-difference curvature pipeline.
Every evaluator is written once over the last axis of its argument, so it
maps stacked points (..., 4) to stacked metrics (..., 4, 4) and the charts
declare `batched=True`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .chart import MetricChart
from .errors import InputError, IntegrationError
from .numerics import rk4_step


def _conformal_surface_block(k, u, v):
    """Scale factor of the curvature-k surface metric (1 + k rho^2/4)^-2."""
    return (1.0 + 0.25 * k * (u * u + v * v)) ** -2.0


def make_constant_curvature(K0, name=None, half_width=0.6):
    """Space form of sectional curvature K0: g = (1 + K0 |x|^2/4)^-2 delta."""
    K0 = float(K0)
    if K0 < 0.0 and 1.0 + 0.25 * K0 * 4.0 * half_width**2 <= 0.05:
        raise InputError("box reaches the conformal-factor singularity")

    def eval_fn(x):
        conf = (1.0 + 0.25 * K0 * np.sum(x * x, axis=-1)) ** -2.0
        return conf[..., None, None] * np.eye(4)

    box = np.array([[-half_width, half_width]] * 4)
    return MetricChart(
        name=name or ("s4" if K0 > 0 else "h4" if K0 < 0 else "flat"),
        box=box,
        eval_fn=eval_fn,
        params={"K0": K0},
        batched=True,
    )


def make_product_surfaces(k1, k2, half_width=0.5):
    """S^2(k1) x S^2(k2) style product in per-factor stereographic charts."""
    k1, k2 = float(k1), float(k2)

    def eval_fn(x):
        g = np.zeros(x.shape[:-1] + (4, 4))
        c1 = _conformal_surface_block(k1, x[..., 0], x[..., 1])
        c2 = _conformal_surface_block(k2, x[..., 2], x[..., 3])
        g[..., 0, 0] = g[..., 1, 1] = c1
        g[..., 2, 2] = g[..., 3, 3] = c2
        return g

    box = np.array([[-half_width, half_width]] * 4)
    return MetricChart(
        name=f"s2xs2:{k1:g},{k2:g}",
        box=box,
        eval_fn=eval_fn,
        params={"k1": k1, "k2": k2},
        adapted_frame_fn=lambda x: np.eye(4),
        batched=True,
    )


def make_line_cross_space(c, half_width=0.5):
    """R x N^3(c): flat line factor times a 3-dimensional space form."""
    c = float(c)

    def eval_fn(x):
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 0, 0] = 1.0
        conf = (1.0 + 0.25 * c * (x[..., 1] ** 2 + x[..., 2] ** 2 + x[..., 3] ** 2)) ** -2.0
        g[..., 1, 1] = g[..., 2, 2] = g[..., 3, 3] = conf
        return g

    box = np.array([[-0.6, 0.6]] + [[-half_width, half_width]] * 3)
    return MetricChart(
        name=f"rxs3:{c:g}",
        box=box,
        eval_fn=eval_fn,
        params={"c": c},
        adapted_frame_fn=lambda x: np.eye(4),
        batched=True,
    )


@dataclass
class SurfaceProfile:
    """Numerical solution (f, K) of the rotationally symmetric profile.

    The surface is Q = {(t, theta)} with h = dt^2 + f(t)^2 dtheta^2, so
    K = -f''/f, and the Gauss curvature solves

        (K + c)^3 + 3 (K + c) Delta K - 6 |dK|^2 = r^3,
        Delta K = K'' + (f'/f) K',   |dK|^2 = K'^2.

    Accessors interpolate the integration grid with cubic splines.
    """

    c: float
    r: float
    K0: float
    ts: np.ndarray
    fs: np.ndarray
    dfs: np.ndarray
    Ks: np.ndarray
    dKs: np.ndarray
    truncated: bool
    _f_spline: CubicSpline = field(init=False, repr=False)
    _K_spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self._f_spline = CubicSpline(self.ts, self.fs, bc_type="not-a-knot")
        self._K_spline = CubicSpline(self.ts, self.Ks, bc_type="not-a-knot")

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])

    def f(self, t):
        return float(self._f_spline(t))

    def df(self, t):
        return float(self._f_spline(t, 1))

    def K(self, t):
        return float(self._K_spline(t))

    def dK(self, t):
        return float(self._K_spline(t, 1))

    def to_csv(self, fh):
        """Write the integration grid as CSV with columns t, f, K."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "f", "K"])
        for t, f, K in zip(self.ts, self.fs, self.Ks):
            writer.writerow([repr(float(t)), repr(float(f)), repr(float(K))])


def solve_kpc_profile(
    c,
    r,
    K0,
    t_span=(0.0, 2.0),
    steps=4000,
    f_min=1e-3,
    kappa_min=1e-3,
):
    """Integrate the profile equations with initial data f=1, f'=0, K=K0,
    K'=0 at t_span[0].

    Integration stops early (truncated=True) when f or K + c approaches
    its guard floor; K0 = r - c is an exact constant solution.
    """
    c, r, K0 = float(c), float(r), float(K0)
    if K0 + c <= kappa_min:
        raise InputError(f"K0 + c = {K0 + c:g} is not above the floor {kappa_min:g}")

    def rhs(t, y):
        f, fp, K, Kp = y
        kc = K + c
        return np.array(
            [
                fp,
                -K * f,
                Kp,
                (r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - (fp / f) * Kp,
            ]
        )

    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / int(steps)
    ts = [t0]
    ys = [np.array([1.0, 0.0, K0, 0.0])]
    truncated = False
    t, y = t0, ys[0]
    for _ in range(int(steps)):
        y_next = rk4_step(rhs, t, y, h)
        if not np.all(np.isfinite(y_next)):
            truncated = True
            break
        if y_next[0] < f_min or y_next[2] + c < kappa_min:
            truncated = True
            break
        t = t + h
        y = y_next
        ts.append(t)
        ys.append(y)
    if len(ts) < 32:
        raise IntegrationError(
            f"profile left the admissible region almost immediately "
            f"(c={c:g}, r={r:g}, K0={K0:g})",
            t_last=ts[-1],
        )
    arr = np.array(ys)
    return SurfaceProfile(
        c=c,
        r=r,
        K0=K0,
        ts=np.array(ts),
        fs=arr[:, 0],
        dfs=arr[:, 1],
        Ks=arr[:, 2],
        dKs=arr[:, 3],
        truncated=truncated,
    )


def profile_residual(profile):
    """Back-substitution residual of (K+c)^3 + 3(K+c) Delta K - 6 |dK|^2 - r^3
    on the integration grid, with grid central differences for K', K''.

    Returns the max absolute residual over interior grid points.
    """
    ts, fs, Ks = profile.ts, profile.fs, profile.Ks
    h = ts[1] - ts[0]
    Kp = (Ks[2:] - Ks[:-2]) / (2.0 * h)
    Kpp = (Ks[2:] - 2.0 * Ks[1:-1] + Ks[:-2]) / h**2
    fp = (fs[2:] - fs[:-2]) / (2.0 * h)
    f_mid = fs[1:-1]
    kc = Ks[1:-1] + profile.c
    lap = Kpp + (fp / f_mid) * Kp
    resid = kc**3 + 3.0 * kc * lap - 6.0 * Kp**2 - profile.r**3
    return float(np.max(np.abs(resid)))


def _generalized_sine(c):
    """sc_c with sc_c'' = -c sc_c, sc_c(0)=0, sc_c'(0)=1."""
    if c > 0.0:
        rc = np.sqrt(c)
        return lambda u: np.sin(rc * u) / rc
    if c < 0.0:
        rc = np.sqrt(-c)
        return lambda u: np.sinh(rc * u) / rc
    return lambda u: u


def make_kpc_warped(profile, margin=0.03):
    """The warped 4-metric (h x h^c) / (K + c)^2 over the profile surface.

    Coordinates (t, theta, u, v): h = dt^2 + f(t)^2 dtheta^2 on the base,
    h^c = du^2 + sc_c(u)^2 dv^2 of constant curvature c on the fibre.
    """
    c = profile.c
    sc = _generalized_sine(c)
    if c > 0.0:
        u_box = [0.2 * np.pi / np.sqrt(c), 0.8 * np.pi / np.sqrt(c)]
    else:
        u_box = [0.5, 1.5]
    t_box = [profile.t0 + margin, profile.t1 - margin]
    if t_box[1] - t_box[0] < 10.0 * margin:
        raise InputError("profile domain too short for a usable chart")

    def eval_fn(x):
        t, u = x[..., 0], x[..., 2]
        conf = (profile._K_spline(t) + c) ** -2.0
        g = np.zeros(x.shape[:-1] + (4, 4))
        g[..., 0, 0] = conf
        g[..., 1, 1] = conf * profile._f_spline(t) ** 2
        g[..., 2, 2] = conf
        g[..., 3, 3] = conf * sc(u) ** 2
        return g

    return MetricChart(
        name=f"kpc:{c:g},{profile.r:g},{profile.K0:g}",
        box=np.array([t_box, [-0.6, 0.6], u_box, [-0.6, 0.6]]),
        eval_fn=eval_fn,
        params={"c": c, "r": profile.r, "K0": profile.K0},
        adapted_frame_fn=lambda x: np.eye(4),
        default_tols={"third": 1e-3},
        batched=True,
    )


def make_bump_nonharmonic(a):
    """Conformally flat control e^{2 phi} delta with phi = a x1^3; its
    scalar curvature is wildly nonconstant, so div R != 0."""
    a = float(a)

    def eval_fn(x):
        return np.exp(2.0 * a * x[..., 0] ** 3)[..., None, None] * np.eye(4)

    box = np.array([[0.4, 1.6], [-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]])
    return MetricChart(
        name=f"bump:{a:g}",
        box=box,
        eval_fn=eval_fn,
        params={"a": a},
        batched=True,
    )


def make_random_perturbed_flat(seed, amplitude=0.15, waves=2, half_width=0.5):
    """delta plus a seeded trigonometric symmetric perturbation.

    Off-diagonal amplitudes are amplitude/3 so Gershgorin keeps the metric
    far from degenerate on the box; frequencies sit in [0.8, 2.0], large
    enough that curvature is order one against the flat background.
    """
    seed = int(seed)
    rng = np.random.default_rng(seed)
    wavevectors, phases, spread = [], [], []
    for i in range(4):
        for j in range(i, 4):
            amp = amplitude if i == j else amplitude / 3.0
            for _ in range(waves):
                wavevectors.append(rng.uniform(0.8, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4))
                phases.append(rng.uniform(0.0, 2.0 * np.pi))
                slot = np.zeros((4, 4))
                slot[i, j] = slot[j, i] = amp / waves
                spread.append(slot.ravel())
    # wave t adds spread[t] * sin(k_t . x + phase_t) to the flattened metric
    wavevectors, phases, spread = np.array(wavevectors), np.array(phases), np.array(spread)

    def eval_fn(x):
        return np.eye(4) + (np.sin(x @ wavevectors.T + phases) @ spread).reshape(
            x.shape[:-1] + (4, 4)
        )

    box = np.array([[-half_width, half_width]] * 4)
    return MetricChart(
        name=f"randflat:{seed}",
        box=box,
        eval_fn=eval_fn,
        params={"seed": seed, "amplitude": amplitude},
        batched=True,
    )


@dataclass(frozen=True)
class ExampleSpec:
    """One registry entry: factory plus named defaults."""

    kind: str
    param_names: tuple
    defaults: tuple
    harmonic: bool
    description: str


REGISTRY = {
    "s4": ExampleSpec("s4", (), (), True, "round sphere, curvature +1"),
    "h4": ExampleSpec("h4", (), (), True, "hyperbolic space, curvature -1"),
    "s2xs2": ExampleSpec(
        "s2xs2", ("k1", "k2"), (1.0, 2.0), True, "product of constant-curvature surfaces"
    ),
    "rxs3": ExampleSpec("rxs3", ("c",), (1.0,), True, "line times 3d space form"),
    "kpc": ExampleSpec(
        "kpc", ("c", "r", "K0"), (1.0, 1.2, 0.5), True, "warped product over a profile surface"
    ),
    "bump": ExampleSpec("bump", ("a",), (0.1,), False, "non-harmonic conformal control"),
    "randflat": ExampleSpec(
        "randflat", ("seed",), (0,), False, "seeded perturbed flat metric"
    ),
}


def example_names():
    return sorted(REGISTRY)


def build_example(name):
    """Instantiate a chart from a registry string like 'kpc:1,1.2,0.5'.

    Omitted parameters take the registry defaults; extra ones are an error.
    """
    kind, _, raw = name.partition(":")
    kind = kind.strip()
    if kind not in REGISTRY:
        raise InputError(f"unknown example {kind!r}; choices: {', '.join(example_names())}")
    spec = REGISTRY[kind]
    values = list(spec.defaults)
    if raw.strip():
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) > len(spec.param_names):
            raise InputError(
                f"{kind} takes at most {len(spec.param_names)} parameters, got {len(parts)}"
            )
        for idx, part in enumerate(parts):
            try:
                values[idx] = float(part)
            except ValueError as exc:
                raise InputError(f"bad parameter {part!r} for {kind}") from exc

    if kind == "s4":
        return make_constant_curvature(1.0, name="s4")
    if kind == "h4":
        return make_constant_curvature(-1.0, name="h4")
    if kind == "s2xs2":
        return make_product_surfaces(*values)
    if kind == "rxs3":
        return make_line_cross_space(*values)
    if kind == "kpc":
        profile = solve_kpc_profile(*values)
        return make_kpc_warped(profile)
    if kind == "bump":
        return make_bump_nonharmonic(*values)
    profile_seed = int(values[0])
    return make_random_perturbed_flat(profile_seed)
