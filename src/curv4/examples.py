"""Example metric charts: harmonic reference geometries and controls.

Registry names (parameters after a colon, comma-separated):

    s4, h4          constant curvature +1 / -1
    s2xs2:k1,k2     product of two surfaces of constant Gauss curvature
    rxs3:c          line times a 3-dimensional space form
    kpc:c,r,K0      warped product over a rotationally symmetric surface
                    whose Gauss curvature solves the cubic profile equation
    bump:a          conformally flat non-harmonic control, phi = a x1^3
    randflat:seed   seeded smooth perturbation of the flat metric

Each chart's metric is one formula written with numpy operations over the
last axis of its argument. Applied to stacked points (..., 4) it is the
chart's batched `eval_fn`; applied to the coordinate jets of numerics.Jet
it is the chart's `jet_fn`, which gives the exact metric jet. The kpc
profile enters the formula through the profile ODE itself: its value at t
is one RK4 step off the nearest node of the integration grid, and its
Taylor coefficients at t follow from Picard iterations of the ODE.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chart import MetricChart
from .errors import InputError, IntegrationError
from .numerics import Jet

_EYE = np.eye(4)
# diagonal 0/1 matrices that place metric blocks, named by their diagonal
_D1100, _D0011 = np.diag([1.0, 1, 0, 0]), np.diag([0.0, 0, 1, 1])
_D1000, _D0111 = np.diag([1.0, 0, 0, 0]), np.diag([0.0, 1, 1, 1])
_D1010, _D0100, _D0001 = np.diag([1.0, 0, 1, 0]), np.diag([0.0, 1, 0, 0]), np.diag([0.0, 0, 0, 1])


def _formula_chart(formula, **kwargs):
    """A batched chart whose eval_fn and jet_fn both come from `formula`."""

    def jet_fn(x, degree):
        return formula(Jet.variables(x, degree)).coef

    return MetricChart(eval_fn=formula, jet_fn=jet_fn, batched=True, **kwargs)


def _conformal_factor(k, *coords):
    """(1 + k |y|^2 / 4)^-2 over the given coordinates: the space-form scale."""
    rho2 = sum((y * y for y in coords[1:]), coords[0] * coords[0])
    return (1.0 + 0.25 * k * rho2) ** -2.0


def make_constant_curvature(K0, name=None, half_width=0.6):
    """Space form of sectional curvature K0: g = (1 + K0 |x|^2/4)^-2 delta."""
    K0 = float(K0)
    if K0 < 0.0 and 1.0 + 0.25 * K0 * 4.0 * half_width**2 <= 0.05:
        raise InputError("box reaches the conformal-factor singularity")

    def formula(x):
        conf = _conformal_factor(K0, *(x[..., i] for i in range(4)))
        return conf[..., None, None] * _EYE

    return _formula_chart(
        formula,
        name=name or ("s4" if K0 > 0 else "h4" if K0 < 0 else "flat"),
        box=np.array([[-half_width, half_width]] * 4),
        params={"K0": K0},
    )


def make_product_surfaces(k1, k2, half_width=0.5):
    """S^2(k1) x S^2(k2) style product in per-factor stereographic charts."""
    k1, k2 = float(k1), float(k2)

    def formula(x):
        c1 = _conformal_factor(k1, x[..., 0], x[..., 1])
        c2 = _conformal_factor(k2, x[..., 2], x[..., 3])
        return c1[..., None, None] * _D1100 + c2[..., None, None] * _D0011

    return _formula_chart(
        formula,
        name=f"s2xs2:{k1:g},{k2:g}",
        box=np.array([[-half_width, half_width]] * 4),
        params={"k1": k1, "k2": k2},
        adapted_frame_fn=lambda x: np.eye(4),
    )


def make_line_cross_space(c, half_width=0.5):
    """R x N^3(c): flat line factor times a 3-dimensional space form."""
    c = float(c)

    def formula(x):
        conf = _conformal_factor(c, x[..., 1], x[..., 2], x[..., 3])
        return conf[..., None, None] * _D0111 + _D1000

    return _formula_chart(
        formula,
        name=f"rxs3:{c:g}",
        box=np.array([[-0.6, 0.6]] + [[-half_width, half_width]] * 3),
        params={"c": c},
        adapted_frame_fn=lambda x: np.eye(4),
    )


def _rk4(rhs, y, h):
    """One classical RK4 step of the autonomous profile system, unrolled so
    that it runs on Python floats as well as on arrays, with the operations
    of numerics.rk4_step in the same order."""
    f, fp, K, Kp = y
    a = 0.5 * h
    k1 = rhs(f, fp, K, Kp)
    k2 = rhs(f + a * k1[0], fp + a * k1[1], K + a * k1[2], Kp + a * k1[3])
    k3 = rhs(f + a * k2[0], fp + a * k2[1], K + a * k2[2], Kp + a * k2[3])
    k4 = rhs(f + h * k3[0], fp + h * k3[1], K + h * k3[2], Kp + h * k3[3])
    b = h / 6.0
    return (
        f + b * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        fp + b * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        K + b * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        Kp + b * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def _profile_rhs(c, r, f, fp, K, Kp):
    """(f, f', K, K')' of the profile system, on floats, arrays or jets."""
    kc = K + c
    return (fp, -K * f, Kp, (r**3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - (fp / f) * Kp)


@dataclass
class SurfaceProfile:
    """Numerical solution (f, K) of the rotationally symmetric profile.

    The surface is Q = {(t, theta)} with h = dt^2 + f(t)^2 dtheta^2, so
    K = -f''/f, and the Gauss curvature solves

        (K + c)^3 + 3 (K + c) Delta K - 6 |dK|^2 = r^3,
        Delta K = K'' + (f'/f) K',   |dK|^2 = K'^2.

    Between grid nodes the state (f, f', K, K') is one RK4 step off the
    nearest node; `series` gives the Taylor coefficients of f and K there.
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

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])

    def rhs(self, f, fp, K, Kp):
        """(f, f', K, K')' of the profile system, on floats, arrays or jets."""
        return _profile_rhs(self.c, self.r, f, fp, K, Kp)

    def state(self, t):
        """(f, f', K, K') at t, from the nearest grid node by one RK4 step."""
        h = self.ts[1] - self.ts[0]
        if np.ndim(t) == 0:
            # one point: Python floats are several times cheaper than numpy scalars
            t = float(t)
            n = min(max(round((t - self.t0) / h), 0), len(self.ts) - 1)
            y = (self.fs.item(n), self.dfs.item(n), self.Ks.item(n), self.dKs.item(n))
            return _rk4(self.rhs, y, t - self.ts.item(n))
        n = np.clip(np.rint((t - self.t0) / h), 0, len(self.ts) - 1).astype(int)
        y = (self.fs[n], self.dfs[n], self.Ks[n], self.dKs[n])
        return _rk4(self.rhs, y, t - self.ts[n])

    def series(self, t, degree):
        """Taylor coefficients of f and K at t up to `degree`, shape
        (..., 2, degree + 1).

        Picard iterations y <- y(t) + int rhs(y) on univariate jets fix one
        more Taylor coefficient of the state each. The first needs the rhs at
        t alone, and f and K are the integrals of f' and K', so a state
        known to degree - 1 takes degree - 2 iterations on jets.
        """
        y0 = np.array(self.state(t))
        scale = 1.0 / np.arange(1, degree + 1)
        # coef[m, ..., k]: k-th coefficient of state component m, to degree - 1
        coef = np.zeros(y0.shape + (degree,))
        coef[..., 0] = y0
        if degree > 1:
            coef[..., 1] = self.rhs(*y0)
        for _ in range(degree - 2):
            rates = self.rhs(*(Jet(c, nvar=1) for c in coef))
            coef[..., 1:] = [r.coef[..., :-1] * scale[:-1] for r in rates]
        # f and K integrate f' and K'
        fK = np.concatenate([y0[[0, 2], ..., None], coef[[1, 3]] * scale], axis=-1)
        return fK.transpose((*range(1, fK.ndim - 1), 0, fK.ndim - 1))

    def f_and_K(self, t):
        """(f(t), K(t)); jets of t give jets of f and K."""
        if isinstance(t, Jet):
            fK = t[..., None].compose(self.series(t.value, t.degree))
            return fK[..., 0], fK[..., 1]
        f, _, K, _ = self.state(t)
        return np.asarray(f), np.asarray(K)

    def f(self, t):
        return float(self.state(t)[0])

    def df(self, t):
        return float(self.state(t)[1])

    def K(self, t):
        return float(self.state(t)[2])

    def dK(self, t):
        return float(self.state(t)[3])

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

    The fixed-step RK4 loop runs on Python floats: the four evaluations of
    the rhs are `_rk4` and `_profile_rhs` written out, with their operations
    in the same order, so it gives the grid that numerics.rk4_step would.
    Integration stops early (truncated=True) when the state stops being
    finite or f or K + c approaches its guard floor; K0 = r - c is an exact
    constant solution.
    """
    c, r, K0 = float(c), float(r), float(K0)
    if K0 + c <= kappa_min:
        raise InputError(f"K0 + c = {K0 + c:g} is not above the floor {kappa_min:g}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    h = (t1 - t0) / int(steps)
    a, b, r3 = 0.5 * h, h / 6.0, r**3
    isfinite = math.isfinite
    ys = [(1.0, 0.0, K0, 0.0)]
    f, fp, K, Kp = ys[0]
    truncated = False
    for _ in range(int(steps)):
        try:
            # stage n evaluates the rhs at (fn, pn, Kn, qn), stage 1 at (f, fp, K,
            # Kp); its rates (f', f'', K', K'') are (pn, en, qn, dn)
            kc = K + c
            e1, d1 = -K * f, (r3 - kc**3 + 6.0 * Kp**2) / (3.0 * kc) - (fp / f) * Kp
            f2, p2, K2, q2 = f + a * fp, fp + a * e1, K + a * Kp, Kp + a * d1
            kc = K2 + c
            e2, d2 = -K2 * f2, (r3 - kc**3 + 6.0 * q2**2) / (3.0 * kc) - (p2 / f2) * q2
            f3, p3, K3, q3 = f + a * p2, fp + a * e2, K + a * q2, Kp + a * d2
            kc = K3 + c
            e3, d3 = -K3 * f3, (r3 - kc**3 + 6.0 * q3**2) / (3.0 * kc) - (p3 / f3) * q3
            f4, p4, K4, q4 = f + h * p3, fp + h * e3, K + h * q3, Kp + h * d3
            kc = K4 + c
            e4, d4 = -K4 * f4, (r3 - kc**3 + 6.0 * q4**2) / (3.0 * kc) - (p4 / f4) * q4
        except (ZeroDivisionError, OverflowError):
            # numpy would carry an inf or nan here, and stop below
            truncated = True
            break
        f_next = f + b * (fp + 2.0 * p2 + 2.0 * p3 + p4)
        fp_next = fp + b * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        K_next = K + b * (Kp + 2.0 * q2 + 2.0 * q3 + q4)
        Kp_next = Kp + b * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if not (isfinite(f_next) and isfinite(fp_next) and isfinite(K_next) and isfinite(Kp_next)):
            truncated = True
            break
        if f_next < f_min or K_next + c < kappa_min:
            truncated = True
            break
        f, fp, K, Kp = f_next, fp_next, K_next, Kp_next
        ys.append((f, fp, K, Kp))
    # a sequential cumsum adds h in order, as t = t + h does
    ts = np.cumsum(np.r_[t0, np.full(len(ys) - 1, h)])
    if len(ts) < 32:
        raise IntegrationError(
            f"profile left the admissible region almost immediately "
            f"(c={c:g}, r={r:g}, K0={K0:g})",
            t_last=float(ts[-1]),
        )
    arr = np.array(ys)
    return SurfaceProfile(
        c=c,
        r=r,
        K0=K0,
        ts=ts,
        fs=arr[:, 0].copy(),
        dfs=arr[:, 1].copy(),
        Ks=arr[:, 2].copy(),
        dKs=arr[:, 3].copy(),
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
    """sc_c with sc_c'' = -c sc_c, sc_c(0)=0, sc_c'(0)=1, on arrays or jets."""
    if c > 0.0:
        rc = math.sqrt(c)
        return lambda u: np.sin(rc * u) / rc
    if c < 0.0:
        rc = math.sqrt(-c)
        return lambda u: (np.exp(rc * u) - np.exp(-rc * u)) / (2.0 * rc)
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

    def formula(x):
        f, K = profile.f_and_K(x[..., 0])
        s = sc(x[..., 2])
        conf = (K + c) ** -2.0
        return (
            conf[..., None, None] * _D1010
            + (conf * f * f)[..., None, None] * _D0100
            + (conf * s * s)[..., None, None] * _D0001
        )

    return _formula_chart(
        formula,
        name=f"kpc:{c:g},{profile.r:g},{profile.K0:g}",
        box=np.array([t_box, [-0.6, 0.6], u_box, [-0.6, 0.6]]),
        params={"c": c, "r": profile.r, "K0": profile.K0},
        adapted_frame_fn=lambda x: np.eye(4),
        default_tols={"third": 1e-3},
    )


def make_bump_nonharmonic(a):
    """Conformally flat control e^{2 phi} delta with phi = a x1^3; its
    scalar curvature is wildly nonconstant, so div R != 0."""
    a = float(a)

    def formula(x):
        return np.exp(2.0 * a * x[..., 0] ** 3)[..., None, None] * _EYE

    return _formula_chart(
        formula,
        name=f"bump:{a:g}",
        box=np.array([[0.4, 1.6], [-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]]),
        params={"a": a},
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

    def formula(x):
        waves_x = np.sin(x @ wavevectors.T + phases) @ spread
        return waves_x.reshape(x.shape[:-1] + (4, 4)) + _EYE

    return _formula_chart(
        formula,
        name=f"randflat:{seed}",
        box=np.array([[-half_width, half_width]] * 4),
        params={"seed": seed, "amplitude": amplitude},
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


# constructor-style aliases, accepted wherever a registry name is
_KIND_ALIASES = {
    "constant_curvature": "s4",
    "product_surfaces": "s2xs2",
    "line_cross_space": "rxs3",
    "kpc_warped": "kpc",
    "bump_nonharmonic": "bump",
    "random_perturbed_flat": "randflat",
}


def example_names():
    return sorted(REGISTRY)


def canonical_name(name):
    """A registry string with its alias and any '-default' suffix resolved:
    'product_surfaces:1,2' -> 's2xs2:1,2', 'kpc-default' -> 'kpc'."""
    name = name.strip()
    if name.endswith("-default"):
        name = name[: -len("-default")]
    kind, sep, raw = name.partition(":")
    kind = kind.strip()
    return _KIND_ALIASES.get(kind, kind) + sep + raw


def example_spec(kind):
    """The registry entry of a kind (aliases accepted)."""
    kind = canonical_name(kind)
    if kind not in REGISTRY:
        raise InputError(f"unknown example {kind!r}; choices: {', '.join(example_names())}")
    return REGISTRY[kind]


def build_example(name):
    """Instantiate a chart from a registry string like 'kpc:1,1.2,0.5'.

    Aliases and a '-default' suffix are accepted (see canonical_name).
    Omitted parameters take the registry defaults; extra ones are an error.
    """
    kind, _, raw = canonical_name(name).partition(":")
    spec = example_spec(kind)
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
