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
profile enters the formula through one Taylor-coefficient recurrence of its
ODE: the solver steps by it, its value at t sums the series of the node to
the left, and its jet at t is the recurrence started there.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from operator import mul

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


def _chart_name(kind, *values):
    """'kind:v1,v2,...' with the shortest repr of each value, less the '.0'
    of an integral float: float() reads every value back exactly, so
    build_example(chart.name) rebuilds the chart."""
    texts = [repr(v) for v in values]
    return kind + ":" + ",".join(t[:-2] if t.endswith(".0") else t for t in texts)


def _conformal_factor(k, *coords):
    """(1 + k |y|^2 / 4)^-2 over the given coordinates: the space-form scale."""
    rho2 = sum((y * y for y in coords[1:]), coords[0] * coords[0])
    return (1.0 + 0.25 * k * rho2) ** -2.0


def make_constant_curvature(K0, name=None):
    """Space form of sectional curvature K0: g = (1 + K0 |x|^2/4)^-2 delta
    on the box [-0.6, 0.6]^4, where |x|^2 reaches 4 * 0.6^2. Its name is
    `name`, or the registry kind that builds it, 's4' at K0 = 1 and 'h4' at
    K0 = -1; any other K0 without a name raises InputError, since no
    registry string would build it back."""
    K0 = float(K0)
    if name is None:
        if K0 not in (1.0, -1.0):
            raise InputError(f"a constant-curvature chart with K0 = {K0:g} needs an explicit name")
        name = "s4" if K0 > 0 else "h4"
    if K0 < 0.0 and 1.0 + 0.25 * K0 * 4.0 * 0.6**2 <= 0.05:
        raise InputError("box reaches the conformal-factor singularity")

    def formula(x):
        conf = _conformal_factor(K0, *(x[..., i] for i in range(4)))
        return conf[..., None, None] * _EYE

    return _formula_chart(
        formula,
        name=name,
        box=np.array([[-0.6, 0.6]] * 4),
        params={"K0": K0},
    )


def make_product_surfaces(k1, k2):
    """S^2(k1) x S^2(k2) style product in per-factor stereographic charts."""
    k1, k2 = float(k1), float(k2)

    def formula(x):
        c1 = _conformal_factor(k1, x[..., 0], x[..., 1])
        c2 = _conformal_factor(k2, x[..., 2], x[..., 3])
        return c1[..., None, None] * _D1100 + c2[..., None, None] * _D0011

    return _formula_chart(
        formula,
        name=_chart_name("s2xs2", k1, k2),
        box=np.array([[-0.5, 0.5]] * 4),
        params={"k1": k1, "k2": k2},
        adapted_frame_fn=lambda x: np.eye(4),
    )


def make_line_cross_space(c):
    """R x N^3(c): flat line factor times a 3-dimensional space form."""
    c = float(c)

    def formula(x):
        conf = _conformal_factor(c, x[..., 1], x[..., 2], x[..., 3])
        return conf[..., None, None] * _D0111 + _D1000

    return _formula_chart(
        formula,
        name=_chart_name("rxs3", c),
        box=np.array([[-0.6, 0.6]] + [[-0.5, 0.5]] * 3),
        params={"c": c},
        adapted_frame_fn=lambda x: np.eye(4),
    )


# guard floors of the profile: the solver stops where f or K + c falls to one
F_MIN = 1e-3
KAPPA_MIN = 1e-3
# the profile is solved on [0, _T_END] by Taylor series of degree _DEGREE, with
# steps sized for a last-term error of _TOL, and stops at a step below _H_MIN
_T_END = 2.0
_DEGREE = 20
_TOL = 1e-16
_H_MIN = 1e-3
# the kpc chart's t-range keeps this far inside the profile's ends
_T_MARGIN = 0.03


def _cauchy(a, b):
    """Coefficient k of the product of two series given to degree k."""
    return sum(map(mul, a, reversed(b)))


def _taylor(y, c, r3, degree):
    """Taylor coefficients to `degree` of the profile state (f, f', K, K')
    through y: four lists, in plain arithmetic on floats or arrays.

    The profile system is f'' = -K f and
    K'' = Q - (K + c)^2 / 3 - L K',  Q = (r^3 + 6 K'^2) / (3 (K + c)),  L = f'/f,
    so coefficient k + 1 of each component is coefficient k of its rate over
    k + 1. Those of K f, (K + c)^2, K'^2 and L K' are Cauchy products, and
    those of Q and L solve 3 (K + c) Q = r^3 + 6 K'^2 and f L = f' for the
    newest one (Jorba & Zou, Experimental Math. 14 (2005) 99-117).
    """
    f, p, K, q = ([v] for v in y)
    kc, Q, L = [K[0] + c], [], []
    for k in range(degree):
        n = 6.0 * _cauchy(q, q) + (r3 if k == 0 else 0.0)
        Q.append((n - 3.0 * _cauchy(kc[1:], Q)) / (3.0 * kc[0]))
        L.append((p[k] - _cauchy(f[1:], L)) / f[0])
        s = 1.0 / (k + 1)
        p.append(-_cauchy(K, f) * s)
        q.append((Q[k] - _cauchy(kc, kc) / 3.0 - _cauchy(L, q)) * s)
        f.append(p[k] * s)
        K.append(q[k] * s)
        kc.append(K[k + 1])
    return f, p, K, q


def _horner(a, dt):
    """The polynomial with coefficients a[0], a[1], ... at dt."""
    acc = a[-1]
    for ak in a[-2::-1]:
        acc = acc * dt + ak
    return acc


def _step(a, k):
    """Longest step at which the k-th terms of the series a stay below _TOL."""
    norm = sum(abs(am[k]) for am in a)
    return (_TOL / norm) ** (1.0 / k) if norm else math.inf


def _fall_to(a, level, h):
    """A point of [0, h] where the polynomial a falls to `level`, given
    a(0) >= level > a(h), by bisection; a stays >= level at the point."""
    lo, hi = 0.0, h
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if _horner(a, mid) < level else (mid, hi)
    return lo


@dataclass
class SurfaceProfile:
    """Numerical solution (f, K) of the rotationally symmetric profile.

    The surface is Q = {(t, theta)} with h = dt^2 + f(t)^2 dtheta^2, so
    K = -f''/f, and the Gauss curvature solves

        (K + c)^3 + 3 (K + c) Delta K - 6 |dK|^2 = r^3,
        Delta K = K'' + (f'/f) K',   |dK|^2 = K'^2.

    The solution is kept as nodes ts with their states (fs, dfs, Ks, dKs) and,
    for every node but the last, the Taylor coefficients of the state there,
    coefs[n, m, k] for component m of (f, f', K, K'). `state` sums the series
    of the node to the left; `series` gives the Taylor coefficients of f and
    K at any t from the profile ODE itself.
    """

    c: float
    r: float
    K0: float
    ts: np.ndarray
    fs: np.ndarray
    dfs: np.ndarray
    Ks: np.ndarray
    dKs: np.ndarray
    coefs: np.ndarray
    truncated: bool

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t1(self):
        return float(self.ts[-1])

    def state(self, t):
        """(f, f', K, K') at t, from the series of the node to the left."""
        n = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.coefs) - 1)
        if np.ndim(t) == 0:
            # one point: Python floats are several times cheaper than numpy scalars
            dt = float(t) - self.ts.item(n)
            return tuple(_horner(a, dt) for a in self.coefs[n].tolist())
        y = _horner(np.moveaxis(self.coefs[n], -1, 0), (t - self.ts[n])[..., None])
        return tuple(np.moveaxis(y, -1, 0))

    def series(self, t, degree):
        """Taylor coefficients of f and K at t up to `degree`, shape
        (..., 2, degree + 1), from the recurrence started at state(t): a
        jet that satisfies the profile ODE at its point."""
        f, _, K, _ = _taylor(self.state(t), self.c, self.r**3, degree)
        return np.stack([np.stack(f, axis=-1), np.stack(K, axis=-1)], axis=-2)

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
        """Write the nodes as CSV with columns t, f, K."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "f", "K"])
        for t, f, K in zip(self.ts, self.fs, self.Ks):
            writer.writerow([repr(float(t)), repr(float(f)), repr(float(K))])


def solve_kpc_profile(c, r, K0):
    """Solve the profile equations from f=1, f'=0, K=K0, K'=0 at t = 0 to
    t = 2 by Taylor series of degree 20 on Python floats.

    Each step takes the longest length at which the last two terms of the
    series stay below 1e-16 and ends at exactly t = 2. The solver stops early
    (truncated=True) where f falls to F_MIN or K + c to KAPPA_MIN, located by
    bisection on the series of the step, or where the step falls below 1e-3,
    which happens within about 1e-2 of a singularity. K0 = r - c is an exact
    constant solution.
    """
    c, r, K0 = float(c), float(r), float(K0)
    if K0 + c <= KAPPA_MIN:
        raise InputError(f"K0 + c = {K0 + c!r} is not above the floor {KAPPA_MIN!r}")
    r3, t, y = r**3, 0.0, (1.0, 0.0, K0, 0.0)
    ts, ys, coefs, truncated = [t], [y], [], False
    while t < _T_END and not truncated:
        a = _taylor(y, c, r3, _DEGREE)
        # an overflowed series gives a step of 0 or nan, which fails the floor
        steps = [_step(a, k) for k in (_DEGREE - 1, _DEGREE)]
        if not (steps[0] >= _H_MIN and steps[1] >= _H_MIN):
            truncated = True
            break
        h = min(_T_END - t, *steps)
        ends = [_fall_to(a[0], F_MIN, h)] if _horner(a[0], h) < F_MIN else []
        if _horner(a[2], h) + c < KAPPA_MIN:
            ends.append(_fall_to(a[2], KAPPA_MIN - c, h))
        if ends:
            h, truncated = min(ends), True
        t = _T_END if h == _T_END - t else t + h
        y = tuple(_horner(am, h) for am in a)
        ts.append(t)
        ys.append(y)
        coefs.append(a)
    if not coefs:
        raise IntegrationError(
            f"profile left the admissible region at its start (c={c!r}, r={r!r}, K0={K0!r})",
            t_last=t,
        )
    fs, dfs, Ks, dKs = np.array(ys).T.copy()
    return SurfaceProfile(c, r, K0, np.array(ts), fs, dfs, Ks, dKs, np.array(coefs), truncated)


def profile_residual(profile):
    """Residual of (K+c)^3 + 3(K+c) Delta K - 6 |dK|^2 - r^3 at the midpoint
    of each step of the solver, with K', K'' and f' from `series` there.

    Returns the max absolute residual.
    """
    t = 0.5 * (profile.ts[1:] + profile.ts[:-1])
    (f0, f1, _), (k0, k1, k2) = np.moveaxis(profile.series(t, 2), (-2, -1), (0, 1))
    kc = k0 + profile.c
    lap = 2.0 * k2 + (f1 / f0) * k1
    resid = kc**3 + 3.0 * kc * lap - 6.0 * k1**2 - profile.r**3
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


def make_kpc_warped(profile):
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
    t_box = [profile.t0 + _T_MARGIN, profile.t1 - _T_MARGIN]
    if t_box[1] - t_box[0] < 10.0 * _T_MARGIN:
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
        name=_chart_name("kpc", c, profile.r, profile.K0),
        box=np.array([t_box, [-0.6, 0.6], u_box, [-0.6, 0.6]]),
        params={"c": c, "r": profile.r, "K0": profile.K0},
        adapted_frame_fn=lambda x: np.eye(4),
    )


def make_bump_nonharmonic(a):
    """Conformally flat control e^{2 phi} delta with phi = a x1^3; its
    scalar curvature is wildly nonconstant, so div R != 0."""
    a = float(a)

    def formula(x):
        return np.exp(2.0 * a * x[..., 0] ** 3)[..., None, None] * _EYE

    return _formula_chart(
        formula,
        name=_chart_name("bump", a),
        box=np.array([[0.4, 1.6], [-0.6, 0.6], [-0.6, 0.6], [-0.6, 0.6]]),
        params={"a": a},
    )


# diagonal amplitude of randflat's perturbation, and its waves per component
_RANDFLAT_AMPLITUDE = 0.15
_RANDFLAT_WAVES = 2


def make_random_perturbed_flat(seed):
    """delta plus a seeded trigonometric symmetric perturbation.

    Off-diagonal amplitudes are a third of the diagonal ones, so Gershgorin
    keeps the metric far from degenerate on the box; frequencies sit in
    [0.8, 2.0], large enough that curvature is order one against the flat
    background. The seed is a non-negative integer (InputError otherwise).
    """
    if not (seed >= 0 and float(seed).is_integer()):
        raise InputError(
            f"randflat parameter 'seed' must be a non-negative integer, got {seed!r}"
        )
    seed = int(seed)
    rng = np.random.default_rng(seed)
    wavevectors, phases, spread = [], [], []
    for i in range(4):
        for j in range(i, 4):
            amp = _RANDFLAT_AMPLITUDE if i == j else _RANDFLAT_AMPLITUDE / 3.0
            for _ in range(_RANDFLAT_WAVES):
                wavevectors.append(rng.uniform(0.8, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4))
                phases.append(rng.uniform(0.0, 2.0 * np.pi))
                slot = np.zeros((4, 4))
                slot[i, j] = slot[j, i] = amp / _RANDFLAT_WAVES
                spread.append(slot.ravel())
    # wave t adds spread[t] * sin(k_t . x + phase_t) to the flattened metric
    wavevectors, phases, spread = np.array(wavevectors), np.array(phases), np.array(spread)

    def formula(x):
        waves_x = np.sin(x @ wavevectors.T + phases) @ spread
        return waves_x.reshape(x.shape[:-1] + (4, 4)) + _EYE

    return _formula_chart(
        formula,
        name=_chart_name("randflat", seed),
        box=np.array([[-0.5, 0.5]] * 4),
        params={"seed": seed, "amplitude": _RANDFLAT_AMPLITUDE},
    )


# kind -> (factory, the defaults of its keyword parameters in name order);
# build_example fills a request into the defaults and calls factory(**values)
REGISTRY = {
    "s4": (functools.partial(make_constant_curvature, 1.0), {}),
    "h4": (functools.partial(make_constant_curvature, -1.0), {}),
    "s2xs2": (make_product_surfaces, {"k1": 1.0, "k2": 2.0}),
    "rxs3": (make_line_cross_space, {"c": 1.0}),
    "kpc": (
        lambda c, r, K0: make_kpc_warped(solve_kpc_profile(c, r, K0)),
        {"c": 1.0, "r": 1.2, "K0": 0.5},
    ),
    "bump": (make_bump_nonharmonic, {"a": 0.1}),
    "randflat": (make_random_perturbed_flat, {"seed": 0}),
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


def build_example(name, params=None):
    """The chart a request names: a registry string such as 'kpc:1,1.2,0.5',
    or a kind and a mapping of parameter names to numbers, as in
    build_example('kpc', {'r': 1.2}).

    Aliases and a '-default' suffix are accepted (see canonical_name), and
    omitted parameters take the registry defaults. These are InputErrors
    that name what is wrong: an unknown kind, more values than the kind has
    parameters, a name with values together with `params`, a parameter name
    the kind does not have, and a value that is not a finite number. The
    factory rejects values outside its domain, such as a randflat seed that
    is not a non-negative integer. Chart names are exact, so
    build_example(chart.name) rebuilds the same chart.
    """
    kind, colon, raw = canonical_name(name).partition(":")
    if kind not in REGISTRY:
        raise InputError(f"unknown example {kind!r}; choices: {', '.join(example_names())}")
    factory, defaults = REGISTRY[kind]
    if params is None:
        parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
        if len(parts) > len(defaults):
            raise InputError(f"{kind} takes at most {len(defaults)} parameters, got {len(parts)}")
        params = dict(zip(defaults, parts))
    elif colon:
        raise InputError(f"{name!r} carries parameters; give them in the name or in params")
    values = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise InputError(
                f"{kind} has no parameter {key!r} (has: {', '.join(defaults) or 'none'})"
            )
        try:
            values[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad parameter {value!r} for {kind}") from exc
        if not math.isfinite(values[key]):
            raise InputError(f"{kind} parameter {key!r} must be finite, got {value!r}")
    return factory(**values)
