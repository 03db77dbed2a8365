"""Coordinate charts and curvature from metric jets.

A MetricChart is a box in R^4 with a smooth closed-form metric evaluator.
Every curvature entry starts from the metric jet at x, the partials of g
up to second order, or third order where covariant derivatives of
curvature are asked for (the harmonicity residuals). A chart with a
`jet_fn` gives the jet exactly, by truncated Taylor arithmetic
(numerics.Jet); for any other chart it comes from one batched evaluation of
the metric on a tensor-product central stencil (numerics.metric_jet), at
the chart stencil's `step` up to second partials and its `third_step` for
the third level. Everything after the jet is closed form and shared by both,
and it runs on stacked points: `curvature_batch` takes the curvature at N
points from one jet evaluation. A harmonicity report is one third-order
batch of all its sample points, the stencil of frames.structure_data is
one batch, and a single entry (`curvature_at`) is a batch of one point;
nothing is cached.
The Christoffel symbols and their partials are

    Gamma^k_ij = g^km Gamma_mij,  Gamma_mij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2,
    d_p Gamma^k_ij = g^km d_p Gamma_mij + d_p(g^km) Gamma_mij,
    d_p(g^-1) = -g^-1 (d_p g) g^-1,

differentiated once more for the third order, and the curvature tensor is

    R(d_i, d_j) d_k = [d_j Gamma^m_ik - d_i Gamma^m_jk
                       + Gamma^p_ik Gamma^m_jp - Gamma^p_jk Gamma^m_ip] d_m,
    R_ijkl = g_lm R^m(i,j,k),

which reproduces R_ijij > 0 on round spheres (the package-wide sign
convention, see tensor4). Raw curvature is projected onto the algebraic
curvature tensors; the projection distance is kept as a noise diagnostic.
At third order the partials d_p R_ijkl follow by the product rule, and
nabla R, nabla Ric, nabla W and ds by the connection terms and the
contractions of R, with no further differencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistencyError, InputError
from .numerics import (
    DEFAULT_STENCIL,
    Jet,
    StencilConfig,
    axis_stencil,
    central_diff,
    halton,
    metric_jet,
    stencil_derivative,
)
from .tensor4 import Curv4, Metric4, curvature_projection, kulkarni_nomizu

# importable from here for perfbench/tracing.py, which counts calls through
# these names
from .tensor4 import curvature_symmetrize, ricci_contract, weyl_from_curv  # noqa: F401


def parallel_map(fn, items):
    """[fn(item) for item in items], in order in the calling thread. scan
    runs its cells through it. It is kept only as the name perfbench/tracing.py
    patches here and in cli to count and time scan's cells, until the
    tracer is re-pointed."""
    return [fn(item) for item in items]


# residual tolerance tiers: purely algebraic identities, quantities built
# from second metric derivatives, quantities built from third derivatives
DEFAULT_TOLS = {"algebraic": 1e-8, "second": 1e-5, "third": 1e-4}


@dataclass
class MetricChart:
    """Smooth metric on a coordinate box.

    eval_fn(x) returns the 4x4 metric components; adapted_frame_fn, when
    registered, returns four g-orthogonal column vectors that diagonalize
    the Ricci tensor (used by the frame extraction when the Ricci spectrum
    is degenerate). Their directions must be constant over the box: frame
    derivatives take only their normalization into account, and validation
    rejects a frame that varies. `params` is serialized into reports.

    `batched` declares that eval_fn also accepts stacked points, mapping
    shape (..., 4) to (..., 4, 4); eval_batch then makes one call for a
    whole stencil. Without it, eval_batch evaluates the points one by one.

    `jet_fn(x, degree)`, when given, returns the exact Taylor coefficients
    of the metric at stacked points x (..., 4) up to `degree`, shape
    (..., 4, 4, ncoef) in the layout of numerics.Jet; curvature entries then
    use no finite differences. Without it the metric jet is taken by finite
    differences of eval_fn on `stencil`.

    `stencil` is how the chart differences where it has to: its metric jet
    when it has no jet_fn, and the outer stencil of frames.structure_data.
    """

    name: str
    box: np.ndarray
    eval_fn: object
    params: dict = field(default_factory=dict)
    adapted_frame_fn: object = None
    default_tols: dict = None
    batched: bool = False
    jet_fn: object = None
    stencil: StencilConfig = DEFAULT_STENCIL

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        if self.box.shape != (4, 2) or np.any(self.box[:, 1] <= self.box[:, 0]):
            raise InputError("box must be (4,2) with lo < hi per axis")
        _validate_chart(self)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.box[:, 0]) and np.all(x <= self.box[:, 1]))

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (4,):
            raise InputError(f"chart points are 4-vectors, got shape {x.shape}")
        if not self.contains(x):
            raise DomainError(f"point {x.tolist()} outside chart '{self.name}' box")
        return np.asarray(self.eval_fn(x), dtype=float)

    def eval_batch(self, X):
        """Metric components at stacked points: (N, 4) -> (N, 4, 4)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 4:
            raise InputError(f"stacked chart points must have shape (N, 4), got {X.shape}")
        outside = ~np.all((X >= self.box[:, 0]) & (X <= self.box[:, 1]), axis=1)
        if np.any(outside):
            raise DomainError(
                f"point {X[outside][0].tolist()} outside chart '{self.name}' box"
            )
        if self.batched:
            G = np.asarray(self.eval_fn(X), dtype=float)
        else:
            G = np.stack([np.asarray(self.eval_fn(x), dtype=float) for x in X])
        if G.shape != (len(X), 4, 4):
            raise InputError(f"chart '{self.name}' returned shape {G.shape} for {len(X)} points")
        return G

    def metric(self, x):
        return Metric4(g=self.eval(x))


# five fixed unscrambled Halton probes in [0, 1)^4, shared read-only; the
# degenerate all-zeros first point is dropped
_UNIT_PROBES = halton(6)[1:]
_UNIT_PROBES.setflags(write=False)


def _probe_points(chart):
    # the unit probes pulled 20% inside the box
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + (2.0 * _UNIT_PROBES - 1.0) * 0.8 * half


def _validate_chart(chart):
    """Reject a chart whose metric is malformed or whose evaluators disagree.

    At five fixed probe points:
    - eval gives a (4, 4) metric, symmetric to 1e-10 relative and positive
      definite (least eigenvalue above 1e-6), and jet_fn at degree 1 gives
      shape (5, 4, 4, 5); adapted_frame_fn, when registered, gives (4, 4)
      frames whose column directions are the same at every probe to 1e-12;
      InputError otherwise;
    - eval_batch of a batched chart and the values of jet_fn equal the
      point values to 1e-12 relative, and at the first probe the order-4
      and order-6 central first derivatives of eval_fn agree to 1e-6, as do
      the first partials of jet_fn and the order-6 ones; InconsistencyError
      otherwise.
    Each probe goes through eval once; the eight derivative stencils are
    one eval_fn call (one per point when the chart is not batched).
    """
    pts = _probe_points(chart)
    gs = []
    for x in pts:
        g = chart.eval(x)
        if g.shape != (4, 4):
            raise InputError(f"chart '{chart.name}' returned shape {g.shape}")
        if np.linalg.norm(g - g.T) > 1e-10 * max(1.0, np.linalg.norm(g)):
            raise InputError(f"chart '{chart.name}' metric not symmetric at {x.tolist()}")
        if np.linalg.eigvalsh(0.5 * (g + g.T))[0] <= 1e-6:
            raise InputError(f"chart '{chart.name}' metric not positive definite at {x.tolist()}")
        gs.append(g)
    gs = np.array(gs)
    if chart.adapted_frame_fn is not None:
        frames = np.array([np.asarray(chart.adapted_frame_fn(x), dtype=float) for x in pts])
        if frames.shape != (len(pts), 4, 4):
            raise InputError(f"chart '{chart.name}' adapted frame has shape {frames.shape[1:]}")
        directions = frames / np.linalg.norm(frames, axis=1, keepdims=True)
        if np.max(np.abs(directions - directions[0])) > 1e-12:
            raise InputError(
                f"chart '{chart.name}': adapted frame directions vary over the box; "
                "frame derivatives assume constant directions"
            )
    if chart.batched:
        G = chart.eval_batch(pts)
        if np.max(np.abs(G - gs)) > 1e-12 * max(1.0, np.max(np.abs(G))):
            raise InconsistencyError(
                f"chart '{chart.name}': batched and point-wise evaluation disagree"
            )
    if chart.jet_fn is not None:
        coef = np.asarray(chart.jet_fn(pts, 1), dtype=float)
        if coef.shape != (len(pts), 4, 4, 5):
            raise InputError(f"chart '{chart.name}' jet_fn returned shape {coef.shape}")
        values, jet_d1 = Jet(coef).derivatives()
        if np.max(np.abs(values - gs)) > 1e-12 * max(1.0, np.max(np.abs(values))):
            raise InconsistencyError(f"chart '{chart.name}': jet_fn and eval_fn disagree")
    # stencil-order consistency: order-4 and order-6 first derivatives agree,
    # and with the jet where there is one
    x = pts[0]
    c4, c6 = StencilConfig(order=4), StencilConfig(order=6)
    P = np.concatenate([axis_stencil(x, c4).reshape(-1, 4), axis_stencil(x, c6).reshape(-1, 4)])
    if chart.batched:
        V = np.asarray(chart.eval_fn(P), dtype=float)
    else:
        V = np.array([np.asarray(chart.eval_fn(y), dtype=float) for y in P])
    # 4 directions x 4 offsets at order 4, then x 6 at order 6
    d4 = stencil_derivative(V[:16].reshape(4, 4, 4, 4), c4)
    d6 = stencil_derivative(V[16:].reshape(4, 6, 4, 4), c6)
    if np.max(np.abs(d4 - d6)) > 1e-6:
        raise InconsistencyError(
            f"chart '{chart.name}': order-4/order-6 derivatives disagree at {x.tolist()}"
        )
    if chart.jet_fn is not None and np.max(np.abs(jet_d1[:, 0] - d6)) > 1e-6:
        raise InconsistencyError(
            f"chart '{chart.name}': jet_fn derivative disagrees with eval_fn at {x.tolist()}"
        )


def sample_points(chart, count=16, seed=0):
    """Deterministic scrambled-Halton samples in the 10%-shrunk box."""
    if count < 1:
        raise InputError("count must be >= 1")
    u = halton(count, seed=seed)
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + (2.0 * u - 1.0) * 0.9 * half


def _guard_footprint(chart, X, margin):
    # stencils bypass chart.eval, so their footprint is checked up front
    X = np.asarray(X, dtype=float).reshape(-1, 4)
    bad = ((X - margin < chart.box[:, 0] - 1e-12) | (X + margin > chart.box[:, 1] + 1e-12)).any(
        axis=1
    )
    if bad.any():
        raise DomainError(
            f"stencil footprint (reach {margin:g}) exits chart '{chart.name}' box "
            f"at {X[bad][0].tolist()}"
        )


def _first_kind(dg):
    """Gamma_mij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2 from dg[..., p] = d_p g."""
    return 0.5 * (np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg) - dg)


def _check_compatible(X, g, gamma, dg):
    # metric compatibility is exact by construction; verify to catch misassembly
    nabla_g = (
        dg
        - np.einsum("...mki,...mj->...kij", gamma, g)
        - np.einsum("...mkj,...im->...kij", gamma, g)
    )
    worst = np.abs(nabla_g.reshape(-1, 64)).max(axis=1)
    bad = worst > 5e-7 * np.maximum(1.0, _norms(g.reshape(-1, 4, 4)))
    if bad.any():
        raise InconsistencyError(f"nabla g != 0 at {np.reshape(X, (-1, 4))[bad][0].tolist()}")


def christoffel(chart, x, cfg=DEFAULT_STENCIL):
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_ij at x."""
    x = np.asarray(x, dtype=float)
    _guard_footprint(chart, x, cfg.reach * cfg.step)
    g = chart.eval(x)
    dg = np.stack([central_diff(chart.eval_fn, x, d, cfg) for d in range(4)])
    gamma = np.einsum("km,mij->kij", np.linalg.inv(g), _first_kind(dg))
    _check_compatible(x, g, gamma, dg)
    return gamma


def _jet_blocks(chart, X, degree):
    """The metric jet at stacked points X (N, 4), as a function of a block
    (lo, hi) that returns [g, dg, ddg(, dddg)] at X[lo:hi], the point axis
    first and the derivative axes after it, dg[n, p] = d_p g at X[n] and so
    on: exact from one jet_fn call on all of X (the derivative tensors made
    block by block, so that a large batch never holds them for all its points
    at once), otherwise finite differences on the chart's stencil from one
    eval_batch call (numerics.metric_jet)."""
    if chart.jet_fn is not None:
        outside = ~np.all((X >= chart.box[:, 0]) & (X <= chart.box[:, 1]), axis=1)
        if outside.any():
            raise DomainError(f"point {X[outside][0].tolist()} outside chart '{chart.name}' box")
        # a single point goes in unstacked: formulas run faster on scalars
        jet = Jet(chart.jet_fn(X[0], degree)[None] if len(X) == 1 else chart.jet_fn(X, degree))

        def block(lo, hi):
            # Jet puts the derivative axes ahead of the point axis
            derivs = jet[lo:hi].derivatives()
            return [d.transpose(k, *range(k), *range(k + 1, d.ndim)) for k, d in enumerate(derivs)]

        return block
    # the nested stencil reaches twice as far as a single one, and the
    # third level adds the outer stencil
    cfg = chart.stencil
    reach = 2 * cfg.reach * cfg.step + (cfg.reach * cfg.third_step if degree == 3 else 0.0)
    _guard_footprint(chart, X, reach)
    derivs = metric_jet(chart.eval_batch, X, cfg, degree)
    return lambda lo, hi: [d[lo:hi] for d in derivs]


def _christoffel_jet(g_inv, dg, ddg, dddg=None):
    """Gamma[..., k, i, j], dGamma[..., p, k, i, j] = d_p Gamma^k_ij and,
    given third partials, ddGamma[..., q, p, k, i, j] = d_q d_p Gamma^k_ij,
    in closed form from the metric jet (dg[..., p] = d_p g, ddg[..., q, p] =
    d_q d_p g, ...), with any leading point axes."""
    first = _first_kind(dg)
    dfirst = 0.5 * (
        np.einsum("...pimj->...pmij", ddg) + np.einsum("...pjmi->...pmij", ddg) - ddg
    )
    G = g_inv[..., None, :, :]  # broadcasts over the derivative axis
    dg_inv = -(G @ dg @ G)
    gamma = np.einsum("...km,...mij->...kij", g_inv, first)
    dgamma = np.einsum("...km,...pmij->...pkij", g_inv, dfirst) + np.einsum(
        "...pkm,...mij->...pkij", dg_inv, first
    )
    if dddg is None:
        return gamma, dgamma, None
    ddfirst = 0.5 * (
        np.einsum("...qpimj->...qpmij", dddg) + np.einsum("...qpjmi->...qpmij", dddg) - dddg
    )
    # d_q d_p (g^-1) = -d_q(g^-1) (d_p g) g^-1 - g^-1 (d_q d_p g) g^-1 - g^-1 (d_p g) d_q(g^-1)
    GG = G[..., None, :, :]
    ddg_inv = -(
        dg_inv[..., :, None, :, :] @ (dg @ G)[..., None, :, :, :]
        + GG @ ddg @ GG
        + (G @ dg)[..., None, :, :, :] @ dg_inv[..., :, None, :, :]
    )
    cross = np.einsum("...qkm,...pmij->...qpkij", dg_inv, dfirst)
    ddgamma = (
        np.einsum("...km,...qpmij->...qpkij", g_inv, ddfirst)
        + cross
        + np.einsum("...qpkij->...pqkij", cross)
        + np.einsum("...qpkm,...mij->...qpkij", ddg_inv, first)
    )
    return gamma, dgamma, ddgamma


def _weyl(g, R, ric, s):
    """W = R - (g ^ Sch) / 2 with the Schouten tensor Sch = ric - s g / 6,
    at stacked points."""
    sch = ric - s[:, None, None] * g / 6.0
    return R - 0.5 * kulkarni_nomizu(g, sch)


def _nabla_weyl(g, nabla_riem, nabla_ric, ds):
    """nabla W from nabla R, nabla ric and ds at stacked points: W is linear
    in R, ric and s, and nabla g = 0."""
    nabla_sch = nabla_ric - ds[..., None, None] * g[:, None, :, :] / 6.0
    return nabla_riem - 0.5 * kulkarni_nomizu(g[:, None, :, :], nabla_sch)


@dataclass(frozen=True)
class CurvatureBatch:
    """Curvature at stacked points x (N, 4), the point axis first: g, g_inv,
    gamma[n, k, i, j] = Gamma^k_ij, R[n, i, j, k, l], ric, s (N,), weyl and
    the projection distance per point. Batches made from a third-order jet
    also carry nabla_riem[n, p, ...], nabla_ric, nabla_weyl and ds[n, p].
    weyl and nabla_weyl are made on request: not every caller of a large
    batch reads them."""

    x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    R: np.ndarray
    ric: np.ndarray
    s: np.ndarray
    projection_distance: np.ndarray
    nabla_riem: np.ndarray = None
    nabla_ric: np.ndarray = None
    ds: np.ndarray = None

    @property
    def weyl(self):
        return _weyl(self.g, self.R, self.ric, self.s)

    @property
    def nabla_weyl(self):
        if self.ds is None:
            return None
        return _nabla_weyl(self.g, self.nabla_riem, self.nabla_ric, self.ds)

    def entry(self, n):
        """The CurvatureEntry of point n; its W and nabla W are made for that
        point alone."""
        at = slice(n, n + 1)
        derived = {}
        if self.ds is not None:
            derived = {key: getattr(self, key)[n] for key in ("nabla_riem", "nabla_ric", "ds")}
            derived["nabla_weyl"] = _nabla_weyl(
                self.g[at], self.nabla_riem[at], self.nabla_ric[at], self.ds[at]
            )[0]
        return CurvatureEntry(
            x=self.x[n],
            metric=Metric4.from_checked(self.g[n], self.g_inv[n]),
            gamma=self.gamma[n],
            riem=Curv4(R=self.R[n], projection_distance=float(self.projection_distance[n])),
            ric=self.ric[n],
            s=float(self.s[n]),
            weyl=Curv4(R=_weyl(self.g[at], self.R[at], self.ric[at], self.s[at])[0]),
            projection_distance=float(self.projection_distance[n]),
            **derived,
        )


def _norms(T):
    """Frobenius norm of each T[n]."""
    flat = T.reshape(len(T), -1)
    return np.sqrt((flat * flat).sum(axis=1))


def _checked_inverse(X, g):
    """g^-1 at every point, after the checks Metric4 makes on one metric:
    symmetric, positive definite, and g g^-1 = I."""
    asym = _norms(g - np.swapaxes(g, 1, 2)) > 1e-12 * np.maximum(1.0, _norms(g))
    if asym.any():
        raise InputError(f"metric is not symmetric at {X[asym][0].tolist()}")
    low = np.linalg.eigvalsh(g)[:, 0] <= 1e-6
    if low.any():
        raise InputError(f"metric is not positive definite at {X[low][0].tolist()}")
    g_inv = np.linalg.inv(g)
    off = _norms(g @ g_inv - np.eye(4)) > 1e-10
    if off.any():
        raise InconsistencyError(
            f"metric inverse fails g g^-1 = I within 1e-10 at {X[off][0].tolist()}"
        )
    return g_inv


# points whose curvature algebra runs at once: the 4^4-per-point temporaries
# of one block stay well under a megabyte however many points a batch has
_BLOCK = 32


def curvature_batch(chart, X, degree=2):
    """Curvature at stacked points X (N, 4) from one metric jet evaluation:
    one jet_fn call, or one eval_batch call on the chart stencil around all
    points.
    The algebra after the jet runs on blocks of points, to bound the
    memory a large batch holds at once.

    Every point gets the checks of a single entry: a symmetric
    positive-definite metric with g g^-1 = I, nabla g = 0, and a raw
    curvature within 1e-3 * ||raw|| of its projection. A point outside the
    box (or, for finite-difference jets, one whose stencil leaves it) raises
    DomainError naming that point.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 4:
        raise InputError(f"stacked chart points must have shape (N, 4), got {X.shape}")
    jet = _jet_blocks(chart, X, degree)
    if len(X) <= _BLOCK:
        return CurvatureBatch(x=X, **_curvature_algebra(X, *jet(0, len(X))))
    out = {}
    for lo in range(0, len(X), _BLOCK):
        block = _curvature_algebra(X[lo : lo + _BLOCK], *jet(lo, lo + _BLOCK))
        for key, value in block.items():
            if key not in out:
                out[key] = np.empty((len(X),) + value.shape[1:])
            out[key][lo : lo + len(value)] = value
    return CurvatureBatch(x=X, **out)


def _curvature_algebra(X, g, dg, ddg, dddg=None):
    """The fields of CurvatureBatch (but x) at stacked points X from their
    metric jet, after every check of a single entry."""
    g_inv = _checked_inverse(X, g)
    gamma, dgamma, ddgamma = _christoffel_jet(g_inv, dg, ddg, dddg)
    _check_compatible(X, g, gamma, dg)
    # R^m_(i,j,k) per the curvature convention in the module docstring
    rm = (
        np.einsum("...jmik->...mijk", dgamma)
        - np.einsum("...imjk->...mijk", dgamma)
        + np.einsum("...pik,...mjp->...mijk", gamma, gamma)
        - np.einsum("...pjk,...mip->...mijk", gamma, gamma)
    )
    raw = np.einsum("...lm,...mijk->...ijkl", g, rm)
    R = curvature_projection(raw)
    dist, scale = _norms(raw - R), _norms(raw)
    far = (scale > 0.0) & (dist > 1e-3 * scale)
    if far.any():
        n = int(np.argmax(far))
        raise InconsistencyError(
            f"projection distance {dist[n]:.3e} exceeds 1e-3 * ||raw|| = {1e-3 * scale[n]:.3e} "
            f"at {X[n].tolist()}"
        )
    ric = np.einsum("...ik,...ijkl->...jl", g_inv, R)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    s = np.einsum("...jl,...jl->...", g_inv, ric)
    derived = {}
    if ddgamma is not None:
        derived = _covariant_derivatives(g, g_inv, dg, gamma, dgamma, ddgamma, rm, R)
    return {
        "g": g, "g_inv": g_inv, "gamma": gamma, "R": R, "ric": ric, "s": s,
        "projection_distance": dist, **derived,
    }


@dataclass(frozen=True)
class CurvatureEntry:
    """Everything curvature-related at one point.

    Entries made from a third-order jet also carry the covariant derivatives
    nabla_riem[p, i, j, k, l] = nabla_p R_ijkl, nabla_ric[p, k, i] =
    nabla_p ric_ki, nabla_weyl[p, ...] and ds[p] = d_p s; other entries
    leave them None.
    """

    x: np.ndarray
    metric: Metric4
    gamma: np.ndarray
    riem: Curv4
    ric: np.ndarray
    s: float
    weyl: Curv4
    projection_distance: float
    nabla_riem: np.ndarray = None
    nabla_ric: np.ndarray = None
    nabla_weyl: np.ndarray = None
    ds: np.ndarray = None


class CurvatureField:
    """Curvature entries of one chart, each evaluated on request as a
    curvature batch of one point; nothing is kept between calls.
    """

    def __init__(self, chart):
        self.chart = chart

    def at(self, x, degree=2):
        """The entry at x; degree 3 asks for the covariant derivatives too."""
        x = np.asarray(x, dtype=float)
        if x.shape != (4,):
            raise InputError(f"chart points are 4-vectors, got shape {x.shape}")
        return curvature_batch(self.chart, x[None], degree).entry(0)


def _covariant_derivatives(g, g_inv, dg, gamma, dgamma, ddgamma, rm, R):
    """nabla R, nabla ric and ds in closed form from the jet, with any
    leading point axes."""
    # d_q of R^m_(i,j,k), term by term
    drm = (
        np.einsum("...qjmik->...qmijk", ddgamma)
        - np.einsum("...qimjk->...qmijk", ddgamma)
        + np.einsum("...qpik,...mjp->...qmijk", dgamma, gamma)
        + np.einsum("...pik,...qmjp->...qmijk", gamma, dgamma)
        - np.einsum("...qpjk,...mip->...qmijk", dgamma, gamma)
        - np.einsum("...pjk,...qmip->...qmijk", gamma, dgamma)
    )
    draw = np.einsum("...qlm,...mijk->...qijkl", dg, rm) + np.einsum(
        "...lm,...qmijk->...qijkl", g, drm
    )
    nabla_riem = (
        curvature_projection(draw)
        - np.einsum("...mqi,...mjkl->...qijkl", gamma, R)
        - np.einsum("...mqj,...imkl->...qijkl", gamma, R)
        - np.einsum("...mqk,...ijml->...qijkl", gamma, R)
        - np.einsum("...mql,...ijkm->...qijkl", gamma, R)
    )
    nabla_ric = np.einsum("...ik,...qijkl->...qjl", g_inv, nabla_riem)
    ds = np.einsum("...jl,...qjl->...q", g_inv, nabla_ric)
    return {"nabla_riem": nabla_riem, "nabla_ric": nabla_ric, "ds": ds}


def curvature_at(chart, x, degree=2):
    """Curvature entry at x, a batch of one point; degree 3 adds the
    covariant derivatives."""
    return CurvatureField(chart).at(x, degree)


def _metric_norms(T, g_inv):
    """metric_norm of each T[n] with g_inv[n]."""
    up = T
    for axis in range(1, T.ndim):
        raised = np.einsum("nij,n...j->n...i", g_inv, np.moveaxis(up, axis, -1))
        up = np.moveaxis(raised, -1, axis)
    return np.sqrt(np.abs((T * up).reshape(len(T), -1).sum(axis=1)))


def metric_norm(T, g_inv):
    """Frobenius norm with all slots raised by g^-1 (chart-invariant)."""
    T = np.asarray(T, dtype=float)
    return float(_metric_norms(T[None], np.asarray(g_inv, dtype=float)[None])[0])


# The harmonicity residuals of a third-order batch, one value per point:
# 'dvr' = ||d ric|| with (d ric)_kij = nabla_j ric_ki - nabla_i ric_kj
# (equal to ||div R|| for any metric), 'dvw.w' = ||div W|| and 'dvw.ds' = ||ds||.
_RESIDUALS = {
    "dvr": lambda b: _metric_norms(
        np.einsum("njki->nkij", b.nabla_ric) - np.einsum("nikj->nkij", b.nabla_ric), b.g_inv
    ),
    "dvw.w": lambda b: _metric_norms(np.einsum("npi,npijkl->njkl", b.g_inv, b.nabla_weyl), b.g_inv),
    "dvw.ds": lambda b: _metric_norms(b.ds, b.g_inv),
}


def _at_point(residual, chart, x):
    batch = curvature_batch(chart, np.asarray(x, dtype=float)[None], degree=3)
    return float(residual(batch)[0])


def codazzi_residual(chart, x):
    """||d ric|| at x; equals ||div R|| for any metric."""
    return _at_point(_RESIDUALS["dvr"], chart, x)


def div_weyl_norm(chart, x):
    """||div W|| at x."""
    return _at_point(_RESIDUALS["dvw.w"], chart, x)


def scalar_gradient_norm(chart, x):
    """||ds|| at x (metric norm of the scalar-curvature gradient)."""
    return _at_point(_RESIDUALS["dvw.ds"], chart, x)


def div_riemann_norm(chart, x):
    """Direct ||div R|| via nabla R contracted on its last slot."""

    def norm(b):
        return _metric_norms(np.einsum("npq,npijkq->nijk", b.g_inv, b.nabla_riem), b.g_inv)

    return _at_point(norm, chart, x)


def contracted_bianchi_residual(chart, x):
    """||2 div ric - ds||; vanishes for every metric (universal identity)."""

    def norm(b):
        div_ric = np.einsum("npk,npki->ni", b.g_inv, b.nabla_ric)
        return _metric_norms(2.0 * div_ric - b.ds, b.g_inv)

    return _at_point(norm, chart, x)


@dataclass(frozen=True)
class HarmonicityReport:
    """Per-point harmonicity residuals and the overall verdict.

    Residual keys: 'dvr' = ||d ric|| (= ||div R||), 'dvw.w' = ||div W||,
    'dvw.ds' = ||ds||, with 'cst' the spread of s across the samples.
    `batch` is the third-order curvature batch of the sample points.
    """

    points: np.ndarray
    rows: list
    s_values: np.ndarray
    maxima: dict
    s_spread: float
    harmonic: bool
    tols: dict
    batch: CurvatureBatch


def harmonicity_report(chart, count=16, seed=0, tols=None):
    """The harmonicity residuals at `count` sample points, all evaluated as
    one third-order curvature batch, and the verdict they give."""
    # precedence: the caller's tolerances, then the chart's, then the defaults
    tols = {**DEFAULT_TOLS, **(chart.default_tols or {}), **(tols or {})}
    pts = sample_points(chart, count=count, seed=seed)
    batch = curvature_batch(chart, pts, degree=3)
    residuals = {key: residual(batch) for key, residual in _RESIDUALS.items()}
    rows = [{key: float(v[n]) for key, v in residuals.items()} for n in range(len(pts))]
    maxima = {key: float(v.max()) for key, v in residuals.items()}
    s_spread = float(batch.s.max() - batch.s.min())
    s_scale = max(1.0, float(np.max(np.abs(batch.s))))
    harmonic = all(v <= tols["third"] for v in maxima.values())
    harmonic = harmonic and s_spread <= tols["second"] * s_scale
    return HarmonicityReport(
        points=pts,
        rows=rows,
        s_values=batch.s,
        maxima=maxima,
        s_spread=s_spread,
        harmonic=harmonic,
        tols=tols,
        batch=batch,
    )
