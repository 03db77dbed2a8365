"""Coordinate charts and curvature from metric jets.

A MetricChart is a box in R^4 with a smooth closed-form metric evaluator.
Every curvature entry starts from the metric jet at x, the partials of g
up to second order, or third order where covariant derivatives of
curvature are asked for (the harmonicity residuals). A chart with a
`jet_fn` gives the jet exactly, by truncated Taylor arithmetic
(numerics.Jet); for any other chart it comes from one batched evaluation of
the metric on a tensor-product central stencil (numerics.metric_jet), at
the stencil's `step` up to second partials and its `third_step` for the
third level. Everything after the jet is closed form and shared by both.
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

from ._parallel import parallel_map
from .errors import DomainError, InconsistencyError, InputError
from .numerics import DEFAULT_STENCIL, Jet, central_diff, halton, metric_jet
from .tensor4 import (
    Curv4,
    Metric4,
    curvature_projection,
    curvature_symmetrize,
    kulkarni_nomizu,
    ricci_contract,
    weyl_from_curv,
)

# residual tolerance tiers: purely algebraic identities, quantities built
# from second metric derivatives, quantities built from third derivatives
DEFAULT_TOLS = {"algebraic": 1e-8, "second": 1e-5, "third": 1e-4}


@dataclass
class MetricChart:
    """Smooth metric on a coordinate box.

    eval_fn(x) returns the 4x4 metric components; adapted_frame_fn, when
    registered, returns four linearly independent column vectors that
    diagonalize the Ricci tensor (used by the frame extraction when the
    Ricci spectrum is degenerate). `params` is serialized into reports.

    `batched` declares that eval_fn also accepts stacked points, mapping
    shape (..., 4) to (..., 4, 4); eval_batch then makes one call for a
    whole stencil. Without it, eval_batch evaluates the points one by one.

    `jet_fn(x, degree)`, when given, returns the exact Taylor coefficients
    of the metric at stacked points x (..., 4) up to `degree`, shape
    (..., 4, 4, ncoef) in the layout of numerics.Jet; curvature entries then
    use no finite differences. Without it the metric jet is taken by finite
    differences of eval_fn.
    """

    name: str
    box: np.ndarray
    eval_fn: object
    params: dict = field(default_factory=dict)
    adapted_frame_fn: object = None
    default_tols: dict = None
    validate: bool = True
    batched: bool = False
    jet_fn: object = None

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        if self.box.shape != (4, 2) or np.any(self.box[:, 1] <= self.box[:, 0]):
            raise InputError("box must be (4,2) with lo < hi per axis")
        self._caches = {}
        if self.validate:
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

    def curvature_field(self, cfg=DEFAULT_STENCIL):
        # the chart keeps only the entry cache: a field kept here would point
        # back at the chart, and the cycle would leave a dropped chart and
        # its cache to the cyclic garbage collector
        cache = self._caches.setdefault((cfg.step, cfg.order, cfg.third_step), {})
        return CurvatureField(self, cfg, cache)


def _probe_points(chart, m=5):
    # fixed unscrambled Halton probes, pulled 20% inside the box
    u = halton(m + 1)[1:]  # drop the degenerate all-zeros first point
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + (2.0 * u - 1.0) * 0.8 * half


def _validate_chart(chart):
    from .numerics import StencilConfig

    pts = _probe_points(chart)
    for x in pts:
        g = chart.eval(x)
        if g.shape != (4, 4):
            raise InputError(f"chart '{chart.name}' returned shape {g.shape}")
        if np.linalg.norm(g - g.T) > 1e-10 * max(1.0, np.linalg.norm(g)):
            raise InputError(f"chart '{chart.name}' metric not symmetric at {x.tolist()}")
        if np.linalg.eigvalsh(0.5 * (g + g.T))[0] <= 1e-6:
            raise InputError(f"chart '{chart.name}' metric not positive definite at {x.tolist()}")
    if chart.batched:
        G = chart.eval_batch(pts)
        if np.max(np.abs(G - [chart.eval(x) for x in pts])) > 1e-12 * max(1.0, np.max(np.abs(G))):
            raise InconsistencyError(
                f"chart '{chart.name}': batched and point-wise evaluation disagree"
            )
    if chart.jet_fn is not None:
        coef = np.asarray(chart.jet_fn(pts, 1), dtype=float)
        if coef.shape != (len(pts), 4, 4, 5):
            raise InputError(f"chart '{chart.name}' jet_fn returned shape {coef.shape}")
        values, jet_d1 = Jet(coef).derivatives()
        if np.max(np.abs(values - [chart.eval(x) for x in pts])) > 1e-12 * max(
            1.0, np.max(np.abs(values))
        ):
            raise InconsistencyError(f"chart '{chart.name}': jet_fn and eval_fn disagree")
    # stencil-order consistency: order-4 and order-6 first derivatives agree,
    # and with the jet where there is one
    x = pts[0]
    c4, c6 = StencilConfig(order=4), StencilConfig(order=6)
    for d in range(4):
        d4 = central_diff(chart.eval_fn, x, d, c4)
        d6 = central_diff(chart.eval_fn, x, d, c6)
        if np.max(np.abs(d4 - d6)) > 1e-6:
            raise InconsistencyError(
                f"chart '{chart.name}': order-4/order-6 derivatives disagree at {x.tolist()}"
            )
        if chart.jet_fn is not None and np.max(np.abs(jet_d1[d, 0] - d6)) > 1e-6:
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


def _guard_footprint(chart, x, margin):
    # stencils bypass chart.eval, so their footprint is checked up front
    if (x - margin < chart.box[:, 0] - 1e-12).any() or (
        x + margin > chart.box[:, 1] + 1e-12
    ).any():
        raise DomainError(
            f"stencil footprint (reach {margin:g}) exits chart '{chart.name}' box at {x.tolist()}"
        )


def _first_kind(dg):
    """Gamma_mij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2 from dg[p] = d_p g."""
    return 0.5 * (np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg) - dg)


def _check_compatible(x, g, gamma, dg):
    # metric compatibility is exact by construction; verify to catch misassembly
    nabla_g = dg - np.einsum("mki,mj->kij", gamma, g) - np.einsum("mkj,im->kij", gamma, g)
    if np.max(np.abs(nabla_g)) > 5e-7 * max(1.0, np.linalg.norm(g)):
        raise InconsistencyError(f"nabla g != 0 at {x.tolist()}")


def christoffel(chart, x, cfg=DEFAULT_STENCIL):
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_ij at x."""
    x = np.asarray(x, dtype=float)
    _guard_footprint(chart, x, cfg.reach * cfg.step)
    g = chart.eval(x)
    dg = np.stack([central_diff(chart.eval_fn, x, d, cfg) for d in range(4)])
    gamma = np.einsum("km,mij->kij", np.linalg.inv(g), _first_kind(dg))
    _check_compatible(x, g, gamma, dg)
    return gamma


def _metric_derivatives(chart, x, cfg, degree):
    """[g, dg, ddg(, dddg)] at x, dg[p] = d_p g and so on: exact from the
    chart's jet_fn, otherwise finite differences (numerics.metric_jet)."""
    if chart.jet_fn is not None:
        if not chart.contains(x):
            raise DomainError(f"point {x.tolist()} outside chart '{chart.name}' box")
        return Jet(chart.jet_fn(x, degree)).derivatives()
    # the nested stencil reaches twice as far as a single one, and the
    # third level adds the outer stencil
    reach = 2 * cfg.reach * cfg.step + (cfg.reach * cfg.third_step if degree == 3 else 0.0)
    _guard_footprint(chart, x, reach)
    return metric_jet(chart.eval_batch, x, cfg, degree)


def _christoffel_jet(metric, dg, ddg, dddg=None):
    """Gamma[k, i, j], dGamma[p, k, i, j] = d_p Gamma^k_ij and, given third
    partials, ddGamma[q, p, k, i, j] = d_q d_p Gamma^k_ij, in closed form
    from the metric jet (dg[p] = d_p g, ddg[q, p] = d_q d_p g, ...)."""
    g_inv = metric.g_inv
    first = _first_kind(dg)
    dfirst = 0.5 * (np.einsum("pimj->pmij", ddg) + np.einsum("pjmi->pmij", ddg) - ddg)
    dg_inv = -(g_inv @ dg @ g_inv)
    gamma = np.einsum("km,mij->kij", g_inv, first)
    dgamma = np.einsum("km,pmij->pkij", g_inv, dfirst) + np.einsum(
        "pkm,mij->pkij", dg_inv, first
    )
    if dddg is None:
        return gamma, dgamma, None
    ddfirst = 0.5 * (
        np.einsum("qpimj->qpmij", dddg) + np.einsum("qpjmi->qpmij", dddg) - dddg
    )
    # d_q d_p (g^-1) = -d_q(g^-1) (d_p g) g^-1 - g^-1 (d_q d_p g) g^-1 - g^-1 (d_p g) d_q(g^-1)
    ddg_inv = -(
        dg_inv[:, None] @ (dg @ g_inv)
        + g_inv @ ddg @ g_inv
        + (g_inv @ dg) @ dg_inv[:, None]
    )
    cross = np.einsum("qkm,pmij->qpkij", dg_inv, dfirst)
    ddgamma = (
        np.einsum("km,qpmij->qpkij", g_inv, ddfirst)
        + cross
        + np.einsum("qpkij->pqkij", cross)
        + np.einsum("qpkm,mij->qpkij", ddg_inv, first)
    )
    return gamma, dgamma, ddgamma


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
    """Memoizing curvature evaluator for one chart and stencil config.

    Fields made by MetricChart.curvature_field share the chart's `cache`.
    """

    def __init__(self, chart, cfg=DEFAULT_STENCIL, cache=None):
        self.chart = chart
        self.cfg = cfg
        self._cache = {} if cache is None else cache

    def at(self, x, degree=2):
        """The entry at x; degree 3 asks for the covariant derivatives too."""
        x = np.asarray(x, dtype=float)
        key = tuple(np.round(x, 12))
        entry = self._cache.get(key)
        if entry is None or (degree == 3 and entry.nabla_ric is None):
            entry = self._compute(x, degree)
            self._cache[key] = entry
        return entry

    def _compute(self, x, degree=2):
        if x.shape != (4,):
            raise InputError(f"chart points are 4-vectors, got shape {x.shape}")
        g, dg, ddg, *third = _metric_derivatives(self.chart, x, self.cfg, degree)
        metric = Metric4(g=g)
        gamma, dgamma, ddgamma = _christoffel_jet(metric, dg, ddg, *third)
        _check_compatible(x, metric.g, gamma, dg)
        # R^m_(i,j,k) per the curvature convention in the module docstring
        rm = (
            np.einsum("jmik->mijk", dgamma)
            - np.einsum("imjk->mijk", dgamma)
            + np.einsum("pik,mjp->mijk", gamma, gamma)
            - np.einsum("pjk,mip->mijk", gamma, gamma)
        )
        raw = np.einsum("lm,mijk->ijkl", metric.g, rm)
        riem = curvature_symmetrize(raw)
        ric, s = ricci_contract(riem, metric)
        weyl = weyl_from_curv(riem, metric)
        derived = {}
        if ddgamma is not None:
            derived = _covariant_derivatives(metric, dg, gamma, dgamma, ddgamma, rm, riem.R)
        return CurvatureEntry(
            x=x,
            metric=metric,
            gamma=gamma,
            riem=riem,
            ric=ric.b,
            s=s,
            weyl=weyl,
            projection_distance=riem.projection_distance,
            **derived,
        )


def _covariant_derivatives(metric, dg, gamma, dgamma, ddgamma, rm, R):
    """nabla R, nabla ric, nabla W and ds in closed form from the jet."""
    g, g_inv = metric.g, metric.g_inv
    # d_q of R^m_(i,j,k), term by term
    drm = (
        np.einsum("qjmik->qmijk", ddgamma)
        - np.einsum("qimjk->qmijk", ddgamma)
        + np.einsum("qpik,mjp->qmijk", dgamma, gamma)
        + np.einsum("pik,qmjp->qmijk", gamma, dgamma)
        - np.einsum("qpjk,mip->qmijk", dgamma, gamma)
        - np.einsum("pjk,qmip->qmijk", gamma, dgamma)
    )
    draw = np.einsum("qlm,mijk->qijkl", dg, rm) + np.einsum("lm,qmijk->qijkl", g, drm)
    nabla_riem = (
        curvature_projection(draw)
        - np.einsum("mqi,mjkl->qijkl", gamma, R)
        - np.einsum("mqj,imkl->qijkl", gamma, R)
        - np.einsum("mqk,ijml->qijkl", gamma, R)
        - np.einsum("mql,ijkm->qijkl", gamma, R)
    )
    nabla_ric = np.einsum("ik,qijkl->qjl", g_inv, nabla_riem)
    ds = np.einsum("jl,qjl->q", g_inv, nabla_ric)
    # W = R - (g ^ Sch) / 2 with Sch = ric - s g / 6, and nabla g = 0
    nabla_sch = nabla_ric - ds[:, None, None] * g / 6.0
    nabla_weyl = nabla_riem - 0.5 * kulkarni_nomizu(g, nabla_sch)
    return {"nabla_riem": nabla_riem, "nabla_ric": nabla_ric, "nabla_weyl": nabla_weyl, "ds": ds}


def curvature_at(chart, x, cfg=DEFAULT_STENCIL):
    """Cached curvature entry at x (cache lives on the chart)."""
    return chart.curvature_field(cfg).at(x)


def _third_order_entry(chart, x, cfg):
    return chart.curvature_field(cfg).at(x, degree=3)


def metric_norm(T, g_inv):
    """Frobenius norm with all slots raised by g^-1 (chart-invariant)."""
    T = np.asarray(T, dtype=float)
    up = T
    for axis in range(T.ndim):
        up = np.moveaxis(np.tensordot(g_inv, up, axes=(1, axis)), 0, axis)
    return float(np.sqrt(abs(np.sum(T * up))))


def covariant_ric_derivative(chart, x, cfg=DEFAULT_STENCIL):
    """DRic[p, k, i] = nabla_p ric_ki."""
    return _third_order_entry(chart, x, cfg).nabla_ric


def codazzi_tensor(chart, x, cfg=DEFAULT_STENCIL):
    """(d ric)_kij = nabla_j ric_ki - nabla_i ric_kj."""
    dric = covariant_ric_derivative(chart, x, cfg)
    return np.einsum("jki->kij", dric) - np.einsum("ikj->kij", dric)


def codazzi_residual(chart, x, cfg=DEFAULT_STENCIL):
    """||d ric|| at x; equals ||div R|| for any metric."""
    entry = _third_order_entry(chart, x, cfg)
    return metric_norm(codazzi_tensor(chart, x, cfg), entry.metric.g_inv)


def div_riemann_norm(chart, x, cfg=DEFAULT_STENCIL):
    """Direct ||div R|| via nabla R contracted on its last slot."""
    entry = _third_order_entry(chart, x, cfg)
    divR = np.einsum("pq,pijkq->ijk", entry.metric.g_inv, entry.nabla_riem)
    return metric_norm(divR, entry.metric.g_inv)


def div_weyl_norm(chart, x, cfg=DEFAULT_STENCIL):
    entry = _third_order_entry(chart, x, cfg)
    divW = np.einsum("pi,pijkl->jkl", entry.metric.g_inv, entry.nabla_weyl)
    return metric_norm(divW, entry.metric.g_inv)


def scalar_gradient_norm(chart, x, cfg=DEFAULT_STENCIL):
    """||ds|| at x (metric norm of the scalar-curvature gradient)."""
    entry = _third_order_entry(chart, x, cfg)
    return metric_norm(entry.ds, entry.metric.g_inv)


def contracted_bianchi_residual(chart, x, cfg=DEFAULT_STENCIL):
    """||2 div ric - ds||; vanishes for every metric (universal identity)."""
    entry = _third_order_entry(chart, x, cfg)
    div_ric = np.einsum("pk,pki->i", entry.metric.g_inv, entry.nabla_ric)
    return metric_norm(2.0 * div_ric - entry.ds, entry.metric.g_inv)


@dataclass(frozen=True)
class HarmonicityReport:
    """Per-point harmonicity residuals and the overall verdict.

    Residual keys: 'dvr' = ||d ric|| (= ||div R||), 'dvw.w' = ||div W||,
    'dvw.ds' = ||ds||, with 'cst' the spread of s across the samples.
    """

    points: np.ndarray
    rows: list
    s_values: np.ndarray
    maxima: dict
    s_spread: float
    harmonic: bool
    tols: dict


def harmonicity_report(chart, cfg=DEFAULT_STENCIL, count=16, seed=0, tols=None):
    # precedence: the caller's tolerances, then the chart's, then the defaults
    tols = {**DEFAULT_TOLS, **(chart.default_tols or {}), **(tols or {})}
    pts = sample_points(chart, count=count, seed=seed)
    chart.curvature_field(cfg)  # create the entry cache the workers share

    def one(x):
        return {
            "dvr": codazzi_residual(chart, x, cfg),
            "dvw.w": div_weyl_norm(chart, x, cfg),
            "dvw.ds": scalar_gradient_norm(chart, x, cfg),
        }

    rows = parallel_map(one, pts)
    s_values = np.array([curvature_at(chart, x, cfg).s for x in pts])
    maxima = {k: float(max(r[k] for r in rows)) for k in rows[0]}
    s_spread = float(s_values.max() - s_values.min())
    tol3 = tols["third"]
    harmonic = all(v <= tol3 for v in maxima.values()) and s_spread <= tols["second"] * max(
        1.0, float(np.max(np.abs(s_values)))
    )
    return HarmonicityReport(
        points=pts,
        rows=rows,
        s_values=s_values,
        maxima=maxima,
        s_spread=s_spread,
        harmonic=harmonic,
        tols=tols,
    )
