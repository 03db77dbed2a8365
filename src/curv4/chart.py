"""Coordinate charts and curvature from metric jets.

A MetricChart is a box in R^4 with a smooth closed-form metric evaluator.
All curvature starts from the Taylor coefficients of the metric at
x to a degree d: 2, 3 for the covariant derivatives of curvature (the
harmonicity residuals), 4 for their first partials as well (the frame
structure data). A chart with a `jet_fn` gives them exactly, by truncated
Taylor arithmetic (numerics.Jet); for any other chart they are the
finite-difference partials of one batched evaluation of the metric
(numerics.metric_jet), each over its alpha! and averaged over the orderings
of its derivatives. The rest is shared, and runs on stacked points:
`curvature_jets` takes the curvature jets at N points from one jet
evaluation and `curvature_batch` their values (`connection_jets` stops at
g^-1 and Gamma). `stacked_curvature_batch` stacks the points of several
charts in one batch, each chart's metric jet from its own evaluation, and
`curvature_batch` is its one-chart case. The harmonicity reports of
several charts (`harmonicity_reports`, a scan's cells) are slices of one
stacked batch of their sample points, a single report its one-chart case,
and the curvature at one point (`curvature_at`, `batch[n]`) is a point of
a curvature batch, the same record with the point axis dropped. Nothing
is cached across batches; a batch keeps the W and nabla W it makes, so the
residuals and the frames of one stack make each once.

Every quantity after the metric is a jet too, made by contractions of jets
and their partials (numerics.jet_contract, numerics.jet_partials), so one
code path serves every degree:

    g^-1 = sum_k (-e)^k g0^-1,  e = g0^-1 (g - g0)               (to degree d - 1)
    Gamma^k_ij = g^km Gamma_mij,  Gamma_mij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2
    R(d_i, d_j) d_k = [d_j Gamma^m_ik - d_i Gamma^m_jk
                       + Gamma^p_ik Gamma^m_jp - Gamma^p_jk Gamma^m_ip] d_m,
    R_ijkl = g_lm R^m(i,j,k)                                      (to degree d - 2)
    nabla_q R_ijkl = d_q R_ijkl - Gamma^m_qi R_mjkl - Gamma^m_qj R_imkl
                     - Gamma^m_qk R_ijml - Gamma^m_ql R_ijkm        (to degree d - 3)

which reproduces R_ijij > 0 on round spheres (the package-wide sign
convention, see tensor4). Raw curvature is projected onto the algebraic
curvature tensors, coefficient by coefficient (tensor4.curvature_symmetrize);
a value farther than 1e-3 * ||raw|| from its projection raises, and the
distance is kept as a noise diagnostic. nabla Ric and ds follow by
contractions, W and nabla W by tensor4.weyl_from_curv, with no further
differencing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, InconsistencyError, InputError
from .numerics import (
    DEFAULT_STENCIL,
    StencilConfig,
    axis_stencil,
    central_diff,
    halton,
    jet_contract,
    jet_partials,
    metric_jet,
    stencil_derivative,
    taylor_coefficients,
)
from .tensor4 import curvature_symmetrize, weyl_from_curv

# importable from here for perfbench/tracing.py, which counts calls through
# this name
from .tensor4 import ricci_contract  # noqa: F401


def parallel_map(fn, items):
    """[fn(item) for item in items], in order in the calling thread. scan
    makes each cell's row through it, from the cell's slices of one
    stacked harmonicity batch and one frame pass for all cells. It is kept
    only as the name perfbench/tracing.py patches here and in cli to count
    and time scan's cells, until the tracer is re-pointed."""
    return [fn(item) for item in items]


# residual tolerance tiers: quantities built from second metric derivatives,
# quantities built from third derivatives
DEFAULT_TOLS = {"second": 1e-5, "third": 1e-4}


def _tolerance(name, value):
    """value, if it is a finite positive number; InputError naming it otherwise."""
    ok = isinstance(value, int | float) and not isinstance(value, bool)
    if not (ok and math.isfinite(value) and value > 0.0):
        raise InputError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _integer_at_least(name, value, least):
    """value, if it is an integer (not a bool) >= least; InputError naming it
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, int | np.integer) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _checked_tols(tols):
    """DEFAULT_TOLS with the tiers of `tols` overridden; InputError for a
    tier that DEFAULT_TOLS does not have or a value that is not a finite
    positive number."""
    for tier, value in tols.items():
        if tier not in DEFAULT_TOLS:
            raise InputError(f"unknown tolerance tier {tier!r}; tiers: {', '.join(DEFAULT_TOLS)}")
        _tolerance(f"tolerance {tier!r}", value)
    return {**DEFAULT_TOLS, **tols}


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
    (..., 4, 4, ncoef) in the layout of numerics.Jet; curvature then uses
    no finite differences. Without it the metric jet is taken by finite
    differences of eval_fn on `stencil`.

    `stencil` is how a chart without a jet_fn differences its metric jet;
    a chart with one differences nothing.
    """

    name: str
    box: np.ndarray
    eval_fn: object
    params: dict = field(default_factory=dict)
    adapted_frame_fn: object = None
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


# five fixed unscrambled Halton probes in [0, 1)^4, shared read-only; the
# degenerate all-zeros first point is dropped
_UNIT_PROBES = halton(6)[1:]
_UNIT_PROBES.setflags(write=False)


def _probe_points(chart):
    # the unit probes pulled 20% inside the box
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + (2.0 * _UNIT_PROBES - 1.0) * 0.8 * half


# the first-derivative stencils of the consistency check around the first
# probe: 4 directions x 4 offsets at order 4, then 4 x 6 at order 6 (40 points)
_CHECK_ORDERS = (StencilConfig(order=4), StencilConfig(order=6))
_CHECK_MOVES = np.concatenate(
    [axis_stencil(np.zeros(4), cfg).reshape(-1, 4) for cfg in _CHECK_ORDERS]
)
_CHECK_MOVES.setflags(write=False)


def _validate_chart(chart):
    """Reject a chart whose metric is malformed or whose evaluators disagree.

    At five fixed probe points:
    - eval_fn gives a (4, 4) metric, symmetric to 1e-10 relative and
      positive definite (least eigenvalue above 1e-6), and jet_fn at degree
      1 gives shape (5, 4, 4, 5); adapted_frame_fn, when registered, gives
      (4, 4) frames whose column directions are the same at every probe to
      1e-12; InputError otherwise, naming the first probe that fails;
    - eval_fn on stacked points (batched charts) and the values of jet_fn
      equal the point values to 1e-12 relative, and at the first probe the
      order-4 and order-6 central first derivatives of eval_fn agree to
      1e-6, as do the first partials of jet_fn and the order-6 ones;
      InconsistencyError otherwise.
    Each probe goes through eval_fn once, and the symmetry and definiteness
    checks run on the five metrics stacked. A batched chart makes one more
    eval_fn call, on the five probes and the 40 points of the derivative
    stencils together; a chart that is not batched evaluates the stencil
    points one by one.
    """
    pts = _probe_points(chart)
    gs = []
    for x in pts:
        g = np.asarray(chart.eval_fn(x), dtype=float)
        if g.shape != (4, 4):
            raise InputError(f"chart '{chart.name}' returned shape {g.shape}")
        gs.append(g)
    gs = np.array(gs)
    asym = _norms(gs - np.swapaxes(gs, 1, 2)) > 1e-10 * np.maximum(1.0, _norms(gs))
    low = np.linalg.eigvalsh(0.5 * (gs + np.swapaxes(gs, 1, 2)))[:, 0] <= 1e-6
    if asym.any() or low.any():
        n = int(np.argmax(asym | low))
        fault = "not symmetric" if asym[n] else "not positive definite"
        raise InputError(f"chart '{chart.name}' metric {fault} at {pts[n].tolist()}")
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
    if chart.jet_fn is not None:
        coef = np.asarray(chart.jet_fn(pts, 1), dtype=float)
        if coef.shape != (len(pts), 4, 4, 5):
            raise InputError(f"chart '{chart.name}' jet_fn returned shape {coef.shape}")
        values, jet_d1 = coef[..., 0], np.moveaxis(coef[..., 1:], -1, 0)
        if np.max(np.abs(values - gs)) > 1e-12 * max(1.0, np.max(np.abs(values))):
            raise InconsistencyError(f"chart '{chart.name}': jet_fn and eval_fn disagree")
    # stencil-order consistency: order-4 and order-6 first derivatives agree,
    # and with the jet where there is one
    x = pts[0]
    P = x + _CHECK_MOVES
    if chart.batched:
        V = np.asarray(chart.eval_fn(np.concatenate([pts, P])), dtype=float)
        if V.shape != (len(pts) + len(P), 4, 4):
            raise InputError(
                f"chart '{chart.name}' returned shape {V.shape} for {len(pts) + len(P)} points"
            )
        G, V = V[: len(pts)], V[len(pts) :]
        if np.max(np.abs(G - gs)) > 1e-12 * max(1.0, np.max(np.abs(G))):
            raise InconsistencyError(
                f"chart '{chart.name}': batched and point-wise evaluation disagree"
            )
    else:
        V = np.array([np.asarray(chart.eval_fn(y), dtype=float) for y in P])
    c4, c6 = _CHECK_ORDERS
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


def _unit_samples(count, seed):
    """halton(count, seed), after InputError for a count that is not an
    integer >= 1 or a seed that is not an integer >= 0."""
    count = _integer_at_least("sample count", count, 1)
    return halton(count, seed=_integer_at_least("seed", seed, 0))


def _in_box(chart, u):
    # unit points u (N, 4) mapped into the 10%-shrunk box
    lo, hi = chart.box[:, 0], chart.box[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + (2.0 * u - 1.0) * 0.9 * half


def sample_points(chart, count=16, seed=0):
    """Deterministic scrambled-Halton samples in the 10%-shrunk box. A count
    that is not an integer >= 1, or a seed that is not an integer >= 0,
    raises InputError."""
    return _in_box(chart, _unit_samples(count, seed))


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
    """Gamma_mij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2 from dg[..., i, j, p] = d_p g_ij."""
    return 0.5 * (np.einsum("...mji->...mij", dg) + dg - np.einsum("...ijm->...mij", dg))


def _check_compatible(X, g, gamma, dg):
    # metric compatibility is exact by construction; verify to catch misassembly
    nabla_g = (
        dg
        - np.einsum("...mki,...mj->...ijk", gamma, g)
        - np.einsum("...mkj,...im->...ijk", gamma, g)
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
    dg = np.stack([central_diff(chart.eval_fn, x, d, cfg) for d in range(4)], axis=-1)
    gamma = np.einsum("km,mij->kij", np.linalg.inv(g), _first_kind(dg))
    _check_compatible(x, g, gamma, dg)
    return gamma


def _metric_coefficients(chart, X, degree):
    """The metric's Taylor coefficients at stacked points X (N, 4), shape
    (ncoef, N, 4, 4) with the coefficient axis first: from one jet_fn call
    on all of X, otherwise from one eval_batch call on the chart's stencil
    (numerics.metric_jet)."""
    if chart.jet_fn is None:
        # the nested stencil reaches twice as far as a single one, and each
        # level above the second adds the outer stencil once
        cfg = chart.stencil
        reach = cfg.reach * (2 * cfg.step + (degree - 2) * cfg.third_step)
        _guard_footprint(chart, X, reach)
        derivs = metric_jet(chart.eval_batch, X, cfg, degree)
        # the point axis goes behind the derivative axes
        return taylor_coefficients([np.moveaxis(d, 0, k) for k, d in enumerate(derivs)])
    outside = ~np.all((X >= chart.box[:, 0]) & (X <= chart.box[:, 1]), axis=1)
    if outside.any():
        raise DomainError(f"point {X[outside][0].tolist()} outside chart '{chart.name}' box")
    # a single point goes in unstacked: formulas run faster on scalars
    coef = chart.jet_fn(X[0], degree)[None] if len(X) == 1 else chart.jet_fn(X, degree)
    return np.moveaxis(np.asarray(coef, dtype=float), -1, 0)


@dataclass(frozen=True)
class CurvatureBatch:
    """Curvature at stacked points x (N, 4), the point axis first: g, g_inv,
    gamma[n, k, i, j] = Gamma^k_ij, R[n, i, j, k, l], ric, s (N,), weyl and
    the projection distance per point. Batches of degree 3 or more also
    carry nabla_riem[n, p, ...], nabla_ric, nabla_weyl and ds[n, p]; other
    batches leave them None. weyl and nabla_weyl are made on first request
    and kept on the batch: not every caller of a large batch reads them, and
    the harmonicity residuals and the frames of one stack share them.

    batch[n] is point n, the same record without the point axis: x (4,),
    g[i, j], nabla_riem[p, i, j, k, l], s a scalar, and so on; batch[lo:hi]
    is a sub-stack. Either is a new batch of slices of the fields, whose
    weyl and nabla_weyl are made for its own points alone."""

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

    @functools.cached_property
    def weyl(self):
        return weyl_from_curv(self.g, self.R, self.ric, self.s)

    @functools.cached_property
    def nabla_weyl(self):
        # W is linear in R, ric and s, and nabla g = 0
        if self.ds is None:
            return None
        return weyl_from_curv(self.g[..., None, :, :], self.nabla_riem, self.nabla_ric, self.ds)

    def __getitem__(self, n):
        """Point n with the point axis dropped, or the sub-stack of a slice
        (batch[None] stacks a point as a one-point batch): each field is
        the n-th slice of the batch's, None staying None; the kept weyl and
        nabla_weyl are not passed on."""
        return CurvatureBatch(
            **{k: None if (v := getattr(self, k)) is None else v[n] for k in _BATCH_FIELDS}
        )


_BATCH_FIELDS = tuple(f.name for f in fields(CurvatureBatch))


def _norms(T):
    """Frobenius norm of each T[n]."""
    flat = T.reshape(len(T), -1)
    return np.sqrt((flat * flat).sum(axis=1))


def _checked_inverse(X, g):
    """g^-1 at every point X[n] (N, 4) of the metrics g (N, 4, 4), after
    checking each g: symmetric to 1e-12 relative, positive definite (least
    eigenvalue above 1e-6), and g g^-1 = I within 1e-10. InputError or
    InconsistencyError names the first point that fails."""
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


# points whose curvature algebra runs at once: the pair gathers of one block
# stay at a few megabytes even at degree 4, however many points a batch has
_BLOCK = 32


def _jet_blocks(parts, degree, algebra):
    # algebra(X, coef, degree) on the metric coefficients of every (chart, X)
    # part, stacked on the point axis, block by block
    _integer_at_least("curvature degree", degree, 2)
    if not len(parts):
        raise InputError("the curvature stack has no charts")
    Xs, coefs = [], []
    for chart, X in parts:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 4:
            raise InputError(f"stacked chart points must have shape (N, 4), got {X.shape}")
        if not len(X):
            raise InputError(f"the curvature stack has no points of chart '{chart.name}'")
        Xs.append(X)
        coefs.append(_metric_coefficients(chart, X, degree))
    X, coef = np.concatenate(Xs), np.concatenate(coefs, axis=1)
    for lo in range(0, len(X), _BLOCK):
        yield algebra(X[lo : lo + _BLOCK], coef[:, lo : lo + _BLOCK], degree)


def stacked_curvature_batch(parts, degree=2):
    """curvature_batch over several charts at once: `parts` is a sequence of
    (chart, X) pairs, and the batch holds every part's points in order, each
    part's metric coefficients from its own one jet_fn or eval_batch call,
    the algebra running once per block of the stacked points. Each point
    equals its point of curvature_batch(chart, X, degree) on its own part,
    bit for bit. No parts, or a part with no points, raises InputError."""
    blocks = [
        {"projection_distance": dist, **{key: jet[0] for key, jet in jets.items()}}
        for jets, dist in _jet_blocks(parts, degree, _curvature_algebra)
    ]
    fields = {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}
    X = np.concatenate([np.asarray(X, dtype=float) for _, X in parts])
    return CurvatureBatch(x=X, **fields)


def curvature_batch(chart, X, degree=2):
    """Curvature at stacked points X (N, 4) from one metric jet of `degree`,
    an integer >= 2 (3 and more for the covariant derivatives; at most 4
    for charts without a jet_fn): one jet_fn call, or one eval_batch call
    on the chart stencil around all points. The fields are the value terms
    of `curvature_jets`; the algebra runs on blocks of points, to bound the
    memory a large batch holds at once. It is the one-part
    stacked_curvature_batch.

    Every point gets the same checks: a symmetric
    positive-definite metric with g g^-1 = I, nabla g = 0, and a raw
    curvature within 1e-3 * ||raw|| of its projection. A point outside the
    box (or, for finite-difference jets, one whose stencil leaves it) raises
    DomainError naming that point; a degree that is not an integer >= 2,
    or X with no points, raises InputError.
    """
    return stacked_curvature_batch([(chart, X)], degree)


def curvature_jets(chart, X, degree=2):
    """The Taylor coefficients of curvature_batch(chart, X, degree)'s fields
    but x and the projection distance, after the same checks: a dict from
    field name to an array with the coefficient axis first (numerics.Jet's
    layout) and the point axis second. g comes to `degree`, g_inv and gamma
    to degree - 1, R, ric and s to degree - 2, and nabla_riem, nabla_ric
    and ds to degree - 3."""
    blocks = [jets for jets, _ in _jet_blocks([(chart, X)], degree, _curvature_algebra)]
    return {key: np.concatenate([b[key] for b in blocks], axis=1) for key in blocks[0]}


def connection_jets(chart, X, degree=2):
    """The g, g_inv and gamma entries of curvature_jets(chart, X, degree),
    bit for bit, after the checks of g^-1 and nabla g = 0 only: no
    curvature is formed, so neither is the projection gate on it."""
    blocks = list(_jet_blocks([(chart, X)], degree, _connection_algebra))
    return {key: np.concatenate([b[key] for b in blocks], axis=1) for key in blocks[0]}


def _connection_algebra(X, coef, degree):
    """The coefficients of g, g_inv and gamma at points X (N, 4) from the
    metric's, coef (ncoef, N, 4, 4) of degree >= 2, after the checks of
    curvature_batch on the metric (_checked_inverse) and nabla g = 0."""
    g_inv0 = _checked_inverse(X, coef[0])
    dg = jet_partials(coef)
    # g^-1 = (1 + e)^-1 g0^-1 with e = g0^-1 (g - g0), by Horner's rule
    e = np.concatenate([np.zeros_like(g_inv0[None]), g_inv0 @ coef[1 : len(dg)]])
    g_inv = const = np.concatenate([g_inv0[None], np.zeros_like(e[1:])])
    for _ in range(degree - 1):
        g_inv = const - jet_contract("ij,jk->ik", e, g_inv)
    gamma = jet_contract("km,mij->kij", g_inv, _first_kind(dg))
    _check_compatible(X, coef[0], gamma[0], dg[0])
    return {"g": coef, "g_inv": g_inv, "gamma": gamma}


def _curvature_algebra(X, coef, degree):
    """The coefficients of CurvatureBatch's fields but x, to the degrees
    curvature_jets gives, and the projection distance, at points X (N, 4)
    from the metric's, coef (ncoef, N, 4, 4) of degree >= 2, after every
    check of curvature_batch."""
    jets = _connection_algebra(X, coef, degree)
    g_inv, gamma = jets["g_inv"], jets["gamma"]
    # R^m_(i,j,k) per the curvature convention in the module docstring: the
    # part u = d_j Gamma^m_ik + Gamma^p_ik Gamma^m_jp, minus u with i, j swapped
    dgamma = np.einsum("...mikj->...mijk", jet_partials(gamma))
    u = dgamma + jet_contract("pik,mjp->mijk", gamma[: len(dgamma)], gamma)
    rm = u - np.swapaxes(u, -3, -2)
    raw = jet_contract("lm,mijk->ijkl", coef, rm)
    R = curvature_symmetrize(raw)
    dist, scale = _norms(raw[0] - R[0]), _norms(raw[0])
    far = (scale > 0.0) & (dist > 1e-3 * scale)
    if far.any():
        n = int(np.argmax(far))
        raise InconsistencyError(
            f"projection distance {dist[n]:.3e} exceeds 1e-3 * ||raw|| = {1e-3 * scale[n]:.3e} "
            f"at {X[n].tolist()}"
        )
    ric = jet_contract("ik,ijkl->jl", g_inv, R)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    s = jet_contract("jl,jl->", g_inv, ric)
    jets.update(R=R, ric=ric, s=s)
    if degree >= 3:
        # nabla_q R_ijkl = d_q R_ijkl - v_qijkl - v_qklij by the symmetries of
        # R, v being t = Gamma^m_qa R_mbcd antisymmetrized in (a, b)
        dR = jet_partials(R)
        t = jet_contract("mqa,mbcd->qabcd", gamma[: len(dR)], R)
        v = t - np.swapaxes(t, -4, -3)
        nabla_riem = np.einsum("...ijklq->...qijkl", dR) - v - np.einsum("...qklij->...qijkl", v)
        nabla_ric = jet_contract("ik,qijkl->qjl", g_inv, nabla_riem)
        ds = jet_contract("jl,qjl->q", g_inv, nabla_ric)
        jets.update(nabla_riem=nabla_riem, nabla_ric=nabla_ric, ds=ds)
    return jets, dist


class CurvatureField:
    """Curvature at points of one chart, each evaluated on request as a
    curvature batch of one point; nothing is kept between calls.
    """

    def __init__(self, chart):
        self.chart = chart

    def at(self, x, degree=2):
        """The point of a curvature batch at x; degree 3 asks for the
        covariant derivatives too."""
        x = np.asarray(x, dtype=float)
        if x.shape != (4,):
            raise InputError(f"chart points are 4-vectors, got shape {x.shape}")
        return curvature_batch(self.chart, x[None], degree)[0]


def curvature_at(chart, x, degree=2):
    """Curvature at x, the point of a one-point curvature batch:
    curvature_batch(chart, x[None], degree)[0]. Degree 3 adds the covariant
    derivatives."""
    return CurvatureField(chart).at(x, degree)


def _metric_norms(T, g_inv):
    """metric_norm of each T[n] with g_inv[n]."""
    slots = "abcdefghijklm"[: T.ndim - 1]
    up = T
    for c in slots:
        # slot c contracted with g^-1, its raised index z in its place
        up = np.einsum(f"nz{c},n{slots}->n{slots.replace(c, 'z')}", g_inv, up)
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
    `stack` is the third-order curvature batch the residuals were taken on,
    shared by every report made with this one, and `span` the report's
    slice of it; `batch` is that slice, the batch of the report's samples.
    """

    points: np.ndarray
    rows: list
    s_values: np.ndarray
    maxima: dict
    s_spread: float
    harmonic: bool
    tols: dict
    stack: CurvatureBatch
    span: slice

    @property
    def batch(self):
        return self.stack[self.span]


def harmonicity_reports(charts, count=16, seed=0, tols=None):
    """One harmonicity report per chart, in order, all from one third-order
    stacked_curvature_batch: each chart's `count` samples are one Halton
    draw mapped into its box (the points sample_points gives), the
    residuals are taken once over the stack, and each report holds the
    stack and its chart's span of it, so the frames of every report can be
    made in one pass over the same stack. `tols` overrides tiers of
    DEFAULT_TOLS; a tier it does not have, or a value that is not a finite
    positive number, raises InputError, as do the count and seed that
    sample_points rejects and an empty sequence of charts."""
    tols = _checked_tols(tols or {})
    u = _unit_samples(count, seed)
    parts = [(chart, _in_box(chart, u)) for chart in charts]
    stack = stacked_curvature_batch(parts, degree=3)
    residuals = {key: residual(stack) for key, residual in _RESIDUALS.items()}
    reports = []
    for n, (_, pts) in enumerate(parts):
        span = slice(n * count, (n + 1) * count)
        s_values, values = stack.s[span], {key: v[span] for key, v in residuals.items()}
        rows = [{key: float(v[i]) for key, v in values.items()} for i in range(count)]
        maxima = {key: float(v.max()) for key, v in values.items()}
        s_spread = float(s_values.max() - s_values.min())
        s_scale = max(1.0, float(np.max(np.abs(s_values))))
        harmonic = all(v <= tols["third"] for v in maxima.values())
        harmonic = harmonic and s_spread <= tols["second"] * s_scale
        reports.append(
            HarmonicityReport(
                points=pts,
                rows=rows,
                s_values=s_values,
                maxima=maxima,
                s_spread=s_spread,
                harmonic=harmonic,
                tols=tols,
                stack=stack,
                span=span,
            )
        )
    return reports


def harmonicity_report(chart, count=16, seed=0, tols=None):
    """The harmonicity residuals at `count` sample points, all evaluated as
    one third-order curvature batch, and the verdict they give: the
    one-chart harmonicity_reports."""
    (report,) = harmonicity_reports([chart], count=count, seed=seed, tols=tols)
    return report
