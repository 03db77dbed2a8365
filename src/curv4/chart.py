"""Coordinate charts and curvature from metric jets.

A MetricChart is a box in R^4 and one smooth metric formula, written with
numpy operations on stacked points. A ChartFamily is one closed form,
`formula(x, **params)` with parameters that broadcast over the leading
axes of x, and a chart per row of parameters: its rows are validated
together (_validate_chart runs each check once over the rows stacked, with
its bound applied per row), and a stack of their points takes its metric
jet from one formula call, each point with its own row's parameters. A
chart made alone is validated as the one-row case.

All curvature starts from the Taylor coefficients of the metric at x to a
degree d: 2, 3 for the covariant derivatives of curvature (the
harmonicity residuals), 4 for their first partials as well (the frame
structure data). They are exact: the chart's formula evaluated on the
coordinate jets of truncated Taylor arithmetic (numerics.Jet), so nothing
is differenced. The rest runs on stacked points:
`curvature_jets` takes the curvature jets at N points from one jet
evaluation and `curvature_batch` their values (`curvature_with_jets` both,
from one pass). `stacked_curvature_batch` stacks the points of several
charts in one batch, the metric jet of consecutive rows of one family (a
scan's cells) from one family evaluation and any other chart's from its
own, and `curvature_batch` is its one-chart case. The harmonicity reports
of several charts (`harmonicity_reports`, a scan's cells) are slices of one
stacked batch of their sample points, a single report its one-chart case,
and the curvature at one point (`curvature_at`, `batch[n]`) is a point of
a curvature batch, the same record with the point axis dropped. Nothing
is cached across batches; a batch keeps the W and nabla W it makes, so the
residuals and the frames of one stack make each once.

Every quantity after the metric is a jet too, made by contractions of jets
and their partials (numerics.jet_contract, numerics.jet_partials), so one
code path serves every degree:

    g^-1 = sum_k (-e)^k g0^-1,  e = g0^-1 (g - g0)        (to degree max(1, d - 2))
    Gamma^k_ij = g^km Gamma_mij,  Gamma_mij = (d_i g_mj + d_j g_mi - d_m g_ij) / 2
    R_ijkl = (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik) / 2
             + Gamma_m,il Gamma^m_jk - Gamma_m,jl Gamma^m_ik        (to degree d - 2)
    nabla_q R = d_q R - Gamma_q R - R Gamma_q^T                   (to degree d - 3)

R and nabla_q R are operators on bivectors, 6 x 6 over the pairs
P = (i, j), Q = (k, l) (tensor4's layout), and Gamma_q is the action of
(Gamma_q)^m_n = Gamma^m_qn on them. R is g_lm R^m(i,j,k) with
R(d_i, d_j) d_k = [d_j Gamma^m_ik - d_i Gamma^m_jk + Gamma^p_ik Gamma^m_jp
- Gamma^p_jk Gamma^m_ip] d_m, its d Gamma expanded by nabla g = 0, which
reproduces R_ijij > 0 on round spheres (the package-wide sign convention,
see tensor4). Raw curvature is projected onto the algebraic curvature
operators, coefficient by coefficient (tensor4.curvature_symmetrize); a
value farther than 1e-3 * ||raw|| from its projection raises, and the
distance is kept as a noise diagnostic. Ric, s, nabla Ric and ds follow by
contractions of the pair entries, W and nabla W by tensor4.weyl_from_curv,
with no further differencing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .errors import DomainError, InconsistencyError, InputError
from .numerics import (
    DEFAULT_STENCIL,
    Jet,
    StencilConfig,
    axis_stencil,
    central_diff,
    halton,
    jet_contract,
    jet_partials,
    stencil_derivative,
)
from .tensor4 import (
    PAIR_COLS,
    PAIR_ROWS,
    bivector_frame,
    curvature_symmetrize,
    curvature_tensor,
    tensor_norm,
    weyl_from_curv,
)

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
    """Smooth metric on a coordinate box: the box and one metric formula.

    eval_fn(x) is the metric at stacked points x (..., 4), shape (..., 4, 4),
    written with numpy operations that numerics.Jet supports, so that the
    same formula on the coordinate jets (Jet.variables(x, degree)) is the
    metric's exact Taylor expansion, and curvature differences nothing. A
    formula that Jet cannot evaluate (np.diag or np.array of entries, abs, a
    function of one point only) raises InputError at construction.
    adapted_frame_fn, when registered, returns four g-orthogonal column
    vectors that diagonalize the Ricci tensor (used by the frame extraction
    when the Ricci spectrum is degenerate). Their directions must be
    constant over the box: frame derivatives take only their normalization
    into account, and validation rejects a frame that varies. `params` is
    serialized into reports.

    A chart that ChartFamily.charts makes is a row of its family: `family`
    is the ChartFamily and `row` the formula's keyword arguments for this
    chart, and the family validates all its rows at once. Any other chart,
    one that dataclasses.replace makes included, has neither and is
    validated alone.
    """

    name: str
    box: np.ndarray
    eval_fn: object
    params: dict = field(default_factory=dict)
    adapted_frame_fn: object = None
    # (family, row), given by ChartFamily.charts only
    family_row: InitVar[tuple] = None

    def __post_init__(self, family_row):
        self.box = np.asarray(self.box, dtype=float)
        if self.box.shape != (4, 2) or np.any(self.box[:, 1] <= self.box[:, 0]):
            raise InputError("box must be (4,2) with lo < hi per axis")
        self.family, self.row = family_row or (None, None)
        if self.family is None:
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


@dataclass(frozen=True, eq=False)
class ChartFamily:
    """Metric charts that share one closed form, a chart per row of its
    parameters.

    `formula(x, **row)` is the metric at stacked points x (..., 4), written
    with numpy operations, so that on the coordinate jets of numerics.Jet it
    gives the exact metric jet. A row is the formula's keyword arguments for
    one chart. Each chart evaluates the formula with its own row as it is
    (Python floats, a point (4,) unstacked), and a stack of rows goes through
    it in one call (`evaluate`): a family that `broadcasts` takes every
    argument as the array (R, 1) of the rows' values against points
    (R, P, 4); any other is called once per row, for rows whose arguments
    are prepared per row (a kpc profile, randflat's wave tables).
    `adapted_frame_fn` is every row's.
    """

    formula: object
    broadcasts: bool = True
    adapted_frame_fn: object = None

    def charts(self, rows):
        """The charts of the family at `rows`, (row, name, box, params) each,
        validated together (_validate_chart)."""
        charts = [
            MetricChart(
                name=name,
                box=box,
                eval_fn=functools.partial(self.formula, **row),
                params=params,
                adapted_frame_fn=self.adapted_frame_fn,
                family_row=(self, row),
            )
            for row, name, box, params in rows
        ]
        if charts:
            _validate_chart(*charts)
        return charts

    def evaluate(self, X, rows, degree=None):
        """The metric (degree None) or its Taylor coefficients to `degree` at
        stacked rows of points X (R, P, 4), X[n] with rows[n]: shape
        (R, P, 4, 4), or (R, P, 4, 4, ncoef)."""

        def at(x, row):
            if degree is None:
                return np.asarray(self.formula(x, **row), dtype=float)
            return _formula_jet(self.formula, x, degree, **row)

        if self.broadcasts:
            return at(X, {key: np.array([row[key] for row in rows])[:, None] for key in rows[0]})
        return np.stack([at(x, row) for x, row in zip(X, rows)])


def _formula_jet(formula, x, degree, **row):
    """The Taylor coefficients to `degree` of a metric formula at stacked
    points x (..., 4), shape (..., 4, 4, ncoef) in numerics.Jet's layout:
    the formula on the coordinate jets, with a family row's keyword
    arguments `row`. TypeError if the formula gives something else than a
    jet."""
    jet = formula(Jet.variables(x, degree), **row)
    if not isinstance(jet, Jet):
        raise TypeError(f"it gave {type(jet).__name__}, not a Jet")
    return jet.coef


def _rows_evaluate(charts, X, degree=None):
    """The metric (degree None) or its Taylor coefficients to `degree` of
    every chart at its points X[n] (R, P, 4), the row axis first: one call
    for the rows of a family, or one formula call of a chart alone on
    X[0]."""
    if len(charts) > 1:
        return charts[0].family.evaluate(X, [chart.row for chart in charts], degree)
    (chart,) = charts
    values = chart.eval_fn(X[0]) if degree is None else _formula_jet(chart.eval_fn, X[0], degree)
    return np.asarray(values, dtype=float)[None]


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


@np.errstate(over="ignore", invalid="ignore")
def _validate_chart(*charts):
    """Reject charts whose metric is malformed or whose formula is not one
    smooth metric on points and jets alike. A formula that overflows is
    named by the finiteness check alone: numpy's overflow and invalid-value
    warnings are off while it runs.

    `charts` is one chart, or rows of one ChartFamily checked together:
    every check runs once over the rows stacked, with its bound applied to
    each row alone (a relative bound scaled by that row's own values), and
    a failure names the first row where the check fails, in the words of
    that chart checked alone. At five fixed probe points of each chart:
    - eval_fn gives a (4, 4) metric, finite, symmetric to 1e-10 relative
      and positive definite (least eigenvalue above 1e-6), and the formula
      evaluates on the coordinate jets of degree 1 (numerics.Jet) to a jet
      of shape (5, 4, 4); adapted_frame_fn, when registered, gives (4, 4)
      frames whose column directions are the same at every probe to 1e-12;
      InputError otherwise, naming the first probe that fails;
    - the formula on stacked points and the values of its jet equal the
      point values to 1e-12 relative, and at the first probe the order-4
      and order-6 central first derivatives agree to 1e-6, as do the
      first partials of the jet and the order-6 ones; InconsistencyError
      otherwise.
    Each probe goes through its chart's eval_fn once, and the symmetry and
    definiteness checks run on every row's five metrics stacked. The rest
    is two calls for all rows (_rows_evaluate): the jet of degree 1 on the
    probes, and the formula on the five probes and the 40 points of the
    derivative stencils together.
    """
    pts = np.array([_probe_points(chart) for chart in charts])
    gs = []
    for chart, xs in zip(charts, pts):
        for x in xs:
            g = np.asarray(chart.eval_fn(x), dtype=float)
            if g.shape != (4, 4):
                raise InputError(f"chart '{chart.name}' returned shape {g.shape}")
            gs.append(g)
    gs = np.array(gs)
    finite = np.isfinite(gs).all(axis=(1, 2))
    # a metric that is not finite is named as such, and checked no further
    checked = gs if finite.all() else np.where(finite[:, None, None], gs, np.eye(4))
    asym = _norms(checked - np.swapaxes(checked, 1, 2)) > 1e-10 * np.maximum(1.0, _norms(checked))
    low = np.linalg.eigvalsh(0.5 * (checked + np.swapaxes(checked, 1, 2)))[:, 0] <= 1e-6
    if not finite.all() or asym.any() or low.any():
        n = int(np.argmax(~finite | asym | low))
        fault = "not symmetric" if asym[n] else "not positive definite"
        fault = fault if finite[n] else "not finite"
        chart, x = charts[n // pts.shape[1]], pts.reshape(-1, 4)[n]
        raise InputError(f"chart '{chart.name}' metric {fault} at {x.tolist()}")
    gs = gs.reshape(pts.shape + (4,))
    first = charts[0]
    if first.adapted_frame_fn is not None:
        frames = np.array([[first.adapted_frame_fn(x) for x in xs] for xs in pts], dtype=float)
        if frames.shape != gs.shape:
            raise InputError(f"chart '{first.name}' adapted frame has shape {frames.shape[2:]}")
        directions = frames / np.linalg.norm(frames, axis=2, keepdims=True)
        turning = np.max(np.abs(directions - directions[:, :1]), axis=(1, 2, 3)) > 1e-12
        if turning.any():
            raise InputError(
                f"chart '{charts[int(np.argmax(turning))].name}': adapted frame directions vary "
                "over the box; frame derivatives assume constant directions"
            )

    def no_jet(why):
        return InputError(
            f"chart '{first.name}': its metric formula does not evaluate on numerics.Jet "
            f"({why}); write eval_fn with numpy operations that Jet supports, on stacked "
            "points (..., 4)"
        )

    try:
        coef = _rows_evaluate(charts, pts, 1)
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise no_jet(exc) from exc
    if coef.shape != gs.shape + (5,):
        raise no_jet(f"a jet of shape {coef.shape[1:-1]} for {pts.shape[1]} points")

    def worst(T):
        # max |T| over each row
        return np.abs(T).reshape(len(T), -1).max(axis=1)

    def reject(bad, message):
        # InconsistencyError naming the first row where `bad` holds
        if bad.any():
            n = int(np.argmax(bad))
            raise InconsistencyError(message(charts[n].name, pts[n, 0].tolist()))

    values = coef[..., 0]
    reject(
        worst(values - gs) > 1e-12 * np.maximum(1.0, worst(values)),
        lambda name, _: f"chart '{name}': the formula's jet and its value disagree",
    )
    # stencil-order consistency: order-4 and order-6 first derivatives agree,
    # and with the jet
    P = pts[:, :1] + _CHECK_MOVES
    V = _rows_evaluate(charts, np.concatenate([pts, P], axis=1))
    if V.shape != (len(charts), pts.shape[1] + len(_CHECK_MOVES), 4, 4):
        raise InputError(
            f"chart '{first.name}' returned shape {V.shape[1:]} for "
            f"{pts.shape[1] + len(_CHECK_MOVES)} points"
        )
    G, V = V[:, : pts.shape[1]], V[:, pts.shape[1] :]
    reject(
        worst(G - gs) > 1e-12 * np.maximum(1.0, worst(G)),
        lambda name, _: f"chart '{name}': stacked and point-wise evaluation disagree",
    )
    # the stencil axes (direction, offset) first, the row axis after them;
    # d[p, n] = D_p g of row n
    V = V.swapaxes(0, 1)
    c4, c6 = _CHECK_ORDERS
    d4 = stencil_derivative(V[:16].reshape(4, 4, -1, 4, 4), c4)
    d6 = stencil_derivative(V[16:].reshape(4, 6, -1, 4, 4), c6)
    reject(
        worst((d4 - d6).swapaxes(0, 1)) > 1e-6,
        lambda name, x: f"chart '{name}': order-4/order-6 derivatives disagree at {x}",
    )
    reject(
        worst(coef[:, 0, ..., 1:] - d6.transpose(1, 2, 3, 0)) > 1e-6,
        lambda name, x: f"chart '{name}': the formula's jet derivative disagrees with its "
        f"differences at {x}",
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
    """Christoffel symbols Gamma[k, i, j] = Gamma^k_ij at x, from central
    differences of the metric on `cfg`: a reference for the exact jets.
    Each stencil point goes through chart.eval, whose DomainError names a
    point outside the box."""
    x = np.asarray(x, dtype=float)
    g = chart.eval(x)
    dg = np.stack([central_diff(chart.eval, x, d, cfg) for d in range(4)], axis=-1)
    gamma = np.einsum("km,mij->kij", np.linalg.inv(g), _first_kind(dg))
    _check_compatible(x, g, gamma, dg)
    return gamma


def _metric_coefficients(run, degree):
    """The metric's Taylor coefficients at the points of `run`, shape
    (ncoef, N, 4, 4) with the coefficient axis first and the parts' N
    points in order: `run` is one (chart, X) part, or parts whose charts
    are rows of one family with as many points X (P, 4) each. The
    coefficients come from one formula call on the coordinate jets: the
    family's on all rows stacked (ChartFamily.evaluate), or the chart's on
    all of X. A point outside its chart's box raises DomainError."""
    for chart, X in run:
        outside = ~np.all((X >= chart.box[:, 0]) & (X <= chart.box[:, 1]), axis=1)
        if outside.any():
            raise DomainError(f"point {X[outside][0].tolist()} outside chart '{chart.name}' box")
    chart, X = run[0]
    if len(run) > 1:
        rows = [chart.row for chart, _ in run]
        coef = chart.family.evaluate(np.stack([X for _, X in run]), rows, degree)
        coef = coef.reshape((-1,) + coef.shape[2:])
    elif len(X) == 1:
        # a single point goes in unstacked: formulas run faster on scalars
        coef = _formula_jet(chart.eval_fn, X[0], degree)[None]
    else:
        coef = _formula_jet(chart.eval_fn, X, degree)
    return np.moveaxis(np.asarray(coef, dtype=float), -1, 0)


@dataclass(frozen=True)
class CurvatureBatch:
    """Curvature at stacked points x (N, 4), the point axis first: g, g_inv
    and ric (N, 4, 4), gamma[n, k, i, j] = Gamma^k_ij, s (N,), R and weyl
    (N, 6, 6) as operators on bivectors (R[n, P, Q] = R_ijkl over the pairs
    P = (i, j), Q = (k, l), tensor4's layout), and the projection distance
    per point. Batches of degree 3 or more also carry nabla_riem and
    nabla_weyl (N, 4, 6, 6), [n, p] the derivative along d_p, nabla_ric
    (N, 4, 4, 4) and ds[n, p]; other batches leave them None. weyl and
    nabla_weyl are made on first request and kept on the batch: not every
    caller of a large batch reads them, and the harmonicity residuals and
    the frames of one stack share them.

    batch[n] is point n, the same record without the point axis: x (4,),
    g[i, j], nabla_riem[p, P, Q], s a scalar, and so on; batch[lo:hi]
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
    checking each g: finite, symmetric to 1e-12 relative, positive definite
    (least eigenvalue above 1e-6), and g g^-1 = I within 1e-10. InputError
    or InconsistencyError names the first point that fails."""
    if not np.isfinite(g).all():
        infinite = ~np.isfinite(g).all(axis=(1, 2))
        raise InputError(f"metric is not finite at {X[infinite][0].tolist()}")
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


def _jet_blocks(parts, degree):
    # _curvature_algebra on the metric coefficients of every (chart, X)
    # part, stacked on the point axis, block by block
    _integer_at_least("curvature degree", degree, 2)
    if not len(parts):
        raise InputError("the curvature stack has no charts")
    runs = []
    for chart, X in parts:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != 4:
            raise InputError(f"stacked chart points must have shape (N, 4), got {X.shape}")
        if not len(X):
            raise InputError(f"the curvature stack has no points of chart '{chart.name}'")
        # consecutive rows of one family with as many points each share a run
        run = runs[-1] if runs else None
        joins = run and chart.family is not None and chart.family is run[0][0].family
        if joins and len(X) == len(run[0][1]):
            run.append((chart, X))
        else:
            runs.append([(chart, X)])
    X = np.concatenate([X for run in runs for _, X in run])
    coef = np.concatenate([_metric_coefficients(run, degree) for run in runs], axis=1)
    for lo in range(0, len(X), _BLOCK):
        yield _curvature_algebra(X[lo : lo + _BLOCK], coef[:, lo : lo + _BLOCK], degree)


def _value_batch(parts, blocks):
    # the CurvatureBatch of the points of `parts` from the value terms of
    # their _jet_blocks
    values = [
        {"projection_distance": dist, **{key: jet[0] for key, jet in jets.items()}}
        for jets, dist in blocks
    ]
    fields = {key: np.concatenate([v[key] for v in values]) for key in values[0]}
    X = np.concatenate([np.asarray(X, dtype=float) for _, X in parts])
    return CurvatureBatch(x=X, **fields)


def stacked_curvature_batch(parts, degree=2):
    """curvature_batch over several charts at once: `parts` is a sequence of
    (chart, X) pairs, and the batch holds every part's points in order. The
    metric coefficients of consecutive parts whose charts are rows of one
    family, with as many points each, come from one call of the family's
    formula, each point with its own row's parameters; any other part's
    from its own one formula call. The algebra runs once per block of the
    stacked points. Each point equals its point of curvature_batch(chart,
    X, degree) on its own part, bit for bit. No parts, or a part with no
    points, raises InputError."""
    return _value_batch(parts, _jet_blocks(parts, degree))


def curvature_batch(chart, X, degree=2):
    """Curvature at stacked points X (N, 4) from one metric jet of `degree`,
    an integer >= 2 (3 and more for the covariant derivatives): one call of
    the chart's formula on the coordinate jets of all points. The fields
    are the value terms of `curvature_jets`, R, weyl and their covariant
    derivatives as operators on bivectors (CurvatureBatch); the algebra runs
    on blocks of points, to bound the memory a large batch holds at once.
    It is the one-part stacked_curvature_batch.

    Every point gets the same checks: a finite symmetric positive-definite
    metric with g g^-1 = I, nabla g = 0, and a raw curvature within
    1e-3 * ||raw|| of its projection. A point outside the box raises
    DomainError naming that point; a degree that is not an integer >= 2,
    or X with no points, raises InputError.
    """
    return stacked_curvature_batch([(chart, X)], degree)


def curvature_with_jets(chart, X, degree=2):
    """curvature_batch(chart, X, degree) and curvature_jets(chart, X,
    degree), bit for bit, from one jet evaluation and one pass of the
    algebra: the batch is the value terms of the jets."""
    parts = [(chart, X)]
    blocks = list(_jet_blocks(parts, degree))
    jets = {key: np.concatenate([b[key] for b, _ in blocks], axis=1) for key in blocks[0][0]}
    return _value_batch(parts, blocks), jets


def curvature_jets(chart, X, degree=2):
    """The Taylor coefficients of curvature_batch(chart, X, degree)'s fields
    but x and the projection distance, after the same checks: a dict from
    field name to an array with the coefficient axis first (numerics.Jet's
    layout), the point axis second and the field's own axes after them (R
    and nabla_riem on the bivector pairs, as in CurvatureBatch). g comes to
    `degree` d, g_inv and gamma to max(1, d - 2), R, ric and s to d - 2,
    and nabla_riem, nabla_ric and ds to d - 3: at d = 2, 3, 4 that is 15,
    35, 70 coefficients of g; 5, 5, 15 of g_inv and gamma; 1, 5, 15 of R,
    ric and s; and none, 1, 5 of the covariant derivatives."""
    return curvature_with_jets(chart, X, degree)[1]


# R's terms [a, b, c, d] at the pairs (i, j), (k, l), flat in (4, 4, 4, 4):
# (i, l, j, k), (j, k, i, l), (j, l, i, k), (i, k, j, l) (module docstring)
(_i, _j), (_k, _l) = PAIR_ROWS, PAIR_COLS
_TERMS = np.arange(256).reshape(4, 4, 4, 4)[
    np.array([_i, _j, _j, _i]), np.array([_l, _k, _l, _k]),
    np.array([_j, _i, _i, _j]), np.array([_k, _l, _k, _l]),
].transpose(1, 2, 0)  # fmt: skip
_TERMS.setflags(write=False)
# the action of (Gamma_q)^m_n = Gamma^m_qn on bivectors (module docstring) is
# the part of Lambda^2 (1 + Gamma_q) linear in Gamma_q: transposed, as a
# matrix on the 16 entries of Gamma_q
_UNIT = np.eye(16).reshape(16, 4, 4)
_ON_PAIRS = bivector_frame(np.eye(4) + _UNIT) - np.eye(6) - bivector_frame(_UNIT)
_ON_PAIRS = _ON_PAIRS.swapaxes(-1, -2).reshape(16, 36)
_ON_PAIRS.setflags(write=False)


def _curvature_algebra(X, coef, degree):
    """The coefficients of CurvatureBatch's fields but x, to the degrees
    curvature_jets gives, and the projection distance, at points X (N, 4)
    from the metric's, coef (ncoef, N, 4, 4) of degree d >= 2, after every
    check of curvature_batch; g^-1 and Gamma to max(1, d - 2) are what R
    and the first-order terms of structure data read."""
    g_inv0 = _checked_inverse(X, coef[0])
    dg = jet_partials(coef)
    ncoef = math.comb(4 + max(1, degree - 2), 4)
    # g^-1 = (1 + e)^-1 g0^-1 with e = g0^-1 (g - g0), by Horner's rule
    e = np.concatenate([np.zeros_like(g_inv0[None]), g_inv0 @ coef[1:ncoef]])
    g_inv = const = np.concatenate([g_inv0[None], np.zeros_like(e[1:])])
    for _ in range(max(1, degree - 2)):
        g_inv = const - jet_contract("ij,jk->ik", e, g_inv)
    first = _first_kind(dg[:ncoef])
    gamma = jet_contract("km,mij->kij", g_inv, first)
    _check_compatible(X, coef[0], gamma[0], dg[0])
    # R on the pairs from H[..., a, b, c, d] = d_c d_d g_ab and the products
    # K[..., a, b, c, d] = Gamma_m,ab Gamma^m_cd, term by term, so that a
    # value does not depend on the degree or the stack
    H = jet_partials(dg)
    K = jet_contract("mab,mcd->abcd", first[: len(H)], gamma)
    lead = H.shape[:2]
    H = H.reshape(lead + (256,))[..., _TERMS]
    K = K.reshape(lead + (256,))[..., _TERMS[..., ::2]]
    raw = 0.5 * (H[..., 0] + H[..., 1] - H[..., 2] - H[..., 3]) + (K[..., 0] - K[..., 1])
    R = curvature_symmetrize(raw)
    dist, scale = tensor_norm(raw[0] - R[0]), tensor_norm(raw[0])
    far = (scale > 0.0) & (dist > 1e-3 * scale)
    if far.any():
        n = int(np.argmax(far))
        raise InconsistencyError(
            f"projection distance {dist[n]:.3e} exceeds 1e-3 * ||raw|| = {1e-3 * scale[n]:.3e} "
            f"at {X[n].tolist()}"
        )
    ric = jet_contract("ik,ijkl->jl", g_inv, curvature_tensor(R))
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    s = jet_contract("jl,jl->", g_inv, ric)
    jets = {"g": coef, "g_inv": g_inv, "gamma": gamma, "R": R, "ric": ric, "s": s}
    if degree >= 3:
        dR = np.moveaxis(jet_partials(R), -1, -3)
        lead = dR.shape[:2]
        on_pairs = np.swapaxes(gamma[: len(dR)], -3, -2).reshape(lead + (4, 16)) @ _ON_PAIRS
        t = jet_contract("qPA,AQ->qPQ", on_pairs.reshape(lead + (4, 6, 6)), R)
        nabla_riem = dR - t - np.swapaxes(t, -1, -2)
        nabla_ric = jet_contract("ik,qijkl->qjl", g_inv, curvature_tensor(nabla_riem))
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
    "dvw.w": lambda b: _metric_norms(
        np.einsum("npi,npijkl->njkl", b.g_inv, curvature_tensor(b.nabla_weyl)), b.g_inv
    ),
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
        nabla_riem = curvature_tensor(b.nabla_riem)
        return _metric_norms(np.einsum("npq,npijkq->nijk", b.g_inv, nabla_riem), b.g_inv)

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
