"""Shared numerical kernels.

Truncated multivariate Taylor arithmetic (`Jet`), which gives exact metric
jets for charts written as formulas, with the contraction (`jet_contract`)
and partials (`jet_partials`) of coefficient arrays that build curvature at
any degree; central differences on scalar/array valued fields, one at a
time or contracted over the stencil points of many base points at once, and
metric jets up to fourth partials from one batched stencil evaluation, for
charts without a formula; symmetric eigensystems
with a deterministic ordering, SVD-based rank decisions and the Halton
sequence. Everything downstream (curvature, frames, variety checks) funnels
its numerics through this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# offsets and weights of the standard central first-derivative stencils
_FD_STENCILS = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -2.0 / 3.0, 2.0 / 3.0, -1.0 / 12.0)),
    6: (
        (-3, -2, -1, 1, 2, 3),
        (-1.0 / 60.0, 3.0 / 20.0, -3.0 / 4.0, 3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0),
    ),
}


@dataclass(frozen=True)
class StencilConfig:
    """Finite-difference configuration.

    `step` drives first and second derivatives (the metric jet, built from
    nested first-derivative stencils); `third_step` is the wider outer step
    of the levels above: the third and fourth metric partials of a chart
    without an exact jet.
    """

    step: float = 1e-3
    order: int = 4
    third_step: float = 5e-3

    def __post_init__(self):
        if self.step <= 0.0 or self.third_step <= 0.0:
            raise InputError("stencil steps must be positive")
        if self.order not in _FD_STENCILS:
            raise InputError(f"stencil order must be one of {sorted(_FD_STENCILS)}, got {self.order}")

    @property
    def reach(self):
        """Largest offset (in multiples of the step) the stencil touches."""
        return max(abs(o) for o in _FD_STENCILS[self.order][0])


DEFAULT_STENCIL = StencilConfig()


def central_diff(f, x, direction, cfg=DEFAULT_STENCIL, step=None):
    """Central difference of `f` along coordinate `direction` at `x`.

    `f` may return a scalar or an ndarray; the derivative has the same shape.
    `step` overrides cfg.step (used for the wider third-derivative stencils).
    """
    x = np.asarray(x, dtype=float)
    h = cfg.step if step is None else step
    offsets, weights = _FD_STENCILS[cfg.order]
    acc = None
    for o, w in zip(offsets, weights):
        y = x.copy()
        y[direction] += o * h
        term = w * np.asarray(f(y), dtype=float)
        acc = term if acc is None else acc + term
    return acc / h


@functools.lru_cache(maxsize=None)
def _jet_layout(order):
    """Integer offsets of the nested stencil in R^4, and where each term reads.

    Returns (offsets, center, first, second): offsets[n] is the n-th distinct
    point in units of the step; first[p, a] indexes the point o_a e_p and
    second[q, b, p, a] the point o_b e_q + o_a e_p, with o the 1D offsets.
    """
    steps = _FD_STENCILS[order][0]
    index = {}

    def at(*moves):
        v = [0, 0, 0, 0]
        for axis, o in moves:
            v[axis] += o
        return index.setdefault(tuple(v), len(index))

    center = at()
    first = np.array([[at((p, o)) for o in steps] for p in range(4)])
    second = np.array(
        [
            [[[at((q, ob), (p, oa)) for oa in steps] for p in range(4)] for ob in steps]
            for q in range(4)
        ]
    )
    offsets = np.array(list(index), dtype=float)
    for arr in (offsets, first, second):
        arr.setflags(write=False)
    return offsets, center, first, second


def axis_stencil(x, cfg=DEFAULT_STENCIL, step=None):
    """The points `central_diff` touches around stacked x (..., 4), for all
    four directions: shape (..., 4, k, 4), point [d, a] = x + o_a h e_d with
    o the k offsets of cfg's first-derivative stencil and h = `step` (default
    cfg.step). `stencil_derivative` contracts values at these points."""
    x = np.asarray(x, dtype=float)
    h = cfg.step if step is None else step
    offsets = np.asarray(_FD_STENCILS[cfg.order][0], dtype=float)
    moves = h * np.eye(4)[:, None, :] * offsets[None, :, None]  # [d, a] = h o_a e_d
    return x[..., None, None, :] + moves


def stencil_derivative(values, cfg=DEFAULT_STENCIL, step=None):
    """Central differences from values at `axis_stencil` points: `values` has
    the (4, k) stencil axes first, and the result keeps the first of them as
    the axis of the four partials, d[d] = D_d f."""
    h = cfg.step if step is None else step
    weights = np.asarray(_FD_STENCILS[cfg.order][1], dtype=float)
    return np.tensordot(values, weights, axes=(1, 0)) / h


def metric_jet(f_batch, x, cfg=DEFAULT_STENCIL, degree=2):
    """Value and partials of a field at stacked points x (..., 4), up to
    `degree` (2, 3 or 4), from one batched call.

    `f_batch` maps stacked points (N, 4) to stacked values (N, ...). At
    degree 2 it is called on the tensor product of cfg's central
    first-derivative stencil with itself around every point of x: the points
    that nested `central_diff` calls touch (129 distinct per point at order
    4). The 1D weights are contracted in the same nested order, so d1[p] =
    D_p f and d2[q, p] = D_q (D_p f), D_p being the first-derivative stencil
    along p (Fornberg, Math. Comp. 51, 1988). Higher degrees take the same
    nested stencil, at H = cfg.third_step, as outer levels: degree 3 adds
    the product stencil around the points x + o H e_r, and d3[r, q, p] =
    D^H_r (D_q D_p f); degree 4 adds it around x + o' H e_s + o H e_r too
    (129 outer points at order 4), and d4[s, r, q, p] = D^H_s D^H_r (D_q D_p
    f). Returns [value, d1, d2, ...], each with the batch axes of x first
    and the derivative axes right after them.
    """
    if degree not in (2, 3, 4):
        raise InputError(f"finite-difference jets have degree 2, 3 or 4, got {degree}")
    h = cfg.step
    offsets, center, first, second = _jet_layout(cfg.order)
    w = np.asarray(_FD_STENCILS[cfg.order][1], dtype=float)
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    # the outer points: the nested layout's center, its first level, and at
    # degree 4 its second, in layout order
    outer = {2: 1, 3: 1 + first.size, 4: len(offsets)}[degree]
    bases = x.reshape(-1, 1, 4) + cfg.third_step * offsets[:outer]
    pts = (bases[:, :, None, :] + h * offsets).reshape(-1, 4)
    values = np.asarray(f_batch(pts), dtype=float)
    values = values.reshape(bases.shape[:2] + (len(offsets),) + values.shape[1:])

    def nested(v, at, step):
        # D_q (D_p v) from values on the nested layout along axis `at` of v
        inner = np.tensordot(w, v.take(second, axis=at), axes=(0, at + 3)) / step
        return np.tensordot(w, inner, axes=(0, at + 1)) / step

    d1 = np.tensordot(w, values[:, :, first], axes=(0, 3)) / h
    d2 = nested(values, 2, h)
    # copies: a view would keep every stencil value alive with the result
    jet = [values[:, 0, center].copy(), d1[:, 0].copy(), d2[:, 0].copy()]
    if degree >= 3:
        jet.append(np.tensordot(w, d2[:, first], axes=(0, 2)) / cfg.third_step)
    if degree == 4:
        jet.append(nested(d2, 1, cfg.third_step))
    return [d.reshape(lead + d.shape[1:]) for d in jet]


def _multi_indices(nvar, degree):
    # by total degree, then lexicographically from the top: index 0 is the
    # constant term and 1 + i the linear term in variable i
    out = []
    for k in range(degree + 1):
        out += sorted(
            (a for a in itertools.product(range(k + 1), repeat=nvar) if sum(a) == k),
            reverse=True,
        )
    return out


@functools.lru_cache(maxsize=None)
def _jet_tables(nvar, degree):
    """Index tables of truncated Taylor arithmetic in `nvar` variables.

    Returns (left, right, fold, gathers, factors). The product of two
    coefficient vectors is (a[left] * b[right]) @ fold: one entry per pair of
    multi-indices whose sum stays within `degree` (165 pairs in 4 variables
    at degree 3), folded onto the index of the sum. gathers[k][i_1..i_k]
    indexes the coefficient of the multi-index counting i_1..i_k, and
    factors[k] holds its alpha!, so that d^k f / dx_i_1..dx_i_k equals
    factors[k] * c[gathers[k]].
    """
    alphas = _multi_indices(nvar, degree)
    index = {a: n for n, a in enumerate(alphas)}
    pairs = []
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            if sum(a) + sum(b) <= degree:
                pairs.append((i, j, index[tuple(p + q for p, q in zip(a, b))]))
    left, right, into = (np.array(col) for col in zip(*pairs))
    fold = np.zeros((len(pairs), len(alphas)))
    fold[np.arange(len(pairs)), into] = 1.0
    gathers, factors = [np.zeros((), dtype=int)], [np.ones(())]
    for k in range(1, degree + 1):
        slots = list(itertools.product(range(nvar), repeat=k))
        counts = [tuple(t.count(v) for v in range(nvar)) for t in slots]
        gathers.append(np.array([index[a] for a in counts]).reshape((nvar,) * k))
        factors.append(
            np.array([math.prod(map(math.factorial, a)) for a in counts], dtype=float).reshape(
                (nvar,) * k
            )
        )
    tables = (left, right, fold, gathers, factors)
    for arr in (left, right, fold, *gathers, *factors):
        arr.setflags(write=False)
    return tables


_NVAR = 4  # the coefficient arrays below are jets in the four chart coordinates


def taylor_coefficients(derivs):
    """Taylor coefficients, coefficient axis first, from the partials [f, df,
    ..., d^k f], derivative axes first: each partial over its alpha!, and
    averaged over the orderings of its derivative axes (their sum over k!),
    where they do not commute as metric_jet's third partials do not."""
    idx = _jet_tables(_NVAR, len(derivs) - 1)[3]
    coef = np.zeros((math.comb(_NVAR + len(derivs) - 1, _NVAR),) + np.shape(derivs[0]))
    for k, d in enumerate(derivs):
        np.add.at(coef, idx[k].ravel(), np.reshape(d, (-1,) + coef.shape[1:]) / math.factorial(k))
    return coef


@functools.lru_cache(maxsize=None)
def _partial_tables(degree):
    # coefficient beta of d f / dx_p is (beta_p + 1) c[beta + e_p]
    index = {a: n for n, a in enumerate(_multi_indices(_NVAR, degree))}
    lower = np.array([a for a in index if sum(a) < degree], dtype=int).reshape(-1, _NVAR)
    up = (lower[:, None, :] + np.eye(_NVAR, dtype=int)).reshape(-1, _NVAR).tolist()
    tables = np.array([index[tuple(a)] for a in up]).reshape(lower.shape), lower + 1.0
    for arr in tables:
        arr.setflags(write=False)
    return tables


def jet_partials(coef):
    """First partials of jets with the coefficient axis first: coef (C_d,
    ...) of degree d gives (C_(d-1), ..., 4), [..., p] the coefficients of
    d f / dx_p. Cut to a lower degree, a jet is a leading slice."""
    source, factor = _partial_tables(_jet_degree(_NVAR, len(coef)))
    return np.moveaxis(coef[source] * factor.reshape(factor.shape + (1,) * (coef.ndim - 1)), 1, -1)


@functools.lru_cache(maxsize=None)
def _contraction_plan(spec, k):
    # the transpositions that put a's tensor axes as (free, summed) and b's
    # as (summed, free) behind the k leading axes, and the output's order
    inputs, out = spec.split("->")
    x, y = inputs.split(",")
    summed = [c for c in x if c in y]
    rows, cols = ([c for c in t if c not in summed] for t in (x, y))
    lead = tuple(range(k))
    perms = (
        lead + tuple(k + x.index(c) for c in rows + summed),
        lead + tuple(k + y.index(c) for c in summed + cols),
        lead + tuple(k + (rows + cols).index(c) for c in out),
    )
    return *perms, len(rows), len(summed)


def jet_contract(spec, a, b):
    """np.einsum(spec, a, b) for jets of tensors, coefficient axis first, to
    the lower of their degrees: `spec` names the trailing tensor axes, ahead
    of them are batch axes, and every index of both is summed. Laid out as
    matrices, it is Jet's pair table with a matrix product."""
    k = a.ndim - spec.index(",")
    perm_a, perm_b, perm_out, nrows, nsum = _contraction_plan(spec, k)
    size = min(len(a), len(b))
    a, b = a[:size].transpose(perm_a), b[:size].transpose(perm_b)
    lead, free = a.shape[:k], a.shape[k : k + nrows] + b.shape[k + nsum :]
    inner = math.prod(b.shape[k : k + nsum])
    a, b = a.reshape(lead + (-1, inner)), b.reshape(lead + (inner, -1))
    if size == 1:
        out = a @ b
    else:
        left, right, fold, _, _ = _jet_tables(_NVAR, _jet_degree(_NVAR, size))
        out = fold.T @ (a.take(left, axis=0) @ b.take(right, axis=0)).reshape(len(fold), -1)
    return out.reshape(lead + free).transpose(perm_out)


@functools.lru_cache(maxsize=None)
def _jet_degree(nvar, ncoef):
    degree = 0
    while math.comb(nvar + degree, degree) < ncoef:
        degree += 1
    if math.comb(nvar + degree, degree) != ncoef:
        raise InputError(f"{ncoef} is not a coefficient count of a jet in {nvar} variables")
    return degree


@functools.lru_cache(maxsize=None)
def _binomials(p, degree):
    # binom(p, k) for k = 0..degree, for any real p
    out = [1.0]
    for k in range(degree):
        out.append(out[-1] * (p - k) / (k + 1))
    return np.array(out), p - np.arange(degree + 1.0)


def _power_series(v, p, degree):
    # Taylor coefficients of y^p at y = v: binom(p, k) v^(p - k)
    binom, exponents = _binomials(p, degree)
    return binom * np.power(np.asarray(v)[..., None], exponents)


@functools.lru_cache(maxsize=None)
def _cycle_table(degree, phase):
    k = np.arange(degree + 1)
    return (k + phase) % 4, 1.0 / np.array([math.factorial(n) for n in k])


def _cycle_series(v, degree, phase):
    # Taylor coefficients of sin (phase 0) or cos (phase 1): the k-th
    # derivative of sin runs through sin, cos, -sin, -cos
    index, inv_factorials = _cycle_table(degree, phase)
    sin, cos = np.sin(v), np.cos(v)
    table = np.array([sin, cos, -sin, -cos])[index]
    return table.transpose((*range(1, table.ndim), 0)) * inv_factorials


class Jet:
    """Truncated multivariate Taylor polynomials with a leading batch shape.

    coef[..., n] is the coefficient of h^alpha_n in f(x + h), where alpha_n
    runs over the multi-indices in `nvar` variables of total degree up to
    `degree` (35 of them in 4 variables at degree 3), so every partial of f
    at x up to that degree is alpha! times a coefficient. Arithmetic follows
    the truncated Taylor rules (Griewank & Walther, Evaluating Derivatives,
    2nd ed., SIAM 2008, ch. 13; Neidinger, SIAM Review 52 (2010) 545-563):
    a product is one gather and one matrix product over the pair table, and
    a univariate function composes its own first `degree` Taylor
    coefficients with the jet. The numpy ufuncs add, subtract, multiply,
    divide, power, negative, sin, cos, exp and sqrt accept jets, so one
    formula written with numpy operations evaluates both plain points and
    jets. Indexing, `reshape` and `@` act on the batch axes.
    """

    __slots__ = ("coef", "nvar", "degree")

    def __init__(self, coef, nvar=4):
        self.coef = np.asarray(coef, dtype=float)
        self.nvar = nvar
        self.degree = _jet_degree(nvar, self.coef.shape[-1])

    def _new(self, coef):
        # a jet of the same kind; skips the checks of __init__
        out = object.__new__(Jet)
        out.coef, out.nvar, out.degree = coef, self.nvar, self.degree
        return out

    @classmethod
    def variables(cls, x, degree):
        """The coordinate functions at stacked points x (..., n), as a jet of
        batch shape (..., n) in n variables."""
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        coef = np.zeros(x.shape + (math.comb(n + degree, degree),))
        coef[..., 0] = x
        if degree >= 1:
            coef[..., 1 : n + 1] = np.eye(n)
        return cls(coef, nvar=n)

    @property
    def shape(self):
        return self.coef.shape[:-1]

    @property
    def value(self):
        return self.coef[..., 0]

    def derivatives(self):
        """[f, df, ..., d^degree f], the derivative axes ahead of the batch
        axes: d2[i, j, ...] = d^2 f / dx_i dx_j."""
        _, _, _, gathers, factors = _jet_tables(self.nvar, self.degree)
        batch = self.coef.ndim - 1
        out = []
        for k, (gather, factor) in enumerate(zip(gathers, factors)):
            d = self.coef[..., gather] * factor
            out.append(d.transpose(tuple(range(batch, batch + k)) + tuple(range(batch))))
        return out

    def _mul(self, a, b):
        left, right, fold, _, _ = _jet_tables(self.nvar, self.degree)
        return (a.take(left, axis=-1) * b.take(right, axis=-1)) @ fold

    def compose(self, series):
        """f(self) from the Taylor coefficients series[..., k] = f^(k)(v) / k!
        of a univariate f at this jet's value v."""
        series = np.asarray(series, dtype=float)
        tail = self.coef.copy()
        tail[..., 0] = 0.0
        out = series[..., 1:2] * tail if self.degree else np.zeros(series.shape[:-1] + (1,))
        out[..., 0] = series[..., 0]
        power = tail
        for k in range(2, self.degree + 1):
            power = self._mul(power, tail)
            out += series[..., k : k + 1] * power
        return self._new(out)

    # -- batch axes ---------------------------------------------------------

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return self._new(self.coef[key + (slice(None),)])

    def reshape(self, shape):
        return self._new(self.coef.reshape(tuple(shape) + self.coef.shape[-1:]))

    def __matmul__(self, matrix):
        """Contract the last batch axis with the first axis of a constant matrix."""
        return self._new(np.swapaxes(np.swapaxes(self.coef, -1, -2) @ matrix, -1, -2))

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, values):
        # coefficients of a constant: its values on the constant term
        values = np.asarray(values, dtype=float)
        coef = np.zeros(values.shape + self.coef.shape[-1:])
        coef[..., 0] = values
        return coef

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._new(self.coef + other.coef)
        if isinstance(other, float | int):
            coef = self.coef.copy()
            coef[..., 0] += other
            return self._new(coef)
        return self._new(self.coef + self._lift(other))

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.coef)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return self._new(self._mul(self.coef, other.coef))
        if isinstance(other, float | int):
            return self._new(self.coef * other)
        return self._new(self.coef * np.asarray(other, dtype=float)[..., None])

    __rmul__ = __mul__

    def reciprocal(self):
        return self**-1

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, Jet) or np.ndim(p):
            raise InputError("jets are raised to scalar powers only")
        p = float(p)
        if p.is_integer() and p >= 0.0:
            # by products: cheaper for small powers, and defined where the
            # value is 0, which the series v^(p - k) is not
            if p == 0.0:
                return self._new(self._lift(np.ones(self.shape)))
            out = self
            for _ in range(int(p) - 1):
                out = out * self
            return out
        return self.compose(_power_series(self.value, p, self.degree))

    def sqrt(self):
        return self**0.5

    def exp(self):
        factorials = [math.factorial(k) for k in range(self.degree + 1)]
        return self.compose(np.exp(self.value)[..., None] / factorials)

    def sin(self):
        return self.compose(_cycle_series(self.value, self.degree, 0))

    def cos(self):
        return self.compose(_cycle_series(self.value, self.degree, 1))

    _BINARY = {
        np.add: ("__add__", "__radd__"),
        np.subtract: ("__sub__", "__rsub__"),
        np.multiply: ("__mul__", "__rmul__"),
        np.true_divide: ("__truediv__", "__rtruediv__"),
        np.power: ("__pow__", None),
    }
    _UNARY = {np.negative: "__neg__", np.sin: "sin", np.cos: "cos", np.exp: "exp", np.sqrt: "sqrt"}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in self._UNARY and len(inputs) == 1:
            return getattr(self, self._UNARY[ufunc])()
        if ufunc in self._BINARY and len(inputs) == 2:
            a, b = inputs
            forward, reflected = self._BINARY[ufunc]
            if isinstance(a, Jet):
                return getattr(a, forward)(b)
            if reflected is not None:
                return getattr(b, reflected)(a)
        return NotImplemented


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues ascending; `vectors[..., :, k]` belongs to `values[..., k]`.

    Each vector is normalized and sign-fixed: its first component of largest
    magnitude is positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors):
    # per column (stacked on leading axes): flip unless the first component
    # of largest magnitude is positive
    lead = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(vectors, lead, axis=-2) < 0.0, -vectors, vectors)


def sym_eigen(A):
    """Deterministic symmetric eigendecomposition for 3x3/4x4/6x6 matrices,
    stacked on any leading axes."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[-1]
    if n not in (3, 4, 6):
        raise InputError(f"matrix dimension must be 3, 4 or 6, got {n}")
    At = np.swapaxes(A, -1, -2)
    scale = np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))
    if np.any(np.linalg.norm(A - At, axis=(-2, -1)) > 1e-12 * scale):
        raise InputError("matrix is not symmetric within 1e-12 (relative)")
    values, vectors = np.linalg.eigh(0.5 * (A + At))
    return EigenResult(values=values, vectors=_fix_signs(vectors))


@dataclass(frozen=True)
class RankResult:
    singular_values: np.ndarray
    rank: int


RANK_RTOL = 1e-8
RANK_ATOL = 1e-12


def numerical_rank(A):
    """Rank = number of singular values above max(RANK_ATOL, RANK_RTOL * largest)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InputError(f"expected a matrix, got ndim {A.ndim}")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return RankResult(singular_values=sv, rank=0)
    cut = max(RANK_ATOL, RANK_RTOL * sv[0])
    return RankResult(singular_values=sv, rank=int(np.sum(sv > cut)))


_HALTON_BASES = (2, 3, 5, 7)


def _halton_tables(b):
    # per base: the identity digit permutations, one row per digit that a
    # double can resolve (ceil(54 / log2 b) - 1 of them), the digit place
    # values b ** j (b ** (ndigits - 1) stays below 2 ** 63), and scipy's
    # digit scales, 1/b divided by b once per digit
    ndigits = math.ceil(54 / math.log2(b)) - 1
    identity = np.tile(np.arange(b), (ndigits, 1))
    places = b ** np.arange(ndigits, dtype=np.int64)
    scales = np.divide.accumulate(np.concatenate([[1.0 / b], np.full(ndigits - 1, float(b))]))
    rows = np.arange(ndigits)
    for arr in (identity, places, scales, rows):
        arr.setflags(write=False)
    return b, identity, places, scales, rows


_HALTON_TABLES = tuple(_halton_tables(b) for b in _HALTON_BASES)


def halton(count, seed=None):
    """First `count` points of the 4-d Halton sequence, in [0, 1)^4.

    Coordinate k is the radical inverse of the point index in the k-th prime
    base. With a `seed`, the digits of each base are scrambled by random
    permutations (Owen, arXiv:1706.02808): one shuffle of range(b) per digit
    that a double can resolve, ceil(54 / log2 b) - 1 of them, drawn from the
    child generator that np.random.default_rng(seed) spawns (a PCG64 on the
    first child of np.random.SeedSequence(seed), made here without the
    parent generator) as one `permuted` call per base, which draws what one
    `permutation` call per digit would. These are the draws
    scipy.stats.qmc.Halton(d=4, scramble=True,
    seed=np.random.default_rng(seed)) makes, and the digit terms are summed
    in scipy's order with its scales (1/b divided by b once per digit), so
    both give the same points, bit for bit. The per-base tables (identity
    permutations, digit place values, scales) are module constants; a call
    makes only the draws and the digit sums.
    """
    index = np.arange(count, dtype=np.int64)[:, None]
    rng = None
    if seed is not None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    out = np.empty((count, len(_HALTON_BASES)))
    for k, (b, perms, places, scales, rows) in enumerate(_HALTON_TABLES):
        if rng is not None:
            perms = rng.permuted(perms, axis=1)
        terms = perms[rows, index // places % b] * scales
        out[:, k] = np.cumsum(terms, axis=1)[:, -1]
    return out
