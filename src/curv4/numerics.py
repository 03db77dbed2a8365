"""Shared numerical kernels.

Central differences on scalar/array-valued fields, jets (value, first and
second partials) of a field from one batched stencil evaluation, symmetric
eigensystems with a deterministic ordering, SVD-based rank decisions,
classical fixed-step Runge-Kutta integration and the Halton sequence.
Everything downstream (curvature, frames, variety checks) funnels its
numerics through this module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrationError

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
    used when differentiating curvature quantities (third derivatives of the
    metric).
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


def gradient(f, x, cfg=DEFAULT_STENCIL, step=None):
    """All four (or n) partials of a scalar/array field, stacked on axis 0."""
    x = np.asarray(x, dtype=float)
    return np.stack([central_diff(f, x, d, cfg, step=step) for d in range(x.size)])


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


def metric_jet(f_batch, x, cfg=DEFAULT_STENCIL):
    """Value, first and second partials of a field at x from one batched call.

    `f_batch` maps stacked points (N, 4) to stacked values (N, ...). It is
    called once, on the tensor product of cfg's central first-derivative
    stencil with itself: the points that nested `central_diff` calls touch
    (129 distinct at order 4). The 1D weights are contracted in the same
    nested order, so d1[p] = D_p f and d2[q, p] = D_q (D_p f), D_p being the
    first-derivative stencil along p (Fornberg, Math. Comp. 51, 1988).
    """
    h = cfg.step
    offsets, center, first, second = _jet_layout(cfg.order)
    w = np.asarray(_FD_STENCILS[cfg.order][1])
    values = np.asarray(f_batch(np.asarray(x, dtype=float) + h * offsets), dtype=float)
    d1 = np.tensordot(w, values[first], axes=(0, 1)) / h
    inner = np.tensordot(w, values[second], axes=(0, 3)) / h
    d2 = np.tensordot(w, inner, axes=(0, 1)) / h
    # copy: a view would keep every stencil value alive with the result
    return values[center].copy(), d1, d2


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues ascending; `vectors[:, k]` belongs to `values[k]`.

    Each vector is normalized and sign-fixed: its first component of largest
    magnitude is positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors):
    out = vectors.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))  # ties resolve to the lowest index
        if out[lead, k] < 0.0:
            out[:, k] = -out[:, k]
    return out


def sym_eigen(A, dim=None):
    """Deterministic symmetric eigendecomposition for 3x3/4x4/6x6 matrices."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n not in (3, 4, 6):
        raise InputError(f"matrix dimension must be 3, 4 or 6, got {n}")
    if dim is not None and n != dim:
        raise InputError(f"expected dimension {dim}, got {n}")
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.linalg.norm(A - A.T) > 1e-12 * scale:
        raise InputError("matrix is not symmetric within 1e-12 (relative)")
    values, vectors = np.linalg.eigh(0.5 * (A + A.T))
    return EigenResult(values=values, vectors=_fix_signs(vectors))


@dataclass(frozen=True)
class RankResult:
    singular_values: np.ndarray
    rank: int
    rtol: float
    atol: float


def numerical_rank(A, rtol=1e-8, atol=1e-12):
    """Rank = number of singular values above max(atol, rtol * largest)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise InputError(f"expected a matrix, got ndim {A.ndim}")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return RankResult(singular_values=sv, rank=0, rtol=rtol, atol=atol)
    cut = max(atol, rtol * sv[0])
    return RankResult(singular_values=sv, rank=int(np.sum(sv > cut)), rtol=rtol, atol=atol)


def rk4_step(rhs, t, y, h):
    """One classical Runge-Kutta step."""
    k1 = np.asarray(rhs(t, y), dtype=float)
    k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(rhs, y0, t0, t1, steps):
    """Fixed-step RK4 over [t0, t1]; returns (times, states).

    states[k] is the solution at times[k]; a non-finite state aborts with
    IntegrationError carrying the last valid parameter value.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    ts = t0 + (t1 - t0) * np.arange(steps + 1) / steps
    ys = np.empty((steps + 1, y.size))
    ys[0] = y
    h = (t1 - t0) / steps
    for k in range(steps):
        y = rk4_step(rhs, ts[k], y, h)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={ts[k + 1]}", t_last=ts[k])
        ys[k + 1] = y
    return ts, ys


_HALTON_BASES = (2, 3, 5, 7)


def halton(count, seed=None):
    """First `count` points of the 4-d Halton sequence, in [0, 1)^4.

    Coordinate k is the radical inverse of the point index in the k-th prime
    base. With a `seed`, the digits of each base are scrambled by random
    permutations (Owen, arXiv:1706.02808): one shuffle of range(b) per digit
    that a double can resolve, ceil(54 / log2 b) - 1 of them, drawn from the
    child generator that np.random.default_rng(seed) spawns. These are the
    draws scipy.stats.qmc.Halton(d=4, scramble=True,
    seed=np.random.default_rng(seed)) makes, so both give the same points.
    """
    index = np.arange(count, dtype=np.int64)
    rng = None if seed is None else np.random.default_rng(seed).spawn(1)[0]
    out = np.zeros((count, len(_HALTON_BASES)))
    for k, b in enumerate(_HALTON_BASES):
        digits = math.ceil(54 / math.log2(b)) - 1
        if rng is None:
            perms = np.tile(np.arange(b), (digits, 1))
        else:
            perms = np.array([rng.permutation(b) for _ in range(digits)])
        q, scale = index.copy(), 1.0 / b
        for perm in perms:
            out[:, k] += perm[q % b] * scale
            scale /= b
            q //= b
    return out
