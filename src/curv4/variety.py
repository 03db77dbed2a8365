"""The polynomial variety cut out by the frame identities.

Points are tuples (F, sigma, lambda, s) of frame data. Membership in the
variety means: the linear relations

    lam_1 + lam_2 + lam_3 + lam_4 = 0,
    sigma_ij = sigma_ji,   sigma_ij = sigma_kl,
    sigma_ij + sigma_ik + sigma_il = 0,

the quadratic-times-quadratic relations

    H_ji Z_j = -H_ij Z_i    for all i != j,

with H_ij = F_kl F_lj + F_lk F_kj - F_kj F_lj ({i,j,k,l} = {1,2,3,4}) and
Z_l the cyclic sum (lam_i - lam_j) sigma_ij + (lam_j - lam_k) sigma_jk
+ (lam_k - lam_i) sigma_ki over an even permutation (i,j,k,l), and the rank
bound rank(fsp_matrix(H)) <= 3.

All arrays here are 0-based; names keep the 1-based subscripts of the
identities they implement.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import numerical_rank

# even permutations of (0,1,2,3), lexicographic
EVEN_PERMS = tuple(
    p
    for p in itertools.permutations(range(4))
    if sum(1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b]) % 2 == 0
)
assert len(EVEN_PERMS) == 12

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_COL = {frozenset(p): c for c, p in enumerate(_PAIRS)}

# canonical even permutation (i, j, k, l) for each trailing index l;
# the three even choices differ by a cyclic rotation of (i, j, k), under
# which the Z_l sum is invariant
_CANON_PERM = {l: next(p for p in EVEN_PERMS if p[3] == l) for l in range(4)}


def h_components(F):
    """H_ij = F_kl F_lj + F_lk F_kj - F_kj F_lj, {i,j,k,l} = {1,2,3,4}.

    Symmetric under k <-> l, so the complement pair needs no ordering.
    """
    F = np.asarray(F, dtype=float)
    H = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            k, l = sorted(set(range(4)) - {i, j})
            H[i, j] = F[k, l] * F[l, j] + F[l, k] * F[k, j] - F[k, j] * F[l, j]
    return H


def z_components(sigma, lam):
    """Z_l = (lam_i - lam_j) s_ij + (lam_j - lam_k) s_jk + (lam_k - lam_i) s_ki
    for (i, j, k, l) an even permutation of (1, 2, 3, 4)."""
    sigma = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    Z = np.zeros(4)
    for l in range(4):
        i, j, k = _CANON_PERM[l][:3]
        Z[l] = (
            (lam[i] - lam[j]) * sigma[i, j]
            + (lam[j] - lam[k]) * sigma[j, k]
            + (lam[k] - lam[i]) * sigma[k, i]
        )
    return Z


def fsp_matrix(H):
    """The 4 x 7 matrix whose rank must not exceed 3.

    Row i carries H_ij in the column of the unordered pair {i, j} (pairs
    ordered 12, 13, 14, 23, 24, 34), plus a trailing column of ones.
    """
    H = np.asarray(H, dtype=float)
    M = np.zeros((4, 7))
    for i in range(4):
        for j in range(4):
            if i != j:
                M[i, _PAIR_COL[frozenset((i, j))]] = H[i, j]
        M[i, 6] = 1.0
    return M


def _check_shapes(F, sigma, lam):
    F = np.asarray(F, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if F.shape != (4, 4) or sigma.shape != (4, 4) or lam.shape != (4,):
        raise InputError("expected F (4,4), sigma (4,4), lam (4,)")
    if np.max(np.abs(np.diag(F))) > 0.0 or np.max(np.abs(np.diag(sigma))) > 0.0:
        raise InputError("F and sigma must have zero diagonal")
    return F, sigma, lam


@dataclass(frozen=True)
class VarietyPoint:
    """A candidate point (F, sigma, lam, s) of the variety."""

    F: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        F, sigma, lam = _check_shapes(self.F, self.sigma, self.lam)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "s", float(self.s))

    @property
    def H(self):
        return h_components(self.F)

    @property
    def Z(self):
        return z_components(self.sigma, self.lam)

    def normalized(self):
        """Rescale all components by one common factor so that the joint
        euclidean norm of (F, sigma) becomes 1; membership is preserved
        because every defining equation is homogeneous."""
        scale = float(np.sqrt(np.sum(self.F**2) + np.sum(self.sigma**2)))
        if scale == 0.0:
            return self
        return VarietyPoint(
            self.F / scale, self.sigma / scale, self.lam / scale, self.s / scale
        )

    def scaled(self, t):
        """The weighted rescaling (sqrt(t) F, t sigma, t lam, t s), t > 0.

        It matches a metric rescaling g -> g/t, under which H picks up the
        factor t and Z the factor t^2; membership is preserved.
        """
        if t <= 0.0:
            raise InputError("scale factor must be positive")
        return VarietyPoint(
            np.sqrt(t) * self.F, t * self.sigma, t * self.lam, t * self.s
        )


def from_frame(frame):
    """Project a RicciFrame onto its variety data, symmetrizing sigma."""
    sig = 0.5 * (frame.sigma + frame.sigma.T)
    np.fill_diagonal(sig, 0.0)
    F = frame.F.copy()
    np.fill_diagonal(F, 0.0)
    return VarietyPoint(F=F, sigma=sig, lam=frame.lam.copy(), s=frame.s)


def permute_point(point, perm):
    """Relabel the frame indices by perm (new index a carries old perm[a]).

    The defining residuals are invariant under any relabeling: eq1 and fsp
    shuffle rows/columns, and the fsi terms at worst change sign with the
    orientation.
    """
    perm = list(perm)
    if sorted(perm) != [0, 1, 2, 3]:
        raise InputError(f"not a permutation of 0..3: {perm!r}")
    ix = np.ix_(perm, perm)
    return VarietyPoint(
        F=point.F[ix], sigma=point.sigma[ix], lam=point.lam[perm], s=point.s
    )


@dataclass(frozen=True)
class MembershipReport:
    """Residuals of one candidate point against the defining equations.

    rows holds the named residuals: lam sum, sigma symmetry, pairings and
    row sums under 'eq1.*'; the bilinear identity under 'fsi'; the scaled
    fourth singular value of the rank matrix under 'fsp.sv4'. The discrete
    rank uses the default numerical-rank thresholds and may exceed 3 on
    noisy data that still passes at the requested tolerance.
    """

    point: VarietyPoint
    rows: dict
    rank: int
    tol: float

    @property
    def eq1_residual(self):
        return max(
            self.rows["eq1.lam"], self.rows["eq1.sym"], self.rows["eq1.pair"], self.rows["eq1.row"]
        )

    @property
    def fsi_residual(self):
        return self.rows["fsi"]

    @property
    def fsp_residual(self):
        return self.rows["fsp.sv4"]

    @property
    def total(self):
        return self.eq1_residual + self.fsi_residual + self.fsp_residual

    @property
    def passed(self):
        return bool(
            self.eq1_residual <= self.tol
            and self.fsi_residual <= self.tol
            and self.fsp_residual <= self.tol
        )


def system_residuals(point, tol=1e-6):
    """Evaluate every defining equation of the variety at the point."""
    sig, lam = point.sigma, point.lam
    eq1_lam = abs(float(np.sum(lam)))
    eq1_sym = float(np.max(np.abs(sig - sig.T)))
    eq1_pair = 0.0
    for (i, j) in ((0, 1), (0, 2), (0, 3)):
        k, l = sorted(set(range(4)) - {i, j})
        eq1_pair = max(eq1_pair, abs(sig[i, j] - sig[k, l]))
    eq1_row = float(np.max(np.abs(np.sum(sig, axis=1))))

    H, Z = point.H, point.Z
    fsi = max(
        abs(H[j, i] * Z[j] + H[i, j] * Z[i])
        for i in range(4)
        for j in range(i + 1, 4)
    )

    M = fsp_matrix(H)
    sv = np.linalg.svd(M, compute_uv=False)
    fsp_sv4 = float(sv[3] / max(1.0, sv[0]))
    rank = numerical_rank(M).rank

    rows = {
        "eq1.lam": eq1_lam,
        "eq1.sym": eq1_sym,
        "eq1.pair": eq1_pair,
        "eq1.row": eq1_row,
        "fsi": float(fsi),
        "fsp.sv4": fsp_sv4,
        "zje": abs(float(np.sum(Z))),
    }
    return MembershipReport(point=point, rows=rows, rank=rank, tol=tol)


def product_sigma_point():
    """The F = 0 point carrying the sigma/lambda pattern of a product of
    two surfaces of Gauss curvatures 1 and 2 (zeros-with-product-sigma)."""
    sig = np.full((4, 4), -0.5)
    np.fill_diagonal(sig, 0.0)
    sig[0, 1] = sig[1, 0] = sig[2, 3] = sig[3, 2] = 1.0
    lam = np.array([-0.5, -0.5, 0.5, 0.5])
    return VarietyPoint(F=np.zeros((4, 4)), sigma=sig, lam=lam, s=6.0)


NAMED_POINTS = {"zeros-with-product-sigma": product_sigma_point}

_OFFDIAG = [(i, j) for i in range(4) for j in range(4) if i != j]


def _null_space(A):
    """Orthonormal basis of the null space of A, the right singular vectors
    whose singular values are not above max(M, N) * eps * s_max (the rank
    rule of scipy.linalg.null_space, whose bits it reproduces on the
    matrices below).

    The basis is returned row-major, the layout scipy's transpose of its
    column-major vh has, so that products with it round the same way.
    """
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(float).eps * max(A.shape)
    return np.ascontiguousarray(vh[int(np.sum(s > tol)) :].T)


# eq1 on sigma in the coordinates (s12, s13, s14, s23, s24, s34): the
# three pairings, then the four row sums
_SIGMA_EQ1 = np.array(
    [
        [1, 0, 0, 0, 0, -1],
        [0, 1, 0, 0, -1, 0],
        [0, 0, 1, -1, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ],
    dtype=float,
)


def _sigma_kernel():
    """Orthonormal basis of the sigma components allowed by eq1, in the
    coordinates (s12, s13, s14, s23, s24, s34)."""
    return _null_space(_SIGMA_EQ1)


_LAM_KERNEL = _null_space(np.ones((1, 4)))


def _sigma_from_six(six):
    sig = np.zeros((4, 4))
    for c, (i, j) in enumerate(_PAIRS):
        sig[i, j] = sig[j, i] = six[c]
    return sig


def _assemble(params, sig_kernel):
    F = np.zeros((4, 4))
    for c, (i, j) in enumerate(_OFFDIAG):
        F[i, j] = params[c]
    sig = _sigma_from_six(sig_kernel @ params[12 : 12 + sig_kernel.shape[1]])
    lam = _LAM_KERNEL @ params[12 + sig_kernel.shape[1] :]
    return VarietyPoint(F=F, sigma=sig, lam=lam, s=0.0)


def _polynomial_residuals(point):
    """fsi terms and all 4 x 4 minors of the rank matrix, flattened."""
    H, Z = point.H, point.Z
    out = [
        H[j, i] * Z[j] + H[i, j] * Z[i] for i in range(4) for j in range(i + 1, 4)
    ]
    M = fsp_matrix(H)
    for cols in itertools.combinations(range(7), 4):
        out.append(float(np.linalg.det(M[:, cols])))
    return np.array(out)


def least_squares(fun, x0, **kwargs):
    """scipy.optimize.least_squares, imported on the first call.

    The root search is the one use of scipy in the package, so importing
    curv4 loads numpy alone; the first 'full' draw pays scipy's import.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(fun, x0, **kwargs)


# membership tolerance a full draw must meet before it is accepted
SAMPLE_TOL = 1e-6


def sample_variety(seed=0, count=8, constraint_mode="full"):
    """Draw points satisfying the defining equations.

    'linear-only' enforces just the lam/sigma linear relations (F free);
    'full' additionally polishes (F, sigma, lam) onto the bilinear and
    rank equations with a least-squares root search (the trust-region
    reflective method through the module's least_squares, which imports
    scipy on its first call), capped at 1000 residual evaluations per
    attempt, retrying with a smaller initial F when a draw does not
    converge below SAMPLE_TOL. It stops on small steps or residual changes,
    not on a small gradient, which vanishes before the residuals do near
    these roots. Draws are the same in every process for a given seed;
    MINPACK's 'lm' steps from the same start can differ between fresh
    processes.
    """
    if constraint_mode not in ("linear-only", "full"):
        raise InputError(f"unknown constraint mode: {constraint_mode!r}")
    rng = np.random.default_rng(seed)
    sig_kernel = _sigma_kernel()
    n_params = 12 + sig_kernel.shape[1] + _LAM_KERNEL.shape[1]
    points = []
    for _ in range(count):
        point = None
        for damping in (1.0, 0.3, 0.1, 0.03, 0.01, 0.003):
            params = rng.standard_normal(n_params)
            params[:12] *= damping
            if constraint_mode == "linear-only":
                point = _assemble(params, sig_kernel)
                break
            sol = least_squares(
                lambda p: _polynomial_residuals(_assemble(p, sig_kernel)),
                params,
                method="trf",
                xtol=1e-15,
                ftol=1e-15,
                gtol=None,
                max_nfev=1000,
            )
            candidate = _assemble(sol.x, sig_kernel)
            report = system_residuals(candidate, SAMPLE_TOL)
            if report.passed:
                point = candidate
                break
        if point is None:
            raise InputError(
                f"variety sampling did not converge below {SAMPLE_TOL} (seed {seed})"
            )
        points.append(point)
    return points


CSV_COLUMNS = (
    [f"F{i + 1}{j + 1}" for (i, j) in _OFFDIAG]
    + [f"sigma{i + 1}{j + 1}" for (i, j) in _PAIRS]
    + ["lambda1", "lambda2", "lambda3", "lambda4", "s"]
    + ["eq1_residual", "fsi_residual", "fsp_sv4", "passed"]
)


def export_csv(points, fh, tol=1e-6, note=None):
    """Write points with their membership residuals as CSV.

    A leading comment line records the provenance note; the next row is
    the header. fh is any text file object.
    """
    if note:
        fh.write(f"# {note}\n")
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for p in points:
        rep = system_residuals(p, tol)
        row = (
            [repr(float(p.F[i, j])) for (i, j) in _OFFDIAG]
            + [repr(float(p.sigma[i, j])) for (i, j) in _PAIRS]
            + [repr(float(v)) for v in p.lam]
            + [repr(float(p.s))]
            + [
                repr(rep.eq1_residual),
                repr(rep.fsi_residual),
                repr(rep.fsp_residual),
                str(int(rep.passed)),
            ]
        )
        writer.writerow(row)
