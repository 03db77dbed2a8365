import itertools

import numpy as np
import pytest

import curv4
from curv4 import chart as chart_module
from curv4 import frames as frames_module
from curv4 import tensor4
from curv4.chart import _checked_inverse
from curv4.errors import InconsistencyError, InputError, PreconditionError
from curv4.numerics import sym_eigen
from curv4.tensor4 import (
    _STAR,
    PAIR_INDICES,
    PAIRS,
    bivector_frame,
    curvature_symmetrize,
    curvature_tensor,
    frame_components,
    kulkarni_nomizu,
    pair_entries,
    ricci_contract,
    sd_split,
    weyl_from_curv,
)


def on_pairs(T):
    """The pair operator [P, Q] = T_ijkl, P = (i, j), Q = (k, l), of a
    4-index array T."""
    i, j = PAIR_INDICES[:, :, None]
    k, l = PAIR_INDICES[:, None, :]
    return T[..., i, j, k, l]


def constant_curvature_tensor(g, K=1.0):
    """R_ijkl = K (g_ik g_jl - g_il g_jk), sectional curvature K, on the pairs."""
    return on_pairs(K * (np.einsum("ik,jl->ijkl", g, g) - np.einsum("il,jk->ijkl", g, g)))


def random_algebraic_curvature(seed):
    """Sums of Kulkarni-Nomizu squares have all curvature symmetries."""
    rng = np.random.default_rng(seed)
    R = np.zeros((6, 6))
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        R += kulkarni_nomizu(a + a.T, b + b.T)
    return R


def product_s2xs2_curvature(k1=1.0, k2=1.0):
    """Orthonormal-frame curvature of S2(k1) x S2(k2): two sectional blocks."""
    R = np.zeros((4, 4, 4, 4))
    for (i, j, k) in ((0, 1, k1), (2, 3, k2)):
        R[i, j, i, j] = R[j, i, j, i] = k
        R[i, j, j, i] = R[j, i, i, j] = -k
    return on_pairs(R)


def test_metric4_validation():
    # the metric checks of every curvature batch, on one point
    x = np.zeros((1, 4))
    g = np.diag([1.0, 4.0, 1.0, 1.0])
    g_inv = _checked_inverse(x, g[None])[0]
    assert np.max(np.abs(g @ g_inv - np.eye(4))) < 1e-10
    with pytest.raises(InputError, match="not symmetric"):
        _checked_inverse(x, np.arange(16.0).reshape(1, 4, 4))
    with pytest.raises(InputError, match="not positive definite"):
        _checked_inverse(x, np.diag([1.0, -1.0, 1.0, 1.0])[None])


def test_curvature_symmetrize_fixed_point():
    R = constant_curvature_tensor(np.eye(4))
    assert np.max(np.abs(curvature_symmetrize(R) - R)) < 1e-14


def test_curvature_symmetrize_removes_noise():
    R = constant_curvature_tensor(np.eye(4))
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((6, 6)) * 1e-8
    anti = noise - noise.T  # antisymmetric under the pair swap: killed
    assert np.max(np.abs(curvature_symmetrize(R + anti) - R)) < 1e-7
    assert np.all(curvature_symmetrize(np.zeros((6, 6))) == 0.0)
    # over leading axes, each slice is projected on its own
    stack = np.stack([R + anti, R, np.zeros((6, 6))])
    assert np.array_equal(
        curvature_symmetrize(stack), np.stack([curvature_symmetrize(T) for T in stack])
    )


def test_projection_gate_rejects_a_far_projection(monkeypatch):
    # raw curvature farther than 1e-3 * ||raw|| from its projection raises,
    # naming the point; a faithful projection passes the same point
    chart = curv4.build_example("s2xs2:1,2")
    x = curv4.sample_points(chart, count=1, seed=0)
    chart_module.curvature_batch(chart, x)
    monkeypatch.setattr(chart_module, "curvature_symmetrize", lambda raw: 0.99 * raw)
    with pytest.raises(InconsistencyError, match=r"projection distance .* at \["):
        chart_module.curvature_batch(chart, x)


def test_curvature_symmetrize_satisfies_the_symmetries():
    bad = np.zeros((6, 6))
    bad[0, 5] = 1.0  # R_0123 alone: violates the pair swap and Bianchi
    P = curvature_symmetrize(bad)
    assert np.array_equal(P, P.T)
    R = curvature_tensor(P)
    assert np.abs(R).max() > 0.0
    assert np.array_equal(R, -np.einsum("jikl->ijkl", R))
    assert np.array_equal(R, -np.einsum("ijlk->ijkl", R))
    assert np.max(np.abs(R - np.einsum("klij->ijkl", R))) < 1e-15
    bianchi = R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)
    assert np.max(np.abs(bianchi)) < 1e-15
    assert np.max(np.abs(curvature_symmetrize(P) - P)) < 1e-15


def test_ricci_contract_constant_curvature():
    g = np.eye(4)
    ric, s = ricci_contract(constant_curvature_tensor(g), g)
    assert np.max(np.abs(ric - 3.0 * np.eye(4))) < 1e-12
    assert s == pytest.approx(12.0, abs=1e-12)
    ric0, s0 = ricci_contract(np.zeros((6, 6)), g)
    assert np.all(ric0 == 0.0) and s0 == 0.0
    # over leading axes: sectional curvature K has ric = 3 K g and s = 12 K
    G = np.stack([g, 2.0 * g])
    R = np.stack([constant_curvature_tensor(G[0], 1.0), constant_curvature_tensor(G[1], 0.5)])
    ric, s = ricci_contract(R, np.linalg.inv(G))
    assert np.max(np.abs(ric - np.stack([3.0 * G[0], 1.5 * G[1]]))) < 1e-12
    assert s == pytest.approx([12.0, 6.0], abs=1e-12)


def test_kulkarni_nomizu_identities():
    g = np.eye(4)
    assert np.max(np.abs(kulkarni_nomizu(g, g / 2) - constant_curvature_tensor(g))) == 0.0
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = rng.standard_normal((4, 4))
    b = b + b.T
    assert np.max(np.abs(kulkarni_nomizu(a, b) - kulkarni_nomizu(b, a))) < 1e-12
    assert np.all(kulkarni_nomizu(np.zeros((4, 4)), b) == 0.0)


def weyl(R, g):
    """weyl_from_curv with ric and s contracted from R."""
    ric, s = ricci_contract(R, np.linalg.inv(g))
    return weyl_from_curv(g, R, ric, s)


def test_weyl_constant_curvature_vanishes():
    g = np.eye(4)
    assert np.linalg.norm(weyl(constant_curvature_tensor(g, 2.5), g)) < 1e-12


def test_weyl_traceless_for_generic_curvature():
    for seed in range(4):
        R = random_algebraic_curvature(seed)
        W = weyl(R, np.eye(4))
        ric, _ = ricci_contract(W, np.eye(4))
        assert np.linalg.norm(ric) < 1e-9 * np.linalg.norm(R)


def test_weyl_s2xs2_sigma_values():
    # S2(1) x S2(1): sigma_12 = 2/3, sigma_13 = sigma_14 = -1/3
    R = product_s2xs2_curvature()
    ric, s = ricci_contract(R, np.eye(4))
    assert np.max(np.abs(ric - np.eye(4))) < 1e-12 and s == pytest.approx(4.0)
    W = curvature_tensor(weyl_from_curv(np.eye(4), R, ric, s))
    assert W[0, 1, 0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert W[0, 2, 0, 2] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert W[0, 3, 0, 3] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_hodge_star():
    # the star sd_split reads: a symmetric involution with zero trace
    star = _STAR
    assert np.array_equal(star, star.T)
    assert np.array_equal(star @ star, np.eye(6))
    assert np.trace(star) == 0.0
    e12 = np.zeros(6)
    e12[0] = 1.0
    out = star @ e12
    assert out[5] == 1.0 and np.count_nonzero(out) == 1  # e1^e2 -> e3^e4


def test_sd_split_zero_and_traces():
    E = bivector_frame(np.eye(4))
    split = sd_split(frame_components(np.zeros((6, 6)), E), 1)
    assert np.all(split.w_plus == 0.0) and np.all(split.w_minus == 0.0)
    for seed in range(4):
        W = weyl(random_algebraic_curvature(seed), np.eye(4))
        split = sd_split(frame_components(W, E), 1)
        tp, tm = np.trace(split.w_plus), np.trace(split.w_minus)
        assert abs(tp) < 1e-10 * max(1.0, np.linalg.norm(W))
        assert abs(tm) < 1e-10 * max(1.0, np.linalg.norm(W))
        assert np.max(np.abs(split.w_plus - split.w_plus.T)) < 1e-12


def test_sd_split_s2xs2_spectrum():
    W = weyl(product_s2xs2_curvature(), np.eye(4))
    split = sd_split(frame_components(W, bivector_frame(np.eye(4))), 1)
    spec = sym_eigen(split.w_plus).values
    assert spec == pytest.approx([-1 / 3, -1 / 3, 2 / 3], abs=1e-12)
    assert split.sigma[0, 1] == pytest.approx(2 / 3)
    assert split.sigma[2, 3] == pytest.approx(2 / 3)
    assert split.sigma[0, 2] == pytest.approx(-1 / 3)


def test_sd_split_orientation_swap():
    # flipping one frame vector swaps the roles of L+ and L-
    W = weyl(random_algebraic_curvature(2), np.eye(4))
    E = np.eye(4)
    F = E.copy()
    F[:, 3] = -F[:, 3]
    a = sd_split(frame_components(W, bivector_frame(E)), 1)
    b = sd_split(frame_components(W, bivector_frame(F)), -1)
    assert sym_eigen(a.w_plus).values == pytest.approx(sym_eigen(b.w_plus).values, abs=1e-12)


def test_sd_split_rejects_nonweyl():
    with pytest.raises(PreconditionError):
        sd_split(constant_curvature_tensor(np.eye(4)), 1)
    # no Ricci contraction, but not pair symmetric: e1^e2 -> e3^e4 only
    A = np.zeros((6, 6))
    A[0, 5] = 1.0
    with pytest.raises(InconsistencyError):
        sd_split(A, 1)


def test_frame_components_rotation():
    # components transform correctly under an orthogonal change of frame
    R = random_algebraic_curvature(4)
    th = 0.3
    E = np.eye(4)
    E[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    Rf = curvature_tensor(frame_components(R, bivector_frame(E)))
    R = curvature_tensor(R)
    assert Rf[2, 3, 2, 3] == pytest.approx(R[2, 3, 2, 3], abs=1e-12)
    v = E[:, 0]
    assert Rf[0, 1, 0, 1] == pytest.approx(
        np.einsum("ijkl,i,j,k,l->", R, v, E[:, 1], v, E[:, 1]), abs=1e-12
    )


def test_frame_components_and_bivector_gather_match_loop_references():
    # frame_components against the tensordot chain on the 4-index tensor,
    # on a pair operator and on a stack of them behind a derivative axis,
    # and the pair gathers and the star against their loops
    rng = np.random.default_rng(8)
    E = rng.normal(size=(4, 4))
    L = bivector_frame(E)
    for shape in ((6, 6), (4, 6, 6)):
        T = rng.normal(size=shape)
        ref = curvature_tensor(T)
        for _ in range(4):
            ref = np.tensordot(ref, E, axes=(ref.ndim - 4, 0))
        got = frame_components(T, L if len(shape) == 2 else L[None])
        assert np.allclose(got, on_pairs(ref), rtol=1e-14, atol=1e-14)
    M = rng.normal(size=(6, 6))
    A = np.zeros((4, 4, 4, 4))
    for p, (i, j) in enumerate(PAIRS):
        for q, (k, l) in enumerate(PAIRS):
            A[i, j, k, l] = A[j, i, l, k] = M[p, q]
            A[j, i, k, l] = A[i, j, l, k] = -M[p, q]
    assert np.array_equal(curvature_tensor(M), A)
    assert np.array_equal(pair_entries(M, *np.ogrid[:4, :4, :4, :4]), A)
    for p, (i, j) in enumerate(PAIRS):
        for a, (b, c) in enumerate(PAIRS):
            minor = E[i, b] * E[j, c] - E[i, c] * E[j, b]
            assert L[p, a] == minor
    star = np.zeros((6, 6))
    for p, (i, j) in enumerate(PAIRS):
        k, l = sorted(set(range(4)) - {i, j})
        star[PAIRS.index((k, l)), p] = np.linalg.det(np.eye(4)[[i, j, k, l]])
    assert np.array_equal(_STAR, star)


def test_index_tables_match_itertools():
    # each table against the itertools enumeration it replaces
    others = [tuple(sorted(set(range(4)) - set(t))) for t in itertools.permutations(range(4), 2)]
    assert tensor4.ORDERED_PAIRS.T.tolist() == [
        [*p, *o] for p, o in zip(itertools.permutations(range(4), 2), others)
    ]
    assert tensor4.TRIPLES.T.tolist() == [list(t) for t in itertools.permutations(range(4), 3)]
    assert tensor4.PAIR_INDICES.T.tolist() == [list(p) for p in itertools.combinations(range(4), 2)]
    assert tensor4.MINOR_COLUMNS.tolist() == [list(c) for c in itertools.combinations(range(7), 4)]
    for l in range(4):
        assert tensor4.OTHERS[:, l].tolist() == sorted(set(range(4)) - {l})
        # the first even permutation (i, j, k, l), lexicographic
        even = [p for p in itertools.permutations(range(4)) if p[3] == l]
        even = [p for p in even if np.linalg.det(np.eye(4)[list(p)]) > 0]
        assert tuple(tensor4.CYCLIC[:, l]) == even[0][:3]
        for i in range(4):
            column = tensor4.PAIR_COLUMN[i, l]
            assert column == (PAIRS.index(tuple(sorted((i, l)))) if i != l else len(PAIRS))
            assert tensor4.PAIR_SIGN[i, l] == (i < l) - (i > l)
    assert np.array_equal(tensor4.OFF_DIAGONAL, ~np.eye(4, dtype=bool))


@pytest.mark.parametrize(
    "name",
    [
        "PAIR_INDICES",
        "PAIR_COLUMN",
        "PAIR_SIGN",
        "PAIR_ROWS",
        "PAIR_COLS",
        "ORDERED_PAIRS",
        "TRIPLES",
        "OTHERS",
        "CYCLIC",
        "OFF_DIAGONAL",
        "MINOR_COLUMNS",
    ],
)
def test_index_tables_are_read_only(name):
    # every module gathers through the same arrays: one write would move
    # every identity at once
    table = getattr(tensor4, name)
    with pytest.raises(ValueError, match="read-only"):
        table[(0,) * table.ndim] = 1


def test_the_running_path_calls_the_tensor4_names(monkeypatch):
    # the benchmark's trace counts calls through chart.curvature_symmetrize
    # and frames.sd_split: a report projects its one batch once, and a frame
    # projects its own curvature once and splits W once
    calls = []
    for module, name in ((chart_module, "curvature_symmetrize"), (frames_module, "sd_split")):
        made = getattr(module, name)

        def counted(*args, made=made, name=name):
            calls.append(name)
            return made(*args)

        monkeypatch.setattr(module, name, counted)
    chart = curv4.build_example("randflat:0")
    report = curv4.harmonicity_report(chart, count=16, seed=0)
    assert calls == ["curvature_symmetrize"]
    calls.clear()
    curv4.extract_frame(chart, report.points[0])
    assert calls == ["curvature_symmetrize", "sd_split"]
