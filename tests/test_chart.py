import dataclasses
import gc
import weakref

import numpy as np
import pytest

import curv4
import curv4.chart as chart_module
from curv4.chart import (
    DEFAULT_TOLS,
    MetricChart,
    christoffel,
    codazzi_residual,
    contracted_bianchi_residual,
    curvature_at,
    div_riemann_norm,
    div_weyl_norm,
    harmonicity_report,
    scalar_gradient_norm,
    sample_points,
)
from curv4.errors import DomainError, InconsistencyError, InputError
from curv4.numerics import Jet, StencilConfig
from tests.conftest import ric_eigenvalues

UNIT_BOX = np.array([[-1.0, 1.0]] * 4)
REGISTRY_NAMES = ["s4", "h4", "s2xs2:1,2", "rxs3", "kpc", "bump:0.1", "randflat:0"]


def flat_chart():
    return MetricChart(name="flat", box=UNIT_BOX, eval_fn=lambda x: np.eye(4))


def test_chart_validation():
    with pytest.raises(InputError):
        MetricChart(name="bad-box", box=np.array([[0.0, 0.0]] * 4), eval_fn=lambda x: np.eye(4))
    with pytest.raises(InputError):
        MetricChart(name="not-pd", box=UNIT_BOX, eval_fn=lambda x: np.diag([1.0, -1, 1, 1]))
    with pytest.raises(InputError):
        MetricChart(name="not-sym", box=UNIT_BOX, eval_fn=lambda x: np.triu(np.ones((4, 4))))


def test_validation_rejects_a_varying_adapted_frame():
    # frame derivatives take constant adapted directions for granted, so a
    # frame that turns over the box is refused; a constant frame given with
    # other column lengths is the same frame and passes
    def turning(x):
        c, s = np.cos(x[0]), np.sin(x[0])
        return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])

    def chart(name, frame):
        return MetricChart(
            name=name, box=UNIT_BOX, eval_fn=lambda x: np.eye(4), adapted_frame_fn=frame
        )

    with pytest.raises(InputError, match="adapted frame directions vary"):
        chart("turning", turning)
    with pytest.raises(InputError, match="adapted frame has shape"):
        chart("short", lambda x: np.eye(3))
    chart("scaled", lambda x: (1.0 + x[0] ** 2) * np.eye(4))


def conformal(phi):
    """Batched eval_fn and jet_fn of e^phi(x) delta, phi written against numpy
    operations, so that it takes arrays and Jets alike."""

    def formula(x):
        return np.exp(phi(x))[..., None, None] * np.eye(4)

    return formula, lambda x, degree: formula(Jet.variables(x, degree)).coef


def test_validation_rejects_inconsistent_evaluators():
    formula, jet_fn = conformal(lambda x: 0.2 * x[..., 0])
    _, scaled_jet = conformal(lambda x: 0.2 * x[..., 0] + 1e-3)

    def steeper_jet(x, degree):
        coef = jet_fn(x, degree)
        coef[..., 1] += 0.01  # the linear term in x0: value kept, D_0 g off by 0.01
        return coef

    def build(jet):
        return MetricChart(name="conf", box=UNIT_BOX, eval_fn=formula, jet_fn=jet, batched=True)

    assert build(jet_fn).jet_fn is jet_fn
    with pytest.raises(InconsistencyError, match="jet_fn and eval_fn disagree"):
        build(scaled_jet)
    with pytest.raises(InconsistencyError, match="jet_fn derivative disagrees"):
        build(steeper_jet)
    # order-4 truncation error h^4 |D^5 g| / 30 is about 3e-5 at the first
    # probe (x0 = 0) for sin(100 x0) at h = 1e-3; order 6 is 4e-4 times that
    wavy, _ = conformal(lambda x: 0.1 * np.sin(100.0 * x[..., 0]))
    for batched in (True, False):
        with pytest.raises(InconsistencyError, match="order-4/order-6"):
            MetricChart(name="wavy", box=UNIT_BOX, eval_fn=wavy, batched=batched)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_validation_evaluates_each_probe_once(name):
    # five probes point by point, then one batch of the five probes for the
    # batched comparison together with the 8 stencils of the first probe (40
    # points), or those 40 points one by one, and one jet_fn call
    chart = curv4.build_example(name)
    for batched, stencil in ((True, [(45, 4)]), (False, [(4,)] * 40)):
        evals, jets = [], []

        def eval_fn(x):
            evals.append(np.shape(x))
            return chart.eval_fn(x)

        def jet_fn(x, degree):
            jets.append(np.shape(x))
            return chart.jet_fn(x, degree)

        dataclasses.replace(chart, eval_fn=eval_fn, jet_fn=jet_fn, batched=batched)
        assert evals == [(4,)] * 5 + stencil
        assert jets == [(5, 4)]


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_metric_norms_match_one_full_contraction(rank):
    # sqrt(g^a1b1 ... g^arbr T_a1..ar T_b1..br) at each of three points, with
    # a random symmetric positive-definite g^-1 per point
    rng = np.random.default_rng(rank)
    A = rng.normal(size=(3, 4, 4))
    g_inv = A @ np.swapaxes(A, 1, 2) + 4.0 * np.eye(4)
    T = rng.normal(size=(3,) + (4,) * rank)
    up, down = "abcde"[:rank], "fghij"[:rank]
    spec = ",".join(f"n{u}{d}" for u, d in zip(up, down)) + f",n{up},n{down}->n"
    expected = np.sqrt(np.einsum(spec, *[g_inv] * rank, T, T))
    assert np.allclose(chart_module._metric_norms(T, g_inv), expected, rtol=1e-13, atol=0.0)
    assert chart_module.metric_norm(T[1], g_inv[1]) == pytest.approx(expected[1], rel=1e-13)


def test_probe_points_are_drawn_once(monkeypatch):
    curv4.build_example("s4")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return curv4.numerics.halton(*args, **kwargs)

    monkeypatch.setattr(chart_module, "halton", counted)
    curv4.build_example("s4")
    curv4.build_example("kpc")
    assert calls == []


def test_eval_contains():
    ch = flat_chart()
    assert ch.contains([0, 0, 0, 0]) and not ch.contains([2, 0, 0, 0])
    with pytest.raises(DomainError):
        ch.eval([2.0, 0, 0, 0])
    with pytest.raises(InputError):
        ch.eval([0.0, 0.0])


def test_christoffel_flat():
    gm = christoffel(flat_chart(), np.zeros(4))
    assert np.max(np.abs(gm)) < 1e-12


def test_christoffel_polar_closed_form():
    # g = diag(1, x1^2, 1, 1): Gamma^1_22 = -x1, Gamma^2_12 = 1/x1
    ch = MetricChart(
        name="polar",
        box=np.array([[1.0, 3.0], [-1, 1], [-1, 1], [-1, 1]]),
        eval_fn=lambda x: np.diag([1.0, x[0] ** 2, 1.0, 1.0]),
    )
    gm = christoffel(ch, np.array([2.0, 0.0, 0.0, 0.0]))
    assert gm[0, 1, 1] == pytest.approx(-2.0, abs=1e-9)
    assert gm[1, 0, 1] == pytest.approx(0.5, abs=1e-9)
    assert np.max(np.abs(gm - np.einsum("kij->kji", gm))) < 1e-12


def test_christoffel_conformal_closed_form():
    # g = e^{2 x1} I: Gamma^1_11 = 1
    ch = MetricChart(
        name="conf", box=UNIT_BOX, eval_fn=lambda x: np.exp(2.0 * x[0]) * np.eye(4)
    )
    gm = christoffel(ch, np.array([0.25, 0.1, 0.0, 0.0]))
    assert gm[0, 0, 0] == pytest.approx(1.0, abs=1e-9)


def test_christoffel_domain_guard():
    ch = flat_chart()
    with pytest.raises(DomainError):
        christoffel(ch, np.array([0.9999, 0.0, 0.0, 0.0]))


def test_curvature_flat():
    e = curvature_at(flat_chart(), np.zeros(4))
    assert np.linalg.norm(e.R) < 1e-10
    assert abs(e.s) < 1e-10


def test_curvature_s4(s4_chart):
    for x in sample_points(s4_chart, count=3, seed=0):
        e = curvature_at(s4_chart, x)
        assert e.s == pytest.approx(12.0, abs=1e-6)
        assert np.linalg.norm(e.weyl) < 1e-6


def test_curvature_product_ric(s2xs2_chart):
    x = sample_points(s2xs2_chart, count=1, seed=0)[0]
    e = curvature_at(s2xs2_chart, x)
    assert ric_eigenvalues(e) == pytest.approx([1.0, 1.0, 2.0, 2.0], abs=1e-7)
    assert e.s == pytest.approx(6.0, abs=1e-7)


def test_order_convergence_s4(s4_chart):
    # order 2 -> 4 must improve the curvature error by >= 100x; the stencil
    # only runs on charts without an exact jet, so take the s4 metric alone
    x = np.array([0.21, -0.13, 0.05, 0.32])

    def err(order):
        chart = MetricChart(
            name="s4-fd",
            box=s4_chart.box,
            eval_fn=s4_chart.eval_fn,
            batched=True,
            stencil=StencilConfig(order=order),
        )
        return abs(curvature_at(chart, x).s - 12.0)

    assert err(2) / err(4) >= 100.0


def test_codazzi_residual_tiers(s4_chart, s2xs2_chart, bump_chart):
    x = sample_points(s4_chart, count=1, seed=1)[0]
    assert codazzi_residual(s4_chart, x) < 1e-5
    x = sample_points(s2xs2_chart, count=1, seed=1)[0]
    assert codazzi_residual(s2xs2_chart, x) < 1e-5
    # non-harmonic bump: large d Ric at x1 near 1
    x = np.array([1.0, 0.1, -0.2, 0.05])
    assert codazzi_residual(bump_chart, x) > 1e-2


def test_codazzi_equals_div_riemann(s2xs2_chart):
    # ||d Ric|| = ||div R|| pointwise for any metric
    charts = [s2xs2_chart, curv4.make_random_perturbed_flat(3)]
    for ch in charts:
        for x in sample_points(ch, count=3, seed=5):
            e = curvature_at(ch, x)
            a = codazzi_residual(ch, x)
            b = div_riemann_norm(ch, x)
            assert abs(a - b) <= 1e-6 * (1.0 + np.linalg.norm(e.R))


def test_contracted_bianchi_universal():
    assert contracted_bianchi_residual(flat_chart(), np.zeros(4)) < 1e-12
    ch = curv4.make_random_perturbed_flat(7)
    for x in sample_points(ch, count=3, seed=0):
        assert contracted_bianchi_residual(ch, x) < 1e-5


def test_contracted_bianchi_s4(s4_chart):
    x = sample_points(s4_chart, count=1, seed=2)[0]
    assert contracted_bianchi_residual(s4_chart, x) < 1e-5


def test_harmonicity_report_products(s2xs2_chart, rxs3_chart):
    for ch in (s2xs2_chart, rxs3_chart):
        rep = harmonicity_report(ch, count=6, seed=0)
        assert rep.harmonic
        assert all(v <= 1e-4 for v in rep.maxima.values())
        # s constant across samples (relative)
        assert rep.s_spread <= 1e-5 * max(1.0, np.max(np.abs(rep.s_values)))


def test_harmonicity_report_negative(bump_chart):
    rep = harmonicity_report(bump_chart, count=6, seed=0)
    assert not rep.harmonic
    assert rep.maxima["dvr"] > 1e-2
    assert rep.maxima["dvw.ds"] > 1e-2


def test_sample_points_deterministic():
    ch = flat_chart()
    a = sample_points(ch, count=8, seed=3)
    b = sample_points(ch, count=8, seed=3)
    assert np.array_equal(a, b)
    c = sample_points(ch, count=8, seed=4)
    assert not np.array_equal(a, c)
    # inside the 10%-shrunk box
    assert np.all(np.abs(a) <= 0.9 + 1e-12)
    with pytest.raises(InputError):
        sample_points(ch, count=0)
    # numpy integers are integers
    assert np.array_equal(sample_points(ch, count=np.int64(8), seed=np.int64(3)), a)


@pytest.mark.parametrize(
    "kwargs",
    [{"count": 2.5}, {"count": True}, {"count": "4"}, {"seed": -1}, {"seed": 1.5}, {"seed": None}],
)
def test_sample_count_and_seed_must_be_integers(kwargs):
    ch = flat_chart()
    with pytest.raises(InputError, match="must be an integer"):
        sample_points(ch, **kwargs)
    with pytest.raises(InputError, match="must be an integer"):
        harmonicity_report(ch, **kwargs)


def test_dropped_chart_is_freed_without_the_cyclic_gc():
    # no reference cycle: the chart goes with its last reference, without
    # waiting for the cyclic garbage collector
    gc.disable()
    try:
        ch = curv4.build_example("s4")
        curvature_at(ch, np.zeros(4))
        ref = weakref.ref(ch)
        del ch
        assert ref() is None
    finally:
        gc.enable()


def test_caller_tols_override_defaults(kpc_chart):
    # the caller's third tier wins over the default; the tier it leaves out
    # keeps its default, and no chart has tiers of its own
    assert harmonicity_report(kpc_chart, count=1, seed=0).tols == DEFAULT_TOLS
    rep = harmonicity_report(kpc_chart, count=1, seed=0, tols={"third": 2e-3})
    assert rep.tols == {"second": DEFAULT_TOLS["second"], "third": 2e-3}


@pytest.mark.parametrize(
    "tols, named",
    [
        ({"thrid": 10.0}, "unknown tolerance tier 'thrid'; tiers: second, third"),
        ({"third": float("nan")}, "tolerance 'third' must be a finite positive number, got nan"),
        ({"third": float("inf")}, "tolerance 'third'"),
        ({"second": -1}, "tolerance 'second' must be a finite positive number, got -1"),
        ({"second": 0.0}, "tolerance 'second'"),
        ({"third": True}, "tolerance 'third'"),
        ({"third": "1e-3"}, "tolerance 'third'"),
    ],
)
def test_report_rejects_bad_tols(tols, named):
    # a misspelt tier is not ignored, and no tolerance turns every verdict false
    with pytest.raises(InputError) as err:
        harmonicity_report(flat_chart(), count=1, seed=0, tols=tols)
    assert named in str(err.value)


@pytest.mark.parametrize("name", REGISTRY_NAMES + ["s2xs2:1,2 without jet"])
def test_report_rows_equal_per_point_residuals(name):
    chart = curv4.build_example(name.split()[0])
    if name.endswith("without jet"):
        # the same metric with its third-order jet taken from the stencil
        chart = MetricChart(name=name, box=chart.box, eval_fn=chart.eval_fn, batched=True)
    rep = harmonicity_report(chart, count=16, seed=0)
    assert len(rep.rows) == 16
    per_point = {"dvr": codazzi_residual, "dvw.w": div_weyl_norm, "dvw.ds": scalar_gradient_norm}
    for x, row, s in zip(rep.points, rep.rows, rep.s_values):
        for key, residual in per_point.items():
            assert row[key] == pytest.approx(residual(chart, x), rel=1e-12, abs=1e-14)
        assert s == pytest.approx(curvature_at(chart, x, degree=3).s, rel=1e-12, abs=1e-14)
    assert rep.maxima == {key: max(row[key] for row in rep.rows) for key in per_point}


def counting(chart, attr):
    calls = []
    inner = getattr(chart, attr)

    def wrapped(x, *args):
        calls.append(np.shape(x))
        return inner(x, *args)

    setattr(chart, attr, wrapped)
    return calls


@pytest.mark.parametrize("degree", [0, 1, 2.5])
def test_curvature_degree_below_two_or_fractional_is_named(degree):
    chart = curv4.build_example("s4")
    with pytest.raises(InputError) as err:
        chart_module.curvature_batch(chart, sample_points(chart, count=2), degree=degree)
    assert f"got {degree!r}" in str(err.value)


def test_report_is_one_jet_evaluation():
    chart = curv4.build_example("kpc")
    jets, evals = counting(chart, "jet_fn"), counting(chart, "eval_fn")
    harmonicity_report(chart, count=16, seed=0)
    assert jets == [(16, 4)] and evals == []
    fd = MetricChart(name="flat-fd", box=UNIT_BOX, eval_fn=lambda x: np.eye(4))
    batches = counting(fd, "eval_batch")
    harmonicity_report(fd, count=16, seed=0)
    assert len(batches) == 1 and batches[0][1] == 4


def test_weyl_is_made_on_request(monkeypatch):
    # a report makes nabla W once, for all its sample points, and keeps it on
    # its stack: the frames of the stack make W once and read that nabla W,
    # and a second frame pass over the stack makes neither again. A point of
    # the stack is a new batch: it makes W and nabla W on access, for that
    # point alone, once each, and a frame from the point makes each once, on
    # its one-point stack; structure_data's jet makes neither.
    # Both go through weyl_from_curv: nabla W passes g with a derivative
    # axis, g[..., None, :, :], so the shape of g tells them apart
    calls = []
    made = chart_module.weyl_from_curv

    def counted(g, *args):
        calls.append(g.shape[:-2])
        return made(g, *args)

    monkeypatch.setattr(chart_module, "weyl_from_curv", counted)
    chart = curv4.build_example("randflat:0")
    report = harmonicity_report(chart, count=16, seed=0)
    assert calls == [(16, 1)]
    calls.clear()
    curv4.extract_frames(chart, report.stack)
    assert calls == [(16,)]
    curv4.extract_frames(chart, report.stack)
    assert calls == [(16,)]
    calls.clear()
    point = report.batch[3]
    assert calls == []
    point.weyl, point.nabla_weyl, point.weyl, point.nabla_weyl
    assert calls == [(), (1,)]
    calls.clear()
    curv4.extract_frame(chart, report.points[3], entry=point)
    assert sorted(calls) == [(1,), (1, 1)]
    frame = curv4.extract_frame(chart, report.points[3])
    assert frame.source == "eigen"  # a degree-4 jet at the frame point
    calls.clear()
    curv4.structure_data(chart, frame)
    assert calls == []


def test_stacked_batch_points_equal_their_own_batches():
    # charts with and without a jet_fn, stacked across a block boundary
    # (20 + 20 > 32 points): each point is its own chart's batch point, bit
    # for bit, and each report is the one its chart makes alone
    s2 = curv4.build_example("s2xs2:1,2")
    fd = MetricChart(name="s2xs2 fd", box=s2.box, eval_fn=s2.eval_fn, batched=True)
    bump = curv4.build_example("bump:0.1")
    parts = [
        (s2, sample_points(s2, count=20, seed=1)),
        (fd, sample_points(fd, count=20, seed=2)),
        (bump, sample_points(bump, count=3, seed=3)),
    ]
    stack = chart_module.stacked_curvature_batch(parts, degree=3)
    own = [chart_module.curvature_batch(chart, X, degree=3) for chart, X in parts]
    for key, value in vars(stack).items():
        assert np.array_equal(value, np.concatenate([getattr(b, key) for b in own])), key
    charts = [chart for chart, _ in parts]
    for rep, chart in zip(chart_module.harmonicity_reports(charts, count=5, seed=4), charts):
        alone = harmonicity_report(chart, count=5, seed=4)
        assert np.array_equal(rep.points, alone.points) and rep.rows == alone.rows
        assert (rep.maxima, rep.s_spread, rep.harmonic) == (alone.maxima, alone.s_spread, alone.harmonic)
        assert np.array_equal(rep.batch.R, alone.batch.R)


def test_report_holds_its_span_of_the_stack():
    # reports made together share one stack; each batch is its span of it
    charts = [curv4.build_example(name) for name in ("s2xs2:1,2", "bump:0.1", "kpc")]
    reports = chart_module.harmonicity_reports(charts, count=3, seed=2)
    stack = reports[0].stack
    assert all(rep.stack is stack for rep in reports) and len(stack.x) == 9
    for n, rep in enumerate(reports):
        assert rep.span == slice(3 * n, 3 * n + 3)
        assert np.array_equal(rep.batch.x, rep.points) and np.array_equal(rep.batch.R, stack.R[rep.span])


@pytest.mark.parametrize(
    "make, named",
    [
        (lambda chart: chart_module.curvature_batch(chart, np.zeros((0, 4)), 3), "no points"),
        (lambda chart: chart_module.stacked_curvature_batch([(chart, np.zeros((0, 4)))]), "no points"),
        (lambda chart: chart_module.stacked_curvature_batch([]), "no charts"),
        (lambda chart: chart_module.harmonicity_reports([]), "no charts"),
    ],
)
def test_empty_stack_is_named(make, named):
    with pytest.raises(InputError, match=named):
        make(curv4.build_example("s2xs2:1,2"))
