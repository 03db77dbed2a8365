import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

import curv4.cli
from curv4.chart import sample_points
from curv4.cli import RunConfig, cmd_verify, main
from curv4.examples import build_example
from curv4.numerics import Jet


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_product(capsys):
    code, out, _ = run_main(["verify", "--example", "s2xs2:1,2", "--samples", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "2"
    assert set(payload["config"]) == {"example", "samples", "tolerances", "seed", "format"}
    counts = payload["summary"]["counts"]
    assert counts["r"] == 2 and counts["w"] == 2
    assert payload["summary"]["verdicts"]["overall"] == 1
    for pt in payload["points"]:
        assert set(pt) == {"x", "residuals", "counts"}
        assert "dvr" in pt["residuals"]
    assert "wall_seconds" in payload["timing"]


def test_verify_s4_case_a(capsys):
    code, out, _ = run_main(["verify", "--example", "s4", "--samples", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["counts"]["case"] == "A"


def test_verify_bump_fails(capsys):
    code, out, _ = run_main(["verify", "--example", "bump:0.1", "--samples", "4"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["verdicts"]["harmonic"] == 0


def test_verify_unknown_example(capsys):
    code, _, err = run_main(["verify", "--example", "nosuch"], capsys)
    assert code == 2
    assert "unknown example" in err


@pytest.mark.parametrize("name, chart", [("bump:1e20", "bump:1e+20"), ("bump:200", "bump:200")])
def test_verify_of_a_metric_that_overflows_exits_2(name, chart, capsys):
    # e^(2 a x1^3) overflows at probes of the chart's box: an input error
    # naming the chart and the probe, not exit 1, a non-harmonic verdict
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_main(["verify", "--example", name], capsys)
    assert code == 2 and out == ""
    assert f"chart '{chart}' metric not finite at [" in err


@pytest.mark.parametrize("name", ["bump:1e20", "bump:200"])
def test_verify_of_a_metric_that_overflows_prints_one_error_line(name):
    # no numpy RuntimeWarning ahead of the error: stderr is the one line
    proc = subprocess.run(
        [sys.executable, "-m", "curv4.cli", "verify", "--example", name],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("curv4: error: "), proc.stderr


@pytest.mark.parametrize(
    "name, case, degenerate",
    [("s4", "A", 16), ("h4", "A", 16), ("s2xs2:1,2", "C", 0), ("s2xs2:1,1", "A", 0)],
)
def test_verify_case_labels_and_degenerate_samples(name, case, degenerate, capsys):
    # the space forms frame none of their 16 samples; the products keep
    # their case labels
    code, out, _ = run_main(["verify", "--example", name], capsys)
    counts = json.loads(out)["summary"]["counts"]
    assert code == 0 and counts["case"] == case and counts["degenerate_points"] == degenerate


def test_scan_case_labels_of_the_s2xs2_grid(capsys):
    # k1 = k2 is Einstein (case A), every other cell case C
    argv = ["scan", "s2xs2", "--param", "k1=1,2,3", "--param", "k2=1,2,3", "--samples", "4"]
    code, out, _ = run_main(argv, capsys)
    cells = json.loads(out)["points"]
    assert code == 0 and len(cells) == 9
    for cell in cells:
        k1, k2 = cell["params"]["k1"], cell["params"]["k2"]
        assert cell["counts"]["case"] == ("A" if k1 == k2 else "C") and cell["harmonic"]


def test_verify_alias_and_default_suffix(capsys):
    code, out, _ = run_main(
        ["verify", "--example", "constant_curvature", "--samples", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["config"]["example"] == "s4"


def test_verify_deterministic_modulo_timing(capsys):
    argv = ["verify", "--example", "s2xs2:1,2", "--samples", "3", "--seed", "5"]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing"), b.pop("timing")
    assert a == b


def test_main_builds_its_parser_once(capsys):
    curv4.cli.build_parser.cache_clear()
    argv = ["verify", "--example", "s4", "--samples", "1"]
    reports = [json.loads(run_main(argv, capsys)[1]) for _ in range(2)]
    assert curv4.cli.build_parser.cache_info().misses == 1
    for report in reports:
        report.pop("timing")
    assert reports[0] == reports[1]


def test_verify_csv_format(capsys):
    code, out, _ = run_main(
        ["verify", "--example", "s2xs2:1,2", "--samples", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert header[:4] == ["x1", "x2", "x3", "x4"]
    assert "dvr" in header and "skw.e" in header
    assert len(lines) == 2 + 3


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_main(
        ["verify", "--example", "s4", "--samples", "2", "--out", str(path)], capsys
    )
    assert code == 0
    assert "wrote" in out and str(path) in out
    assert json.loads(path.read_text())["schema_version"] == "2"


def test_verify_spec_file(tmp_path, capsys):
    spec = {"kind": "s2xs2", "params": {"k1": 1.0, "k2": 2.0}, "samples": 3, "seed": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["example"] == "s2xs2:1,2"
    assert payload["config"]["samples"] == 3
    # flags override the file
    code, out, _ = run_main(["verify", "--spec", str(path), "--samples", "2"], capsys)
    assert json.loads(out)["config"]["samples"] == 2


def test_verify_spec_file_alias_kind(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "product_surfaces", "params": {"k2": 3.0}, "samples": 1}))
    code, out, _ = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["example"] == "s2xs2:1,3"


def test_verify_spec_report_names_the_chart_it_verified(tmp_path, capsys):
    # kind and params reach the chart exactly, not through a six-digit name
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "randflat", "params": {"seed": 12345678}, "samples": 1}))
    code, out, _ = run_main(["verify", "--spec", str(path)], capsys)
    payload = json.loads(out)
    assert code in (0, 1)
    assert payload["config"]["example"] == payload["chart"]["name"] == "randflat:12345678"
    assert payload["chart"]["params"]["seed"] == 12345678


@pytest.mark.parametrize(
    "spec",
    [
        {"example": "s4", "kind": "s2xs2", "params": {"k9": 1}},
        {"name": "h4", "example": "s4"},
        {"name": "s4", "kind": "s4"},
        {"example": "s4", "params": {"k1": 1.0}},
        {"name": "s2xs2", "params": {"k1": 1.0}},
    ],
)
def test_verify_spec_names_its_example_once(spec, tmp_path, capsys):
    # a second name, or params beside a name, is an input error and not a
    # run of whichever name the reader looked at first
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": 1, **spec}))
    code, out, err = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert "spec file" in err


def test_verify_bad_spec_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json")
    code, _, err = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 2
    assert "spec file" in err or "cannot read" in err


def test_verify_tol_flags(capsys):
    # a third-derivative tier above the bump's residuals flips its verdict;
    # one sample leaves no spread of s for the second tier to catch
    argv = ["verify", "--example", "bump:0.1", "--samples", "1"]
    code, _, _ = run_main(argv, capsys)
    assert code == 1
    code, _, _ = run_main(argv + ["--tol-third", "10"], capsys)
    assert code == 0


def test_verify_tol_flag_on_chart_with_own_tols(capsys):
    # an explicit third tier is judged by and echoed in the report config
    code, out, _ = run_main(
        ["verify", "--example", "kpc", "--samples", "2", "--tol-third", "1e-3"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["verdicts"]["overall"] is True
    assert payload["config"]["tolerances"] == {"third": 1e-3}


def test_verify_kpc_near_its_pole_is_harmonic(capsys):
    # third derivatives from the profile ODE, not from differences of
    # curvature entries, so small f near the box edge costs no accuracy
    # (the skw verdict still rests on frame finite differences)
    _, out, _ = run_main(["verify", "--example", "kpc:1,1.2,5"], capsys)
    payload = json.loads(out)
    assert payload["summary"]["verdicts"]["harmonic"] is True
    assert payload["summary"]["maxima"]["dvr"] <= 1e-8


def test_api_run_config_matches_cli_defaults(capsys):
    report = cmd_verify(RunConfig(example="kpc", samples=2))
    _, out, _ = run_main(["verify", "--example", "kpc", "--samples", "2"], capsys)
    assert report.exit_code == 0
    assert report.payload["summary"]["verdicts"] == json.loads(out)["summary"]["verdicts"]


def test_variety_named_point(capsys):
    code, out, _ = run_main(["variety", "--point", "zeros-with-product-sigma"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["points"][0]["rank"] == 1
    assert payload["summary"]["verdicts"]["membership"] == 1


def test_variety_unknown_point(capsys):
    code, _, err = run_main(["variety", "--point", "nope"], capsys)
    assert code == 2
    assert "named point" in err


def test_variety_from_example(capsys):
    code, out, _ = run_main(
        ["variety", "--from-example", "kpc-default", "--count", "2"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["tol"] == pytest.approx(1e-3)
    assert all(p["passed"] for p in payload["points"])
    assert max(payload["summary"]["ranks"]) <= 3


def test_variety_sample_csv_deterministic(capsys):
    argv = ["variety", "--sample", "5", "--seed", "7", "--format", "csv"]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    assert out1 == out2
    assert out1.splitlines()[0].startswith("#")


def test_variety_sample_same_in_fresh_processes():
    # each interpreter makes its first root search here: the draws must not
    # depend on the process
    argv = ["-m", "curv4.cli", "variety", "--sample", "3", "--seed", "7", "--format", "csv"]
    outs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 2 + 3


def test_variety_linear_only_fails_membership(capsys):
    code, out, _ = run_main(
        ["variety", "--sample", "4", "--mode", "linear-only", "--seed", "1"], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["verdicts"]["membership"] == 0


def test_variety_requires_one_source():
    with pytest.raises(SystemExit) as exc:
        main(["variety"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["variety", "--point", "x", "--sample", "3"])
    assert exc.value.code == 2


def test_scan_grid(capsys):
    code, out, _ = run_main(
        [
            "scan",
            "product_surfaces",
            "--param",
            "k1=0.5,1,2",
            "--param",
            "k2=0.5,1,2",
            "--samples",
            "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 9
    assert all(row["harmonic"] == 1 for row in payload["points"])
    params = [tuple(row["params"].values()) for row in payload["points"]]
    assert params == sorted(params)


def test_scan_single_cell_matches_verify(capsys):
    # every cell of one stacked scan batch reads what its own verify reads,
    # bit for bit: adapted frames (s2xs2, rxs3, kpc with one profile per
    # row) and eigenframes (bump, randflat with its own waves per row), and
    # h4, a kind without parameters, whose one cell has no frame
    grids = {
        "s2xs2": ["--param", "k1=1,2,3", "--param", "k2=1,2,3"],
        "bump": ["--param", "a=0.05,0.1,0.2"],
        "rxs3": ["--param", "c=0.5,1,2"],
        "kpc": ["--param", "r=1.1,1.2"],
        "randflat": ["--param", "seed=0,1"],
        "h4": [],
    }
    cells = {"s2xs2": 9, "bump": 3, "rxs3": 3, "kpc": 2, "randflat": 2, "h4": 1}
    for (kind, grid), samples in itertools.product(grids.items(), ("1", "3")):
        code, out, _ = run_main(["scan", kind, *grid, "--samples", samples], capsys)
        assert code in (0, 1)
        rows = json.loads(out)["points"]
        assert len(rows) == cells[kind]
        for row in rows:
            argv = ["verify", "--example", row["example"], "--samples", samples]
            verify = json.loads(run_main(argv, capsys)[1])
            assert row["counts"] == verify["summary"]["counts"]
            assert row["maxima"] == verify["summary"]["maxima"]
            assert row["harmonic"] == verify["summary"]["verdicts"]["harmonic"]


def _counting_jets(monkeypatch, calls):
    # cli.build_example with each chart's formula logging the shape of the
    # coordinate jets it is given
    def build(*request):
        chart = build_example(*request)
        inner = chart.eval_fn

        def eval_fn(x):
            if isinstance(x, Jet):
                calls.append(x.shape)
            return inner(x)

        chart.eval_fn = eval_fn
        return chart

    monkeypatch.setattr(curv4.cli, "build_example", build)


@pytest.mark.parametrize("samples, algebra_calls", [("1", 1), ("4", 2)])
def test_scan_is_one_curvature_batch(samples, algebra_calls, capsys, monkeypatch):
    # the 9 cells are the rows of one chart family and their samples one
    # batch: one degree-1 jet call of the family formula validates all rows
    # at their 5 probes, one degree-3 call gives the metric jet at all 9 x n
    # samples, and one curvature algebra call runs per 32 stacked points
    jets, blocks = [], []
    algebra, formula_jet = curv4.chart._curvature_algebra, curv4.chart._formula_jet

    def counted(X, coef, degree):
        blocks.append(len(X))
        return algebra(X, coef, degree)

    def counted_jet(formula, x, degree, **row):
        jets.append((np.shape(x), degree))
        return formula_jet(formula, x, degree, **row)

    monkeypatch.setattr(curv4.chart, "_formula_jet", counted_jet)
    monkeypatch.setattr(curv4.chart, "_curvature_algebra", counted)
    argv = ["scan", "s2xs2", "--param", "k1=1,2,3", "--param", "k2=1,2,3", "--samples", samples]
    code, _, _ = run_main(argv, capsys)
    assert code == 0
    n = int(samples)
    assert jets == [((9, 5, 4), 1), ((9, n, 4), 3)]
    assert len(blocks) == algebra_calls and sum(blocks) == 9 * n


@pytest.mark.parametrize("samples", [1, 4])
def test_scan_is_one_frame_pass(samples, capsys, monkeypatch):
    # the 9 cells' samples are framed in one extract_frames call over the
    # stack their residuals were taken on, with one W+/W- split for them all
    passes, splits = [], []
    extract, split = curv4.cli.extract_frames, curv4.frames.sd_split

    def counted_extract(charts, batch):
        passes.append((len(charts), len(batch.x)))
        return extract(charts, batch)

    def counted_split(Wf, orientation):
        splits.append(len(Wf))
        return split(Wf, orientation)

    monkeypatch.setattr(curv4.cli, "extract_frames", counted_extract)
    monkeypatch.setattr(curv4.frames, "sd_split", counted_split)
    argv = ["scan", "s2xs2", "--param", "k1=1,2,3", "--param", "k2=1,2,3", "--samples", str(samples)]
    code, _, _ = run_main(argv, capsys)
    assert code == 0
    assert passes == [(9 * samples, 9 * samples)] and splits == [9 * samples]


def test_scan_with_one_rejected_cell_exits_2(capsys):
    # K0 = -5 puts K0 + c below the kpc floor; its cell ends the whole scan
    code, out, err = run_main(["scan", "kpc", "--param", "K0=0.5,-5", "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert "floor" in err


@pytest.mark.parametrize(
    "kind, grid, named",
    [("bump", "a=0.1,5,0.2", "bump:5"), ("rxs3", "c=1,-20", "rxs3:-20")],
)
def test_scan_with_a_cell_its_validation_rejects_exits_2(kind, grid, named, capsys):
    # the cells are validated as one family; the rejected cell is named as
    # its chart alone is, and the scan reports nothing
    code, out, err = run_main(["scan", kind, "--param", grid, "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert f"chart '{named}'" in err and "order-4/order-6 derivatives disagree" in err
    alone = run_main(["verify", "--example", named, "--samples", "1"], capsys)
    assert alone[:2] == (2, "") and alone[2] == err


def test_scan_row_names_the_chart_it_verified(capsys):
    code, out, _ = run_main(["scan", "s2xs2", "--param", "k1=1.23456789", "--samples", "2"], capsys)
    assert code == 0
    (row,) = json.loads(out)["points"]
    assert row["params"] == {"k1": 1.23456789, "k2": 2.0}
    assert row["example"] == "s2xs2:1.23456789,2"
    _, vout, _ = run_main(["verify", "--example", row["example"], "--samples", "2"], capsys)
    verify = json.loads(vout)
    assert verify["chart"]["params"] == row["params"]
    assert verify["summary"]["maxima"] == row["maxima"]


def test_scan_rejects_a_repeated_axis(capsys):
    code, out, err = run_main(["scan", "s2xs2", "--param", "k1=1", "--param", "k1=2"], capsys)
    assert code == 2 and out == ""
    assert "k1" in err and "twice" in err


def test_scan_rejects_unknown_parameter(capsys):
    code, _, err = run_main(["scan", "s2xs2", "--param", "bogus=1"], capsys)
    assert code == 2
    assert "no parameter" in err


def test_scan_rejects_an_empty_grid_axis(capsys):
    # no cells would run, and all_harmonic would hold vacuously
    code, out, err = run_main(["scan", "s2xs2", "--param", "k1=,"], capsys)
    assert code == 2 and out == ""
    assert "k1" in err and "no grid values" in err


@pytest.mark.parametrize(
    "example, param",
    [
        ("s2xs2:nan,2", "'k1'"),
        ("rxs3:nan", "'c'"),
        ("bump:nan", "'a'"),
        ("kpc:1,inf", "'r'"),
        ("randflat:nan", "'seed'"),
        ("randflat:-1", "'seed'"),
        ("randflat:1.5", "'seed'"),
    ],
)
def test_verify_rejects_bad_example_parameters(example, param, capsys):
    # a usage error (exit 2) naming the parameter, not a numpy traceback with
    # the exit code of a failed verification, nor randflat:1 for randflat:1.5
    code, out, err = run_main(["verify", "--example", example, "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert param in err


@pytest.mark.parametrize("grid, param", [("k1=nan", "'k1'"), ("k2=1,inf", "'k2'")])
def test_scan_rejects_non_finite_grid_values(grid, param, capsys):
    code, out, err = run_main(["scan", "s2xs2", "--param", grid, "--samples", "1"], capsys)
    assert code == 2 and out == ""
    assert param in err and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("flag", ["--tol-second", "--tol-third"])
def test_verify_rejects_bad_tolerance_flags(flag, value, capsys):
    # a nan or negative third tier would call the round sphere non-harmonic
    code, out, err = run_main(["verify", "--example", "s4", "--samples", "1", flag, value], capsys)
    assert code == 2 and out == ""
    assert flag in err and "finite positive" in err


@pytest.mark.parametrize("value", [float("nan"), -1.0, 0.0, "1e-4", True])
def test_verify_rejects_bad_spec_tolerances(value, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"example": "s4", "samples": 1, "tolerances": {"third": value}}))
    code, out, err = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert "'third'" in err and "finite positive" in err


@pytest.mark.parametrize("value", ["3", "x", True, 2.5, float("nan"), None, [1]])
@pytest.mark.parametrize("key", ["samples", "seed"])
def test_verify_rejects_non_integer_spec_samples_and_seed(key, value, tmp_path, capsys):
    # a string, bool or fractional count or seed is a usage error (exit 2),
    # not a traceback with the exit code of a failed verification
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"example": "s4", "samples": 1, key: value}))
    code, out, err = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert repr(key) in err and "integer" in err


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"example": "s4", "samples": 1, "seed": -1}))
    for argv in (["verify", "--spec", str(path)], ["scan", "s2xs2", "--seed", "-1"]):
        code, out, err = run_main(argv, capsys)
        assert code == 2 and out == ""
        assert "--seed must be non-negative" in err


def test_verify_spec_accepts_integral_float_samples(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"example": "s4", "samples": 2.0, "seed": 3.0}))
    code, out, _ = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert config["samples"] == 2 and config["seed"] == 3


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_variety_rejects_bad_tol(value, capsys):
    argv = ["variety", "--point", "zeros-with-product-sigma", "--tol", value]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    assert "--tol" in err and "finite positive" in err


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"example": "s4", "step": 0.01}, "'step'"),
        ({"example": "s4", "order": 6}, "'order'"),
        ({"example": "s4", "third_step": 0.01}, "'third_step'"),
        ({"example": "s4", "sample": 3}, "'sample'"),
        ({"example": "s4", "tolerances": {"fourth": 1e-3}}, "'fourth'"),
        ({"example": "s4", "tolerances": [1e-3]}, "'tolerances'"),
        ({"kind": "s2xs2", "params": {"k3": 5.0}}, "'k3'"),
        # the algebraic tier judged nothing and is gone
        ({"example": "s4", "tolerances": {"algebraic": 1e-8}}, "'algebraic'"),
    ],
)
def test_verify_rejects_unknown_spec_keys(spec, key, tmp_path, capsys):
    # a key the file may no longer carry fails loudly instead of doing nothing
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert key in err


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"kind": "s2xs2", "params": [1.0, 2.0]}, "'params'"),
        ({"kind": "s2xs2", "params": "k1=1"}, "'params'"),
        ({"kind": "s2xs2", "params": {"k1": "1"}}, "'k1'"),
        ({"kind": "s2xs2", "params": {"k1": None}}, "'k1'"),
        ({"kind": "s2xs2", "params": {"k1": True}}, "'k1'"),
        ({"kind": "s2xs2", "params": {"k1": [1.0]}}, "'k1'"),
        ({"example": 4}, "'example'"),
        ({"example": None}, "'example'"),
        ({"name": ["s4"]}, "'name'"),
        ({"kind": {"s2xs2": 1}}, "'kind'"),
    ],
)
def test_verify_rejects_mistyped_spec_values(spec, key, tmp_path, capsys):
    # a spec value of the wrong type is a usage error (exit 2), not a
    # traceback with the exit code of a failed verification
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": 1, **spec}))
    code, out, err = run_main(["verify", "--spec", str(path)], capsys)
    assert code == 2 and out == ""
    assert key in err and "spec file" in err


@pytest.mark.parametrize(
    "source, flag",
    [
        (["--point", "zeros-with-product-sigma"], ["--mode", "linear-only"]),
        (["--from-example", "kpc"], ["--mode", "full"]),
        (["--point", "zeros-with-product-sigma"], ["--count", "99"]),
        (["--sample", "2"], ["--count", "3"]),
    ],
)
def test_variety_rejects_a_flag_its_source_does_not_read(source, flag, capsys):
    # --mode shapes --sample draws and --count sizes a --from-example harvest;
    # with another source the flag would be dropped without a word
    code, out, err = run_main(["variety", *source, *flag], capsys)
    assert code == 2 and out == ""
    assert flag[0] in err


@pytest.mark.parametrize("flag", ["--samples", "--tol-second", "--tol-third"])
def test_variety_takes_no_sampling_flags(flag, capsys):
    # variety harvests --count points and judges them by --tol; these flags
    # only echoed into its report and are gone, while the keys stay
    with pytest.raises(SystemExit) as exc:
        main(["variety", "--point", "zeros-with-product-sigma", flag, "4"])
    assert exc.value.code == 2
    code, out, _ = run_main(["variety", "--point", "zeros-with-product-sigma"], capsys)
    config = json.loads(out)["config"]
    assert code == 0 and config["samples"] == 16 and config["tolerances"] == {}


def test_stencil_flags_are_gone(capsys):
    for flag in ("--step", "--order", "--third-step"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--example", "s4", flag, "4"])
        assert exc.value.code == 2


def test_reports_deterministic_in_one_process(capsys):
    # a verify and a scan, each run twice in one process: equal reports,
    # the wall time aside
    for argv in (
        ["verify", "--example", "s2xs2:1,2", "--samples", "3"],
        ["scan", "s2xs2", "--param", "k1=1,2", "--param", "k2=2", "--samples", "2"],
    ):
        _, out1, _ = run_main(argv, capsys)
        _, out2, _ = run_main(argv, capsys)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing"), b.pop("timing")
        assert a == b


@pytest.mark.parametrize("name", ["s2xs2:1,2", "randflat:0", "s4"])
def test_verify_makes_one_jet_evaluation_per_batch(name, capsys, monkeypatch):
    # one jet evaluation for the harmonicity batch of all samples; every sample
    # is framed (or degenerate) from that batch, and nothing more is evaluated
    calls = []
    _counting_jets(monkeypatch, calls)
    code, out, _ = run_main(["verify", "--example", name, "--samples", "16"], capsys)
    assert code in (0, 1)
    points = json.loads(out)["points"]
    frames = sum("source" in p["counts"] for p in points)
    degenerate = sum(p["counts"].get("degenerate", False) for p in points)
    assert (frames, degenerate) == ((0, 16) if name == "s4" else (16, 0))
    assert calls == [(16, 4)]


def test_verify_of_one_sample_passes_its_point_unstacked(capsys, monkeypatch):
    # a verify's chart is the one-row case of its family: its one sample
    # goes to the formula as x (4,), with the row's Python floats, as
    # formulas run faster on scalars than on stacked rows
    calls = []
    _counting_jets(monkeypatch, calls)
    code, _, _ = run_main(["verify", "--example", "s2xs2:1,2", "--samples", "1"], capsys)
    assert code == 0 and calls == [(4,)]
    assert [type(v) for v in build_example("s2xs2:1,2").row.values()] == [float, float]


@pytest.mark.parametrize("name", ["s2xs2:1,2", "bump:0.1"])
def test_variety_from_example_makes_one_jet_evaluation(name, capsys, monkeypatch):
    # one degree-3 curvature batch over the --count points; each frame reads
    # its own point of it
    calls = []
    _counting_jets(monkeypatch, calls)
    code, out, _ = run_main(["variety", "--from-example", name, "--count", "5"], capsys)
    assert code in (0, 1)
    assert len(json.loads(out)["points"]) == 5
    assert calls == [(5, 4)]


def test_console_script_entry():
    # the installed entry point stays wired to cli.main
    proc = subprocess.run(
        [sys.executable, "-m", "curv4.cli", "verify", "--example", "nosuch"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_import_leaves_out_scipy_stats():
    # no scipy module at all: importing the package and running a verify
    # load numpy alone (the variety root search imports scipy on first use)
    code = (
        "import sys, curv4, curv4.cli; "
        "curv4.cli.main(['verify', '--example', 's4', '--samples', '1']); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_scan_loads_no_thread_pool():
    # scan's cells run in the calling thread: importing the package and
    # running a two-cell scan load no concurrent.futures module
    code = (
        "import sys, curv4, curv4.cli; "
        "curv4.cli.main(['scan', 's2xs2', '--param', 'k1=1,2', '--samples', '1']); "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
