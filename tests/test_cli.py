import json
import subprocess
import sys

import numpy as np
import pytest

import curv4.cli
from curv4.chart import sample_points
from curv4.cli import RunConfig, cmd_verify, main
from curv4.examples import build_example


def run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_product(capsys):
    code, out, _ = run_main(["verify", "--example", "s2xs2:1,2", "--samples", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
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
    assert json.loads(path.read_text())["schema_version"] == "1"


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
    # kpc carries its own third tier; an explicit one overrides it
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
    code, out, _ = run_main(
        ["scan", "s2xs2", "--param", "k1=1", "--param", "k2=2", "--samples", "3"], capsys
    )
    assert code == 0
    cell = json.loads(out)["points"][0]
    _, vout, _ = run_main(["verify", "--example", "s2xs2:1,2", "--samples", "3"], capsys)
    verify = json.loads(vout)
    assert cell["counts"] == verify["summary"]["counts"]
    for key, val in verify["summary"]["maxima"].items():
        assert cell["maxima"][key] == pytest.approx(val, rel=1e-12, abs=1e-300)


def test_scan_rejects_unknown_parameter(capsys):
    code, _, err = run_main(["scan", "s2xs2", "--param", "bogus=1"], capsys)
    assert code == 2
    assert "no parameter" in err


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
    # one jet_fn call for the harmonicity batch of all samples, then one
    # per extracted frame, for its stencil; the frame's own entry comes
    # from the report's batch
    calls = []

    def build(spec):
        chart = build_example(spec)
        inner = chart.jet_fn

        def jet_fn(x, degree):
            calls.append(np.shape(x))
            return inner(x, degree)

        chart.jet_fn = jet_fn
        return chart

    monkeypatch.setattr(curv4.cli, "build_example", build)
    code, out, _ = run_main(["verify", "--example", name, "--samples", "16"], capsys)
    assert code in (0, 1)
    frames = sum("source" in p["counts"] for p in json.loads(out)["points"])
    assert calls == [(16, 4)] + [(16, 4)] * frames


def test_frame_stencil_error_names_the_frame_point(capsys):
    # --step 0.5 makes the frame stencil reach 1, out of the s2xs2 box
    code, _, err = run_main(["verify", "--example", "s2xs2:1,2", "--step", "0.5"], capsys)
    assert code == 2
    pts = sample_points(build_example("s2xs2:1,2"), count=16, seed=0)
    assert "reach 1" in err
    assert any(str(x.tolist()) in err for x in pts[:4])


def test_console_script_entry():
    # the installed entry point stays wired to cli.main
    proc = subprocess.run(
        [sys.executable, "-m", "curv4.cli", "verify", "--example", "nosuch"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_import_leaves_out_scipy_stats():
    # nor scipy.interpolate, now that the kpc profile has no splines
    code = (
        "import sys, curv4, curv4.cli; "
        "print({m: m in sys.modules for m in ('scipy.stats', 'scipy.interpolate')})"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "{'scipy.stats': False, 'scipy.interpolate': False}"
