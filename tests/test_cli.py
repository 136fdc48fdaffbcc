import csv
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from pytest import approx

from accspec import checks, cli, discretize, spectrogram
from accspec.cli import UsageError, main, parse_region, parse_scale_list
from accspec.discretize import (ResourceLimitError, assemble_operator,
                                build_grid, spectral_decompose)
from accspec.geometry import Ball, Box, DisjointBallUnion
from accspec.kernels import GinibreKernel, PaleyWienerKernel
from accspec.spectrogram import InequalityCheck, RankDeficiencyError
from accspec.variance import CurvePoint, variance_spectral


def test_parse_scale_list_explicit():
    assert parse_scale_list("2,4,8") == (2.0, 4.0, 8.0)


def test_parse_scale_list_log():
    vals = parse_scale_list("10:200:log20")
    assert len(vals) == 20
    assert vals[0] == approx(10.0)
    assert vals[-1] == approx(200.0)
    ratios = np.diff(np.log(vals))
    assert ratios == approx(np.full(19, ratios[0]))


@pytest.mark.parametrize("bad", ["8,4,2", "0,1", "10:5:log3", "1:10:lin5", "a,b"])
def test_parse_scale_list_rejects(bad):
    with pytest.raises(UsageError):
        parse_scale_list(bad)


@pytest.mark.parametrize("scales", ["1:2:log", "1:x:log5", "1:inf:log5",
                                    "1:2:log1000000000"])
def test_bad_log_range_is_one_line_usage_error(scales, capsys):
    # the last asks for 7.45 GiB of scales unless refused before logspace
    assert main(["variance", "--kernel", "sine", "--R", scales,
                 "--spectral", "off"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: R: ")


@pytest.mark.parametrize("scales", ["1,,2", ",", "1,", ",1"])
def test_an_empty_scale_field_is_refused(scales, capsys):
    # an empty field was once skipped, so '1,,2' ran as '1,2'
    assert main(["variance", "--kernel", "sine", "--R", scales,
                 "--spectral", "off"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: R: cannot parse '{scales}'")
    assert len(captured.err.encode()) < 200


def test_parse_region_kinds():
    assert isinstance(parse_region("interval:-1,1"), Box)
    box = parse_region("box:0,0:1,2")
    assert isinstance(box, Box) and box.dim == 2
    ball = parse_region("ball:1,2:3")
    assert isinstance(ball, Ball) and ball.radius == 3.0
    union = parse_region("union:0:1;3:1")
    assert isinstance(union, DisjointBallUnion)


def test_parse_region_rejects_overlap():
    with pytest.raises(UsageError, match="union: balls overlap"):
        parse_region("union:0:1;1.5:1")


def test_parse_region_rejects_garbage():
    with pytest.raises(UsageError):
        parse_region("pentagon:1,2,3")
    with pytest.raises(UsageError):
        parse_region("interval:1")


@pytest.mark.parametrize("argv", [
    ["--kernel", "sine", "--region", "interval:0,inf", "--R", "1"],
    ["--kernel", "sine", "--region", "ball:0:inf", "--R", "1"],
    ["--kernel", "sine", "--region", "ball:nan:1", "--R", "1,2",
     "--spectral", "off"],
    ["--kernel", "sine", "--region", "union:0:1;nan:1", "--R", "1,2",
     "--spectral", "off"],
    ["--kernel", "ginibre", "--region", "ball:inf,0:1", "--R", "1",
     "--spectral", "off"],
    ["--kernel", "ginibre", "--region", "ball:nan,0:1", "--R", "1"],
], ids=["interval-inf", "ball-radius-inf", "ball-center-nan",
        "union-center-nan", "ball-center-inf-2d", "ball-center-nan-2d"])
def test_nonfinite_window_is_usage_error(argv, capsys):
    assert main(["variance", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    region = argv[argv.index("--region") + 1]
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: region: cannot parse '{region}': ")
    assert lines[0].endswith("must be finite")


def test_missing_kernel_is_usage_error(capsys):
    code = main(["spectrogram", "--region", "interval:-1,1", "--R", "2"])
    assert code == 2
    assert "kernel: required" in capsys.readouterr().err


def test_missing_region_is_usage_error(capsys):
    code = main(["spectrogram", "--kernel", "sine", "--R", "2"])
    assert code == 2
    assert "region: required" in capsys.readouterr().err


def test_unknown_kernel(capsys):
    code = main(["variance", "--kernel", "airy", "--R", "1,2"])
    assert code == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["variance", "--kernel", "sine", "--region", "ball:0,0,0:1", "--R", "1"],
     "error: kernel: sine takes windows of dimension 1, not 3"),
    (["variance", "--kernel", "ginibre", "--region", "ball:0,0,0:1",
      "--R", "1"],
     "error: kernel: ginibre takes windows of dimension 2, 4, not 3"),
    (["variance", "--kernel", "paley-wiener", "--region", "ball:0,0,0,0:1",
      "--R", "1"],
     "error: kernel: paley-wiener takes windows of dimension 1, 2, 3, not 4"),
    (["variance", "--kernel", "paley-wiener", "--dim", "0", "--R", "1"],
     "accspec variance: error: unrecognized arguments: --dim 0"),
    (["spectrogram", "--kernel", "sine", "--region", "ball:0,0:1",
      "--R", "1"], "error: kernel: sine takes windows of dimension 1, not 2"),
    (["variance", "--kernel", "paley-wiener", "--region", "ball:0,0:1",
      "--cdim", "2", "--R", "1"],
     "accspec variance: error: unrecognized arguments: --cdim 2"),
    (["variance", "--kernel", "ginibre", "--cdim", "1", "--R", "1,2"],
     "accspec variance: error: unrecognized arguments: --cdim 1"),
    (["spectrogram", "--kernel", "paley-wiener", "--dim", "2", "--region",
      "ball:0,0:1", "--R", "1"],
     "accspec spectrogram: error: unrecognized arguments: --dim 2"),
    (["variance", "--kernel", "paley-wiener", "--dim", "2", "--region",
      "ball:0,0:1", "--R", "1"],
     "accspec variance: error: unrecognized arguments: --dim 2"),
    (["variance", "--kernel", "paleywiener", "--R", "1"],
     "error: kernel: unknown 'paleywiener'"),
    (["variance", "--kernel", "sine", "--R", "2", "--n", "40"],
     "accspec variance: error: unrecognized arguments: --n 40"),
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "2", "--n", "40"],
     "accspec spectrogram: error: unrecognized arguments: --n 40"),
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "2", "--nodes", "10"],
     "accspec spectrogram: error: unrecognized arguments: --nodes 10"),
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "2", "--form", "json"],
     "accspec spectrogram: error: unrecognized arguments: --form json"),
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "2", "--format", "xml"],
     "accspec spectrogram: error: argument --format: invalid choice: 'xml'"),
    (["variance", "--kernel", "pw", "--R", "2", "--spectral", "off"],
     "error: kernel: unknown 'pw'"),
    (["variance", "--kernel", "SINE", "--R", "2", "--spectral", "off"],
     "error: kernel: unknown 'SINE'"),
], ids=["sine-d3", "ginibre-d3", "pw-d4", "pw-d0", "sine-on-a-disk",
        "variance-cdim", "variance-cdim-1", "spectrogram-dim", "dim-and-region",
        "paleywiener-alias", "variance-n", "spectrogram-n", "option-prefix",
        "format-prefix", "format-choice", "pw-alias", "upper-case-kernel"])
def test_the_window_is_read_from_one_option(argv, message, capsys):
    # each spelling once ran with an option silently dropped, or needed a
    # dimension that the region already gives; a setting has one spelling,
    # so a window dimension beside --region, a fixed grid size, an option
    # prefix, a kernel alias and an upper case kernel name are refused.
    # Each refusal is one line; argparse's name the subcommand and print
    # no usage
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in lines[0], captured.err
    assert len(captured.err.encode()) < 200
    assert "Traceback" not in captured.err


def test_an_option_value_may_follow_an_equals_sign(capsys):
    # argparse's --option=value form is the full name, not a prefix
    outputs = []
    for resolution in (["--nodes-per-unit=10"], ["--nodes-per-unit", "10"]):
        assert main(["spectrogram", "--kernel", "sine", "--region",
                     "interval:-1,1", "--R", "2", *resolution]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kernel, ball", [
    ("ginibre", "ball:0,0:1"),
    ("paley-wiener", "ball:0:1"),
    ("sine", "ball:0:1"),
], ids=["ginibre", "paley-wiener", "sine"])
def test_the_default_window_is_the_lowest_dimensional_unit_ball(
        kernel, ball, capsys):
    # without --region, variance takes the unit ball in the kernel's
    # lowest dimension, byte for byte
    outputs = []
    for window in ([], ["--region", ball]):
        assert main(["variance", "--kernel", kernel, *window, "--R", "1,2",
                     "--spectral", "off"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_spectrogram_reads_the_dimension_from_the_region(capsys):
    assert main(["spectrogram", "--kernel", "paley-wiener", "--region",
                 "ball:0,0:1", "--R", "1", "--margin", "5",
                 "--eval-spacing", "0.25", "--format", "json"]) == 0
    node = json.loads(capsys.readouterr().out)["fields"][0]
    assert set(node) == {"R", "x1", "x2", "rho", "target"}


def test_lens_command(capsys):
    assert main(["lens", "--dim", "2", "--r", "1", "--R", "1"]) == 0
    out = capsys.readouterr().out
    series, exact = (float(line.split("=")[1]) for line in out.splitlines()[:2])
    assert series == approx(math.pi / 3 + math.sqrt(3) / 2, abs=1e-8)
    assert exact == approx(series, abs=1e-8)


def test_lens_command_invalid(capsys):
    assert main(["lens", "--dim", "0", "--r", "1", "--R", "1"]) == 2


@pytest.mark.filterwarnings("error")
def test_lens_offset_far_beyond_the_diameter_is_quiet(capsys):
    # r / 2R overflows unless r is clipped to the diameter first; past it
    # the balls are disjoint and both routes give the whole ball, the
    # closed form as 2 c_1 R^2 (pi/4), one ulp from c_2 R^2
    assert main(["lens", "--dim", "2", "--r", "1e300", "--R", "1e-10"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("series = 3.1415926535897936e-20\n"
                            "exact  = 3.141592653589793e-20\n"
                            "diff   = 6.018531076210112e-36\n")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["lens", "--dim", "2", "--r", "1.9999", "--R", "1", "--tol", "0"],
    ["lens", "--dim", "2", "--r", "1", "--R", "1", "--tol=-1e-9"],
    ["lens", "--dim", "2", "--r", "1", "--R", "1", "--tol", "nan"],
])
def test_nonpositive_tolerance_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "must be positive" in capsys.readouterr().err


def test_series_divergence_is_numerical_failure(capsys):
    # near-tangent balls: the series converges too slowly for 1e-300
    argv = ["lens", "--dim", "2", "--r", "1.9999", "--R", "1",
            "--tol", "1e-300"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: lens series did not reach")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["lens", "--dim", "400", "--r", "1", "--R", "1"], 3),
    (["lens", "--dim", "2", "--r", "1", "--R", "1e200"], 3),
    (["variance", "--kernel", "ginibre", "--R", "1e200"], 3),
    (["lens", "--dim", "2", "--r", "nan", "--R", "1"], 2),
    (["variance", "--kernel", "sine", "--R", "1,inf"], 2),
    (["variance", "--kernel", "sine", "--R", "1e12", "--spectral", "off"], 3),
    (["variance", "--kernel", "sine", "--R", "1e200"], 3),
    (["variance", "--kernel", "ginibre", "--region", "box:0,0:1,1",
      "--R", "1e200"], 3),
    (["variance", "--kernel", "ginibre", "--R", "1e-200"], 3),
    (["variance", "--kernel", "ginibre", "--R", "1e154", "--spectral", "off"],
     3),
    (["variance", "--kernel", "ginibre", "--region", "ball:0,0,0,0:1",
      "--R", "1e77", "--spectral", "off"], 3),
    (["variance", "--kernel", "ginibre", "--region", "union:0,0:1;5,5:1",
      "--R", "1e154", "--spectral", "off"], 3),
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "1e-200"], 3),
    (["spectrogram", "--kernel", "ginibre", "--region", "box:0,0:1,1",
      "--R", "1e-170", "--nodes-per-unit", "4e170"], 3),
    (["spectrogram", "--kernel", "ginibre", "--region", "ball:0,0:1",
      "--R", "1e200"], 3),
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "1e308"], 3),
    (["spectrogram", "--kernel", "sine", "--region", "interval:1e308,1.5e308",
      "--R", "2"], 3),
    (["spectrogram", "--kernel", "sine", "--region", "ball:1e308:1",
      "--R", "2"], 3),
    (["variance", "--kernel", "sine", "--region", "interval:1e308,1.5e308",
      "--R", "2"], 3),
], ids=["ball-volume-overflow", "radius-power-overflow",
        "window-volume-overflow", "nan-offset", "infinite-scale",
        "radial-panels-beyond-cap", "radial-panels-overflow",
        "box-volume-overflow", "expected-count-underflow",
        "expected-count-overflow", "expected-count-overflow-c2",
        "union-expected-count-overflow", "eval-grid-count-1d",
        "eval-grid-count-2d", "spectrogram-window-volume-overflow",
        "spectrogram-window-side-overflow", "box-dilation-overflow",
        "ball-dilation-overflow", "variance-dilation-overflow"])
def test_overflow_and_nonfinite_inputs_end_in_one_error_line(argv, code):
    # a subprocess, so that warnings reach stderr as a user would see them
    proc = subprocess.run([sys.executable, "-m", "accspec.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_resource_limit_is_numerical_failure(capsys, monkeypatch):
    def over_cap(*args, **kwargs):
        raise ResourceLimitError("grid has 5000 nodes, cap is 4096")

    monkeypatch.setattr(cli, "lens_volume_series", over_cap)
    assert main(["lens", "--dim", "2", "--r", "1", "--R", "1"]) == 3
    assert capsys.readouterr().err == "error: grid has 5000 nodes, cap is 4096\n"


def test_eigenpair_residual_failure_is_numerical_failure(capsys,
                                                          monkeypatch):
    eigh = np.linalg.eigh

    def shifted_eigh(a, *args, **kwargs):
        vals, vecs = eigh(a, *args, **kwargs)
        return vals + 1e-3, vecs

    monkeypatch.setattr(np.linalg, "eigh", shifted_eigh)
    argv = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2", "--nodes-per-unit", "10"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: eigenpair residual")
    assert "Traceback" not in err


def test_rank_deficiency_is_numerical_failure(capsys, monkeypatch):
    def too_few_modes(*args, **kwargs):
        raise RankDeficiencyError("psi set holds 2 modes but N = 3")

    monkeypatch.setattr(cli, "dilation_snapshot", too_few_modes)
    argv = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2", "--nodes-per-unit", "10"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "error: psi set holds 2 modes but N = 3\n"


def test_schema_flag(capsys):
    assert main(["--schema"]) == 0
    out = capsys.readouterr().out
    assert SPECTROGRAM_HEADER in out and VARIANCE_HEADER in out


@pytest.mark.parametrize("argv", [["--schema"],
                                  ["lens", "--dim", "2", "--r", "1", "--R", "1"],
                                  ["check"], ["--help"]])
@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # the reader is gone before the first write, as with `| head -1`
    # after head has exited; unbuffered or not, no traceback and exit 0
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "accspec.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


# golden schemas: each subcommand's summary header is pinned verbatim
SPECTROGRAM_HEADER = "R,trace,N,err_raw,err_normalized,tail_mass,saturated"
VARIANCE_HEADER = "R,E_count,var_spectral,var_radial,ratio"


def _read_summary(path, golden=VARIANCE_HEADER):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == golden
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


def test_spectrogram_csv_run(tmp_path):
    # 18.75 per unit: 300 nodes on the R = 8 window, side 16
    out = tmp_path / "run.csv"
    args = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2,4,8", "--nodes-per-unit", "18.75", "--margin", "10",
            "--out", str(out)]
    assert main(args) == 0
    rows = _read_summary(out, SPECTROGRAM_HEADER)
    assert len(rows) == 3
    errs = [float(r["err_normalized"]) for r in rows]
    assert errs == sorted(errs, reverse=True)
    fields = tmp_path / "run.fields.csv"
    assert fields.exists()
    header = [l for l in fields.read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "R,x1,rho,target"


def test_spectrogram_marks_a_coarsened_rung(tmp_path, capsys):
    # R = 100 asks for 8000 nodes at the default 40 per unit, past the
    # default cap of 4096: the rung is coarsened and says so, in CSV and
    # as the integer 1 in JSON
    args = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2,4,100"]
    assert main(args) == 0
    rows = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    assert rows[0] == SPECTROGRAM_HEADER
    assert [r.split(",")[-1] for r in rows[1:]] == ["0", "0", "1"]
    out = tmp_path / "run.json"
    assert main(args + ["--format", "json", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert [row["saturated"] for row in summary] == [0, 0, 1]


def test_spectrogram_deterministic_output(tmp_path):
    args = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2", "--nodes-per-unit", "30", "--margin", "6"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrogram_json_document(tmp_path):
    out = tmp_path / "run.json"
    args = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2", "--nodes-per-unit", "25", "--margin", "6",
            "--format", "json", "--out", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "summary", "fields"}
    assert doc["summary"][0]["N"] == 2
    assert ",".join(doc["summary"][0]) == SPECTROGRAM_HEADER
    node = doc["fields"][0]
    assert set(node) == {"R", "x1", "rho", "target"}


def test_variance_fit_block(tmp_path):
    out = tmp_path / "var.csv"
    args = ["variance", "--kernel", "paley-wiener",
            "--R", "10:120:log10", "--out", str(out)]
    assert main(args) == 0
    text = out.read_text()
    assert "# fit_slope:" in text
    slope = float([l for l in text.splitlines()
                   if l.startswith("# fit_slope")][0].split(":")[1])
    assert slope == approx(1.0 / math.pi ** 2, rel=0.1)
    rows = _read_summary(out)
    assert rows[0]["var_spectral"] == ""  # absent, not zero
    assert float(rows[0]["var_radial"]) > 0


def test_variance_fit_warning_for_short_span(tmp_path):
    out = tmp_path / "var.csv"
    args = ["variance", "--kernel", "paley-wiener",
            "--R", "10,20,40,80", "--out", str(out)]
    assert main(args) == 0  # warning, not failure
    assert "# fit_warning:" in out.read_text()


def test_variance_spectral_column_ginibre(tmp_path):
    out = tmp_path / "gin.json"
    args = ["variance", "--kernel", "ginibre", "--R", "1",
            "--nodes-per-unit", "20", "--format", "json", "--out", str(out)]
    assert main(args) == 0
    row = json.loads(out.read_text())["summary"][0]
    assert ",".join(row) == VARIANCE_HEADER
    assert row["var_spectral"] is not None
    assert row["var_spectral"] == approx(row["var_radial"], rel=0.02)


def test_no_nonfinite_values_in_output(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["variance", "--kernel", "sine", "--R", "1,2,4",
                 "--out", str(out)]) == 0
    for row in _read_summary(out):
        for value in row.values():
            if value:
                assert math.isfinite(float(value))


def test_check_subcommand_passes():
    assert main(["check"]) == 0


CHECK_NAMES = (
    "lens_series_vs_exact_d1", "lens_series_vs_exact_d2",
    "lens_series_vs_exact_d3",
    "amplitude_vs_series_d1", "amplitude_vs_series_d2",
    "amplitude_vs_series_d3",
    "asymptotic_constant_identity_d1", "asymptotic_constant_identity_d2",
    "asymptotic_constant_identity_d3",
    "radial_normalization_ginibre_d2", "radial_normalization_sine_d1",
    "radial_normalization_paley-wiener_d2",
    "trace_identity_sine", "hilbert_schmidt_identity_sine",
    "variance_cross_route_sine", "variance_cross_route_pw2",
    *[f"{name}_delta{delta}_Cdelta{c}"
      for delta, c in (("0.1", 10), ("0.25", 4), ("0.5", 2))
      for name in ("psi_approximation", "delta_count", "defect_l1",
                   "variance_vs_mean")],
    "inner_product_identity_max_rel", "rho_mass_conservation",
)


def test_check_line_names_pinned(capsys):
    assert len(CHECK_NAMES) == 30
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"all {len(CHECK_NAMES)} checks passed"
    printed = [line.split()[1] for line in lines[:-1]]
    assert printed == list(CHECK_NAMES)
    assert [c.name for c in checks.self_checks()] == printed


def test_check_subcommand_fault_injection(capsys, monkeypatch):
    # a lens route off by 1e-4 must fail the suite
    exact = checks.lens_volume_exact
    monkeypatch.setattr(checks, "lens_volume_exact",
                        lambda spec: exact(spec) + 1e-4)
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL lens_series_vs_exact_d2" in out


@pytest.mark.parametrize("routine_name, nan_from, failing", [
    ("lens_volume_exact", lambda spec: spec.r > 1, "lens_series_vs_exact"),
    ("_amplitude_series_decimal", lambda d, r: r > 5, "amplitude_vs_series"),
], ids=["lens", "bessel"])
def test_check_fails_a_nan_that_is_not_first(routine_name, nan_from, failing,
                                             capsys, monkeypatch):
    # the NaN sits in the middle of each line's grid, where a builtin max
    # over the errors would drop it; both routines take one point a call
    routine = getattr(checks, routine_name)

    def poisoned(*args):
        return np.where(nan_from(*args), math.nan, routine(*args))

    monkeypatch.setattr(checks, routine_name, poisoned)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL ")]
    assert failed == [name for name in CHECK_NAMES if name.startswith(failing)]
    assert all(" lhs=nan " in line for line in lines
               if line.startswith("FAIL "))
    assert lines[-1] == "3 check(s) failed"


@pytest.mark.parametrize("dim", [2, 3])
def test_check_sees_a_fault_in_the_amplitude(dim, capsys, monkeypatch):
    # the amplitude's trigonometric form one part in 10^6 off in one
    # dimension fails that dimension's amplitude line and no other
    trig = PaleyWienerKernel._trig_amplitude

    def scaled(self, r, s, c):
        out = trig(self, r, s, c)
        return out * (1.0 + 1e-6) if self.dim == dim else out

    monkeypatch.setattr(PaleyWienerKernel, "_trig_amplitude", scaled)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL ")]
    assert failed == [f"amplitude_vs_series_d{dim}"]


def test_check_prints_a_nonfinite_line_as_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "self_checks", lambda: [
        InequalityCheck("finite", 0.5, 1.0, 0.0),
        InequalityCheck("not_a_number", math.nan, 1e-8, 0.0),
        InequalityCheck("unbounded", math.inf, 1e-8, 0.0)])
    assert main(["check"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "PASS finite lhs=0.5 rhs=1 slack=0",
        "FAIL not_a_number lhs=nan rhs=1e-08 slack=0",
        "FAIL unbounded lhs=inf rhs=1e-08 slack=0",
        "2 check(s) failed"]
    assert captured.err == ""


def test_rho_mass_conservation_sees_a_mass_error(sine_run, monkeypatch):
    # rho one part in 10^6 too heavy integrates to N (1 + 1e-6)
    reference = checks.reference_run

    def heavy_run():
        run = reference()
        run.field.rho = run.field.rho * (1.0 + 1e-6)
        return run

    monkeypatch.setattr(checks, "reference_run", heavy_run)
    line = next(c for c in checks.self_checks()
                if c.name == "rho_mass_conservation")
    assert not line.passed
    assert line.lhs == approx(1e-6 * sine_run.field.n_count, rel=1e-3)


def test_check_reports_c_delta(capsys):
    # one line set per threshold: C_delta is 10, 4 and 2 at 0.1, 0.25, 0.5
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    for c_delta in ("Cdelta10", "Cdelta4", "Cdelta2"):
        assert c_delta in out


def test_check_fails_an_operator_trace_off_by_1e_9(capsys, monkeypatch):
    reference = checks.reference_run

    def shifted_run():
        run = reference()
        run.spectral.operator_trace += 1e-9
        return run

    monkeypatch.setattr(checks, "reference_run", shifted_run)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL ")] \
        == ["trace_identity_sine"]
    assert lines[-1] == "1 check(s) failed"


def test_hilbert_schmidt_line_sees_a_truncated_factor(monkeypatch):
    # a factor stopped at 1e-10 of the trace drops three of the reference
    # run's 13 eigenpairs; the counted residual trace keeps the trace
    # identity exact, and the Frobenius norm from kernel blocks does not
    monkeypatch.setattr(discretize, "_RESIDUAL_TRACE_TOL", 1e-10)
    lines = {c.name: c for c in checks.self_checks()}
    assert checks.reference_run().spectral.vectors.shape[1] == 10
    assert lines["trace_identity_sine"].lhs == 0.0
    # measured 2.2e-12, 22 times the bound
    hilbert_schmidt = lines["hilbert_schmidt_identity_sine"]
    assert hilbert_schmidt.lhs > 10.0 * hilbert_schmidt.rhs


def _check_with_radial_variance_scaled(factor, capsys, monkeypatch):
    """The failing line names of ``accspec check`` with every radial-route
    variance multiplied by ``factor``, and its last line."""
    radial = checks.variance_radial
    monkeypatch.setattr(checks, "variance_radial", lambda kernel, radius:
                        SimpleNamespace(value=factor * radial(kernel,
                                                              radius).value))
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    return ([line.split()[1] for line in lines if line.startswith("FAIL ")],
            lines[-1])


def test_check_fails_a_radial_variance_5_percent_high(capsys, monkeypatch):
    assert _check_with_radial_variance_scaled(1.05, capsys, monkeypatch) \
        == (["variance_cross_route_sine", "variance_cross_route_pw2"],
            "2 check(s) failed")


def test_check_fails_a_radial_variance_1e_10_high(capsys, monkeypatch):
    # the line's bound is 1e-12; the reference window measures 7.2e-16
    # and the Paley-Wiener disk 6.6e-15
    assert _check_with_radial_variance_scaled(1 + 1e-10, capsys,
                                              monkeypatch) \
        == (["variance_cross_route_sine", "variance_cross_route_pw2"],
            "2 check(s) failed")


def test_union_region_variance_columns(tmp_path):
    out = tmp_path / "u.json"
    assert main(["variance", "--kernel", "sine", "--region", "union:0:1;3:1",
                 "--R", "2", "--format", "json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["summary"][0]
    # subadditive upper bound dominates the discretized union's variance
    assert row["var_spectral"] <= row["var_radial"] + 1e-6


@pytest.mark.parametrize("argv", [
    ["variance", "--kernel", "sine", "--R", "1,2", "--margin", "-3"],
    ["variance", "--kernel", "sine", "--R", "1,2", "--delta", "7"],
    ["variance", "--kernel", "sine", "--R", "1,2", "--eval-spacing", "-1"],
    ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
     "--R", "2", "--delta", "0.3"],
    ["check", "--delta", "0.5"],
    ["check", "--margin", "5"],
    ["check", "--lens-tol", "1e-9"],
    ["check", "--debug-max-series-terms", "2"],
])
def test_unread_options_are_usage_errors(argv, capsys):
    # options the subcommand would ignore are not accepted at all, and
    # the one error line names the subcommand
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"accspec {argv[0]}: error: unrecognized "
                          f"arguments: {' '.join(argv[-2:])}")
    assert err.count("\n") == 1


def test_spectral_on_beyond_node_cap_is_numerical_failure(capsys):
    argv = ["variance", "--kernel", "sine", "--R", "1,100", "--spectral", "on",
            "--node-cap", "100"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: grid has 8000 nodes, cap is 100\n"
    assert captured.out == ""


def test_spectral_auto_column_is_all_or_nothing(tmp_path):
    # R=1.27 needs 102 nodes: within 5% of the cap, but beyond it
    out = tmp_path / "v.csv"
    assert main(["variance", "--kernel", "sine", "--R", "1,1.27",
                 "--node-cap", "100", "--out", str(out)]) == 0
    assert [row["var_spectral"] for row in _read_summary(out)] == ["", ""]


@pytest.mark.parametrize("argv", [
    ["variance", "--kernel", "ginibre", "--R", "1,2", "--nodes-per-unit",
     "1.5"],
    ["variance", "--kernel", "sine", "--R", "50,100", "--nodes-per-unit",
     "0.1"],
])
def test_spectral_auto_judges_the_grids_it_builds(argv, tmp_path):
    # the grids fit the cap but are coarser than a quarter correlation
    # length, so the column stays empty instead of reading 0
    out = tmp_path / "v.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert [row["var_spectral"] for row in _read_summary(out)] == ["", ""]


def test_spectral_auto_keeps_the_column_at_a_large_node_cap(tmp_path):
    # 19861 nodes: a dense operator would need 5.9 GiB, the low-rank
    # factor needs a few MB, so the run fills both variance columns
    out = tmp_path / "v.csv"
    assert main(["variance", "--kernel", "ginibre", "--R", "1",
                 "--node-cap", "20000", "--out", str(out)]) == 0
    row, = _read_summary(out)
    assert float(row["var_spectral"]) == approx(float(row["var_radial"]),
                                                rel=0.02)


@pytest.mark.parametrize("argv, rel", [
    (["--kernel", "paley-wiener", "--region", "ball:0,0,0:1", "--R", "1,2",
      "--spectral", "on"], 1e-10),
    (["--kernel", "ginibre", "--region", "ball:0,0,0,0:1", "--R", "1"], 1e-4),
], ids=["pw-d3", "ginibre-c2"])
def test_spectral_route_matches_radial_in_three_and_four_dimensions(
        argv, rel, tmp_path):
    # measured gaps: 9.4e-15 and 1.3e-14 (pw d=3), 1.3e-6 (ginibre C^2)
    out = tmp_path / "v.csv"
    assert main(["variance", *argv, "--out", str(out)]) == 0
    for row in _read_summary(out):
        spectral, radial = float(row["var_spectral"]), float(row["var_radial"])
        assert abs(spectral - radial) <= rel * radial


def test_variance_nodes_per_unit_is_read_in_two_dimensions(tmp_path):
    base = ["variance", "--kernel", "ginibre", "--R", "1", "--spectral", "on"]
    runs = {}
    for name, extra in (("default", []), ("npu", ["--nodes-per-unit", "10"])):
        out = tmp_path / f"{name}.csv"
        assert main(base + extra + ["--out", str(out)]) == 0
        runs[name] = out.read_bytes()
    assert runs["npu"] != runs["default"]
    # 10 per unit on the side-2 bounding box is 20 nodes per axis
    disk = Ball(np.zeros(2), 1.0)
    spectral = spectral_decompose(assemble_operator(GinibreKernel(1),
                                                    build_grid(disk, 20)))
    row, = _read_summary(tmp_path / "npu.csv")
    assert float(row["var_spectral"]) == variance_spectral(spectral)


@pytest.mark.parametrize("argv", [
    ["variance", "--kernel", "ginibre", "--R", "1", "--node-cap", "0"],
    ["variance", "--kernel", "ginibre", "--R", "1", "--node-cap", "-5"],
    ["variance", "--kernel", "ginibre", "--R", "1", "--nodes-per-unit", "0"],
    ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
     "--R", "2", "--nodes-per-unit", "-3"],
    ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
     "--R", "2", "--node-cap", "0"],
    ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
     "--R", "2", "--eval-spacing", "0"],
    ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
     "--R", "2", "--eval-spacing", "-1"],
    # the spectral route builds no grid, but the options are still vetted
    *[["variance", "--kernel", "sine", "--R", "1,2", "--spectral", "off",
       *extra] for extra in (["--node-cap", "0"], ["--nodes-per-unit", "-5"],
                             ["--nodes-per-unit", "inf"])],
])
def test_nonpositive_resolution_is_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "must be" in lines[0]


def test_no_variance_route_with_spectral_off(capsys):
    argv = ["variance", "--kernel", "ginibre", "--region", "box:0,0:1,1",
            "--R", "1", "--spectral", "off"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no variance route: ")
    assert "no radial route" in err and "spectral route is off" in err
    assert "cap" not in err


@pytest.mark.parametrize("extra, reason", [
    (["--R", "10", "--nodes-per-unit", "0.25"], "quarter correlation length"),
    (["--R", "1", "--node-cap", "1"], "cap is 1"),
])
def test_no_variance_route_when_auto_drops_the_column(extra, reason, capsys):
    argv = ["variance", "--kernel", "ginibre", "--region", "box:0,0:1,1",
            *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no variance route: ")
    assert "no radial route" in captured.err and reason in captured.err


def test_eval_grid_beyond_cap_is_numerical_failure(capsys):
    argv = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2", "--eval-spacing", "1e-4"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: evaluation grid would need 1640000 nodes, cap is 400000 "
        "(margin 80, spacing 0.0001)\n")


@pytest.mark.parametrize("argv, need, grid", [
    (["--kernel", "sine", "--region", "interval:-1,1", "--R", "1e-200"],
     "1.6e+202", "margin 80, spacing 1e-200"),
    (["--kernel", "ginibre", "--region", "box:0,0:1,1", "--R", "1e-170",
      "--nodes-per-unit", "4e170"], "more than 1.8e+308",
     "margin 6.85, spacing 2.5e-171"),
], ids=["1d", "2d-beyond-float-range"])
def test_tiny_window_gets_the_eval_grid_cap_message(argv, need, grid, capsys):
    # the margin dwarfs the window: the node count must not overflow
    # before it is compared with the cap, and the message names the
    # margin and spacing that set it
    assert main(["spectrogram", *argv]) == 3
    assert capsys.readouterr().err == (
        f"error: evaluation grid would need {need} nodes, cap is 400000 "
        f"({grid})\n")


@pytest.mark.parametrize("argv", [
    ["variance", "--kernel", "ginibre", "--R", "1e200"],
    ["variance", "--kernel", "ginibre", "--region", "box:0,0:1,1",
     "--R", "1e200"],
    # 40 nodes per unit on a disk of radius 1e200: the node count
    # overflows before the grid is coarsened to the node cap
    ["spectrogram", "--kernel", "ginibre", "--region", "ball:0,0:1",
     "--R", "1e200"],
], ids=["ball", "box", "ball-spectrogram"])
def test_window_volume_overflow_names_the_window_volume(argv, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: float overflow: window volume exceeds the float range\n")


@pytest.mark.parametrize("argv, message", [
    (["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
      "--R", "1e308"], "window side exceeds the float range"),
    (["variance", "--kernel", "sine", "--R", "1e308", "--spectral", "on"],
     "window side exceeds the float range"),
    (["variance", "--kernel", "sine", "--R", "1e307", "--spectral", "on"],
     "window side 2e+307 at 40 nodes per unit needs more than 1.8e+308 "
     "nodes per axis"),
], ids=["spectrogram", "variance", "nodes-per-axis"])
def test_window_side_overflow_names_the_window_side(argv, message, capsys):
    # the side is taken in Python floats: no numpy overflow warning, and
    # one line that names the quantity, not an int(inf) conversion
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, need", [
    (["--kernel", "sine", "--R", "1,2", "--nodes-per-unit", "1e300"],
     "2e+300"),
    (["--kernel", "ginibre", "--region", "box:0,0:1,1", "--R", "1,2",
      "--nodes-per-unit", "1e300"], "more than 1.8e+308"),
    (["--kernel", "ginibre", "--R", "1,2", "--nodes-per-unit", "1e300"],
     "more than 1.8e+308"),
    (["--kernel", "ginibre", "--R", "1,2", "--nodes-per-unit", "5e49"],
     "7.85398163397e+99"),
], ids=["1d", "box", "ball", "huge-n"])
def test_window_grid_cap_message_is_one_short_line(argv, need, capsys):
    # the count is printed like the evaluation grid's: 12 significant
    # digits, or a bound past the float range, never a 300-digit integer
    assert main(["variance", *argv, "--spectral", "on"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: grid has {need} nodes, cap is 4096\n"
    assert len(captured.err.encode()) < 200
    assert captured.out == ""


@pytest.mark.parametrize("argv, code", [
    (["variance", "--kernel", "ginibre", "--R", "1"], 0),
    (["variance", "--kernel", "ginibre", "--R", "1", "--spectral", "on"], 3),
    (["variance", "--kernel", "ginibre", "--R", "1", "--nodes-per-unit",
      "17841", "--spectral", "on"], 3),
], ids=["auto", "on", "nodes-per-unit"])
def test_grid_beyond_the_factor_budget_is_refused(argv, code, tmp_path,
                                                  capsys):
    # a 10^9 node cap admits a 1e9-node disk (35682 nodes per axis, the
    # finest within the cap, and 17841 per unit on its side-2 box), whose
    # nodes alone would take 7.45 GiB and which no low-rank factor within
    # 1 GiB can hold: auto drops the spectral column, the others end in
    # one error line (a ladder instead coarsens to a grid a factor can
    # hold, test_spectrogram.test_ladder_coarsens_to_the_factor_budget)
    out = tmp_path / "v.csv"
    assert main(argv + ["--node-cap", "1000000000", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        row, = _read_summary(out)
        assert row["var_spectral"] == "" and float(row["var_radial"]) > 0
    else:
        assert err == ("error: grid has 999970209 nodes, more than a "
                       "low-rank factor within 1.00 GiB holds\n")
        assert not out.exists()


def test_mode_count_message_is_one_short_line(capsys, monkeypatch):
    # the count is 2e150 / pi: printed to 12 significant digits, not as
    # a 150-digit integer, and refused before any factor of the grid
    def no_factor(operator):
        raise AssertionError("spectral_decompose called")

    monkeypatch.setattr(spectrogram, "spectral_decompose", no_factor)
    assert main(["spectrogram", "--kernel", "sine", "--region",
                 "interval:-1,1", "--R", "1e150"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: 4096 window nodes cannot supply "
                            "N = 6.36619772368e+149 modes\n")
    assert len(captured.err.encode()) < 200
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_nonfinite_output_is_numerical_failure(fmt, capsys, monkeypatch):
    def nan_ratio(kernel, region, scales, **kwargs):
        return [CurvePoint(scale=1.0, e_count=1.0, var_spectral=None,
                           var_radial=0.5, ratio=math.nan)]

    monkeypatch.setattr(cli, "hyperuniformity_curve", nan_ratio)
    argv = ["variance", "--kernel", "sine", "--R", "1", "--format", fmt]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: refusing to emit a non-finite value\n"
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", ["rho", "target"])
def test_nonfinite_field_leaves_no_file(column, fmt, tmp_path, capsys,
                                        monkeypatch):
    snapshot = cli.dilation_snapshot

    def poisoned(*args, **kwargs):
        row = snapshot(*args, **kwargs)
        getattr(row.field, column)[0] = math.nan
        return row

    monkeypatch.setattr(cli, "dilation_snapshot", poisoned)
    out = tmp_path / f"run.{fmt}"
    assert main(["spectrogram", "--kernel", "sine", "--region",
                 "interval:-1,1", "--R", "2", "--nodes-per-unit", "10",
                 "--format", fmt,
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "error: refusing to emit a non-finite value\n"
    assert list(tmp_path.iterdir()) == []


FIELD_HEADER = ("R", "x1", "rho", "target")
FIELD_TABLE = np.array([[-0.0, 5e-324, 1e22, 2.0],
                        [1.0, 0.1, 1 / 3, 1e-300],
                        [3.0, -7.0, 2.0 ** 53 + 2, 0.0]])


@pytest.mark.parametrize("doc", [
    {"summary": [{"R": 1.0, "N": 3, "err_raw": None}],
     "fields": (FIELD_HEADER, FIELD_TABLE)},
    {"summary": [], "fields": (FIELD_HEADER, np.empty((0, 4)))},
    {"summary": [{"R": 2.0, "var_spectral": None, "ratio": 0.5}],
     "fit": {"slope": 1.5, "window_low": 10.0}},
    {"summary": [{"R": 2.0}], "fields": (FIELD_HEADER, FIELD_TABLE[:1]),
     "fit": {"warning": "radii span less than a decade"}},
], ids=["fields", "empty-fields", "fit", "fields-and-fit"])
def test_json_text_is_the_json_module_text(doc, tmp_path):
    # the spliced field rows read exactly as json.dumps writes row objects
    expected = dict(doc)
    if "fields" in doc:
        header, table = doc["fields"]
        expected["fields"] = [dict(zip(header, row))
                              for row in table.tolist()]
    out = tmp_path / "doc.json"
    cli.write_json(out, doc)
    assert out.read_text(encoding="utf-8") == json.dumps(
        {"version": cli.__version__, **expected}, indent=2) + "\n"


@pytest.mark.parametrize("where", ["summary", "fields", "fit"])
def test_nan_in_a_json_document_leaves_no_file(where, tmp_path):
    summary, table, fit = [(1.0,)], FIELD_TABLE.copy(), {"slope": 1.5}
    if where == "summary":
        summary = [(math.nan,)]
    elif where == "fields":
        table[-1, -1] = math.nan
    else:
        fit = {"slope": math.nan}
    args = SimpleNamespace(format="json", out=tmp_path / "run.json")
    with pytest.raises(cli.NonFiniteOutputError):
        cli.write_tables(args, ("R",), summary, fields=(FIELD_HEADER, table),
                         fit=fit)
    assert list(tmp_path.iterdir()) == []


def test_field_values_are_written_exactly(tmp_path):
    # CSV cells are 17 significant digits, JSON numbers are float repr;
    # both read back to the same float, signed zero and subnormal included
    values = [-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 2.0 ** 53 + 2, 1e22]
    header = ("R", "x1", "rho", "target")
    table = np.array([[values[(i + j) % len(values)]
                       for j in range(len(header))]
                      for i in range(len(values))])
    for fmt in ("csv", "json"):
        args = SimpleNamespace(format=fmt, out=tmp_path / f"run.{fmt}")
        cli.write_tables(args, ("R",), [(1.0,)], fields=(header, table))
    lines = (tmp_path / "run.fields.csv").read_text().splitlines()
    assert lines[1] == ",".join(header)
    csv_cells = [line.split(",") for line in lines[2:]]
    doc = json.loads((tmp_path / "run.json").read_text(),
                     parse_float=lambda text: text)
    json_cells = [[row[key] for key in header] for row in doc["fields"]]
    for row, csv_row, json_row in zip(table.tolist(), csv_cells, json_cells,
                                      strict=True):
        for value, csv_cell, json_cell in zip(row, csv_row, json_row,
                                              strict=True):
            assert csv_cell == format(value, ".17g")
            assert json_cell == json.dumps(value)
            for text in (csv_cell, json_cell):
                assert repr(float(text)) == repr(value)


@pytest.mark.parametrize("target, reason", [
    ("missing/dir/x.csv", "No such file or directory"),
    ("", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_unwritable_out_is_usage_error(target, reason, tmp_path, capsys):
    out = tmp_path / target
    assert main(["variance", "--kernel", "sine", "--R", "1,2",
                 "--spectral", "off", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"


def test_window_mask_is_built_once_per_eval_grid(tmp_path, monkeypatch):
    calls = []
    contains = Box.contains_points

    def counted(self, points):
        calls.append(len(points))
        return contains(self, points)

    monkeypatch.setattr(Box, "contains_points", counted)
    assert main(["spectrogram", "--kernel", "sine", "--region",
                 "interval:-1,1", "--R", "2,4",
                 "--out", str(tmp_path / "run.csv")]) == 0
    assert len(calls) == 2


def _csv_tables(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def test_json_and_csv_carry_the_same_tables(tmp_path):
    args = ["spectrogram", "--kernel", "sine", "--region", "interval:-1,1",
            "--R", "2,4", "--nodes-per-unit", "25", "--margin", "6"]
    assert main(args + ["--out", str(tmp_path / "run.csv")]) == 0
    assert main(args + ["--format", "json",
                        "--out", str(tmp_path / "run.json")]) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    for name, rows in (("run.csv", doc["summary"]),
                       ("run.fields.csv", doc["fields"])):
        from_csv = [{k: float(v) for k, v in row.items()}
                    for row in _csv_tables(tmp_path / name)]
        from_json = [{k: float(v) for k, v in row.items()} for row in rows]
        assert len(from_csv) > 0
        assert [list(row) for row in from_csv] == [list(row) for row in from_json]
        assert from_csv == from_json
