"""Smoke runs of the experiment scripts, which no other test imports."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_variance_asymptotics_script(tmp_path, capsys):
    script = _load("variance_asymptotics")
    assert script.run(tmp_path, [1], "10:100:log6") == 0
    text = (tmp_path / "variance_asymptotics_d1.csv").read_text()
    assert "# fit_slope: " in text
    assert "d=1:" in capsys.readouterr().out


def test_convergence_experiment_script(tmp_path, capsys):
    script = _load("convergence_experiment")
    assert script.run(tmp_path) == 0
    for name in ("sine", "ginibre"):
        lines = (tmp_path / f"convergence_{name}.csv").read_text().splitlines()
        assert lines[1].startswith("R,trace,N,")
        assert len(lines) > 2
        assert (tmp_path / f"convergence_{name}.fields.csv").exists()
    assert "err_normalized=" in capsys.readouterr().out
