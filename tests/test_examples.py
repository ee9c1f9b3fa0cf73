"""The shipped example configurations and scripts run end to end."""

import importlib.util
import json
from pathlib import Path

from sewkernel.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_examples_run(tmp_path, capsys):
    for name, command in (
        ("eval_z2", "eval"),
        ("check_invariance", "check"),
        ("sweep_rho_ray", "sweep"),
    ):
        out = tmp_path / f"{name}.json"
        assert main([command, "--config", str(SCRIPTS / "configs" / f"{name}.json"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == command
    assert _script("rho_ray_scan").main(["--steps", "3"]) == 0
    assert "decay exponents" in capsys.readouterr().out


def test_modular_residual_table_runs(capsys):
    assert _script("modular_residual_table").main([]) == 0
    assert "worst residual" in capsys.readouterr().out


def test_fock_convergence_runs(capsys):
    assert _script("fock_convergence").main(["--wmax", "2"]) == 0
    assert "contraction factors" in capsys.readouterr().out
