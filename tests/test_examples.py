"""The shipped example configurations and scripts run end to end."""

import importlib.util
import json
from pathlib import Path

from sewkernel.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_shipped_examples_run(tmp_path, capsys):
    for name, command in (
        ("eval_z2", "eval"),
        ("check_invariance", "check"),
        ("sweep_rho_ray", "sweep"),
    ):
        out = tmp_path / f"{name}.json"
        assert main([command, "--config", str(SCRIPTS / "configs" / f"{name}.json"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == command
    spec = importlib.util.spec_from_file_location("rho_ray_scan", SCRIPTS / "rho_ray_scan.py")
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    assert scan.main(["--steps", "3"]) == 0
    assert "decay exponents" in capsys.readouterr().out
