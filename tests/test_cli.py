"""End-to-end tests of the command-line front-end."""

import json

import pytest

from sewkernel.cli import main

BASE_PARAMS = {
    "tau": {"re": 0.3, "im": 1.1},
    "w": {"re": 0.5, "im": 2.2},
    "rho": {"re": 1e-3, "im": 0.0},
    "alpha1": 0.15,
    "beta1": 0.25,
    "beta2": 0.1,
    "kappa": 0.2,
    "N": 8,
    "quad_M": 96,
}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg, fmt="json", name="cfg.json"):
    cfg_path = _write(tmp_path, name, cfg)
    out_path = tmp_path / "out.txt"
    code = main([command, "--config", cfg_path, "--out", str(out_path), "--format", fmt])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def test_eval_json_schema_and_determinism(tmp_path):
    cfg = {"target": "z2_fermionic", "parameters": BASE_PARAMS}
    code1, text1 = _run(tmp_path, "eval", cfg)
    code2, text2 = _run(tmp_path, "eval", cfg)
    assert code1 == 0 and code2 == 0
    # reruns are bit-identical in every numeric field except the timing
    d1, d2 = json.loads(text1), json.loads(text2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2
    doc = json.loads(text1)
    assert doc["schema"] == 1
    assert set(doc["value"]) == {"re", "im"}
    assert doc["inputs"]["parameters"]["tau"]["im"] == 1.1
    assert doc["branch"]["B"] == 1
    assert "log_rho" in doc["branch"]


def test_eval_rejects_invalid_rho(tmp_path):
    cfg = {"target": "z2_fermionic", "parameters": dict(BASE_PARAMS, rho=0.0)}
    code, _ = _run(tmp_path, "eval", cfg)
    assert code == 2


@pytest.mark.parametrize("target", ["z2_fermionic", "z2_heisenberg"])
def test_eval_rejects_zero_truncation(tmp_path, target):
    # N = 0 used to exit 0 with only the prefactor (or 1/eta) as the value
    cfg = {"target": target, "parameters": dict(BASE_PARAMS, N=0)}
    code, text = _run(tmp_path, "eval", cfg)
    assert code == 2
    assert "integer >= 1" in text


def test_eval_unknown_target(tmp_path):
    cfg = {"target": "no_such_thing", "parameters": BASE_PARAMS}
    code, _ = _run(tmp_path, "eval", cfg)
    assert code == 2


def test_check_pass_and_exit_codes(tmp_path):
    cfg = {
        "target": "det_cross_method",
        "tolerance": 1e-9,
        "parameters": BASE_PARAMS,
    }
    code, text = _run(tmp_path, "check", cfg)
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True and doc["residual"] < 1e-9


def test_check_perturbed_character_fails(tmp_path):
    cfg = {
        "target": "invariance",
        "tolerance": 1e-6,
        "parameters": dict(BASE_PARAMS, generator="T", chi_scale=1.01),
    }
    code, text = _run(tmp_path, "check", cfg)
    assert code == 1
    doc = json.loads(text)
    assert abs(doc["residual"] - abs(1.0 / 1.01 - 1.0)) < 1e-4


@pytest.mark.parametrize("m", [-1, 0, 1])
def test_check_invariance_reads_the_configured_windings(tmp_path, m):
    # the lift winding m is not read; the windings and radii of the config are
    params = dict(BASE_PARAMS, generator="A S", m=m, branch_n1=1, branch_n2=-1, r1=0.3, r2=0.3)
    cfg = {"target": "invariance", "tolerance": 1e-8, "parameters": params}
    code, text = _run(tmp_path, "check", cfg)
    assert code == 0
    branch = json.loads(text)["branch"]
    assert (branch["branch_n1"], branch["branch_n2"]) == (1, -1)


def test_eval_det_defaults_to_lu_and_trace_log_agrees(tmp_path):
    # spectral radius of T 0.878, Frobenius norm 0.891: the trace-log series
    # converges slowly here, its sum over the eigenvalues agrees with LU
    params = {
        "tau": {"re": -0.2415, "im": 1.1224},
        "w": {"re": 1.7420, "im": -1.4806},
        "rho": {"re": 8.59e-5, "im": -7.27e-4},
        "alpha1": 0.381,
        "beta1": 0.396,
        "beta2": -0.190,
        "kappa": -0.278,
        "N": 12,
        "quad_M": 128,
    }
    code, text = _run(tmp_path, "eval", {"target": "det_I_minus_T", "parameters": params})
    assert code == 0
    doc = json.loads(text)
    assert doc["metadata"]["method"] == "lu"
    lu = complex(doc["value"]["re"], doc["value"]["im"])
    assert abs(lu - (1.6204 + 0.6214j)) < 1e-4
    cfg = {"target": "det_I_minus_T", "parameters": dict(params, method="trace_log")}
    code, text = _run(tmp_path, "eval", cfg)
    assert code == 0
    doc = json.loads(text)
    assert doc["metadata"]["method"] == "trace_log"
    assert abs(complex(doc["value"]["re"], doc["value"]["im"]) / lu - 1.0) < 1e-12


def test_check_frobenius(tmp_path):
    cfg = {
        "target": "frobenius",
        "tolerance": 1e-9,
        "parameters": {
            "tau": {"re": 0.3, "im": 1.1},
            "alpha1": 0.2,
            "beta1": 0.3,
            "xs": [{"re": 0.6, "im": 2.0}, {"re": -0.9, "im": 1.1}],
            "ys": [{"re": 1.2, "im": 0.7}, {"re": 0.2, "im": 3.0}],
        },
    }
    code, text = _run(tmp_path, "check", cfg)
    assert code == 0
    assert json.loads(text)["passed"] is True


def test_sweep_csv_output(tmp_path):
    cfg = {
        "target": "det_I_minus_T",
        "parameters": BASE_PARAMS,
        "sweep": {
            "axes": [
                {"name": "rho_abs", "start": 1e-2, "stop": 1e-4, "num": 3, "log": True}
            ]
        },
    }
    code, text = _run(tmp_path, "sweep", cfg, fmt="csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "rho_abs,value_re,value_im"
    assert len(lines) == 4
    # [DERIVED] det(I - T) -> 1 monotonically along the rho ray
    import csv as _csv

    rows = list(_csv.DictReader(lines))
    devs = [abs(complex(float(r["value_re"]), float(r["value_im"])) - 1.0) for r in rows]
    assert devs[0] > devs[1] > devs[2]


def test_sweep_empty_grid_rejected(tmp_path):
    cfg = {
        "target": "det_I_minus_T",
        "parameters": BASE_PARAMS,
        "sweep": {"axes": [{"name": "kappa", "values": []}]},
    }
    code, _ = _run(tmp_path, "sweep", cfg)
    assert code == 2


def test_sweep_grid_size_guard(tmp_path):
    cfg = {
        "target": "det_I_minus_T",
        "parameters": BASE_PARAMS,
        "sweep": {
            "axes": [
                {"name": "kappa", "start": -0.4, "stop": 0.4, "num": 200},
                {"name": "beta2", "start": 0.0, "stop": 0.9, "num": 200},
            ]
        },
    }
    code, _ = _run(tmp_path, "sweep", cfg)
    assert code == 2


def test_sweep_respects_thread_env(tmp_path):
    cfg = {
        "target": "z2_fermionic",
        "parameters": BASE_PARAMS,
        "sweep": {"axes": [{"name": "kappa", "values": [0.1, 0.2]}]},
    }
    code, text = _run(tmp_path, "sweep", cfg)
    assert code == 0
    doc = json.loads(text)
    assert len(doc["rows"]) == 2


def test_missing_config_file(tmp_path):
    code = main(["eval", "--config", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("eval", [{"target": "z2_fermionic", "parameters": BASE_PARAMS}]),
        ("eval", {"target": "gen1_form", "parameters": dict(BASE_PARAMS, xs=3, ys=[1.0])}),
        ("check", {"target": "invariance", "parameters": dict(BASE_PARAMS, generator=5)}),
        ("sweep", {"target": "z2_fermionic", "parameters": BASE_PARAMS, "sweep": {"axes": [5]}}),
    ],
    ids=["top-level list", "xs not a list", "generator not a string", "axis not an object"],
)
def test_malformed_config_is_invalid_input(tmp_path, command, cfg):
    # each of these used to end in a traceback and exit status 1, the
    # status of a failed check
    code, text = _run(tmp_path, command, cfg)
    assert code == 2
    assert set(json.loads(text)) == {"schema", "error"}
