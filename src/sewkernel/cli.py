"""Batch front-end: `sewkernel eval|check|sweep --config cfg.json [--out path]
[--format json|csv]`.

The config file is a JSON object with

    {
      "target": "<operation name>",
      "parameters": { ... },          # complex values as {"re": .., "im": ..}
      "tolerance": 1e-6,              # check targets only
      "sweep": {"axes": [{"name": "...", "values": [..]} , ...]}   # sweep only
    }

Complex numbers are {re, im} objects everywhere (input and output); CSV uses
two columns per complex quantity.  Exit status: 0 = pass/success,
1 = numerical check failure, 2 = validation error.  Sweep points run in
order in the calling thread and share the surface cache (szego._surface).
Every output embeds schema, the full input configuration and the branch
record, so reruns are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from .determinants import det_I_minus, det_inv_sqrt_I_minus_R
from .genus2 import domain_check, s2_eval, sewing_multiplier_residual
from .modular import GroupElement, invariance_residual
from .partition import (
    fock_sum_oracle,
    frobenius_residual,
    gen1_form,
    gen2_form,
    triple_product_residual,
    z1_twisted_2pt,
    z2_fermionic,
    z2_heisenberg,
)
from .szego import SewingConfig, TwistConfig, build_T, s_kappa

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit status 2)."""


def _as_complex(v, name):
    if isinstance(v, dict):
        try:
            return complex(float(v["re"]), float(v.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad complex value for {name}: {v!r}") from exc
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ConfigError(f"bad complex value for {name}: {v!r}")


def _complex_list(params, name):
    values = params[name]
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list of complex values, got {values!r}")
    return [_as_complex(v, name) for v in values]


def _c_out(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _encode(obj):
    """JSON-encode with complex -> {re, im} conversion, recursively."""
    if isinstance(obj, complex):
        return _c_out(obj)
    if isinstance(obj, (np.complexfloating,)):
        return _c_out(complex(obj))
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _build_configs(params):
    """(SewingConfig, TwistConfig) from the parameter dictionary."""
    required = ("tau", "w", "rho")
    for key in required:
        if key not in params:
            raise ConfigError(f"missing required parameter {key!r}")
    tau = _as_complex(params["tau"], "tau")
    w = _as_complex(params["w"], "w")
    rho = _as_complex(params["rho"], "rho")
    ok, margin, _ = domain_check(tau, w, rho)
    if not ok:
        raise ConfigError(
            f"(tau, w, rho) outside the sewing domain (margin {margin:g})"
        )
    kwargs = {}
    for key in ("r1", "r2"):
        if key in params:
            kwargs[key] = float(params[key])
    if "log_rho" in params:
        kwargs["log_rho"] = _as_complex(params["log_rho"], "log_rho")
    for key in ("branch_n1", "branch_n2"):
        if key in params:
            kwargs[key] = int(params[key])
    try:
        sew = SewingConfig(tau, w, rho, **kwargs)
        tw = TwistConfig(
            alpha1=float(params.get("alpha1", 0.0)),
            beta1=float(params.get("beta1", 0.0)),
            beta2=float(params.get("beta2", 0.0)),
            kappa=float(params.get("kappa", 0.0)),
            B=int(params.get("B", 1)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sew, tw


def _branch_record(sew, tw):
    return {
        "B": tw.B,
        "log_rho": _c_out(sew.log_rho),
        "sqrt_rho": _c_out(sew.sqrt_rho),
        "branch_n1": sew.branch_n1,
        "branch_n2": sew.branch_n2,
    }


def _np_quad(params):
    return int(params.get("N", 16)), int(params.get("quad_M", 256))


# ---------------------------------------------------------------- eval targets


def _eval_target(target, params):
    sew, tw = _build_configs(params)
    N, quad_M = _np_quad(params)
    meta = {"N": N, "quad_M": quad_M}
    if target == "z2_fermionic":
        value = z2_fermionic(sew, tw, N, quad_M)
    elif target == "z2_heisenberg":
        value = z2_heisenberg(sew, N)
    elif target == "z1_twisted_2pt":
        value = z1_twisted_2pt(sew, tw)
    elif target == "det_I_minus_T":
        res = det_I_minus(build_T(N, sew, tw, quad_M), method=params.get("method", "lu"))
        value = res.value
        meta["method"] = res.method
        meta["est_error"] = res.est_error
    elif target == "det_inv_sqrt_I_minus_R":
        value = det_inv_sqrt_I_minus_R(N, sew)
    elif target == "s_kappa":
        value = s_kappa(_as_complex(params["x"], "x"), _as_complex(params["y"], "y"), sew, tw)
    elif target == "s2_eval":
        ev = s2_eval(
            _as_complex(params["x"], "x"), _as_complex(params["y"], "y"), sew, tw, N, quad_M
        )
        value = ev.value
    elif target == "fock_sum":
        value = fock_sum_oracle(float(params.get("W", 3)), sew, tw, quad_M)
        meta["W"] = float(params.get("W", 3))
    elif target == "gen1_form":
        xs, ys = _complex_list(params, "xs"), _complex_list(params, "ys")
        value = gen1_form(xs, ys, sew, tw)
    elif target == "gen2_form":
        xs, ys = _complex_list(params, "xs"), _complex_list(params, "ys")
        value = gen2_form(xs, ys, sew, tw, N, quad_M)
    else:
        raise ConfigError(f"unknown eval target {target!r}")
    return value, meta, _branch_record(sew, tw)


# --------------------------------------------------------------- check targets


_CHECK_TARGETS = ("frobenius", "triple_product", "sewing_multiplier", "invariance",
                  "det_cross_method")


def _check_target(target, params, tolerance):
    if target not in _CHECK_TARGETS:
        raise ConfigError(f"unknown check target {target!r}")
    trace = []
    if target == "frobenius":
        tau = _as_complex(params["tau"], "tau")
        xs, ys = _complex_list(params, "xs"), _complex_list(params, "ys")
        residual = frobenius_residual(
            xs, ys, float(params.get("alpha1", 0.0)), float(params.get("beta1", 0.0)), tau
        )
        return residual, bool(residual < tolerance), trace, None
    sew, tw = _build_configs(params)
    N, quad_M = _np_quad(params)
    if target == "triple_product":
        residual = triple_product_residual(sew, tw, N, quad_M)
    elif target == "sewing_multiplier":
        residual, sign = sewing_multiplier_residual(
            _as_complex(params["x_loc"], "x_loc"),
            int(params.get("a", 1)),
            _as_complex(params["y"], "y"),
            sew,
            tw,
            N,
            quad_M,
        )
        trace.append({"multiplier_exponent_sign": sign})
    elif target == "invariance":
        generator = params.get("generator", "T")
        if not isinstance(generator, str):
            raise ConfigError(f"generator must be a string, got {generator!r}")
        try:
            g = GroupElement.from_string(generator)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        chi_scale = complex(float(params.get("chi_scale", 1.0)))
        residual, det_only = invariance_residual(
            g, sew, tw, N, quad_M, chi_scale=chi_scale
        )
        trace.append({"det_residual": det_only, "chi_scale": float(chi_scale.real)})
    else:  # det_cross_method
        T = build_T(N, sew, tw, quad_M)
        d1 = det_I_minus(T, method="trace_log").value
        d2 = det_I_minus(T, method="lu").value
        residual = abs(d1 / d2 - 1.0)
        trace.append({"trace_log": _c_out(d1), "lu": _c_out(d2)})
    return residual, bool(residual < tolerance), trace, _branch_record(sew, tw)


# ---------------------------------------------------------------------- sweep


def _axis_values(axis):
    if "values" in axis:
        return [float(v) for v in axis["values"]]
    try:
        start, stop, num = float(axis["start"]), float(axis["stop"]), int(axis["num"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep axis {axis!r}") from exc
    if num < 1:
        raise ConfigError("sweep axis needs at least one point")
    if axis.get("log", False):
        return list(np.geomspace(start, stop, num))
    return list(np.linspace(start, stop, num))


def _apply_axis(params, name, value):
    """Set a (possibly complex-component) parameter by axis name."""
    params = dict(params)
    if name.endswith("_abs"):
        base = name[: -len("_abs")]
        z = _as_complex(params.get(base, 0.0), base)
        phase = z / abs(z) if z != 0 else 1.0
        params[base] = _c_out(value * phase)
    elif name.endswith("_re") or name.endswith("_im"):
        base, part = name[:-3], name[-2:]
        z = _as_complex(params.get(base, 0.0), base)
        re, im = z.real, z.imag
        if part == "re":
            re = value
        else:
            im = value
        params[base] = {"re": re, "im": im}
    else:
        params[name] = value
    return params


def _sweep(cfg):
    target = cfg.get("target")
    params = cfg.get("parameters", {})
    sweep = cfg.get("sweep")
    axes = sweep.get("axes") if isinstance(sweep, dict) else None
    if not isinstance(axes, list) or not axes:
        raise ConfigError("sweep command requires a non-empty sweep.axes list")
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")
    if not all(isinstance(ax, dict) and isinstance(ax.get("name"), str) for ax in axes):
        raise ConfigError(f"each sweep axis must be an object with a string name, got {axes!r}")
    grids = [(_ax["name"], _axis_values(_ax)) for _ax in axes]
    points = [[v] for v in grids[0][1]]
    if len(grids) == 2:
        points = [[u, v] for u in grids[0][1] for v in grids[1][1]]
    if not points:
        raise ConfigError("empty sweep grid")
    if len(points) > 10_000:
        raise ConfigError(f"sweep grid too large ({len(points)} > 10000 points)")
    tolerance = float(cfg.get("tolerance", np.inf))
    is_check = target in _CHECK_TARGETS

    def run_one(vals):
        local = params
        for (name, _), v in zip(grids, vals):
            local = _apply_axis(local, name, v)
        row = {name: v for (name, _), v in zip(grids, vals)}
        if is_check:
            residual, passed, _, _ = _check_target(target, local, tolerance)
            row["residual"] = residual
            row["passed"] = passed
        else:
            value, _, _ = _eval_target(target, local)
            row["value"] = complex(value)
        return row

    return [run_one(vals) for vals in points]


# --------------------------------------------------------------------- output


def _rows_to_csv(rows):
    buf = io.StringIO()
    if not rows:
        return ""
    cols = []
    for key, val in rows[0].items():
        if isinstance(val, complex):
            cols.extend([(key, "re"), (key, "im")])
        else:
            cols.append((key, None))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([k if p is None else f"{k}_{p}" for k, p in cols])
    for row in rows:
        out = []
        for key, part in cols:
            val = row[key]
            if part is None:
                out.append(val)
            else:
                out.append(getattr(complex(val), "real" if part == "re" else "imag"))
        writer.writerow(out)
    return buf.getvalue()


def _emit(document, rows, out_path, fmt):
    if fmt == "csv":
        text = _rows_to_csv(rows)
    else:
        text = json.dumps(_encode(document), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message, out_path, fmt):
    doc = {"schema": SCHEMA_VERSION, "error": message}
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stderr.write(text)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sewkernel",
        description="Genus-two sewing-kernel evaluations, identity checks and sweeps.",
    )
    parser.add_argument("command", choices=("eval", "check", "sweep"))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--format", default="json", choices=("json", "csv"))
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read config: {exc}", args.out, args.format)

    if not isinstance(cfg, dict):
        return _fail("config must be a JSON object", args.out, args.format)
    target = cfg.get("target")
    if not target:
        return _fail("config is missing 'target'", args.out, args.format)
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        return _fail("'parameters' must be a JSON object", args.out, args.format)
    t0 = time.perf_counter()
    try:
        if args.command == "eval":
            value, meta, branch = _eval_target(target, params)
            doc = {
                "schema": SCHEMA_VERSION,
                "command": "eval",
                "target": target,
                "inputs": cfg,
                "value": complex(value),
                "metadata": meta,
                "branch": branch,
                "elapsed_s": time.perf_counter() - t0,
            }
            _emit(doc, [{"target": target, "value": complex(value)}], args.out, args.format)
            return 0
        if args.command == "check":
            tolerance = float(cfg.get("tolerance", 1e-6))
            residual, passed, trace, branch = _check_target(target, params, tolerance)
            doc = {
                "schema": SCHEMA_VERSION,
                "command": "check",
                "target": target,
                "inputs": cfg,
                "residual": residual,
                "tolerance": tolerance,
                "passed": passed,
                "trace": trace,
                "branch": branch,
                "elapsed_s": time.perf_counter() - t0,
            }
            _emit(
                doc,
                [{"target": target, "residual": residual, "passed": passed}],
                args.out,
                args.format,
            )
            return 0 if passed else 1
        # sweep
        rows = _sweep(cfg)
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "sweep",
            "target": target,
            "inputs": cfg,
            "rows": [dict(r) for r in rows],
            "elapsed_s": time.perf_counter() - t0,
        }
        _emit(doc, rows, args.out, args.format)
        if all(r.get("passed", True) for r in rows):
            return 0
        return 1
    except ConfigError as exc:
        return _fail(str(exc), args.out, args.format)
    except (ValueError, RuntimeError, KeyError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}", args.out, args.format)


if __name__ == "__main__":
    sys.exit(main())
