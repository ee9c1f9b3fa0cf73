"""Self-test of the benchmark's checks.

    python3 sewbench/selftest.py

For one operation of each workload it shows that every check passes on the
program's output, and that each check fails once the program value it looks
at is perturbed (for example T[0,0] * (1 + 1e-8)).  The invariance check is
perturbed through the CLI's own `chi_scale` parameter.  Exits 1 if any
check does not behave so.  Takes about a minute.
"""

import json
import os
import sys

import run


def scaled(eps):
    return lambda v: v * (1.0 + eps)


# check name -> (observed value it looks at, perturbation of that value)
PERTURB = {
    "partition_cold": {
        "T[0,0] vs mpmath": ("T00", scaled(1e-8)),
        "T[N,N] vs mpmath": ("TNN", scaled(1e-8)),
        "det(I-T) trace-log vs LU": ("det_tl", scaled(1e-8)),
        "z1_twisted_2pt vs mpmath": ("z1", scaled(1e-8)),
        "z2_fermionic vs mpmath prefactor * z1 * LU det": ("zf", scaled(1e-8)),
        "det(I-T) leading order": ("det_lu", scaled(1e-2)),
        "z2_heisenberg*eta leading order": ("zh", scaled(1e-5)),
    },
    "kernel_warm": {
        "gen2_form = z2_fermionic * det[S2(x_i, y_j)]": ("gen2", scaled(1e-8)),
        # a relative error of 1e-8 in one of the two identified kernel
        # values moves the normalised residual by about 1e-8
        "sewing multiplier residual": ("multiplier_residual", lambda v: v + 1e-8),
    },
    "modular_sweep": {
        "sweep exit status": ("exit_status", lambda v: 1),
        "sweep grid size": ("rows", lambda v: v - 1),
    },
}


def main():
    run.import_package()
    import workloads as wl

    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    seed = 7
    for name in run.WORKLOADS:
        workload = run.make_workload(name, seed)
        try:
            workload.setup(0)
            out = workload.op(workload.prepare(0))
            obs = workload.observe(out, 0)
            base = workload.judge(obs, out, 0)
            for c in base:
                expect(c.ok, f"{name}: {c.name} passes on program output ({c.deviation:.2e})")
            for check_name, (key, change) in PERTURB[name].items():
                bad = dict(obs, **{key: change(obs[key])})
                got = {c.name: c for c in workload.judge(bad, out, 0)}
                c = got[check_name]
                expect(not c.ok, f"{name}: {check_name} fails with {key} perturbed "
                                 f"({c.deviation:.2e} > {c.tolerance:.0e})")
            if name == "modular_sweep":
                # Zhat(g.p) / (chi * Zhat(p)) - 1 with chi scaled by 1 + 1e-4
                cfg = workload.config(0)
                cfg["parameters"]["chi_scale"] = 1.0 + 1e-4
                with open(workload.cfg_path, "w") as fh:
                    json.dump(cfg, fh)
                out2 = workload.op(out[0])
                got = {c.name: c for c in workload.check(out2, 0)}
                c = got[f"invariance residual ({out[0]})"]
                expect(not c.ok and out2[1] == 1,
                       f"{name}: invariance residual fails with chi scaled by 1 + 1e-4 "
                       f"({c.deviation:.2e} > {c.tolerance:.0e}, exit status {out2[1]})")
        finally:
            workload.cleanup()
        wl.reset_caches()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
