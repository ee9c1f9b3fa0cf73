"""The three workloads: seeded inputs, set-up, one operation, output checks.

Every input is a function of (seed, workload, index) only, so a seed gives
the same inputs in every run however long the run is.  Each workload checks
its outputs against the mpmath references in `references.py` and against
properties proved in the paper, never against stored program output.

A check returns a `Check`: a deviation, the tolerance it must stay within,
and whether the deviation is a relative error against a reference or
identity (those make up `accuracy_digits`) or a pass/fail property bound.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import sewkernel as sk
from sewkernel import cli

import references as ref

N = 16
QUAD_M = 256
TWO_PI = 2.0 * np.pi

# w sits at this fraction of D(q) = 2*pi from its nearest lattice point in
# partition_cold.  z2_heisenberg overflows in eisenstein once w is beyond
# about 0.7 * D(q), and its cost grows steeply with the fraction, so it is
# held fixed to keep the cost of one operation the same from seed to seed.
W_FRACTION = 0.27


@dataclass
class Check:
    name: str
    deviation: float
    tolerance: float
    accuracy: bool  # True: a relative deviation that enters accuracy_digits

    @property
    def ok(self):
        return bool(np.isfinite(self.deviation) and self.deviation <= self.tolerance)


def rel_check(name, got, want, tol):
    return Check(name, abs(complex(got) - complex(want)) / abs(complex(want)), tol, True)


def bound_check(name, got, want, bound):
    return Check(name, abs(complex(got) - complex(want)), bound, False)


def _json_complex(z):
    return {"re": complex(z).real, "im": complex(z).imag}


def _rng(seed, tag, index):
    return np.random.default_rng([int(seed), tag, int(index)])


def _tau(rng, im_lo=1.1, im_hi=1.3):
    """tau near the standard fundamental domain with |tau| > 1, so the
    shortest lattice vector is 2*pi*i and D(q) = 2*pi."""
    return complex(rng.uniform(-0.25, 0.25), rng.uniform(im_lo, im_hi))


def _twist(rng):
    return sk.TwistConfig(
        alpha1=rng.uniform(-0.4, 0.4),
        beta1=rng.uniform(-0.4, 0.4),
        beta2=rng.uniform(-0.45, 0.45),
        kappa=rng.uniform(-0.3, 0.3),
    )


def _rho(rng, lo=-3.6, hi=-3.1):
    return complex(10.0 ** rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, TWO_PI)))


def _lattice_distance(z, tau):
    """Distance from z to the lattice 2*pi*i*(Z*tau + Z), by search over the
    cells around the rounded lattice coordinates.  Kept apart from the
    package's lattice helpers so that drawing inputs adds no spans."""
    u = z / (TWO_PI * 1j)
    m0 = round(u.imag / tau.imag)
    n0 = round(u.real - m0 * tau.real)
    return min(
        abs(z - TWO_PI * 1j * (m * tau + n))
        for m in range(m0 - 2, m0 + 3)
        for n in range(n0 - 2, n0 + 3)
    )


def _far_point(rng, sew, avoid=(), sep=0.5):
    """A point 2*pi*i*(s*tau + t) of the fundamental cell, farther than 1.2
    contour radii from every lattice translate of the punctures 0 and w and
    farther than `sep` from every translate of the points in `avoid`."""
    margin = 1.2 * max(sew.r1, sew.r2)
    while True:
        z = TWO_PI * 1j * (rng.uniform(0.05, 0.95) * sew.tau + rng.uniform(0.05, 0.95))
        if min(_lattice_distance(z - c, sew.tau) for c in (0.0, complex(sew.w))) <= margin:
            continue
        if all(_lattice_distance(z - c, sew.tau) > sep for c in avoid):
            return z


def reset_caches():
    """Empty the package's memo caches, where it has them, so a repeated
    pass starts cold."""
    for mod, attr in (
        (sk.szego, "_moment_block_cached"),
        (sk.szego, "_build_T_cached"),
        (sk.genus2, "_resolvent_lu"),
    ):
        cache = getattr(mod, attr, None)
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()


def cache_misses():
    """(moment blocks computed, LU factorisations computed) so far, read from
    the caches' cache_info(); None where the cache does not exist."""
    out = []
    for mod, attr in ((sk.szego, "_moment_block_cached"), (sk.genus2, "_resolvent_lu")):
        cache = getattr(mod, attr, None)
        out.append(cache.cache_info().misses if hasattr(cache, "cache_info") else None)
    return tuple(out)


class Workload:
    """Set-up, seeded inputs, one operation, and the checks of its output.

    observe() evaluates, outside the timed region, the program values that
    the checks look at; judge() compares them with the references."""

    setup_repeats = 3  # set-ups timed per run; setup_s takes their median
    check_all = True  # full check for every operation, not only min_ops

    def reset(self):
        pass

    def setup(self, rep):
        pass

    def cleanup(self):
        pass

    def check(self, out, i):
        return self.judge(self.observe(out, i), out, i)


class PartitionCold(Workload):
    """z2_fermionic(N=16, quad_M=256) and z2_heisenberg(N=16) on a surface
    no earlier operation used."""

    name = "partition_cold"
    tag = 1
    min_ops = 2  # accuracy_digits is taken over these, so it repeats exactly
    trace_ops = 1

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, i):
        rng = _rng(self.seed, self.tag, i)
        tau = _tau(rng)
        w = W_FRACTION * TWO_PI * np.exp(1j * rng.uniform(0.0, TWO_PI))
        return tau, complex(w), _rho(rng), _twist(rng)

    def op(self, inputs):
        tau, w, rho, tw = inputs
        sew = sk.SewingConfig(tau, w, rho)
        zf = sk.z2_fermionic(sew, tw, N, QUAD_M)
        zh = sk.z2_heisenberg(sew, N)
        return sew, tw, zf, zh

    def observe(self, out, i):
        sew, tw, zf, zh = out
        T = sk.build_T(N, sew, tw, QUAD_M)
        return {
            "T00": T[0, 0],
            "TNN": T[N, N],
            "det_tl": sk.det_I_minus(T, method="trace_log").value,
            "det_lu": sk.det_I_minus(T, method="lu").value,
            "z1": sk.z1_twisted_2pt(sew, tw),
            "zf": zf,
            "zh": zh,
        }

    def judge(self, obs, out, i):
        sew, tw = out[:2]
        t11, t22 = ref.leading_T(
            sew.tau, sew.w, sew.log_rho, tw.alpha1, tw.beta1, tw.beta2, tw.kappa, tw.B
        )
        z1 = complex(ref.z1_twisted_2pt(sew.tau, sew.w, tw.alpha1, tw.beta1, tw.kappa))
        pref = complex(ref.z2_prefactor(tw.kappa, tw.beta2, tw.B, sew.log_rho))
        eta, heis_lead = ref.heisenberg_leading(sew.tau, sew.w, sew.rho)
        r = abs(sew.rho)
        o = obs  # short name for the table below
        return [
            rel_check("T[0,0] vs mpmath", o["T00"], t11, 1e-11),
            rel_check("T[N,N] vs mpmath", o["TNN"], t22, 1e-11),
            rel_check("det(I-T) trace-log vs LU", o["det_tl"], o["det_lu"], 1e-11),
            rel_check("z1_twisted_2pt vs mpmath", o["z1"], z1, 1e-11),
            rel_check("z2_fermionic vs mpmath prefactor * z1 * LU det", o["zf"],
                      pref * z1 * o["det_lu"], 1e-11),
            # det(I - T) = 1 - T11 - T22 + O(rho): the next terms are
            # second order in rho^(1/2 +- kappa) and of order rho
            bound_check("det(I-T) leading order", o["det_lu"], 1.0 - o["T00"] - o["TNN"], 4.0 * r),
            # det(I - R)^(-1/2) = 1 - rho*P_2(tau, w) + O(rho^2)
            bound_check("z2_heisenberg*eta leading order", o["zh"] * eta, heis_lead, 4.0 * r * r),
        ]


class KernelWarm(Workload):
    """gen2_form with three insertion pairs at fresh generic points on
    surfaces whose T and LU of I - T were built in set-up."""

    name = "kernel_warm"
    tag = 2
    # the full check costs about as much as the operation, so the first
    # min_ops operations get it and the rest a finiteness check
    min_ops = 8
    check_all = False
    trace_ops = 8

    def __init__(self, seed):
        self.seed = seed
        self.surfaces = []

    def reset(self):
        self.surfaces = []

    def surface(self, rep):
        rng = _rng(self.seed, self.tag, 10_000 + rep)
        tau = _tau(rng)
        w = rng.uniform(0.3, 0.45) * TWO_PI * np.exp(1j * rng.uniform(0.0, TWO_PI))
        sew = sk.SewingConfig(tau, complex(w), _rho(rng, -3.5, -3.0))
        return sew, _twist(rng)

    def setup(self, rep):
        sew, tw = self.surface(rep)
        sk.build_T(N, sew, tw, QUAD_M)
        # the first kernel evaluation factorises I - T
        rng = _rng(self.seed, self.tag, 20_000 + rep)
        x = _far_point(rng, sew)
        sk.s2_eval(x, _far_point(rng, sew, (x,)), sew, tw, N, QUAD_M)
        self.surfaces.append((sew, tw))

    def prepare(self, i):
        sew, tw = self.surfaces[i % len(self.surfaces)]
        rng = _rng(self.seed, self.tag, i)
        pts = []
        for _ in range(6):
            pts.append(_far_point(rng, sew, pts))
        return sew, tw, pts[:3], pts[3:]

    def op(self, inputs):
        sew, tw, xs, ys = inputs
        return sew, tw, xs, ys, sk.gen2_form(xs, ys, sew, tw, N, QUAD_M)

    def quick_check(self, out):
        v = complex(out[-1])
        bad = not np.isfinite(v) or v == 0
        return [Check("gen2_form finite and non-zero", np.inf if bad else 0.0, 0.0, False)]

    def observe(self, out, i):
        sew, tw, xs, ys, val = out
        M = np.array([[sk.s2_eval(x, y, sew, tw, N, QUAD_M).value for y in ys] for x in xs])
        # the handle multiplier condition at a mid-annulus point: |x_loc| is
        # near sqrt|rho|, so the identified point rho/x_loc is mid-annulus too
        rng = _rng(self.seed, self.tag, 30_000 + i)
        a = int(rng.integers(1, 3))
        x_loc = np.sqrt(abs(sew.rho)) * rng.uniform(0.8, 1.25) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        y = _far_point(rng, sew)
        residual, _ = sk.sewing_multiplier_residual(x_loc, a, y, sew, tw, N, QUAD_M)
        return {
            "gen2": val,
            "z2_det_S2": sk.z2_fermionic(sew, tw, N, QUAD_M) * np.linalg.det(M),
            "multiplier_residual": residual,
        }

    def judge(self, obs, out, i):
        return [
            rel_check("gen2_form = z2_fermionic * det[S2(x_i, y_j)]", obs["gen2"],
                      obs["z2_det_S2"], 1e-12),
            Check("sewing multiplier residual", obs["multiplier_residual"], 1e-10, True),
        ]


class ModularSweep(Workload):
    """`sewkernel sweep` of the invariance check over a 4-point grid, run
    in-process through cli.main, one generator per operation."""

    name = "modular_sweep"
    tag = 3
    min_ops = 5  # one full cycle of generators, used for accuracy_digits
    trace_ops = 5
    generators = "ABCST"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cfg_path = os.path.join(workdir, f"sweep-config-{os.getpid()}.json")
        self.out_path = os.path.join(workdir, f"sweep-out-{os.getpid()}.json")

    def setup(self, rep):
        os.makedirs(self.workdir, exist_ok=True)

    def tolerance(self, gen):
        return 1e-5 if gen == "S" else 1e-6

    def config(self, i):
        rng = _rng(self.seed, self.tag, i)
        gen = self.generators[i % len(self.generators)]
        tau = _tau(rng, 1.1, 1.4)
        w = rng.uniform(0.3, 0.45) * TWO_PI * np.exp(1j * rng.uniform(0.0, TWO_PI))
        rho = _rho(rng, -3.5, -3.0)
        tw = _twist(rng)
        c = _json_complex
        return {
            "target": "invariance",
            "tolerance": self.tolerance(gen),
            "parameters": {
                "tau": c(tau), "w": c(w), "rho": c(rho),
                "alpha1": tw.alpha1, "beta1": tw.beta1, "beta2": tw.beta2,
                "kappa": tw.kappa, "generator": gen,
                "m": int(rng.integers(-1, 2)), "N": 12, "quad_M": 128,
            },
            "sweep": {"axes": [
                {"name": "w_re", "values": [w.real, w.real + 0.15]},
                {"name": "rho_abs", "values": [abs(rho), 1.5 * abs(rho)]},
            ]},
        }

    def prepare(self, i):
        with open(self.cfg_path, "w") as fh:
            json.dump(self.config(i), fh)
        return self.generators[i % len(self.generators)]

    def op(self, gen):
        rc = cli.main(["sweep", "--config", self.cfg_path, "--out", self.out_path])
        with open(self.out_path) as fh:
            doc = json.load(fh)
        return gen, rc, doc

    def observe(self, out, i):
        gen, rc, doc = out
        rows = doc.get("rows", [])
        return {
            "exit_status": rc,
            "rows": len(rows),
            "residual": max((r["residual"] for r in rows), default=np.inf),
        }

    def judge(self, obs, out, i):
        gen = out[0]
        return [
            Check("sweep exit status", float(obs["exit_status"]), 0.0, False),
            Check("sweep grid size", abs(obs["rows"] - 4), 0.0, False),
            Check(f"invariance residual ({gen})", obs["residual"], self.tolerance(gen), True),
        ]

    def cleanup(self):
        for path in (self.cfg_path, self.out_path):
            if os.path.exists(path):
                os.remove(path)
