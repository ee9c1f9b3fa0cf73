"""Acceptance gate: the nine headline identity checks, each printed as a
single PASS/FAIL line with its pinned tolerance."""

import numpy as np
import pytest

from sewkernel import (
    FockLabel,
    GroupElement,
    SewingConfig,
    TwistConfig,
    build_T,
    det_I_minus,
    fock_2pt,
    fock_2pt_fourier,
    fock_sum_oracle,
    frobenius_residual,
    gen2_form,
    invariance_residual,
    s2_eval,
    sewing_multiplier_residual,
    triple_product_residual,
    z1_twisted_2pt,
    z2_fermionic,
)
from sewkernel.elliptic import dedekind_eta, prime_form_K
from sewkernel.genus2 import annulus_point, domain_check

from conftest import generic_point


def _report(idx, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {idx}: {status} - {label} ({detail})")


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_frobenius_identity():
    """n = 1, 2, 3 at tau in {i, 1/4 + 2i}, 20 random configurations each
    tau, residual < 1e-9."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for tau in (1.0j, 0.25 + 2.0j):
        for trial in range(20):
            n = 1 + trial % 3
            alpha1 = -0.45 + 0.9 * rng.random()
            beta1 = -0.45 + 0.9 * rng.random()
            if abs(alpha1) < 0.03 and abs(beta1) < 0.03:
                alpha1 += 0.1
            xs = [generic_point(rng, tau) for _ in range(n)]
            ys = [generic_point(rng, tau) for _ in range(n)]
            worst = max(worst, frobenius_residual(xs, ys, alpha1, beta1, tau))
    passed = worst < 1e-9
    _report(1, "Frobenius determinant identity", passed, f"max residual {worst:.3e}")
    assert passed


# --------------------------------------------------------------- criterion 2


def test_acceptance_2_determinant_cross_method():
    """trace-log vs LU det(I - T) on a 3x3x3 grid, N = 16, quad_M = 256,
    relative error < 1e-9 and det nonzero everywhere."""
    taus = (0.3 + 1.1j, 1.4j, -0.2 + 1.2j)
    ws = (0.5 + 2.2j, 2.5j, -0.4 + 1.8j)
    rhos = (1e-3, 5e-4 * np.exp(1j * np.pi / 3.0), 1e-4)
    tw = TwistConfig(0.15, 0.25, 0.1, 0.2)
    worst = 0.0
    min_abs = np.inf
    for tau in taus:
        for w in ws:
            for rho in rhos:
                assert domain_check(tau, w, rho)[0]
                sew = SewingConfig(tau, w, rho)
                T = build_T(16, sew, tw, 256)
                a = det_I_minus(T, method="trace_log").value
                b = det_I_minus(T, method="lu").value
                worst = max(worst, abs(a / b - 1.0))
                min_abs = min(min_abs, abs(a))
    passed = worst < 1e-9 and min_abs > 0.0
    _report(
        2,
        "det(I-T) trace-log vs LU on 27-point grid",
        passed,
        f"max rel err {worst:.3e}, min |det| {min_abs:.3f}",
    )
    assert passed


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_fermionic_formula_vs_fock_sum():
    """|rho| = 1e-3, kappa in {0.1, 0.3}: deviation decreasing in W = 2, 3, 4
    and < 1e-4 at W = 4."""
    tau, w = 0.3 + 1.1j, 0.5 + 2.2j
    sew = SewingConfig(tau, w, 1e-3)
    passed = True
    details = []
    for kappa in (0.1, 0.3):
        tw = TwistConfig(0.15, 0.25, 0.1, kappa)
        z = z2_fermionic(sew, tw, N=16, quad_M=256)
        devs = [
            abs(z / fock_sum_oracle(Wm, sew, tw, quad_M=256) - 1.0) for Wm in (2, 3, 4)
        ]
        ok = devs[0] > devs[1] > devs[2] and devs[2] < 1e-4
        passed = passed and ok
        details.append(f"kappa={kappa}: W=2..4 devs {devs[0]:.1e},{devs[1]:.1e},{devs[2]:.1e}")
    _report(3, "z2_fermionic vs Fock-sum oracle", passed, "; ".join(details))
    assert passed


# --------------------------------------------------------------- criterion 4


def test_acceptance_4_sewing_condition():
    """Normalised sewing-relation residual < 1e-5 at N = 16 for 10 random
    points, decreasing under N -> N + 8."""
    rng = np.random.default_rng(202)
    tau, w = 0.3 + 1.1j, 0.5 + 2.2j
    sew = SewingConfig(tau, w, 1e-3 * np.exp(0.4j))
    tw = TwistConfig(0.15, 0.25, 0.1, 0.2)
    worst16 = 0.0
    worst24 = 0.0
    for _ in range(10):
        a = int(rng.integers(1, 3))
        x = annulus_point(a, 0.3 + 0.4 * rng.random(), 2 * np.pi * rng.random(), sew)
        x_loc = x - (0.0 if a == 1 else sew.w)
        y = generic_point(rng, tau)
        r16, _ = sewing_multiplier_residual(x_loc, a, y, sew, tw, N=16, quad_M=256)
        r24, _ = sewing_multiplier_residual(x_loc, a, y, sew, tw, N=24, quad_M=256)
        worst16 = max(worst16, r16)
        worst24 = max(worst24, r24)
    passed = worst16 < 1e-5 and worst24 < worst16
    _report(
        4,
        "genus-two sewing multiplier condition",
        passed,
        f"max residual N=16: {worst16:.3e}, N=24: {worst24:.3e}",
    )
    assert passed


# --------------------------------------------------------------- criterion 5


def test_acceptance_5_triple_product_leading_order():
    """|det(I-T) det(I-R)^(1/2) - 1| along rho = 1e-2 * 10^(-j/2), j = 0..4:
    at least factor 2 decrease per step, < 1e-4 at the end (kappa = 0
    symmetric configuration, where both determinant factors share a sheet)."""
    tau, w = 0.3 + 1.1j, 0.5 + 2.2j
    tw = TwistConfig(0.0, 0.0, 0.25, 0.0)
    res = []
    for j in range(5):
        rho = 1e-2 * 10.0 ** (-0.5 * j)
        sew = SewingConfig(tau, w, rho)
        res.append(triple_product_residual(sew, tw, N=16, quad_M=256))
    steps_ok = all(res[j + 1] <= res[j] / 2.0 for j in range(4))
    passed = steps_ok and res[-1] < 1e-4
    _report(
        5,
        "fermion-boson triple product, leading order",
        passed,
        "ray residuals " + ",".join(f"{r:.2e}" for r in res),
    )
    assert passed


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_modular_multiplier_system():
    """invariance_residual < 1e-6 for T, A, B, C and < 1e-5 for S at N = 12;
    det-only residual < 1e-6 for every generator."""
    p = SewingConfig(0.25 + 1.2j, 0.6 + 2.4j, 8e-4 * np.exp(0.5j))
    tw = TwistConfig(0.2, 0.35, 0.1, 0.15)
    details = []
    passed = True
    for name, tol in (("T", 1e-6), ("A", 1e-6), ("B", 1e-6), ("C", 1e-6), ("S", 1e-5)):
        g = GroupElement.from_string(name)
        full, det_only = invariance_residual(g, p, tw, N=12, quad_M=128)
        ok = full < tol and det_only < 1e-6
        passed = passed and ok
        details.append(f"{name}: full {full:.1e} det {det_only:.1e}")
    _report(6, "modular multiplier system", passed, "; ".join(details))
    assert passed


# --------------------------------------------------------------- criterion 7


def test_acceptance_7_closed_form_vs_lattice_sum():
    """z1_twisted_2pt vs the truncated mu-sum, |mu| <= 30, rel err < 1e-9."""
    tau, w = 0.3 + 1.1j, 0.5 + 2.2j
    sew = SewingConfig(tau, w, 1e-3)
    worst = 0.0
    for tw in (
        TwistConfig(0.15, 0.25, 0.1, 0.2),
        TwistConfig(-0.3, 0.4, 0.0, -0.35),
        TwistConfig(0.45, -0.45, 0.2, 0.05),
    ):
        q = np.exp(2j * np.pi * tau)
        total = 0.0j
        for mu in range(-30, 31):
            e = mu + tw.alpha1
            total += q ** (0.5 * e**2) * np.exp(
                e * (tw.kappa * w + 2j * np.pi * tw.beta1)
            )
        ref = total / dedekind_eta(tau) / prime_form_K(w, tau) ** tw.kappa**2
        worst = max(worst, abs(z1_twisted_2pt(sew, tw) / ref - 1.0))
    passed = worst < 1e-9
    _report(7, "closed form vs lattice sum", passed, f"max rel err {worst:.3e}")
    assert passed


# --------------------------------------------------------------- criterion 8


def _labels_up_to_two_modes():
    """All charge-balanced (label_w, label_0) pairs with p <= 2, modes <= 2."""
    lists = {0: [()], 1: [(1,), (2,)], 2: [(1, 2)]}
    pairs = []
    for p in (0, 1, 2):
        for s1 in range(p + 1):
            s2 = p - s1
            for t1 in range(p + 1):
                t2 = p - t1
                for k1 in lists[s1]:
                    for l2 in lists[t2]:
                        for k2 in lists[s2]:
                            for l1 in lists[t1]:
                                pairs.append(
                                    (FockLabel(k1, l2), FockLabel(k2, l1))
                                )
    return pairs


def test_acceptance_8_fock_coefficient_extraction():
    """fock_2pt vs multi-circle Fourier extraction for all labels with
    p <= 2, absolute deviation < 1e-7."""
    tau, w = 0.3 + 1.1j, 0.5 + 2.2j
    sew = SewingConfig(tau, w, 1e-3)
    tw = TwistConfig(0.15, 0.25, 0.1, 0.2)
    worst = 0.0
    count = 0
    for lw, l0 in _labels_up_to_two_modes():
        a = fock_2pt(lw, l0, sew, tw, quad_M=256)
        b = fock_2pt_fourier(lw, l0, sew, tw, quad_M=96)
        worst = max(worst, abs(a - b))
        count += 1
    passed = worst < 1e-7
    _report(
        8,
        "Fock 2-point coefficient extraction",
        passed,
        f"{count} label pairs, max deviation {worst:.3e}",
    )
    assert passed


# --------------------------------------------------------------- criterion 9


def test_acceptance_9_npoint_normalisation():
    """gen2_form(n=1) / z2_fermionic equals s2_eval to 1e-9 at 10 random
    point pairs."""
    rng = np.random.default_rng(303)
    tau, w = 0.3 + 1.1j, 0.5 + 2.2j
    sew = SewingConfig(tau, w, 1e-3)
    tw = TwistConfig(0.15, 0.25, 0.1, 0.2)
    z2 = z2_fermionic(sew, tw, N=12, quad_M=128)
    worst = 0.0
    for _ in range(10):
        x = generic_point(rng, tau)
        y = generic_point(rng, tau)
        if abs(x - y) < 0.1:
            y = y + 1.0
        g = gen2_form([x], [y], sew, tw, N=12, quad_M=128)
        s2 = s2_eval(x, y, sew, tw, N=12, quad_M=128).value
        worst = max(worst, abs(g / z2 / s2 - 1.0))
    passed = worst < 1e-9
    _report(9, "n-point normalisation", passed, f"max rel err {worst:.3e}")
    assert passed
