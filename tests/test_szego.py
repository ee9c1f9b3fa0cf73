"""Unit tests for the twisted genus-one kernel, its branch bookkeeping and the
expansion-moment machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sewkernel import SewingConfig, TwistConfig, moment_block, s_kappa
from sewkernel.szego import (
    _log_A_circle,
    _log_A_radial,
    build_T,
    half_diff,
    mode_offset,
    puncture_center,
    rho_half_powers,
    s_kappa_regular,
    theta2_weights,
)

TAU = 0.3 + 1.1j
W = 0.5 + 2.2j
TWO_PI_I = 2j * np.pi


# ------------------------------------------------------------------- configs


def test_twist_config_multipliers(tw):
    # [TRIVIAL] multiplier/characteristic dictionary
    assert abs(tw.theta1_mult + np.exp(-TWO_PI_I * tw.beta1)) < 1e-15
    assert abs(tw.phi1_mult + np.exp(TWO_PI_I * tw.alpha1)) < 1e-15
    assert abs(tw.theta2_mult + np.exp(-TWO_PI_I * tw.beta2)) < 1e-15
    assert abs(tw.phi2_mult + np.exp(TWO_PI_I * tw.kappa)) < 1e-15
    assert abs(tw.xi - np.exp(0.5j * np.pi * tw.B)) < 1e-15


def test_twist_config_validation():
    with pytest.raises(ValueError):
        TwistConfig(0.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        TwistConfig(0.0, 0.0, 0.0, 0.1, B=2)


def test_sewing_config_validation():
    with pytest.raises(ValueError):
        SewingConfig(0.3 - 1.1j, W, 1e-3)  # lower half plane
    with pytest.raises(ValueError):
        SewingConfig(TAU, 0.0, 1e-3)  # puncture collision
    with pytest.raises(ValueError):
        SewingConfig(TAU, W, 10.0)  # |rho| above r1*r2
    sew = SewingConfig(TAU, W, 1e-3)
    assert abs(sew.sqrt_rho**2 - sew.rho) < 1e-15
    assert abs(sew.rho_pow(1.0) - sew.rho) < 1e-15


def test_mode_offset_signs():
    assert mode_offset(1, 0.2) == 0.2  # [TRIVIAL] k_a = k + kappa*(-1)^abar
    assert mode_offset(2, 0.2) == -0.2


# --------------------------------------------------------------- multipliers


def test_s_kappa_periodicity_in_y(sew, tw):
    # [DERIVED] y -> y + 2*pi*i multiplies the kernel by phi_1^{-1} (the
    # puncture powers are periodic; the theta/K core supplies the factor),
    # y -> y + 2*pi*i*tau by theta_1^{-1}, for kappa-neutral pointwise powers.
    x = 1.0 + 0.8j
    y = 0.7 + 1.9j
    v0 = s_kappa(x, y, sew, tw)
    v1 = s_kappa(x, y + TWO_PI_I, sew, tw)
    assert abs(v1 / v0 - 1.0 / tw.phi1_mult) < 1e-9
    v2 = s_kappa(x, y + TWO_PI_I * sew.tau, sew, tw)
    # theta[a;b](z - 2*pi*i*tau) = e^{-i*pi*tau + z + 2*pi*i*beta} theta(z);
    # combined with 1/K shifting gives theta_1^{-1} times the puncture-power
    # mismatch of the principal-branch convention; test the magnitude only.
    assert abs(abs(v2 / v0) - abs(1.0 / tw.theta1_mult)) < 1e-9


def test_s_kappa_pole_residue(sew, tw):
    # [DERIVED] S_kappa(x, y) ~ 1/(x - y)
    x = 1.0 + 0.8j
    eps = 1e-6 * (1 + 1j)
    val = s_kappa(x, x - eps, sew, tw)
    assert abs(val * eps - 1.0) < 1e-4


def test_s_kappa_coincidence_guard(sew, tw):
    with pytest.raises(ValueError):
        s_kappa(0.5 + 0.5j, 0.5 + 0.5j, sew, tw)


# ------------------------------------------------------------------ branches


def test_log_A_radial_matches_principal_near_center(sew):
    # [TRIVIAL] short radial continuation stays on the principal branch
    from sewkernel.szego import _A_values

    for side in (1, 2):
        t = np.array([0.01 + 0.005j])
        la = _log_A_radial(side, t, sew, None)[0]
        assert abs(la - np.log(_A_values(side, t, sew, None)[0])) < 1e-9


def test_log_A_circle_continuous_and_anchored(sew):
    for side in (1, 2):
        r = 0.5 * (sew.r1 if side == 1 else sew.r2)
        t, la = _log_A_circle(side, r, 128, sew, None)
        # exp recovers A exactly and the imaginary part is continuous
        from sewkernel.szego import _A_values

        assert np.max(np.abs(np.exp(la) - _A_values(side, t, sew, None))) < 1e-10
        assert np.max(np.abs(np.diff(la.imag))) < 0.5
        anchor = _log_A_radial(side, t[:1], sew, None)[0]
        assert abs(la[0] - anchor) < 1e-12


def test_branch_winding_offsets_shift_log():
    sew0 = SewingConfig(TAU, W, 1e-3)
    sew1 = SewingConfig(TAU, W, 1e-3, branch_n1=1, branch_n2=-2)
    t = np.array([0.05 + 0.02j])
    for side, n in ((1, 1), (2, -2)):
        d = _log_A_radial(side, t, sew1, None)[0] - _log_A_radial(side, t, sew0, None)[0]
        assert abs(d - TWO_PI_I * n) < 1e-12


# ------------------------------------------------------------------- moments


@pytest.mark.parametrize("a,bidx", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_moment_block_reconstructs_regularised_kernel(a, bidx, sew, tw):
    # [DERIVED] sum_{k,l} C_ab(k,l) x^{k-1} y^{l-1} (plus the Cauchy part for
    # same-puncture blocks) reproduces s_kappa_regular inside the contours
    N = 24
    C = moment_block(a, bidx, N, sew, tw, quad_M=256)
    xside, yside = 3 - a, bidx
    rx = sew.r1 if xside == 1 else sew.r2
    ry = sew.r1 if yside == 1 else sew.r2
    if xside == yside:
        ry = 0.8 * rx
    x_loc = 0.35 * rx * np.exp(0.7j)
    y_loc = 0.3 * ry * np.exp(-1.1j)
    k = np.arange(1, N + 1)
    series = (C * x_loc ** (k - 1)[:, None] * y_loc ** (k - 1)[None, :]).sum()
    if xside == yside:
        series += 1.0 / (x_loc - y_loc)
    direct = s_kappa_regular(x_loc, y_loc, xside, yside, sew, tw)
    assert abs(series / direct - 1.0) < 1e-9


def test_moment_block_quadrature_converged(sew, tw):
    C1 = moment_block(1, 2, 8, sew, tw, quad_M=128)
    C2 = moment_block(1, 2, 8, sew, tw, quad_M=256)
    assert np.max(np.abs(C1 - C2)) < 1e-10 * max(np.max(np.abs(C2)), 1.0)


def test_moment_block_immutable(sew, tw):
    C = moment_block(1, 1, 4, sew, tw, quad_M=64)
    with pytest.raises(ValueError):
        C[0, 0] = 0.0


def test_half_diff_reconstructs_kernel(sew, tw):
    # [DERIVED] sum_k d_a(x, k) y^{k_a - 1} = S_kappa(x, y) for y inside the
    # extraction circle (with the branch-tracked puncture factor on y)
    from sewkernel.szego import _log_A_radial as lar

    N = 28
    x = 1.1 + 0.9j
    for a in (1, 2):
        d = half_diff(a, x, N, sew, tw, quad_M=256)
        center = puncture_center(a, sew)
        y_loc = 0.2 * (sew.r1 if a == 1 else sew.r2) * np.exp(0.4j)
        k = np.arange(1, N + 1)
        series = (d * y_loc ** (k - 1)).sum()
        # undo the regularising y-factor to compare with the pointwise kernel
        uy = np.exp(-tw.kappa * lar(a, np.array([y_loc]), sew, None)[0])
        target = s_kappa(x, y_loc + center, sew, tw)
        from sewkernel.szego import external_y_factor

        target_reg = target / external_y_factor(y_loc + center, sew, tw) * uy
        assert abs(series / target_reg - 1.0) < 1e-8


def test_half_diff_bar_consistent_with_moments(sew, tw):
    # [DERIVED] expanding half_diff(a, y, bar=True) in y around puncture b recovers
    # the moment matrix column structure: dbar_a(y, k) = sum_l C_ab(k, l)
    # y_loc^{l-1} * (regularising factor)
    from sewkernel.szego import _log_A_radial as lar

    N = 20
    # pick a block whose x-contour is at the other puncture than y, so the
    # Cauchy part of the kernel contributes nothing to the extraction
    a, bidx = 1, 1
    C = moment_block(a, bidx, N, sew, tw, quad_M=256)
    center = puncture_center(bidx, sew)
    y_loc = 0.25 * sew.r1 * np.exp(1.3j)
    db = half_diff(a, y_loc + center, N, sew, tw, quad_M=256, bar=True)
    k = np.arange(1, N + 1)
    series = C @ (y_loc ** (k - 1))
    uy = np.exp(-tw.kappa * lar(bidx, np.array([y_loc]), sew, None)[0])
    from sewkernel.szego import external_y_factor

    scale = uy / external_y_factor(y_loc + center, sew, tw)
    assert np.max(np.abs(db * scale - series)) < 1e-8 * max(np.max(np.abs(series)), 1.0)


# ------------------------------------------------------------------ build_T


def test_build_T_shape_and_flattening(sew, tw):
    N = 6
    T = build_T(N, sew, tw, quad_M=128)
    assert T.shape == (2 * N, 2 * N)
    # [TRIVIAL] block (a, b) entry (k, l) equals the assembled formula
    C = moment_block(2, 1, N, sew, tw, quad_M=128)
    k = np.arange(1, N + 1, dtype=float)
    ka = k + mode_offset(2, tw.kappa)
    lb = k + mode_offset(1, tw.kappa)
    G = sew.rho_pow(0.5 * (ka[2] + lb[3] - 1.0)) * C[2, 3]
    expect = tw.xi * G * theta2_weights(N, tw)[3]
    assert abs(T[N + 2, 3] - expect) < 1e-15


def test_theta2_weights_blocks(tw):
    wts = theta2_weights(3, tw)
    assert np.allclose(wts[:3], 1.0 / tw.theta2_mult)
    assert np.allclose(wts[3:], -tw.theta2_mult)


def test_rho_half_powers_values(sew, tw):
    v = rho_half_powers(4, 1, sew, tw)
    k = np.arange(1, 5, dtype=float) + tw.kappa
    assert np.allclose(v, np.exp(0.5 * (k - 0.5) * sew.log_rho))


@settings(max_examples=10, deadline=None)
@given(st.floats(-0.4, 0.4))
def test_build_T_small_for_small_rho(kappa):
    # [DERIVED] T = O(rho^{1/2 - |kappa|}) entrywise; at |rho| = 1e-6 the
    # truncation is strongly contractive
    sew = SewingConfig(TAU, W, 1e-6)
    tw = TwistConfig(0.1, 0.2, 0.05, kappa)
    T = build_T(6, sew, tw, quad_M=64)
    assert np.max(np.abs(np.linalg.eigvals(T))) < 0.5
