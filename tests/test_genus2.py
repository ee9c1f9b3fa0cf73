"""Unit tests for the sewn genus-two kernel."""

import numpy as np
import pytest

from sewkernel import (
    SewingConfig,
    TwistConfig,
    lattice_min_distance,
    nearest_lattice_point,
    s2_eval,
    s_kappa,
)
from sewkernel.determinants import det_I_minus
from sewkernel.genus2 import (
    annulus_point,
    domain_check,
    h_rows,
    sewing_multiplier_residual,
)
from sewkernel.szego import build_T, theta2_weights

TAU = 0.3 + 1.1j
W = 0.5 + 2.2j


# -------------------------------------------------------------- domain check


def test_domain_check_basic():
    ok, margin, lam = domain_check(TAU, W, 1e-3)
    assert ok and margin > 0
    assert not domain_check(TAU, W, 0.0)[0]
    assert not domain_check(0.3 - 1.1j, W, 1e-3)[0]
    # rho so large that the annuli collide with the lattice translates of w
    ok2, margin2, _ = domain_check(TAU, W, 1.0e2)
    assert not ok2 and margin2 < 0


def test_domain_check_margin_scales_with_rho():
    _, m1, _ = domain_check(TAU, W, 1e-3)
    _, m2, _ = domain_check(TAU, W, 1e-5)
    assert m2 > m1  # [TRIVIAL] smaller rho, wider margin


def test_domain_check_against_brute_force():
    # tau far from the fundamental domain: a box in (m, n) that ignores the
    # shift m * Re(tau) misses the nearest lattice point of w.  At the first
    # input the nearest point is 2*pi*i*(7*tau + 22), 1.19 away.
    rng = np.random.default_rng(11)
    cases = [(-2.8 + 0.33j, -15.7 + 15j, 1.0)]
    for _ in range(40):
        tau = complex(rng.uniform(-12.0, 12.0), rng.uniform(0.2, 2.0))
        w = complex(*rng.uniform(-20.0, 20.0, 2))
        cases.append((tau, w, 10.0 ** rng.uniform(-4.0, 0.0)))
    for tau, w, rho in cases:
        # 0 is a lattice point, so the nearest one lies within 2|w| of 0
        reach = 2.0 * abs(w) + 1.0
        mmax = int(np.ceil(reach / (2.0 * np.pi * tau.imag)))
        nmax = int(np.ceil(reach / (2.0 * np.pi) + mmax * abs(tau.real)))
        m, n = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1))
        ref = np.min(np.abs(w - 2j * np.pi * (m * tau + n))) - 2.0 * np.sqrt(rho)
        ok, margin, lam = domain_check(tau, w, rho)
        assert abs(margin - ref) < 1e-9
        assert abs(abs(w - lam) - 2.0 * np.sqrt(rho) - ref) < 1e-9
        assert ok == (ref > 0)
    ok, margin, _ = domain_check(*cases[0])
    assert not ok and abs(margin + 0.8115) < 1e-3


def test_annulus_point_lies_in_annulus():
    sew = SewingConfig(TAU, W, 1e-3)
    for a in (1, 2):
        z = annulus_point(a, 0.5, 1.2, sew)
        loc = z - (0.0 if a == 1 else sew.w)
        r_out = sew.r1 if a == 1 else sew.r2
        r_in = abs(sew.rho) / (sew.r2 if a == 1 else sew.r1)
        assert r_in < abs(loc) < r_out


# ------------------------------------------------------------------ s2_eval


def test_s2_tends_to_s_kappa_for_small_rho(tw):
    # [DERIVED] the correction term is O(rho^{1/2 - |kappa| + 1/2 - |kappa|})
    # ... = O(rho^{0.3}) at kappa = 0.2 (half-order rho powers on both sides)
    x = 1.1 + 0.9j
    y = -0.8 + 1.7j
    devs = []
    for r in (1e-6, 1e-8, 1e-10):
        sew_small = SewingConfig(TAU, W, r)
        v2 = s2_eval(x, y, sew_small, tw, N=8, quad_M=128).value
        v1 = s_kappa(x, y, sew_small, tw)
        devs.append(abs(v2 / v1 - 1.0))
    assert devs[0] > devs[1] > devs[2]
    # exponent ~ 2 * (1 - 2*kappa)/2 * (1/2) ... : measure it directly
    slope = np.log(devs[0] / devs[2]) / np.log(1e-6 / 1e-10)
    assert abs(slope - 0.3) < 0.05


def test_s2_correction_converges_in_N(sew, tw):
    x = 1.1 + 0.9j
    y = -0.8 + 1.7j
    v8 = s2_eval(x, y, sew, tw, N=8, quad_M=128).value
    v16 = s2_eval(x, y, sew, tw, N=16, quad_M=128).value
    v20 = s2_eval(x, y, sew, tw, N=20, quad_M=128).value
    assert abs(v20 - v16) < abs(v16 - v8) + 1e-14
    assert abs(v20 - v16) < 1e-10


def test_s2_does_not_depend_on_the_contour_radii(tw):
    # half_diff clips r1, r2 to 2^(-64/quad_M) * R inside the analyticity
    # disk R = min(dist(w, Lambda), D(q)) of the branch factor; an
    # unclipped circle at 0.999 * R passes within 0.1% of a pole of A_2 and
    # moves s2_eval by 2.2e-7
    lam, _, _ = nearest_lattice_point(W, TAU)
    R = min(abs(W - lam), lattice_min_distance(TAU))
    ref = None
    for f in (0.3, 0.6, 0.9, 0.999):
        sew = SewingConfig(TAU, W, 1e-3, r1=f * R, r2=f * R)
        v = s2_eval(3.0 + 1.0j, -0.8 + 1.7j, sew, tw).value
        ref = v if ref is None else ref
        assert abs(v / ref - 1.0) <= 1e-14


def test_s2_rejects_points_outside_domain(tw):
    with pytest.raises(ValueError):
        # |w| = 0.14 < 2*sqrt(rho) = 0.2: outside the sewing domain, while
        # still inside the (weaker) radius bound checked by SewingConfig
        sew = SewingConfig(TAU, 0.1 + 0.1j, 1e-2, r1=0.14, r2=0.14)
        s2_eval(1.0 + 1.0j, 2.0j, sew, tw, N=4, quad_M=64)


def test_s2_raises_where_correction_series_diverges():
    # |x_loc| * |y_loc| / |rho| = 0.86 for paired punctures: the correction
    # series diverges, and unchecked sums at N = 16, 24, 32 come out as
    # -352+270i, -1394-280i, -2138-4073i
    sew = SewingConfig(0.305 + 1.485j, -4.736 + 3.442j, -2.596e-4 + 2.336e-4j)
    tw = TwistConfig(0.15, 0.25, 0.1, 0.2)
    for x, y in ((2.5e-4, sew.w + 0.9 + 0.8j), (sew.w + 2.5e-4, 0.9 + 0.8j)):
        with pytest.raises(ValueError, match="diverges"):
            s2_eval(x, y, sew, tw, N=16, quad_M=256)
        with pytest.raises(ValueError, match="diverges"):
            s2_eval(np.array([1.3 + 0.4j, x]), np.array([y, -0.8 + 1.7j]), sew, tw)
    # at ratio 2.07 the series converges
    x, y = 6e-4, sew.w + 0.9 + 0.8j
    v24 = s2_eval(x, y, sew, tw, N=24, quad_M=256).value
    v32 = s2_eval(x, y, sew, tw, N=32, quad_M=256).value
    assert abs(v24 / v32 - 1.0) < 1e-6


def test_s2_batched_matches_scalar(sew, tw):
    # 0.3 + 0.2j lies inside r1, so its clipped extraction radius forms a
    # group of its own next to the points on the full circles
    xs = np.array([1.1 + 0.9j, -0.8 + 1.7j, 0.3 + 0.2j])
    ys = np.array([2.0 + 3.0j, -0.4 + 1.3j, 3.1 - 0.4j])
    assert abs(xs[2]) < sew.r1
    M = s2_eval(xs, ys, sew, tw, N=12, quad_M=128).value
    ref = np.array([[s2_eval(x, y, sew, tw, N=12, quad_M=128).value for y in ys] for x in xs])
    assert M.shape == (3, 3)
    assert np.max(np.abs(M - ref)) < 1e-12 * np.max(np.abs(ref))


def test_s2_via_bordered_determinant(sew, tw):
    # [DERIVED] Schur complement: det [[S_kappa(x,y), -xi*h*D], [hbar^T, I-T]]
    #           = det(I - T) * S2(x, y)
    x = 1.1 + 0.9j
    y = -0.8 + 1.7j
    N, M = 10, 128
    T = build_T(N, sew, tw, M)
    h = h_rows(x, N, sew, tw, M) * theta2_weights(N, tw)
    hb = h_rows(y, N, sew, tw, M, bar=True)
    A = np.zeros((2 * N + 1, 2 * N + 1), dtype=complex)
    A[0, 0] = s_kappa(x, y, sew, tw)
    A[0, 1:] = -tw.xi * h
    A[1:, 0] = hb
    A[1:, 1:] = np.eye(2 * N) - T
    lhs = np.linalg.det(A)
    rhs = det_I_minus(T).value * s2_eval(x, y, sew, tw, N, M).value
    assert abs(lhs / rhs - 1.0) < 1e-10


# ------------------------------------------------------------ sewing relation


def test_sewing_multiplier_residual_small_and_converging(sew, tw):
    x = annulus_point(1, 0.45, 0.9, sew)
    y = 1.3 + 0.4j
    r16, s16 = sewing_multiplier_residual(x, 1, y, sew, tw, N=16, quad_M=128)
    r24, _ = sewing_multiplier_residual(x, 1, y, sew, tw, N=24, quad_M=128)
    assert r16 < 1e-4
    assert r24 <= r16
    assert s16 == 1  # resolved exponent sign


def test_sewing_multiplier_residual_both_annuli(sew, tw):
    y = 1.3 + 0.4j
    for a in (1, 2):
        x = annulus_point(a, 0.5, -0.7, sew)
        x_loc = x - (0.0 if a == 1 else sew.w)
        r, s = sewing_multiplier_residual(x_loc, a, y, sew, tw, N=16, quad_M=128)
        assert r < 1e-4
        assert s == 1
