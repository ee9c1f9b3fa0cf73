"""Unit tests for the elliptic building blocks.

Expected values are tagged in comments: [DERIVED] recomputed independently
here (finite differences, direct alternative series), [TRIVIAL] structural.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sewkernel import (
    dedekind_eta,
    eisenstein,
    lattice_min_distance,
    nearest_lattice_point,
    prime_form_K,
    theta1,
    theta1_prime0,
    theta_char_g1,
    theta_char_g2,
    twisted_P1,
    twisted_P1_char,
    weierstrass_P,
)

TAU = 0.3 + 1.1j
TWO_PI_I = 2j * np.pi


# ------------------------------------------------------------------ theta_g1


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(-0.5, 0.5),
    beta=st.floats(-0.5, 0.5),
    zr=st.floats(-2.0, 2.0),
    zi=st.floats(-2.0, 2.0),
)
def test_theta_quasi_periodicity(alpha, beta, zr, zi):
    # [DERIVED] from the series: z + 2*pi*i multiplies by e^{2*pi*i*alpha},
    # z + 2*pi*i*tau multiplies by e^{-i*pi*tau - z - 2*pi*i*beta}.
    z = zr + 1j * zi
    t0 = theta_char_g1(alpha, beta, z, TAU)
    t1 = theta_char_g1(alpha, beta, z + TWO_PI_I, TAU)
    assert abs(t1 - np.exp(TWO_PI_I * alpha) * t0) <= 1e-9 * max(abs(t0), 1.0)
    t2 = theta_char_g1(alpha, beta, z + TWO_PI_I * TAU, TAU)
    fac = np.exp(-1j * np.pi * TAU - z - TWO_PI_I * beta)
    assert abs(t2 - fac * t0) <= 1e-9 * max(abs(fac * t0), 1.0)


def test_theta1_is_odd_and_vanishes_at_zero():
    # [TRIVIAL] parity of the [1/2; 1/2] series
    z = 0.7 + 0.4j
    assert abs(theta1(z, TAU) + theta1(-z, TAU)) < 1e-12
    assert abs(theta1(0.0, TAU)) < 1e-12


def test_theta1_prime0_matches_finite_difference():
    # [DERIVED] central difference of theta1 at 0
    h = 1e-5
    fd = (theta1(h, TAU) - theta1(-h, TAU)) / (2 * h)
    assert abs(fd / theta1_prime0(TAU) - 1.0) < 1e-8


def test_theta_vectorised_matches_scalar():
    zs = np.array([0.1 + 0.2j, -0.4 + 1.0j, 2.0 - 0.3j])
    vec = theta_char_g1(0.2, -0.3, zs, TAU)
    for z, v in zip(zs, vec):
        assert abs(v - theta_char_g1(0.2, -0.3, complex(z), TAU)) < 1e-13


# ---------------------------------------------------------------- prime form


def test_prime_form_behaves_like_z_at_origin():
    # [DERIVED] K(z) ~ z
    for z in (1e-4, 1e-4j, 1e-4 * (1 + 1j)):
        assert abs(prime_form_K(z, TAU) / z - 1.0) < 1e-6


def test_prime_form_raises_on_lattice():
    with pytest.raises(ValueError):
        prime_form_K(TWO_PI_I * (TAU + 1.0), TAU)


# tau in the fundamental domain and off it, with |Re tau| up to 3
LAW_TAUS = [0.3 + 1.1j, -0.45 + 0.95j, 1j, 2.6 + 1.2j, -3.0 + 0.9j]
LAW_WS = [0.5 + 0.7j, -1.1 + 0.4j, 0.2 - 1.3j]


@pytest.mark.parametrize("tau", LAW_TAUS)
def test_prime_form_quasi_periodicity(tau):
    # [DERIVED] from the theta1 series: the modular transport moves log K by
    # this law under the translations A, B
    for w in LAW_WS:
        K0 = prime_form_K(w, tau)
        for a in range(-2, 3):
            for b in range(-2, 3):
                K1 = prime_form_K(w + TWO_PI_I * (a * tau + b), tau)
                want = (-1) ** (a + b) * np.exp(-1j * np.pi * a * a * tau - a * w) * K0
                assert abs(K1 / want - 1.0) < 1e-12


@pytest.mark.parametrize("tau", LAW_TAUS)
@pytest.mark.parametrize("abcd", [(0, 1, -1, 0), (1, 1, 0, 1)], ids=["S", "T"])
def test_prime_form_weight_minus_one(tau, abcd):
    # [DERIVED] K(w/(c tau + d), gamma tau)
    #   = K(w, tau) (c tau + d)^-1 exp(c w^2 / (4 pi i (c tau + d))),
    # the law the modular transport uses under S and T
    a, b, c, d = abcd
    den = c * tau + d
    for w in LAW_WS:
        K1 = prime_form_K(w / den, (a * tau + b) / den)
        want = prime_form_K(w, tau) / den * np.exp(c * w * w / (2.0 * TWO_PI_I * den))
        assert abs(K1 / want - 1.0) < 1e-12


def test_nearest_lattice_point_roundtrip():
    # [TRIVIAL] the returned (m, n) reproduces lam
    z = 0.3 + 9.0j
    lam, m, n = nearest_lattice_point(z, TAU)
    assert abs(lam - TWO_PI_I * (m * TAU + n)) < 1e-12
    assert abs(z - lam) <= lattice_min_distance(TAU)


# ----------------------------------------------------------------------- eta


def test_eta_against_direct_product():
    # [DERIVED] literal q-product with explicit exp(2*pi*i*tau/24) prefactor
    q = np.exp(TWO_PI_I * TAU)
    prod = np.prod([1.0 - q**n for n in range(1, 200)])
    direct = np.exp(TWO_PI_I * TAU / 24.0) * prod
    assert abs(dedekind_eta(TAU) / direct - 1.0) < 1e-12


def test_eta_shift_phase():
    # [DERIVED] eta(tau + 1) = exp(i*pi/12) * eta(tau)
    ratio = dedekind_eta(TAU + 1.0) / dedekind_eta(TAU)
    assert abs(ratio - np.exp(1j * np.pi / 12.0)) < 1e-12


def test_eta_inversion():
    # [DERIVED] eta(-1/tau) = sqrt(-i*tau) * eta(tau)
    ratio = dedekind_eta(-1.0 / TAU) / dedekind_eta(TAU)
    assert abs(ratio - np.sqrt(-1j * TAU)) < 1e-12


# ---------------------------------------------------------------- eisenstein


def test_eisenstein_odd_is_zero():
    assert eisenstein(3, TAU) == 0.0j  # [TRIVIAL]


def test_eisenstein_against_lambert_series():
    # [DERIVED] E_k = -B_k/k! + (2/(k-1)!) sum_n n^(k-1) q^n/(1-q^n)
    q = np.exp(TWO_PI_I * TAU)
    from math import factorial

    bern = {2: 1.0 / 6.0, 4: -1.0 / 30.0, 6: 1.0 / 42.0}
    for k in (2, 4, 6):
        s = sum(n ** (k - 1) * q**n / (1.0 - q**n) for n in range(1, 120))
        ref = -bern[k] / factorial(k) + 2.0 / factorial(k - 1) * s
        assert abs(eisenstein(k, TAU) / ref - 1.0) < 1e-11


# ------------------------------------------------------------ weierstrass_P


def test_p2_is_minus_dd_log_theta1_plus_e2():
    # [DERIVED] P_2(z) = -d^2/dz^2 log theta1(z) + ... : check against the
    # finite-difference second derivative of log K, which differs from -P_2
    # by a z-independent constant; remove it by comparing two points.
    def dd_log_K(z, h=1e-4):
        vals = [np.log(prime_form_K(z + d, TAU)) for d in (-h, 0.0, h)]
        return (vals[0] - 2 * vals[1] + vals[2]) / h**2

    z1, z2 = 0.8 + 0.6j, -0.5 + 1.3j
    lhs = weierstrass_P(2, z1, TAU) - weierstrass_P(2, z2, TAU)
    rhs = -dd_log_K(z1) + dd_log_K(z2)
    assert abs(lhs - rhs) < 1e-5


def test_p_m_is_derivative_ladder():
    # [DERIVED] P_{m+1} = -(1/m) dP_m/dz via finite differences
    z = 0.7 + 0.9j
    h = 1e-5
    for m in (2, 3):
        d = (weierstrass_P(m, z + h, TAU) - weierstrass_P(m, z - h, TAU)) / (2 * h)
        assert abs(weierstrass_P(m + 1, z, TAU) + d / m) < 1e-5


def test_p2_periodicity():
    # [DERIVED] P_2 is elliptic
    z = 0.4 + 0.8j
    for lam in (TWO_PI_I, TWO_PI_I * TAU):
        assert abs(weierstrass_P(2, z + lam, TAU) - weierstrass_P(2, z, TAU)) < 1e-9


# ----------------------------------------------------------------- twisted P1


def test_twisted_p1_multipliers():
    # [DERIVED] P_1[theta; phi](z + 2*pi*i) = theta^-1... : quasi-periodicity
    # inherited from the theta ratio: z + 2*pi*i gives factor
    # -e^{2*pi*i*alpha} = phi, z + 2*pi*i*tau gives factor -e^{-2*pi*i*beta}
    # = theta (from the K in the denominator).
    alpha, beta = 0.2, 0.35
    theta_m = -np.exp(-TWO_PI_I * beta)
    phi_m = -np.exp(TWO_PI_I * alpha)
    z = 0.6 + 0.7j
    p0 = twisted_P1_char(alpha, beta, z, TAU)
    p1 = twisted_P1_char(alpha, beta, z + TWO_PI_I, TAU)
    assert abs(p1 / p0 - phi_m) < 1e-9
    p2 = twisted_P1_char(alpha, beta, z + TWO_PI_I * TAU, TAU)
    assert abs(p2 / p0 - theta_m) < 1e-9


def test_twisted_p1_multiplier_interface_roundtrip():
    alpha, beta = 0.2, 0.35
    theta_m = -np.exp(-TWO_PI_I * beta)
    phi_m = -np.exp(TWO_PI_I * alpha)
    z = 0.6 + 0.7j
    a = twisted_P1(theta_m, phi_m, z, TAU)
    bv = twisted_P1_char(alpha, beta, z, TAU)
    assert abs(a - bv) < 1e-12


def test_twisted_p1_rejects_trivial_multipliers():
    with pytest.raises(ValueError):
        twisted_P1(1.0, 1.0, 0.5j, TAU)


def test_twisted_p1_simple_pole():
    # [DERIVED] residue 1 at z = 0
    z = 1e-5 * (1.0 + 0.7j)
    assert abs(z * twisted_P1_char(0.2, 0.35, z, TAU) - 1.0) < 1e-4


# ----------------------------------------------------------------- theta_g2


def test_theta_g2_factorises_on_diagonal_period_matrix():
    # [DERIVED] diagonal Omega: the double sum factorises into two genus-one
    # theta constants
    om11, om22 = 0.2 + 1.3j, -0.1 + 0.9j
    Omega = np.array([[om11, 0.0], [0.0, om22]])
    a = (0.2, -0.3)
    bb = (0.1, 0.4)
    val = theta_char_g2(a, bb, Omega)
    ref = theta_char_g1(a[0], bb[0], 0.0, om11) * theta_char_g1(a[1], bb[1], 0.0, om22)
    assert abs(val / ref - 1.0) < 1e-12


def test_theta_g2_validates_omega():
    with pytest.raises(ValueError):
        theta_char_g2((0, 0), (0, 0), np.array([[1j, 0.5], [0.4, 1j]]))
    with pytest.raises(ValueError):
        theta_char_g2((0, 0), (0, 0), np.array([[1.0, 0.0], [0.0, 1.0]]))

