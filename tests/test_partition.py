"""Unit tests for the partition/generating-function layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sewkernel import (
    FockLabel,
    SewingConfig,
    TwistConfig,
    build_T,
    det_I_minus,
    enumerate_fock_labels,
    fock_2pt,
    fock_2pt_fourier,
    fock_sum_oracle,
    frobenius_residual,
    gen1_form,
    gen1_form_product,
    gen2_form,
    lattice_min_distance,
    nearest_lattice_point,
    s2_eval,
    triple_product_residual,
    z1_alpha_npoint,
    z1_twisted_2pt,
    z2_fermionic,
    z2_heisenberg,
    z2_mu_nu,
)
from sewkernel.elliptic import dedekind_eta, theta_char_g1

from conftest import generic_point

TAU = 0.3 + 1.1j
W = 0.5 + 2.2j
TWO_PI_I = 2j * np.pi


# --------------------------------------------------------------- fock labels


def test_fock_label_validation():
    FockLabel((1, 3, 4), (2,))
    with pytest.raises(ValueError):
        FockLabel((3, 1), ())
    with pytest.raises(ValueError):
        FockLabel((0,), ())
    with pytest.raises(ValueError):
        FockLabel((1.5,), ())


def test_fock_label_weights():
    lab = FockLabel((1, 2), (3,))
    assert lab.weight() == (0.5 + 1.5) + 2.5
    assert abs(lab.weight_twisted(0.2) - (lab.weight() + 0.2 * 1 + 0.02)) < 1e-15


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, 4.0), st.floats(-0.4, 0.4))
def test_enumerate_fock_labels_graded_and_bounded(Wmax, kappa):
    labels = enumerate_fock_labels(Wmax, kappa)
    wts = [lab.weight_twisted(kappa) for lab in labels]
    assert all(w <= Wmax + 1e-9 for w in wts)
    assert wts == sorted(wts)
    assert len(set(labels)) == len(labels)


def test_enumerate_fock_labels_untwisted_counts():
    # [DERIVED] at kappa = 0 the number of labels of twisted weight <= W
    # follows the two-charge free-fermion grading: W = 1 admits the vacuum
    # and the two weight-1 pair states... count the ones below each level
    labels = enumerate_fock_labels(2.0, 0.0)
    by_wt = {}
    for lab in labels:
        by_wt.setdefault(lab.weight(), 0)
        by_wt[lab.weight()] += 1
    assert by_wt[0.0] == 1  # vacuum
    assert by_wt[1.0] == 1  # (1|1)
    assert by_wt[2.0] == 4  # (1|2), (2|1), (1,2|-), (-|1,2)


# ----------------------------------------------------------- genus-one forms


def test_z1_alpha_npoint_charge_neutrality():
    with pytest.raises(ValueError):
        z1_alpha_npoint(0.3, [(1.0, 0.5j)], TAU)
    assert z1_alpha_npoint(0.3, [(1.0, 0.5j)], TAU, strict=False) == 0.0j


def test_z1_alpha_npoint_vacuum_reduces_to_eta_sector():
    # [DERIVED] no insertions: q^{alpha^2/2}/eta
    val = z1_alpha_npoint(0.4, [], TAU)
    q = np.exp(TWO_PI_I * TAU)
    assert abs(val - q ** (0.5 * 0.4**2) / dedekind_eta(TAU)) < 1e-12


def test_z1_alpha_npoint_pair_value():
    # [DERIVED] direct assembly for one (+1, -1) pair
    from sewkernel.elliptic import prime_form_K

    z1, z2 = 0.6 + 0.8j, -0.4 + 1.5j
    val = z1_alpha_npoint(0.25, [(1.0, z1), (-1.0, z2)], TAU)
    q = np.exp(TWO_PI_I * TAU)
    ref = q ** (0.5 * 0.25**2) / dedekind_eta(TAU)
    ref *= np.exp(0.25 * (z1 - z2)) / prime_form_K(z1 - z2, TAU)
    assert abs(val / ref - 1.0) < 1e-12


def test_z1_twisted_2pt_against_mu_sum(sew, tw):
    # [DERIVED] theta expansion: theta[a1;b1](kappa*w) =
    # sum_mu q^{(mu+a1)^2/2} e^{(mu+a1)(kappa*w + 2*pi*i*b1)}
    q = np.exp(TWO_PI_I * sew.tau)
    total = 0.0j
    for mu in range(-30, 31):
        e = mu + tw.alpha1
        total += q ** (0.5 * e**2) * np.exp(e * (tw.kappa * sew.w + TWO_PI_I * tw.beta1))
    from sewkernel.elliptic import prime_form_K

    ref = total / dedekind_eta(sew.tau) / prime_form_K(sew.w, sew.tau) ** tw.kappa**2
    assert abs(z1_twisted_2pt(sew, tw) / ref - 1.0) < 1e-12


def test_gen1_form_matches_product_form(sew, tw, rng):
    # [DERIVED] determinant form vs closed product form, n = 1, 2
    for n in (1, 2):
        xs = [generic_point(rng) for _ in range(n)]
        ys = [generic_point(rng) for _ in range(n)]
        a = gen1_form(xs, ys, sew, tw)
        b = gen1_form_product(xs, ys, sew, tw)
        assert abs(a / b - 1.0) < 1e-9


def test_gen1_form_requires_balanced_insertions(sew, tw):
    with pytest.raises(ValueError):
        gen1_form([0.5j], [], sew, tw)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    alpha1=st.floats(-0.45, 0.45),
    beta1=st.floats(-0.45, 0.45),
)
def test_frobenius_identity_random(n, seed, alpha1, beta1):
    if abs(alpha1) < 0.02 and abs(beta1) < 0.02:
        alpha1 += 0.1  # keep theta[a;b](0) away from its zero
    rng = np.random.default_rng(seed)
    xs = [generic_point(rng) for _ in range(n)]
    ys = [generic_point(rng) for _ in range(n)]
    assert frobenius_residual(xs, ys, alpha1, beta1, TAU) < 1e-9


# ------------------------------------------------------------- fock 2-points


def test_fock_2pt_charge_guard(sew, tw):
    with pytest.raises(ValueError):
        fock_2pt(FockLabel((1,), ()), FockLabel((), ()), sew, tw)
    assert fock_2pt(FockLabel((1,), ()), FockLabel((), ()), sew, tw, strict=False) == 0.0j


def test_fock_2pt_vacuum_is_z1(sew, tw):
    v = fock_2pt(FockLabel((), ()), FockLabel((), ()), sew, tw)
    assert abs(v / z1_twisted_2pt(sew, tw) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "lw,l0",
    [
        (((1,), ()), ((), (1,))),
        (((), (1,)), ((1,), ())),
        (((1,), (2,)), ((1,), (2,))),
        (((2,), (1,)), ((1,), (2,))),
        (((1, 2), ()), ((), (1, 2))),
    ],
)
def test_fock_2pt_matches_fourier_extraction(lw, l0, sew, tw):
    # [DERIVED] independent multi-circle Fourier oracle
    a = fock_2pt(FockLabel(*lw), FockLabel(*l0), sew, tw, quad_M=256)
    b = fock_2pt_fourier(FockLabel(*lw), FockLabel(*l0), sew, tw, quad_M=96)
    assert abs(a - b) < 1e-7 * max(abs(a), 1.0)


# ------------------------------------------------------- partition functions


def test_z2_fermionic_matches_fock_sum(sew, tw):
    z = z2_fermionic(sew, tw, N=12, quad_M=128)
    devs = [abs(z / fock_sum_oracle(Wm, sew, tw, quad_M=128) - 1.0) for Wm in (2, 3)]
    assert devs[1] < devs[0]
    assert devs[1] < 1e-6


def test_fock_sum_builds_the_moment_grids_once(sew, tw, monkeypatch):
    # fock_2pt asks for blocks at every distinct mode bound; the surface
    # builds its one core grid once, at the largest
    from sewkernel import szego

    szego._moment_block_cached.cache_clear()
    grids = []
    core = szego.theta_ratio_core
    monkeypatch.setattr(szego, "theta_ratio_core", lambda *a: grids.append(1) or core(*a))
    misses = szego._moment_block_cached.cache_info().misses
    fock_sum_oracle(3, sew, tw, quad_M=128)
    assert len(grids) == 1
    assert szego._moment_block_cached.cache_info().misses == misses + 1


def test_z2_fermionic_beyond_unit_spectral_radius():
    # in-domain points where the spectral radius of T is 1 or more: the
    # trace-log series raises there, the default LU converges in N
    rng = np.random.default_rng(2024)
    R = min(lattice_min_distance(TAU), abs(W - nearest_lattice_point(W, TAU)[0]))
    checked = 0
    for _ in range(60):
        rho = rng.uniform(0.01, 0.05) * R**2 * np.exp(TWO_PI_I * rng.uniform())
        tw = TwistConfig(*rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.49, 0.49))
        sew = SewingConfig(TAU, W, rho)
        T = build_T(16, sew, tw)
        if np.abs(np.linalg.eigvals(T)).max() < 1.0:
            continue
        with pytest.raises(ValueError, match="spectral radius"):
            det_I_minus(T, method="trace_log")
        a, b = z2_fermionic(sew, tw, N=16), z2_fermionic(sew, tw, N=32)
        assert np.isfinite(a) and np.isfinite(b)
        assert abs(a / b - 1.0) <= 1e-10
        checked += 1
    assert checked >= 3


def test_z2_heisenberg_small_rho_is_eta_inverse():
    sew = SewingConfig(TAU, W, 1e-8)
    v = z2_heisenberg(sew, N=8)
    assert abs(v * dedekind_eta(TAU) - 1.0) < 1e-6


def test_partition_functions_reject_bad_truncation():
    # before, N = 0 gave 1/eta and quad_M < N a numpy broadcast error
    sew = SewingConfig(TAU, W, 1e-3)
    tw = TwistConfig(0.15, 0.25, 0.1, 0.2)
    with pytest.raises(ValueError, match="integer >= 1"):
        z2_heisenberg(sew, 0)
    with pytest.raises(ValueError, match="integer >= 1"):
        z2_fermionic(sew, tw, 0, 64)
    with pytest.raises(ValueError, match="cannot resolve"):
        z2_fermionic(sew, tw, 16, 8)


def test_z2_mu_nu_phase():
    sew = SewingConfig(TAU, W, 1e-4)
    Omega = np.array([[0.1 + 0.9j, 0.04 + 0.02j], [0.04 + 0.02j, 0.2 + 1.4j]])
    base = z2_heisenberg(sew, N=8)
    v = z2_mu_nu(1.0, -2.0, Omega, sew, N=8)
    phase = np.exp(1j * np.pi * (Omega[0, 0] - 4 * Omega[0, 1] + 4 * Omega[1, 1]))
    assert abs(v / (phase * base) - 1.0) < 1e-12


def test_triple_product_residual_scaling(sew_ray=None):
    # [DERIVED] at the kappa = 0 symmetric point the residual scales ~ rho^1/2
    tw0 = TwistConfig(0.0, 0.0, 0.25, 0.0)
    res = []
    for r in (1e-2, 1e-3, 1e-4):
        sew = SewingConfig(TAU, W, r)
        res.append(triple_product_residual(sew, tw0, N=12, quad_M=128))
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-4


def test_gen2_form_single_pair_is_z2_times_kernel(sew, tw):
    xs = [1.1 + 0.9j]
    ys = [-0.8 + 1.7j]
    g = gen2_form(xs, ys, sew, tw, N=10, quad_M=128)
    ref = z2_fermionic(sew, tw, N=10, quad_M=128) * s2_eval(
        xs[0], ys[0], sew, tw, N=10, quad_M=128
    ).value
    assert abs(g / ref - 1.0) < 1e-12


def test_gen2_form_antisymmetry(sew, tw):
    # [DERIVED] swapping two x insertions flips the determinant sign
    xs = [1.1 + 0.9j, -0.6 + 1.2j]
    ys = [-0.8 + 1.7j, 1.4 + 2.6j]
    a = gen2_form(xs, ys, sew, tw, N=8, quad_M=128)
    b = gen2_form(xs[::-1], ys, sew, tw, N=8, quad_M=128)
    assert abs(a + b) < 1e-9 * max(abs(a), 1.0)
