"""Unit tests for the twisted genus-one kernel, its branch bookkeeping and the
expansion-moment machinery."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import A_values, log_A_radial
from sewkernel import (
    SewingConfig,
    TwistConfig,
    build_R,
    lattice_min_distance,
    moment_block,
    nearest_lattice_point,
    s_kappa,
    szego,
    z2_fermionic,
    z2_heisenberg,
)
from sewkernel.elliptic import eisenstein, weierstrass_P
from sewkernel.szego import (
    build_T,
    half_diff,
    mode_offset,
    principal_branch_winding,
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
    # B = 1.5 passes B % 2 != 0 but xi = e^(3*pi*i/4) is no square-root sheet
    for B in (1.5, float("nan")):
        with pytest.raises(ValueError, match="odd integer"):
            TwistConfig(0.0, 0.0, 0.0, 0.1, B=B)
    for field in ("alpha1", "beta1", "beta2"):
        with pytest.raises(ValueError, match="finite"):
            TwistConfig(**{"alpha1": 0.0, "beta1": 0.0, "beta2": 0.0, "kappa": 0.1, field: np.nan})
    assert TwistConfig(0.0, 0.0, 0.0, 0.1, B=-3).xi == pytest.approx(1j)


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


@pytest.mark.parametrize("r", [-0.5, 0.0])
@pytest.mark.parametrize("fields", [("r1",), ("r2",), ("r1", "r2")])
def test_sewing_config_rejects_non_positive_radii(fields, r):
    # before, r1 = r2 = -0.5 passed |rho| < r1*r2 = 0.25, z2_fermionic
    # returned a value and s2_eval raised "external point coincides with the
    # puncture" from the negative clipped radii of half_diff
    with pytest.raises(ValueError, match="radii must be positive"):
        SewingConfig(TAU, W, 1e-3, **{f: r for f in fields})


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau", complex(np.nan, 1.1)),
        ("w", np.nan),
        ("rho", np.nan),
        ("rho", complex(np.inf, 0.0)),
        ("r1", np.nan),
        ("r2", np.inf),
        ("log_rho", complex(-6.9, np.nan)),
    ],
)
def test_sewing_config_rejects_non_finite_inputs(field, value):
    # before, w = nan gave r1 = r2 = nan, and rho = nan passed |rho| < r1*r2
    args = {"tau": TAU, "w": W, "rho": 1e-3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SewingConfig(**args)


@pytest.mark.parametrize("N", [0, -2, 8.0, 8.5])
def test_build_T_rejects_bad_truncation(sew, tw, N):
    with pytest.raises(ValueError, match="integer >= 1"):
        build_T(N, sew, tw, quad_M=64)


def test_quadrature_must_resolve_the_modes(sew, tw):
    # 8 contour points cannot give 16 DFT bins; before, a broadcast error
    with pytest.raises(ValueError, match="cannot resolve"):
        moment_block(1, 2, 16, sew, tw, quad_M=8)
    with pytest.raises(ValueError, match="cannot resolve"):
        half_diff(1, 1.1 + 0.9j, 16, sew, tw, quad_M=8)
    with pytest.raises(ValueError, match="cannot resolve"):
        build_T(16, sew, tw, quad_M=8)
    assert moment_block(1, 2, 8, sew, tw, quad_M=8).shape == (8, 8)


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


def test_log_A_matches_principal_near_center(sew, tw):
    # [TRIVIAL] near the centre the series stays on the principal branch
    surface = szego._surface(sew, tw)
    t = np.array([0.01 + 0.005j])
    for side in (1, 2):
        assert abs(surface.log_A(side, t)[0] - np.log(A_values(side, t, sew)[0])) < 1e-12


@pytest.mark.parametrize(
    "frac, tol", [(0.45, 2e-14), (0.84, 5e-14), (0.917, 1e-13), (0.957, 1.2e-13)]
)
def test_log_A_on_circles_matches_the_radial_reference(frac, tol, tw):
    # the Taylor series of log A, summed pointwise and by the inverse FFT of
    # log_A_circles, against A continued along the rays from the centre, on
    # circles out to 0.957 R, where the series sums about 900 orders (more
    # than the 256 points, so the FFT folds them); w lies in the cells
    # around the central one, where a_1(w) takes the quasi-periodicity
    # shift -m, and the windings are random (worst 7.9e-15, 2.2e-14, 4.0e-14
    # and 4.7e-14: both sides sum theta1 at |w| up to 12)
    rng = np.random.default_rng(73)
    for _ in range(6):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.5))
        m, n = rng.integers(-1, 2, size=2)
        w = TWO_PI_I * ((m + rng.uniform(0.15, 0.85)) * tau + n + rng.uniform(0.15, 0.85))
        n1, n2 = (int(k) for k in rng.integers(-2, 3, size=2))
        sew = SewingConfig(tau, w, 1e-5, branch_n1=n1, branch_n2=n2)
        surface = szego._surface(sew, tw)
        r = frac * surface.R
        t = r * np.exp(TWO_PI_I * np.arange(256) / 256)
        for side in (1, 2):
            ref = log_A_radial(side, t, sew)
            assert np.max(np.abs(surface.log_A(side, t) - ref)) < tol
            assert np.max(np.abs(surface.log_A_circles(side, [r], 256)[0] - ref)) < tol


def test_log_A_coefficients_are_eisenstein_minus_weierstrass(tw):
    # [DERIVED] log A_1 = anchor_1 + sum_n (E_n - P_n(w)) t^n / n and
    # log A_2 = anchor_2 - sum_n (E_n - (-1)^n P_n(w)) t^n / n; the surface
    # holds the coefficients of t/R, those times R^n
    tau = 0.2 + 1.15j
    n = np.arange(2, 9)
    for w in (W, W + TWO_PI_I * (tau - 1.0), W - TWO_PI_I * 2.0 * tau):
        surface = szego._surface(SewingConfig(tau, w, 1e-4), tw)
        c = surface._log_A_taylor(8)[:, 2:9]
        E = np.array([eisenstein(k, tau) for k in n])
        P = np.array([weierstrass_P(k, w, tau) for k in n])
        scale = surface.R**n / n
        assert np.max(np.abs(c[0] - (E - P) * scale)) < 1e-15  # 3.3e-16
        assert np.max(np.abs(c[1] + (E - (-1.0) ** n * P) * scale)) < 1e-15


def test_log_A_raises_outside_its_disk(tw):
    # before, the radial continuation ran through the zero of A_1 at t = w,
    # and s_kappa_regular returned 0.1153-0.4218i here
    sew = SewingConfig(0.1 + 1.2j, 1.3 + 1.0j, 1e-4)
    with pytest.raises(ValueError, match="outside the disk"):
        s_kappa_regular(1.2 * sew.w, 0.1, 1, 1, sew, tw)
    R = szego._surface(sew, tw).R
    for side in (1, 2):
        with pytest.raises(ValueError, match="outside the disk"):
            principal_branch_winding(side, 1.01 * R * np.exp(0.3j), sew, tw)
        assert principal_branch_winding(side, 0.9 * R * np.exp(0.3j), sew, tw) in (-1, 0, 1)


def test_branch_winding_offsets_shift_log(tw):
    sew0 = SewingConfig(TAU, W, 1e-3)
    sew1 = SewingConfig(TAU, W, 1e-3, branch_n1=1, branch_n2=-2)
    t = np.array([0.05 + 0.02j])
    for side, n in ((1, 1), (2, -2)):
        d = szego._surface(sew1, tw).log_A(side, t)[0] - szego._surface(sew0, tw).log_A(side, t)[0]
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
    # the blocks come from Taylor circles fixed by N and the geometry, so
    # quad_M, which only has to resolve N, changes no bit of a cold block
    built = []
    for quad_M in (64, 128, 256):
        szego._moment_block_cached.cache_clear()
        built.append(moment_block(1, 2, 8, sew, tw, quad_M=quad_M))
    assert all(np.array_equal(C, built[0]) for C in built[1:])


def test_T_does_not_depend_on_the_contour_radii(tw):
    # before, the blocks were double contour integrals over the circles r1,
    # r2: from r1 = r2 = 0.55 * min(dist(w, Lambda), D(q)) on they enclosed
    # a pole of the core, and det(I - T) drifted from 1.06808-0.05382i at
    # 0.3 and 0.45 to 1.05318-0.04684i at 0.55 and 1.02995-0.02468i at 0.999;
    # the radii stay out of the surface key, so all five share one surface
    lam, _, _ = nearest_lattice_point(W, TAU)
    R = min(abs(W - lam), lattice_min_distance(TAU))
    expect = 1.0680762870843836 - 0.0538240343932374j
    ref = None
    szego._moment_block_cached.cache_clear()
    for f in (0.3, 0.45, 0.55, 0.7, 0.999):
        sew = SewingConfig(TAU, W, 1e-3, r1=f * R, r2=f * R)
        T = build_T(12, sew, tw, quad_M=128)
        assert abs(np.linalg.det(np.eye(24) - T) / expect - 1.0) < 1e-14
        blocks = [moment_block(a, b, 12, sew, tw, quad_M=128) for a in (1, 2) for b in (1, 2)]
        ref = blocks if ref is None else ref
        for C, C0 in zip(blocks, ref):
            assert np.max(np.abs(C - C0)) <= 1e-14 * np.max(np.abs(C0))
    assert szego._moment_block_cached.cache_info().misses == 2  # one geometry, one surface


def test_moment_block_immutable(sew, tw):
    C = moment_block(1, 1, 4, sew, tw, quad_M=64)
    with pytest.raises(ValueError):
        C[0, 0] = 0.0


def test_moment_blocks_slice_exactly_across_N(tw):
    # row k and column l of a block do not depend on N: the blocks built at
    # N = 24 and served at N = 16 are bitwise those built at N = 16
    sew = SewingConfig(-0.1 + 1.2j, 1.7 + 2.9j, 4e-4)
    built = {}
    for N in (16, 24):
        szego._moment_block_cached.cache_clear()
        built[N] = [moment_block(a, bb, N, sew, tw, quad_M=128) for a in (1, 2) for bb in (1, 2)]
        served = [moment_block(a, bb, 16, sew, tw, quad_M=128) for a in (1, 2) for bb in (1, 2)]
        assert all(np.array_equal(s, b[:16, :16]) for s, b in zip(served, built[N]))
    assert all(np.array_equal(b16, b24[:16, :16]) for b16, b24 in zip(built[16], built[24]))


def test_moment_block_sums_the_tail_bound_terms_only(tw, monkeypatch):
    # at Im(tau) = 1.2 the Gaussian tail bound needs about 11 terms; every
    # theta series of a cold block (contours, grids, constants) stays within
    # 13, where a floor |n| <= 16 would sum 33
    from sewkernel import elliptic

    sizes = []
    theta_range = elliptic._theta_range
    monkeypatch.setattr(elliptic, "_theta_range", lambda *a: sizes.append(theta_range(*a).size) or theta_range(*a))
    sew = SewingConfig(0.1 + 1.2j, 0.27 * 2.0 * np.pi * np.exp(2.2j), 3e-4)
    moment_block(1, 2, 16, sew, tw, quad_M=256)
    assert sizes and max(sizes) <= 13


def test_surface_reads_log_theta1_once(sew, tw, monkeypatch):
    # the series of log A_1 and log A_2 come from one log theta1 grid per
    # surface, of 64 orders, which reach 0.56 R: the blocks at two quad_M,
    # half_diff at the full and a clipped radius on both sides and the
    # pointwise readers read none; only a radius that needs more orders
    # reads a longer series, once
    szego._moment_block_cached.cache_clear()
    calls = []
    read = szego._log_theta1_circle
    monkeypatch.setattr(szego, "_log_theta1_circle", lambda *a: calls.append(a[0]) or read(*a))
    s = SewingConfig(sew.tau, sew.w, sew.rho, r1=0.9 * sew.r1)
    build_T(8, s, tw, quad_M=64)
    assert calls == [64]
    build_T(8, s, tw, quad_M=128)
    half_diff(1, 1.1 + 0.9j, 8, s, tw, quad_M=64)
    half_diff(2, 1.1 + 0.9j, 8, s, tw, quad_M=256, bar=True)  # also side 1
    half_diff(2, 1.1 + 0.9j, 8, s, tw, quad_M=256)
    half_diff(1, 0.2 * s.r1, 8, s, tw, quad_M=64)  # clipped to 0.14 * r1
    s_kappa_regular(0.3 * s.r1, 0.2 * s.r2, 1, 2, s, tw)
    principal_branch_winding(2, 0.3 * s.r2, s, tw)
    assert calls == [64]
    R = szego._surface(s, tw).R
    wide = SewingConfig(sew.tau, sew.w, sew.rho, r1=0.8 * R)
    far = np.pi * 1j * (sew.tau + 1.0)  # 1.8 R from every lattice point
    half_diff(1, far, 8, wide, tw, quad_M=256)  # 0.8 R needs 169 orders
    half_diff(1, 1.1 + 0.9j, 8, s, tw, quad_M=64)
    assert calls == [64, 169]


def test_surface_is_keyed_on_the_rho_free_geometry(sew, tw, monkeypatch):
    # rho, log_rho, beta2 and B enter T outside the moment blocks: T at
    # 1.5 rho on another log_rho branch, with another beta2 and B, reuses
    # the surface of the first T and equals a cold build bit for bit
    szego._moment_block_cached.cache_clear()
    grids = []
    core = szego.theta_ratio_core
    monkeypatch.setattr(szego, "theta_ratio_core", lambda *a: grids.append(1) or core(*a))
    build_T(8, sew, tw, quad_M=64)
    s = SewingConfig(sew.tau, sew.w, 1.5 * sew.rho, log_rho=np.log(1.5 * sew.rho) + TWO_PI_I)
    t = replace(tw, beta2=-0.3, B=3)
    T = build_T(8, s, t, quad_M=64)
    assert szego._moment_block_cached.cache_info().misses == 2  # one geometry, one surface
    assert len(grids) == 1  # the core at the three offsets, once
    szego._moment_block_cached.cache_clear()
    assert np.array_equal(T, build_T(8, s, t, quad_M=64))


def test_transport_by_C_builds_one_surface(tw):
    # C changes only beta2 and log_rho, so both ends share one surface
    from sewkernel import GroupElement, invariance_residual

    szego._moment_block_cached.cache_clear()
    invariance_residual(GroupElement.from_string("C"), SewingConfig(TAU, W, 1e-3), tw, 8, 64)
    assert szego._moment_block_cached.cache_info().misses == 2  # one geometry, one surface


def test_nothing_outlives_its_cache_entry(sew, tw):
    # a surface holds its geometry and no geometry holds a surface, so the
    # entries are freed by reference counting alone, without the cyclic
    # collector, once the cache lets them go
    szego._moment_block_cached.cache_clear()
    gc.disable()
    try:
        build_T(8, sew, tw, quad_M=64)
        build_R(8, sew)
        surface = weakref.ref(szego._surface(sew, tw))
        geometry = weakref.ref(szego._geometry(sew.tau, sew.w))
        assert surface().geometry is geometry()
        szego._moment_block_cached.cache_clear()
        assert surface() is None and geometry() is None
    finally:
        gc.enable()


def test_one_log_theta1_read_per_geometry(sew, tw, monkeypatch):
    # T, R and lhat on a fresh (tau, w) read the log theta1 grid of their
    # geometry once, through either module binding; R reads the grid of the
    # surface bit for bit as its own cold read, and after half_diff at
    # 0.8 R has grown the grid to 169 orders it moves by round-off only
    # (4.6e-17 of its largest entry here, at most 4.9e-16 on 30 random
    # surfaces)
    from sewkernel import elliptic
    from sewkernel.modular import lhat

    szego._moment_block_cached.cache_clear()
    cold = build_R(16, sew)
    szego._moment_block_cached.cache_clear()
    calls = []
    read = elliptic._log_theta1_circle
    for module in (elliptic, szego):
        monkeypatch.setattr(module, "_log_theta1_circle", lambda *a: calls.append(a[0]) or read(*a))
    z2_fermionic(sew, tw, 16, 256)
    z2_heisenberg(sew, 16)
    lhat(sew)
    assert calls == [64]
    assert np.array_equal(build_R(16, sew), cold)
    wide = SewingConfig(sew.tau, sew.w, sew.rho, r1=0.8 * szego._surface(sew, tw).R)
    half_diff(1, np.pi * 1j * (sew.tau + 1.0), 8, wide, tw, quad_M=256)
    assert calls == [64, 169]
    assert np.max(np.abs(build_R(16, sew) - cold)) <= 1e-15 * np.max(np.abs(cold))


def test_half_diff_reconstructs_kernel(sew, tw):
    # [DERIVED] sum_k d_a(x, k) y^{k_a - 1} = S_kappa(x, y) for y inside the
    # extraction circle (with the branch-tracked puncture factor on y)
    N = 28
    x = 1.1 + 0.9j
    for a in (1, 2):
        d = half_diff(a, x, N, sew, tw, quad_M=256)
        center = puncture_center(a, sew)
        y_loc = 0.2 * (sew.r1 if a == 1 else sew.r2) * np.exp(0.4j)
        k = np.arange(1, N + 1)
        series = (d * y_loc ** (k - 1)).sum()
        # undo the regularising y-factor to compare with the pointwise kernel
        uy = np.exp(-tw.kappa * log_A_radial(a, np.array([y_loc]), sew)[0])
        target = s_kappa(x, y_loc + center, sew, tw)
        from sewkernel.szego import external_y_factor

        target_reg = target / external_y_factor(y_loc + center, sew, tw) * uy
        assert abs(series / target_reg - 1.0) < 1e-8


def test_half_diff_bar_consistent_with_moments(sew, tw):
    # [DERIVED] expanding half_diff(a, y, bar=True) in y around puncture b recovers
    # the moment matrix column structure: dbar_a(y, k) = sum_l C_ab(k, l)
    # y_loc^{l-1} * (regularising factor)
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
    uy = np.exp(-tw.kappa * log_A_radial(bidx, np.array([y_loc]), sew)[0])
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
