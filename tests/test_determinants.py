"""Unit tests for determinant evaluation and the bosonic moment matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sewkernel import (
    SewingConfig,
    build_R,
    det_I_minus,
    det_inv_sqrt_I_minus_R,
    minor_expansion_bordered,
    minor_expansion_det,
    moment_C_boson,
    moment_D_boson,
)
from sewkernel.elliptic import (
    eisenstein,
    lattice_min_distance,
    nearest_lattice_point,
    prime_form_K,
    weierstrass_P,
)

TAU = 0.3 + 1.1j
W = 0.5 + 2.2j


def _random_contraction(rng, n, radius=0.6):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return M * (radius / max(np.max(np.abs(np.linalg.eigvals(M))), 1e-12))


# -------------------------------------------------------------- det_I_minus


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_trace_log_matches_lu(n, seed):
    rng = np.random.default_rng(seed)
    M = _random_contraction(rng, n)
    a = det_I_minus(M, method="trace_log")
    b = det_I_minus(M, method="lu")
    assert abs(a.value / b.value - 1.0) < 1e-10
    assert a.method == "trace_log" and b.method == "lu"


def test_trace_log_rejects_expanding_matrix():
    with pytest.raises(ValueError):
        det_I_minus(np.array([[2.0]]), method="trace_log")


def test_trace_log_of_non_normal_matrix_beyond_unit_norm():
    # ||M||_F = 3.07 but the spectral radius is 0.5: the eigenvalues decide
    M = np.array([[0.5, 3.0], [0.0, -0.4j]])
    assert np.linalg.norm(M) > 1.0
    a = det_I_minus(M, method="trace_log")
    b = det_I_minus(M, method="lu")
    assert abs(a.value / b.value - 1.0) < 1e-12
    with pytest.raises(ValueError, match="spectral radius"):
        det_I_minus(np.array([[1.0, 3.0], [0.0, 0.2]]), method="trace_log")


def test_trace_log_near_unit_spectral_radius():
    # radius 0.999: the series -sum tr(M^k)/k would need tens of thousands
    # of terms, its sum over the eigenvalues agrees with LU
    rng = np.random.default_rng(11)
    M = _random_contraction(rng, 12, radius=0.999)
    a = det_I_minus(M, method="trace_log")
    b = det_I_minus(M, method="lu")
    assert abs(a.value / b.value - 1.0) < 1e-12


def test_det_I_minus_validates_input():
    with pytest.raises(ValueError):
        det_I_minus(np.ones((2, 3)))
    with pytest.raises(ValueError):
        det_I_minus(np.eye(2), method="qr")


def test_det_result_error_estimate_is_small():
    rng = np.random.default_rng(7)
    M = _random_contraction(rng, 6)
    res = det_I_minus(M)
    assert res.est_error < 1e-10 * abs(res.value) * 1e6  # loose sanity bound


# ------------------------------------------------------------ boson moments


def test_moment_C_boson_odd_orders_vanish():
    assert moment_C_boson(1, 2, TAU) == 0.0j  # [TRIVIAL] E_odd = 0


def test_moment_C_boson_value():
    # [DERIVED] direct assembly from the Eisenstein series
    from math import factorial

    k, l = 2, 4
    ref = (-1) ** (k + 1) * factorial(k + l - 1) / (
        factorial(k - 1) * factorial(l - 1)
    ) * eisenstein(k + l, TAU)
    assert abs(moment_C_boson(k, l, TAU) / ref - 1.0) < 1e-12


def test_moment_C_boson_large_order_finite():
    # [TRIVIAL] log-space assembly: well-defined far beyond factorial overflow
    v = moment_C_boson(40, 40, TAU)
    assert np.isfinite(v)


def test_moment_D_boson_value():
    from math import factorial

    k, l = 3, 2
    ref = (-1) ** (k + 1) * factorial(k + l - 1) / (
        factorial(k - 1) * factorial(l - 1)
    ) * weierstrass_P(k + l, W, TAU)
    assert abs(moment_D_boson(k, l, TAU, W) / ref - 1.0) < 1e-12


def test_build_R_block_structure():
    sew = SewingConfig(TAU, W, 1e-3)
    N = 4
    R = build_R(N, sew)
    assert R.shape == (2 * N, 2 * N)
    # [TRIVIAL] off-diagonal blocks are equal and symmetric in (k, l) up to
    # the prefactor symmetry C(k,l) = C(l,k) * (-1)^(k+l)
    k, l = 2, 3
    pref = -sew.rho_pow(0.5 * (k + l)) / np.sqrt(float(k * l))
    assert abs(R[k - 1, N + l - 1] - pref * moment_C_boson(k, l, TAU)) < 1e-12
    assert abs(R[N + k - 1, l - 1] - pref * moment_C_boson(k, l, TAU)) < 1e-12
    # diagonal blocks transpose into each other (D(k,l) vs D(l,k))
    assert abs(R[k - 1, l - 1] - pref * moment_D_boson(k, l, TAU, W)) < 1e-12
    assert abs(R[N + k - 1, N + l - 1] - pref * moment_D_boson(l, k, TAU, W)) < 1e-12


def test_det_inv_sqrt_continuation_near_identity():
    # [DERIVED] as rho -> 0 the value tends to 1 and the branch is continuous
    vals = []
    for r in (1e-3, 1e-4, 1e-5):
        sew = SewingConfig(TAU, W, r)
        vals.append(det_inv_sqrt_I_minus_R(10, sew))
    assert abs(vals[-1] - 1.0) < 1e-3
    assert abs(vals[0] - 1.0) > abs(vals[1] - 1.0) > abs(vals[2] - 1.0)


def test_det_inv_sqrt_squares_to_inverse_det():
    # [DERIVED] value^2 * det(I - R) = 1
    sew = SewingConfig(TAU, W, 2e-3)
    N = 10
    v = det_inv_sqrt_I_minus_R(N, sew)
    d = np.linalg.det(np.eye(2 * N) - build_R(N, sew))
    assert abs(v**2 * d - 1.0) < 1e-9


def _det_inv_sqrt_by_path(N, sew):
    """Reference: det(I - R)^(-1/2) continued from rho = 0 along the ray
    s*rho by dense determinants of I - R(s*rho), R(s*rho)_kl = s^((k+l)/2)
    R_kl, on a path of 16 points doubled until every step of the argument
    is below pi/2."""
    R = build_R(N, sew)
    k = np.tile(np.arange(1, N + 1, dtype=float), 2)
    expo = 0.5 * (k[:, None] + k[None, :])
    n = 16
    while True:
        s = np.linspace(0.0, 1.0, n + 1)[1:]
        dets = [np.linalg.det(np.eye(2 * N) - sv**expo * R) for sv in s]
        args = np.unwrap(np.concatenate([[0.0], np.angle(dets)]))
        if np.max(np.abs(np.diff(args))) < 0.5 * np.pi:
            break
        assert n < 1024, "reference path not resolved"
        n *= 2
    return complex(np.exp(-0.5 * (np.log(abs(dets[-1])) + 1j * args[-1])))


def _benchmark_like_surfaces():
    # tau near the fundamental domain, w at 0.27 * D(q), |rho| ~ 1e-3.5
    rng = np.random.default_rng(11)
    for _ in range(4):
        tau = complex(rng.uniform(-0.25, 0.25), rng.uniform(1.1, 1.3))
        w = 0.27 * 2.0 * np.pi * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rho = 10.0 ** rng.uniform(-3.6, -3.1) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        yield SewingConfig(tau, w, rho)


def _edge_surfaces():
    # |rho| at 0.999 of the sewing-domain edge dist(w, Lambda)^2/4, with the
    # contour radii just above dist/2 so that |rho| < r1*r2
    rng = np.random.default_rng(12)
    for frac in (0.27, 0.4, 0.5):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.5))
        w = frac * lattice_min_distance(tau) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        lam, _, _ = nearest_lattice_point(w, tau)
        d = abs(w - lam)
        rho = 0.999 * d**2 / 4.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        yield SewingConfig(tau, w, rho, r1=0.5001 * d, r2=0.5001 * d)


@pytest.mark.parametrize("N", [8, 16, 32])
def test_det_inv_sqrt_matches_path_continuation(N):
    # [DERIVED] the trace-log value is the branch the dense-determinant path
    # continues from rho = 0, on the benchmark's surfaces and at the edge of
    # the sewing domain, where ||R||_2 reaches about 0.9
    for sew in [*_benchmark_like_surfaces(), *_edge_surfaces()]:
        ref = _det_inv_sqrt_by_path(N, sew)
        assert abs(det_inv_sqrt_I_minus_R(N, sew) / ref - 1.0) <= 1e-14


def test_det_inv_sqrt_raises_on_unresolved_path(monkeypatch):
    # R = diag(c, 0) with |c| = 3.3: det(I - s*R) = 1 - s*c passes within
    # 1e-7 of zero at s = 0.3 + 1e-7, and ||R||_2 >= 1 leaves the branch
    # uncertified
    from sewkernel import determinants

    c = np.exp(1e-7j) / (0.3 + 1e-7)
    monkeypatch.setattr(determinants, "build_R", lambda N, sew: np.diag([c, 0.0]))
    with pytest.raises(ValueError, match="not certified"):
        det_inv_sqrt_I_minus_R(1, SewingConfig(TAU, W, 1e-3))


@pytest.mark.parametrize("N", [0, -1, 2.0, 16.5])
def test_build_R_rejects_bad_truncation(N):
    with pytest.raises(ValueError, match="integer >= 1"):
        build_R(N, SewingConfig(TAU, W, 1e-3))


# ------------------------------------------------------------------- minors


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_minor_expansion_matches_direct_det(n, seed):
    rng = np.random.default_rng(seed)
    R = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    direct = np.linalg.det(np.eye(n) + R)
    assert abs(minor_expansion_det(R) - direct) < 1e-10 * max(abs(direct), 1.0)


def test_minor_expansion_guard():
    with pytest.raises(ValueError):
        minor_expansion_det(np.zeros((13, 13)))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000))
def test_minor_expansion_bordered_matches_block_det(n, p, seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U = 0.3 * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))
    V = 0.3 * (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n)))
    R = 0.3 * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    direct = np.linalg.det(
        np.block([[S, U], [V, np.eye(p) + R]])
    )
    val = minor_expansion_bordered(S, U, V, R)
    assert abs(val - direct) < 1e-9 * max(abs(direct), 1.0)


# ------------------------------------------------- bosonic P2 consistency


def test_p2_equals_minus_second_log_derivative_of_K_plus_const():
    # [DERIVED] d^2/dz^2 log K = -P_2 + E_2-type constant; eliminate the
    # constant with a second evaluation point
    def dd(z, h=1e-4):
        v = [np.log(prime_form_K(z + d, TAU)) for d in (-h, 0, h)]
        return (v[0] - 2 * v[1] + v[2]) / h**2

    z1, z2 = 0.9 + 0.7j, -0.6 + 1.4j
    lhs = dd(z1) - dd(z2)
    rhs = -(weierstrass_P(2, z1, TAU) - weierstrass_P(2, z2, TAU))
    assert abs(lhs - rhs) < 1e-5
