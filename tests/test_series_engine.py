"""The series engine against plain references: the product-grid theta
against a per-point loop and a 30-digit mpmath sum (also on wide grids),
the tail-bound ranges against ranges widened to twice the bound, the
Taylor-circle readings of E_k and P_m against mpmath q-series and lattice
sums, and the lattice helpers against brute force.

Tolerances come from the round-off of a double-precision lattice sum: a
term exp(arg) carries a relative error of a few eps * (1 + |arg|), so two
evaluations of one series may differ by about eps * sum_n (1 + |arg_n|)
* |term_n|.  The tests allow 16 times that.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from sewkernel import (
    SewingConfig,
    TwistConfig,
    build_R,
    build_T,
    eisenstein,
    lattice_min_distance,
    nearest_lattice_point,
    theta_char_g1,
    weierstrass_P,
    z2_heisenberg,
)
from sewkernel import elliptic, szego
from sewkernel.elliptic import dedekind_eta, theta_char_g1_diff

EPS = np.finfo(float).eps
TWO_PI_I = 2j * np.pi

mp.mp.dps = 30


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _terms(alpha, beta, z, tau, half=80):
    """Exponents of the theta terms around the largest one."""
    zz = complex(z) + TWO_PI_I * complex(beta)
    centre = round(zz.real / (2.0 * np.pi * tau.imag) - alpha)
    nu = np.arange(centre - half, centre + half + 1) + alpha
    return 1j * np.pi * nu**2 * tau + nu * zz


def _roundoff(alpha, beta, z, tau):
    """16 * eps * sum_n (1 + |arg_n|) * |exp(arg_n)|."""
    arg = _terms(alpha, beta, z, tau)
    return 16.0 * EPS * np.sum((1.0 + np.abs(arg)) * np.exp(arg.real))


def _theta_mp(alpha, beta, z, tau):
    """theta[alpha; beta](z, tau) summed term by term at 30 digits."""
    alpha, beta, z, tau = mp.mpf(alpha), _mpc(beta), _mpc(z), _mpc(tau)
    zz = z + 2j * mp.pi * beta
    centre = int(mp.nint(mp.re(zz) / (2 * mp.pi * mp.im(tau)) - alpha))
    return mp.fsum(
        mp.exp(1j * mp.pi * (n + alpha) ** 2 * tau + (n + alpha) * zz)
        for n in range(centre - 90, centre + 91)
    )


GRID_CASES = [
    # alpha, beta, tau, centre of x, centre of y
    (0.15, 0.25, 0.3 + 1.1j, 1.0 + 0.8j, 0.0),
    (-0.35, 0.2 - 0.15j, 0.21 + 0.05j, 8.0 + 0.3j, 0.2j),
    (0.5, 0.5, -0.4 + 0.05j, -8.1 + 0.4j, 0.3),
    (0.0, -0.3 + 0.4j, 2.7 + 0.6j, 0.5j, -7.9 - 0.2j),
]


@pytest.mark.parametrize("alpha, beta, tau, cx, cy", GRID_CASES)
def test_theta_grid_matches_pointwise_loop(alpha, beta, tau, cx, cy):
    ang = 2.0 * np.pi * np.arange(12) / 12
    x = (cx + 0.7 * np.exp(1j * ang))[:, None]
    y = (cy + 0.4 * np.exp(1j * (ang + 0.1)))[None, :]
    grid = theta_char_g1_diff(alpha, beta, x, y, tau)
    assert grid.shape == (12, 12)
    for i in range(12):
        for j in range(12):
            z = x[i, 0] - y[0, j]
            ref = theta_char_g1(alpha, beta, z, tau)
            assert abs(grid[i, j] - ref) <= _roundoff(alpha, beta, z, tau)


@pytest.mark.parametrize("alpha, beta, tau, cx, cy", GRID_CASES)
def test_theta_grid_matches_mpmath(alpha, beta, tau, cx, cy):
    x = (cx + np.array([0.0, 0.5j, -0.6]))[:, None]
    y = (cy + np.array([0.0, 0.3 - 0.2j]))[None, :]
    grid = theta_char_g1_diff(alpha, beta, x, y, tau)
    for i in range(x.shape[0]):
        for j in range(y.shape[1]):
            z = x[i, 0] - y[0, j]
            ref = complex(_theta_mp(alpha, beta, z, tau))
            assert abs(grid[i, j] - ref) <= _roundoff(alpha, beta, z, tau)
            assert abs(theta_char_g1(alpha, beta, z, tau) - ref) <= _roundoff(alpha, beta, z, tau)


WIDE_CASES = [
    # three far points, |Re z| ~ 8, against a 256-point contour; every
    # eighth column is checked
    (np.array([8.0 + 0.3j, -8.1 + 0.4j, 7.9 - 0.6j]), 0.5 * np.exp(2j * np.pi * np.arange(256) / 256), 8),
    # three near points against a row whose real parts span [-8, 8]: the
    # largest terms of the entries of one row differ by a factor 1e59, so
    # the small entries come out right only if no term of theirs is dropped
    # against the largest term of the row
    (np.array([0.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.5j]), np.linspace(-8.0, 8.0, 64) + 0.2j, 3),
]


@pytest.mark.parametrize("x, y, step", WIDE_CASES)
def test_wide_theta_grid_matches_mpmath(x, y, step):
    # the tail-bound range of _theta_grid_factors drops nothing a 30-digit
    # sum sees, also where the terms of one row span many orders of
    # magnitude; the error is taken relative to sum_n |term_n|, since near a
    # zero of theta the terms cancel
    alpha, beta, tau = -0.35, 0.2 - 0.15j, 0.21 + 0.05j
    grid = theta_char_g1_diff(alpha, beta, x[:, None], y[None, :], tau)
    for i in range(x.size):
        for j in range(0, y.size, step):
            z = x[i] - y[j]
            ref = complex(_theta_mp(alpha, beta, z, tau))
            size = np.sum(np.exp(_terms(alpha, beta, z, tau).real))
            assert abs(grid[i, j] - ref) <= 1e-13 * size


def _theta_taylor_mp(alpha, beta, z0, tau, n):
    """Taylor coefficients of theta[alpha; beta](z0 + s) in s, orders
    0..n-1, from the sum of _theta_mp: order m takes each term times
    nu^m/m!."""
    alpha, beta, z0, tau = mp.mpf(alpha), _mpc(beta), _mpc(z0), _mpc(tau)
    zz = z0 + 2j * mp.pi * beta
    centre = int(mp.nint(mp.re(zz) / (2 * mp.pi * mp.im(tau)) - alpha))
    nu = [k + alpha for k in range(centre - 90, centre + 91)]
    terms = [mp.exp(1j * mp.pi * v**2 * tau + v * zz) for v in nu]
    return [mp.fsum(t * v**m for v, t in zip(nu, terms)) / mp.factorial(m) for m in range(n)]


def _divide(a, b, n):
    """The Taylor coefficients of a/b to order n - 1, b_0 != 0."""
    q = []
    for k in range(n):
        q.append((a[k] - mp.fsum(q[j] * b[k - j] for j in range(k))) / b[0])
    return q


def _core_taylor_mp(tw, w, tau, c0, n):
    """Taylor coefficients h_0..h_(n-1) in s of the core
    theta[a1; b1](c0 + s + kappa*w) theta1'(0) / (theta[a1; b1](kappa*w)
    theta1(c0 + s)), less 1/s at c0 = 0, at 30 digits."""
    c = tw.kappa * w
    num = _theta_taylor_mp(tw.alpha1, tw.beta1, c0 + c, tau, n + 1)
    th1 = _theta_taylor_mp(0.5, 0.5, c0, tau, n + 2)
    scale = _theta_taylor_mp(0.5, 0.5, 0.0, tau, 2)[1] / _theta_mp(tw.alpha1, tw.beta1, c, tau)
    if c0 != 0:
        return _divide([scale * a for a in num], th1, n)
    # theta1(s) = s*g(s), so core - 1/s = (scale*num - g)/(s*g), whose
    # numerator vanishes at s = 0
    g = th1[1:]
    return _divide([scale * a - b for a, b in zip(num, g)][1:], g, n)


@pytest.mark.parametrize("tau, w", [(0.3 + 1.1j, 0.5 + 2.2j), (-7.6 + 0.9j, 1.3 + 4.1j)])
def test_core_taylor_data_matches_mpmath(tau, w):
    # h_n, n <= 30, at the offsets c0 = 0, w, -w of the moment blocks, read
    # by FFT from one grid of the core on the circle of radius r, against
    # the 30-digit Taylor expansion.  Order n carries about eps*max|h|/r^n,
    # so it is compared at the scale of h_n*r^n; the theta terms carry the
    # phase pi*nu^2*Re(tau), whose round-off grows with |Re tau| (see
    # _roundoff): the errors are 6.2e-16 and 7.7e-15 of the largest h_n*r^n
    sew = SewingConfig(tau, w, 1e-3)
    tw = TwistConfig(alpha1=0.15, beta1=0.25, beta2=0.1, kappa=0.2)
    szego._moment_block_cached.cache_clear()
    surface = szego._surface(sew, tw)
    _, _, h = surface._taylor_data(16)
    _, r = szego._taylor_circle(32, szego._TAYLOR_M_CORE, surface.R)
    scale = r ** np.arange(31)
    for c, c0 in ((0, 0.0), (1, w), (-1, -w)):
        ref = np.array([complex(x) for x in _core_taylor_mp(tw, w, tau, c0, 31)]) * scale
        err = np.abs(h[c][:31] * scale - ref)
        assert err.max() <= 4e-15 * (1.0 + abs(tau.real)) * np.abs(ref).max()


def _series_values():
    """The theta grid, eta, E_k for k in {8, 40}, R and T on one surface,
    with the moment blocks built afresh."""
    tau, w = 0.13 + 1.2j, 0.27 * 2.0 * np.pi * np.exp(0.6j)
    ang = 2.0 * np.pi * np.arange(256) / 256
    x = (w + 0.4 * np.exp(1j * ang))[:, None]
    y = (0.3 * np.exp(1j * ang))[None, :]
    sew = SewingConfig(tau, w, 3e-4 * np.exp(0.3j))
    tw = TwistConfig(alpha1=0.15, beta1=0.25, beta2=0.1, kappa=0.2)
    szego._moment_block_cached.cache_clear()
    try:
        return [
            theta_char_g1_diff(0.15, 0.25, x, y, tau),
            dedekind_eta(tau),
            *(eisenstein(k, tau) for k in (8, 40)),
            build_R(16, sew),
            build_T(16, sew, tw, 256),
        ]
    finally:
        szego._moment_block_cached.cache_clear()


def _largest_move(monkeypatch, factor):
    """Largest change of a _series_values entry, relative to the largest
    entry of its value, when every tail bound puts the dropped terms below
    eps**factor of the largest term kept in place of eps."""
    base = _series_values()
    with monkeypatch.context() as m:
        m.setattr(elliptic, "_LOG_EPS", factor * elliptic._LOG_EPS)
        moved = _series_values()
    return max(np.abs(a - b).max() / np.abs(a).max() for a, b in zip(base, moved))


def test_tail_bound_loses_nothing(monkeypatch):
    # ranges of twice the reach in log size move nothing beyond round-off
    assert _largest_move(monkeypatch, 2.0) <= 1e-15
    # and the check is sharp: the theta reach keeps one term beyond the
    # bound, so only ranges cut to a twentieth of the reach show, moving
    # the theta grid by 3.6e-14 and T by 2.4e-14
    assert _largest_move(monkeypatch, 0.05) > 1e-14


def test_theta_grid_is_selected_by_shape_only():
    # a column against a row is the grid; any other shapes broadcast pointwise
    tau = 0.3 + 1.1j
    x = np.array([0.2 + 0.1j, 0.5 - 0.3j])
    y = np.array([0.1j, -0.4 + 0.2j])
    flat = theta_char_g1_diff(0.1, 0.2, x, y, tau)
    assert flat.shape == (2,)
    grid = theta_char_g1_diff(0.1, 0.2, x[:, None], y[None, :], tau)
    assert abs(np.diag(grid) - flat).max() < 1e-14


@functools.lru_cache(maxsize=None)
def _ehat_mp(k, tau):
    """(2*pi)^k * E_k(tau) from -B_k/k! + (2/(k-1)!) sum_n sigma_{k-1}(n) q^n,
    with the divisor sums taken directly, at 30 digits; also returns the sum
    of the moduli of the scaled terms, which sets the round-off of any
    double-precision evaluation of the series."""
    tau = _mpc(tau)
    q = mp.exp(2j * mp.pi * tau)
    total = -mp.bernoulli(k) / mp.factorial(k)
    size = abs(total)
    scale = 2 / mp.factorial(k - 1)
    n = 1
    while True:
        sigma = mp.fsum(mp.mpf(d) ** (k - 1) for d in range(1, n + 1) if n % d == 0)
        term = scale * sigma * q**n
        total += term
        size += abs(term)
        if n > k and abs(term) < mp.mpf(10) ** -40 * size:
            break
        n += 1
    return (2 * mp.pi) ** k * total, (2 * mp.pi) ** k * size


def _taylor_roundoff(n, R):
    """16 times the round-off eps * n * 2^(64n/M) / R^n of n * a_n, order n
    of a function read from elliptic._log_theta1_circle on the circle of
    radius 2^(-64/M) * R, M points: the DFT carries about eps of the
    largest value, and dividing bin n by the radius^n scales it up by
    2^(64n/M)/R^n."""
    M, _ = elliptic._taylor_circle(8 * n, elliptic._TAYLOR_M_LOG_THETA1, R)
    return 16.0 * EPS * np.exp(math.log(n) + 64.0 * n / M * math.log(2.0) - n * math.log(R))


def _ehat(k, tau):
    """(2*pi)^k * eisenstein(k, tau), scaled in two halves: (2*pi)^400
    alone overflows a double."""
    half = (2.0 * np.pi) ** (k / 2)
    return eisenstein(k, tau) * half * half


@pytest.mark.parametrize(
    "k, tau",
    [(k, tau) for tau in (0.3 + 1.1j, -0.2 + 0.6j) for k in (2, 4, 30, 100, 200, 400)
     if (k, tau) != (400, 0.3 + 1.1j)],
)
def test_eisenstein_hat_against_mpmath(k, tau):
    # Ehat_k = (2*pi)^k * E_k with a tolerance of 1e-14 * k times the sum
    # of the moduli of the q-series terms.  At Im(tau) = 1.1 that sum is
    # |Ehat_k| itself; at tau = -0.2 + 0.6i the terms cancel and it exceeds
    # |Ehat_400| by 1e9.  E_400 at tau = 0.3 + 1.1i, where D(q) = 2*pi, is
    # 2e-319, below the normal range of a double, and raises (see
    # test_eisenstein_below_the_double_range_raises).
    ref, size = _ehat_mp(k, tau)
    ehat = _ehat(k, tau)
    assert np.isfinite(ehat)
    assert abs(ehat - complex(ref)) < 1e-14 * k * float(size)


def test_eisenstein_below_the_double_range_raises():
    # |E_k| ~ 2 * D(q)^-k at tau = 0.3 + 1.1i, where D(q) = 2*pi: normal up
    # to k = 384, below the smallest normal double from k = 386 on
    tau = 0.3 + 1.1j
    assert abs(eisenstein(384, tau)) >= np.finfo(float).tiny
    for k in (386, 400):
        with pytest.raises(ValueError, match="normal range"):
            eisenstein(k, tau)


@pytest.mark.parametrize("k", [2, 4, 100, 200, 400])
def test_eisenstein_hat_off_the_fundamental_domain(k):
    # read on a circle, Ehat_k carries its digits relative to |Ehat_k|
    # itself where the q-series at tau cancels
    tau = -0.2 + 0.6j
    ref, _ = _ehat_mp(k, tau)
    ehat = _ehat(k, tau)
    assert abs(ehat - complex(ref)) <= 1e-12 * abs(complex(ref))


def test_eisenstein_hat_odd_and_low_orders_vanish():
    # E_k vanishes at odd k, and there is no E_0 or E_1
    assert all(eisenstein(k, 0.3 + 1.1j) == 0.0 for k in (3, 5, 7, 9))
    for k in (0, 1):
        with pytest.raises(ValueError):
            eisenstein(k, 0.3 + 1.1j)


@pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.2 + 0.6j, 0.45 + 0.9j, 10.0 + 0.5j])
@pytest.mark.parametrize("k", [2, 4, 6, 12, 30, 64, 100, 128])
def test_eisenstein_against_mpmath(k, tau):
    # E_k = -k * [s^k] log(theta1(s)/s) on the circle inside |s| < D(q),
    # within the round-off of that reading (see _taylor_roundoff); the
    # errors are at most 0.11 of it.  At 0.45 + 0.9i the q-series cancels by
    # 1e6 at k = 128; at 10 + 0.5i, D(q) = pi.
    ref, _ = _ehat_mp(k, tau)
    ref = complex(ref / (2 * mp.pi) ** k)
    assert abs(eisenstein(k, tau) - ref) <= _taylor_roundoff(k, lattice_min_distance(tau))


def _P2_mp(z, tau):
    """-d^2/dz^2 log theta_1(z) through mpmath's Jacobi theta function:
    theta[1/2; 1/2](z) = jtheta(1, i*z/2, exp(i*pi*tau)) up to a constant."""
    v, nome = 1j * _mpc(z) / 2, mp.exp(1j * mp.pi * _mpc(tau))
    j0, j1, j2 = (mp.jtheta(1, v, nome, d) for d in (0, 1, 2))
    return (j2 / j0 - (j1 / j0) ** 2) / 4


@pytest.mark.parametrize(
    "z, tau",
    [
        (0.8 + 0.6j, 0.3 + 1.1j),
        (-4.1 + 2.6j, 0.13 + 1.31j),  # 0.72 * D(q) from its nearest lattice point
        (1.3 - 0.9j, 10.0 + 0.5j),  # tau far from the fundamental domain
        (0.4 + 0.2j, -0.45 + 0.35j),
    ],
)
def test_weierstrass_P2_against_mpmath(z, tau):
    # P_2 = -2 * [s^2] log theta1(z + s), read on a circle inside the
    # zero-free disk |s| < dist(z, Lambda)
    ref = complex(_P2_mp(z, tau))
    assert abs(weierstrass_P(2, z, tau) / ref - 1.0) < 1e-11


def _P_lattice_mp(m, w, tau):
    """P_m(w) = sum_lam (w - lam)^(-m), m >= 3, at 30 digits, summed row by
    row over lam = 2*pi*i*(j*tau + n): each row is exact as
    (2*pi*i)^(-m) * sum_n (x - n)^(-m) = zeta(m, x) + (-1)^m zeta(m, 1 - x),
    x = w/(2*pi*i) - j*tau, with the Hurwitz zeta function; the rows
    |j| = 0, 1, ... are added until, past the peak of the row sizes
    (2*pi*j*Im(tau) > m), a pair is below 1e-25 of the total."""
    tau, x0 = _mpc(tau), _mpc(w) / (2j * mp.pi)
    total, j = mp.mpc(0), 0
    while True:
        row = mp.fsum(
            mp.zeta(m, x0 - i * tau) + (-1) ** m * mp.zeta(m, 1 - x0 + i * tau)
            for i in {j, -j}
        )
        total += row
        if 2 * mp.pi * j * mp.im(tau) > m and abs(row) < mp.mpf(10) ** -25 * abs(total):
            return total / (2j * mp.pi) ** m
        j += 1


# the regression surface of test_z2_heisenberg_far_from_the_lattice: D(q) =
# 2*pi, and w = -4.1 + 2.6i lies at 0.72 * D(q) from the lattice
REG_TAU, REG_W = 0.13 + 1.31j, -4.1 + 2.6j


@pytest.mark.parametrize("w", [REG_W, 0.3 * 2.0 * np.pi * np.exp(0.7j)], ids=["0.72D", "0.3D"])
@pytest.mark.parametrize("m", [3, 8, 20, 34, 48, 64])
def test_weierstrass_P_against_lattice_sum(m, w):
    # P_m = (-1)^(m+1) * m * [s^m] log theta1(w + s) within the round-off
    # of its reading (see _taylor_roundoff); the errors are at most 0.10 of
    # it.  At 0.72 * D(q) a Laurent series in E_k needs several hundred
    # terms, and one cut at 200 puts P_34 0.34 off.
    ref = complex(_P_lattice_mp(m, w, REG_TAU))
    lam, _, _ = nearest_lattice_point(w, REG_TAU)
    assert abs(weierstrass_P(m, w, REG_TAU) - ref) <= _taylor_roundoff(m, abs(w - lam))


def test_z2_heisenberg_converges_in_N():
    # R reads P_m(w) up to m = 2N at 0.72 * D(q), where a Laurent series in
    # E_k needs several hundred terms.  The orders N = 16 leaves out weigh
    # in below |rho|^8.5, so N = 16 and 32 agree to round-off
    sew = SewingConfig(REG_TAU, REG_W, 1e-4)
    z16, z32 = z2_heisenberg(sew, N=16), z2_heisenberg(sew, N=32)
    assert abs(z16 - z32) <= 16.0 * EPS * abs(z32)


def test_z2_heisenberg_far_from_the_lattice():
    # w at 0.72 * D(q) from the lattice, near the edge of the zero-free
    # disk of theta1(w + s) on which the P_m are read
    sew = SewingConfig(REG_TAU, REG_W, 1e-4)
    zh = z2_heisenberg(sew, N=16)
    lead = 1.0 - sew.rho * complex(_P2_mp(sew.w, sew.tau))
    assert abs(zh * dedekind_eta(sew.tau) - lead) < 4.0 * abs(sew.rho) ** 2


# ------------------------------------------------------------------ lattice

FAR_TAUS = [10.0 + 0.5j, -7.3 + 0.2j, 0.5 + 0.05j, 3.1 + 4.0j, 0.49 + 0.3j, -1.0 / (0.3 + 1.1j)]


def _brute_lattice(tau, radius):
    """All points 2*pi*i*(m*tau + n) of modulus below radius."""
    mmax = math.ceil(radius / (2.0 * np.pi * tau.imag)) + 1
    nmax = math.ceil(radius / (2.0 * np.pi) + mmax * abs(tau.real)) + 1
    m, n = np.meshgrid(np.arange(-mmax, mmax + 1), np.arange(-nmax, nmax + 1))
    pts = TWO_PI_I * (m * tau + n)
    return pts[np.abs(pts) < radius]


def test_lattice_min_distance_of_a_skewed_basis():
    assert abs(lattice_min_distance(10.0 + 0.5j) - np.pi) < 1e-12


@pytest.mark.parametrize("tau", FAR_TAUS)
def test_lattice_min_distance_against_brute_force(tau):
    pts = _brute_lattice(tau, 2.0 * np.pi + 1.0)  # 2*pi*i is a lattice vector
    ref = np.min(np.abs(pts[np.abs(pts) > 0]))
    assert abs(lattice_min_distance(tau) - ref) < 1e-12 * ref


@pytest.mark.parametrize("tau", FAR_TAUS)
def test_nearest_lattice_point_against_brute_force(tau):
    rng = np.random.default_rng(5)
    z = 12.0 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    lam, m, n = nearest_lattice_point(z, tau)
    assert np.allclose(lam, TWO_PI_I * (m * tau + n), rtol=0, atol=1e-12)
    pts = _brute_lattice(tau, np.max(np.abs(z)) + 2.0 * np.pi + 1.0)
    ref = np.min(np.abs(z[:, None] - pts[None, :]), axis=1)
    assert np.all(np.abs(z - lam) <= ref + 1e-12)
