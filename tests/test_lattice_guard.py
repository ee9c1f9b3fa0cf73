"""The lattice guard of product grids: the grid path of the kernel quotient
szego.theta_ratio_core against the check of every pair, on contour-shaped and
scattered grids, with tau far from the fundamental domain, and the values of
T against a per-pair evaluation of the moment grids."""

import numpy as np
import pytest

from conftest import log_A_radial
from sewkernel import SewingConfig, TwistConfig, lattice_min_distance, nearest_lattice_point
from sewkernel import szego
from sewkernel.elliptic import _check_off_lattice, prime_form_K, theta_char_g1

TWO_PI_I = 2j * np.pi
TAUS = [0.3 + 1.1j, 11.7 + 0.8j, -9.4 + 0.35j, -0.2 + 0.6j]


def _circle(c, r, M=256):
    return c + r * np.exp(2j * np.pi * np.arange(M) / M)


def _raises(check, *args):
    try:
        check(*args)
    except ValueError:
        return True
    return False


def _brute(x, y, tau):
    """True where the check of every pair raises."""
    return _raises(_check_off_lattice, x[:, None] - y[None, :], tau, "K")


def _guard(x, y, tau):
    """True where the grid path of the kernel quotient raises."""
    sew = SewingConfig(tau, TWO_PI_I * (0.5 * tau + 0.3), 1e-8)
    tw = TwistConfig(0.1, 0.2, 0.3, 0.2)
    return _raises(szego.theta_ratio_core, x[:, None], y[None, :], sew, tw)


def _grids(tau, rng):
    """A contour-shaped grid (two circles, as in a moment block) and a
    scattered grid (random points of a few cells against a circle)."""
    D = lattice_min_distance(tau)
    w = TWO_PI_I * (rng.uniform(0.2, 0.8) * tau + rng.uniform(0.2, 0.8))
    dw = abs(w - nearest_lattice_point(w, tau)[0])
    r = 0.45 * min(dw, D)
    contour = (_circle(w, r), _circle(0.0, 0.8 * r))
    pts = TWO_PI_I * (rng.uniform(-1, 2, 40) * tau + rng.uniform(-1, 2, 40))
    scattered = (pts, _circle(w, r))
    return contour, scattered


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("shape", ["contour", "scattered"])
@pytest.mark.parametrize("planted", ["x", "y"])
def test_planted_lattice_pair_raises(tau, shape, planted, rng):
    contour, scattered = _grids(tau, rng)
    x, y = (contour if shape == "contour" else scattered)
    lam = TWO_PI_I * (tau + 1.0)
    x, y = x.copy(), y.copy()
    if planted == "y":
        y[7] = x[3] - lam
    else:
        x[3] = y[7] + lam
    # both orientations of the grid
    for col, row in ((x, y), (y, x)):
        assert _brute(col, row, tau) and _guard(col, row, tau)


@pytest.mark.parametrize("tau", TAUS)
def test_clean_grids_pass_and_are_certified(tau, rng):
    contour, scattered = _grids(tau, rng)
    for x, y in (contour, scattered):
        assert not _guard(x, y, tau) and not _brute(x, y, tau)


@pytest.mark.parametrize("tau, w", [(0.3 + 1.1j, 0.5 + 2.2j), (-7.6 + 0.9j, 1.3 + 4.1j)])
def test_T_matches_per_pair_moment_grids(tau, w, monkeypatch):
    sew = SewingConfig(tau, w, 2e-3 * np.exp(0.7j))
    tw = TwistConfig(alpha1=0.15, beta1=0.25, beta2=0.1, kappa=0.2)
    N, M = 16, 256
    T = szego.build_T(N, sew, tw, M)

    def per_pair_block(a, bidx, N, sew, tw, quad_M):
        # the grid pointwise, with the lattice check of every pair, and the
        # full two-dimensional DFT
        xside, yside = 3 - a, bidx
        rx = sew.r1 if xside == 1 else sew.r2
        ry = 0.8 * rx if xside == yside else (sew.r1 if yside == 1 else sew.r2)
        circle = np.exp(TWO_PI_I * np.arange(quad_M) / quad_M)
        tx, ty = rx * circle, ry * circle
        # log A continued along rays, apart from the series of the package
        lx, ly = log_A_radial(xside, tx, sew), log_A_radial(yside, ty, sew)
        x = (tx + szego.puncture_center(xside, sew))[:, None]
        y = (ty + szego.puncture_center(yside, sew))[None, :]
        c = tw.kappa * sew.w
        core = theta_char_g1(tw.alpha1, tw.beta1, x - y + c, sew.tau) / (
            theta_char_g1(tw.alpha1, tw.beta1, c, sew.tau) * prime_form_K(x - y, sew.tau)
        )
        s_reg = np.exp(tw.kappa * lx)[:, None] * np.exp(-tw.kappa * ly)[None, :] * core
        F = np.fft.fft2(s_reg) / quad_M**2
        k = np.arange(1, N + 1)
        return rx ** (1.0 - k)[:, None] * ry ** (1.0 - k)[None, :] * F[:N, :N]

    monkeypatch.setattr(szego, "moment_block", per_pair_block)
    ref = szego.build_T(N, sew, tw, M)
    assert np.abs(T - ref).max() <= 1e-15 * np.abs(ref).max()
