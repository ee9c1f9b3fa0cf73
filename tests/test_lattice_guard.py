"""The lattice guard of product grids: the geometric certificate of
_check_off_lattice_grid against the check of every pair, on contour-shaped and
scattered grids, with tau far from the fundamental domain, and the values of
T against a per-pair evaluation of the moment grids."""

import numpy as np
import pytest

from sewkernel import SewingConfig, TwistConfig, lattice_min_distance, nearest_lattice_point
from sewkernel import szego
from sewkernel.elliptic import (
    _check_off_lattice,
    _check_off_lattice_grid,
    _clear_of_lattice,
    prime_form_K,
    theta_char_g1,
)

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
    """True where the guard of the product grid raises."""
    return _raises(_check_off_lattice_grid, x[:, None], y[None, :], tau, "K")


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
    # both orientations of the grid, through the guard and through the grid
    # path of the kernel quotient
    sew = SewingConfig(tau, TWO_PI_I * (0.5 * tau + 0.3), 1e-8)
    tw = TwistConfig(0.1, 0.2, 0.3, 0.2)
    for col, row in ((x, y), (y, x)):
        assert _brute(col, row, tau) and _guard(col, row, tau)
        with pytest.raises(ValueError):
            szego.theta_ratio_core(col[:, None], row[None, :], sew, tw)


@pytest.mark.parametrize("tau", TAUS)
def test_clean_grids_pass_and_are_certified(tau, rng):
    contour, scattered = _grids(tau, rng)
    for x, y in (contour, scattered):
        assert not _guard(x, y, tau) and not _brute(x, y, tau)
    # a contour against a contour is decided by the bound alone, also a
    # circle inside the hole of a concentric one (a same-side block)
    x, y = contour
    D = lattice_min_distance(tau)
    assert _clear_of_lattice(x, y, tau, 2e-12 * D).all()
    assert _clear_of_lattice(y, _circle(0.0, np.abs(y).max() / 0.8), tau, 2e-12 * D).all()


def _surface_grids(sew, rng, M=64):
    """The four moment grids of a surface (M points a contour) and scattered
    points against its full-radius contours, as (x, y) pairs of 1-d
    arrays."""
    grids = []
    for a in (1, 2):
        for bidx in (1, 2):
            xside, yside = 3 - a, bidx
            rx = sew.r1 if xside == 1 else sew.r2
            ry = 0.8 * rx if xside == yside else (sew.r1 if yside == 1 else sew.r2)
            grids.append((_circle(szego.puncture_center(xside, sew), rx, M),
                          _circle(szego.puncture_center(yside, sew), ry, M)))
    pts = TWO_PI_I * (rng.uniform(0, 1, 9) * sew.tau + rng.uniform(0, 1, 9))
    for side, r in ((1, sew.r1), (2, sew.r2)):
        c = _circle(szego.puncture_center(side, sew), r, M)
        grids += [(pts, c), (c, pts)]
    return grids


def test_certificate_agrees_with_every_pair_on_random_surfaces(rng):
    decided = 0
    for i in range(50):
        tau = complex(rng.uniform(-12, 12), rng.uniform(0.3, 2.0))
        w = TWO_PI_I * (rng.uniform(0.1, 0.9) * tau + rng.uniform(0.1, 0.9))
        D = lattice_min_distance(tau)
        dw = abs(w - nearest_lattice_point(w, tau)[0])
        # every third surface takes user radii just under min(dist(w), D)
        radii = {} if i % 3 else {"r1": 0.999 * min(dw, D), "r2": 0.998 * min(dw, D)}
        sew = SewingConfig(tau, w, 1e-6, **radii)
        tol = 1e-12 * D
        for j, (x, y) in enumerate(_surface_grids(sew, rng)):
            if (i + j) % 7 == 0:  # plant one pair on the lattice
                x = x.copy()
                x[5] = y[2] + TWO_PI_I * (rng.integers(-3, 4) * tau + rng.integers(-3, 4))
            assert _guard(x, y, tau) == _brute(x, y, tau)
            for p, q in ((x, y), (y, x)):
                clear = _clear_of_lattice(p, q, tau, 2.0 * tol)
                if clear is None:
                    continue
                decided += clear.size
                # a certified point has no pair within tol of the lattice
                z = p[clear, None] - q[None, :]
                lam, _, _ = nearest_lattice_point(z, tau)
                assert np.all(np.abs(z - lam) >= tol)
    assert decided > 0


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
        tx, lx = szego._log_A_circle(xside, rx, quad_M, sew)
        ty, ly = szego._log_A_circle(yside, ry, quad_M, sew)
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
