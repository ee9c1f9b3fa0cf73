"""Genus-two Szego kernel on the self-sewn torus.

The sewn kernel is assembled from the genus-one data as

    S2(x, y) = S_kappa(x, y) + xi * h(x) . D^(theta2) . (I - T)^(-1) . hbar(y)

with half-order moment vectors h_a(x, k) = rho^((k_a - 1/2)/2) d_a(x, k) and
hbar_a(y, k) = rho^((k_a - 1/2)/2) dbar_a(y, k), both taken from the one
contour extractor szego.half_diff.  s2_eval accepts arrays of points and then
extracts each point once and solves with I - T once for the whole matrix
[S2(x_i, y_j)].  The multiplier system across the sewing handle is checked by
sewing_multiplier_residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import nearest_lattice_point
from .szego import (
    build_T,
    half_diff,
    principal_branch_winding,
    puncture_center,
    puncture_distance,
    rho_half_powers,
    s_kappa,
    theta2_weights,
)


@dataclass(frozen=True)
class KernelEval:
    """Kernel value together with the truncation order and quadrature size.

    value is S2(x, y) for scalar points, and the matrix [S2(x_i, y_j)] when
    either point argument is an array."""

    value: complex
    N: int
    quad_M: int


def domain_check(tau, w, rho):
    """Check membership of (tau, w, rho) in the sewing domain

        |w - lam| > 2*|rho|^(1/2) > 0   for all lam in 2*pi*i*(Z*tau + Z).

    Returns (ok, margin, lam_worst) where margin = min |w - lam| - 2*|rho|^(1/2),
    attained at the lattice point lam_worst nearest to w.
    """
    if np.imag(tau) <= 0 or rho == 0:
        return False, -np.inf, None
    lam, _, _ = nearest_lattice_point(w, tau)
    margin = float(abs(w - lam) - 2.0 * np.sqrt(abs(rho)))
    return margin > 0.0, margin, complex(lam)


def h_rows(points, N, sew, tw, quad_M=256, b=None, bar=False):
    """Rows h(x) (bar=False) or hbar(y) (bar=True) over the flattened (a, k)
    index: a vector for a scalar point, one row per point for an array."""
    parts = [
        rho_half_powers(N, a, sew, tw) * half_diff(a, points, N, sew, tw, quad_M, b, bar)
        for a in (1, 2)
    ]
    return np.concatenate(parts, axis=-1)


def _check_convergence(xs, ys, sew):
    """Raise where the correction series of S2 diverges: for some pair and
    some a, x lies within r_a of a translate of puncture a, y within r_abar
    of a translate of puncture abar, and |x_loc| * |y_loc| <= |rho|.  The
    extractions then grow like (|x_loc| |y_loc|)^(-k) against rho^k."""
    for a in (1, 2):
        ra, rb = (sew.r1, sew.r2) if a == 1 else (sew.r2, sew.r1)
        dx = puncture_distance(xs, a, sew)[:, None]
        dy = puncture_distance(ys, 3 - a, sew)[None, :]
        if np.any((dx < ra) & (dy < rb) & (dx * dy <= abs(sew.rho))):
            raise ValueError(
                "S2 correction series diverges: |x_loc| * |y_loc| <= |rho| "
                f"for a point pair near punctures {a} and {3 - a}"
            )


def s2_eval(x, y, sew, tw, N=16, quad_M=256, b=None):
    """Genus-two Szego kernel S2(x, y) on the sewn surface (coordinate form
    in the uniformising torus variable).  Returns a KernelEval.

    x and y are scalars or 1-d arrays; for arrays the value is the matrix
    [S2(x_i, y_j)], built from one extraction per point and one solve with
    I - T.  Raises ValueError outside the sewing domain and where the
    correction series diverges (see _check_convergence)."""
    ok, margin, _ = domain_check(sew.tau, sew.w, sew.rho)
    if not ok:
        raise ValueError(f"(tau, w, rho) outside the sewing domain (margin {margin:g})")
    xs = np.atleast_1d(np.asarray(x, dtype=complex))
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    _check_convergence(xs, ys, sew)
    base = s_kappa(xs[:, None], ys[None, :], sew, tw, b)
    h = h_rows(xs, N, sew, tw, quad_M, b) * theta2_weights(N, tw)
    hb = h_rows(ys, N, sew, tw, quad_M, b, bar=True)
    T = build_T(N, sew, tw, quad_M, b)
    val = base + tw.xi * h @ np.linalg.solve(np.eye(2 * N) - T, hb.T)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        val = complex(val[0, 0])
    return KernelEval(val, N, quad_M)


def sewing_multiplier_residual(x_loc, a, y, sew, tw, N=16, quad_M=256, b=None):
    """Residual of the multiplier relation across the sewing handle.

    A point with local coordinate x_loc in annulus a is identified with the
    point with local coordinate rho / x_loc in annulus abar; the kernel
    half-form transforms with the Jacobian factor

        dz_a^(1/2) = (-1)^abar * xi * rho^(1/2) / z_abar * dz_abar^(1/2)

    and picks up the multiplier -theta2^(a - abar).  Both signs of the
    exponent (a - abar) are tried and the smaller normalised residual is
    returned as (residual, sign_used), with sign_used the coefficient s in
    theta2^(s*(a - abar)).

    Pointwise kernel values carry the principal puncture power, whose branch
    cuts can slip a factor e^(2*pi*i*kappa) against the branch-tracked
    expansion convention; the slip is deterministic and the multiplier is
    compensated by e^(2*pi*i*kappa*m) with

        m = n(x) - n(xbar) + (-1)^a * nu,

    n the principal-power windings of the two identified points and nu the
    winding of Log(x_loc) + Log(xbar_loc) against the carried log(rho).
    """
    abar = 3 - a
    x_loc = complex(x_loc)
    xbar_loc = complex(sew.rho) / x_loc
    x = x_loc + puncture_center(a, sew)
    xbar = xbar_loc + puncture_center(abar, sew)

    lhs, rhs = s2_eval(np.array([x, xbar]), y, sew, tw, N, quad_M, b).value[:, 0]
    jac = (-1.0) ** abar * tw.xi * sew.sqrt_rho / xbar_loc
    scale = max(abs(lhs * jac), abs(rhs), 1e-300)

    n_x = principal_branch_winding(a, x_loc, sew, b)
    n_xbar = principal_branch_winding(abar, xbar_loc, sew, b)
    nu_c = (np.log(x_loc) + np.log(xbar_loc) - sew.log_rho) / (2j * np.pi)
    nu = int(np.rint(nu_c.real))
    if abs(nu_c - nu) > 1e-8:
        raise RuntimeError(f"identification winding not integral: {nu_c}")
    slip = np.exp(2j * np.pi * tw.kappa * (n_x - n_xbar + (-1) ** a * nu))

    best = None
    for sign in (+1, -1):
        mult = -tw.theta2_mult ** (sign * (a - abar)) * slip
        res = abs(lhs * jac - mult * rhs) / scale
        if best is None or res < best[0]:
            best = (res, sign)
    return best


def annulus_point(a, r_frac, angle, sew):
    """Convenience: a point in annulus a at radius fraction r_frac between the
    inner radius |rho|/r_abar and the outer radius r_a, at the given angle."""
    r_out = sew.r1 if a == 1 else sew.r2
    r_in = abs(sew.rho) / (sew.r2 if a == 1 else sew.r1)
    r = r_in + r_frac * (r_out - r_in)
    return r * np.exp(1j * angle) + puncture_center(a, sew)
