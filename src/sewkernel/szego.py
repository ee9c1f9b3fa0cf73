"""Twisted genus-one Szego kernel on the self-sewn torus and its expansion
moments.

The torus C/Lambda, Lambda = 2*pi*i*(Z*tau + Z), is sewn to itself across two
punctures located at 0 (puncture 1, local coordinate z) and w (puncture 2,
local coordinate z - w) through the relation z1*z2 = rho.  The twisted kernel

    S_kappa(x, y) = ( theta1(x-w) theta1(y) / (theta1(x) theta1(y-w)) )^kappa
                    * theta[a1; b1](x - y + kappa*w)
                      / ( theta[a1; b1](kappa*w) * K(x - y) )

is a (1/2, 1/2)-form with multipliers encoded in TwistConfig.  Near the
punctures it behaves like x^(-kappa), (x-w)^(+kappa), y^(+kappa) and
(y-w)^(-kappa); the expansion moments C_ab(k, l) are Laurent-type
coefficients of the regularised kernel obtained by stripping these fractional
powers.

Branch convention.  Every fractional power attached to a puncture is realised
as exp(+/- kappa * log A_c(t)) where A_1(t) = t*theta1(t-w)/theta1(t),
A_2(t) = theta1(t)/(t*theta1(t+w)) are analytic and non-vanishing on a disk
around the respective puncture, and log A_c is continued radially from its
value at the puncture centre (principal logarithm of -K(w) resp. 1/K(w)).
This makes every contour integrand single valued and fixes the relative
branch between pointwise kernel evaluations and the moment matrices.
Fractional powers of rho always use one fixed principal logarithm stored on
SewingConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import (
    DEFAULT_BUDGET,
    SeriesBudget,
    lattice_min_distance,
    nearest_lattice_point,
    prime_form_K,
    prime_form_K_diff,
    theta1,
    theta_char_g1,
    theta_char_g1_diff,
)

COINCIDENCE_RTOL = 1e-8
_RADIAL_STEPS = 48


@dataclass(frozen=True)
class TwistConfig:
    """Twist data of the sewn surface.

    alpha1, beta1 : real characteristics of the torus twist (multipliers
        theta_1 = -exp(-2*pi*i*beta1), phi_1 = -exp(2*pi*i*alpha1)).
    beta2 : characteristic of the twist across the sewing handle
        (theta_2 = -exp(-2*pi*i*beta2)).
    kappa : puncture monodromy exponent, |kappa| < 1/2
        (phi_2 = -exp(2*pi*i*kappa)).
    B : odd integer selecting the square-root sheet xi = exp(i*pi*B/2).
    """

    alpha1: float
    beta1: float
    beta2: float
    kappa: float
    B: int = 1

    def __post_init__(self):
        if not abs(self.kappa) < 0.5:
            raise ValueError(f"kappa must satisfy |kappa| < 1/2, got {self.kappa}")
        if self.B % 2 == 0:
            raise ValueError(f"B must be odd, got {self.B}")

    @property
    def theta1_mult(self):
        return -np.exp(-2j * np.pi * self.beta1)

    @property
    def phi1_mult(self):
        return -np.exp(2j * np.pi * self.alpha1)

    @property
    def theta2_mult(self):
        return -np.exp(-2j * np.pi * self.beta2)

    @property
    def phi2_mult(self):
        return -np.exp(2j * np.pi * self.kappa)

    @property
    def xi(self):
        return complex(np.exp(0.5j * np.pi * self.B))


@dataclass(frozen=True)
class SewingConfig:
    """Sewing data (tau, w, rho) plus contour radii and the fixed branch of
    log(rho) used for all fractional rho-powers.

    r1, r2 default to 0.45 * min(dist(w, Lambda), D(q)) which keeps both
    contours inside the sewing annuli for every point of the sewing domain.
    sqrt_rho / log_rho may be overridden to select a continued branch (used by
    the modular transformation tests); by default the principal branch is
    taken and sqrt_rho = exp(log_rho / 2).

    branch_n1, branch_n2 are carried winding integers added (times 2*pi*i) to
    the anchor value of the puncture branch logs log A_1, log A_2; the modular
    transport of a sewing configuration updates them together with log_rho.
    """

    tau: complex
    w: complex
    rho: complex
    r1: float = None
    r2: float = None
    log_rho: complex = None
    branch_n1: int = 0
    branch_n2: int = 0

    def __post_init__(self):
        if np.imag(self.tau) <= 0:
            raise ValueError("tau must lie in the upper half plane")
        if self.rho == 0:
            raise ValueError("rho must be non-zero")
        D = lattice_min_distance(self.tau)
        lam, _, _ = nearest_lattice_point(self.w, self.tau)
        dw = abs(complex(self.w) - complex(lam))
        if dw < 1e-12 * D:
            raise ValueError("w must not lie on the lattice")
        r_default = 0.45 * min(dw, D)
        if self.r1 is None:
            object.__setattr__(self, "r1", r_default)
        if self.r2 is None:
            object.__setattr__(self, "r2", r_default)
        if self.log_rho is None:
            object.__setattr__(self, "log_rho", complex(np.log(complex(self.rho))))
        if abs(self.rho) >= self.r1 * self.r2:
            raise ValueError(
                f"|rho| = {abs(self.rho):g} must be below r1*r2 = {self.r1 * self.r2:g}"
            )

    @property
    def sqrt_rho(self):
        return complex(np.exp(0.5 * self.log_rho))

    def rho_pow(self, e):
        """rho**e on the branch fixed by log_rho."""
        return np.exp(e * self.log_rho)

    @property
    def D_q(self):
        return lattice_min_distance(self.tau)


def puncture_center(side, sew):
    """Location of puncture `side` (1 -> 0, 2 -> w) on the torus."""
    if side == 1:
        return 0.0 + 0.0j
    if side == 2:
        return complex(sew.w)
    raise ValueError(f"puncture side must be 1 or 2, got {side}")


def mode_offset(a, kappa):
    """Fractional mode shift k_a - k = kappa * (-1)^abar for puncture a."""
    # abar = 2 when a = 1 and vice versa, so the shift is +kappa at a = 1.
    if a == 1:
        return kappa
    if a == 2:
        return -kappa
    raise ValueError(f"puncture index must be 1 or 2, got {a}")


def _A_values(side, t, sew, b):
    """A_c(t) for the branch bookkeeping; t = 0 is mapped to the limit."""
    t = np.asarray(t, dtype=complex)
    w, tau = sew.w, sew.tau
    out = np.empty(t.shape, dtype=complex)
    zero = np.abs(t) == 0.0
    nz = ~zero
    if side == 1:
        out[nz] = t[nz] * theta1(t[nz] - w, tau, b) / theta1(t[nz], tau, b)
        if zero.any():
            out[zero] = -prime_form_K(w, tau, b)
    else:
        out[nz] = theta1(t[nz], tau, b) / (t[nz] * theta1(t[nz] + w, tau, b))
        if zero.any():
            out[zero] = 1.0 / prime_form_K(w, tau, b)
    return out


def _log_A_radial(side, t, sew, b, steps=_RADIAL_STEPS):
    """log A_c at scattered points, continued radially from the puncture
    centre (principal log there).  Vectorised over t."""
    t = np.asarray(t, dtype=complex)
    s = np.linspace(0.0, 1.0, steps + 1)
    path = s[:, None] * t[None, ...].reshape(1, -1)
    vals = _A_values(side, path, sew, b)
    ang = np.unwrap(np.angle(vals), axis=0)
    out = np.log(np.abs(vals[-1])) + 1j * ang[-1]
    winding = sew.branch_n1 if side == 1 else sew.branch_n2
    if winding:
        out = out + 2j * np.pi * winding
    return out.reshape(t.shape)


def _log_A_circle(side, r, M, sew, b):
    """(points, log A_c) on the circle |t| = r, branch-continuous and
    anchored by radial continuation at angle zero."""
    theta = 2.0 * np.pi * np.arange(M) / M
    t = r * np.exp(1j * theta)
    vals = _A_values(side, t, sew, b)
    closed = np.concatenate([vals, vals[:1]])
    ang = np.unwrap(np.angle(closed))
    if abs(ang[-1] - ang[0]) > 1e-6:
        raise RuntimeError(
            "branch factor winds around the contour; radius outside the "
            "analyticity disk of the puncture factor"
        )
    anchor = _log_A_radial(side, np.array([t[0]]), sew, b)[0]
    ang = ang[:-1] + (anchor.imag - ang[0])
    return t, np.log(np.abs(vals)) + 1j * ang


def theta_ratio_core(x, y, sew, tw, b=None):
    """Single-valued core theta[a1; b1](x-y+kappa*w) /
    (theta[a1; b1](kappa*w) * K(x-y)); broadcasts over x, y, and a column x
    with a row y is evaluated as a product grid."""
    tau, c = sew.tau, tw.kappa * sew.w
    den0 = theta_char_g1(tw.alpha1, tw.beta1, c, tau, b)
    num = theta_char_g1_diff(tw.alpha1, tw.beta1, np.asarray(x) + c, y, tau, b)
    return num / (den0 * prime_form_K_diff(x, y, tau, b))


def _check_coincidence(x, y, sew):
    if np.any(np.abs(np.asarray(x) - np.asarray(y)) < COINCIDENCE_RTOL * sew.D_q):
        raise ValueError("kernel evaluated at coincident points (simple pole)")


def s_kappa(x, y, sew, tw, b=None):
    """Twisted Szego kernel S_kappa(x, y) at generic points of the torus.

    The two puncture factors are taken as separate principal powers,
    (theta1(x-w)/theta1(x))^kappa * (theta1(y)/theta1(y-w))^kappa, which is
    the convention all pointwise evaluations in this package share.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _check_coincidence(x, y, sew)
    tau, w, kap = sew.tau, sew.w, tw.kappa
    fx = (theta1(x - w, tau, b) / theta1(x, tau, b)) ** kap
    gy = (theta1(y, tau, b) / theta1(y - w, tau, b)) ** kap
    val = fx * gy * theta_ratio_core(x, y, sew, tw, b)
    return complex(val) if np.ndim(val) == 0 else val


def s_kappa_regular(x_loc, y_loc, x_side, y_side, sew, tw, b=None):
    """Regularised kernel S~ near the punctures, in local coordinates.

    x sits at puncture x_side with local coordinate x_loc (global point
    x_loc + centre), similarly for y.  The fractional puncture behaviour is
    stripped off:

        S~ = exp(+kappa*log A_{x_side}(x_loc))
             * exp(-kappa*log A_{y_side}(y_loc)) * core(x, y),

    which is single valued on the annuli; for x_side == y_side it has the
    plain Cauchy singularity 1/(x_loc - y_loc) with unit residue.
    """
    x_loc = np.asarray(x_loc, dtype=complex)
    y_loc = np.asarray(y_loc, dtype=complex)
    x = x_loc + puncture_center(x_side, sew)
    y = y_loc + puncture_center(y_side, sew)
    _check_coincidence(x, y, sew)
    kap = tw.kappa
    ux = np.exp(kap * _log_A_radial(x_side, x_loc, sew, b))
    uy = np.exp(-kap * _log_A_radial(y_side, y_loc, sew, b))
    val = ux * uy * theta_ratio_core(x, y, sew, tw, b)
    return complex(val) if np.ndim(val) == 0 else val


def principal_branch_winding(side, t, sew, b=None):
    """Integer winding n of the principal puncture power against the
    branch-tracked reference at a local point t of annulus `side`:

        (theta1(x - w) / theta1(x))^kappa
            = exp(2*pi*i*kappa*n) * exp(kappa * ref(t)),

    with ref = Log t + log A_2(t) at side 2 and log A_1(t) - Log t at side 1
    (radially continued logs, principal Log t).  Every pointwise kernel
    evaluation in this package shares the principal power, so n measures the
    branch-cut slip relative to the moment-expansion convention.
    """
    t = complex(t)
    x = t + puncture_center(side, sew)
    ratio = theta1(x - sew.w, sew.tau, b) / theta1(x, sew.tau, b)
    la = _log_A_radial(side, np.array([t]), sew, b)[0]
    ref = (np.log(t) + la) if side == 2 else (la - np.log(t))
    d = (np.log(ratio) - ref) / (2j * np.pi)
    n = int(np.rint(d.real))
    if abs(d - n) > 1e-8:
        raise RuntimeError(f"puncture-power winding not integral: {d}")
    return n


def external_x_factor(x, sew, tw, b=None):
    """Principal-branch puncture factor (theta1(x-w)/theta1(x))^kappa for an
    external x argument."""
    return (theta1(x - sew.w, sew.tau, b) / theta1(x, sew.tau, b)) ** tw.kappa


def external_y_factor(y, sew, tw, b=None):
    """Principal-branch puncture factor (theta1(y)/theta1(y-w))^kappa for an
    external y argument."""
    return (theta1(y, sew.tau, b) / theta1(y - sew.w, sew.tau, b)) ** tw.kappa


def _other(a):
    return 3 - a


def _contour(side, r, M, sew, tw, b, sign):
    """Global points of the circle |t| = r around puncture `side` and the
    branch-tracked regularising factor exp(sign * kappa * log A_side) on it
    (sign = +1 for an x-contour, -1 for a y-contour)."""
    t, loga = _log_A_circle(side, r, M, sew, b)
    return t + puncture_center(side, sew), np.exp(sign * tw.kappa * loga)


@lru_cache(maxsize=256)
def _moment_block_cached(a, bidx, N, quad_M, sew, tw, budget):
    xside = _other(a)  # x-contour lives at puncture abar
    yside = bidx
    rx = sew.r1 if xside == 1 else sew.r2
    ry = sew.r1 if yside == 1 else sew.r2
    if xside == yside:
        ry = 0.8 * rx  # keep |y| < |x| so the Cauchy part stays harmless
    x, ux = _contour(xside, rx, quad_M, sew, tw, budget, +1)
    y, uy = _contour(yside, ry, quad_M, sew, tw, budget, -1)
    core = theta_ratio_core(x[:, None], y[None, :], sew, tw, budget)
    s_reg = ux[:, None] * uy[None, :] * core
    # (1/2*pi*i)^2 oint oint x^-k y^-l S~ dx dy -> scaled 2-d DFT bins
    F = np.fft.fft2(s_reg) / quad_M**2
    k = np.arange(1, N + 1)
    block = rx ** (1.0 - k)[:, None] * ry ** (1.0 - k)[None, :] * F[:N, :N]
    block.setflags(write=False)
    return block


def moment_block(a, bidx, N, sew, tw, quad_M=256, b=None):
    """N x N array of expansion moments C_ab(k, l), k, l = 1..N.

    The first index a refers to the x-contour taken around puncture abar
    (a = 1 -> x near w), the second to the y-contour around puncture b.
    """
    if a not in (1, 2) or bidx not in (1, 2):
        raise ValueError("block indices must be 1 or 2")
    return _moment_block_cached(a, bidx, int(N), int(quad_M), sew, tw, b or DEFAULT_BUDGET)


def moment_C(a, bidx, k, l, sew, tw, quad_M=256, b=None):
    """Single expansion moment C_ab(k, l)."""
    N = max(k, l)
    return complex(moment_block(a, bidx, N, sew, tw, quad_M, b)[k - 1, l - 1])


def puncture_distance(z, side, sew):
    """Distance from z to the nearest lattice translate of puncture `side`
    (vectorised over z)."""
    z = np.asarray(z, dtype=complex) - puncture_center(side, sew)
    lam, _, _ = nearest_lattice_point(z, sew.tau)
    return np.abs(z - lam)


def half_diff(a, points, N, sew, tw, quad_M=256, b=None, bar=False):
    """Contour extractions of the kernel around a puncture, k = 1..N.

    bar=False gives d_a(x, k), the extraction in the second kernel argument
    around puncture a at external points x,

        d_a(x, k) = (1/2*pi*i) oint y_a^(-k_a) S_kappa(x, y_a) dy_a;

    bar=True gives dbar_a(y, k), the extraction in the first kernel argument
    around puncture abar at external points y,

        dbar_a(y, k) = (1/2*pi*i) oint x_abar^(-k_a) S_kappa(x_abar, y) dx_abar.

    The fractional part of the contour power is realised through the
    branch-tracked puncture factor, the external point keeps its
    principal-branch factor.  Each point gets the circle of radius
    min(r, 0.7 * distance to the nearest lattice translate of the puncture),
    which keeps it clear of the kernel pole; the points that share a radius
    are evaluated as one product grid and one FFT along the contour.

    `points` is a scalar (returns a length-N vector) or a 1-d array (returns
    an array of shape (len(points), N)).
    """
    side = _other(a) if bar else a
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    radii = np.minimum(sew.r1 if side == 1 else sew.r2, 0.7 * puncture_distance(pts, side, sew))
    if np.any(radii <= 0):
        raise ValueError("external point coincides with the puncture")
    if bar:
        ext = external_y_factor(pts, sew, tw, b)
    else:
        ext = external_x_factor(pts, sew, tw, b)
    k = np.arange(1, N + 1, dtype=float)
    out = np.empty((pts.size, N), dtype=complex)
    for r in np.unique(radii):
        sel = radii == r
        c, u = _contour(side, r, quad_M, sew, tw, b, +1 if bar else -1)
        if bar:
            core = theta_ratio_core(c[:, None], pts[None, sel], sew, tw, b).T
        else:
            core = theta_ratio_core(pts[sel, None], c[None, :], sew, tw, b)
        # (1/2*pi*i) oint f t^-k dt = (1/M) sum_j f_j t_j^(1-k) -> DFT bin k-1
        F = np.fft.fft(ext[sel, None] * u[None, :] * core, axis=1) / quad_M
        out[sel] = r ** (1.0 - k) * F[:, :N]
    return out[0] if np.ndim(points) == 0 else out


def theta2_weights(N, tw):
    """Diagonal of the block weight matrix D^(theta2): theta2^(-1) on the
    puncture-1 block, -theta2 on the puncture-2 block."""
    th2 = tw.theta2_mult
    return np.concatenate(
        [np.full(N, 1.0 / th2, dtype=complex), np.full(N, -th2, dtype=complex)]
    )


def rho_half_powers(N, a, sew, tw):
    """Vector rho^((k_a - 1/2)/2), k = 1..N, on the fixed rho branch."""
    k = np.arange(1, N + 1, dtype=float) + mode_offset(a, tw.kappa)
    return sew.rho_pow(0.5 * (k - 0.5))


def build_T(N, sew, tw, quad_M=256, b=None):
    """2N x 2N transfer matrix T = xi * G * D^(theta2) whose determinant
    det(I - T) is the genus-two fermionic correction factor.

    Flattening convention: index (a, k) -> (a - 1) * N + (k - 1), i.e. the
    puncture-1 modes come first.
    """
    k = np.arange(1, N + 1, dtype=float)
    blocks = [[None, None], [None, None]]
    for a in (1, 2):
        ka = k + mode_offset(a, tw.kappa)
        for bidx in (1, 2):
            lb = k + mode_offset(bidx, tw.kappa)
            C = moment_block(a, bidx, N, sew, tw, quad_M, b)
            blocks[a - 1][bidx - 1] = sew.rho_pow(0.5 * (ka[:, None] + lb[None, :] - 1.0)) * C
    return tw.xi * np.block(blocks) * theta2_weights(N, tw)[None, :]
