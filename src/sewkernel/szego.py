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

The moments are Taylor coefficients of three one-variable functions, the
two puncture factors and the core of theta_ratio_core, whose Laurent
coefficients are the twisted Eisenstein data of Tuite & Zuevsky (Comm.
Math. Phys. 306, 2011); see _Surface.  Contour extractions around the
punctures, on the circles of radii r1, r2, remain only in half_diff.
What (tau, w) alone fixes, the lattice reduction of w, R, K(w) and the
log theta1 grid of those coefficients, is one _Geometry per (tau, w), which
the surfaces, determinants.build_R and the modular layer read.

Branch convention.  Every fractional power attached to a puncture is realised
as exp(+/- kappa * log A_c(t)) where A_1(t) = t*theta1(t-w)/theta1(t),
A_2(t) = theta1(t)/(t*theta1(t+w)) are analytic and non-vanishing on the disk
|t| < R = min(D(q), dist(w, Lambda)) around the respective puncture, and
log A_c is the sum of its Taylor series at the puncture centre (see
_Surface), whose constant term is the carried anchor log
Log(-K(w)) + 2*pi*i*n1 resp. Log(1/K(w)) + 2*pi*i*n2 (see _anchor_logs).
Every log A, on the moment circles, the extraction contours and at single
points, is read from that one series, and |t| >= R raises ValueError.  This
makes every contour integrand single valued and fixes the relative branch
between pointwise kernel evaluations and the moment matrices.
Fractional powers of rho always use one fixed principal logarithm stored on
SewingConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import ceil, comb, log, log1p

import numpy as np

from .elliptic import (
    _LOG_EPS,
    _TAYLOR_M_LOG_THETA1,
    _check_off_lattice,
    _is_grid,
    _log_theta1_circle,
    _taylor,
    _taylor_circle,
    _theta_grid_factors,
    lattice_min_distance,
    nearest_lattice_point,
    prime_form_K,
    theta1,
    theta1_prime0,
    theta_char_g1,
    theta_char_g1_diff,
)

COINCIDENCE_RTOL = 1e-8


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
        for name in ("alpha1", "beta1", "beta2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not abs(self.kappa) < 0.5:
            raise ValueError(f"kappa must satisfy |kappa| < 1/2, got {self.kappa}")
        if not float(self.B).is_integer() or self.B % 2 != 1:
            raise ValueError(f"B must be an odd integer, got {self.B}")

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

    r1, r2 are the radii of the extraction contours of half_diff around the
    two punctures (the moment blocks do not read them, and half_diff clips
    them inside the analyticity disk of the branch factor) and must be
    positive.
    They default to 0.45 * min(dist(w, Lambda), D(q)), which keeps both
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
        for name in ("tau", "w", "rho", "r1", "r2", "log_rho"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if np.imag(self.tau) <= 0:
            raise ValueError("tau must lie in the upper half plane")
        if self.rho == 0:
            raise ValueError("rho must be non-zero")
        g = _geometry(self.tau, self.w)
        if abs(g.w0) < 1e-12 * g.D:
            raise ValueError("w must not lie on the lattice")
        r_default = 0.45 * g.R
        if self.r1 is None:
            object.__setattr__(self, "r1", r_default)
        if self.r2 is None:
            object.__setattr__(self, "r2", r_default)
        if self.log_rho is None:
            object.__setattr__(self, "log_rho", complex(np.log(complex(self.rho))))
        if not (self.r1 > 0 and self.r2 > 0):
            raise ValueError(f"contour radii must be positive, got r1 = {self.r1:g}, r2 = {self.r2:g}")
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


def _anchor_logs(sew, K):
    """The carried anchor logs of the puncture branch factors at K = K(w):
    log A_1(0) = Log(-K) + 2*pi*i*n1 and log A_2(0) = Log(1/K) + 2*pi*i*n2,
    with the windings n1, n2 of sew."""
    return (
        np.log(-K) + 2j * np.pi * sew.branch_n1,
        np.log(1.0 / K) + 2j * np.pi * sew.branch_n2,
    )


def _check_order(N):
    """The truncation order N as an int; ValueError unless N is an integer
    of at least 1."""
    if not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"truncation order N must be an integer >= 1, got {N!r}")
    return int(N)


def _check_quadrature(N, quad_M):
    if quad_M < N:
        raise ValueError(f"quad_M = {quad_M} contour points cannot resolve N = {N} modes")


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


def theta_ratio_core(x, y, sew, tw, wx=None, wy=None):
    """Single-valued core theta[a1; b1](x-y+kappa*w) /
    (theta[a1; b1](kappa*w) * K(x-y)) times the optional weights wx, which
    broadcasts like x, and wy, which broadcasts like y; broadcasts over x, y,
    and a column x with a row y is evaluated as a product grid.

    On a grid, with K = theta1/theta1'(0), the core is
    theta1'(0)/theta[a1; b1](kappa*w) * theta[a1; b1](x-y+kappa*w) /
    theta1(x-y).  That constant and the weights are folded into the row and
    column factors of the numerator's matrix product (see
    elliptic._theta_grid_factors), so the grid is one matrix product divided
    by the theta1 grid.  Every pair x_i - y_j of a grid goes through the
    lattice check of prime_form_K, so a grid raises where prime_form_K of
    some x_i - y_j raises.
    """
    tau, c = sew.tau, tw.kappa * sew.w
    den0 = theta_char_g1(tw.alpha1, tw.beta1, c, tau)
    wx = 1.0 if wx is None else np.asarray(wx)
    wy = 1.0 if wy is None else np.asarray(wy)
    if not _is_grid(x, y):
        num = theta_char_g1(tw.alpha1, tw.beta1, np.asarray(x) + c - np.asarray(y), tau)
        return wx * wy * (num / (den0 * prime_form_K(np.asarray(x) - np.asarray(y), tau)))
    _check_off_lattice(np.asarray(x) - np.asarray(y), tau, "prime_form_K")
    left, right = _theta_grid_factors(tw.alpha1, tw.beta1, np.asarray(x) + c, y, tau)
    left *= np.reshape(theta1_prime0(tau) / den0 * wx, (-1, 1))
    right *= np.reshape(wy, (1, -1))
    return (left @ right) / theta_char_g1_diff(0.5, 0.5, x, y, tau)


def _check_coincidence(x, y, sew):
    D = _geometry(sew.tau, sew.w).D
    if np.any(np.abs(np.asarray(x) - np.asarray(y)) < COINCIDENCE_RTOL * D):
        raise ValueError("kernel evaluated at coincident points (simple pole)")


def s_kappa(x, y, sew, tw):
    """Twisted Szego kernel S_kappa(x, y) at generic points of the torus.

    The two puncture factors are taken as separate principal powers,
    (theta1(x-w)/theta1(x))^kappa * (theta1(y)/theta1(y-w))^kappa, which is
    the convention all pointwise evaluations in this package share.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    _check_coincidence(x, y, sew)
    fx, gy = external_x_factor(x, sew, tw), external_y_factor(y, sew, tw)
    val = theta_ratio_core(x, y, sew, tw, fx, gy)
    return complex(val) if np.ndim(val) == 0 else val


def s_kappa_regular(x_loc, y_loc, x_side, y_side, sew, tw):
    """Regularised kernel S~ near the punctures, in local coordinates.

    x sits at puncture x_side with local coordinate x_loc (global point
    x_loc + centre), similarly for y.  The fractional puncture behaviour is
    stripped off:

        S~ = exp(+kappa*log A_{x_side}(x_loc))
             * exp(-kappa*log A_{y_side}(y_loc)) * core(x, y),

    which is single valued on the annuli; for x_side == y_side it has the
    plain Cauchy singularity 1/(x_loc - y_loc) with unit residue.  log A
    comes from its Taylor series on the surface of (sew, tw), so a local
    coordinate with |t| >= R raises ValueError (see _Surface).
    """
    x_loc = np.asarray(x_loc, dtype=complex)
    y_loc = np.asarray(y_loc, dtype=complex)
    x = x_loc + puncture_center(x_side, sew)
    y = y_loc + puncture_center(y_side, sew)
    _check_coincidence(x, y, sew)
    surface, kap = _surface(sew, tw), tw.kappa
    ux = np.exp(kap * surface.log_A(x_side, x_loc))
    uy = np.exp(-kap * surface.log_A(y_side, y_loc))
    val = theta_ratio_core(x, y, sew, tw, ux, uy)
    return complex(val) if np.ndim(val) == 0 else val


def principal_branch_winding(side, t, sew, tw):
    """Integer winding n of the principal puncture power against the
    branch-tracked reference at a local point t of annulus `side`:

        (theta1(x - w) / theta1(x))^kappa
            = exp(2*pi*i*kappa*n) * exp(kappa * ref(t)),

    with ref = Log t + log A_2(t) at side 2 and log A_1(t) - Log t at side 1
    (log A from its Taylor series on the surface of (sew, tw), principal
    Log t).  Every pointwise kernel evaluation in this package shares the
    principal power, so n measures the branch-cut slip relative to the
    moment-expansion convention.  ValueError at |t| >= R (see _Surface).
    """
    t = complex(t)
    x = t + puncture_center(side, sew)
    ratio = theta1(x - sew.w, sew.tau) / theta1(x, sew.tau)
    la = _surface(sew, tw).log_A(side, t)
    ref = (np.log(t) + la) if side == 2 else (la - np.log(t))
    d = (np.log(ratio) - ref) / (2j * np.pi)
    n = int(np.rint(d.real))
    if abs(d - n) > 1e-8:
        raise RuntimeError(f"puncture-power winding not integral: {d}")
    return n


def external_x_factor(x, sew, tw):
    """Principal-branch puncture factor (theta1(x-w)/theta1(x))^kappa for an
    external x argument."""
    return (theta1(x - sew.w, sew.tau) / theta1(x, sew.tau)) ** tw.kappa


def external_y_factor(y, sew, tw):
    """Principal-branch puncture factor (theta1(y)/theta1(y-w))^kappa for an
    external y argument."""
    return (theta1(y, sew.tau) / theta1(y - sew.w, sew.tau)) ** tw.kappa


def _other(a):
    return 3 - a


# Floors of the point counts M of the Taylor circles (see
# elliptic._taylor_circle).
# T weights order n by sqrt|rho|^n < (0.45*R)^n at the default radii, and
# order n read at radius r carries round-off eps/r^n: the puncture factors
# are read at R/2, and the core, whose orders the binomials of
# h(c0 + x - y) weight by up to 2^n, at 0.917*R.
_TAYLOR_M_LOG_A = 64
_TAYLOR_M_CORE = 512


class _Geometry:
    """What (tau, w) fixes for every twist and winding: w0 = w - lam for
    the lattice point lam = 2*pi*i*(m*tau + n) nearest to w, m, D(q),
    R = min(D(q), |w0|), K(w) = theta1(w)/theta1'(0) as prime_form_K takes
    it, and the _log_theta1_circle grid at the centres 0 and w0, read anew
    only for more orders.  The E_k and P_k(w) of determinants.build_R and
    the log A series of every _Surface on (tau, w) come from that grid.
    K is summed on first use: theta1 at w itself overflows far off the
    central cell, where R still holds, since it reads w0 only.
    """

    def __init__(self, tau, w):
        lam, self.m, _ = nearest_lattice_point(w, tau)
        self.tau, self.w = tau, w
        self.w0 = complex(w) - complex(lam)
        self.D = lattice_min_distance(tau)
        self.R = min(self.D, abs(self.w0))
        self.circle = (np.empty((0, 2)), None)  # (values, r), swapped in whole

    @cached_property
    def K(self):
        return theta1(self.w, self.tau) / theta1_prime0(self.tau)

    def log_theta1_circle(self, n):
        """(values, r) of the log theta1 grid, with at least the M >= 8n
        points that _log_theta1_circle reads for n orders."""
        vals, r = self.circle
        if len(vals) < 8 * n:
            vals, r = _log_theta1_circle(n, [0.0, self.w0], self.R, self.tau)
            self.circle = (vals, r)
        return vals, r


class _Surface:
    """Cached state of one rho-free twisted surface, the key (tau, w,
    branch_n1, branch_n2, alpha1, beta1, kappa) of _surface, on the
    _Geometry of its (tau, w): the Taylor coefficients of log A_1 and
    log A_2 at the puncture centre and the four moment blocks, each at the
    largest order asked for so far.  Every series in them is summed over
    its tail-bound range, so no accuracy setting enters the key.  Its sew
    and tw carry the default radii, an admissible rho and beta2 = 0, read
    by nothing.

    The puncture factors A_1, A_2 are analytic and zero-free on |t| < R =
    min(D(q), dist(w, Lambda)).  With the E_n and P_n(w) of
    elliptic.eisenstein and elliptic.weierstrass_P, log A_1(t) = anchor_1
    + sum_n (E_n - P_n(w)) t^n/n and log A_2(t) = anchor_2
    - sum_n (E_n - (-1)^n P_n(w)) t^n/n (the twisted Eisenstein data of
    Tuite & Zuevsky), the anchors the carried logs of _anchor_logs.  These
    series give every log A: log_A_circles on the circles of the moment
    blocks, of half_diff and of partition.fock_2pt_fourier, log_A at the
    points of s_kappa_regular and principal_branch_winding.  So the anchors
    are the only branch datum of log A.

    The regularised kernel of a block is u(x) * v(y) * h(c0 + x - y), with
    u = exp(+kappa*log A) at the x-puncture, v = exp(-kappa*log A) at the
    y-puncture, h the core of theta_ratio_core and c0 in {0, w, -w} the
    offset between the puncture centres.  Their Taylor sequences are read
    on circles that the geometry alone fixes (see _taylor_circle), within
    the radius of convergence R of all three: u and v from log_A_circles
    on one circle per side, h at the three offsets from one grid of the
    core.  So the blocks depend neither on r1, r2 nor on quad_M.

    Row k and column l of a block do not depend on N (bit for bit while the
    Taylor circles keep their point counts, N <= 32), so a block is served
    at any smaller N as a slice, and the four are rebuilt only for a larger
    N.  Threads that share a surface can at worst build the same data
    twice; each call returns what it built or found.
    """

    def __init__(self, g, n1, n2, alpha1, beta1, kappa):
        self.geometry, self.R = g, g.R
        self.sew = SewingConfig(g.tau, g.w, 0.01 * self.R**2, branch_n1=n1, branch_n2=n2)
        self.tw = TwistConfig(alpha1, beta1, 0.0, kappa)
        self.log_A_coeffs = (-1, None)  # (order, rows c of A_1, A_2), swapped in whole
        self.blocks = (0, None)  # (N, {(a, b): block}), swapped in whole

    def _log_A_series(self, side, x):
        """Coefficients c_0..c_n of log A_side in t/R, summed wherever
        |t| <= x*R.  c_k is of the size of 1/k (each logarithmic singularity
        at distance R gives R^-k/k in t), so the tail beyond n is below
        x^(n+1)/(1 - x), and n is the least order at which that is below
        round-off, as _theta_range bounds a theta tail.  ValueError at
        x >= 1, where the series diverges."""
        if not x < 1.0:
            raise ValueError(f"log A_{side} at |t| = {x:.4g} R, outside the disk |t| < R")
        n = 0 if x == 0.0 else ceil((_LOG_EPS - log1p(-x)) / -log(x))
        return self._log_A_taylor(n)[side - 1, : n + 1]

    def log_A(self, side, t):
        """log A_side at local points t (any shape) from its series."""
        t = np.asarray(t, dtype=complex)
        c = self._log_A_series(side, np.max(np.abs(t), initial=0.0) / self.R)
        s = np.broadcast_to((t / self.R)[..., None], t.shape + (len(c) - 1,))
        return c[0] + np.cumprod(s, axis=-1) @ c[1:]

    def log_A_circles(self, side, radii, M):
        """log A_side at t = r*exp(2*pi*i*j/M), j < M, one row per radius r
        in radii: the series there is the inverse DFT of its terms
        c_k (r/R)^k, taken at length L, the least multiple of M that holds
        them all, and read at every (L/M)-th point."""
        r = np.reshape(radii, (-1, 1)) / self.R
        c = self._log_A_series(side, np.max(r))
        L = M * -(-len(c) // M)
        return L * np.fft.ifft(c * r ** np.arange(len(c)), L)[:, :: L // M]

    def _log_A_taylor(self, n):
        """Rows c_0..c_n (or more) of the Taylor coefficients of log A_1 and
        log A_2 in t/R, c_k = b_k R^k, read anew only for a larger n; c_k is
        of the size of 1/k for every R, where b_k would under- or overflow
        at the orders that |t| near R needs.

        The log theta1 grid of the geometry at the centres 0 and w0 gives
        a_k(0) R^k and a_k(w0) R^k, and theta1(z + lam) = +-exp(-i*pi*m^2*tau
        - m*z) * theta1(z) for lam = 2*pi*i*(m*tau + n) takes a_1(w) =
        a_1(w0) - m.  theta1 is odd, so b_k = (-1)^k a_k(w) - a_k(0) for A_1
        and a_k(0) - a_k(w) for A_2, k >= 1; b_0 are the anchor logs of K(w).
        The least circle gives 64 orders, which reach |t| = 0.56 R, so no
        fewer are read."""
        n_read, c = self.log_A_coeffs
        if n_read < n:
            g = self.geometry
            n = max(n, _TAYLOR_M_LOG_THETA1 // 8)
            vals, r = g.log_theta1_circle(n)
            a = _taylor(vals, r / self.R)[: n + 1]
            a[1, 1] -= g.m * self.R
            c = np.stack([(-1.0) ** np.arange(n + 1) * a[:, 1] - a[:, 0], a[:, 0] - a[:, 1]])
            c[:, 0] = _anchor_logs(self.sew, g.K)
            self.log_A_coeffs = (n, c)
        return c

    def block(self, a, bidx, N):
        n_built, blocks = self.blocks
        if n_built < N:
            blocks = self._build_blocks(N)
            self.blocks = (N, blocks)
        return blocks[a, bidx][:N, :N]

    def _taylor_data(self, N):
        """Taylor sequences to order 2N: u[side] and v[side] of
        exp(+-kappa*log A_side), and h[c] of the core at the offset
        c0 = c*w, c in (0, 1, -1).  At c0 = 0, h is the core less its pole
        1/s, which the DFT puts in bin M - 1, beyond the orders read."""
        sew, kap = self.sew, self.tw.kappa
        M, r = _taylor_circle(2 * N, _TAYLOR_M_LOG_A, self.R)
        u, v = {}, {}
        for side in (1, 2):
            loga = self.log_A_circles(side, [r], M)[0]
            u[side], v[side] = _taylor(np.exp(np.outer(loga, (kap, -kap))), r).T
        M, r = _taylor_circle(2 * N, _TAYLOR_M_CORE, self.R)
        s = r * np.exp(2j * np.pi * np.arange(M) / M)
        c0 = np.array([0.0, sew.w, -sew.w])
        core = theta_ratio_core(s[:, None], -c0[None, :], sew, self.tw)
        return u, v, dict(zip((0, 1, -1), _taylor(core, r).T))

    def _build_blocks(self, N):
        """The four blocks C = (L(u) G + H) L(v)^T, the coefficients of
        x^(k-1) y^(l-1) of u(x) v(y) (h(c0 + x - y) + [c0 = 0]/(x - y)),
        |y| < |x|.

        L(s)[i, j] = s_(i-j) is the lower-triangular Toeplitz matrix of a
        sequence; G[p, q] = h_(p+q) binom(p+q, p) (-1)^q expands h(c0 + x - y)
        in x^p y^q; on the same side the Cauchy part sum_j y^j / x^(j+1)
        adds the Hankel matrix H[i, j] = u_(i+j+1).
        """
        u, v, h = self._taylor_data(N)
        n = np.arange(N)
        d, hankel = n[:, None] - n[None, :], n[:, None] + n[None, :]
        binom = np.array([[comb(p + q, p) * (-1) ** q for q in range(N)] for p in range(N)], float)
        blocks = {}
        for a, bidx in ((1, 1), (1, 2), (2, 1), (2, 2)):
            xside, yside = _other(a), bidx  # x expands around puncture abar, y around b
            ux, vy = u[xside], v[yside]
            X = np.where(d >= 0, ux[d], 0.0) @ (h[xside - yside][hankel] * binom)
            if xside == yside:
                X += ux[hankel + 1]
            blocks[a, bidx] = X @ np.where(d >= 0, vy[d], 0.0).T
            blocks[a, bidx].setflags(write=False)
        return blocks


@lru_cache(maxsize=256)
def _moment_block_cached(key):
    """The one cache of the package: a key (tau, w) gives its _Geometry,
    the 7-tuple of _surface a _Surface on the geometry of its first two
    entries.  A surface holds its geometry and no geometry holds a surface,
    so an evicted entry is freed by reference counting alone."""
    if len(key) == 2:
        return _Geometry(*key)
    return _Surface(_moment_block_cached(key[:2]), *key[2:])


def _geometry(tau, w):
    """The cached _Geometry of (tau, w)."""
    return _moment_block_cached((tau, w))


def _surface(sew, tw):
    """The cached _Surface of the fields of (sew, tw) that log A and the
    blocks read: rho, log_rho, beta2 and B enter T only outside the blocks,
    and r1, r2 only the radii of half_diff."""
    return _moment_block_cached((sew.tau, sew.w, sew.branch_n1, sew.branch_n2,
                                 tw.alpha1, tw.beta1, tw.kappa))


def moment_block(a, bidx, N, sew, tw, quad_M=256):
    """N x N array of expansion moments C_ab(k, l), k, l = 1..N.

    The first index a refers to the x-contour taken around puncture abar
    (a = 1 -> x near w), the second to the y-contour around puncture b.
    C_ab(k, l) is the Taylor coefficient of x^(k-1) y^(l-1) of the
    regularised kernel, read from three 1-d Taylor sequences (see
    _Surface).  The block does not depend on rho, log_rho, beta2, B, the
    contour radii or quad_M, which is checked against N only, as by every
    contour extraction; it is cached per rho-free geometry (see _surface)
    at the largest N built so far.
    """
    if a not in (1, 2) or bidx not in (1, 2):
        raise ValueError("block indices must be 1 or 2")
    _check_quadrature(N, quad_M)
    return _surface(sew, tw).block(a, bidx, int(N))


def puncture_distance(z, side, sew):
    """Distance from z to the nearest lattice translate of puncture `side`
    (vectorised over z)."""
    z = np.asarray(z, dtype=complex) - puncture_center(side, sew)
    lam, _, _ = nearest_lattice_point(z, sew.tau)
    return np.abs(z - lam)


def half_diff(a, points, N, sew, tw, quad_M=256, bar=False):
    """Contour extractions of the kernel around a puncture, k = 1..N.

    bar=False gives d_a(x, k), the extraction in the second kernel argument
    around puncture a at external points x,

        d_a(x, k) = (1/2*pi*i) oint y_a^(-k_a) S_kappa(x, y_a) dy_a;

    bar=True gives dbar_a(y, k), the extraction in the first kernel argument
    around puncture abar at external points y,

        dbar_a(y, k) = (1/2*pi*i) oint x_abar^(-k_a) S_kappa(x_abar, y) dx_abar.

    The fractional part of the contour power is realised through the
    branch-tracked puncture factor exp(-+kappa*log A), with log A from the
    Taylor series of the surface; the external point
    keeps its principal-branch factor.  The full radius is r1 or r2 clipped
    to 2^(-64/quad_M) * R, R = min(D(q), dist(w, Lambda)), where the contour
    aliases onto each order only the orders quad_M higher, 2^-64 smaller
    relative; at quad_M >= 64 the default radii 0.45 * R lie below it.
    Each point gets the circle of radius min(full radius, 0.7 * distance to
    the nearest lattice translate of the puncture), which keeps it clear of
    the kernel pole.  log A on all these circles is one sum of the series
    (see _Surface.log_A_circles); the points that share a radius are
    evaluated as one product grid and one FFT along the contour.  Each grid
    checks every pair against the lattice (see theta_ratio_core).

    `points` is a scalar (returns a length-N vector) or a 1-d array (returns
    an array of shape (len(points), N)).
    """
    _check_quadrature(N, quad_M)
    side = _other(a) if bar else a
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    surface = _surface(sew, tw)
    r_full = min(sew.r1 if side == 1 else sew.r2, 2.0 ** (-64.0 / quad_M) * surface.R)
    radii = np.minimum(r_full, 0.7 * puncture_distance(pts, side, sew))
    if np.any(radii <= 0):
        raise ValueError("external point coincides with the puncture")
    ext = (external_y_factor if bar else external_x_factor)(pts, sew, tw)
    k = np.arange(1, N + 1, dtype=float)
    out = np.empty((pts.size, N), dtype=complex)
    sign = +1 if bar else -1
    rs = np.unique(radii)
    t = rs[:, None] * np.exp(2j * np.pi * np.arange(quad_M) / quad_M)
    us = np.exp(sign * tw.kappa * surface.log_A_circles(side, rs, quad_M))
    for r, c, u in zip(rs, t + puncture_center(side, sew), us):
        sel = radii == r
        if bar:
            f = theta_ratio_core(c[:, None], pts[None, sel], sew, tw, u, ext[sel]).T
        else:
            f = theta_ratio_core(pts[sel, None], c[None, :], sew, tw, ext[sel], u)
        # (1/2*pi*i) oint f t^-k dt = (1/M) sum_j f_j t_j^(1-k) -> DFT bin k-1
        F = np.fft.fft(f, axis=1) / quad_M
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


def build_T(N, sew, tw, quad_M=256):
    """2N x 2N transfer matrix T = xi * G * D^(theta2) whose determinant
    det(I - T) is the genus-two fermionic correction factor.

    Flattening convention: index (a, k) -> (a - 1) * N + (k - 1), i.e. the
    puncture-1 modes come first.
    """
    N = _check_order(N)
    k = np.arange(1, N + 1, dtype=float)
    blocks = [[None, None], [None, None]]
    for a in (1, 2):
        ka = k + mode_offset(a, tw.kappa)
        for bidx in (1, 2):
            lb = k + mode_offset(bidx, tw.kappa)
            C = moment_block(a, bidx, N, sew, tw, quad_M)
            blocks[a - 1][bidx - 1] = sew.rho_pow(0.5 * (ka[:, None] + lb[None, :] - 1.0)) * C
    return tw.xi * np.block(blocks) * theta2_weights(N, tw)[None, :]
