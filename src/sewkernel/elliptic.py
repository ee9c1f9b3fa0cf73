"""Elliptic building blocks: theta functions with characteristics, the prime
form, Dedekind eta, Eisenstein series and Weierstrass-type functions.

Conventions used throughout the package:

* the torus is C/Lambda with Lambda = 2*pi*i*(Z*tau + Z), Im(tau) > 0,
* q = exp(2*pi*i*tau),
* the genus-one theta function with real (or complex-extended) characteristics
  (alpha, beta) is

      theta[alpha; beta](z, tau)
          = sum_n exp( i*pi*(n+alpha)^2*tau + (n+alpha)*(z + 2*pi*i*beta) ),

  so that the odd function theta_1 is theta[1/2; 1/2] up to normalisation and
  the prime form K(z, tau) = theta_1(z, tau) / theta_1'(0, tau) behaves like z
  near the origin.

Every series is summed once, over a range of terms fixed in advance from a
bound on its tail (Deconinck et al., "Computing Riemann theta functions",
Math. Comp. 73, 2004), so that the dropped terms together stay below
double-precision round-off relative to the largest term kept:

* a theta term exp(i*pi*nu^2*tau + nu*zz), nu = n + alpha, has modulus
  exp(-pi*t*nu^2 + a*nu) with t = Im(tau) and a = Re(zz), a Gaussian in nu
  centred on a/(2*pi*t).  Both tails beyond a distance W from the centre sum
  to at most 2*exp(-pi*t*W^2)/(1 - exp(-2*pi*t*W)) times the largest term,
  and W is chosen so that this is below round-off;
* the q-series (eta, the Eisenstein table) stop where their geometric tail
  is below round-off;
* the Laurent series of the Weierstrass-type functions stop after three
  consecutive terms below _LAURENT_RTOL of the partial sum.

No caller sets a range or a tolerance: the tail bounds alone fix them.
On a product grid, theta[alpha; beta](x_i - y_j) for a column x and a row
y, the lattice sum separates into one matrix product (see
theta_char_g1_diff), whose terms far below round-off of every entry are
dropped before the product.
"""

from __future__ import annotations

from math import ceil, floor, log

import numpy as np
from scipy.special import gammaln, zeta

TWO_PI_I = 2.0j * np.pi
LOG_2PI = log(2.0 * np.pi)

# a tail below exp(-_LOG_EPS) of the largest term is below round-off
_LOG_EPS = -log(np.finfo(float).eps)

# number of terms of the Laurent series of P_m (orders k = m, m + 2, ...),
# and the relative size below which three consecutive terms stop it
_LAURENT_TERMS = 200
_LAURENT_RTOL = 1e-12


def _check_tau(tau):
    if np.imag(tau) <= 0:
        raise ValueError(f"tau must lie in the upper half plane, got {tau}")


def _reduced_basis(tau):
    """Lagrange-Gauss reduced basis of Z + Z*tau.

    Returns integer pairs (n1, m1), (n2, m2) such that u = n1 + m1*tau and
    v = n2 + m2*tau span Z + Z*tau, |u| <= |v| and |Re(v*conj(u))| <= |u|^2/2.
    Then u is a shortest non-zero vector, and the coordinates in (u, v) of
    the lattice point nearest to any point differ by at most one from the
    rounded coordinates of that point.
    """
    a, c = (1, 0), (0, 1)

    def val(p):
        return p[0] + p[1] * tau

    if abs(val(a)) > abs(val(c)):
        a, c = c, a
    while True:
        u = val(a)
        mu = round((val(c) * np.conj(u)).real / abs(u) ** 2)
        c = (c[0] - mu * a[0], c[1] - mu * a[1])
        if abs(val(c)) >= abs(u):
            return a, c
        a, c = c, a


# the nine cells around a rounded point, as offsets in the reduced basis
_CELL_STEPS = np.array([(d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)], dtype=float).T


def _lattice_coords(z, tau):
    """Coordinates (e1, e2) of s = z/(2*pi*i) = e1*u + e2*v in the reduced
    basis (u, v) of Z + Z*tau (see _reduced_basis), vectorised over z;
    returns (e1, e2, u, v, (n1, m1), (n2, m2))."""
    (n1, m1), (n2, m2) = _reduced_basis(tau)
    u, v = n1 + m1 * tau, n2 + m2 * tau
    s = np.asarray(z, dtype=complex) / TWO_PI_I
    e1 = (np.conj(v) * s).imag / (np.conj(v) * u).imag
    e2 = (np.conj(u) * s).imag / (np.conj(u) * v).imag
    return e1, e2, u, v, (n1, m1), (n2, m2)


def _gram_dist2(g1, g2, u, v):
    """|g1*u + g2*v|^2 from the Gram matrix of (u, v)."""
    uv = (u * np.conj(v)).real
    return abs(u) ** 2 * g1**2 + 2.0 * uv * g1 * g2 + abs(v) ** 2 * g2**2


def nearest_lattice_point(z, tau):
    """Nearest point of Lambda = 2*pi*i*(Z*tau + Z) to z (vectorised).

    Returns (lam, m, n) with lam = 2*pi*i*(m*tau + n).  z is rounded to the
    nearest point in a reduced basis (u, v) of the lattice and the nine
    neighbouring points are compared, which finds the nearest point for any
    tau in the upper half plane.
    """
    e1, e2, u, v, (n1, m1), (n2, m2) = _lattice_coords(z, tau)
    c1, c2 = np.rint(e1), np.rint(e2)
    # squared distance to each neighbour, |g1*u + g2*v|^2
    g1 = (e1 - c1)[..., None] - _CELL_STEPS[0]
    g2 = (e2 - c2)[..., None] - _CELL_STEPS[1]
    j = np.argmin(_gram_dist2(g1, g2, u, v), axis=-1)
    c1 = c1 + _CELL_STEPS[0][j]
    c2 = c2 + _CELL_STEPS[1][j]
    m = c1 * m1 + c2 * m2
    n = c1 * n1 + c2 * n2
    return TWO_PI_I * (m * tau + n), m, n


def lattice_min_distance(tau):
    """D(q): length of the shortest non-zero vector of 2*pi*i*(Z*tau + Z)."""
    _check_tau(tau)
    (n1, m1), _ = _reduced_basis(tau)
    return abs(TWO_PI_I * (m1 * tau + n1))


def _check_off_lattice(z, tau, what):
    lam, _, _ = nearest_lattice_point(z, tau)
    if np.any(np.abs(z - lam) < 1e-12 * lattice_min_distance(tau)):
        raise ValueError(f"{what} evaluated at (numerically) a lattice point")


def _clear_of_lattice(p, q, tau, tol):
    """Mask of the points p_i for which no difference p_i - q_j lies within
    tol of the lattice, certified from the annulus r_lo <= |t - c| <= r_hi
    that holds every q_j around the centroid c of q; None where the bound
    would visit more lattice points per p_i than the check of every pair,
    which visits nine per pair.

    p_i - q_j - lam = (p_i - c - lam) - (q_j - c) is at least the distance
    from p_i - c - lam to that annulus, so only the lattice points within
    r_hi + tol of p_i - c matter.  In a reduced basis (u, v),
    |g1*u + g2*v|^2 >= (g1^2 |u|^2 + g2^2 |v|^2)/2, so their coordinates
    differ from those of p_i - c by at most sqrt(2)*(r_hi + tol)/|u| and
    /|v|: a fixed window of integer steps around the rounded coordinates
    holds them all.
    """
    c = q.mean()
    dq = np.abs(q - c)
    r_lo, r_hi = dq.min(), dq.max()
    e1, e2, u, v, _, _ = _lattice_coords(p - c, tau)
    reach = np.sqrt(2.0) * (r_hi + tol) / (2.0 * np.pi)
    h1, h2 = (ceil(reach / abs(e) + 0.5) for e in (u, v))
    if (2 * h1 + 1) * (2 * h2 + 1) > _CELL_STEPS.shape[1] * q.size:
        return None
    d1, d2 = (a.ravel() for a in np.meshgrid(np.arange(-h1, h1 + 1), np.arange(-h2, h2 + 1)))
    g1 = (e1 - np.rint(e1))[:, None] - d1
    g2 = (e2 - np.rint(e2))[:, None] - d2
    dist = 2.0 * np.pi * np.sqrt(np.maximum(_gram_dist2(g1, g2, u, v), 0.0))
    return np.all(np.maximum(dist - r_hi, r_lo - dist) > tol, axis=1)


def _check_off_lattice_grid(x, y, tau, what):
    """The check of _check_off_lattice on every pair x_i - y_j of a column
    x (M, 1) and a row y (1, K), decided in O(M + K) lattice work where the
    geometry allows.

    The points of one side are certified against the annulus around the
    centroid of the other (see _clear_of_lattice), with the thinner of the
    two annuli; for a contour that annulus is its circle.  tol exceeds the
    per-pair threshold 1e-12*D by a round-off margin, so a certified point
    cannot fail that check.  The pairs of the points left uncertified go
    through _check_off_lattice, which therefore raises on exactly the grids
    on which the per-pair check of the whole grid raises.
    """
    x = np.asarray(x, dtype=complex)[:, 0]
    y = np.asarray(y, dtype=complex)[0]
    if not (x.size and y.size):
        return
    D = lattice_min_distance(tau)
    tol = 1e-12 * D + 1e-13 * (D + np.abs(x).max() + np.abs(y).max())
    # lam is on the lattice iff -lam is, so y_j - x_i may stand for x_i - y_j
    swap = np.ptp(np.abs(y - y.mean())) > np.ptp(np.abs(x - x.mean()))
    clear = _clear_of_lattice(y, x, tau, tol) if swap else _clear_of_lattice(x, y, tau, tol)
    if clear is not None and clear.all():
        return
    rest = slice(None) if clear is None else ~clear
    rows, cols = (slice(None), rest) if swap else (rest, slice(None))
    _check_off_lattice(x[rows, None] - y[None, cols], tau, what)


def _theta_range(alpha, re_zz, tau):
    """Summation points nu = n + alpha of a theta series whose linear
    coefficients zz have real parts re_zz (any shape).

    The terms have modulus exp(-pi*t*nu^2 + a*nu), largest at a/(2*pi*t);
    the range reaches W = sqrt((_LOG_EPS + log 2)/(pi*t)) + 1 beyond the
    centres of every a, which puts the two tails below round-off.
    """
    t = np.imag(tau)
    half = np.sqrt((_LOG_EPS + log(2.0)) / (np.pi * t)) + 1.0
    alpha_re = float(np.real(alpha))
    lo = floor(np.min(re_zz, initial=0.0) / (2.0 * np.pi * t) - half - alpha_re)
    hi = ceil(np.max(re_zz, initial=0.0) / (2.0 * np.pi * t) + half - alpha_re)
    n = np.arange(lo, hi + 1, dtype=float)
    return n + alpha


def theta_char_g1(alpha, beta, z, tau):
    """Genus-one theta function with characteristics [alpha; beta].

    Parameters
    ----------
    alpha, beta : scalar (real, or complex for the analytically continued
        second characteristic)
    z : scalar or ndarray (complex)
    tau : complex, Im(tau) > 0

    Returns a value (or array) of

        sum_n exp(i*pi*(n+alpha)^2*tau + (n+alpha)*(z + 2*pi*i*beta)).
    """
    _check_tau(tau)
    zz = np.asarray(z, dtype=complex) + TWO_PI_I * beta
    nu = _theta_range(alpha, zz.real, tau)
    val = np.exp(1j * np.pi * nu**2 * tau + nu * zz[..., None]).sum(axis=-1)
    return val if val.shape else complex(val)


def _is_grid(x, y):
    """True when x is a column (M, 1) and y a row (1, K)."""
    return np.ndim(x) == 2 and np.ndim(y) == 2 and np.shape(x)[1] == 1 and np.shape(y)[0] == 1


def _theta_grid_factors(alpha, beta, x, y, tau):
    """Factors (left, right) of the product grid theta[alpha; beta](x - y)
    for a column x (M, 1) and a row y (1, K): left is M x n, right n x K and
    the grid is left @ right (see theta_char_g1_diff).

    A left factor left_in is zeroed where even its largest product with a
    right factor, |left_in| * max_j |right_nj|, is below 2^-106 of
    max_n |left_in| * min_j |right_nj|, a size that every entry of row i
    reaches in at least one term.  Each entry then loses only terms 2^106
    times smaller than one it keeps, which cannot move it beyond round-off,
    and the matrix product makes none of the subnormal partial products
    that slow it down several times over.  A flush against the largest
    term of the whole row would not be safe: where the real parts of y
    spread widely, the entries of one row differ by many orders of
    magnitude.
    """
    _check_tau(tau)
    xx = np.asarray(x, dtype=complex)[:, 0] + TWO_PI_I * beta
    yy = np.asarray(y, dtype=complex)[0]
    # the real parts of xx_i - y_j lie in [lo, hi]
    lo = np.min(xx.real, initial=0.0) - np.max(yy.real, initial=0.0)
    hi = np.max(xx.real, initial=0.0) - np.min(yy.real, initial=0.0)
    nu = _theta_range(alpha, np.array([lo, hi]), tau)
    left = np.exp(1j * np.pi * nu**2 * tau + np.multiply.outer(xx, nu))
    right = np.exp(-np.multiply.outer(nu, yy))
    mag = np.abs(right)
    size = np.abs(left)
    sure = np.max(size * mag.min(axis=1, initial=np.inf), axis=1, keepdims=True)
    left[size * mag.max(axis=1, initial=0.0) < 2.0**-106 * sure] = 0.0
    return left, right


def theta_char_g1_diff(alpha, beta, x, y, tau):
    """theta[alpha; beta](x - y, tau) for broadcastable x and y.

    For a column x (M, 1) and a row y (1, K) the lattice sum separates,

        theta[alpha; beta](x_i - y_j)
            = sum_n e^(i*pi*nu^2*tau + nu*(x_i + 2*pi*i*beta)) * e^(-nu*y_j),

    nu = n + alpha over the tail-bound range of every pair, and the M x K
    grid is one (M x n)(n x K) matrix product of _theta_grid_factors, which
    drops the terms far below round-off of every entry beforehand.  Any
    other shapes are evaluated pointwise by theta_char_g1.
    """
    if not _is_grid(x, y):
        return theta_char_g1(alpha, beta, np.asarray(x) - np.asarray(y), tau)
    left, right = _theta_grid_factors(alpha, beta, x, y, tau)
    return left @ right


def theta1(z, tau):
    """Odd theta function theta[1/2; 1/2](z, tau)."""
    return theta_char_g1(0.5, 0.5, z, tau)


def theta1_prime0(tau):
    """z-derivative of theta1 at z = 0 (term-wise differentiated series)."""
    _check_tau(tau)
    nu = _theta_range(0.5, 0.0, tau)
    return complex(np.sum(nu * np.exp(1j * np.pi * nu**2 * tau + 1j * np.pi * nu)))


def prime_form_K(z, tau):
    """Prime form K(z, tau) = theta1(z, tau) / theta1'(0, tau); K ~ z at 0.

    Vanishes exactly on the lattice; raises if z is numerically on Lambda
    (relative distance below 1e-12 of the minimal lattice length), since the
    caller almost certainly divides by the result.
    """
    z = np.asarray(z, dtype=complex)
    _check_off_lattice(z, tau, "prime_form_K")
    val = theta1(z, tau) / theta1_prime0(tau)
    return val if np.ndim(val) else complex(val)


def dedekind_eta(tau):
    """Dedekind eta, q^(1/24) * prod_{n>=1} (1 - q^n).

    The product is expanded with the pentagonal number theorem; its terms
    q^e are kept up to the order e at which the geometric tail
    |q|^e / (1 - |q|) is below round-off.
    """
    _check_tau(tau)
    q = np.exp(TWO_PI_I * tau)
    t = np.imag(tau)
    tail = _LOG_EPS - np.log1p(-abs(q))
    order = ceil(tail / (2.0 * np.pi * t))
    total = 1.0 + 0.0j
    m = 1
    while m * (3 * m - 1) // 2 <= order:
        total += (-1) ** m * (q ** (m * (3 * m - 1) // 2) + q ** (m * (3 * m + 1) // 2))
        m += 1
    # q^(1/24) taken as exp(2*pi*i*tau/24) so that eta(tau + 1) carries the
    # standard phase exp(i*pi/12) rather than being periodic in tau
    return np.exp(TWO_PI_I * tau / 24.0) * total


def _ehat_lambert(k, tau, log_u):
    """u^(-k) * Ehat_k(tau), log_u = log(u), for the even orders k >= 2 in
    the array k, from the Lambert series of E_k (see eisenstein),

        Ehat_k = (-1)^(k/2) * 2*zeta(k)
                 + (2*(2*pi)^k/(k-1)!) * sum_{d>=1} d^(k-1) q^d/(1 - q^d).

    Every term is formed as the exponential of its logarithm, so no power
    of 2*pi or factorial overflows on its own.  Past
    d0 = (max(k) - 1)/(pi*Im(tau)) each term is below exp(-pi*Im(tau)) times
    the one before, which fixes the number of terms in advance.
    """
    t = np.imag(tau)
    d0 = max(1, ceil((k.max() - 1) / (np.pi * t)))
    # log |term| at d0 for every k, with |1/(1 - q^d0)| <= 1/(1 - |q|^d0)
    x0 = 2.0 * np.pi * t * d0
    log_d0 = (k - 1) * log(2.0 * np.pi * d0) + LOG_2PI - gammaln(k) - x0 - np.log1p(-np.exp(-x0))
    peak = np.max(log_d0) + _LOG_EPS - np.log1p(-np.exp(-np.pi * t))
    d_max = d0 + max(0, ceil(peak / (np.pi * t)))
    d = np.arange(1, d_max + 1)
    log_lambert = TWO_PI_I * tau * d - np.log1p(-np.exp(TWO_PI_I * tau * d))
    scale = k * log_u
    logs = (
        np.multiply.outer(k - 1, np.log(2.0 * np.pi * d))
        + (LOG_2PI - gammaln(k) - scale)[:, None]
        + log_lambert[None, :]
    )
    return (-1.0) ** (k // 2) * 2.0 * zeta(k) * np.exp(-scale) + 2.0 * np.exp(logs).sum(axis=1)


def eisenstein_hat(kmax, tau):
    """Table of the scaled Eisenstein series Ehat_k = (2*pi)^k * E_k(tau),
    k = 0..kmax, as an array indexed by k (zero at odd k and at k < 2).

    The Lambert series (see _ehat_lambert) is summed at tau reduced to the
    fundamental domain.  With the reduced basis u, v of Z + Z*tau (see
    _reduced_basis) and tau_r = +-v/u in the upper half plane,
    Lambda(tau) = u * Lambda(tau_r), and E_k = sum'_lam lam^(-k) for k >= 4,
    so Ehat_k(tau) = u^(-k) * Ehat_k(tau_r), with u^(-k) taken into the
    logarithm of every term.  At tau itself the terms of high order cancel
    where Im(tau) is small against |tau|.  E_2 is only quasi-modular; where
    tau_r is not tau plus an integer, it is summed at tau itself, where its
    terms d*q^d/(1 - q^d) do not cancel that way.
    """
    _check_tau(tau)
    out = np.zeros(kmax + 1, dtype=complex)
    k = np.arange(2, kmax + 1, 2)
    if not k.size:
        return out
    (n1, m1), (n2, m2) = _reduced_basis(tau)
    u = n1 + m1 * tau
    tau_r = (n2 + m2 * tau) / u
    if tau_r.imag < 0:
        tau_r = -tau_r
    out[k] = _ehat_lambert(k, tau_r, np.log(u))
    if m1:
        out[2] = _ehat_lambert(k[:1], tau, 0.0)[0]
    return out


def eisenstein(k, tau):
    """Eisenstein series E_k(tau) in the normalisation fixed by the
    Laurent expansion of the Weierstrass-type function P_2 (see
    weierstrass_P): P_2(tau, z) - 1/z^2 = sum_{k>=2} (k-1) E_k(tau) z^(k-2).

    Concretely E_k = -B_k/k! + (2/(k-1)!) * sum_{n>=1} sigma_{k-1}(n) q^n for
    even k >= 2 (E_2 = -1/12 + 2q + ...), and E_k = 0 for odd k.  The value
    is read from the table eisenstein_hat.
    """
    _check_tau(tau)
    if k < 2:
        raise ValueError("eisenstein requires k >= 2")
    if k % 2 == 1:
        return 0.0j
    return complex(eisenstein_hat(k, tau)[k] * (2.0 * np.pi) ** -k)


def weierstrass_P_orders(ms, z, tau, ehat):
    """P_m(tau, z) for every order m in the integer array ms, from a table
    ehat = eisenstein_hat(kmax, tau) with kmax >= max(ms) + 399.

    Each Laurent series (see weierstrass_P) is summed over its first
    _LAURENT_TERMS terms and stopped after three consecutive terms below
    _LAURENT_RTOL relative to the partial sum; a series that does not stop
    raises RuntimeError.
    """
    _check_tau(tau)
    z = complex(z)
    lam, _, _ = nearest_lattice_point(z, tau)
    z = z - complex(lam)
    if abs(z) < 1e-12 * lattice_min_distance(tau):
        raise ValueError("weierstrass_P evaluated at a lattice point")
    m = np.asarray(ms, dtype=int).reshape(-1, 1)
    k = m + m % 2 + 2 * np.arange(_LAURENT_TERMS)
    # ((-1)^m/(m-1)!) (k-1)!/(k-m)! E_k z^(k-m)
    #     = (-1)^m C(k-1, m-1) Ehat_k (z/(2*pi))^(k-m) (2*pi)^(-m)
    log_coef = gammaln(k) - gammaln(k - m + 1) - gammaln(m) + (k - m) * np.log(z / (2.0 * np.pi))
    terms = (-1.0) ** m * (2.0 * np.pi) ** -m * np.exp(log_coef) * ehat[k]
    totals = z**-m + np.cumsum(terms, axis=1)
    small = np.abs(terms) < _LAURENT_RTOL * np.maximum(np.abs(totals), 1e-300)
    stop = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    if not stop.any(axis=1).all():
        raise RuntimeError("weierstrass_P series did not converge; |z| too close to D(q)?")
    return totals[np.arange(len(m)), stop.argmax(axis=1) + 2]


def weierstrass_P(m, z, tau):
    """Weierstrass-type function P_m(tau, z), m >= 2, on 2*pi*i*(Z*tau + Z).

    P_2 = wp + E_2 has Laurent expansion 1/z^2 + sum_{k>=2}(k-1) E_k z^(k-2)
    and P_{m+1} = -(1/m) d/dz P_m, i.e.

        P_m(z) = 1/z^m
               + ((-1)^m/(m-1)!) * sum_{k>=m even} (k-1) (k-2)!/(k-m)! E_k z^(k-m).

    z is reduced modulo the lattice to the representative nearest the origin
    before the Laurent series is summed.
    """
    ehat = eisenstein_hat(m + 2 * _LAURENT_TERMS, tau)
    return complex(weierstrass_P_orders([m], z, tau, ehat)[0])


def twisted_P1(theta_mult, phi_mult, z, tau):
    """Twisted Weierstrass kernel P_1[theta; phi](z, tau) for multipliers
    theta = -exp(-2*pi*i*beta), phi = -exp(2*pi*i*alpha):

        P_1[theta; phi](z) = theta[alpha; beta](z) /
                             ( theta[alpha; beta](0) * K(z) ).

    Requires (theta, phi) != (1, 1); the characteristics are recovered on the
    principal window alpha, beta in (-1/2, 1/2].
    """
    if abs(theta_mult - 1.0) < 1e-14 and abs(phi_mult - 1.0) < 1e-14:
        raise ValueError("twisted_P1 undefined for trivial multipliers (theta, phi) = (1, 1)")
    alpha = np.angle(-phi_mult) / (2.0 * np.pi)
    beta = -np.angle(-theta_mult) / (2.0 * np.pi)
    return twisted_P1_char(alpha, beta, z, tau)


def twisted_P1_char(alpha, beta, z, tau):
    """P_1 kernel written directly in terms of characteristics [alpha; beta]."""
    num = theta_char_g1(alpha, beta, z, tau)
    den = theta_char_g1(alpha, beta, 0.0, tau)
    if abs(den) < 1e-300:
        raise ValueError("theta[alpha; beta](0) vanishes; kernel undefined")
    return num / den / prime_form_K(z, tau)


def theta_char_g2(alpha, beta, Omega):
    """Genus-two theta constant with characteristics alpha, beta in R^2:

        sum_{n in Z^2} exp( i*pi*(n+alpha).Omega.(n+alpha)
                            + (n+alpha).(2*pi*i*beta) ).

    Omega is a symmetric 2x2 period matrix with positive-definite imaginary
    part Y.  Terms outside the ellipse pi*nu.Y.nu <= _LOG_EPS + log 2 are
    below round-off; along axis i that ellipse reaches
    |nu_i| <= sqrt((_LOG_EPS + log 2) * (Y^-1)_ii / pi), and one more term is
    kept on each side.
    """
    Omega = np.asarray(Omega, dtype=complex)
    if Omega.shape != (2, 2):
        raise ValueError("Omega must be 2x2")
    if not np.allclose(Omega, Omega.T, atol=1e-12):
        raise ValueError("Omega must be symmetric")
    im = np.imag(Omega)
    if np.linalg.eigvalsh(im).min() <= 0:
        raise ValueError("Im(Omega) must be positive definite")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)

    reach = np.sqrt((_LOG_EPS + log(2.0)) * np.diag(np.linalg.inv(im)) / np.pi) + 1.0
    r1, r2 = (np.arange(-c, c + 1) for c in np.ceil(reach))
    n1, n2 = np.meshgrid(r1 + alpha[0], r2 + alpha[1], indexing="ij")
    quad = Omega[0, 0] * n1**2 + 2.0 * Omega[0, 1] * n1 * n2 + Omega[1, 1] * n2**2
    lin = TWO_PI_I * (beta[0] * n1 + beta[1] * n2)
    return complex(np.sum(np.exp(1j * np.pi * quad + lin)))
