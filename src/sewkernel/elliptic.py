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
* the q-series of eta stops where its geometric tail is below round-off.

No caller sets a range or a tolerance: the tail bounds alone fix them.
On a product grid, theta[alpha; beta](x_i - y_j) for a column x and a row
y, the lattice sum separates into one matrix product (see
theta_char_g1_diff).

Taylor coefficients are read on circles by one FFT (see _taylor_circle and
_taylor): on a circle of M points inside the disk of analyticity, the
trapezoid rule aliases onto order n only the orders n + M, n + 2M, ...,
so its error decays geometrically in M (Trefethen & Weideman, SIAM Rev. 56,
2014).  The Eisenstein series E_k and the Weierstrass-type functions P_m
are such coefficients of log theta1, read by _taylor from one theta grid
for any number of orders and centres (see _log_theta1_circle); order n
carries at most 2^(64n/M) <= 2^8 times the round-off eps/r^n of the
radius r of that grid itself.
"""

from __future__ import annotations

from math import ceil, floor, log

import numpy as np

TWO_PI_I = 2.0j * np.pi

# a tail below exp(-_LOG_EPS) of the largest term is below round-off
_LOG_EPS = -log(np.finfo(float).eps)


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


def nearest_lattice_point(z, tau):
    """Nearest point of Lambda = 2*pi*i*(Z*tau + Z) to z (vectorised).

    Returns (lam, m, n) with lam = 2*pi*i*(m*tau + n).  z is rounded to the
    nearest point in a reduced basis (u, v) of the lattice and the nine
    neighbouring points are compared, which finds the nearest point for any
    tau in the upper half plane.
    """
    (n1, m1), (n2, m2) = _reduced_basis(tau)
    u, v = n1 + m1 * tau, n2 + m2 * tau
    s = np.asarray(z, dtype=complex) / TWO_PI_I  # s = e1*u + e2*v
    e1 = (np.conj(v) * s).imag / (np.conj(v) * u).imag
    e2 = (np.conj(u) * s).imag / (np.conj(u) * v).imag
    c1, c2 = np.rint(e1), np.rint(e2)
    # squared distance to each neighbour, |g1*u + g2*v|^2, from the Gram matrix
    g1 = (e1 - c1)[..., None] - _CELL_STEPS[0]
    g2 = (e2 - c2)[..., None] - _CELL_STEPS[1]
    uv = (u * np.conj(v)).real
    dist2 = abs(u) ** 2 * g1**2 + 2.0 * uv * g1 * g2 + abs(v) ** 2 * g2**2
    j = np.argmin(dist2, axis=-1)
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
    return left, right


def theta_char_g1_diff(alpha, beta, x, y, tau):
    """theta[alpha; beta](x - y, tau) for broadcastable x and y.

    For a column x (M, 1) and a row y (1, K) the lattice sum separates,

        theta[alpha; beta](x_i - y_j)
            = sum_n e^(i*pi*nu^2*tau + nu*(x_i + 2*pi*i*beta)) * e^(-nu*y_j),

    nu = n + alpha over the tail-bound range of every pair, and the M x K
    grid is one (M x n)(n x K) matrix product of _theta_grid_factors.  Any
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


# Least point count M of the circles of _log_theta1_circle
_TAYLOR_M_LOG_THETA1 = 512


def _taylor_circle(n, min_M, R):
    """(M, radius) of a circle that gives n Taylor coefficients of a
    function analytic on |s| < R: M is a power of two, at least n and
    min_M, and the radius 2^(-64/M)*R aliases onto each DFT bin only the
    coefficients M orders higher, 2^-64 smaller relative."""
    M = max(min_M, 1 << int(n - 1).bit_length())
    return M, 2.0 ** (-64.0 / M) * R


def _taylor(values, r):
    """Taylor coefficients a_n, n = 0..M-1, of the columns of values, taken
    at s_j = r*exp(2*pi*i*j/M): a_n r^n is DFT bin n divided by M."""
    M = values.shape[0]
    return np.fft.fft(values, axis=0) / M * r ** -np.arange(float(M))[:, None]


def _log_theta1_circle(n, centres, R, tau):
    """(values, r): log theta1(c + s, tau), less log s at c = 0, for each
    centre c in the list centres (one column each) at the M >= 8n points s
    of the circle of radius r that _taylor_circle gives for n orders;
    theta1(c + s) must have no zero on 0 < |s| < R.

    One theta_char_g1_diff grid gives every centre.  The phase is unwrapped
    around the circle; one that does not close raises RuntimeError.  The
    grid is summed at tau - round(Re tau): theta1 changes by a constant
    factor under tau -> tau + 1, which moves a_0 only, and the phases of its
    terms then carry no round-off of order |Re tau|.
    """
    M, r = _taylor_circle(8 * n, _TAYLOR_M_LOG_THETA1, R)
    s = r * np.exp(TWO_PI_I * np.arange(M) / M)
    c = np.asarray(centres, dtype=complex)
    vals = theta_char_g1_diff(0.5, 0.5, s[:, None], -c[None, :], tau - round(np.real(tau)))
    vals[:, c == 0] /= s[:, None]
    ang = np.unwrap(np.angle(np.vstack([vals, vals[:1]])), axis=0)
    if np.any(np.abs(ang[-1] - ang[0]) > 1e-6):
        raise RuntimeError("log theta1 winds around its Taylor circle; a zero of theta1 inside")
    return np.log(np.abs(vals)) + 1j * ang[:-1], r


def eisenstein(k, tau):
    """Eisenstein series E_k(tau) in the normalisation fixed by the
    Laurent expansion of the Weierstrass-type function P_2 (see
    weierstrass_P): P_2(tau, z) - 1/z^2 = sum_{k>=2} (k-1) E_k(tau) z^(k-2).

    Concretely E_k = -B_k/k! + (2/(k-1)!) * sum_{n>=1} sigma_{k-1}(n) q^n for
    even k >= 2 (E_2 = -1/12 + 2q + ...), E_k = sum'_lam lam^(-k) over
    Lambda for even k >= 4, and E_k = 0 for odd k.  Since
    P_2 = -d^2/dz^2 log K, log K(z) = log z - sum_{k>=2} E_k z^k / k, and
    E_k = -k * [s^k] log(theta1(s)/s) is read on a circle inside the
    zero-free disk |s| < D(q) (see _log_theta1_circle).

    E_k is of the size of D(q)^(-k), the term of the shortest lattice
    vectors.  Where that lies below the normal range of a double
    (k * log D(q) > 708.4, i.e. k > 385 at D(q) = 2*pi) the value would
    be a subnormal with few digits, so ValueError is raised instead.
    """
    _check_tau(tau)
    if k < 2:
        raise ValueError("eisenstein requires k >= 2")
    if k % 2 == 1:
        return 0.0j
    D = lattice_min_distance(tau)
    if k * log(D) > -log(np.finfo(float).tiny):
        raise ValueError(
            f"eisenstein: E_{k} is of the size of D(q)^-{k} = exp({-k * log(D):.1f}), "
            "below the normal range of a double"
        )
    a = _taylor(*_log_theta1_circle(k, [0.0], D, tau))
    return complex(-k * a[k, 0])


def weierstrass_P(m, z, tau):
    """Weierstrass-type function P_m(tau, z), m >= 2, on 2*pi*i*(Z*tau + Z).

    P_2 = wp + E_2 has Laurent expansion 1/z^2 + sum_{k>=2}(k-1) E_k z^(k-2)
    and P_{m+1} = -(1/m) d/dz P_m, i.e.

        P_m(z) = 1/z^m
               + ((-1)^m/(m-1)!) * sum_{k>=m even} (k-1) (k-2)!/(k-m)! E_k z^(k-m).

    Since P_2 = -d^2/dz^2 log theta1, P_m(z) = (-1)^(m+1) * m *
    [s^m] log theta1(z + s), read on a circle inside the zero-free disk
    |s| < dist(z, Lambda) around z reduced modulo the lattice (see
    _log_theta1_circle).
    """
    _check_tau(tau)
    if m < 2:
        raise ValueError("weierstrass_P requires m >= 2")
    lam, _, _ = nearest_lattice_point(z, tau)
    z = complex(z) - complex(lam)
    if abs(z) < 1e-12 * lattice_min_distance(tau):
        raise ValueError("weierstrass_P evaluated at a lattice point")
    a = _taylor(*_log_theta1_circle(m, [z], abs(z), tau))
    return complex((-1) ** (m + 1) * m * a[m, 0])


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
