"""Independent references at 30 significant digits, built with mpmath only.

Nothing here imports sewkernel: theta functions are summed term by term in
mpmath, the prime form and P_2 come from mpmath's Jacobi theta function and
eta from its q-Pochhammer symbol.  Conventions follow the package:
Lambda = 2*pi*i*(Z*tau + Z), q = exp(2*pi*i*tau) and

    theta[alpha; beta](z) = sum_n exp(i*pi*(n+alpha)^2*tau + (n+alpha)*(z + 2*pi*i*beta)).
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

_TAIL = 90  # a term below exp(-_TAIL) ~ 1e-39 relative to the largest is dropped


def _mpc(z):
    return mp.mpc(complex(z).real, complex(z).imag)


def theta_char(alpha, beta, z, tau):
    """Genus-one theta function with characteristics, summed around its
    largest term until the Gaussian tail is below 1e-39."""
    alpha, beta, z, tau = mp.mpf(alpha), mp.mpf(beta), _mpc(z), _mpc(tau)
    centre = int(mp.nint(mp.re(z) / (2 * mp.pi * mp.im(tau)) - alpha))
    half = int(mp.ceil(mp.sqrt(_TAIL / (mp.pi * mp.im(tau))))) + 2
    zz = z + 2j * mp.pi * beta
    return mp.fsum(
        mp.exp(1j * mp.pi * (n + alpha) ** 2 * tau + (n + alpha) * zz)
        for n in range(centre - half, centre + half + 1)
    )


def _jacobi(tau, z, derivative=0):
    """theta[1/2; 1/2](z) = jtheta(1, i*z/2, exp(i*pi*tau)) and its
    derivatives in v = i*z/2."""
    return mp.jtheta(1, 1j * _mpc(z) / 2, mp.exp(1j * mp.pi * _mpc(tau)), derivative)


def prime_form(z, tau):
    """K(z) = theta_1(z) / theta_1'(0)."""
    return _jacobi(tau, z) / (0.5j * _jacobi(tau, 0, 1))


def eta(tau):
    """Dedekind eta, exp(2*pi*i*tau/24) * (q; q)_infinity."""
    tau = _mpc(tau)
    q = mp.exp(2j * mp.pi * tau)
    return mp.exp(2j * mp.pi * tau / 24) * mp.qp(q)


def P2(w, tau):
    """P_2(tau, w) = -d^2/dz^2 log theta_1(z) at z = w."""
    j0 = _jacobi(tau, w)
    j1 = _jacobi(tau, w, 1)
    j2 = _jacobi(tau, w, 2)
    # d/dz = (i/2) d/dv, so -d^2/dz^2 log J = (1/4) (J''/J - (J'/J)^2)
    return (j2 / j0 - (j1 / j0) ** 2) / 4


def _pow(log_base, e):
    return mp.exp(e * log_base)


def z1_twisted_2pt(tau, w, alpha1, beta1, kappa):
    """theta[a1; b1](kappa*w) / (eta * K(w)^(kappa^2)), principal power."""
    K = prime_form(w, tau)
    return theta_char(alpha1, beta1, kappa * _mpc(w), tau) / (
        eta(tau) * _pow(mp.log(K), mp.mpf(kappa) ** 2)
    )


def z2_prefactor(kappa, beta2, B, log_rho):
    """exp(2*pi*i*beta2*kappa) * exp(kappa^2/2 * (i*pi*B + log rho))."""
    kappa = mp.mpf(kappa)
    return mp.exp(2j * mp.pi * mp.mpf(beta2) * kappa) * mp.exp(
        kappa**2 / 2 * (1j * mp.pi * B + _mpc(log_rho))
    )


def leading_T(tau, w, log_rho, alpha1, beta1, beta2, kappa, B):
    """(T[0, 0], T[N, N]): the k = l = 1 entries of the puncture-1 and
    puncture-2 diagonal blocks of the transfer matrix.

    For k = l = 1 the double contour integral is the mean of the
    regularised kernel over two circles, i.e. its value at the two puncture
    centres, so

        T[0, 0] = xi * rho^(1/2 + kappa) * theta2^-1 * (1/K(w))^kappa
                  * (-K(w))^-kappa * theta[a1; b1]((1 + kappa) w)
                  / (theta[a1; b1](kappa w) K(w)),
        T[N, N] = xi * rho^(1/2 - kappa) * (-theta2) * (-K(w))^kappa
                  * (1/K(w))^-kappa * theta[a1; b1]((kappa - 1) w)
                  / (theta[a1; b1](kappa w) K(-w)),

    with principal logarithms at the centres and xi = exp(i*pi*B/2).
    """
    kappa = mp.mpf(kappa)
    w = _mpc(w)
    log_rho = _mpc(log_rho)
    K = prime_form(w, tau)
    Kneg = prime_form(-w, tau)
    xi = mp.exp(1j * mp.pi * B / 2)
    theta2 = -mp.exp(-2j * mp.pi * mp.mpf(beta2))
    log_a1 = mp.log(-K)  # log A_1 at the centre of puncture 1
    log_a2 = mp.log(1 / K)  # log A_2 at the centre of puncture 2
    den = theta_char(alpha1, beta1, kappa * w, tau)
    t11 = (
        xi
        * _pow(log_rho, mp.mpf(0.5) + kappa)
        / theta2
        * mp.exp(kappa * log_a2 - kappa * log_a1)
        * theta_char(alpha1, beta1, (1 + kappa) * w, tau)
        / (den * K)
    )
    t22 = (
        xi
        * _pow(log_rho, mp.mpf(0.5) - kappa)
        * (-theta2)
        * mp.exp(kappa * log_a1 - kappa * log_a2)
        * theta_char(alpha1, beta1, (kappa - 1) * w, tau)
        / (den * Kneg)
    )
    return complex(t11), complex(t22)


def heisenberg_leading(tau, w, rho):
    """(eta(tau), 1 - rho * P_2(tau, w)): the genus-one factor and the
    first-order expansion of det(I - R)^(-1/2)."""
    return complex(eta(tau)), complex(1 - _mpc(rho) * P2(w, tau))
