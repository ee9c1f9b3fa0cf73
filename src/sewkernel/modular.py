"""Modular transformations of the sewing data and multiplier-system checks.

The relevant group L is generated by the lattice translations / handle twist

    A = mu(1,0,0), B = mu(0,1,0), C = mu(0,0,1),

    mu(a,b,c) = [[1,0,0,b],[a,1,b,c],[0,0,1,-a],[0,0,0,1]],

together with the SL(2,Z) generators S, T embedded in Sp(4,Z) as

    gamma1(a1,b1,c1,d1) = [[a1,0,b1,0],[0,1,0,0],[c1,0,d1,0],[0,0,0,1]].

They act on a SewingConfig, i.e. on the sewing point (tau, w, rho) with its
carried branches log_rho, branch_n1 and branch_n2, and on the twist
parameters (alpha1, beta1, beta2, kappa).  The lifted logarithm

    lhat = log_rho + [Log(1/K(w, tau)) + 2*pi*i*n2] - [Log(-K(w, tau)) + 2*pi*i*n1]

is log(-rho / K(w, tau)^2) on the sheet that the carried branches fix; the
transport moves it by exactly the shift of each generator.  log K moves by
the closed-form laws of the prime form (quasi-periodicity under A, B, C,
weight -1 under S, T).
The lifted partition function

    Zhat = exp(2*pi*i*beta2*kappa) * exp(kappa^2/2 * lhat)
           * (1/eta) * theta[a1; b1](kappa*w, tau) * det(I - T)

transforms with a character chi: Zhat(g.sew, g.tw) = chi(g; tw) * Zhat(sew, tw),
and det(I - T) is separately invariant; invariance_residual measures both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elliptic import dedekind_eta, theta_char_g1
from .determinants import det_I_minus
from .szego import SewingConfig, _anchor_logs, _geometry, build_T

TWO_PI_I = 2j * np.pi

_GENERATORS = ("A", "B", "C", "S", "T")


def _mu_matrix(a, b, c):
    return np.array(
        [[1, 0, 0, b], [a, 1, b, c], [0, 0, 1, -a], [0, 0, 0, 1]], dtype=int
    )


def _gamma1_matrix(a1, b1, c1, d1):
    return np.array(
        [[a1, 0, b1, 0], [0, 1, 0, 0], [c1, 0, d1, 0], [0, 0, 0, 1]], dtype=int
    )


_GEN_MATRIX = {
    "A": _mu_matrix(1, 0, 0),
    "B": _mu_matrix(0, 1, 0),
    "C": _mu_matrix(0, 0, 1),
    "S": _gamma1_matrix(0, 1, -1, 0),
    "T": _gamma1_matrix(1, 1, 0, 1),
}

# mu generators with a single non-zero parameter invert by negating it
_MU_PARAMS = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, 1)}
_SL2_PARAMS = {"S": (0, 1, -1, 0), "T": (1, 1, 0, 1)}


@dataclass(frozen=True)
class GroupElement:
    """Word in the generators A, B, C, S, T; each letter is (name, power)
    with power +1 or -1.  The word acts left-to-right on points:
    (g1 g2).p = g1.(g2.p)."""

    word: tuple

    def __post_init__(self):
        for name, power in self.word:
            if name not in _GENERATORS or power not in (1, -1):
                raise ValueError(f"bad generator letter ({name}, {power})")

    @classmethod
    def from_string(cls, text):
        """Parse e.g. 'A B^-1 S' into a GroupElement."""
        letters = []
        for tok in text.split():
            if tok.endswith("^-1"):
                letters.append((tok[:-3], -1))
            else:
                letters.append((tok, 1))
        return cls(tuple(letters))

    @property
    def matrix(self):
        M = np.eye(4, dtype=int)
        for name, power in self.word:
            G = _GEN_MATRIX[name]
            M = M @ (G if power == 1 else np.linalg.inv(G).astype(int))
        return M


def lhat(sew):
    """The lifted logarithm log(-rho / K(w)^2) on the sheet fixed by the
    carried branches: log_rho plus the anchor log of A_2 minus that of A_1."""
    anc1, anc2 = _anchor_logs(sew, _geometry(sew.tau, sew.w).K)
    return complex(sew.log_rho + anc2 - anc1)


def _round_winding(value, what):
    n = int(np.rint(np.real(value)))
    if abs(value - n) > 1e-8:
        raise RuntimeError(f"{what} winding update not integral: {value}")
    return n


def _act_point_one(name, power, sew):
    """Action of a single generator letter on a SewingConfig.

    Each letter moves log K(w, tau) by the exact law of the prime form: by
    its quasi-periodicity for the translations A, B, C and by its weight -1
    law for S and T.  The carried branches of log(rho) and of the puncture
    anchor logs follow, so the net changes are 2*pi*i integers recorded in
    log_rho and the winding fields.  For a translation the choice of log of
    the sign (-1)^(a+b) fixes these integers only up to the gauge
    (log_rho + 4*pi*i*j, n1 + j, n2 - j), which leaves lhat, T and Zhat
    unchanged.  The contour radii take their defaults at the image.
    """
    tau, w, rho = sew.tau, sew.w, sew.rho
    if name in _MU_PARAMS:
        a, bb, c = (power * v for v in _MU_PARAMS[name])
        tau2, w2, rho2 = tau, w + TWO_PI_I * (a * tau + bb), rho
        # the prime form obeys K(w + 2*pi*i*(a*tau + b), tau) = (-1)^(a+b)
        # * exp(-i*pi*a^2*tau - a*w) * K(w, tau); log(rho) rides along the
        # lift of lhat = log(-rho / K^2), whose shift
        # 2*pi*i*a^2*tau + 2*a*w + 2*pi*i*(a*b + c) plus 2*dlogK is
        # 2*pi*i*(a*b + c + a + b)
        dlogK = 1j * np.pi * (a + bb - a**2 * tau) - a * w
        log_rho2 = sew.log_rho + TWO_PI_I * (a * bb + c + a + bb)
    else:
        a1, b1, c1, d1 = _SL2_PARAMS[name]
        if power == -1:
            a1, b1, c1, d1 = d1, -b1, -c1, a1
        den = c1 * tau + d1
        tau2 = (a1 * tau + b1) / den
        w2 = w / den
        rho2 = rho / den**2
        shift = -c1 * w**2 / (TWO_PI_I * den)
        log_den = np.log(complex(den))
        log_rho2 = sew.log_rho - 2.0 * log_den
        # the prime form obeys K(w/den, tau2) = K(w, tau) * den^-1
        # * exp(-shift/2); log K moves on the same branch of log(den) as
        # log(rho)
        dlogK = -log_den - 0.5 * shift
    # the anchor logs move with log K, so lhat moves by exactly shift; K at
    # both ends is that of the geometry, which the image config then shares
    anc1, anc2 = _anchor_logs(sew, _geometry(tau, w).K)
    K2 = _geometry(tau2, w2).K
    n1 = _round_winding((anc1 + dlogK - np.log(-K2)) / TWO_PI_I, "anchor-1")
    n2 = _round_winding((anc2 - dlogK - np.log(1.0 / K2)) / TWO_PI_I, "anchor-2")
    return SewingConfig(
        tau2, w2, rho2, log_rho=complex(log_rho2), branch_n1=n1, branch_n2=n2
    )


def act_point(g, sew):
    """g.sew for a GroupElement g acting on a SewingConfig: the image point
    with its carried log_rho and anchor windings."""
    for name, power in reversed(g.word):
        sew = _act_point_one(name, power, sew)
    return sew


def _act_twist_one(name, power, tw):
    al, be, b2, kap = tw.alpha1, tw.beta1, tw.beta2, tw.kappa
    if name in _MU_PARAMS:
        a, bb, c = (power * v for v in _MU_PARAMS[name])
        return replace(
            tw,
            alpha1=al - a * kap,
            beta1=be - bb * kap,
            beta2=b2 + a * be - bb * al - c * kap + 0.5 * (a * bb - c),
        )
    if name == "S":
        if power == 1:
            return replace(tw, alpha1=be, beta1=-al)
        return replace(tw, alpha1=-be, beta1=al)
    if name == "T":
        if power == 1:
            return replace(tw, beta1=be - al - 0.5)
        return replace(tw, beta1=be + al + 0.5)
    raise ValueError(name)


def act_twist(g, tw):
    """g.tw for a GroupElement acting on the twist parameters."""
    for name, power in reversed(g.word):
        tw = _act_twist_one(name, power, tw)
    return tw


def _chi_generator(name, tw):
    al, be, kap = tw.alpha1, tw.beta1, tw.kappa
    if name == "A":
        return 1.0 + 0.0j
    if name == "B":
        return complex(np.exp(-TWO_PI_I * al * kap))
    if name == "C":
        return complex(np.exp(-1j * np.pi * kap * (kap + 1.0)))
    if name == "S":
        return complex(np.exp(-TWO_PI_I * al * be))
    if name == "T":
        return complex(np.exp(-1j * np.pi * (al**2 + al + 1.0 / 12.0)))
    raise ValueError(name)


def chi_multiplier(g, tw):
    """Multiplier character chi(g; tw), built from the generator values by
    the cocycle rule chi(g h; tw) = chi(g; h.tw) * chi(h; tw)."""
    if not g.word:
        return 1.0 + 0.0j
    head, tail = g.word[0], GroupElement(g.word[1:])
    tw_tail = act_twist(tail, tw)
    name, power = head
    if power == 1:
        val = _chi_generator(name, tw_tail)
    else:
        # chi(g^-1; tw) = 1 / chi(g; g^-1 . tw)
        tw_inv = _act_twist_one(name, -1, tw_tail)
        val = 1.0 / _chi_generator(name, tw_inv)
    return complex(val * chi_multiplier(tail, tw))


def zhat(sew, tw, N=12, quad_M=256):
    """Lifted genus-two fermionic partition function at a SewingConfig;
    returns (Zhat, det(I - T))."""
    T = build_T(N, sew, tw, quad_M)
    det = det_I_minus(T).value
    val = np.exp(TWO_PI_I * tw.beta2 * tw.kappa)
    val *= np.exp(0.5 * tw.kappa**2 * lhat(sew))
    val *= theta_char_g1(tw.alpha1, tw.beta1, tw.kappa * sew.w, sew.tau)
    val /= dedekind_eta(sew.tau)
    return complex(val * det), complex(det)


def invariance_residual(g, sew, tw, N=12, quad_M=256, chi_scale=1.0):
    """Residuals of the modular multiplier system for the group element g at
    the sewing configuration sew, with its carried branches, and twist tw.

    Returns (full_residual, det_residual) with

        full_residual = |Zhat(g.sew, g.tw) / (chi(g; tw) * Zhat(sew, tw)) - 1|,
        det_residual  = |det(I - T)(g.sew, g.tw) / det(I - T)(sew, tw) - 1|.

    chi_scale multiplies the character (a deliberate perturbation knob for
    self-testing the sensitivity of the check).
    """
    z0, d0 = zhat(sew, tw, N, quad_M)
    z1, d1 = zhat(act_point(g, sew), act_twist(g, tw), N, quad_M)
    chi = chi_multiplier(g, tw) * chi_scale
    return abs(z1 / (chi * z0) - 1.0), abs(d1 / d0 - 1.0)
