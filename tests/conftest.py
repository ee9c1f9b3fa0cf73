"""Shared fixtures: standard sewing/twist configurations, point helpers and
the radially continued log A of the puncture factors, the reference that
the Taylor series of the package is checked against."""

import numpy as np
import pytest

from sewkernel import SewingConfig, TwistConfig
from sewkernel.elliptic import theta1, theta1_prime0

TAU = 0.3 + 1.1j
W = 0.5 + 2.2j
RHO = 1e-3


@pytest.fixture(scope="session")
def sew():
    return SewingConfig(TAU, W, RHO)


@pytest.fixture(scope="session")
def tw():
    return TwistConfig(alpha1=0.15, beta1=0.25, beta2=0.1, kappa=0.2)


@pytest.fixture(scope="session")
def tw_untwisted():
    """kappa = 0 configuration with theta2 = i (the two sheets coincide)."""
    return TwistConfig(alpha1=0.0, beta1=0.0, beta2=0.25, kappa=0.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


def generic_point(rng, tau=TAU, scale=0.9):
    """A random point of the fundamental domain, kept away from the lattice."""
    while True:
        z = 2j * np.pi * (
            (0.1 + 0.8 * rng.random()) * tau + (0.1 + 0.8 * rng.random())
        ) * scale
        if abs(z) > 0.3:
            return z


def A_values(side, t, sew):
    """The puncture factor A_1(t) = t*theta1(t - w)/theta1(t) (side 1) or
    A_2(t) = theta1(t)/(t*theta1(t + w)) (side 2) at local points t, each
    theta1 summed pointwise; t = 0 gives the limits -K(w) and 1/K(w)."""
    t = np.asarray(t, dtype=complex)
    flat = t.reshape(-1)
    shift = sew.w if side == 1 else -sew.w
    num, den = flat * theta1(flat - shift, sew.tau), theta1(flat, sew.tau)
    zero = flat == 0.0
    num[zero], den[zero] = theta1(-shift, sew.tau), theta1_prime0(sew.tau)
    return (num / den if side == 1 else den / num).reshape(t.shape)


def log_A_radial(side, t, sew, steps=48):
    """Reference log A_side at local points t: A on the ray from the
    puncture centre to each t in `steps` steps, its phase unwrapped from the
    principal Log A at the centre, plus 2*pi*i times the carried winding."""
    t = np.asarray(t, dtype=complex)
    path = np.linspace(0.0, 1.0, steps + 1)[:, None] * t.reshape(1, -1)
    vals = A_values(side, path, sew)
    winding = sew.branch_n1 if side == 1 else sew.branch_n2
    phase = np.unwrap(np.angle(vals), axis=0)[-1] + 2.0 * np.pi * winding
    return (np.log(np.abs(vals[-1])) + 1j * phase).reshape(t.shape)
