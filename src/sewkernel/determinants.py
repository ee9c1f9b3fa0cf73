"""Determinant evaluations for the sewing formalism: det(I - T) by pivoted LU
(the default) or by the trace-log series, summed in closed form over the
eigenvalues, the bosonic moment matrix R, whose E_k and P_m are Taylor
coefficients of log theta1 read on one circle, with det(I - R)^(-1/2) on the
branch continued from rho = 0, read off the same trace-log sum, and finite
minor expansions used as oracles."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .elliptic import (
    _log_theta1_taylor,
    eisenstein,
    lattice_min_distance,
    nearest_lattice_point,
    weierstrass_P,
)
from .szego import _check_order


@dataclass(frozen=True)
class DetResult:
    """Determinant value together with the method and an error estimate."""

    value: complex
    N: int
    method: str
    est_error: float


def det_I_minus(M, method="lu"):
    """det(I - M) for a square complex matrix M.

    method = "lu" (the default) uses a pivoted LU factorisation, which needs
    no condition on M: det(I - M) is single-valued, so no branch enters.
    method = "trace_log" uses log det(I - M) = -sum_n tr(M^n)/n, valid for
    spectral radius < 1 (checked, ValueError otherwise), summed in closed
    form over the eigenvalues (see _trace_log_sum); it is the independent
    second method of the cross checks.  Returns a DetResult.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    if method == "lu":
        sign, logabs = np.linalg.slogdet(np.eye(n) - M)
        val = sign * np.exp(logabs)
    elif method == "trace_log":
        val = np.exp(_trace_log_sum(M))
    else:
        raise ValueError(f"unknown method {method!r}")
    return DetResult(complex(val), n, method, float(abs(val)) * 1e-14 * n)


def _trace_log_sum(M):
    """The trace-log series log det(I - M) = -sum_k tr(M^k)/k for M of
    spectral radius below 1, in closed form: tr(M^k) is the sum of lambda^k
    over the eigenvalues lambda of M, so the series is the sum of the
    principal Log(1 - lambda) = log1p(-lambda).  ValueError where the
    spectral radius is 1 or more, where the series diverges."""
    lam = np.linalg.eigvals(M)
    radius = np.max(np.abs(lam))
    if not radius < 1.0:
        raise ValueError(f"trace-log series diverges: spectral radius {radius:g} >= 1")
    return complex(np.sum(np.log1p(-lam)))


def _moment_factor(k, l):
    """(-1)^(k+1) (k+l-1)!/((k-1)!(l-1)!) = (-1)^(k+1) l C(k+l-1, l) for
    integers k, l >= 1, or broadcastable integer arrays of them: each entry
    is exact in Python integers and rounded once to float."""
    k, l = np.broadcast_arrays(k, l)
    pairs = zip(k.ravel().tolist(), l.ravel().tolist())
    fac = [(-1) ** (a + 1) * b * comb(a + b - 1, b) for a, b in pairs]
    return np.reshape(np.array(fac, dtype=float), k.shape)


def moment_C_boson(k, l, tau):
    """Bosonic moment C(k, l, tau) = (-1)^(k+1) (k+l-1)!/((k-1)!(l-1)!)
    E_{k+l}(tau)."""
    return complex(_moment_factor(k, l) * eisenstein(k + l, tau))


def moment_D_boson(k, l, tau, z):
    """Bosonic moment D(k, l, tau, z): as moment_C_boson but with the
    Weierstrass function P_{k+l}(tau, z) in place of E_{k+l}(tau)."""
    return complex(_moment_factor(k, l) * weierstrass_P(k + l, z, tau))


def build_R(N, sew):
    """2N x 2N bosonic moment matrix R, blocks indexed like build_T:

        R_ab(k, l) = -(rho^((k+l)/2) / sqrt(k*l))
                     * [[D(k,l,tau,w), C(k,l,tau)],
                        [C(k,l,tau),  D(l,k,tau,w)]]_ab.

    E_m and P_m(tau, w), m <= 2N, are the Taylor coefficients
    -m * [s^m] log(theta1(s)/s) and (-1)^(m+1) * m * [s^m] log theta1(w + s)
    (see elliptic.eisenstein and elliptic.weierstrass_P), read at the
    centres 0 and w from one grid on a circle inside the zero-free disk of
    radius min(D(q), dist(w, Lambda)) of both.
    """
    N = _check_order(N)
    tau = sew.tau
    lam, _, _ = nearest_lattice_point(sew.w, tau)
    w = complex(sew.w) - complex(lam)
    a = _log_theta1_taylor(2 * N, [0.0, w], min(lattice_min_distance(tau), abs(w)), tau)
    m = np.arange(2 * N + 1)
    E = -m * a[:, 0]
    E[1::2] = 0.0  # E_m vanishes at odd m
    P = (-1.0) ** (m + 1) * m * a[:, 1]
    k = np.arange(1, N + 1)
    K, L = k[:, None], k[None, :]
    fac = _moment_factor(K, L)
    pref = -sew.rho_pow(0.5 * (K + L)) / np.sqrt((K * L).astype(float))
    C = pref * fac * E[K + L]
    D = pref * fac * P[K + L]
    return np.block([[D, C], [C, D.T]])


def det_inv_sqrt_I_minus_R(N, sew):
    """det(I - R)^(-1/2) on the branch continued from rho = 0, where the
    value is 1, along the ray s*rho, s in [0, 1].

    Scaling rho by s gives R(s*rho) = D_s R D_s with D_s = diag(s^(k/2)),
    ||D_s||_2 <= 1, so where ||R||_2 < 1 every matrix on the ray has spectral
    norm below 1.  The trace-log series of log det(I - R(s*rho)) (see
    _trace_log_sum) then converges all along the ray, is analytic in s and
    vanishes at s = 0: it is the continued log det, and the value is
    exp(-log det / 2).  ValueError where ||R||_2 >= 1, since the branch is
    then not certified.
    """
    R = build_R(N, sew)
    # the spectral norm is at most the Frobenius norm, so only a norm of 1
    # or more (or NaN) needs the singular values
    if not np.linalg.norm(R) < 1.0:
        norm = np.linalg.norm(R, 2)
        if not norm < 1.0:
            raise ValueError(
                f"det(I - R)^(-1/2): ||R||_2 = {norm:g} >= 1, so the branch continued "
                "from rho = 0 is not certified"
            )
    logdet = _trace_log_sum(R)
    return complex(np.exp(-0.5 * logdet))


def minor_expansion_det(R, max_p=12):
    """det(I + R) evaluated as the sum of principal minors,
    sum_p sum_{|m| = p} det R[m, m].  Guarded to dimensions <= max_p."""
    R = np.asarray(R, dtype=complex)
    P = R.shape[0]
    if P > max_p:
        raise ValueError(f"minor expansion guarded to dimension {max_p}, got {P}")
    total = 1.0 + 0.0j
    for p in range(1, P + 1):
        for m in combinations(range(P), p):
            idx = np.ix_(m, m)
            total += np.linalg.det(R[idx])
    return complex(total)


def minor_expansion_bordered(S, U, V, R, max_p=12):
    """Bordered minor expansion: for an n x n block S, n x P block U, P x n
    block V and P x P block R,

        det [[S, U], [V, I + R]]
            = sum_p sum_{|m| = p} det [[S, U[:, m]], [V[m, :], R[m, m]]].
    """
    S = np.asarray(S, dtype=complex)
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    R = np.asarray(R, dtype=complex)
    P = R.shape[0]
    if P > max_p:
        raise ValueError(f"minor expansion guarded to dimension {max_p}, got {P}")
    total = np.linalg.det(S)
    for p in range(1, P + 1):
        for m in combinations(range(P), p):
            m = list(m)
            top = np.hstack([S, U[:, m]])
            bot = np.hstack([V[m, :], R[np.ix_(m, m)]])
            total += np.linalg.det(np.vstack([top, bot]))
    return complex(total)
