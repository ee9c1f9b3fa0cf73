"""Partition and n-point generating functions: genus-one twisted correlators,
Fock-basis two-point functions, the genus-two fermionic and bosonic partition
functions and the triple-product residual linking them."""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .elliptic import (
    dedekind_eta,
    prime_form_K,
    theta_char_g1,
    theta_char_g2,
    twisted_P1_char,
)
from .determinants import det_I_minus, det_inv_sqrt_I_minus_R
from .genus2 import s2_eval
from .szego import (
    _log_A_circle,
    build_T,
    moment_block,
    puncture_center,
    s_kappa,
    theta_ratio_core,
)


@dataclass(frozen=True)
class FockLabel:
    """Fermionic Fock-basis label: strictly increasing positive mode lists
    (k_list for the creation modes of one charge, l_list for the other)."""

    k_list: tuple
    l_list: tuple

    def __post_init__(self):
        for modes in (self.k_list, self.l_list):
            if any(int(k) != k or k < 1 for k in modes):
                raise ValueError("modes must be positive integers")
            if any(a >= b for a, b in zip(modes, modes[1:])):
                raise ValueError("modes must be strictly increasing")

    @property
    def s(self):
        return len(self.k_list)

    @property
    def t(self):
        return len(self.l_list)

    def weight(self):
        """Conformal weight sum(k - 1/2) + sum(l - 1/2)."""
        return sum(k - 0.5 for k in self.k_list) + sum(l - 0.5 for l in self.l_list)

    def weight_twisted(self, kappa):
        """Weight of the kappa-shifted state: wt + kappa*(s - t) + kappa^2/2."""
        return self.weight() + kappa * (self.s - self.t) + 0.5 * kappa**2


def z1_alpha_npoint(alpha, insertions, tau, strict=True):
    """Genus-one n-point generating function in the lattice sector alpha:

        q^(alpha^2/2)/eta * exp(alpha*sum_i beta_i z_i)
        * prod_{r<s} K(z_r - z_s)^(beta_r*beta_s)

    insertions is a list of (beta_i, z_i) pairs; the neutrality condition
    sum_i beta_i = 0 is enforced (strict=True raises, otherwise 0 is
    returned, matching the vanishing of the charged correlator).
    """
    betas = [be for be, _ in insertions]
    zs = [z for _, z in insertions]
    if abs(sum(betas)) > 1e-12:
        if strict:
            raise ValueError("charge imbalance: sum of insertion charges must vanish")
        return 0.0j
    q = np.exp(2j * np.pi * tau)
    val = q ** (0.5 * alpha**2) / dedekind_eta(tau)
    val *= np.exp(alpha * sum(be * z for be, z in insertions))
    n = len(insertions)
    for r in range(n):
        for s in range(r + 1, n):
            val *= prime_form_K(zs[r] - zs[s], tau) ** (betas[r] * betas[s])
    return complex(val)


def z1_twisted_2pt(sew, tw):
    """Twisted genus-one two-point normalisation

        (1/eta) * theta[a1; b1](kappa*w, tau) / K(w, tau)^(kappa^2)

    (principal branch of the K-power)."""
    tau, w, kap = sew.tau, sew.w, tw.kappa
    val = theta_char_g1(tw.alpha1, tw.beta1, kap * w, tau)
    val /= dedekind_eta(tau) * prime_form_K(w, tau) ** (kap**2)
    return complex(val)


def gen1_form(xs, ys, sew, tw):
    """Genus-one n-pair generating form: z1_twisted_2pt times the determinant
    of the twisted Szego kernel matrix [S_kappa(x_i, y_j)]."""
    xs = np.array(list(xs), dtype=complex)
    ys = np.array(list(ys), dtype=complex)
    if len(xs) != len(ys):
        raise ValueError("need equal numbers of x and y insertions")
    M = s_kappa(xs[:, None], ys[None, :], sew, tw)
    return complex(z1_twisted_2pt(sew, tw) * np.linalg.det(M))


def gen1_form_product(xs, ys, sew, tw):
    """Closed product form of gen1_form (test oracle):

        (1/(eta*K(w)^(kappa^2))) * theta[a1; b1](sum(x - y) + kappa*w)
        * prod_{i<j} K(x_ij) K(y_ij) / prod_{i,j} K(x_i - y_j)
        * prod_i (K(x_i - w)/K(x_i))^kappa * prod_j (K(y_j)/K(y_j - w))^kappa.
    """
    tau, w, kap = sew.tau, sew.w, tw.kappa
    xs = list(xs)
    ys = list(ys)
    n = len(xs)
    val = theta_char_g1(tw.alpha1, tw.beta1, sum(xs) - sum(ys) + kap * w, tau)
    val /= dedekind_eta(tau) * prime_form_K(w, tau) ** (kap**2)
    for i in range(n):
        for j in range(i + 1, n):
            val *= prime_form_K(xs[i] - xs[j], tau)
            val *= prime_form_K(ys[j] - ys[i], tau)
    for i in range(n):
        for j in range(n):
            val /= prime_form_K(xs[i] - ys[j], tau)
    for i in range(n):
        val *= (prime_form_K(xs[i] - w, tau) / prime_form_K(xs[i], tau)) ** kap
        val *= (prime_form_K(ys[i], tau) / prime_form_K(ys[i] - w, tau)) ** kap
    return complex(val)


def frobenius_residual(xs, ys, alpha1, beta1, tau):
    """Relative residual of the determinant identity

        theta[a1; b1](sum(x - y)) / theta[a1; b1](0)
        * prod_{i<j} K(x_ij) K(y_ij) / prod_{i,j} K(x_i - y_j)
        = det [ P_1[a1; b1](x_i - y_j) ].
    """
    xs = list(xs)
    ys = list(ys)
    n = len(xs)
    lhs = theta_char_g1(alpha1, beta1, sum(xs) - sum(ys), tau)
    lhs /= theta_char_g1(alpha1, beta1, 0.0, tau)
    for i in range(n):
        for j in range(i + 1, n):
            lhs *= prime_form_K(xs[i] - xs[j], tau)
            lhs *= prime_form_K(ys[j] - ys[i], tau)
    for i in range(n):
        for j in range(n):
            lhs /= prime_form_K(xs[i] - ys[j], tau)
    M = np.array(
        [
            [twisted_P1_char(alpha1, beta1, xs[i] - ys[j], tau) for j in range(n)]
            for i in range(n)
        ]
    )
    rhs = np.linalg.det(M)
    return abs(lhs / rhs - 1.0)


def _epsilon_sign(s1, t1, s2, t2, tw):
    p = s1 + s2
    return (-1) ** ((t1 + s2) * t2 + p // 2) * np.exp(
        1j * np.pi * tw.B * tw.kappa * (s2 - t1)
    )


def fock_2pt(label_w, label_0, sew, tw, quad_M=256, strict=True):
    """Two-point function of kappa-shifted Fock states, the state label_w
    = Psi_kappa[k1, l2] inserted at w and label_0 = Psi_{-kappa}[k2, l1]
    at 0:

        eps * z1_twisted_2pt * det [[C_11(k1, l1), C_12(k1, l2)],
                                    [C_21(k2, l1), C_22(k2, l2)]],

    eps = (-1)^((t1+s2)*t2 + floor(p/2)) * exp(i*pi*B*kappa*(s2 - t1)),
    where p = s1 + s2 = t1 + t2 is the common charge-mode count (charge
    balance is enforced; strict=False returns 0 instead of raising).
    """
    k1, l2 = tuple(label_w.k_list), tuple(label_w.l_list)
    k2, l1 = tuple(label_0.k_list), tuple(label_0.l_list)
    p = len(k1) + len(k2)
    if len(l1) + len(l2) != p:
        if strict:
            raise ValueError("charge imbalance between the two Fock labels")
        return 0.0j
    z0 = z1_twisted_2pt(sew, tw)
    eps = _epsilon_sign(len(k1), len(l1), len(k2), len(l2), tw)
    if p == 0:
        return complex(eps * z0)
    rows = [(1, k) for k in k1] + [(2, k) for k in k2]
    cols = [(1, l) for l in l1] + [(2, l) for l in l2]
    Nmax = max(m for _, m in rows + cols)
    M = np.empty((p, p), dtype=complex)
    for i, (a, k) in enumerate(rows):
        for j, (bb, l) in enumerate(cols):
            M[i, j] = moment_block(a, bb, Nmax, sew, tw, quad_M)[k - 1, l - 1]
    return complex(eps * z0 * np.linalg.det(M))


def fock_2pt_fourier(label_w, label_0, sew, tw, quad_M=64):
    """Independent oracle for fock_2pt: multi-circle Fourier extraction of the
    corresponding coefficient of gen1_form.

    Each row insertion (puncture side, mode k) is integrated over its own
    circle against loc^(-k) times the branch-tracked regularising factor; by
    multilinearity of the determinant this reduces to a determinant of
    pairwise extractions, evaluated here by direct trapezoid sums on circles
    whose radii differ from (and are independent of) the moment contours.
    """
    k1, l2 = tuple(label_w.k_list), tuple(label_w.l_list)
    k2, l1 = tuple(label_0.k_list), tuple(label_0.l_list)
    p = len(k1) + len(k2)
    if len(l1) + len(l2) != p:
        raise ValueError("charge imbalance between the two Fock labels")
    z0 = z1_twisted_2pt(sew, tw)
    eps = _epsilon_sign(len(k1), len(l1), len(k2), len(l2), tw)
    if p == 0:
        return complex(eps * z0)

    rows = [(2, k) for k in k1] + [(1, k) for k in k2]  # x side: k1 near w, k2 near 0
    cols = [(1, l) for l in l1] + [(2, l) for l in l2]  # y side: l1 near 0, l2 near w
    kap = tw.kappa

    def base_r(side):
        return sew.r1 if side == 1 else sew.r2

    xdata = []
    for i, (side, k) in enumerate(rows):
        r = base_r(side) * (0.98 - 0.06 * i)
        t, loga = _log_A_circle(side, r, quad_M, sew)
        xdata.append((side, k, t, np.exp(kap * loga)))
    ydata = []
    for j, (side, l) in enumerate(cols):
        r = base_r(side) * (0.72 - 0.06 * j)  # strictly inside every x circle
        t, loga = _log_A_circle(side, r, quad_M, sew)
        ydata.append((side, l, t, np.exp(-kap * loga)))

    P = np.empty((p, p), dtype=complex)
    for i, (xs_side, k, tx, ux) in enumerate(xdata):
        x = tx + puncture_center(xs_side, sew)
        for j, (ys_side, l, ty, uy) in enumerate(ydata):
            y = ty + puncture_center(ys_side, sew)
            core = theta_ratio_core(x[:, None], y[None, :], sew, tw)
            integ = (ux * tx ** (1.0 - k))[:, None] * (uy * ty ** (1.0 - l))[None, :]
            P[i, j] = np.sum(integ * core) / quad_M**2
    return complex(eps * z0 * np.linalg.det(P))


def z2_fermionic(sew, tw, N=16, quad_M=256):
    """Genus-two fermionic partition function

        exp(2*pi*i*beta2*kappa) * (exp(i*pi*B)*rho)^(kappa^2/2)
        * z1_twisted_2pt * det(I - T),

    the rho-power taken on the branch fixed by SewingConfig.log_rho.
    det(I - T) is taken by pivoted LU (det_I_minus), which also holds where
    the spectral radius of T is 1 or more."""
    T = build_T(N, sew, tw, quad_M)
    det = det_I_minus(T).value
    pref = np.exp(2j * np.pi * tw.beta2 * tw.kappa)
    pref *= np.exp(0.5 * tw.kappa**2 * (1j * np.pi * tw.B + sew.log_rho))
    return complex(pref * z1_twisted_2pt(sew, tw) * det)


def enumerate_fock_labels(W, kappa):
    """All FockLabels with twisted weight wt + kappa*(s-t) + kappa^2/2 <= W,
    graded by twisted weight, then by (s, t, k_list, l_list)."""
    if W < 0:
        return []
    budget = (W - 0.5 * kappa**2) / max(1.0 - 2.0 * abs(kappa), 1e-9)

    def increasing_lists(max_sum):
        # strictly increasing positive mode lists with sum(k - 1/2) <= max_sum
        out = [()]
        stack = [((), 0, 0.0)]
        while stack:
            prefix, last, acc = stack.pop()
            k = last + 1
            while acc + (k - 0.5) <= max_sum:
                nxt = prefix + (k,)
                out.append(nxt)
                stack.append((nxt, k, acc + (k - 0.5)))
                k += 1
        return out

    lists = increasing_lists(max(budget, 0.0))
    labels = []
    for kl in lists:
        for ll in lists:
            lab = FockLabel(kl, ll)
            if lab.weight_twisted(kappa) <= W + 1e-12:
                labels.append(lab)
    labels.sort(
        key=lambda L: (L.weight_twisted(kappa), L.s, L.t, L.k_list, L.l_list)
    )
    return labels


def fock_sum_oracle(W, sew, tw, quad_M=256):
    """Grade-truncated Fock-space sum for the genus-two fermionic partition
    function: the trace over the genus-one twisted module written as a sum of
    two-point functions of dual state pairs,

        sum_labels (-theta2)^(t-s) * exp(2*pi*i*beta2*kappa) * eps1
                   * rho^(wt_twisted) * fock_2pt((k, l), (l, k)),

    eps1 = (-1)^(s*t + floor(wt)) * exp(i*pi*B*wt_twisted), truncated to
    twisted weight <= W.  Converges to z2_fermionic as W grows.
    """
    kap = tw.kappa
    total = 0.0j
    pref0 = np.exp(2j * np.pi * tw.beta2 * kap)
    labels = enumerate_fock_labels(W, kap)
    # build the moment blocks once, at the largest mode; fock_2pt slices them
    Nmax = max((max(lab.k_list + lab.l_list, default=0) for lab in labels), default=0)
    if Nmax:
        for a in (1, 2):
            for bb in (1, 2):
                moment_block(a, bb, Nmax, sew, tw, quad_M)
    for lab in labels:
        wt = lab.weight()
        wtk = lab.weight_twisted(kap)
        eps1 = (-1) ** (lab.s * lab.t + floor(wt + 1e-12)) * np.exp(
            1j * np.pi * tw.B * wtk
        )
        sigma = (-tw.theta2_mult) ** (lab.t - lab.s)
        two_pt = fock_2pt(
            FockLabel(lab.k_list, lab.l_list),
            FockLabel(lab.l_list, lab.k_list),
            sew,
            tw,
            quad_M,
        )
        total += sigma * pref0 * eps1 * sew.rho_pow(wtk) * two_pt
    return complex(total)


def z2_heisenberg(sew, N=16):
    """Genus-two free-boson (Heisenberg) partition function
    (1/eta) * det(I - R)^(-1/2), branch continued from rho = 0."""
    return complex(
        det_inv_sqrt_I_minus_R(N, sew) / dedekind_eta(sew.tau)
    )


def z2_mu_nu(mu, nu, Omega, sew, N=16):
    """Charge-lattice sector (mu, nu) of the genus-two boson:
    exp(i*pi*(mu^2*O11 + 2*mu*nu*O12 + nu^2*O22)) * z2_heisenberg."""
    Omega = np.asarray(Omega, dtype=complex)
    phase = np.exp(
        1j
        * np.pi
        * (mu**2 * Omega[0, 0] + 2.0 * mu * nu * Omega[0, 1] + nu**2 * Omega[1, 1])
    )
    return complex(phase * z2_heisenberg(sew, N))


def z2_theta_form(Omega, sew, tw, N=16):
    """Genus-two twisted boson partition function
    theta2[(a1, kappa); (b1, b2)](Omega) * z2_heisenberg, for an externally
    supplied period matrix Omega."""
    th = theta_char_g2((tw.alpha1, tw.kappa), (tw.beta1, tw.beta2), Omega)
    return complex(th * z2_heisenberg(sew, N))


def triple_product_residual(sew, tw, N=16, quad_M=256, Omega=None):
    """Residual of the fermion-boson determinant identity.

    With Omega=None this is |det(I - T) * det(I - R)^(1/2) - 1|, the
    rho -> 0 compatibility of the two determinant factors.  Given the period
    matrix Omega, the full identity

        theta2[(a1,kappa); (b1,b2)](Omega)
          = exp(2*pi*i*b2*kappa) * (exp(i*pi*B)*rho / K(w)^2)^(kappa^2/2)
            * theta[a1; b1](kappa*w) * det(I - T) * det(I - R)^(1/2)

    is tested as a relative residual.
    """
    T = build_T(N, sew, tw, quad_M)
    detT = det_I_minus(T).value
    detR_half = 1.0 / det_inv_sqrt_I_minus_R(N, sew)
    if Omega is None:
        return abs(detT * detR_half - 1.0)
    kap = tw.kappa
    pref = np.exp(2j * np.pi * tw.beta2 * kap)
    pref *= np.exp(
        0.5
        * kap**2
        * (1j * np.pi * tw.B + sew.log_rho - 2.0 * np.log(prime_form_K(sew.w, sew.tau)))
    )
    pref *= theta_char_g1(tw.alpha1, tw.beta1, kap * sew.w, sew.tau)
    lhs = theta_char_g2((tw.alpha1, kap), (tw.beta1, tw.beta2), Omega)
    return abs(lhs / (pref * detT * detR_half) - 1.0)


def gen2_form(xs, ys, sew, tw, N=16, quad_M=256):
    """Genus-two n-pair generating form: z2_fermionic times the determinant
    of the genus-two Szego kernel matrix [S2(x_i, y_j)]."""
    xs = np.array(list(xs), dtype=complex)
    ys = np.array(list(ys), dtype=complex)
    if len(xs) != len(ys):
        raise ValueError("need equal numbers of x and y insertions")
    M = s2_eval(xs, ys, sew, tw, N, quad_M).value
    return complex(z2_fermionic(sew, tw, N, quad_M) * np.linalg.det(M))
