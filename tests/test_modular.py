"""Unit tests for the modular action, multiplier character and invariance."""

import numpy as np
import pytest

from sewkernel import (
    GroupElement,
    SewingConfig,
    TwistConfig,
    act_point,
    act_twist,
    chi_multiplier,
    invariance_residual,
    zhat,
)
from sewkernel import modular, prime_form_K
from sewkernel.modular import _GEN_MATRIX

TAU = 0.25 + 1.2j
W = 0.6 + 2.4j
RHO = 8e-4 * np.exp(0.5j)


@pytest.fixture(scope="module")
def point():
    return SewingConfig(TAU, W, RHO)


@pytest.fixture(scope="module")
def twist():
    return TwistConfig(alpha1=0.2, beta1=0.35, beta2=0.1, kappa=0.15)


# -------------------------------------------------------------- group algebra


def test_group_element_parsing_and_matrix():
    g = GroupElement.from_string("A B^-1 S")
    assert g.word == (("A", 1), ("B", -1), ("S", 1))
    M = g.matrix
    ref = _GEN_MATRIX["A"] @ np.linalg.inv(_GEN_MATRIX["B"]) @ _GEN_MATRIX["S"]
    assert np.allclose(M, ref)
    with pytest.raises(ValueError):
        GroupElement((("X", 1),))


def test_commutator_relation_matrix():
    # [DERIVED] the translation generators satisfy [A, B] = C^2
    g = GroupElement.from_string("A B A^-1 B^-1 C^-1 C^-1")
    assert np.allclose(g.matrix, np.eye(4))


def test_sl2_relation_matrix():
    # [DERIVED] (S T)^3 acts trivially on (tau, w, rho) up to the center
    g = GroupElement.from_string("S T S T S T")
    M = g.matrix
    assert np.allclose(np.abs(M), np.eye(4))


# ------------------------------------------------------------- point actions


def test_act_point_translations(point):
    pA = act_point(GroupElement.from_string("A"), point)
    assert abs(pA.w - (point.w + 2j * np.pi * point.tau)) < 1e-12
    pB = act_point(GroupElement.from_string("B"), point)
    assert abs(pB.w - (point.w + 2j * np.pi)) < 1e-12
    pC = act_point(GroupElement.from_string("C"), point)
    assert abs(pC.w - point.w) < 1e-12
    # rho itself never changes under translations, only its carried branch
    for p2 in (pA, pB, pC):
        assert abs(p2.rho - point.rho) < 1e-15
        ratio = (p2.log_rho - point.log_rho) / (2j * np.pi)
        assert abs(ratio - np.rint(ratio.real)) < 1e-9


def test_act_point_sl2(point):
    pS = act_point(GroupElement.from_string("S"), point)
    assert abs(pS.tau + 1.0 / point.tau) < 1e-12
    assert abs(pS.w - point.w / (-point.tau)) < 1e-12
    assert abs(pS.rho - point.rho / point.tau**2) < 1e-12
    pT = act_point(GroupElement.from_string("T"), point)
    assert abs(pT.tau - (point.tau + 1.0)) < 1e-12


def test_translation_path_near_a_lattice_point_raises(monkeypatch):
    # the straight path of B from w passes the lattice point 2*pi*i at
    # distance `off`; the phase refinement of log K stops at its cap and
    # raises instead of growing toward the memory limit
    tau = 0.1 + 1.2j
    w0 = 1j * (np.pi + 0.37 * 2.0 * np.pi / 400)
    B = GroupElement.from_string("B")
    q = act_point(B, SewingConfig(tau, w0 + 1e-3, 1e-4))
    assert (q.branch_n1, q.branch_n2) == (0, -1)
    points = []
    pfk = modular.prime_form_K
    monkeypatch.setattr(modular, "prime_form_K", lambda z, *a: points.append(np.size(z)) or pfk(z, *a))
    with pytest.raises(RuntimeError, match="lattice point"):
        act_point(B, SewingConfig(tau, w0 + 1e-6, 1e-4))
    assert sum(points) < 200_000


def test_act_point_roundtrips(point):
    for name in ("A", "B", "C", "S", "T"):
        g = GroupElement.from_string(f"{name} {name}^-1")
        p2 = act_point(g, point)
        assert abs(p2.tau - point.tau) < 1e-10
        assert abs(p2.w - point.w) < 1e-10
        assert abs(p2.rho - point.rho) < 1e-10
        assert abs(p2.log_rho - point.log_rho) < 1e-8
        assert (p2.branch_n1, p2.branch_n2) == (point.branch_n1, point.branch_n2)


def _principal_lhat(sew):
    return np.log(-sew.rho / prime_form_K(sew.w, sew.tau) ** 2)


def _winding(z):
    """Distance of z / (2*pi*i) from the nearest integer."""
    u = z / (2j * np.pi)
    return abs(u - np.rint(u.real))


def test_lhat_reads_the_carried_branches():
    base = SewingConfig(TAU, W, RHO)
    l0 = modular.lhat(base)
    # Log(1/K) - Log(-K) is -2 log K - i*pi up to 2*pi*i, so lhat is
    # log(-rho / K^2) on some sheet
    assert _winding(l0 - _principal_lhat(base)) < 1e-14
    for n1, n2 in ((1, 0), (0, 1), (2, -1), (-1, 3)):
        sew = SewingConfig(TAU, W, RHO, branch_n1=n1, branch_n2=n2)
        assert abs(modular.lhat(sew) - l0 - 2j * np.pi * (n2 - n1)) < 1e-12
    sew = SewingConfig(TAU, W, RHO, log_rho=np.log(RHO) + 2j * np.pi)
    assert abs(modular.lhat(sew) - l0 - 2j * np.pi) < 1e-12


def _letter_shift(name, power, sew):
    """The exact change of lhat under one generator letter."""
    if name in modular._MU_PARAMS:
        a, b, c = (power * v for v in modular._MU_PARAMS[name])
        return 2j * np.pi * (a * a * sew.tau + a * b + c) + 2.0 * a * sew.w
    a1, b1, c1, d1 = modular._SL2_PARAMS[name]
    if power == -1:
        a1, b1, c1, d1 = d1, -b1, -c1, a1
    return -c1 * sew.w**2 / (2j * np.pi * (c1 * sew.tau + d1))


def test_lhat_transports_by_the_exact_shift():
    rng = np.random.default_rng(17)
    for _ in range(8):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(1.0, 1.5))
        w = rng.uniform(0.3, 0.45) * 2 * np.pi * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = 1e-4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        n1, n2, nr = (int(v) for v in rng.integers(-2, 3, size=3))
        sew = SewingConfig(tau, w, rho, log_rho=np.log(rho) + 2j * np.pi * nr,
                           branch_n1=n1, branch_n2=n2)
        for name in ("A", "B", "C", "S", "T"):
            for power in (1, -1):
                sew2 = modular._act_point_one(name, power, sew)
                moved = modular.lhat(sew2) - modular.lhat(sew)
                assert abs(moved - _letter_shift(name, power, sew)) < 1e-13
                assert _winding(modular.lhat(sew2) - _principal_lhat(sew2)) < 1e-13

# ------------------------------------------------------------- twist actions


def test_act_twist_generators(twist):
    al, be, b2, kap = twist.alpha1, twist.beta1, twist.beta2, twist.kappa
    tA = act_twist(GroupElement.from_string("A"), twist)
    assert np.allclose((tA.alpha1, tA.beta1, tA.beta2), (al - kap, be, b2 + be))
    tB = act_twist(GroupElement.from_string("B"), twist)
    assert np.allclose((tB.alpha1, tB.beta1, tB.beta2), (al, be - kap, b2 - al))
    tC = act_twist(GroupElement.from_string("C"), twist)
    assert np.allclose((tC.alpha1, tC.beta1, tC.beta2), (al, be, b2 - kap - 0.5))
    tS = act_twist(GroupElement.from_string("S"), twist)
    assert np.allclose((tS.alpha1, tS.beta1), (be, -al))
    tT = act_twist(GroupElement.from_string("T"), twist)
    assert np.allclose((tT.alpha1, tT.beta1), (al, be - al - 0.5))


def test_act_twist_roundtrips(twist):
    for name in ("A", "B", "C", "S", "T"):
        g = GroupElement.from_string(f"{name} {name}^-1")
        t2 = act_twist(g, twist)
        assert np.allclose(
            (t2.alpha1, t2.beta1, t2.beta2, t2.kappa),
            (twist.alpha1, twist.beta1, twist.beta2, twist.kappa),
        )


def test_chi_cocycle(twist):
    # [DERIVED] chi(g h; tw) = chi(g; h.tw) * chi(h; tw)
    g = GroupElement.from_string("B S")
    h = GroupElement.from_string("T A^-1")
    gh = GroupElement(g.word + h.word)
    lhs = chi_multiplier(gh, twist)
    rhs = chi_multiplier(g, act_twist(h, twist)) * chi_multiplier(h, twist)
    assert abs(lhs / rhs - 1.0) < 1e-12


def test_chi_inverse(twist):
    for name in ("B", "C", "S", "T"):
        g = GroupElement.from_string(name)
        ginv = GroupElement.from_string(f"{name}^-1")
        val = chi_multiplier(g, act_twist(ginv, twist)) * chi_multiplier(ginv, twist)
        assert abs(val - 1.0) < 1e-12


def test_chi_unit_modulus(twist):
    for word in ("A", "B", "C", "S", "T", "B S T^-1"):
        val = chi_multiplier(GroupElement.from_string(word), twist)
        assert abs(abs(val) - 1.0) < 1e-12


# ---------------------------------------------------------------- invariance


@pytest.mark.parametrize("word", ["T", "A", "B", "C", "S"])
def test_generator_invariance(word, point, twist):
    g = GroupElement.from_string(word)
    full, det_only = invariance_residual(g, point, twist, N=8, quad_M=96)
    assert full < 1e-8
    assert det_only < 1e-8


@pytest.mark.parametrize("word", ["T", "A", "B", "C", "S", "S T"])
def test_generator_invariance_at_carried_windings(word, twist):
    sew = SewingConfig(TAU, W, RHO, branch_n1=1, branch_n2=-1)
    full, det_only = invariance_residual(GroupElement.from_string(word), sew, twist, N=8, quad_M=96)
    assert full < 1e-8
    assert det_only < 1e-8


def test_identity_word_invariance(point, twist):
    # [DERIVED] the relation word [A, B] C^-2 acts trivially on the point
    # lattice, so both residuals vanish; the twist data lives on a cover
    # (beta2 does not return exactly) and the character absorbs the shift,
    # here chi = e^{2*pi*i*kappa} of unit modulus
    g = GroupElement.from_string("A B A^-1 B^-1 C^-1 C^-1")
    full, det_only = invariance_residual(g, point, twist, N=8, quad_M=96)
    assert full < 1e-8 and det_only < 1e-8
    t2 = act_twist(g, twist)
    assert np.allclose((t2.alpha1, t2.beta1, t2.kappa), (twist.alpha1, twist.beta1, twist.kappa))
    chi = chi_multiplier(g, twist)
    assert abs(chi - np.exp(2j * np.pi * twist.kappa)) < 1e-10


def test_perturbed_character_is_detected(point, twist):
    g = GroupElement.from_string("T")
    full, _ = invariance_residual(g, point, twist, N=8, quad_M=96, chi_scale=1.01)
    assert abs(full - abs(1.0 / 1.01 - 1.0)) < 1e-4


def test_zhat_det_factor_consistency(point, twist):
    z, det = zhat(point, twist, N=8, quad_M=96)
    assert np.isfinite(z) and np.isfinite(det)
    assert abs(det) > 0.1  # det(I - T) near 1 at small rho
