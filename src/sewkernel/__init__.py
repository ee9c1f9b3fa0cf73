"""Numerical toolkit for the genus-two Szego kernel, partition functions and
modular multiplier systems in the rho-sewing scheme of a twice-punctured
torus."""

from .elliptic import (
    DEFAULT_BUDGET,
    SeriesBudget,
    dedekind_eta,
    eisenstein,
    lattice_min_distance,
    nearest_lattice_point,
    prime_form_K,
    theta1,
    theta1_prime0,
    theta_char_g1,
    theta_char_g2,
    twisted_P1,
    twisted_P1_char,
    weierstrass_P,
)
from .szego import (
    SewingConfig,
    TwistConfig,
    build_T,
    half_diff,
    moment_C,
    moment_block,
    s_kappa,
    s_kappa_regular,
)
from .determinants import (
    DetResult,
    build_R,
    det_I_minus,
    det_inv_sqrt_I_minus_R,
    minor_expansion_bordered,
    minor_expansion_det,
    moment_C_boson,
    moment_D_boson,
)
from .genus2 import (
    KernelEval,
    annulus_point,
    domain_check,
    s2_eval,
    sewing_multiplier_residual,
)
from .partition import (
    FockLabel,
    enumerate_fock_labels,
    fock_2pt,
    fock_2pt_fourier,
    fock_sum_oracle,
    frobenius_residual,
    gen1_form,
    gen1_form_product,
    gen2_form,
    triple_product_residual,
    z1_alpha_npoint,
    z1_twisted_2pt,
    z2_fermionic,
    z2_heisenberg,
    z2_mu_nu,
    z2_theta_form,
)
from .modular import (
    GroupElement,
    LiftedPoint,
    act_point,
    act_twist,
    chi_multiplier,
    invariance_residual,
    zhat,
)

__version__ = "0.1.0"
