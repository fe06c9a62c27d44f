"""Bound states of the Dirac equation for the inversely quadratic Yukawa
potential with a Coulomb-like tensor interaction, under spin and pseudospin
symmetry, with an independent shooting-method oracle."""

from .dirac_iqy import (
    PSPIN,
    SPIN,
    EnergySolution,
    PhysicalParams,
    QuantumNumbers,
    RadialWavefunction,
    assemble_wavefunction,
    attach_radial_number,
    beta_squared,
    effective_centrifugal,
    energy_residual_raw,
    energy_residual_rearranged,
    first_order_residual,
    gamma_factor,
    greene_aldrich,
    partner_kappa,
    pspin_nu_coefficients,
    quantum_number_map,
    scan_window,
    select_branch_root,
    solve_batch,
    solve_energies,
    strict_window,
)
from .limits import MieParams, coulomb_energy, mie_energy_residual
from .nu_engine import (
    NUCoefficients,
    NUDerived,
    derive_parameters,
    energy_residual,
    evaluate_nu_wavefunction,
    wavefunction_parameters,
)
from .oracle import (
    ProblemFamily,
    coulomb_family,
    count_nodes,
    integrate_outward,
    pspin_family,
    scan_eigenvalues,
    shoot_eigenvalue,
    shoot_eigenvalues,
    spin_family,
)
from .special_fn import DEGREE_CAP, jacobi, jacobi_derivative, laguerre

__version__ = "0.1.0"
