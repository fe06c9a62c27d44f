"""Bound states of the Dirac equation for the inversely quadratic Yukawa
potential with a Coulomb-like tensor interaction, under spin and pseudospin
symmetry, with an independent shooting-method oracle.

The package root exports the entry points the README documents; every
other name is imported from its own module."""

from .dirac_iqy import (
    PhysicalParams,
    assemble_wavefunction,
    scan_window,
    select_branch_root,
    solve_batch,
    solve_energies,
)
from .oracle import pspin_family, scan_eigenvalues

__version__ = "0.1.0"
