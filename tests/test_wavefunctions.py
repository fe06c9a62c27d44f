import numpy as np
import pytest

from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    PhysicalParams,
    assemble_wavefunction,
    default_r_grid,
    fd_derivative_gap,
    first_order_residual,
    lower_component_pspin,
    lower_from_upper,
    select_branch_root,
    solve_energies,
    upper_component_spin,
    upper_from_lower,
)
from iqy_dirac.errors import EnergyAtThreshold, ExponentNotReal
from iqy_dirac.oracle import count_nodes


def caption_params(**overrides):
    base = dict(mass=5.0, v0=1.0, screening=0.05, tensor_h=0.0, c_spin=6.0, c_pspin=-5.5)
    base.update(overrides)
    return PhysicalParams(**base)


def pspin_state(n, kappa, **overrides):
    p = caption_params(**overrides)
    sol = select_branch_root(solve_energies(p, n, kappa, PSPIN, mode="relaxed"), PSPIN)
    assert sol is not None
    return p, sol


def spin_state(n, kappa, **overrides):
    p = caption_params(**overrides)
    sol = select_branch_root(solve_energies(p, n, kappa, SPIN, mode="relaxed"), SPIN)
    assert sol is not None
    return p, sol


PSPIN_STATES = [(0, -1), (1, -1), (1, -2), (2, -2), (1, 2)]
SPIN_STATES = [(0, -2), (1, -2), (0, 1), (1, 2)]


class TestPspinComponents:
    @pytest.mark.parametrize("n,kappa", PSPIN_STATES)
    def test_boundary_decay(self, n, kappa):
        p, sol = pspin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, PSPIN)
        g = np.abs(wf.lower)
        peak = g.max()
        assert g[0] < 1e-6 * peak
        assert g[-1] < 1e-6 * peak

    @pytest.mark.parametrize("n,kappa", PSPIN_STATES)
    def test_node_count_matches_degree(self, n, kappa):
        p, sol = pspin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, PSPIN)
        assert count_nodes(wf.lower) == n

    @pytest.mark.parametrize("n,kappa", PSPIN_STATES)
    def test_back_substitution(self, n, kappa):
        p, sol = pspin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, PSPIN)
        assert first_order_residual(p, wf) <= 1e-6

    def test_analytic_derivative_vs_central_difference(self):
        p, sol = pspin_state(1, -1)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        assert fd_derivative_gap(p, wf) <= 1e-6

    def test_normalization(self):
        p, sol = pspin_state(1, -1)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        trapz = getattr(np, "trapezoid", None) or np.trapz
        assert float(trapz(wf.lower**2, wf.r_grid)) == pytest.approx(1.0, abs=1e-10)

    def test_s_map(self):
        p, sol = pspin_state(1, -1)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        assert np.allclose(wf.s_map, np.exp(-2.0 * p.screening * wf.r_grid), rtol=1e-13)
        assert np.all(np.diff(wf.r_grid) > 0.0)

    def test_threshold_error(self):
        p = caption_params()
        e = p.mass + p.c_pspin
        grid = np.linspace(0.1, 50.0, 100)
        g = np.exp(-grid)
        with pytest.raises(EnergyAtThreshold):
            upper_from_lower(p, e, g, grid, 1, -1)

    def test_exponent_not_real_outside_domain(self):
        p = caption_params()
        grid = np.linspace(0.1, 50.0, 100)
        with pytest.raises(ExponentNotReal):
            lower_component_pspin(p, -0.2, 1, -1, grid)  # beta_sq < 0

    def test_tensor_state(self):
        p, sol = pspin_state(1, -1, tensor_h=5.0)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        assert count_nodes(wf.lower) == 1
        assert first_order_residual(p, wf) <= 1e-6


class TestSpinComponents:
    @pytest.mark.parametrize("n,kappa", SPIN_STATES)
    def test_boundary_decay_and_nodes(self, n, kappa):
        p, sol = spin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, SPIN)
        f = np.abs(wf.upper)
        assert f[0] < 1e-6 * f.max()
        assert f[-1] < 1e-6 * f.max()
        assert count_nodes(wf.upper) == n

    @pytest.mark.parametrize("n,kappa", SPIN_STATES)
    def test_back_substitution(self, n, kappa):
        p, sol = spin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, SPIN)
        assert first_order_residual(p, wf) <= 1e-6

    def test_threshold_error(self):
        p = caption_params()
        e = -p.mass + p.c_spin
        grid = np.linspace(0.1, 50.0, 100)
        with pytest.raises(EnergyAtThreshold):
            lower_from_upper(p, e, np.exp(-grid), grid, 0, -2)

    def test_components_scale_together(self):
        p, sol = spin_state(0, -2)
        grid = default_r_grid(p, sol, -2, SPIN)
        f = upper_component_spin(p, sol, 0, -2, grid)
        g = lower_from_upper(p, sol, f, grid, 0, -2)
        f2 = upper_component_spin(p, sol, 0, -2, grid) * 2.0
        g2 = lower_from_upper(p, sol, f2, grid, 0, -2)
        assert np.allclose(g2, 2.0 * g, rtol=1e-12)


class TestGrid:
    def test_default_grid_spans_demand(self):
        p, sol = pspin_state(2, -3)
        grid = default_r_grid(p, sol, -3, PSPIN)
        assert len(grid) == 2001
        assert grid[0] > 0.0
        g = lower_component_pspin(p, sol, 2, -3, grid)
        assert np.abs(g[0]) < 1e-6 * np.abs(g).max()
        assert np.abs(g[-1]) < 1e-6 * np.abs(g).max()
