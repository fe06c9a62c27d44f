import math

import numpy as np
import pytest

from iqy_dirac.dirac_iqy import PSPIN, SPIN, PhysicalParams, scan_window
from iqy_dirac.errors import NodeMismatch, NoRootInWindow, SeedUndefined
from iqy_dirac.limits import coulomb_energy
from iqy_dirac.oracle import (
    ProblemFamily,
    _match_index,
    _match_scalar,
    _match_vec,
    coulomb_family,
    count_nodes,
    integrate_inward,
    integrate_outward,
    pspin_family,
    scan_eigenvalues,
    shoot_eigenvalue,
    spin_family,
)


def caption_params(**overrides):
    base = dict(mass=5.0, v0=1.0, screening=0.05, tensor_h=0.0, c_spin=6.0, c_pspin=-5.5)
    base.update(overrides)
    return PhysicalParams(**base)


def constant_family(beta_sq=1.0, index=1.0, c0=None, r_min=1e-4, r_max=3.0, step=1e-4):
    return ProblemFamily(
        c0_fn=(lambda r: 0.0 * r) if c0 is None else c0,
        c1_fn=lambda r: 0.0 * r,
        gamma=lambda e: 0.0 * np.asarray(e),
        beta_sq=lambda e: beta_sq + 0.0 * np.asarray(e),
        nu=lambda e: index + 0.0 * np.asarray(e),
        r_min=r_min,
        r_max=r_max,
        step=step,
        label="test",
    )


class TestCountNodes:
    def test_constant_sign(self):
        assert count_nodes(np.ones(50)) == 0
        assert count_nodes(-np.ones(50) * 0.3) == 0

    def test_sine_on_three_half_periods(self):
        x = np.linspace(0.0, 3.0 * math.pi, 300)
        assert count_nodes(np.sin(x)) == 2

    def test_tiny_magnitudes_ignored(self):
        samples = np.array([1.0, 1e-15, -1e-16, 1.0, -1.0])
        assert count_nodes(samples) == 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            count_nodes([1.0, -1.0])

    def test_all_zero(self):
        assert count_nodes(np.zeros(10)) == 0


class TestIntegration:
    def test_free_solution_matches_sinh(self):
        family = constant_family(beta_sq=1.0, index=1.0)
        r, u = integrate_outward(family, 0.0)
        i_ref = int(np.argmin(np.abs(r - 0.5)))
        i_probe = int(np.argmin(np.abs(r - 1.0)))
        scale = math.sinh(r[i_ref]) / u[i_ref]
        rel = abs(scale * u[i_probe] - math.sinh(r[i_probe])) / math.sinh(r[i_probe])
        assert rel <= 1e-8

    def test_inward_solution_matches_decay(self):
        family = constant_family(beta_sq=4.0, index=1.0, r_max=8.0, step=1e-3)
        r, u = integrate_inward(family, 0.0)
        # pure exponential exp(-2r) away from the inner edge
        i1 = int(np.argmin(np.abs(r - 5.0)))
        i2 = int(np.argmin(np.abs(r - 6.0)))
        ratio = u[i2] / u[i1]
        assert ratio == pytest.approx(math.exp(-2.0 * (r[i2] - r[i1])), rel=1e-8)

    def test_seed_exponent_ratio(self):
        family = constant_family(
            beta_sq=1.0, index=2.0, c0=lambda r: 2.0 / (r * r), r_min=1e-5, r_max=1.0, step=1e-5
        )
        r, u = integrate_outward(family, 0.0)
        i_double = int(np.argmin(np.abs(r - 2.0 * r[0])))
        assert u[i_double] / u[0] == pytest.approx((r[i_double] / r[0]) ** 2.0, rel=1e-6)

    def test_rescaled_march_keeps_one_scale(self):
        # both marches grow past the 1e100 rescale limit, so every kept
        # sample must be divided along with the running pair
        family = constant_family(beta_sq=100.0, index=1.0, r_min=1e-4, r_max=30.0, step=1e-3)
        r, u = integrate_outward(family, 0.0)
        i1, i2 = (int(np.argmin(np.abs(r - x))) for x in (20.0, 26.0))
        expected = math.sinh(10.0 * r[i2]) / math.sinh(10.0 * r[i1])
        assert u[i2] / u[i1] == pytest.approx(expected, rel=1e-7)
        r, u = integrate_inward(family, 0.0)
        i1, i2 = (int(np.argmin(np.abs(r - x))) for x in (4.0, 27.0))
        assert u[i2] / u[i1] == pytest.approx(math.exp(-10.0 * (r[i2] - r[i1])), rel=1e-7)

    def test_inward_seed_undefined(self):
        family = constant_family(beta_sq=-1.0)
        with pytest.raises(SeedUndefined):
            integrate_inward(family, 0.0)

    def test_outward_seed_undefined_for_complex_index(self):
        family = ProblemFamily(
            c0_fn=lambda r: -1.0 / (r * r),
            c1_fn=lambda r: 0.0 * r,
            gamma=lambda e: 0.0 * np.asarray(e),
            beta_sq=lambda e: 1.0 + 0.0 * np.asarray(e),
            nu=lambda e: np.nan + 0.0 * np.asarray(e),
            r_min=1e-3,
            r_max=2.0,
            step=1e-3,
        )
        with pytest.raises(SeedUndefined):
            integrate_outward(family, 0.0)


class TestCoulombAnchor:
    WINDOW = (-0.999, -0.02)

    @pytest.mark.parametrize("n,kappa", [(0, 1), (1, 1), (0, 2)])
    def test_matches_closed_form(self, n, kappa):
        closed = coulomb_energy(1.0, -1.0, n, kappa)
        family = coulomb_family(1.0, -1.0, kappa)
        shot = shoot_eigenvalue(family, self.WINDOW, node_target=n, tol=1e-10)
        assert abs(shot - closed) <= 1e-6

    def test_node_count_monotone_in_energy(self):
        # window capped away from the accumulation edge so every contained
        # state decays well inside the grid
        family = coulomb_family(1.0, -1.0, 1)
        found = scan_eigenvalues(family, (-0.97, -0.02), tol=1e-10)
        assert len(found) >= 3
        energies = [e for e, _ in found]
        nodes = [c for _, c in found]
        assert energies == sorted(energies)
        # strictly ordered node counts within the window
        assert all(b < a for a, b in zip(nodes, nodes[1:])) or all(
            b > a for a, b in zip(nodes, nodes[1:])
        )
        for e, c in found:
            assert abs(e - coulomb_energy(1.0, -1.0, c, 1)) <= 1e-6

    def test_grid_convergence(self):
        # halving the step moves the eigenvalue by less than 1e-8
        for kappa, n in [(1, 0), (2, 0)]:
            e_coarse = shoot_eigenvalue(
                coulomb_family(1.0, -1.0, kappa, step=5.0e-3), self.WINDOW, n, tol=1e-11
            )
            e_fine = shoot_eigenvalue(
                coulomb_family(1.0, -1.0, kappa, step=2.5e-3), self.WINDOW, n, tol=1e-11
            )
            assert abs(e_coarse - e_fine) < 1e-8

    def test_match_point_independence(self):
        family = coulomb_family(1.0, -1.0, 1)
        # default match point sits at the potential minimum; move it +-20%
        from iqy_dirac.oracle import _match_index

        base_idx = _match_index(family, self.WINDOW)
        e_base = shoot_eigenvalue(family, self.WINDOW, 0, tol=1e-11, match_index=base_idx)
        for shift in (-0.2, 0.2):
            idx = int(base_idx * (1.0 + shift))
            e_moved = shoot_eigenvalue(family, self.WINDOW, 0, tol=1e-11, match_index=idx)
            assert abs(e_moved - e_base) < 1e-8

    def test_node_mismatch(self):
        family = coulomb_family(1.0, -1.0, 1)
        with pytest.raises(NodeMismatch):
            shoot_eigenvalue(family, (-0.7, -0.3), node_target=7)


class TestIqyProblems:
    def test_no_well_no_root(self):
        # pure approximated centrifugal, zero depth: no attractive region
        p = caption_params(v0=0.0)
        family = pspin_family(p, -1)
        window = scan_window(p, 1, -1, PSPIN)
        assert scan_eigenvalues(family, window) == []
        with pytest.raises(NoRootInWindow):
            shoot_eigenvalue(family, window, 0)

    @pytest.mark.parametrize("symmetry", [PSPIN, SPIN])
    @pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
    def test_empty_spectrum_matches_closed_form(self, symmetry, kappa):
        # the well-posed window admits no bound state on either route
        p = caption_params()
        window = scan_window(p, 0, kappa, symmetry)
        family = pspin_family(p, kappa) if symmetry == PSPIN else spin_family(p, kappa)
        assert scan_eigenvalues(family, window, tol=1e-9) == []

    def test_approximation_gap_shrinks_with_screening(self):
        # cutoff-regularized supercritical spin problem: the same grid and
        # wall for both centrifugal forms isolates the approximation error
        gaps = []
        for alpha in (0.2, 0.1, 0.05):
            p = caption_params(screening=alpha)
            es = {}
            for approximate in (False, True):
                family = spin_family(
                    p, -2, approximate=approximate,
                    r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True,
                )
                found = scan_eigenvalues(family, (3.5, 4.9), tol=1e-10, scan_points=120)
                assert found
                es[approximate] = found[0][0]
            gaps.append(abs(es[True] - es[False]))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_exact_and_approximate_agree_on_emptiness(self):
        p = caption_params()
        window = scan_window(p, 0, -2, SPIN)
        for approximate in (True, False):
            family = spin_family(p, -2, approximate=approximate)
            assert scan_eigenvalues(family, window, tol=1e-9) == []


class TestKernels:
    """The scalar march that refines roots and the batched march that scans
    for them compute the same matching function."""

    @staticmethod
    def _case(name):
        if name == "coulomb":
            return coulomb_family(1.0, -1.0, 1), (-0.999, -0.02)
        p = caption_params(screening=0.1)
        if name == "spin":
            return spin_family(p, -2), scan_window(p, 0, -2, SPIN)
        family = spin_family(p, -2, r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True)
        return family, (3.5, 4.9)

    @pytest.mark.parametrize("name", ["coulomb", "spin", "hard_wall"])
    def test_scalar_and_batched_match_agree(self, name):
        family, (lo, hi) = self._case(name)
        # the automatic match point and one that leaves both marches long
        energies = np.linspace(lo, hi, 9)[1:-1]
        for m_idx in (_match_index(family, (lo, hi)), len(family.r) // 2):
            f_batched, nodes_batched = _match_vec(family, energies, m_idx)
            for e, f_b, nodes_b in zip(energies, f_batched, nodes_batched):
                f_scalar, nodes_scalar = _match_scalar(family, float(e), m_idx)
                assert abs(f_scalar - f_b) <= 1e-12 * abs(f_b)
                assert nodes_scalar == nodes_b


class TestRadialProblem:
    def test_effective_potential_callable(self):
        p = caption_params()
        family = pspin_family(p, -1)
        r = np.array([1.0, 2.0, 5.0])
        w = family.effective_potential(-2.0, r)
        s = np.exp(-2.0 * p.screening * r)
        cent = 4.0 * p.screening**2 * s / (1.0 - s) ** 2
        lam = -1.0
        expected = lam * (lam - 1.0) * cent - (-2.0 - 5.0 + 5.5) * p.v0 * s * cent + (
            (5.0 - 2.0) * (5.0 + 2.0 - 5.5)
        )
        assert np.allclose(w, expected, rtol=1e-12)

    def test_grid_geometry(self):
        p = caption_params()
        family = pspin_family(p, -1)
        assert family.r_max == pytest.approx(14.0 / p.screening)
        assert family.step == pytest.approx(1.0e-3 / p.screening)
        assert math.exp(-2.0 * p.screening * family.r_max) < 1e-12
        assert np.all(np.diff(family.r) > 0.0)
