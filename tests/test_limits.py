import math

import numpy as np
import pytest

from iqy_dirac.dirac_iqy import PSPIN, PhysicalParams, solve_energies
from iqy_dirac.errors import NegativeRadicand
from iqy_dirac.limits import MieParams, coulomb_energy, mie_energy_residual


def bisect(f, lo, hi, tol=1e-13):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fmid = f(mid)
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_roots(f, lo, hi, samples=4001, tol=1e-13):
    grid = np.linspace(lo, hi, samples)
    values = []
    for e in grid:
        try:
            values.append(f(float(e)))
        except NegativeRadicand:
            values.append(math.nan)
    roots = []
    for i in range(samples - 1):
        a, b = values[i], values[i + 1]
        if math.isfinite(a) and math.isfinite(b) and a * b < 0.0:
            roots.append(bisect(f, float(grid[i]), float(grid[i + 1]), tol))
    return roots


def mie_expansion(v0, screening):
    """Second-order expansion of -v0 exp(-2 alpha r) / r^2: A/r^2 - B/r + C."""
    return MieParams(-v0, -2.0 * screening * v0, -2.0 * screening**2 * v0)


class TestIqyToMie:
    def test_worked_example(self):
        mie = mie_expansion(1.0, 0.05)
        assert mie.a == -1.0
        assert mie.b == pytest.approx(-0.1)
        assert mie.c == pytest.approx(-0.005)

    def test_zero_screening_limit(self):
        for alpha in (0.1, 0.01, 0.001):
            mie = mie_expansion(2.0, alpha)
            assert mie.a == -2.0
            assert abs(mie.b) <= 4.0 * alpha
            assert abs(mie.c) <= 4.0 * alpha**2

    def test_taylor_sign_pattern(self):
        # -v0 exp(-2 a r)/r^2 = A/r^2 - B/r + C + O(r) with the stated signs
        v0, alpha = 1.3, 0.04
        mie = mie_expansion(v0, alpha)
        for r in (1e-4, 3e-4, 1e-3):
            exact = -v0 * math.exp(-2.0 * alpha * r) / r**2
            expansion = mie.a / r**2 - mie.b / r + mie.c
            # cubic-order remainder
            assert abs(exact - expansion) <= 10.0 * v0 * alpha**3 * r * (1.0 / r**2) * r**2 + 1e-9

    def test_validation(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                MieParams(bad, 0.0, 0.0)
            with pytest.raises(ValueError):
                MieParams(0.0, 0.0, bad)


class TestCoulombEnergy:
    def test_worked_example(self):
        assert coulomb_energy(1.0, 1.0, 0, 1) == pytest.approx(-0.6, abs=1e-15)

    def test_even_in_coupling(self):
        assert coulomb_energy(1.0, -1.0, 0, 1) == coulomb_energy(1.0, 1.0, 0, 1)

    def test_zero_coupling(self):
        for n, kappa in [(0, 1), (2, 3), (1, -2)]:
            if n + kappa != 0:
                assert coulomb_energy(3.0, 0.0, n, kappa) == -3.0

    def test_monotone_approach_to_negative_mass(self):
        previous = None
        for n in range(1, 101):
            e = coulomb_energy(1.0, 1.0, n, 1)
            assert e > -1.0
            if previous is not None:
                assert e < previous
            previous = e
        assert previous == pytest.approx(-1.0, abs=1e-3)

    def test_degenerate_arguments(self):
        with pytest.raises(ValueError):
            coulomb_energy(1.0, 1.0, 1, -1)
        with pytest.raises(ValueError):
            coulomb_energy(1.0, 1.0, -1, 2)


class TestMieResidual:
    def test_zero_potential_roots_only_at_edges(self):
        mie = MieParams(0.0, 0.0, 0.0)
        f = lambda e: mie_energy_residual(1.0, 0.0, mie, 0, 1, e)
        assert f(0.0) == pytest.approx(1.0)
        assert f(0.5) == pytest.approx(math.sqrt(0.75))
        assert find_roots(f, -0.95, 0.95) == []

    @pytest.mark.parametrize("b_mag", [0.5, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("kappa", [1, 2, 3])
    def test_coulomb_consistency_chain(self, b_mag, n, kappa):
        # the screened-potential limit produces a negative 1/r weight; only
        # that sign admits roots of the printed condition
        mie = MieParams(0.0, -b_mag, 0.0)
        f = lambda e: mie_energy_residual(1.0, 0.0, mie, n, kappa, e)
        roots = find_roots(f, -0.999, -0.01)
        assert len(roots) == 1
        assert abs(roots[0] - coulomb_energy(1.0, b_mag, n, kappa)) <= 1e-9

    def test_positive_weight_has_no_root(self):
        mie = MieParams(0.0, 1.0, 0.0)
        f = lambda e: mie_energy_residual(1.0, 0.0, mie, 0, 1, e)
        assert find_roots(f, -0.999, 0.999) == []

    def test_converged_root_with_quadratic_terms(self):
        mie = MieParams(-0.05, -1.0, -0.01)
        f = lambda e: mie_energy_residual(1.0, 0.0, mie, 0, 1, e)
        roots = find_roots(f, -0.999, -0.01)
        assert roots
        assert abs(f(roots[0])) <= 1e-10

    def test_negative_radicand(self):
        mie = MieParams(0.0, -1.0, 0.0)
        with pytest.raises(NegativeRadicand):
            mie_energy_residual(1.0, 0.0, mie, 0, 1, 1.5)  # |E| > M
        steep = MieParams(5.0, -1.0, 0.0)
        with pytest.raises(NegativeRadicand):
            mie_energy_residual(1.0, 0.0, steep, 0, 1, -0.5)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_n(self, n):
        with pytest.raises(ValueError, match=f"n must be nonnegative, got {n}"):
            mie_energy_residual(1.0, 0.0, MieParams(0.0, -1.0, 0.0), n, 1, -0.5)


class TestLimitCoherence:
    SCREENINGS = (0.02, 0.01, 0.005)

    def test_captioned_constants_coherent_emptiness(self):
        # strict screened roots do not exist, and neither do roots of the
        # expanded-potential condition: the limits agree on absence
        for alpha in self.SCREENINGS:
            p = PhysicalParams(mass=5.0, v0=1.0, screening=alpha, c_spin=6.0, c_pspin=-5.5)
            assert solve_energies(p, 1, -1, PSPIN, mode="strict") == []
            mie = mie_expansion(p.v0, alpha)
            f = lambda e: mie_energy_residual(p.mass, p.c_pspin, mie, 1, -1, e)
            assert find_roots(f, -4.999, -0.501, samples=2001) == []

    def test_relaxed_branch_approaches_coulomb_limit(self):
        # with vanishing constant sum, the deep relaxed root and the closed
        # Coulomb value draw together as screening shrinks
        gaps = []
        for alpha in self.SCREENINGS:
            p = PhysicalParams(mass=1.0, v0=1.0, screening=alpha, c_spin=0.0, c_pspin=0.0)
            relaxed = solve_energies(p, 0, 1, PSPIN, mode="relaxed")
            assert relaxed
            mie = mie_expansion(p.v0, alpha)
            gaps.append(abs(relaxed[0].e - coulomb_energy(p.mass, mie.b, 0, 1)))
        assert gaps[0] > gaps[1] > gaps[2]
