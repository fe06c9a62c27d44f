import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqy_dirac.errors import DomainError, NegativeRadicand
from iqy_dirac.nu_engine import (
    NUCoefficients,
    derive_parameters,
    energy_residual,
    evaluate_nu_wavefunction,
    wavefunction_parameters,
)

from test_special_fn import jacobi_series

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def coulomb_like_coefficients(e, mass=1.0, b_coeff=-1.0, kappa=1):
    """Hydrogen-like reduction (no first-derivative term, untransformed
    coordinate): the pseudospin 1/r problem with constant-sum term zero."""
    gamma = e - mass
    beta_sq = (mass + e) * (mass - e)
    return NUCoefficients(
        a1=0.0, a2=0.0, a3=0.0,
        xi1=beta_sq, xi2=gamma * b_coeff, xi3=float(kappa * (kappa - 1)),
    )


class TestDeriveParameters:
    def test_worked_example(self):
        d = derive_parameters(NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5))
        assert d.a4 == 0.0
        assert d.a5 == -0.5
        assert d.a6 == 2.25
        assert d.a7 == -1.0
        assert d.a8 == 0.5
        assert d.a9 == 1.75

    def test_zero_xi(self):
        d = derive_parameters(NUCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
        assert d.a6 == d.a5**2 == 0.25
        assert d.a7 == 0.0
        assert d.a8 == 0.0
        assert d.a9 == 0.25

    @given(
        a1=finite, a2=finite, a3=st.floats(min_value=0.0, max_value=10.0),
        xi1=finite, xi2=finite, xi3=finite,
    )
    @settings(max_examples=1000, deadline=None)
    def test_a9_closure(self, a1, a2, a3, xi1, xi2, xi3):
        c = NUCoefficients(a1, a2, a3, xi1, xi2, xi3)
        d = derive_parameters(c)
        assert d.a9 == c.a3 * d.a7 + c.a3 * c.a3 * d.a8 + d.a6

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NUCoefficients(math.inf, 1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            NUCoefficients(1.0, 1.0, -1.0, 0.0, 0.0, 0.0)


class TestSelectK:
    """The square-root completion constant k = -(a7 + 2 a3 a8) -+ 2 sqrt(a8 a9)
    of the first and second branch, as ``energy_residual`` carries it:
    R(n) = a2 n + n(n-1) a3 - (2n +- 1) a5 + (2n+1)(sqrt(a9) +- a3 sqrt(a8)) - k."""

    def test_first_branch_against_factorization_oracle(self):
        # brute force: k must make (a6 - k*a3)s^2 + (a7 + k)s + a8 a perfect
        # square, i.e. zero the discriminant of that quadratic in s
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        k_roots = np.roots([1.0, 2.0 * (d.a7 + 2.0 * c.a3 * d.a8), d.a7**2 - 4.0 * d.a8 * d.a6])
        k_first = float(np.min(k_roots.real))
        assert k_first == pytest.approx(-1.8708286933869707, abs=1e-12)
        disc = (d.a7 + k_first) ** 2 - 4.0 * d.a8 * (d.a6 - k_first * c.a3)
        assert abs(disc) <= 1e-10
        completed = -d.a5 + math.sqrt(d.a9) + c.a3 * math.sqrt(d.a8) - k_first
        assert energy_residual(d, c, 0) == pytest.approx(completed, abs=1e-12)

    def test_zero_a8_collapses_branches(self):
        # both branches complete the square with k = -a7; the residuals then
        # differ only in the a5 term
        c = NUCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, -0.0)
        d = derive_parameters(c)
        assert d.a8 == 0.0 and d.a9 == 0.25
        for n in range(4):
            gap = energy_residual(d, c, n, "first") - energy_residual(d, c, n, "second")
            assert gap == pytest.approx(-2.0 * d.a5, abs=1e-12)

    def test_negative_discriminant(self):
        # a8*a9 < 0: no real completion on either branch
        c = NUCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        d = derive_parameters(c)
        d = d.__class__(**{**d.__dict__, "a8": 1.0, "a9": -1.0})
        for branch in ("first", "second"):
            with pytest.raises(NegativeRadicand):
                energy_residual(d, c, 0, branch)

    @given(
        a1=finite, a2=finite, a3=st.floats(min_value=0.0, max_value=10.0),
        xi1=finite, xi2=finite, xi3=nonneg,
    )
    @settings(max_examples=300, deadline=None)
    def test_branch_sum(self, a1, a2, a3, xi1, xi2, xi3):
        # k1 + k2 = -2(a7 + 2 a3 a8), seen through the n = 1 residuals
        c = NUCoefficients(a1, a2, a3, xi1, xi2, xi3)
        d = derive_parameters(c)
        if d.a9 < 0.0:
            return
        total = energy_residual(d, c, 1, "first") + energy_residual(d, c, 1, "second")
        k_sum = -2.0 * (d.a7 + 2.0 * c.a3 * d.a8)
        expected = 2.0 * c.a2 - 4.0 * d.a5 + 6.0 * math.sqrt(d.a9) - k_sum
        scale = 1.0 + abs(c.a2) + abs(d.a5) + abs(k_sum) + math.sqrt(d.a9)
        assert total == pytest.approx(expected, abs=1e-9 * scale)


class TestEnergyResidual:
    def test_zero_potential_has_no_root(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        d = derive_parameters(c)
        assert energy_residual(d, c, 0) == pytest.approx(1.0, abs=1e-14)

    def test_coulomb_anchor_root(self):
        # closed-form oracle: E = -mass*(4(n+kappa)^2 - B^2)/(4(n+kappa)^2 + B^2)
        e_expected = -1.0 * (4.0 - 1.0) / (4.0 + 1.0)
        c = coulomb_like_coefficients(e_expected)
        d = derive_parameters(c)
        assert abs(energy_residual(d, c, 0)) < 1e-9

    def test_coulomb_root_by_bisection(self):
        def residual_at(e):
            c = coulomb_like_coefficients(e)
            return energy_residual(derive_parameters(c), c, 0)

        lo, hi = -0.95, -0.1
        flo = residual_at(lo)
        assert flo * residual_at(hi) < 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = residual_at(mid)
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < 1e-14:
                break
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(-0.6, abs=1e-9)
        assert abs(residual_at(root)) <= 1e-10

    def test_second_branch_formula(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        n = 2
        expected = (
            c.a2 * n
            - (2 * n - 1) * d.a5
            + (2 * n + 1) * (math.sqrt(d.a9) - c.a3 * math.sqrt(d.a8))
            + n * (n - 1) * c.a3
            + d.a7
            + 2.0 * c.a3 * d.a8
            - 2.0 * math.sqrt(d.a8 * d.a9)
        )
        assert energy_residual(d, c, n, branch="second") == pytest.approx(expected, rel=1e-14)

    def test_negative_radicand(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        bad = d.__class__(**{**d.__dict__, "a8": -1.0})
        with pytest.raises(NegativeRadicand):
            energy_residual(bad, c, 0)
        with pytest.raises(ValueError):
            energy_residual(d, c, -1)

    def test_continuity_in_xi1(self):
        # dense sampling: no jumps between neighbors where a8, a9 > 0
        values = []
        for xi1 in np.linspace(0.5, 8.0, 4001):
            c = NUCoefficients(1.0, 1.0, 1.0, float(xi1), 1.0, 0.5)
            d = derive_parameters(c)
            assert d.a8 > 0.0 and d.a9 > 0.0
            values.append(energy_residual(d, c, 1))
        diffs = np.abs(np.diff(values))
        scale = np.max(np.abs(values))
        assert np.max(diffs) <= 1e-2 * scale


class TestWavefunctionParameters:
    def test_worked_example(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        d = derive_parameters(c)
        d = d.__class__(**{**d.__dict__, "a4": 0.0, "a5": -0.5, "a8": 0.25, "a9": 4.0})
        a10, a11, a12, a13 = wavefunction_parameters(d, c)
        assert a10 == 2.0
        assert a11 == 7.0
        assert a12 == 0.5
        assert a13 == -3.0

    def test_zero_a8(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 0.0)
        d = derive_parameters(c)
        assert d.a8 == 0.0 and d.a9 == 0.25
        a10, _, a12, _ = wavefunction_parameters(d, c)
        assert a10 == c.a1 + 2.0 * d.a4
        assert a12 == d.a4

    def test_exponent_identity_a3_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xi1, xi2 = rng.uniform(0.0, 5.0, 2)
            xi3 = rng.uniform(0.0, 5.0)
            c = NUCoefficients(1.0, 1.0, 1.0, xi1, xi2, xi3)
            d = derive_parameters(c)
            if d.a9 < 0.0:
                continue
            a10, a11, _, _ = wavefunction_parameters(d, c)
            lhs = a10 - 1.0
            rhs = 2.0 * d.a4 + 2.0 * math.sqrt(d.a8) + (c.a1 - 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert a11 - a10 - 1.0 == pytest.approx(2.0 * math.sqrt(d.a9), abs=1e-12)

    def test_starred_variants(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        a10, a11, a12, a13 = wavefunction_parameters(d, c, branch="second")
        s8, s9 = math.sqrt(d.a8), math.sqrt(d.a9)
        assert a10 == pytest.approx(c.a1 + 2.0 * d.a4 - 2.0 * s8)
        assert a11 == pytest.approx(c.a2 - 2.0 * d.a5 + 2.0 * (s9 - c.a3 * s8))
        assert a12 == pytest.approx(d.a4 - s8)
        assert a13 == pytest.approx(d.a5 - (s9 - c.a3 * s8))


class TestEvaluateWavefunction:
    def test_degree_zero_is_prefactor(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        _, _, a12, a13 = wavefunction_parameters(d, c)
        s = 0.37
        expected = s**a12 * (1.0 - s) ** (-a12 - a13)
        assert evaluate_nu_wavefunction(d, c, 0, s) == pytest.approx(expected, rel=1e-13)

    def test_degree_zero_laguerre_form(self):
        c = NUCoefficients(0.0, 0.0, 0.0, 0.64, 1.6, 0.0)
        d = derive_parameters(c)
        _, _, a12, a13 = wavefunction_parameters(d, c)
        s = 1.3
        expected = s**a12 * math.exp(a13 * s)
        assert evaluate_nu_wavefunction(d, c, 0, s) == pytest.approx(expected, rel=1e-13)

    def test_jacobi_factor_against_series_oracle(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        a10, a11, a12, a13 = wavefunction_parameters(d, c)
        s = 0.5
        for n in (1, 2, 3):
            poly, _ = jacobi_series(n, a10 - 1.0, a11 - a10 - 1.0, 1.0 - 2.0 * s)
            expected = s**a12 * (1.0 - s) ** (-a12 - a13) * poly
            assert evaluate_nu_wavefunction(d, c, n, s) == pytest.approx(expected, rel=1e-12)

    def test_laguerre_limit_strong_coupling(self):
        # the polynomial argument dominates its bounded offset only when the
        # quadratic coefficient diverges; along that family the two closed
        # forms converge pointwise
        for s in (0.3, 0.9):
            previous = None
            for a3 in (1e-3, 1e-4, 1e-5):
                c_full = NUCoefficients(1.0, 1.0, a3, 1.0 / a3, 1.0, 0.5)
                c_zero = NUCoefficients(1.0, 1.0, 0.0, 1.0 / a3, 1.0, 0.5)
                full = evaluate_nu_wavefunction(derive_parameters(c_full), c_full, 2, s)
                limit = evaluate_nu_wavefunction(derive_parameters(c_zero), c_zero, 2, s)
                gap = abs(full - limit) / abs(limit)
                if previous is not None:
                    assert gap < previous
                previous = gap
            assert previous < 0.05

    def test_domain_errors(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        for bad in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                evaluate_nu_wavefunction(d, c, 1, bad)
        c0 = NUCoefficients(0.0, 0.0, 0.0, 0.64, 1.6, 0.0)
        with pytest.raises(DomainError):
            evaluate_nu_wavefunction(derive_parameters(c0), c0, 1, -0.5)


class TestTauSlope:
    """The NU validity slope tau' = -2 a3 - 2 (sqrt(a9) + a3 sqrt(a8)) is
    -a11 of ``wavefunction_parameters``, because a2 - 2 a5 = 2 a3; it is
    negative where the construction holds."""

    def test_examples(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        d = derive_parameters(c)
        d_zero = d.__class__(**{**d.__dict__, "a8": 0.0, "a9": 0.0})
        assert -wavefunction_parameters(d_zero, c)[1] == -2.0
        d_ex = d.__class__(**{**d.__dict__, "a8": 0.25, "a9": 4.0})
        assert -wavefunction_parameters(d_ex, c)[1] == -7.0

    def test_negative_at_physical_coefficients(self):
        from iqy_dirac.dirac_iqy import PhysicalParams, pspin_nu_coefficients, solve_energies

        p = PhysicalParams(mass=5.0, v0=1.0, screening=0.05, c_spin=6.0, c_pspin=-5.5)
        roots = solve_energies(p, 1, -1, "pspin", mode="relaxed")
        assert roots
        for sol in roots:
            c = pspin_nu_coefficients(p, -1, sol.e)
            d = derive_parameters(c)
            slope = -2.0 * c.a3 - 2.0 * (math.sqrt(d.a9) + c.a3 * math.sqrt(d.a8))
            assert -wavefunction_parameters(d, c)[1] == pytest.approx(slope, rel=1e-14)
            assert slope < 0.0
