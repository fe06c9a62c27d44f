"""Cross-route identities between the engine, the physics layer, and the
closed-form wavefunctions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    _closed_form,
    _shape_exponents,
    beta_squared,
    effective_centrifugal,
    energy_residual_raw,
    energy_residual_rearranged,
    gamma_factor,
    greene_aldrich,
    nu_coefficients,
    pspin_nu_coefficients,
    scan_window,
)
from iqy_dirac.nu_engine import (
    NUCoefficients,
    derive_parameters,
    energy_residual,
    evaluate_nu_wavefunction,
    wavefunction_parameters,
)
from test_dirac_iqy import caption_params


class TestResidualRoutes:
    """The engine quantization residual on the mapped coefficients equals the
    physics-layer residual identically, not merely at shared roots."""

    @pytest.mark.parametrize("kappa,h", [(-1, 0.0), (2, 0.0), (-3, 5.0)])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_pspin_engine_equals_raw(self, kappa, h, n):
        p = caption_params(tensor_h=h)
        lo, hi = scan_window(p, n, kappa, PSPIN)
        for e in np.linspace(lo, hi, 37):
            c = pspin_nu_coefficients(p, kappa, float(e))
            via_engine = energy_residual(derive_parameters(c), c, n)
            via_physics = energy_residual_raw(p, n, kappa, float(e), PSPIN)
            assert via_engine == pytest.approx(via_physics, rel=1e-10, abs=1e-8)

    @pytest.mark.parametrize("kappa", [-2, 1])
    def test_spin_engine_equals_raw(self, kappa):
        p = caption_params()
        lo, hi = scan_window(p, 0, kappa, SPIN)
        for e in np.linspace(lo, hi, 37):
            c = nu_coefficients(p, kappa, float(e), SPIN)
            via_engine = energy_residual(derive_parameters(c), c, 0)
            via_physics = energy_residual_raw(p, 0, kappa, float(e), SPIN)
            assert via_engine == pytest.approx(via_physics, rel=1e-10, abs=1e-8)

    def test_rearranged_factors_raw(self):
        # rearranged = (2 alpha^2 / P) * raw * (W + W_target): the squared
        # form vanishes exactly where the raw form does, plus the mirrored
        # (spurious) branch
        p = caption_params()
        n, kappa = 1, -1
        lo, hi = scan_window(p, n, kappa, PSPIN)
        lam = effective_centrifugal(kappa, p.tensor_h, PSPIN)
        for e in np.linspace(lo, hi, 101):
            raw = energy_residual_raw(p, n, kappa, float(e), PSPIN)
            rearranged, _ = energy_residual_rearranged(p, n, kappa, float(e), PSPIN)
            gamma = gamma_factor(p, float(e), PSPIN)
            q = math.sqrt((lam - 0.5) ** 2 - gamma * p.v0)
            big_p = n + 0.5 + q
            w = math.sqrt(beta_squared(p, float(e), PSPIN)) / (2.0 * p.screening)
            w_target = -(gamma * p.v0 + big_p**2) / (2.0 * big_p)
            expected = (2.0 * p.screening**2 / big_p) * raw * (w + w_target)
            scale = max(abs(rearranged), abs(expected), 1.0)
            assert abs(rearranged - expected) <= 1e-9 * scale


class TestComponentRoutes:
    """The closed form the dominant Dirac component is assembled from is
    proportional to the engine composite evaluated on the mapped coefficients
    at s = exp(-2*alpha*r)."""

    def test_pspin_lower_matches_engine_composite(self):
        p = caption_params()
        e, n, kappa = -3.1, 1, -1
        r = np.linspace(0.5, 40.0, 101)
        g, _, _ = _closed_form(p.screening, *_shape_exponents(p, e, kappa, PSPIN), n, r)
        c = pspin_nu_coefficients(p, kappa, e)
        d = derive_parameters(c)
        composite = np.array(
            [
                evaluate_nu_wavefunction(d, c, n, float(s))
                for s in np.exp(-2.0 * p.screening * r)
            ]
        )
        anchor = int(np.argmax(np.abs(composite)))
        ratio = g[anchor] / composite[anchor]
        assert np.allclose(g, ratio * composite, rtol=1e-10, atol=1e-12 * np.max(np.abs(g)))

    def test_spin_upper_matches_engine_composite(self):
        p = caption_params()
        e, n, kappa = 2.2, 1, -2
        r = np.linspace(0.5, 40.0, 101)
        f, _, _ = _closed_form(p.screening, *_shape_exponents(p, e, kappa, SPIN), n, r)
        c = nu_coefficients(p, kappa, e, SPIN)
        d = derive_parameters(c)
        composite = np.array(
            [
                evaluate_nu_wavefunction(d, c, n, float(s))
                for s in np.exp(-2.0 * p.screening * r)
            ]
        )
        anchor = int(np.argmax(np.abs(composite)))
        ratio = f[anchor] / composite[anchor]
        assert np.allclose(f, ratio * composite, rtol=1e-10, atol=1e-12 * np.max(np.abs(f)))

    def test_pspin_jacobi_parameters_match_component_exponents(self):
        # engine route: a10 - 1 = beta/alpha, (a11 - a10 - 1)/a3 = 2q
        p = caption_params()
        for e in (-1.0, -2.5, -4.5):
            c = pspin_nu_coefficients(p, -1, e)
            d = derive_parameters(c)
            a10, a11, a12, a13 = wavefunction_parameters(d, c)
            beta = math.sqrt(beta_squared(p, e, PSPIN))
            lam = effective_centrifugal(-1, 0.0, PSPIN)
            q = math.sqrt((lam - 0.5) ** 2 - gamma_factor(p, e, PSPIN) * p.v0)
            assert a10 - 1.0 == pytest.approx(beta / p.screening, rel=1e-10)
            assert a11 - a10 - 1.0 == pytest.approx(2.0 * q, rel=1e-10)
            assert a12 == pytest.approx(beta / (2.0 * p.screening), rel=1e-10)
            assert -a12 - a13 == pytest.approx(0.5 + q, rel=1e-10)

    def test_second_branch_composite(self):
        c = NUCoefficients(1.0, 1.0, 1.0, 2.0, 1.0, 0.5)
        d = derive_parameters(c)
        a10, a11, a12, a13 = wavefunction_parameters(d, c, branch="second")
        s = 0.4
        from iqy_dirac.special_fn import jacobi

        expected = (
            s**a12
            * (1.0 - s) ** (-a12 - a13)
            * jacobi(2, a10 - 1.0, a11 - a10 - 1.0, 1.0 - 2.0 * s)
        )
        got = evaluate_nu_wavefunction(d, c, 2, s, branch="second")
        assert got == pytest.approx(expected, rel=1e-12)


class TestApproximationBound:
    @given(
        r=st.floats(min_value=1e-3, max_value=50.0),
        alpha=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_approximation_never_exceeds_exact(self, r, alpha):
        approx, exact, rel = greene_aldrich(r, alpha)
        assert approx <= exact * (1.0 + 1e-12)
        assert 0.0 <= rel <= 1.0
