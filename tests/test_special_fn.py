import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from iqy_dirac.errors import DegreeCapExceeded
from iqy_dirac.special_fn import DEGREE_CAP, jacobi, jacobi_derivative, laguerre


def _rising(z, m):
    out = 1.0
    for k in range(m):
        out *= z + k
    return out


def jacobi_series(n, a, b, x):
    """Explicit series over binomial coefficients; independent of the
    recurrence. Returns (value, sum of term magnitudes) so comparisons can be
    normalized by the conditioning scale. The rising product avoids gamma
    poles when a + b is a negative integer."""
    total = 0.0
    magnitude = 0.0
    for m in range(n + 1):
        ln = math.lgamma(a + n + 1) - math.lgamma(n - m + 1) - math.lgamma(a + m + 1)
        term = (
            math.exp(ln)
            * _rising(a + b + n + 1, m)
            / math.factorial(m)
            * ((x - 1.0) / 2.0) ** m
        )
        total += term
        magnitude += abs(term)
    return total, magnitude


def laguerre_series(n, a, x):
    total = 0.0
    magnitude = 0.0
    for k in range(n + 1):
        ln = math.lgamma(n + a + 1) - math.lgamma(n - k + 1) - math.lgamma(a + k + 1)
        term = (-1.0) ** k * math.exp(ln) * x**k / math.factorial(k)
        total += term
        magnitude += abs(term)
    return total, magnitude


class TestJacobi:
    def test_degree_zero_is_one(self):
        for a, b, x in [(0.3, -0.2, 0.5), (6.2, 1.3, -3.0), (120.0, 0.0, 0.99)]:
            assert jacobi(0, a, b, x) == 1.0

    def test_degree_one_closed_form(self):
        for a, b, x in [(0.5, 1.5, 0.2), (-0.5, 6.2, -0.7), (50.0, 0.0, 1.4)]:
            expected = (a - b) / 2.0 + (a + b + 2.0) * x / 2.0
            assert jacobi(1, a, b, x) == pytest.approx(expected, rel=1e-14)

    def test_series_oracle_single_point(self):
        value = jacobi(3, 2.0, 3.0, 0.5)
        expected, _ = jacobi_series(3, 2.0, 3.0, 0.5)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.3, 6.2])
    @pytest.mark.parametrize("b", [-0.5, 0.0, 1.3, 6.2])
    def test_recurrence_vs_series_grid(self, a, b):
        for n in range(11):
            for x in np.linspace(-1.0, 1.0, 21):
                value = jacobi(n, a, b, float(x))
                expected, magnitude = jacobi_series(n, a, b, float(x))
                assert abs(value - expected) <= 1e-10 * max(magnitude, 1.0)

    @pytest.mark.parametrize("a", [10.0, 50.0, 120.0])
    def test_large_first_parameter(self, a):
        for n in range(11):
            for x in np.linspace(-1.0, 1.0, 21):
                value = jacobi(n, a, 0.7, float(x))
                expected, magnitude = jacobi_series(n, a, 0.7, float(x))
                assert abs(value - expected) <= 1e-10 * magnitude

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.3, 6.2), (6.2, 0.0)])
    def test_orthogonality_by_quadrature(self, a, b):
        nodes, weights = roots_jacobi(256, a, b)
        values = np.array([[jacobi(n, a, b, x) for x in nodes] for n in range(6)])
        for m in range(6):
            norm_m = float(np.sum(weights * values[m] ** 2))
            for n in range(m + 1, 6):
                overlap = float(np.sum(weights * values[m] * values[n]))
                norm_n = float(np.sum(weights * values[n] ** 2))
                assert abs(overlap) <= 1e-8 * math.sqrt(norm_m * norm_n)

    def test_reflection_symmetry(self):
        for n in range(8):
            for a, b in [(0.0, 1.3), (6.2, -0.5), (2.0, 2.0)]:
                for x in np.linspace(-1.0, 1.0, 9):
                    left = jacobi(n, a, b, float(-x))
                    right = (-1.0) ** n * jacobi(n, b, a, float(x))
                    scale = max(abs(left), abs(right), 1.0)
                    assert abs(left - right) <= 1e-12 * scale

    @given(
        n=st.integers(min_value=0, max_value=10),
        a=st.floats(min_value=-0.9, max_value=8.0),
        b=st.floats(min_value=-0.9, max_value=8.0),
        x=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_reflection_symmetry_property(self, n, a, b, x):
        left = jacobi(n, a, b, -x)
        right = (-1.0) ** n * jacobi(n, b, a, x)
        scale = max(abs(left), abs(right), 1.0)
        assert abs(left - right) <= 1e-11 * scale

    def test_degree_cap(self):
        assert math.isfinite(jacobi(DEGREE_CAP, 0.5, 0.5, 0.3))
        with pytest.raises(DegreeCapExceeded):
            jacobi(DEGREE_CAP + 1, 0.5, 0.5, 0.3)
        with pytest.raises(ValueError):
            jacobi(-1, 0.5, 0.5, 0.3)


class TestJacobiDerivative:
    def test_degree_zero(self):
        assert jacobi_derivative(0, 1.2, 3.4, 0.5) == 0.0

    def test_degree_one_is_constant(self):
        for x in (-0.9, 0.0, 2.5):
            assert jacobi_derivative(1, 1.2, 3.4, x) == pytest.approx((1.2 + 3.4 + 2.0) / 2.0)

    def test_against_central_difference(self):
        n, a, b, x = 4, 1.5, 0.7, 0.3
        h = 1e-6
        fd = (jacobi(n, a, b, x + h) - jacobi(n, a, b, x - h)) / (2.0 * h)
        assert abs(jacobi_derivative(n, a, b, x) - fd) <= 1e-6

    def test_cap(self):
        with pytest.raises(DegreeCapExceeded):
            jacobi_derivative(DEGREE_CAP + 1, 0.0, 0.0, 0.0)


class TestLaguerre:
    def test_degree_zero_and_one(self):
        assert laguerre(0, 3.7, 2.0) == 1.0
        for a, x in [(0.0, 0.4), (2.5, 1.7), (50.0, 3.0)]:
            assert laguerre(1, a, x) == pytest.approx(1.0 + a - x, rel=1e-14)

    def test_series_oracle_single_point(self):
        value = laguerre(5, 2.0, 1.7)
        expected, _ = laguerre_series(5, 2.0, 1.7)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.3, 6.2, 10.0, 50.0, 120.0])
    def test_recurrence_vs_series(self, a):
        for n in range(11):
            for x in np.linspace(0.0, 8.0, 17):
                value = laguerre(n, a, float(x))
                expected, magnitude = laguerre_series(n, a, float(x))
                assert abs(value - expected) <= 1e-10 * max(magnitude, 1.0)

    def test_cap(self):
        with pytest.raises(DegreeCapExceeded):
            laguerre(DEGREE_CAP + 1, 0.0, 1.0)

