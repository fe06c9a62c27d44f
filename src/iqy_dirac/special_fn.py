"""Jacobi and generalized Laguerre polynomials by forward three-term recurrence.

Evaluations are certified for degrees up to ``DEGREE_CAP``; parameters may be
non-integer and large (first parameter of order 100 occurs for weakly screened
wavefunctions). Arguments outside [-1, 1] are allowed: the wavefunction
assembly evaluates Jacobi polynomials on the mapped exponential variable.
"""

from __future__ import annotations

from .errors import DegreeCapExceeded

DEGREE_CAP = 64


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {n} above cap {DEGREE_CAP}")


def jacobi(n: int, a: float, b: float, x: float) -> float:
    """Value of the Jacobi polynomial P_n^(a,b) at x."""
    _check_degree(n)
    if n == 0:
        return 1.0
    p_prev = 1.0
    p_curr = (a - b) / 2.0 + (a + b + 2.0) * x / 2.0
    for m in range(2, n + 1):
        s = 2.0 * m + a + b
        c_lead = 2.0 * m * (m + a + b) * (s - 2.0)
        c_mid = (s - 1.0) * (s * (s - 2.0) * x + a * a - b * b)
        c_trail = 2.0 * (m + a - 1.0) * (m + b - 1.0) * s
        p_curr, p_prev = (c_mid * p_curr - c_trail * p_prev) / c_lead, p_curr
    return p_curr


def jacobi_derivative(n: int, a: float, b: float, x: float) -> float:
    """First derivative of P_n^(a,b) at x.

    Uses d/dx P_n^(a,b) = (n+a+b+1)/2 * P_{n-1}^(a+1,b+1).
    """
    _check_degree(n)
    if n == 0:
        return 0.0
    return 0.5 * (n + a + b + 1.0) * jacobi(n - 1, a + 1.0, b + 1.0, x)


def laguerre(n: int, a: float, x: float) -> float:
    """Value of the generalized Laguerre polynomial L_n^(a) at x."""
    _check_degree(n)
    if n == 0:
        return 1.0
    p_prev = 1.0
    p_curr = 1.0 + a - x
    for m in range(2, n + 1):
        p_curr, p_prev = (
            ((2.0 * m - 1.0 + a - x) * p_curr - (m - 1.0 + a) * p_prev) / m,
            p_curr,
        )
    return p_curr
