"""Potential-agnostic solver core for hypergeometric-type radial equations.

A second-order equation

    psi'' + (a1 - a2*s)/(s*(1 - a3*s)) * psi'
          + (-xi1*s^2 + xi2*s - xi3)/(s*(1 - a3*s))^2 * psi = 0

is characterised by six coefficients. From these the engine derives the
auxiliary parameters, the square-root completion constant ``k`` (two real
branches), the polynomial quantization residual, and the closed-form
solution s^a12 * (1 - a3*s)^(-a12 - a13/a3) * P_n(1 - 2*a3*s), which
degenerates to s^a12 * exp(a13*s) * L_n(a11*s) when a3 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Optional, Tuple

from .errors import DomainError, NegativeDiscriminant, NegativeRadicand
from .special_fn import jacobi, laguerre

Branch = Literal["first", "second"]

# Square-root arguments in this band are treated as exact zeros; they occur
# from cancellation at physical thresholds.
RADICAND_TOLERANCE = 1.0e-12


def _safe_sqrt(value: float, what: str) -> float:
    if value < -RADICAND_TOLERANCE:
        raise NegativeRadicand(f"{what} = {value} is negative")
    return math.sqrt(max(value, 0.0))


@dataclass(frozen=True)
class NUCoefficients:
    """The six inputs defining one reduced radial equation."""

    a1: float
    a2: float
    a3: float
    xi1: float
    xi2: float
    xi3: float

    def __post_init__(self) -> None:
        fields = (self.a1, self.a2, self.a3, self.xi1, self.xi2, self.xi3)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError(f"coefficients must be finite, got {fields}")
        if self.a3 < 0.0:
            raise ValueError(f"a3 must be zero or positive, got {self.a3}")


@dataclass(frozen=True)
class NUDerived:
    """Auxiliary parameters derived from a coefficient set.

    ``k`` and ``branch`` are populated by :func:`select_k`; the wavefunction
    exponents a10..a13 are returned by :func:`wavefunction_parameters`.
    """

    a4: float
    a5: float
    a6: float
    a7: float
    a8: float
    a9: float
    k: Optional[float] = None
    branch: Optional[Branch] = None


def derive_parameters(c: NUCoefficients) -> NUDerived:
    """Populate a4..a9 from the six coefficients; ``k`` stays unset."""
    a4 = 0.5 * (1.0 - c.a1)
    a5 = 0.5 * (c.a2 - 2.0 * c.a3)
    a6 = a5 * a5 + c.xi1
    a7 = 2.0 * a4 * a5 - c.xi2
    a8 = a4 * a4 + c.xi3
    a9 = c.a3 * a7 + c.a3 * c.a3 * a8 + a6
    return NUDerived(a4=a4, a5=a5, a6=a6, a7=a7, a8=a8, a9=a9)


def select_k(d: NUDerived, c: NUCoefficients, branch: Branch = "first") -> NUDerived:
    """Fix the square-root completion constant on the requested branch."""
    product = d.a8 * d.a9
    if product < -RADICAND_TOLERANCE:
        raise NegativeDiscriminant(f"a8*a9 = {product} is negative")
    root = math.sqrt(max(product, 0.0))
    base = -(d.a7 + 2.0 * c.a3 * d.a8)
    k = base - 2.0 * root if branch == "first" else base + 2.0 * root
    return replace(d, k=k, branch=branch)


def energy_residual(d: NUDerived, c: NUCoefficients, n: int, branch: Branch = "first") -> float:
    """Quantization residual at polynomial degree n; zero at an eigenvalue."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    sqrt_a8 = _safe_sqrt(d.a8, "a8")
    sqrt_a9 = _safe_sqrt(d.a9, "a9")
    cross = _safe_sqrt(d.a8 * d.a9, "a8*a9")
    common = c.a2 * n + n * (n - 1.0) * c.a3 + d.a7 + 2.0 * c.a3 * d.a8
    if branch == "first":
        return (
            common
            - (2.0 * n + 1.0) * d.a5
            + (2.0 * n + 1.0) * (sqrt_a9 + c.a3 * sqrt_a8)
            + 2.0 * cross
        )
    return (
        common
        - (2.0 * n - 1.0) * d.a5
        + (2.0 * n + 1.0) * (sqrt_a9 - c.a3 * sqrt_a8)
        - 2.0 * cross
    )


def wavefunction_parameters(
    d: NUDerived, c: NUCoefficients, branch: Optional[Branch] = None
) -> Tuple[float, float, float, float]:
    """Exponents and Jacobi/Laguerre parameters (a10, a11, a12, a13)."""
    use = branch if branch is not None else (d.branch or "first")
    sqrt_a8 = _safe_sqrt(d.a8, "a8")
    sqrt_a9 = _safe_sqrt(d.a9, "a9")
    if use == "first":
        a10 = c.a1 + 2.0 * d.a4 + 2.0 * sqrt_a8
        a11 = c.a2 - 2.0 * d.a5 + 2.0 * (sqrt_a9 + c.a3 * sqrt_a8)
        a12 = d.a4 + sqrt_a8
        a13 = d.a5 - (sqrt_a9 + c.a3 * sqrt_a8)
    else:
        a10 = c.a1 + 2.0 * d.a4 - 2.0 * sqrt_a8
        a11 = c.a2 - 2.0 * d.a5 + 2.0 * (sqrt_a9 - c.a3 * sqrt_a8)
        a12 = d.a4 - sqrt_a8
        a13 = d.a5 - (sqrt_a9 - c.a3 * sqrt_a8)
    return a10, a11, a12, a13


def evaluate_nu_wavefunction(
    d: NUDerived, c: NUCoefficients, n: int, s: float, branch: Optional[Branch] = None
) -> float:
    """Unnormalized closed-form solution at the working variable s.

    The weight and prefactor functions are folded into the returned product;
    no caller needs them separately.
    """
    a10, a11, a12, a13 = wavefunction_parameters(d, c, branch)
    if c.a3 > 0.0:
        if not 0.0 < s < 1.0 / c.a3:
            raise DomainError(f"s = {s} outside (0, {1.0 / c.a3})")
        one_minus = 1.0 - c.a3 * s
        exponent = -a12 - a13 / c.a3
        poly = jacobi(n, a10 - 1.0, (a11 - a10 - 1.0) / c.a3, 1.0 - 2.0 * c.a3 * s)
        return s**a12 * one_minus**exponent * poly
    if s <= 0.0:
        raise DomainError(f"s = {s} must be positive when a3 = 0")
    return s**a12 * math.exp(a13 * s) * laguerre(n, a10 - 1.0, a11 * s)


def tau_slope(d: NUDerived, c: NUCoefficients) -> float:
    """Slope of the transformed first-degree coefficient; negative when the
    construction is in its validity region. Callers flag violations instead
    of rejecting, since roots can sit marginally outside."""
    sqrt_a8 = _safe_sqrt(d.a8, "a8")
    sqrt_a9 = _safe_sqrt(d.a9, "a9")
    return -2.0 * c.a3 - 2.0 * (sqrt_a9 + c.a3 * sqrt_a8)
