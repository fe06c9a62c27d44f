"""Low-screening limits of the potential: Mie-type and Coulomb-like anchors.

For small screening the potential expands as A/r^2 - B/r + C with
A = -v0, B = -2*alpha*v0, C = -2*alpha^2*v0. The corresponding pseudospin
quantization condition is implemented verbatim as a residual (square root on
the left, fraction on the right); the consistency chain against the closed
Coulomb formula surfaces any transcription drift instead of correcting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NegativeRadicand


@dataclass(frozen=True)
class MieParams:
    """Weights of the 1/r^2, 1/r and constant terms."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise ValueError(f"Mie parameters must be finite: {self}")


def mie_energy_residual(
    mass: float, c_pspin: float, mie: MieParams, n: int, kappa: int, e: float
) -> float:
    """Residual of the pseudospin Mie-type quantization condition."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    shift = e - mass - c_pspin
    left_sq = shift * mie.c + (mass + e) * (mass - e + c_pspin)
    if left_sq < 0.0:
        raise NegativeRadicand(f"left radicand = {left_sq} at e = {e}")
    inner = (kappa - 0.5) ** 2 + shift * mie.a
    if inner < 0.0:
        raise NegativeRadicand(f"inner radicand = {inner} at e = {e}")
    denom = 1.0 + 2.0 * n + 2.0 * math.sqrt(inner)
    return math.sqrt(left_sq) - shift * mie.b / denom


def coulomb_energy(mass: float, b_coeff: float, n: int, kappa: int) -> float:
    """Closed-form Coulomb-like energy; depends on the coupling only through
    its square."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n + kappa == 0:
        raise ValueError("n + kappa must be nonzero")
    four_nk_sq = 4.0 * (n + kappa) ** 2
    return -mass * (four_nk_sq - b_coeff**2) / (four_nk_sq + b_coeff**2)
