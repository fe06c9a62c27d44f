"""Published benchmark energies embedded for the reproduction report.

Values are kept as the exact printed strings so pattern checks can compare
them verbatim; ``float()`` them for numeric diagnostics. Each row pairs the
two doublet partners: kappa' = 1 - kappa for pseudospin, -1 - kappa for spin.
All energies are in fm^-1 and belong to the captioned parameter set below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

CAPTION_MASS = 5.0
CAPTION_V0 = 1.0
CAPTION_C_PSPIN = -5.5
CAPTION_C_SPIN = 6.0


@dataclass(frozen=True)
class DoubletRow:
    """One published doublet: energies keyed by tensor strength."""

    n: int
    kappa_aligned: int
    e_aligned: Dict[float, str]
    kappa_unaligned: int
    e_unaligned: Dict[float, str]


PSPIN_ROWS: Tuple[DoubletRow, ...] = (
    DoubletRow(1, -1, {5.0: "-0.495018", 0.0: "-0.491129"}, 2, {5.0: "-0.487533", 0.0: "-0.491129"}),
    DoubletRow(1, -2, {5.0: "-0.491129", 0.0: "-0.487533"}, 3, {5.0: "-0.484054", 0.0: "-0.487533"}),
    DoubletRow(1, -3, {5.0: "-0.487533", 0.0: "-0.484054"}, 4, {5.0: "-0.480635", 0.0: "-0.484054"}),
    DoubletRow(1, -4, {5.0: "-0.484054", 0.0: "-0.480635"}, 5, {5.0: "-0.477254", 0.0: "-0.480635"}),
    DoubletRow(2, -1, {5.0: "-0.491152", 0.0: "-0.487539"}, 2, {5.0: "-0.484057", 0.0: "-0.487539"}),
    DoubletRow(2, -2, {5.0: "-0.487539", 0.0: "-0.484057"}, 3, {5.0: "-0.480637", 0.0: "-0.484057"}),
    DoubletRow(2, -3, {5.0: "-0.484057", 0.0: "-0.480637"}, 4, {5.0: "-0.477255", 0.0: "-0.480637"}),
    DoubletRow(2, -4, {5.0: "-0.480637", 0.0: "-0.477255"}, 5, {5.0: "-0.473898", 0.0: "-0.477255"}),
)

SPIN_ROWS: Tuple[DoubletRow, ...] = (
    DoubletRow(0, -2, {5.0: "1.000000", 0.0: "0.994385"}, 1, {5.0: "0.990029", 0.0: "0.994385"}),
    DoubletRow(0, -3, {5.0: "0.994385", 0.0: "0.990029"}, 2, {5.0: "0.985992", 0.0: "0.990029"}),
    DoubletRow(0, -4, {5.0: "0.990029", 0.0: "0.985992"}, 3, {5.0: "0.982086", 0.0: "0.985992"}),
    DoubletRow(0, -5, {5.0: "0.985992", 0.0: "0.982086"}, 4, {5.0: "0.978249", 0.0: "0.982086"}),
    DoubletRow(1, -2, {5.0: "0.994367", 0.0: "0.990023"}, 1, {5.0: "0.985988", 0.0: "0.990023"}),
    DoubletRow(1, -3, {5.0: "0.990023", 0.0: "0.985988"}, 2, {5.0: "0.982084", 0.0: "0.985988"}),
    DoubletRow(1, -4, {5.0: "0.985988", 0.0: "0.982084"}, 3, {5.0: "0.978247", 0.0: "0.982084"}),
    DoubletRow(1, -5, {5.0: "0.982084", 0.0: "0.978247"}, 4, {5.0: "0.974455", 0.0: "0.978247"}),
)

ANCHOR_PSPIN = ("-0.491129", 1, -1)  # energy string, n, kappa at zero tensor strength
ANCHOR_SPIN = ("0.994385", 0, -2)
