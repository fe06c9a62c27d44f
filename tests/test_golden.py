"""CLI outputs pinned byte for byte.

The files under ``tests/data`` were written by the CLI before the root finder
was vectorized, the spin wavefunction and crosscheck files before spin and
pseudospin were merged into one symmetry record, the fractional-H spectrum
before the states of a table were bisected in one batch, the tensor
wavefunction CSV before a dump was built from one evaluation of the closed
form, its JSON twin before the sample table was formatted a block of rows at
a time. The residual cells of the three spectrum files were re-captured
when the residual's t = gamma*V0 + P^2 became the proof's sum without
cancellation, (lambda - 1/2)^2 + (n + 1/2)(P + q). The four wavefunction
files lost their ``back_substitution_residual`` meta field when a dump
stopped running the finite-difference self-check: the CSVs' third ``#`` line
is now ``# nodes=N``, and the JSON ``meta`` lost the key. The reproduction
report gained the five lines of its section on the tensor strength the
published H = 5 columns encode. Its two screening-fit lines were re-captured
when the report stopped solving the anchor entry at 25 screenings: the first
lost the scan's range "in [0.001, 0.5]", the second prints the bound of the
proof, 0.008871, in place of the scan's closest approach 0.008873. Every other
cell is as first written.
Any difference, including the noise-level residual column, is a regression,
not a reason to regenerate them.
"""

from pathlib import Path

import pytest

from iqy_dirac.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "spectrum_pspin.csv": [
        "spectrum", "--symmetry", "pspin", "--n-min", "1", "--n-max", "2",
        "--kappa", "-4,-3,-2,-1,2,3,4,5", "--tensor-h", "0", "--tensor-h", "5",
    ],
    "spectrum_spin.json": [
        "spectrum", "--symmetry", "spin", "--n-min", "0", "--n-max", "5",
        "--kappa", "-5,-4,-3,-2,-1,1,2,3,4,5",
        "--tensor-h", "0", "--tensor-h", "0.5", "--tensor-h", "5", "--format", "json",
    ],
    # H off the half-integers, where a residual coefficient's square rounds
    # differently as pow() and as x * x (kappa = 3 at H = 5.464)
    "spectrum_pspin_fractional_h.csv": [
        "spectrum", "--symmetry", "pspin", "--n-min", "0", "--n-max", "2",
        "--kappa", "-3,-2,-1,1,2,3", "--tensor-h", "0.3", "--tensor-h", "1.7",
        "--tensor-h", "2.259", "--tensor-h", "5.464",
    ],
    "reproduce_tables.txt": ["reproduce-tables"],
    "wavefunction_pspin.csv": [
        "wavefunction", "--symmetry", "pspin", "--n-min", "1", "--kappa", "-1",
    ],
    "wavefunction_spin.json": [
        "wavefunction", "--symmetry", "spin", "--n-min", "0", "--kappa", "-2", "--format", "json",
    ],
    # the tensor term (kappa + H)/r of the companion at H != 0
    "wavefunction_pspin_tensor.csv": [
        "wavefunction", "--symmetry", "pspin", "--n-min", "2", "--kappa", "-2", "--tensor-h", "5",
    ],
    "wavefunction_pspin_tensor.json": [
        "wavefunction", "--symmetry", "pspin", "--n-min", "2", "--kappa", "-2", "--tensor-h", "5",
        "--format", "json",
    ],
    # the Coulomb anchors plus one spin Numerov march
    "crosscheck_spin.txt": [
        "crosscheck", "--symmetry", "spin", "--n-min", "0", "--n-max", "0", "--kappa", "-2",
    ],
}


# a numpy warning on the way to a golden file is a failure, as in CI
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
