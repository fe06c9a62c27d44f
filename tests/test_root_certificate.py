"""Exact signs of the squared quantization condition at a double.

With nh = n + 1/2, fa = 4 alpha^2, c = (lambda - 1/2)^2 + nh^2, q^2 = rad,
P = nh + q and t = c + 2 nh q, the squared residual beta^2 - fa (t / 2P)^2
times 4P^2 > 0 is X + Y q, where

    X = 4 beta^2 (nh^2 + rad) - fa (c^2 + 4 nh^2 rad),
    Y = 8 nh (beta^2 - fa c / 2).

X, Y and rad are rationals of the energy and the six float coefficients of
``dirac_iqy._coefficients``, so ``fractions`` decides the sign of X + Y sqrt(rad)
exactly: from the signs of X and Y, and where they differ by comparing X^2
with Y^2 rad. A root is certified by opposite signs at two doubles around it.
Everything here is pure Python on top of the correctly rounded spectrum path.
"""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iqy_dirac import cli
from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    PhysicalParams,
    _coefficients,
    energy_residual_rearranged,
    scan_window,
    select_branch_root,
    solve_energies,
    symmetry_record,
)
from test_golden import GOLDEN


def _sign(x):
    return (x > 0) - (x < 0)


def exact_sign(coeff, e):
    """Exact sign of the squared condition with coefficients
    ``(sM, C, V0, (lambda - 1/2)^2, n + 1/2, 4 alpha^2)`` at the double ``e``;
    None past the inner-root cap, where rad < 0."""
    sm, charge, v0, lq, nh, fa = map(Fraction, coeff)
    e = Fraction(e)
    gamma = e + sm - charge
    bsq = (sm - e) * gamma
    rad = lq - gamma * v0
    if rad < 0:
        return None
    c = lq + nh * nh
    x = 4 * bsq * (nh * nh + rad) - fa * (c * c + 4 * nh * nh * rad)
    y = 8 * nh * (bsq - fa * c / 2)
    sx, sy = _sign(x), _sign(y)
    if rad == 0 or sy == 0:
        return sx
    if sx == 0 or sx == sy:
        return sy
    # opposite signs: |X| against |Y| sqrt(rad), compared squared
    return sx * _sign(x * x - y * y * rad)


def golden_solves(name, monkeypatch, tmp_path):
    """(states, symmetry, root lists) of every ``solve_batch`` call that the
    CLI makes to write a golden file."""
    calls = []
    solve_batch = cli.solve_batch

    def recording(states, symmetry, *args, **kwargs):
        solved = solve_batch(states, symmetry, *args, **kwargs)
        calls.append((states, symmetry, solved))
        return solved

    monkeypatch.setattr(cli, "solve_batch", recording)
    assert cli.main(GOLDEN[name] + ["--out", str(tmp_path / name)]) == 0
    return calls


SPECTRUM_GOLDENS = sorted(name for name in GOLDEN if name.startswith("spectrum"))


class TestExactSign:
    @pytest.mark.parametrize("n, kappa, symmetry", [(1, -1, PSPIN), (2, 3, PSPIN), (0, -2, SPIN)])
    def test_matches_the_float_residual_away_from_its_roots(self, n, kappa, symmetry):
        p = PhysicalParams(mass=5.0, v0=1.0, screening=0.05, c_spin=6.0, c_pspin=-5.5)
        coeff = _coefficients(p, n, kappa, symmetry_record(symmetry))
        lo, hi = scan_window(p, n, kappa, symmetry)
        compared = 0
        for k in range(201):
            e = lo + (hi - lo) * k / 200
            residual, _ = energy_residual_rearranged(p, n, kappa, e, symmetry)
            if abs(residual) > 1e-9:
                assert exact_sign(coeff, e) == _sign(residual), e
                compared += 1
        assert compared > 150

    def test_none_past_the_inner_root_cap(self):
        p = PhysicalParams(mass=1.0, v0=1.0, screening=0.5, c_spin=0.0)
        coeff = _coefficients(p, 0, -2, symmetry_record(SPIN))
        cap = coeff[1] - coeff[0] + coeff[3] / coeff[2]
        assert exact_sign(coeff, cap + 1e-6) is None
        assert exact_sign(coeff, cap - 1e-6) is not None


class TestGoldenRootsCertified:
    @pytest.mark.parametrize("name", SPECTRUM_GOLDENS)
    def test_every_relaxed_root_has_a_sign_change(self, name, monkeypatch, tmp_path):
        # every root the CLI solved, not only the one each row prints
        certified = 0
        for states, symmetry, solved in golden_solves(name, monkeypatch, tmp_path):
            sym = symmetry_record(symmetry)
            for (params, n, kappa), sols in zip(states, solved):
                coeff = _coefficients(params, n, kappa, sym)
                for sol in sols:
                    below, above = exact_sign(coeff, sol.e - 1e-12), exact_sign(coeff, sol.e + 1e-12)
                    assert below is not None and above is not None
                    assert below * above < 0, (symmetry, n, kappa, params.tensor_h, sol.e)
                    certified += 1
        assert certified > 0


def anchor_quadratic(p, n, kappa, symmetry):
    """(vertex C/2, discriminant) of E^2 - C E + sM (C - sM) + alpha^2 (2n + 1)^2,
    exact in the solver's float coefficients. It is the relaxed condition of
    a state with |lambda - 1/2| = n + 1/2: there t / 2P = n + 1/2 for every q,
    so the condition is beta^2 = alpha^2 (2n + 1)^2. Its roots are
    vertex +- sqrt(disc)."""
    sm, charge, _, _, nh, fa = map(Fraction, _coefficients(p, n, kappa, symmetry_record(symmetry)))
    return charge / 2, (charge / 2 - sm) ** 2 - fa * nh * nh


def anchor_roots(p, n, kappa, symmetry, bounds):
    """The quadratic's roots that the solver returns: those inside the scan
    window ``bounds`` (past the inner-root cap lies outside the solver's
    domain), and for pseudospin only E < 0."""
    vertex, disc = anchor_quadratic(p, n, kappa, symmetry)
    if disc < 0:
        return []
    root = Fraction(math.sqrt(disc))
    lo, hi = bounds
    roots = sorted({float(vertex - root), float(vertex + root)})
    return [e for e in roots if lo < e < hi and (symmetry == SPIN or e < 0.0)]


ANCHOR_STATE = dict(
    mass=st.floats(min_value=0.3, max_value=100.0),
    v0=st.floats(min_value=1e-3, max_value=100.0),
    screening=st.floats(min_value=0.01, max_value=1.0),
    c_ratio=st.floats(min_value=-1.9, max_value=1.9),
    tensor_h=st.sampled_from([0.0, 1.0, 2.0, 5.0]),
    n=st.integers(min_value=0, max_value=5),
    upper=st.booleans(),
    symmetry=st.sampled_from([PSPIN, SPIN]),
)


class TestAnchorFamily:
    @given(**ANCHOR_STATE)
    @settings(max_examples=300, deadline=None)
    def test_solver_finds_the_quadratic_roots(
        self, mass, v0, screening, c_ratio, tensor_h, n, upper, symmetry
    ):
        # lambda - 1/2 = +-(n + 1/2), so lambda = n + 1 or -n
        lam = n + 1 if upper else -n
        kappa = int(lam - tensor_h - symmetry_record(symmetry).shift)
        assume(kappa != 0)
        charge = c_ratio * mass
        # C within (-2M, 2M) of the right sign keeps the strict window open
        p = PhysicalParams(
            mass=mass, v0=v0, screening=screening, tensor_h=tensor_h,
            **({"c_pspin": charge} if symmetry == PSPIN else {"c_spin": -charge}),
        )
        bounds = scan_window(p, n, kappa, symmetry)
        assume(bounds is not None)
        lo, hi = bounds
        found = [sol.e for sol in solve_energies(p, n, kappa, symmetry, mode="relaxed")]
        vertex, disc = anchor_quadratic(p, n, kappa, symmetry)
        cell = (hi - lo) / 2000.0
        if disc < cell * cell:
            # the residual is positive between the two roots, so a pair inside
            # one scan cell, a double root, or a tangency that rounding makes a
            # touch shows no sign change on the grid: the 2000-cell scan's
            # known limit, not this family's. Whatever it returns lies at the
            # vertex.
            assert all(abs(e - vertex) <= 2.0 * cell for e in found)
            return
        expected = anchor_roots(p, n, kappa, symmetry, bounds)
        assert len(found) == len(expected)
        c = getattr(p, symmetry_record(symmetry).charge)
        for got, want in zip(found, expected):
            # beta^2 in floats carries a few ulps of (M + |C|)^2, which moves
            # a root by that over the quadratic's slope |2E - C| there
            assert abs(got - want) <= 1e-12 + 2e-15 * (mass + abs(c)) ** 2 / abs(2.0 * want - c)

    def test_caption_states_belong_to_the_family(self):
        # pspin (1, -1) and (2, -2) at H 0 and spin (1, -2): beta^2 = alpha^2 (2n + 1)^2
        p = PhysicalParams(mass=5.0, v0=1.0, screening=0.05, c_spin=6.0, c_pspin=-5.5)
        for n, kappa, symmetry in ((1, -1, PSPIN), (2, -2, PSPIN), (1, -2, SPIN)):
            found = [sol.e for sol in solve_energies(p, n, kappa, symmetry, mode="relaxed")]
            expected = anchor_roots(p, n, kappa, symmetry, scan_window(p, n, kappa, symmetry))
            assert expected and found == pytest.approx(expected, abs=1e-12)


class TestDefectTwo:
    """The row once listed as an open defect: its residual cell is large
    because the root lies between two adjacent doubles, not because the
    printed energy is no root."""

    P = PhysicalParams(
        mass=475331604.6317678, v0=7.512088796728115e23, screening=1.5584049792948822,
        c_spin=414797259.09713894, c_pspin=315190603.42978406,
    )

    def test_root_lies_between_adjacent_doubles(self):
        sol = select_branch_root(solve_energies(self.P, 0, 2, PSPIN, mode="relaxed"), PSPIN)
        assert sol.e == -475331604.63176775
        below = math.nextafter(sol.e, -math.inf)
        assert below == -self.P.mass
        coeff = _coefficients(self.P, 0, 2, symmetry_record(PSPIN))
        assert exact_sign(coeff, below) == -1
        assert exact_sign(coeff, sol.e) == 1
        # the cell is the squared form at the printed double, about
        # |f'(E)| ulp(E); nothing smaller exists at a double
        assert sol.residual == pytest.approx(73.0221408, rel=1e-9)

    def test_spectrum_prints_the_row(self, tmp_path):
        out = tmp_path / "row.csv"
        argv = [
            "spectrum", "--symmetry", "pspin", "--mass", repr(self.P.mass), "--v0", repr(self.P.v0),
            "--screening", repr(self.P.screening), "--cs", repr(self.P.c_spin),
            "--cps", repr(self.P.c_pspin), "--n-min", "0", "--n-max", "0", "--kappa", "2",
            "--tensor-h", "0", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        row = out.read_text().splitlines()[1]
        assert re.fullmatch(r"pspin,0,-1,2,-1d3/2,0,-475331605,73\.0221408,[^,]+,false", row)


class TestOpenSolverDefects:
    """Two defects of the 2000-cell scan, pinned until a change mends them."""

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND: solve_batch misses a pair of roots that share one scan cell",
    )
    def test_pair_of_roots_inside_one_scan_cell(self):
        # an anchor-family state (lambda - 1/2 = n + 1/2) whose two roots lie
        # 6.3e-6 apart in scan cells of 1e-4
        p = PhysicalParams(mass=1.0, v0=1.0, screening=0.1, tensor_h=1.0, c_spin=1.79999999)
        window = (0.8, 0.99993)
        expected = anchor_roots(p, 0, -1, SPIN, scan_window(p, 0, -1, SPIN, window))
        assert expected == pytest.approx([0.89996837, 0.90003162], abs=1e-8)
        found = [sol.e for sol in solve_energies(p, 0, -1, SPIN, window, mode="relaxed")]
        assert found == pytest.approx(expected, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND: solve_batch returns a non-root where the float residual rounds to an exact 0",
    )
    def test_rounded_zero_is_no_root(self):
        # the anchor quadratic's roots are +-3.9e-7, where beta^2 - alpha^2 is
        # flat and below beta^2's rounding
        p = PhysicalParams(
            mass=1.0, v0=1.0, screening=1.0, tensor_h=1.0, c_pspin=1.5572439458589328e-13
        )
        coeff = _coefficients(p, 0, -1, symmetry_record(PSPIN))
        tol = 1e-12
        found = solve_energies(p, 0, -1, PSPIN, tol=tol, mode="relaxed")
        assert found
        for sol in found:
            assert exact_sign(coeff, sol.e - tol) * exact_sign(coeff, sol.e + tol) < 0, sol.e
