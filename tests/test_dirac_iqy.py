import csv
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iqy_dirac import cli, dirac_iqy
from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    WINDOW_MARGIN,
    PhysicalParams,
    _rearranged_vec,
    beta_squared,
    effective_centrifugal,
    energy_residual_raw,
    energy_residual_rearranged,
    gamma_factor,
    greene_aldrich,
    nu_coefficients,
    partner_kappa,
    pspin_nu_coefficients,
    scan_window,
    select_branch_root,
    solve_batch,
    solve_energies,
    spectroscopic_label,
    strict_window,
    symmetry_record,
)
from iqy_dirac.errors import EmptyWindow, NegativeRadicand, NonpositiveR, ZeroKappa
from iqy_dirac.nu_engine import derive_parameters
from test_golden import GOLDEN


def caption_params(**overrides):
    base = dict(mass=5.0, v0=1.0, screening=0.05, tensor_h=0.0, c_spin=6.0, c_pspin=-5.5)
    base.update(overrides)
    return PhysicalParams(**base)


def loop_roots(p, n, kappa, symmetry, tol=1e-12):
    """Reference root finder: the same scan, then each sign-change cell
    bisected on its own with the scalar residual. Exact zeros on grid points
    are roots too, as in ``solve_energies``."""
    bounds = scan_window(p, n, kappa, symmetry)
    if bounds is None:
        return []
    lo, hi = bounds
    step = (hi - lo) / 2000.0
    grid = np.linspace(lo, hi, math.ceil((hi - lo) / step) + 1)
    res, _, _ = _rearranged_vec(p, n, kappa, symmetry, grid)
    roots = [float(e) for e in grid[res == 0.0]]
    for i in range(len(grid) - 1):
        if not res[i] * res[i + 1] < 0.0:
            continue
        a, b, fa = float(grid[i]), float(grid[i + 1]), res[i]
        while b - a > tol:
            mid = 0.5 * (a + b)
            fmid, _ = energy_residual_rearranged(p, n, kappa, mid, symmetry)
            if fmid == 0.0:
                a = b = mid
            elif fa * fmid < 0.0:
                b = mid
            else:
                a, fa = mid, fmid
        roots.append(0.5 * (a + b))
    return [e for e in sorted(roots) if not (symmetry == PSPIN and e >= 0.0)]


PARAMS = dict(
    mass=st.floats(min_value=0.5, max_value=10.0),
    v0=st.floats(min_value=0.0, max_value=10.0),
    screening=st.floats(min_value=1e-3, max_value=1.0),
    tensor_h=st.floats(min_value=0.0, max_value=6.0),
    cs_ratio=st.floats(min_value=-1.0, max_value=1.9),
    cps_ratio=st.floats(min_value=-1.9, max_value=1.0),
    n=st.integers(min_value=0, max_value=5),
    kappa=st.integers(min_value=-6, max_value=6).filter(bool),
    symmetry=st.sampled_from([PSPIN, SPIN]),
)


def drawn_params(mass, v0, screening, tensor_h, cs_ratio, cps_ratio):
    # c_spin < 2 mass and c_pspin > -2 mass keep both strict windows nonempty
    return PhysicalParams(
        mass=mass, v0=v0, screening=screening, tensor_h=tensor_h,
        c_spin=cs_ratio * mass, c_pspin=cps_ratio * mass,
    )


# spectroscopic letters by l, j skipped
LETTERS = "spdfghiklmnoqrtuvwxyz"


def reference_label(n, kappa, symmetry):
    """(n_spect, label) as ``quantum_number_map`` and ``attach_radial_number``
    built them before ``spectroscopic_label``: the kappa record's label, then
    a copy with the radial number attached."""
    if kappa == 0:
        raise ZeroKappa("kappa = 0 does not label a Dirac partial wave")
    l = -kappa - 1 if kappa < 0 else kappa
    letter = LETTERS[l] if l < len(LETTERS) else f"[l={l}]"
    record_label = f"{letter}{2 * abs(kappa) - 1}/2"
    n_spect = n - 1 if (symmetry_record(symmetry).sign < 0.0 and kappa > 0) else n
    return n_spect, f"{n_spect}{record_label}"


def label_parts(label):
    """(n_spect, l, 2j) read back from a label such as "-1d3/2" or "0[l=21]41/2"."""
    match = re.fullmatch(r"(-?\d+)(?:([a-z])|\[l=(\d+)\])(\d+)/2", label)
    n_spect, letter, l_text, two_j = match.groups()
    l = LETTERS.index(letter) if letter else int(l_text)
    return int(n_spect), l, int(two_j)


NONZERO_KAPPAS = [k for k in range(-25, 26) if k != 0]


class TestQuantumNumbers:
    def test_aligned_kappa(self):
        assert spectroscopic_label(0, -1, SPIN) == (0, "0s1/2")

    def test_unaligned_kappa(self):
        assert spectroscopic_label(0, 2, SPIN) == (0, "0d3/2")

    @pytest.mark.parametrize("kappa", NONZERO_KAPPAS)
    def test_identities(self, kappa):
        # the letter's index l and the fraction 2j/2 read from the label, past
        # the 21 letters too
        for symmetry in (PSPIN, SPIN):
            n_spect, label = spectroscopic_label(1, kappa, symmetry)
            parsed_n, l, two_j = label_parts(label)
            assert parsed_n == n_spect
            assert kappa * (kappa + 1) == l * (l + 1)
            assert two_j == 2 * abs(kappa) - 1

    @pytest.mark.parametrize("symmetry", [PSPIN, SPIN])
    def test_matches_the_record_pair(self, symmetry):
        # kappa up to +-25 reaches past the 21 letters, into "[l=...]"
        for n in range(4):
            for kappa in NONZERO_KAPPAS:
                assert spectroscopic_label(n, kappa, symmetry) == reference_label(n, kappa, symmetry)
        assert spectroscopic_label(0, 21, SPIN) == (0, "0[l=21]41/2")
        assert spectroscopic_label(0, -22, SPIN) == (0, "0[l=21]43/2")
        assert spectroscopic_label(0, -21, SPIN) == (0, "0z41/2")

    def test_zero_kappa(self):
        for symmetry in (PSPIN, SPIN):
            with pytest.raises(ZeroKappa):
                spectroscopic_label(1, 0, symmetry)

    def test_radial_relabeling(self):
        assert spectroscopic_label(1, 2, PSPIN) == (0, "0d3/2")
        assert spectroscopic_label(1, -1, PSPIN) == (1, "1s1/2")
        assert spectroscopic_label(1, 2, SPIN) == (1, "1d3/2")
        assert spectroscopic_label(0, 1, PSPIN) == (-1, "-1p1/2")


class TestEffectiveCentrifugal:
    def test_pspin_zero_tensor(self):
        lam = effective_centrifugal(-1, 0.0, PSPIN)
        assert lam == -1.0
        assert lam * (lam - 1.0) == 2.0

    @pytest.mark.parametrize("kappa", [k for k in range(-10, 11) if k != 0])
    @pytest.mark.parametrize("h", [0.0, 0.5, 5.0])
    def test_shift_identity(self, kappa, h):
        lam = effective_centrifugal(kappa, h, PSPIN)
        assert kappa * (kappa - 1) + 2 * kappa * h - h + h * h == pytest.approx(
            lam * (lam - 1.0), abs=1e-9
        )
        eta = effective_centrifugal(kappa, h, SPIN)
        assert kappa * (kappa + 1) + 2 * kappa * h + h + h * h == pytest.approx(
            eta * (eta - 1.0), abs=1e-9
        )

    def test_worked_examples(self):
        assert effective_centrifugal(-1, 5.0, PSPIN) == 4.0
        assert (-1) * (-2) + 2 * (-1) * 5.0 - 5.0 + 25.0 == 4.0 * 3.0
        assert effective_centrifugal(-2, 5.0, SPIN) == 4.0
        assert (-2) * (-1) + 2 * (-2) * 5.0 + 5.0 + 25.0 == 4.0 * 3.0


class TestCoefficientMaps:
    def test_pspin_worked_example(self):
        p = caption_params()
        e = -1.0
        assert gamma_factor(p, e, PSPIN) == pytest.approx(-0.5, abs=1e-14)
        assert beta_squared(p, e, PSPIN) == pytest.approx(2.0, abs=1e-13)
        c = pspin_nu_coefficients(p, -1, e)
        assert (c.a1, c.a2, c.a3) == (1.0, 1.0, 1.0)
        assert c.xi3 == pytest.approx(200.0, rel=1e-12)
        assert c.xi1 == pytest.approx(200.5, rel=1e-12)
        assert c.xi2 == pytest.approx(398.0, rel=1e-12)

    def test_pspin_threshold(self):
        p = caption_params()
        e = p.mass + p.c_pspin
        c = pspin_nu_coefficients(p, -1, e)
        assert c.xi1 == pytest.approx(0.0, abs=1e-12)
        assert c.xi3 == pytest.approx(0.0, abs=1e-12)
        lam = effective_centrifugal(-1, 0.0, PSPIN)
        assert c.xi2 == pytest.approx(-lam * (lam - 1.0), abs=1e-12)

    def test_pspin_partner_coefficients_identical(self):
        p = caption_params()
        for e in (-1.0, -3.2, -4.7):
            a = pspin_nu_coefficients(p, -1, e)
            b = pspin_nu_coefficients(p, 2, e)
            assert a == b

    def test_spin_worked_example(self):
        p = caption_params()
        assert gamma_factor(p, 2.0, SPIN) == pytest.approx(1.0)
        assert beta_squared(p, 2.0, SPIN) == pytest.approx(3.0)

    def test_spin_partner_coefficients_identical(self):
        p = caption_params()
        for e in (1.5, 2.5, 3.1):
            assert nu_coefficients(p, -2, e, SPIN) == nu_coefficients(p, 1, e, SPIN)

    def test_spin_threshold(self):
        p = caption_params()
        e = -p.mass + p.c_spin
        assert beta_squared(p, e, SPIN) == pytest.approx(0.0, abs=1e-12)

    def test_derived_match_direct_formulas(self):
        # mapping fidelity: the engine-derived parameters equal the direct
        # expressions in the physical quantities
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = PhysicalParams(
                mass=rng.uniform(0.5, 8.0),
                v0=rng.uniform(0.0, 3.0),
                screening=rng.uniform(0.01, 0.4),
                tensor_h=rng.choice([0.0, 0.5, 5.0]),
                c_spin=rng.uniform(-8.0, 8.0),
                c_pspin=rng.uniform(-8.0, 8.0),
            )
            kappa = int(rng.integers(1, 5)) * int(rng.choice([-1, 1]))
            e = rng.uniform(-p.mass + 1e-3, p.mass - 1e-3)
            lam = effective_centrifugal(kappa, p.tensor_h, PSPIN)
            gamma = gamma_factor(p, e, PSPIN)
            bsq = beta_squared(p, e, PSPIN)
            w = bsq / (4.0 * p.screening**2)
            d = derive_parameters(pspin_nu_coefficients(p, kappa, e))
            # tolerance is relative to the operands entering each expression,
            # since the differences are pure float reassociation
            for got, want, scale in (
                (d.a4, 0.0, 1.0),
                (d.a5, -0.5, 1.0),
                (d.a6, 0.25 + w - gamma * p.v0, w + abs(gamma * p.v0)),
                (d.a7, lam * (lam - 1.0) - 2.0 * w, w + lam * lam),
                (d.a8, w, w),
                (d.a9, (lam - 0.5) ** 2 - gamma * p.v0, w + lam * lam),
            ):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want), scale)


class TestResiduals:
    def test_raw_positive_on_strict_window(self):
        # the printed condition has no principal-branch roots: its residual
        # stays strictly positive across the full strict domain
        p = caption_params()
        lo, hi = strict_window(p, PSPIN)
        for e in np.linspace(lo + 1e-6, hi - 1e-6, 400):
            assert energy_residual_raw(p, 1, -1, float(e), PSPIN) > 0.0

    def test_rearranged_matches_raw_when_signs_align(self):
        # with the sign flag the squared residual factors the raw one; at a
        # rearranged root the raw condition holds iff the flag is set
        p = caption_params()
        sols = solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        assert sols
        for sol in sols:
            res, sign_ok = energy_residual_rearranged(p, 1, -1, sol.e, PSPIN)
            assert abs(res) < 1e-9
            assert not sign_ok
            assert energy_residual_raw(p, 1, -1, sol.e, PSPIN) > 0.1

    def test_negative_radicand_outside_domain(self):
        p = caption_params()
        with pytest.raises(NegativeRadicand):
            energy_residual_raw(p, 0, -1, -0.2, PSPIN)  # beta_sq < 0 there
        with pytest.raises(NegativeRadicand):
            # spin inner radicand fails above the cap energy
            energy_residual_rearranged(p, 0, -2, 4.9, SPIN)

    @pytest.mark.parametrize("residual", [energy_residual_raw, energy_residual_rearranged])
    def test_negative_n_rejected(self, residual):
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            residual(caption_params(), -1, -1, -3.0, PSPIN)

    def test_pspin_partner_residual_identity_h0(self):
        p = caption_params()
        lo, hi = strict_window(p, PSPIN)
        for e in np.linspace(lo + 1e-6, hi - 1e-6, 64):
            assert energy_residual_raw(p, 1, -1, float(e), PSPIN) == energy_residual_raw(
                p, 1, 2, float(e), PSPIN
            )

    @pytest.mark.parametrize("h", [0.0, 5.0])
    @pytest.mark.parametrize("kappa", [-3, -1, 2, 4])
    def test_degeneracy_identity_machine_precision(self, h, kappa):
        p = caption_params(tensor_h=h)
        partner = partner_kappa(kappa, h, PSPIN)
        lo, hi = strict_window(p, PSPIN)
        e = np.linspace(lo + 1e-6, hi - 1e-6, 10_000)
        res_a, sign_a, _ = _rearranged_vec(p, 1, kappa, PSPIN, e)
        res_b, sign_b, _ = _rearranged_vec(p, 1, partner, PSPIN, e)
        assert np.array_equal(res_a, res_b)
        assert np.array_equal(sign_a, sign_b)

    @pytest.mark.parametrize("h", [0.0, 5.0])
    @pytest.mark.parametrize("kappa", [-2, 1])
    def test_spin_degeneracy_identity(self, h, kappa):
        p = caption_params(tensor_h=h)
        partner = partner_kappa(kappa, h, SPIN)
        window = scan_window(p, 0, kappa, SPIN)
        window_b = scan_window(p, 0, partner, SPIN)
        assert window == window_b
        e = np.linspace(window[0], window[1], 10_000)
        res_a, _, _ = _rearranged_vec(p, 0, kappa, SPIN, e)
        res_b, _, _ = _rearranged_vec(p, 0, partner, SPIN, e)
        assert np.array_equal(res_a, res_b)


class TestSolveEnergies:
    def test_strict_mode_empty_at_caption_parameters(self, monkeypatch):
        # the strict set is empty by proof, so strict mode never evaluates
        # the residual; it still rejects a window outside the strict domain
        def refuse(*args):
            raise AssertionError("strict mode evaluated the residual")

        monkeypatch.setattr(dirac_iqy, "_rearranged_vec", refuse)
        monkeypatch.setattr(dirac_iqy, "_residual_columns", refuse)
        p = caption_params()
        assert solve_energies(p, 1, -1, PSPIN, mode="strict") == []
        assert solve_energies(p, 0, -2, SPIN, mode="strict") == []
        with pytest.raises(EmptyWindow):
            solve_energies(p, 0, -2, SPIN, window=(4.0, 5.5), mode="strict")
        with pytest.raises(EmptyWindow):
            solve_energies(p, 1, -1, PSPIN, window=(-20.0, -10.0), mode="strict")

    def test_strict_set_empty_where_the_naive_sign_rounds(self):
        # the naive sum gamma*V0 + P^2 cancels to 0 at this state's relaxed
        # root, where its terms are near 9.5e32; the proof, not that sum,
        # leaves the strict set empty
        p = PhysicalParams(
            mass=475331604.6317678, v0=7.512088796728115e23, screening=1.5584049792948822,
            c_spin=414797259.09713894, c_pspin=315190603.42978406,
        )
        assert solve_energies(p, 0, 2, PSPIN, mode="strict") == []

    @given(**PARAMS)
    @settings(max_examples=200, deadline=None)
    def test_strict_mode_empty_everywhere(self, n, kappa, symmetry, **physical):
        # t = gamma*V0 + P^2 = (lambda - 1/2)^2 + (n + 1/2)^2 + 2(n + 1/2)q > 0
        # for every q >= 0, so no root of the squared condition has a valid sign
        p = drawn_params(**physical)
        assert solve_energies(p, n, kappa, symmetry, mode="strict") == []
        for sol in solve_energies(p, n, kappa, symmetry, mode="relaxed"):
            assert energy_residual_raw(p, n, kappa, sol.e, symmetry) > 0.0

    @given(**PARAMS)
    @settings(max_examples=100, deadline=None)
    # an empty scan window (scan_window returns None)
    @example(n=0, kappa=-1, symmetry=SPIN, mass=1.0, v0=1.0, screening=1.0,
             tensor_h=0.5, cs_ratio=0.0, cps_ratio=0.0)
    # the residual -(E - 1/2)^2 touches zero exactly on a grid point
    @example(n=0, kappa=-1, symmetry=SPIN, mass=1.0, v0=0.0, screening=1.0,
             tensor_h=0.5, cs_ratio=1.0, cps_ratio=0.0)
    def test_batched_bisection_matches_cell_loop(self, n, kappa, symmetry, **physical):
        # the array residual squares by x * x, the scalar one by pow(), so a
        # midpoint's sign may differ; the roots still agree within tol
        p = drawn_params(**physical)
        got = [sol.e for sol in solve_energies(p, n, kappa, symmetry, mode="relaxed")]
        want = loop_roots(p, n, kappa, symmetry)
        assert len(got) == len(want)
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))

    def test_relaxed_roots_are_flagged_spurious(self):
        p = caption_params()
        sols = solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        assert len(sols) >= 2
        # the printed condition, principal roots, is positive at each
        assert all(energy_residual_raw(p, 1, -1, s.e, PSPIN) > 0.0 for s in sols)
        assert all(s.beta_sq > 0.0 for s in sols)
        assert all(s.e < 0.0 for s in sols)
        assert sols == sorted(sols, key=lambda s: s.e)

    def test_partner_roots_match_at_h0(self):
        p = caption_params()
        a = solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        b = solve_energies(p, 1, 2, PSPIN, mode="relaxed")
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert abs(sa.e - sb.e) <= 1e-9

    def test_partner_roots_split_at_h5(self):
        p = caption_params(tensor_h=5.0)
        a = select_branch_root(solve_energies(p, 1, -1, PSPIN, mode="relaxed"), PSPIN)
        b = select_branch_root(solve_energies(p, 1, 2, PSPIN, mode="relaxed"), PSPIN)
        assert abs(a.e - b.e) > 10.0 * 1e-12

    def test_explicit_window_outside_domain(self):
        p = caption_params()
        with pytest.raises(EmptyWindow):
            solve_energies(p, 1, -1, PSPIN, window=(0.5, 2.0))

    def test_window_clipping(self):
        p = caption_params()
        full = solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        clipped = solve_energies(p, 1, -1, PSPIN, window=(-5.2, -2.0), mode="relaxed")
        assert len(clipped) == 1
        assert abs(clipped[0].e - full[0].e) <= 1e-9

    def test_residual_below_tolerance(self):
        p = caption_params()
        sols = solve_energies(p, 1, -1, PSPIN, mode="relaxed", tol=1e-12)
        assert sols
        for sol in sols:
            assert abs(sol.residual) <= 5e-12

    def test_spin_sign_never_ok(self):
        # the spin coupling is positive across its strict window, so the
        # principal-branch sign condition fails everywhere
        p = caption_params()
        lo, hi = scan_window(p, 0, -2, SPIN)
        for e in np.linspace(lo, hi, 200):
            _, sign_ok = energy_residual_rearranged(p, 0, -2, float(e), SPIN)
            assert not sign_ok

    def test_solution_metadata(self):
        p = caption_params(tensor_h=5.0)
        sols = solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        for sol in sols:
            # the caller holds the state; a solution holds only the root
            assert [f.name for f in fields(sol)] == ["e", "residual", "beta_sq"]
            assert sol.beta_sq == pytest.approx(beta_squared(p, sol.e, PSPIN), rel=1e-12)

    @given(**PARAMS)
    @settings(max_examples=200, deadline=None)
    def test_inner_root_cap_never_binds_for_pspin(self, n, kappa, symmetry, **physical):
        # the cap C - s*M + (lambda - 1/2)^2 / V0 starts at the pseudospin
        # upper threshold C + M, so the scan window is the strict one
        p = drawn_params(**physical)
        lo, hi = strict_window(p, PSPIN)
        assert scan_window(p, n, kappa, PSPIN) == (lo + WINDOW_MARGIN, hi - WINDOW_MARGIN)

    def test_strict_window_empty_raises(self):
        with pytest.raises(EmptyWindow):
            strict_window(PhysicalParams(mass=1.0, v0=1.0, screening=0.1, c_pspin=-3.0), PSPIN)


def reference_solve(p, n, kappa, symmetry, window=None, tol=1e-12):
    """solve_energies(mode="relaxed") as written before states were batched:
    one state's brackets bisected together, the residual written out with
    the state's coefficients as Python floats. A strict threshold closes the
    grid at an end that the margin alone keeps off it."""

    def residual(e):
        gamma = gamma_factor(p, e, symmetry)
        bsq = beta_squared(p, e, symmetry)
        lam = effective_centrifugal(kappa, p.tensor_h, symmetry)
        rad = (lam - 0.5) ** 2 - gamma * p.v0
        q = np.sqrt(np.where(rad >= -1.0e-12, np.maximum(rad, 0.0), np.nan))
        big_p = n + 0.5 + q
        # gamma*V0 + P^2 by the proof's identity
        t = (lam - 0.5) ** 2 + (n + 0.5) * (big_p + q)
        return bsq - 4.0 * p.screening**2 * (t / (2.0 * big_p)) ** 2, bsq

    bounds = scan_window(p, n, kappa, symmetry, window)
    if bounds is None:
        return []
    lo, hi = bounds
    step = (hi - lo) / 2000.0
    e_grid = np.linspace(lo, hi, math.ceil((hi - lo) / step) + 1)
    t_lo, t_hi = strict_window(p, symmetry)
    if t_lo < lo == t_lo + WINDOW_MARGIN:
        e_grid = np.concatenate(([t_lo], e_grid))
    if hi == t_hi - WINDOW_MARGIN < t_hi:
        e_grid = np.concatenate((e_grid, [t_hi]))
    res, _ = residual(e_grid)
    cells = np.flatnonzero(res[:-1] * res[1:] < 0.0)
    a, b, fa = e_grid[cells], e_grid[cells + 1], res[cells]
    for _ in range(200):
        live = b - a > tol
        if not live.any():
            break
        mid = 0.5 * (a + b)
        fmid, _ = residual(mid)
        left = fa * fmid < 0.0
        b = np.where(live & (left | (fmid == 0.0)), mid, b)
        a = np.where(live & ~left, mid, a)
    solutions = []
    for root in np.sort(np.concatenate((e_grid[res == 0.0], 0.5 * (a + b)))):
        if symmetry == PSPIN and root >= 0.0:
            continue
        value, bsq = residual(float(root))
        solutions.append(dirac_iqy.EnergySolution(e=float(root), residual=float(value), beta_sq=bsq))
    return solutions


# States of one batch share mass and charges, as the rows of a spectrum table
# do, and differ in the rest. H = 0.5 with kappa = -1 gives a spin state an
# empty scan window whenever V0 > 0.
BATCH_STATE = st.tuples(
    st.floats(min_value=0.0, max_value=10.0),  # v0
    st.floats(min_value=1e-3, max_value=1.0),  # screening
    st.one_of(st.floats(min_value=0.0, max_value=6.0), st.sampled_from([0.3, 0.5, 1.7, 5.464])),
    st.integers(min_value=0, max_value=5),  # n
    st.integers(min_value=-6, max_value=6).filter(bool),  # kappa
)
# A batch of drawn rows, or of copies of some of them in a drawn order: more
# rows than distinct ones, so at least two states share a solve.
BATCH_ROWS = st.one_of(
    st.lists(BATCH_STATE, min_size=1, max_size=6),
    st.lists(BATCH_STATE, min_size=1, max_size=3).flatmap(
        lambda rows: st.lists(st.sampled_from(rows), min_size=len(rows) + 1, max_size=2 * len(rows) + 2)
    ),
)
# Windows as fractions of the strict domain; "sliver" overlaps it by less
# than the margins, so no state has a scan window.
BATCH_WINDOW = st.one_of(
    st.none(),
    st.just("sliver"),
    st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)).filter(lambda w: w[0] < w[1]),
)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (EmptyWindow, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBatchedSolve:
    """solve_batch bisects the brackets of many states in one loop; each
    state's solutions must be, bit for bit, those it gets alone."""

    @staticmethod
    def _batch(mass, cs_ratio, cps_ratio, symmetry, rows, window):
        states = [
            (PhysicalParams(mass=mass, v0=v0, screening=alpha, tensor_h=h,
                            c_spin=cs_ratio * mass, c_pspin=cps_ratio * mass), n, kappa)
            for v0, alpha, h, n, kappa in rows
        ]
        if window is not None:
            lo, hi = strict_window(states[0][0], symmetry)
            if window == "sliver":
                window = (lo - 1.0, lo + 1e-9)
            else:
                window = (lo + window[0] * (hi - lo), lo + window[1] * (hi - lo))
        return states, window

    @given(
        mass=st.floats(min_value=0.5, max_value=10.0),
        cs_ratio=st.floats(min_value=-1.0, max_value=1.9),
        cps_ratio=st.floats(min_value=-1.9, max_value=1.0),
        symmetry=st.sampled_from([PSPIN, SPIN]),
        rows=BATCH_ROWS,
        window=BATCH_WINDOW,
        tol=st.sampled_from([1e-12, 1e-6]),
    )
    @settings(max_examples=150, deadline=None)
    @example(mass=1.0, cs_ratio=0.0, cps_ratio=0.0, symmetry=SPIN,
             rows=[(1.0, 0.05, 0.5, 0, -1), (1.0, 0.05, 0.3, 1, -2)], window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 0.05, 5.464, 1, 3), (1.0, 0.05, 0.0, 1, -1)], window="sliver", tol=1e-6)
    # states that share a solve: exact twins, doublet partners at H = 0
    # (pspin, spin), a kappa shifted by 2H (lambda = 3 for both), and
    # tensor_h 0.0 against -0.0
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 0.05, 0.0, 1, -1)] * 3, window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 0.05, 0.0, 1, -1), (1.0, 0.05, 0.0, 1, 2)], window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=SPIN,
             rows=[(1.0, 0.05, 0.0, 0, -2), (1.0, 0.05, 0.0, 0, 1)], window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 0.05, 5.0, 1, -2), (1.0, 0.05, 0.0, 1, 3)], window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 0.05, 0.0, 1, -1), (1.0, 0.05, -0.0, 1, -1)], window=(0.0, 0.9), tol=1e-12)
    # roots about alpha^2 from a threshold, inside the margin: each is
    # bracketed by the threshold and the scan window's end
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 1e-5, 0.0, 1, -1), (1.0, 1e-5, 0.0, 0, 2)], window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=SPIN,
             rows=[(1.0, 1e-5, 0.0, 0, -2), (1.0, 1e-5, 0.0, 1, 1)], window=None, tol=1e-12)
    # both fractions round to the domain's lower end: a window with lo >= hi
    @example(mass=1.0, cs_ratio=0.0, cps_ratio=0.0, symmetry=PSPIN,
             rows=[(0.0, 1.0, 0.0, 0, 1)], window=(-3.6398099693107306e-67, 0.0), tol=1e-12)
    def test_batch_matches_each_state_alone(
        self, mass, cs_ratio, cps_ratio, symmetry, rows, window, tol
    ):
        states, window = self._batch(mass, cs_ratio, cps_ratio, symmetry, rows, window)

        def alone():
            return [solve_energies(p, n, k, symmetry, window, tol, "relaxed") for p, n, k in states]

        got = _outcome(solve_batch, states, symmetry, window, tol, "relaxed")
        assert got == _outcome(alone)
        if not got.startswith(("EmptyWindow", "ValueError")):
            want = [reference_solve(p, n, k, symmetry, window, tol) for p, n, k in states]
            assert got == repr(want)

    def test_table_solves_each_distinct_condition_once(self, monkeypatch, tmp_path):
        # the published pspin table: 32 rows, 18 distinct (n, (lambda - 1/2)^2)
        # conditions, as doublet partners at H = 0 and kappa shifted by 2H coincide
        grids = []
        residual_columns = dirac_iqy._residual_columns

        # a scan grid is 2001 or 2002 points, plus a threshold at either end
        def counted(e, *coeff):
            if 2001 <= np.size(e) <= 2004:
                grids.append(np.size(e))
            return residual_columns(e, *coeff)

        monkeypatch.setattr(dirac_iqy, "_residual_columns", counted)
        out = tmp_path / "table.csv"
        assert cli.main(GOLDEN["spectrum_pspin.csv"] + ["--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 32
        assert len(grids) == 18

    def test_twins_get_their_own_lists_of_frozen_records(self):
        p = caption_params()
        first, twin, partner = solve_batch([(p, 1, -1), (p, 1, -1), (p, 1, 2)], PSPIN, mode="relaxed")
        assert first and first == twin == partner
        assert first is not twin and twin is not partner
        first.clear()
        assert twin == partner != []
        with pytest.raises(FrozenInstanceError):
            twin[0].e = 0.0

    @pytest.mark.parametrize("order", [(0, 1, 2, 1), (0, 2, 1, 2, 1)])
    def test_repeated_overflowing_window_raises_first_offender(self, order):
        # spin windows (C - M, M) 2.5e308 and 2.6e308 wide: hi - lo overflows
        fine = caption_params()
        wide = [PhysicalParams(mass=1e308, v0=0.0, screening=1.0, c_spin=c) for c in (-1.5e308, -1.6e308)]
        states = [[(fine, 0, -2), (wide[0], 0, -2), (wide[1], 0, -2)][i] for i in order]
        offender = next(state for i, state in zip(order, states) if i)
        with pytest.raises(OverflowError) as alone:
            solve_energies(*offender, SPIN, mode="relaxed")
        with pytest.raises(OverflowError, match="wider than the largest float") as batch:
            solve_batch(states, SPIN, mode="relaxed")
        assert str(batch.value) == str(alone.value)

    def test_strict_batch_is_empty(self):
        p = caption_params()
        assert solve_batch([(p, 1, -1), (p, 2, 3)], PSPIN) == [[], []]
        with pytest.raises(EmptyWindow):
            solve_batch([(p, 1, -1)], PSPIN, window=(-20.0, -10.0), mode="relaxed")

    def test_empty_batch(self):
        assert solve_batch([], SPIN, mode="relaxed") == []

    # each input the CLI and the oracle reject used to return non-roots
    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_rejects_infinite_tol(self, mode):
        # relaxed mode stopped bisecting at once: E = -4.99437, residual 2.8e-3
        with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
            solve_energies(caption_params(), 1, -1, PSPIN, tol=math.inf, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    def test_rejects_negative_n(self, mode):
        # relaxed mode found two roots at n = -1, one with t <= 0
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            solve_batch([(caption_params(), 1, -1), (caption_params(), -1, -1)], PSPIN, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("window", [(math.nan, math.nan), (-5.0, math.inf)])
    def test_rejects_nonfinite_window(self, window, mode):
        # a nan end compared false and was dropped without a word
        with pytest.raises(ValueError, match="window must be finite"):
            solve_energies(caption_params(), 1, -1, PSPIN, window=window, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("window", [(-1.0, -4.0), (-2.0, -2.0)])
    def test_rejects_reversed_window(self, window, mode):
        # both ends inside the strict domain, so the intersection came out
        # empty and the solve returned [] without a word
        with pytest.raises(ValueError, match="window needs lo < hi"):
            solve_energies(caption_params(), 1, -1, PSPIN, window=window, mode=mode)
        with pytest.raises(ValueError, match="window needs lo < hi"):
            scan_window(caption_params(), 1, -1, PSPIN, window)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode must be 'strict' or 'relaxed', got 'loose'"):
            solve_batch([(caption_params(), 1, -1)], PSPIN, mode="loose")

    def test_rejects_unknown_symmetry(self):
        with pytest.raises(ValueError, match="symmetry must be 'pspin' or 'spin', got 'sideways'"):
            symmetry_record("sideways")

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("mass", 0.0, "mass must be positive"),
            ("mass", -5.0, "mass must be positive"),
            ("v0", -1.0, "v0 must be nonnegative"),
            ("screening", 0.0, "screening must be positive"),
            ("screening", -0.05, "screening must be positive"),
            ("tensor_h", -0.5, "tensor_h must be nonnegative"),
        ],
    )
    def test_rejects_unphysical_params(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            caption_params(**{name: value})

    def test_scalar_square_moves_the_residual(self):
        # (lambda - 1/2)^2 at H = 5.464, kappa = 3 differs between pow() and
        # x * x; the printed residual keeps pow()
        x = effective_centrifugal(3, 5.464, PSPIN) - 0.5
        assert x**2 != x * x
        p = caption_params(tensor_h=5.464)
        (sols,) = solve_batch([(p, 1, 3)], PSPIN, mode="relaxed")
        assert repr(sols) == repr(reference_solve(p, 1, 3, PSPIN))


class TestScanGrid:
    def test_matches_linspace_bytes(self):
        # widths 1e-12 to 1e9 at scales 1e-6 to 1e8, both signs; the count
        # rule gives 2001 points for most widths and 2002 for about one in eight
        rng = np.random.default_rng(20240611)
        counts = set()
        for _ in range(20_000):
            scale = 10.0 ** rng.uniform(-6.0, 8.0) * rng.choice([-1.0, 1.0])
            lo = scale * rng.uniform(0.5, 2.0)
            hi = lo + 10.0 ** rng.uniform(-12.0, 9.0)
            if not hi > lo:
                continue
            step = (hi - lo) / 2000.0
            want = np.linspace(lo, hi, math.ceil((hi - lo) / step) + 1)
            got = dirac_iqy._scan_grid(lo, hi)
            assert got.tobytes() == want.tobytes(), (lo, hi)
            counts.add(len(got))
        assert counts == {2001, 2002}


class TestCancellationFreeT:
    """t = gamma*V0 + P^2 is summed as (lambda - 1/2)^2 + (n + 1/2)(P + q),
    the proof's identity, which has no cancellation at any V0."""

    @given(**PARAMS, frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_naive_sum_on_moderate_inputs(self, n, kappa, symmetry, frac, **physical):
        p = drawn_params(**physical)
        bounds = scan_window(p, n, kappa, symmetry)
        assume(bounds is not None)
        e = bounds[0] + frac * (bounds[1] - bounds[0])
        res, flag, bsq = _rearranged_vec(p, n, kappa, symmetry, e)
        gamma = gamma_factor(p, e, symmetry)
        lam = effective_centrifugal(kappa, p.tensor_h, symmetry)
        big_p = n + 0.5 + math.sqrt(max((lam - 0.5) ** 2 - gamma * p.v0, 0.0))
        t = gamma * p.v0 + big_p * big_p
        four_alpha_sq = 4.0 * p.screening**2
        naive = bsq - four_alpha_sq * (t / (2.0 * big_p)) ** 2
        # the naive sum rounds at the scale of its largest term
        scale = bsq + four_alpha_sq * t * (abs(gamma * p.v0) + big_p * big_p) / (2.0 * big_p) ** 2
        assert abs(res - naive) <= 1e-13 * scale
        assert not flag

    @given(
        mass=st.floats(min_value=0.5, max_value=1e300),
        v0=st.floats(min_value=0.0, max_value=1e308),
        screening=st.floats(min_value=1e-3, max_value=1.0),
        tensor_h=st.floats(min_value=0.0, max_value=6.0),
        cs_ratio=st.floats(min_value=-1.0, max_value=1.9),
        cps_ratio=st.floats(min_value=-1.9, max_value=1.0),
        n=PARAMS["n"], kappa=PARAMS["kappa"], symmetry=PARAMS["symmetry"],
    )
    @settings(max_examples=300, deadline=None)
    # the defect row of the naive sum (t rounds to 0 at its root), and
    # `spectrum --v0 1e308`
    @example(mass=475331604.6317678, v0=7.512088796728115e23, screening=1.5584049792948822,
             tensor_h=0.0, cs_ratio=414797259.09713894 / 475331604.6317678,
             cps_ratio=315190603.42978406 / 475331604.6317678, n=0, kappa=2, symmetry=PSPIN)
    @example(mass=5.0, v0=1e308, screening=0.05, tensor_h=0.0, cs_ratio=1.2, cps_ratio=-1.1,
             n=0, kappa=-1, symmetry=PSPIN)
    def test_flag_false_at_extreme_inputs(self, n, kappa, symmetry, **physical):
        p = drawn_params(**physical)
        lo, hi = strict_window(p, symmetry)
        e = np.linspace(lo, hi, 4001)
        with np.errstate(over="ignore", invalid="ignore"):
            _, flag, _ = _rearranged_vec(p, n, kappa, symmetry, e)
        assert not flag.any()

    def test_huge_v0_prints_roots(self, tmp_path):
        # the naive sum printed E = -2.29454657, residual -5.5e273, in every
        # row, and its solve returned 383 non-roots
        out = tmp_path / "out.csv"
        assert cli.main(["spectrum", "--v0", "1e308", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["E"] for row in rows] == ["-0.500555624", "-0.505005568", "-0.513932023"]
        assert all(abs(float(row["residual"])) <= 1e-9 for row in rows)
        p = caption_params(v0=1e308)
        for n in range(3):
            (sol,) = solve_energies(p, n, -1, PSPIN, mode="relaxed")
            assert abs(sol.residual) <= 1e-9


class TestBisectionStops:
    """A bracket whose midpoint rounds to one of its ends is done: above
    |E| = 8192 the doubles near a root are wider than tol = 1e-12."""

    @pytest.mark.parametrize("mass", [1e4, 1e6])
    @pytest.mark.parametrize("symmetry, n, kappa", [(PSPIN, 1, -1), (SPIN, 0, -2)])
    def test_large_mass_stops_early(self, monkeypatch, mass, symmetry, n, kappa):
        p = PhysicalParams(mass=mass, v0=1.0, screening=0.05, c_spin=1.2 * mass, c_pspin=-1.1 * mass)
        calls = []
        residual_columns = dirac_iqy._residual_columns

        def counted(*args):
            calls.append(1)
            return residual_columns(*args)

        monkeypatch.setattr(dirac_iqy, "_residual_columns", counted)
        sols = solve_energies(p, n, kappa, symmetry, mode="relaxed")
        assert sols and len(calls) <= 60
        # reference_solve bisects 200 times, the old cap
        assert repr(sols) == repr(reference_solve(p, n, kappa, symmetry))


class TestThresholdEnds:
    """Relaxed roots sit about alpha^2 from a threshold, so at alpha = 1e-5
    they lie inside WINDOW_MARGIN. A threshold, where beta^2 = 0 and the
    residual is -4 alpha^2 (t / 2P)^2 < 0, closes the scan at an end that
    only the margin keeps off it, and that end cell brackets the root."""

    @staticmethod
    def _grids(monkeypatch):
        grids = []
        residual_columns = dirac_iqy._residual_columns

        def recorded(e, *coeff):
            if np.size(e) >= 2001:
                grids.append(np.array(e))
            return residual_columns(e, *coeff)

        monkeypatch.setattr(dirac_iqy, "_residual_columns", recorded)
        return grids

    @pytest.mark.parametrize(
        "symmetry, n, kappa, want",
        [(PSPIN, 1, -1, [-4.9999999998, -0.5000000002]), (SPIN, 0, -2, [1.0000000001])],
    )
    def test_weak_screening_roots(self, symmetry, n, kappa, want):
        # each root lies inside the margin, where only the threshold's end
        # cell brackets it
        sols = solve_energies(caption_params(screening=1e-5), n, kappa, symmetry, mode="relaxed")
        assert len(sols) == len(want)
        assert all(abs(sol.e - e) <= 1e-12 for sol, e in zip(sols, want))

    @pytest.mark.parametrize("symmetry, kappas, e", [(PSPIN, "-1,2", "-5"), (SPIN, "-2,1", "1")])
    def test_spectrum_prints_roots_at_weak_screening(self, tmp_path, symmetry, kappas, e):
        # a scan that ended at the margin printed nan in every row
        out = tmp_path / "out.csv"
        argv = ["spectrum", "--screening", "1e-5", "--symmetry", symmetry,
                "--n-min", "0", "--n-max", "1", "--kappa", kappas, "--out", str(out)]
        assert cli.main(argv) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["E"] for row in rows] == [e] * 4
        assert all(abs(float(row["residual"])) <= 2e-12 for row in rows)

    def test_wavefunction_dumps_at_weak_screening(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert cli.main(["wavefunction", "--screening", "1e-5", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "# E=-5 strict_valid=false"

    def test_margin_ends_take_the_thresholds(self, monkeypatch):
        # pspin: both ends are thresholds; spin: the inner-root cap
        # 1 + 2.25 / V0 sets the upper end, which stays as it is
        grids = self._grids(monkeypatch)
        p = caption_params()
        solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        solve_energies(p, 0, -2, SPIN, mode="relaxed")
        pspin, spin = grids
        lo, hi = scan_window(p, 1, -1, PSPIN)
        assert (pspin[0], pspin[1], pspin[-2], pspin[-1]) == (-5.0, lo, hi, -0.5)
        lo, hi = scan_window(p, 0, -2, SPIN)
        assert (spin[0], spin[1], spin[-1]) == (1.0, lo, hi)
        assert hi == 3.25 - WINDOW_MARGIN

    def test_user_window_ends_stay(self, monkeypatch):
        # each window ends inside the strict domain at one end and past it
        # at the other, where the margin sets the end and the threshold closes it
        grids = self._grids(monkeypatch)
        p = caption_params()
        solve_energies(p, 1, -1, PSPIN, window=(-5.2, -2.0), mode="relaxed")
        solve_energies(p, 1, -1, PSPIN, window=(-4.0, 0.0), mode="relaxed")
        low_clip, high_clip = grids
        assert (low_clip[0], low_clip[-1]) == (-5.0, -2.0 - WINDOW_MARGIN)
        assert (high_clip[0], high_clip[-1]) == (-4.0 + WINDOW_MARGIN, -0.5)

    @given(**PARAMS)
    @settings(max_examples=200, deadline=None)
    def test_residual_negative_at_thresholds(self, n, kappa, symmetry, **physical):
        # beta^2 = 0 and t > 0 there; gamma may round to one ulp off 0 at
        # C - s*M, which only alpha below about 1e-8 could notice
        p = drawn_params(**physical)
        for e in strict_window(p, symmetry):
            res, _, _ = _rearranged_vec(p, n, kappa, symmetry, e)
            # nan where the inner radicand fails, and no end is closed there
            assert not res >= 0.0


class TestSignUnderflow:
    """Brackets are found and bisected by the signs of the residuals, not by
    their products, which underflow to -0.0 when both are tiny."""

    def test_threshold_residual_is_subnormal(self):
        # at alpha = 1e-160 the threshold's residual -4 alpha^2 (t / 2P)^2 is
        # subnormal, and its product with the next grid point's is -0.0
        p = caption_params(screening=1e-160)
        lo, _ = scan_window(p, 0, -1, PSPIN)
        (f_threshold, f_next), _, _ = _rearranged_vec(p, 0, -1, PSPIN, np.array([-5.0, lo]))
        assert -1e-300 < f_threshold < 0.0 < f_next
        assert f_threshold * f_next == 0.0
        sols = solve_energies(p, 0, -1, PSPIN, mode="relaxed")
        assert [round(sol.e, 9) for sol in sols] == [-5.0, -0.5]

    @pytest.mark.parametrize("symmetry, kappa, e", [(PSPIN, "-1", "-5"), (SPIN, "-2", "1")])
    def test_spectrum_prints_root(self, tmp_path, symmetry, kappa, e):
        # the missed bracket printed nan
        out = tmp_path / "out.csv"
        argv = ["spectrum", "--screening", "1e-160", "--symmetry", symmetry,
                "--n-min", "0", "--n-max", "0", "--kappa", kappa, "--out", str(out)]
        assert cli.main(argv) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["E"] == e

    def test_bisection_keeps_tiny_brackets(self, monkeypatch):
        # a residual of 1e-155 (E - root): the scan's products are about
        # 1e-316, but the bisection's fa * fmid underflows once the bracket
        # is narrower than about 1e-11
        root = -2.123456789012345

        def tiny(e, *coeff):
            return 1e-155 * (np.asarray(e) - root), None, 0.0

        monkeypatch.setattr(dirac_iqy, "_residual_columns", tiny)
        (sol,) = solve_energies(caption_params(), 1, -1, PSPIN, mode="relaxed")
        assert abs(sol.e - root) <= 1e-12


class TestBranchSelection:
    def test_pspin_picks_deepest(self):
        p = caption_params()
        sols = solve_energies(p, 1, -1, PSPIN, mode="relaxed")
        assert select_branch_root(sols, PSPIN).e == min(s.e for s in sols)

    def test_spin_picks_shallowest(self):
        p = caption_params()
        sols = solve_energies(p, 0, -2, SPIN, mode="relaxed")
        assert sols
        assert select_branch_root(sols, SPIN).e == max(s.e for s in sols)

    def test_empty(self):
        assert select_branch_root([], PSPIN) is None


def doublet_states(params, symmetry, pairs, h_values):
    """Both members of each zero-tensor doublet (n, kappa) at every H."""
    return [
        (replace(params, tensor_h=float(h)), n, member)
        for n, kappa in pairs
        for h in h_values
        for member in (kappa, partner_kappa(kappa, 0.0, symmetry))
    ]


def doublet_roots(params, symmetry, pairs, h_values):
    """Branch-convention root of every doublet member, keyed (n, kappa, H),
    from one ``solve_batch`` call."""
    states = doublet_states(params, symmetry, pairs, h_values)
    solved = solve_batch(states, symmetry, mode="relaxed")
    return {
        (n, kappa, p.tensor_h): select_branch_root(sols, symmetry)
        for (p, n, kappa), sols in zip(states, solved)
    }


class TestDoubletSplitting:
    """The paper's headline: partners degenerate at H = 0 split at H > 0."""

    @pytest.mark.parametrize("h_values", [[0.0, 5.0], [0.0, 0.5, 5.0]])
    @pytest.mark.parametrize("symmetry,pairs", [
        (PSPIN, [(1, -1), (1, -2), (0, -1)]),
        (SPIN, [(0, -2), (1, -1), (0, 1)]),
    ])
    def test_rows_match_per_state_loop(self, symmetry, pairs, h_values):
        states = doublet_states(caption_params(), symmetry, pairs, h_values)
        want = [solve_energies(p, n, kappa, symmetry, mode="relaxed") for p, n, kappa in states]
        assert repr(solve_batch(states, symmetry, mode="relaxed")) == repr(want)

    def test_one_batch_per_report(self, monkeypatch, capsys):
        # spectrum prints both members of the doublet at every H from one batch
        calls = {"solve_batch": 0, "solve_energies": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        assert cli.main(["spectrum", "--kappa", "-1,2", "--tensor-h", "0,0.5,5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2 * 3
        assert calls == {"solve_batch": 1, "solve_energies": 0}

    def test_baseline_after_the_tensor_value(self):
        # a member's root does not depend on where 0.0 sits among the H values
        p = caption_params()
        ascending = doublet_roots(p, PSPIN, [(1, -1), (1, -2)], [0.0, 5.0])
        descending = doublet_roots(p, PSPIN, [(1, -1), (1, -2)], [5.0, 0.0])
        assert None not in ascending.values()
        assert descending == ascending

    @staticmethod
    def _check_pattern(symmetry, pairs, aligned_lower):
        roots = doublet_roots(caption_params(), symmetry, pairs, [0.0, 5.0])
        assert None not in roots.values()
        for n, kappa in pairs:
            partner = partner_kappa(kappa, 0.0, symmetry)
            e = {(k, h): roots[n, k, h].e for k in (kappa, partner) for h in (0.0, 5.0)}
            assert e[kappa, 0.0] == pytest.approx(e[partner, 0.0], abs=1e-9)
            assert abs(e[kappa, 5.0] - e[partner, 5.0]) > 1e-4
            # published pattern at H = 5 for the aligned (kappa < 0) member
            assert (e[kappa, 5.0] < e[partner, 5.0]) == aligned_lower

    def test_pspin_pattern(self):
        # the aligned member sits lower
        self._check_pattern(PSPIN, [(1, -1), (1, -2)], aligned_lower=True)

    def test_spin_pattern(self):
        # the aligned member sits higher
        self._check_pattern(SPIN, [(0, -2)], aligned_lower=False)

    @staticmethod
    def _partner_energies(params, n, kappa, symmetry):
        """Reported E of kappa and its H = 0 partner, the member with the
        smaller (lambda - 1/2)^2 first, or None when either has no root."""
        h = params.tensor_h
        roots = doublet_roots(params, symmetry, [(n, kappa)], [h])
        if None in roots.values():
            return None
        # H > 0 moves the partners' (lambda - 1/2)^2 apart, so they never tie
        members = sorted((k for _, k, _ in roots), key=lambda k: (
            effective_centrifugal(k, h, symmetry) - 0.5) ** 2)
        return [roots[n, k, h].e for k in members]

    @given(
        mass=st.floats(min_value=0.3, max_value=100.0),
        v0=st.floats(min_value=1e-3, max_value=100.0),
        screening=st.floats(min_value=0.01, max_value=1.0),
        cps_ratio=st.floats(min_value=-1.9, max_value=1.9),
        tensor_h=st.sampled_from([0.3, 0.5, 1.0, 1.7, 5.0]),
        n=st.integers(min_value=0, max_value=5),
        # kappa 1 has the partner 0
        kappa=st.sampled_from([-4, -3, -2, -1, 2, 3, 4]),
    )
    @settings(max_examples=200, deadline=None)
    def test_pspin_smaller_centrifugal_member_lower(
        self, mass, v0, screening, cps_ratio, tensor_h, n, kappa
    ):
        # the condition sees kappa and H only through (lambda - 1/2)^2; on
        # the pspin branch the smaller value gives the lower E. Tested here,
        # not proven
        p = PhysicalParams(mass=mass, v0=v0, screening=screening, tensor_h=tensor_h,
                           c_pspin=cps_ratio * mass)
        energies = self._partner_energies(p, n, kappa, PSPIN)
        assume(energies is not None)
        smaller, larger = energies
        assert smaller < larger

    @pytest.mark.parametrize("c_spin,tensor_h,smaller_lower", [
        (6.0, 5.0, False),  # the caption's spin constant: the published order
        (0.0, 1.0, True),
    ])
    def test_spin_order_has_both_signs(self, c_spin, tensor_h, smaller_lower):
        # the same comparison as for pspin; the spin order flips with the parameters
        p = replace(caption_params(), c_spin=c_spin, tensor_h=tensor_h)
        smaller, larger = self._partner_energies(p, 0, -2, SPIN)
        assert abs(smaller - larger) > 1e-3
        assert (smaller < larger) == smaller_lower

    def test_partner_map(self):
        assert partner_kappa(-1, 0.0, PSPIN) == 2
        assert partner_kappa(-2, 0.0, PSPIN) == 3
        assert partner_kappa(-2, 0.0, SPIN) == 1
        assert partner_kappa(1, 0.0, SPIN) == -2

    @pytest.mark.parametrize("symmetry", [PSPIN, SPIN])
    def test_partner_needs_integer_2h(self, symmetry):
        # -s - 2H - kappa is no kappa when 2H is not an integer
        with pytest.raises(ValueError, match="partner kappa .* is not an integer"):
            partner_kappa(-1, 0.3, symmetry)


class TestGreeneAldrich:
    def test_worked_example(self):
        approx, exact, rel = greene_aldrich(1.0, 0.05)
        assert exact == 1.0
        assert approx == pytest.approx(0.999167, abs=5e-7)
        assert rel == pytest.approx(8.33e-4, abs=5e-6)

    def test_series_expansion_crosscheck(self):
        # 1/r^2 * (x/sinh x)^2 with x = alpha r; error ~ x^2/3 for small x
        for alpha, r in [(0.05, 1.0), (0.1, 0.5), (0.02, 2.0)]:
            approx, exact, rel = greene_aldrich(r, alpha)
            x = alpha * r
            assert approx == pytest.approx(exact * (x / math.sinh(x)) ** 2, rel=1e-12)
            assert rel == pytest.approx(x * x / 3.0, rel=5e-3)

    def test_limit_small_argument(self):
        previous = None
        for r in (1.0, 0.3, 0.1, 0.03):
            _, _, rel = greene_aldrich(r, 0.05)
            if previous is not None:
                assert rel < previous
            previous = rel
        assert previous < 1e-6

    def test_monotone_in_alpha_r(self):
        rels = [greene_aldrich(r, 1.0)[2] for r in np.linspace(0.01, 3.0, 300)]
        assert all(b > a for a, b in zip(rels, rels[1:]))

    def test_nonpositive_r(self):
        with pytest.raises(NonpositiveR):
            greene_aldrich(0.0, 0.05)
        with pytest.raises(NonpositiveR):
            greene_aldrich(-1.0, 0.05)

    @pytest.mark.parametrize("screening", [0.0, -0.05])
    def test_nonpositive_screening(self, screening):
        with pytest.raises(ValueError, match="screening must be positive"):
            greene_aldrich(1.0, screening)


class TestScanWindow:
    def test_spin_cap_limits_window(self):
        p = caption_params()
        lo, hi = scan_window(p, 0, -2, SPIN)
        eta = effective_centrifugal(-2, 0.0, SPIN)
        cap = p.c_spin - p.mass + (eta - 0.5) ** 2 / p.v0
        assert hi <= cap
        assert lo >= p.c_spin - p.mass

    def test_pspin_full_strict_window(self):
        p = caption_params()
        lo, hi = scan_window(p, 1, -1, PSPIN)
        assert lo == pytest.approx(-5.0, abs=1e-8)
        assert hi == pytest.approx(-0.5, abs=1e-8)

    @pytest.mark.parametrize("window", [(10.0, -10.0), (-10.0, -20.0), (7.0, 7.0)])
    def test_reversed_window_off_the_domain(self, window):
        # lo >= hi is checked before the overlap with the domain (-5, -0.5)
        with pytest.raises(ValueError, match="window needs lo < hi"):
            scan_window(caption_params(), 0, -1, PSPIN, window)

    def test_empty_window_names_the_state(self):
        # (1.0, 1.25) is kappa -1's interval, the strict domain (1, 5)
        # capped at the inner-root limit
        with pytest.raises(EmptyWindow) as exc:
            scan_window(caption_params(), 0, -1, SPIN, (3.5, 4.0))
        assert str(exc.value) == (
            "window (3.5, 4.0) outside the scan interval (1.0, 1.25) of spin kappa=-1 H=0.0"
        )
