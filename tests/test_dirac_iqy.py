import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqy_dirac import cli, dirac_iqy
from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    WINDOW_MARGIN,
    PhysicalParams,
    _rearranged_vec,
    attach_radial_number,
    beta_squared,
    effective_centrifugal,
    energy_residual_raw,
    energy_residual_rearranged,
    gamma_factor,
    greene_aldrich,
    nu_coefficients,
    partner_kappa,
    pspin_nu_coefficients,
    quantum_number_map,
    scan_window,
    select_branch_root,
    solve_batch,
    solve_energies,
    strict_window,
)
from iqy_dirac.errors import EmptyWindow, NegativeRadicand, NonpositiveR, ZeroKappa
from iqy_dirac.nu_engine import derive_parameters


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


class TestQuantumNumbers:
    def test_aligned_kappa(self):
        qn = quantum_number_map(-1)
        assert (qn.l, qn.l_tilde, qn.j) == (0, 1, 0.5)
        assert qn.label == "s1/2"

    def test_unaligned_kappa(self):
        qn = quantum_number_map(2)
        assert (qn.l, qn.l_tilde, qn.j) == (2, 1, 1.5)
        assert qn.label == "d3/2"

    @pytest.mark.parametrize("kappa", [k for k in range(-8, 9) if k != 0])
    def test_identities(self, kappa):
        qn = quantum_number_map(kappa)
        assert kappa * (kappa - 1) == qn.l_tilde * (qn.l_tilde + 1)
        assert kappa * (kappa + 1) == qn.l * (qn.l + 1)
        assert qn.j == abs(kappa) - 0.5

    def test_zero_kappa(self):
        with pytest.raises(ZeroKappa):
            quantum_number_map(0)

    def test_radial_relabeling(self):
        qn = attach_radial_number(quantum_number_map(2), 1, PSPIN)
        assert qn.n_spect == 0
        assert qn.label == "0d3/2"
        qn = attach_radial_number(quantum_number_map(-1), 1, PSPIN)
        assert qn.n_spect == 1 and qn.label == "1s1/2"
        qn = attach_radial_number(quantum_number_map(2), 1, SPIN)
        assert qn.n_spect == 1 and qn.label == "1d3/2"


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
        # with sign_ok the squared residual factors the raw one; at a
        # rearranged root the raw condition holds iff sign_ok
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
        # gamma*V0 + P^2 cancels to 0 at this relaxed root, so the numeric
        # sign flag reads valid although the residual is beta^2 = 75.45;
        # the proof still leaves the strict set empty
        p = PhysicalParams(
            mass=475331604.6317678, v0=7.512088796728115e23, screening=1.5584049792948822,
            c_spin=414797259.09713894, c_pspin=315190603.42978406,
        )
        assert solve_energies(p, 0, 2, PSPIN, mode="strict") == []
        relaxed = solve_energies(p, 0, 2, PSPIN, mode="relaxed")
        assert [sol.sign_ok for sol in relaxed] == [True]

    @given(**PARAMS)
    @settings(max_examples=200, deadline=None)
    def test_strict_mode_empty_everywhere(self, n, kappa, symmetry, **physical):
        # t = gamma*V0 + P^2 = (lambda - 1/2)^2 + (n + 1/2)^2 + 2(n + 1/2)q > 0
        # for every q >= 0, so no root of the squared condition has a valid sign
        p = drawn_params(**physical)
        assert solve_energies(p, n, kappa, symmetry, mode="strict") == []
        relaxed = solve_energies(p, n, kappa, symmetry, mode="relaxed")
        assert not any(sol.sign_ok for sol in relaxed)

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
        assert all(not s.sign_ok for s in sols)
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
            assert [f.name for f in fields(sol)] == ["e", "residual", "beta_sq", "sign_ok"]
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
    the state's coefficients as Python floats."""

    def residual(e):
        gamma = gamma_factor(p, e, symmetry)
        bsq = beta_squared(p, e, symmetry)
        lam = effective_centrifugal(kappa, p.tensor_h, symmetry)
        rad = (lam - 0.5) ** 2 - gamma * p.v0
        rad = np.where(rad >= -1.0e-12, np.maximum(rad, 0.0), np.nan)
        big_p = n + 0.5 + np.sqrt(rad)
        t = gamma * p.v0 + big_p * big_p
        return bsq - 4.0 * p.screening**2 * (t / (2.0 * big_p)) ** 2, t <= 0.0, bsq

    bounds = scan_window(p, n, kappa, symmetry, window)
    if bounds is None:
        return []
    lo, hi = bounds
    step = (hi - lo) / 2000.0
    e_grid = np.linspace(lo, hi, math.ceil((hi - lo) / step) + 1)
    res, _, _ = residual(e_grid)
    cells = np.flatnonzero(res[:-1] * res[1:] < 0.0)
    a, b, fa = e_grid[cells], e_grid[cells + 1], res[cells]
    for _ in range(200):
        live = b - a > tol
        if not live.any():
            break
        mid = 0.5 * (a + b)
        fmid, _, _ = residual(mid)
        left = fa * fmid < 0.0
        b = np.where(live & (left | (fmid == 0.0)), mid, b)
        a = np.where(live & ~left, mid, a)
    solutions = []
    for root in np.sort(np.concatenate((e_grid[res == 0.0], 0.5 * (a + b)))):
        if symmetry == PSPIN and root >= 0.0:
            continue
        value, sign_ok, bsq = residual(float(root))
        solutions.append(dirac_iqy.EnergySolution(
            e=float(root), residual=float(value), beta_sq=bsq, sign_ok=bool(sign_ok),
        ))
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
    except EmptyWindow as exc:
        return f"EmptyWindow: {exc}"


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
        rows=st.lists(BATCH_STATE, min_size=1, max_size=6),
        window=BATCH_WINDOW,
        tol=st.sampled_from([1e-12, 1e-6]),
    )
    @settings(max_examples=150, deadline=None)
    @example(mass=1.0, cs_ratio=0.0, cps_ratio=0.0, symmetry=SPIN,
             rows=[(1.0, 0.05, 0.5, 0, -1), (1.0, 0.05, 0.3, 1, -2)], window=None, tol=1e-12)
    @example(mass=5.0, cs_ratio=1.2, cps_ratio=-1.1, symmetry=PSPIN,
             rows=[(1.0, 0.05, 5.464, 1, 3), (1.0, 0.05, 0.0, 1, -1)], window="sliver", tol=1e-6)
    def test_batch_matches_each_state_alone(
        self, mass, cs_ratio, cps_ratio, symmetry, rows, window, tol
    ):
        states, window = self._batch(mass, cs_ratio, cps_ratio, symmetry, rows, window)

        def alone():
            return [solve_energies(p, n, k, symmetry, window, tol, "relaxed") for p, n, k in states]

        got = _outcome(solve_batch, states, symmetry, window, tol, "relaxed")
        assert got == _outcome(alone)
        if not got.startswith("EmptyWindow"):
            want = [reference_solve(p, n, k, symmetry, window, tol) for p, n, k in states]
            assert got == repr(want)

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
        # relaxed mode found two roots at n = -1, one with sign_ok=True
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            solve_batch([(caption_params(), 1, -1), (caption_params(), -1, -1)], PSPIN, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("window", [(math.nan, math.nan), (-5.0, math.inf)])
    def test_rejects_nonfinite_window(self, window, mode):
        # a nan end compared false and was dropped without a word
        with pytest.raises(ValueError, match="window must be finite"):
            solve_energies(caption_params(), 1, -1, PSPIN, window=window, mode=mode)

    def test_scalar_square_moves_the_residual(self):
        # (lambda - 1/2)^2 at H = 5.464, kappa = 3 differs between pow() and
        # x * x; the printed residual keeps pow()
        x = effective_centrifugal(3, 5.464, PSPIN) - 0.5
        assert x**2 != x * x
        p = caption_params(tensor_h=5.464)
        (sols,) = solve_batch([(p, 1, 3)], PSPIN, mode="relaxed")
        assert repr(sols) == repr(reference_solve(p, 1, 3, PSPIN))


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

    def test_partner_map(self):
        assert partner_kappa(-1, 0.0, PSPIN) == 2
        assert partner_kappa(-2, 0.0, PSPIN) == 3
        assert partner_kappa(-2, 0.0, SPIN) == 1
        assert partner_kappa(1, 0.0, SPIN) == -2


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
