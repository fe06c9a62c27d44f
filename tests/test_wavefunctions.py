import numpy as np
import pytest

from iqy_dirac import dirac_iqy
from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    _closed_form,
    _shape_exponents,
    assemble_wavefunction,
    first_order_residual,
    gamma_factor,
    select_branch_root,
    solve_energies,
)
from iqy_dirac.errors import DomainError, EnergyAtThreshold, ExponentNotReal
from iqy_dirac.oracle import count_nodes
from iqy_dirac.special_fn import DEGREE_CAP
from test_dirac_iqy import caption_params


def pspin_state(n, kappa, **overrides):
    p = caption_params(**overrides)
    sol = select_branch_root(solve_energies(p, n, kappa, PSPIN, mode="relaxed"), PSPIN)
    assert sol is not None
    return p, sol


def spin_state(n, kappa, **overrides):
    p = caption_params(**overrides)
    sol = select_branch_root(solve_energies(p, n, kappa, SPIN, mode="relaxed"), SPIN)
    assert sol is not None
    return p, sol


PSPIN_STATES = [(0, -1), (1, -1), (1, -2), (2, -2), (1, 2)]
SPIN_STATES = [(0, -2), (1, -2), (0, 1), (1, 2)]


class TestPspinComponents:
    @pytest.mark.parametrize("n,kappa", PSPIN_STATES)
    def test_boundary_decay(self, n, kappa):
        p, sol = pspin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, PSPIN)
        g = np.abs(wf.lower)
        peak = g.max()
        assert g[0] < 1e-6 * peak
        assert g[-1] < 1e-6 * peak

    @pytest.mark.parametrize("n,kappa", PSPIN_STATES)
    def test_node_count_matches_degree(self, n, kappa):
        p, sol = pspin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, PSPIN)
        assert count_nodes(wf.lower) == n

    @pytest.mark.parametrize("n,kappa", PSPIN_STATES)
    def test_back_substitution(self, n, kappa):
        p, sol = pspin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, PSPIN)
        assert first_order_residual(p, wf) <= 1e-6

    def test_analytic_derivative_vs_central_difference(self):
        p, sol = pspin_state(1, -1)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        r = wf.r_grid
        h = min(1.0e-6, 0.5 * float(r[0]))
        w, q = _shape_exponents(p, wf.e, -1, PSPIN)
        raw, exact, _ = _closed_form(p.screening, w, q, 1, r)
        plus, _, _ = _closed_form(p.screening, w, q, 1, r + h)
        minus, _, _ = _closed_form(p.screening, w, q, 1, r - h)
        anchor = int(np.argmax(np.abs(raw)))
        scale = abs(wf.lower[anchor] / raw[anchor])  # to the dumped norm
        assert scale * np.max(np.abs((plus - minus) / (2.0 * h) - exact)) <= 1e-6

    def test_normalization(self):
        p, sol = pspin_state(1, -1)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        trapz = getattr(np, "trapezoid", None) or np.trapz
        assert float(trapz(wf.lower**2, wf.r_grid)) == pytest.approx(1.0, abs=1e-10)

    def test_s_map(self):
        p, sol = pspin_state(1, -1)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        assert np.allclose(wf.s_map, np.exp(-2.0 * p.screening * wf.r_grid), rtol=1e-13)
        assert np.all(np.diff(wf.r_grid) > 0.0)

    # w ~ 1e-5 stretches the grid until s underflows, and the closed form's
    # derivative divides by it before the threshold check is reached, silently
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_threshold_error(self):
        # just inside the threshold, where beta^2 > 0 still gives a grid
        p = caption_params()
        e = p.mass + p.c_pspin - 5e-13
        with pytest.raises(EnergyAtThreshold):
            assemble_wavefunction(p, e, 1, -1, PSPIN)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_companion_rejected(self):
        # 1e-9 inside the threshold the grid runs to r = 3e5, where s
        # underflows to 0 and the derivative's w / s leaves upper nan
        p = caption_params()
        with pytest.raises(DomainError, match=r"^1952 of 2001 upper samples are not finite"):
            assemble_wavefunction(p, p.mass + p.c_pspin - 1e-9, 1, -1, PSPIN)

    def test_node_at_infinity_rejected(self):
        # q ~ 1e15 and w ~ 1e-5: the largest zero of P_64 rounds to x = 1,
        # which puts the outermost node at s = 0
        p = caption_params(tensor_h=1.0e15)
        with pytest.raises(DomainError, match=r"^grid ends \(.*, inf\) are not finite"):
            assemble_wavefunction(p, p.mass + p.c_pspin - 1e-6, 64, -1, PSPIN)

    def test_exponent_not_real_outside_domain(self):
        p = caption_params()
        with pytest.raises(ExponentNotReal):
            assemble_wavefunction(p, -0.2, 1, -1, PSPIN)  # beta_sq < 0

    def test_tensor_state(self):
        p, sol = pspin_state(1, -1, tensor_h=5.0)
        wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
        assert count_nodes(wf.lower) == 1
        assert first_order_residual(p, wf) <= 1e-6


class TestSpinComponents:
    @pytest.mark.parametrize("n,kappa", SPIN_STATES)
    def test_boundary_decay_and_nodes(self, n, kappa):
        p, sol = spin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, SPIN)
        f = np.abs(wf.upper)
        assert f[0] < 1e-6 * f.max()
        assert f[-1] < 1e-6 * f.max()
        assert count_nodes(wf.upper) == n

    @pytest.mark.parametrize("n,kappa", SPIN_STATES)
    def test_back_substitution(self, n, kappa):
        p, sol = spin_state(n, kappa)
        wf = assemble_wavefunction(p, sol, n, kappa, SPIN)
        assert first_order_residual(p, wf) <= 1e-6

    def test_centrifugal_radicand_not_real_above_cap(self):
        # beta^2 = 4 > 0 at e = 3, inside the strict window (1, 5), but above
        # the inner-root cap 1 + 0.25 / V0 = 1.25 of kappa = -1
        with pytest.raises(ExponentNotReal, match=r"^centrifugal radicand = -1.75 < 0 at e = 3.0$"):
            assemble_wavefunction(caption_params(), 3.0, 0, -1, SPIN)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # as for pspin
    def test_threshold_error(self):
        p = caption_params()
        e = -p.mass + p.c_spin + 5e-13
        with pytest.raises(EnergyAtThreshold):
            assemble_wavefunction(p, e, 0, -2, SPIN)

    def test_components_scale_together(self):
        # the companion is the coupling applied to the closed form, times the
        # factor that normalizes the dominant component
        p, sol = spin_state(0, -2)
        wf = assemble_wavefunction(p, sol, 0, -2, SPIN)
        w, q = _shape_exponents(p, wf.e, -2, SPIN)
        raw, draw, _ = _closed_form(p.screening, w, q, 0, wf.r_grid)
        coupled = (draw + (-2 + p.tensor_h) / wf.r_grid * raw) / gamma_factor(p, wf.e, SPIN)
        anchor = int(np.argmax(np.abs(raw)))
        scale = wf.upper[anchor] / raw[anchor]
        assert np.allclose(wf.upper, scale * raw, rtol=1e-12)
        assert np.allclose(wf.lower, scale * coupled, rtol=1e-12)


class TestGrid:
    def test_default_grid_spans_demand(self):
        p, sol = pspin_state(2, -3)
        wf = assemble_wavefunction(p, sol, 2, -3, PSPIN)
        grid = wf.r_grid
        assert len(grid) == 2001
        assert grid[0] > 0.0
        g = wf.lower
        assert np.abs(g[0]) < 1e-6 * np.abs(g).max()
        assert np.abs(g[-1]) < 1e-6 * np.abs(g).max()

    # (symmetry, kappa, screening); at high n the envelope's peak and decay
    # alone once ended the grid before the outer nodes
    @pytest.mark.parametrize(
        "symmetry,kappa,screening",
        [
            (PSPIN, -1, 0.01), (PSPIN, -1, 0.05), (SPIN, -2, 0.05),
            (PSPIN, 2, 0.01), (SPIN, 1, 0.5), (PSPIN, -3, 0.2),
        ],
    )
    def test_grid_holds_every_node(self, symmetry, kappa, screening):
        p = caption_params(screening=screening)
        checked = 0
        for n in range(DEGREE_CAP + 1):
            sol = select_branch_root(solve_energies(p, n, kappa, symmetry, mode="relaxed"), symmetry)
            if sol is not None:
                wf = assemble_wavefunction(p, sol, n, kappa, symmetry)
                assert count_nodes(wf.dominant) == n
                checked += 1
        assert checked


def test_one_closed_form_evaluation_per_dump(monkeypatch):
    # one (w, q) and one Jacobi evaluation build a dump; the residual check
    # adds one (w, q) and the closed form at r, r + h and r - h
    p, sol = pspin_state(1, -1)
    calls = {"jacobi": 0, "_shape_exponents": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(dirac_iqy, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(dirac_iqy, name, counted)
    wf = assemble_wavefunction(p, sol, 1, -1, PSPIN)
    assert calls == {"jacobi": 1, "_shape_exponents": 1}
    first_order_residual(p, wf)
    assert calls == {"jacobi": 4, "_shape_exponents": 2}
