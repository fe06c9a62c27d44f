import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iqy_dirac import oracle
from iqy_dirac.cli import COULOMB_ANCHOR_STATES
from iqy_dirac.dirac_iqy import (
    PSPIN,
    SPIN,
    PhysicalParams,
    _closed_form,
    _shape_exponents,
    assemble_wavefunction,
    effective_centrifugal,
    scan_window,
    select_branch_root,
    solve_energies,
)
from iqy_dirac.errors import NodeMismatch, NoRootInWindow, SeedUndefined
from iqy_dirac.limits import coulomb_energy
from iqy_dirac.oracle import (
    _OVERFLOW_LIMIT,
    _UNDERFLOW_LIMIT,
    ProblemFamily,
    _inward_seed_scalar,
    _march,
    _match_index,
    _match_scalar,
    _match_vec,
    _outward_seed_scalar,
    _refine,
    _sweep_vec,
    coulomb_family,
    count_nodes,
    integrate_outward,
    iqy_family,
    pspin_family,
    scan_eigenvalues,
    shoot_eigenvalue,
    shoot_eigenvalues,
    spin_family,
)


def caption_params(**overrides):
    base = dict(mass=5.0, v0=1.0, screening=0.05, tensor_h=0.0, c_spin=6.0, c_pspin=-5.5)
    base.update(overrides)
    return PhysicalParams(**base)


def integrate_inward(family, e):
    """Decaying solution marched inward over the whole grid, in grid order."""
    samples, _ = _march(family, e, False, len(family.r) - 1, len(family.r))
    return family.r, np.array(samples[::-1])


def fixed_match_index(monkeypatch, idx):
    """Match every scan at grid index ``idx`` instead of the deepest well."""
    if idx is not None:
        monkeypatch.setattr(oracle, "_match_index", lambda family, window: idx)


def constant_family(beta_sq=1.0, index=1.0, c0=None, r_min=1e-4, r_max=3.0, step=1e-4):
    return ProblemFamily(
        coefficients=lambda r: (0.0 * r if c0 is None else c0(r), 0.0 * r),
        couplings=lambda e: (0.0 * np.asarray(e), beta_sq + 0.0 * np.asarray(e)),
        seed=lambda gamma, bsq: (index + 0.0 * gamma, 0.0 * gamma, 0.0 * gamma),
        r_min=r_min,
        r_max=r_max,
        step=step,
        label="test",
    )


class TestCountNodes:
    def test_constant_sign(self):
        assert count_nodes(np.ones(50)) == 0
        assert count_nodes(-np.ones(50) * 0.3) == 0

    def test_sine_on_three_half_periods(self):
        x = np.linspace(0.0, 3.0 * math.pi, 300)
        assert count_nodes(np.sin(x)) == 2

    def test_tiny_magnitudes_ignored(self):
        samples = np.array([1.0, 1e-15, -1e-16, 1.0, -1.0])
        assert count_nodes(samples) == 1

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            count_nodes([1.0, -1.0])

    def test_all_zero(self):
        assert count_nodes(np.zeros(10)) == 0


class TestIntegration:
    def test_free_solution_matches_sinh(self):
        family = constant_family(beta_sq=1.0, index=1.0)
        r, u = integrate_outward(family, 0.0)
        i_ref = int(np.argmin(np.abs(r - 0.5)))
        i_probe = int(np.argmin(np.abs(r - 1.0)))
        scale = math.sinh(r[i_ref]) / u[i_ref]
        rel = abs(scale * u[i_probe] - math.sinh(r[i_probe])) / math.sinh(r[i_probe])
        assert rel <= 1e-8

    def test_inward_solution_matches_decay(self):
        family = constant_family(beta_sq=4.0, index=1.0, r_max=8.0, step=1e-3)
        r, u = integrate_inward(family, 0.0)
        # pure exponential exp(-2r) away from the inner edge
        i1 = int(np.argmin(np.abs(r - 5.0)))
        i2 = int(np.argmin(np.abs(r - 6.0)))
        ratio = u[i2] / u[i1]
        assert ratio == pytest.approx(math.exp(-2.0 * (r[i2] - r[i1])), rel=1e-8)

    def test_seed_exponent_ratio(self):
        family = constant_family(
            beta_sq=1.0, index=2.0, c0=lambda r: 2.0 / (r * r), r_min=1e-5, r_max=1.0, step=1e-5
        )
        r, u = integrate_outward(family, 0.0)
        i_double = int(np.argmin(np.abs(r - 2.0 * r[0])))
        assert u[i_double] / u[0] == pytest.approx((r[i_double] / r[0]) ** 2.0, rel=1e-6)

    def test_rescaled_march_keeps_one_scale(self):
        # both marches grow past the 1e100 rescale limit, so every kept
        # sample must be divided along with the running pair
        family = constant_family(beta_sq=100.0, index=1.0, r_min=1e-4, r_max=30.0, step=1e-3)
        r, u = integrate_outward(family, 0.0)
        i1, i2 = (int(np.argmin(np.abs(r - x))) for x in (20.0, 26.0))
        expected = math.sinh(10.0 * r[i2]) / math.sinh(10.0 * r[i1])
        assert u[i2] / u[i1] == pytest.approx(expected, rel=1e-7)
        r, u = integrate_inward(family, 0.0)
        i1, i2 = (int(np.argmin(np.abs(r - x))) for x in (4.0, 27.0))
        assert u[i2] / u[i1] == pytest.approx(math.exp(-10.0 * (r[i2] - r[i1])), rel=1e-7)

    def test_inward_seed_undefined(self):
        family = constant_family(beta_sq=-1.0)
        with pytest.raises(SeedUndefined):
            integrate_inward(family, 0.0)

    def test_batched_inward_seed_undefined(self):
        with pytest.raises(SeedUndefined, match="no decaying large-r seed"):
            scan_eigenvalues(constant_family(beta_sq=-1.0), (0.0, 1.0))

    def test_outward_seed_undefined_for_complex_index(self):
        family = ProblemFamily(
            coefficients=lambda r: (-1.0 / (r * r), 0.0 * r),
            couplings=lambda e: (0.0 * np.asarray(e), 1.0 + 0.0 * np.asarray(e)),
            seed=lambda gamma, bsq: (np.nan + 0.0 * gamma, 0.0 * gamma, 0.0 * gamma),
            r_min=1e-3,
            r_max=2.0,
            step=1e-3,
        )
        with pytest.raises(SeedUndefined):
            integrate_outward(family, 0.0)

    def test_outward_seed_past_underflow(self):
        # index ~475, so r[1] ** index underflows to zero; the march must
        # still start from the ratio of the two seed samples
        family = pspin_family(caption_params(v0=1.0e5), -1)
        assert float(oracle._seed_series(family, -2.75)[0]) > 400.0
        _, u = integrate_outward(family, -2.75)
        assert np.all(np.isfinite(u)) and np.count_nonzero(u) > len(u) // 2


class TestCoulombAnchor:
    WINDOW = (-0.999, -0.02)

    @pytest.mark.parametrize("n,kappa", [(0, 1), (1, 1), (0, 2)])
    def test_matches_closed_form(self, n, kappa):
        closed = coulomb_energy(1.0, -1.0, n, kappa)
        family = coulomb_family(1.0, -1.0, kappa)
        shot = shoot_eigenvalue(family, self.WINDOW, node_target=n, tol=1e-10)
        assert abs(shot - closed) <= 1e-6

    def test_node_count_monotone_in_energy(self):
        # window capped away from the accumulation edge so every contained
        # state decays well inside the grid
        family = coulomb_family(1.0, -1.0, 1)
        found = scan_eigenvalues(family, (-0.97, -0.02), tol=1e-10)
        assert len(found) >= 3
        energies = [e for e, _ in found]
        nodes = [c for _, c in found]
        assert energies == sorted(energies)
        # strictly ordered node counts within the window
        assert all(b < a for a, b in zip(nodes, nodes[1:])) or all(
            b > a for a, b in zip(nodes, nodes[1:])
        )
        for e, c in found:
            assert abs(e - coulomb_energy(1.0, -1.0, c, 1)) <= 1e-6

    def test_grid_convergence(self):
        # halving the step moves the eigenvalue by less than 1e-8
        for kappa, n in [(1, 0), (2, 0)]:
            e_coarse = shoot_eigenvalue(
                coulomb_family(1.0, -1.0, kappa, step=5.0e-3), self.WINDOW, n, tol=1e-11
            )
            e_fine = shoot_eigenvalue(
                coulomb_family(1.0, -1.0, kappa, step=2.5e-3), self.WINDOW, n, tol=1e-11
            )
            assert abs(e_coarse - e_fine) < 1e-8

    def test_match_point_independence(self, monkeypatch):
        family = coulomb_family(1.0, -1.0, 1)
        # the automatic match point is the inner edge (index 4), where
        # W = gamma/r + beta^2 is deepest; matching well inside the
        # allowed region (r ~ 0.5, 2, 10) must give the same root
        used = []
        match_vec = oracle._match_vec

        def recorded(family, e_vec, m_idx):
            used.append(m_idx)
            return match_vec(family, e_vec, m_idx)

        monkeypatch.setattr(oracle, "_match_vec", recorded)
        e_base = shoot_eigenvalue(family, self.WINDOW, 0, tol=1e-11)
        for idx in (100, 400, 2000):
            fixed_match_index(monkeypatch, idx)
            e_moved = shoot_eigenvalue(family, self.WINDOW, 0, tol=1e-11)
            assert abs(e_moved - e_base) < 1e-8
        assert used == [4, 100, 400, 2000]

    def test_node_mismatch(self):
        family = coulomb_family(1.0, -1.0, 1)
        with pytest.raises(NodeMismatch):
            shoot_eigenvalue(family, (-0.7, -0.3), node_target=7)


class TestIqyProblems:
    def test_no_well_no_root(self):
        # pure approximated centrifugal, zero depth: no attractive region
        p = caption_params(v0=0.0)
        family = pspin_family(p, -1)
        window = scan_window(p, 1, -1, PSPIN)
        assert scan_eigenvalues(family, window) == []
        with pytest.raises(NoRootInWindow):
            shoot_eigenvalue(family, window, 0)

    @pytest.mark.parametrize("symmetry", [PSPIN, SPIN])
    @pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
    def test_empty_spectrum_matches_closed_form(self, symmetry, kappa):
        # the well-posed window admits no bound state on either route
        p = caption_params()
        window = scan_window(p, 0, kappa, symmetry)
        family = pspin_family(p, kappa) if symmetry == PSPIN else spin_family(p, kappa)
        assert scan_eigenvalues(family, window, tol=1e-9) == []

    def test_approximation_gap_shrinks_with_screening(self):
        # cutoff-regularized supercritical spin problem: the same grid and
        # wall for both centrifugal forms isolates the approximation error
        gaps = []
        for alpha in (0.2, 0.1, 0.05):
            p = caption_params(screening=alpha)
            es = {}
            for approximate in (False, True):
                family = spin_family(
                    p, -2, approximate=approximate,
                    r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True,
                )
                found = scan_eigenvalues(family, (3.5, 4.9), tol=1e-10, scan_points=120)
                assert found
                es[approximate] = found[0][0]
            gaps.append(abs(es[True] - es[False]))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_exact_and_approximate_agree_on_emptiness(self):
        p = caption_params()
        window = scan_window(p, 0, -2, SPIN)
        for approximate in (True, False):
            family = spin_family(p, -2, approximate=approximate)
            assert scan_eigenvalues(family, window, tol=1e-9) == []


class TestAntiBound:
    """A relaxed root is an anti-bound (virtual) state: there the oracle's
    regular solution is the closed form with w -> -w,
    s^-w (1-s)^(1/2+q) P_n^(-2w, 2q)(1-2s), which grows as exp(|beta| r).
    The decaying +w formula that ``assemble_wavefunction`` dumps is not an
    eigenfunction. Away from the root the ratio of the two drifts."""

    @staticmethod
    def _spread(p, n, kappa, symmetry, e, r_max):
        """max |ratio / ratio[mid] - 1| of the oracle's regular solution over
        the growing branch, on the samples above 1e-6 of the branch's peak."""
        r, u = integrate_outward(iqy_family(p, kappa, symmetry, r_max=r_max), e)
        w, q = _shape_exponents(p, e, kappa, symmetry)
        growing, _ = _closed_form(p.screening, -w, q, n, r)
        kept = np.abs(growing) > 1e-6 * np.abs(growing).max()
        ratio = u[kept] / growing[kept]
        return float(np.max(np.abs(ratio / ratio[len(ratio) // 2] - 1.0)))

    @pytest.mark.parametrize(
        "symmetry, screening, n, kappa, h",
        [
            (PSPIN, 0.05, 1, -1, 0.0),
            (PSPIN, 0.05, 2, 3, 5.0),
            (SPIN, 0.05, 0, -2, 0.0),
            (SPIN, 0.5, 1, 1, 0.5),
            (PSPIN, 0.01, 5, -1, 0.0),
        ],
    )
    def test_regular_solution_is_growing_branch(self, symmetry, screening, n, kappa, h):
        p = caption_params(screening=screening, tensor_h=h)
        root = select_branch_root(solve_energies(p, n, kappa, symmetry, mode="relaxed"), symmetry)
        r_max = assemble_wavefunction(p, root, n, kappa, symmetry).r_grid[-1]
        assert self._spread(p, n, kappa, symmetry, root.e, r_max) < 1e-8
        assert self._spread(p, n, kappa, symmetry, root.e + 1e-4, r_max) > 1e-6


class TestKernels:
    """The scalar march that refines roots and the batched march that scans
    for them compute the same matching function."""

    @staticmethod
    def _case(name):
        if name == "coulomb":
            return coulomb_family(1.0, -1.0, 1), (-0.999, -0.02)
        p = caption_params(screening=0.1)
        if name == "spin":
            return spin_family(p, -2), scan_window(p, 0, -2, SPIN)
        if name == "underflowing_seed":
            p = caption_params(v0=1.0e5)
            return pspin_family(p, -1), scan_window(p, 0, -1, PSPIN)
        family = spin_family(p, -2, r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True)
        return family, (3.5, 4.9)

    @pytest.mark.parametrize("name", ["coulomb", "spin", "hard_wall", "underflowing_seed"])
    def test_scalar_and_batched_match_agree(self, name):
        family, (lo, hi) = self._case(name)
        # the automatic match point and one that leaves both marches long;
        # W >= 0 over the underflowing-seed window, which has no automatic one
        energies = np.linspace(lo, hi, 9)[1:-1]
        m_indices = (_match_index(family, (lo, hi)), len(family.r) // 2)
        for m_idx in [m for m in m_indices if m is not None]:
            f_batched, nodes_batched = _match_vec(family, energies, m_idx)
            for e, f_b, nodes_b in zip(energies, f_batched, nodes_batched):
                f_scalar, nodes_scalar = _match_scalar(family, float(e), m_idx)
                assert abs(f_scalar - f_b) <= 1e-12 * abs(f_b)
                assert nodes_scalar == nodes_b


def _reference_march(family, e, outward, stop, keep):
    """The plain-float march as first written: W rebuilt at every step."""
    g1, g2 = map(float, family.couplings(e))
    c0, c1 = family._c0.tolist(), family._c1.tolist()
    if outward:
        u_prev, u_curr = _outward_seed_scalar(family, e)
    else:
        u_prev, u_curr = _inward_seed_scalar(family, g2)
        c0, c1 = c0[::-1], c1[::-1]
    h2 = family.step * family.step / 12.0
    first = stop + 1 - keep
    kept = [u_prev, u_curr][first:]
    nodes = 0
    f_prev = c0[0] + c1[0] * g1 + g2
    f_curr = c0[1] + c1[1] * g1 + g2
    for i in range(2, stop + 1):
        f_new = c0[i] + c1[i] * g1 + g2
        u_new = (
            2.0 * u_curr * (1.0 + 5.0 * h2 * f_curr) - u_prev * (1.0 - h2 * f_prev)
        ) / (1.0 - h2 * f_new)
        if i <= stop - 2 and u_new * u_curr < 0.0:
            nodes += 1
        if i >= first:
            kept.append(u_new)
        mag = abs(u_new)
        if mag > _OVERFLOW_LIMIT or 0.0 < mag < _UNDERFLOW_LIMIT:
            u_curr /= mag
            u_new /= mag
            kept = [u / mag for u in kept]
        u_prev, u_curr = u_curr, u_new
        f_prev, f_curr = f_curr, f_new
    return kept, nodes


def _reference_sweep(family, e_vec, m_idx, outward, rescales=None):
    """The batched march as first written: W rebuilt and the rescale mask
    taken at every step. A ``rescales`` list receives the march row and the
    columns of each rescale."""
    r, h = family.r, family.step
    gamma, bsq = family.couplings(e_vec)
    g1 = np.atleast_1d(np.asarray(gamma, dtype=float))
    g2 = np.atleast_1d(np.asarray(bsq, dtype=float))
    cols = len(e_vec)
    c0, c1 = family._c0, family._c1
    h2 = h * h / 12.0
    window = np.full((5, cols), np.nan)
    nodes = np.zeros(cols, dtype=np.int64)
    if not outward:
        u_prev = np.exp(-np.sqrt(g2) * h)
        c0, c1 = c0[::-1], c1[::-1]
        m_idx = len(c0) - 1 - m_idx
    elif family.hard_wall:
        u_prev = np.zeros(cols)
    else:
        index, v1, v0 = (np.atleast_1d(np.asarray(c, dtype=float)) for c in family.seed(gamma, bsq))
        a1 = v1 / (2.0 * index)
        a2 = (v1 * a1 + v0) / (4.0 * index + 2.0)
        u_prev = (
            (r[0] / r[1]) ** index
            * (1.0 + a1 * r[0] + a2 * r[0] * r[0])
            / (1.0 + a1 * r[1] + a2 * r[1] * r[1])
        )
    u_curr = np.ones(cols)
    f_prev = c0[0] + c1[0] * g1 + g2
    f_curr = c0[1] + c1[1] * g1 + g2
    for i in range(2, m_idx + 3):
        f_new = c0[i] + c1[i] * g1 + g2
        u_new = (
            2.0 * u_curr * (1.0 + 5.0 * h2 * f_curr) - u_prev * (1.0 - h2 * f_prev)
        ) / (1.0 - h2 * f_new)
        if i <= m_idx:
            nodes += u_new * u_curr < 0.0
        if m_idx - 2 <= i:
            window[i - m_idx + 2] = u_new
        else:
            mag = np.abs(u_new)
            needs = (mag > _OVERFLOW_LIMIT) | ((mag < _UNDERFLOW_LIMIT) & (mag > 0.0))
            if np.any(needs):
                if rescales is not None:
                    rescales.append((i, np.flatnonzero(needs).tolist()))
                factor = np.where(needs, 1.0 / np.maximum(mag, 1.0e-290), 1.0)
                u_curr *= factor
                u_new *= factor
        u_prev, u_curr = u_curr, u_new
        f_prev, f_curr = f_curr, f_new
    return (window if outward else window[::-1]), nodes


def _sqrt_energy_family(hard_wall=False, nan_above=None):
    """W = beta^2 = e, constant in r, so over the whole grid the growing
    solutions of the energies near 100 pass the rescale limit (e^300) and
    those near 1 do not (e^30);
    ``nan_above`` turns W into NaN for the larger energies."""

    def couplings(e):
        e = np.asarray(e, dtype=float)
        return (0.0 * e if nan_above is None else np.where(e > nan_above, np.nan, 0.0)), e

    return ProblemFamily(
        coefficients=lambda r: (0.0 * r, 1.0 + 0.0 * r),
        couplings=couplings,
        seed=lambda gamma, bsq: (1.0 + 0.0 * bsq, 0.0 * bsq, 0.0 * bsq),
        r_min=1e-2,
        r_max=30.0,
        step=1e-2,
        hard_wall=hard_wall,
        label="sqrt-energy",
    )


class TestReferenceLoop:
    """Both marches read step coefficients built ahead of the loop; they
    must give the bits of the loops that rebuilt W at every step."""

    @staticmethod
    def _case(name):
        p = caption_params(screening=0.1)
        if name == "coulomb_k1":
            return coulomb_family(1.0, -1.0, 1), np.linspace(-0.999, -0.02, 9)[1:-1]
        if name == "coulomb_k2":
            return coulomb_family(1.0, -1.0, 2), np.linspace(-0.999, -0.02, 9)[1:-1]
        if name == "spin":
            lo, hi = scan_window(p, 0, -2, SPIN)
            return spin_family(p, -2), np.linspace(lo, hi, 9)[1:-1]
        if name == "hard_wall":
            family = spin_family(p, -2, r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True)
            return family, np.linspace(3.5, 4.9, 9)[1:-1]
        if name == "rescaling":
            family = constant_family(beta_sq=100.0, index=1.0, r_min=1e-4, r_max=30.0, step=1e-3)
            return family, np.array([0.0, 1.0])
        if name == "mixed_rescale":
            return _sqrt_energy_family(), np.linspace(1.0, 100.0, 6)
        return _sqrt_energy_family(hard_wall=True, nan_above=50.0), np.linspace(1.0, 100.0, 6)

    @staticmethod
    def _same(got, want):
        assert repr(np.asarray(got).tolist()) == repr(np.asarray(want).tolist())

    @pytest.mark.parametrize(
        "name",
        ["coulomb_k1", "coulomb_k2", "spin", "hard_wall", "rescaling", "mixed_rescale", "nan"],
    )
    def test_marches_bit_identical(self, name):
        family, energies = self._case(name)
        last = len(family.r) - 1
        auto = _match_index(family, (energies[0], energies[-1]))
        for m_idx in {min(max(auto or 4, 4), last - 5), last // 2}:
            for outward in (True, False):
                window, nodes = _sweep_vec(family, energies, m_idx, outward)
                ref_window, ref_nodes = _reference_sweep(family, energies, m_idx, outward)
                self._same(window, ref_window)
                self._same(nodes, ref_nodes)
            for e in energies[:: max(1, len(energies) // 3)]:
                for outward, stop in ((True, m_idx + 2), (False, last - m_idx + 2)):
                    got = _march(family, float(e), outward, stop, 5)
                    assert repr(got) == repr(_reference_march(family, float(e), outward, stop, 5))
        for e in (energies[0], energies[-1]):
            for outward in (True, False):
                got = _march(family, float(e), outward, last, last + 1)
                assert repr(got) == repr(_reference_march(family, float(e), outward, last, last + 1))

    @pytest.mark.parametrize("stop", [62, 63, 64, 65, 125, 126, 127, 128])
    def test_stops_at_chunk_edges(self, stop):
        # the batched march builds coefficients for 64 grid rows at a time
        family, energies = self._case("mixed_rescale")
        last = len(family.r) - 1
        for outward, m_idx in ((True, stop - 2), (False, last - stop + 2)):
            window, nodes = _sweep_vec(family, energies, m_idx, outward)
            ref_window, ref_nodes = _reference_sweep(family, energies, m_idx, outward)
            self._same(window, ref_window)
            self._same(nodes, ref_nodes)
            got = _march(family, float(energies[-1]), outward, stop, 5)
            assert repr(got) == repr(_reference_march(family, float(energies[-1]), outward, stop, 5))
        # node-rich: near E = -0.99 the kappa = 1 anchor has 5-7 nodes over
        # the grid, so sign changes fall on both sides of many chunk edges;
        # 191 chunk strides of 62 rows end the march at the same place in its
        # last chunk as ``stop``
        family, energies = coulomb_family(1.0, -1.0, 1), np.linspace(-0.995, -0.985, 5)
        last = len(family.r) - 1
        long_stop = stop + 62 * 191
        for outward, m_idx in ((True, long_stop - 2), (False, last - long_stop + 2)):
            window, nodes = _sweep_vec(family, energies, m_idx, outward)
            ref_window, ref_nodes = _reference_sweep(family, energies, m_idx, outward)
            self._same(window, ref_window)
            self._same(nodes, ref_nodes)
            assert ref_nodes.min() >= 5

    @pytest.mark.parametrize("cols", [1, 240])
    @pytest.mark.parametrize("name", ["coulomb_k1", "coulomb_k2", "spin"])
    def test_scan_shapes_bit_identical(self, name, cols):
        # a scan marches 240 energies at its window's automatic match index,
        # and the views each step reads are built for the batch's column count
        family, _ = self._case(name)
        if name == "spin":
            window = scan_window(caption_params(screening=0.1), 0, -2, SPIN)
        else:
            window = (-0.999, -0.02)
        energies = np.linspace(*window, cols + 2)[1:-1]
        m_idx = _match_index(family, window)
        for outward in (True, False):
            samples, nodes = _sweep_vec(family, energies, m_idx, outward)
            ref_samples, ref_nodes = _reference_sweep(family, energies, m_idx, outward)
            self._same(samples, ref_samples)
            self._same(nodes, ref_nodes)

    def test_infinite_sample_counted_before_rescale(self):
        # b = 1 - h^2 W / 12 is exactly 0 at one grid row, so the march
        # divides by zero there: the infinite sample and its sign change
        # count before the rescale turns it into NaN and its neighbour into 0
        h = 0.25
        spike_row = 20

        def c0(r):
            w = -4.0 + 0.0 * r
            w[spike_row] = 12.0 / (h * h)
            return w

        family = ProblemFamily(
            coefficients=lambda r: (c0(r), 0.0 * r),
            # the index equals the energy; c1 = 0 keeps gamma out of W
            couplings=lambda e: (np.asarray(e, dtype=float), 0.0 * np.asarray(e)),
            seed=lambda gamma, bsq: (gamma, 0.0 * gamma, 0.0 * gamma),
            r_min=h,
            r_max=40.0,
            step=h,
            label="spike",
        )
        assert 1.0 - h * h / 12.0 * c0(np.ones(spike_row + 1))[spike_row] == 0.0
        energies = np.linspace(0.5, 40.0, 40)
        with np.errstate(divide="ignore", invalid="ignore"):
            window, nodes = _sweep_vec(family, energies, 100, True)
            ref_window, ref_nodes = _reference_sweep(family, energies, 100, True)
        self._same(window, ref_window)
        self._same(nodes, ref_nodes)


def _chunk(row):
    """Chunk of the batched march that computes march row ``row``: each chunk
    of 64 rows starts with the last two rows of the one before."""
    return (row - 2) // 62


class TestChunkedRescale:
    """The batched march tests a whole chunk for rescaling at once and
    re-marches it after the first row that needs one; it must give the bits
    of the reference loop, which tests every row. In ``_sqrt_energy_family``
    the energies near 1e4 first pass 1e100 at march rows 211 to 251, in the
    fourth and fifth chunks, and again about every 230 rows."""

    @staticmethod
    def _check(family, energies, m_idx, outward):
        """Window of the batched march, checked against the reference, and
        each column's first rescale row in the reference (None if none)."""
        rescales = []
        ref_window, ref_nodes = _reference_sweep(family, energies, m_idx, outward, rescales)
        window, nodes = _sweep_vec(family, energies, m_idx, outward)
        TestReferenceLoop._same(window, ref_window)
        TestReferenceLoop._same(nodes, ref_nodes)
        first = {}
        for row, cols in rescales:
            for col in cols:
                first.setdefault(col, row)
        return window, [first.get(col) for col in range(len(energies))]

    @staticmethod
    def _marches(family):
        """(outward, m_idx) of a full-length march in each direction."""
        last = len(family.r) - 1
        return ((True, last - 5), (False, 5))

    def test_columns_rescale_at_different_rows_of_one_chunk(self):
        family = _sqrt_energy_family()
        for outward, m_idx in self._marches(family):
            _, first = self._check(family, np.array([1.0e4, 1.04e4, 1.0]), m_idx, outward)
            assert first[0] != first[1] and _chunk(first[0]) == _chunk(first[1])
            assert first[2] is None

    @pytest.mark.parametrize("energy, row", [(8560.0, 250), (8630.0, 249)])
    def test_first_rescale_at_chunk_seam(self, energy, row):
        # row 250 is the first row the fifth chunk computes, 249 the last
        # row of the fourth
        assert _chunk(250) == _chunk(249) + 1 == 4
        family = _sqrt_energy_family()
        for outward, m_idx in self._marches(family):
            _, first = self._check(family, np.array([energy, 1.0]), m_idx, outward)
            assert first == [row, None]

    @pytest.mark.parametrize("offset", [-2, 0, 2])
    def test_window_rows_never_rescaled(self, offset):
        # E = 1e4 first passes 1e100 at row 231, inside the matching window
        # of a match at row 231 + offset; E = 1.2e4 rescales before it
        family = _sqrt_energy_family()
        last = len(family.r) - 1
        for outward in (True, False):
            m_idx = 231 + offset if outward else last - 231 - offset
            window, first = self._check(family, np.array([1.0e4, 1.2e4]), m_idx, outward)
            assert first[0] is None and first[1] is not None
            assert np.abs(window[:, 0]).max() > _OVERFLOW_LIMIT

    def test_nan_column_beside_rescaling_columns(self):
        family = _sqrt_energy_family(nan_above=1.5e4)
        energies = np.array([1.0e4, 2.0e4, 1.04e4, 3.0e4])
        for outward, m_idx in self._marches(family):
            window, first = self._check(family, energies, m_idx, outward)
            assert first[0] is not None and first[2] is not None
            assert first[1] is None and first[3] is None
            assert np.isnan(window[:, [1, 3]]).all()

    def test_discarded_rows_warn_nothing(self):
        p = caption_params(screening=0.03)
        cases = [
            (coulomb_family(1.0, -1.0, kappa), (-0.999, -0.02))
            for kappa in sorted({kappa for _, kappa in COULOMB_ANCHOR_STATES})
        ]
        # the inward march rescales at a few hundred rows
        cases.append((spin_family(p, -2), scan_window(p, 0, -2, SPIN)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family, window in cases:
                _match_vec(family, np.linspace(*window, 240), _match_index(family, window))
            # h^2 W / 12 = 0.999 for E = 119880, so each step grows about
            # 1e4-fold and rows marched past a rescale overflow in the chunk
            family = _sqrt_energy_family()
            for outward, m_idx in self._marches(family):
                _, first = self._check(family, np.array([119880.0, 1.0e4]), m_idx, outward)
                assert first[0] < first[1]


class TestChunkMemory:
    """The batched march keeps only chunk-sized buffers: coefficients for
    the whole 12,000-row grid at 240 energies would take 23 MB."""

    def test_scan_march_peak_below_2mb(self):
        family = coulomb_family(1.0, -1.0, 1)
        window = (-0.999, -0.02)
        energies = np.linspace(*window, 240)
        m_idx = _match_index(family, window)
        _match_vec(family, energies, m_idx)
        tracemalloc.start()
        try:
            _match_vec(family, energies, m_idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6


def _reference_scan(family, window, tol=1e-10, scan_points=240):
    """scan_eigenvalues as first written: every sign-change cell of the
    batched scan refined, in ascending energy."""
    lo, hi = window
    m_idx = oracle._match_index(family, window)
    if m_idx is None:
        return []
    m_idx = min(max(m_idx, 4), len(family.r) - 6)
    pad = (hi - lo) * 1.0e-9
    e_grid = np.linspace(lo + pad, hi - pad, scan_points)
    fvals, _ = _match_vec(family, e_grid, m_idx)
    found = []
    for i in range(scan_points - 1):
        f_lo, f_hi = fvals[i], fvals[i + 1]
        if np.isfinite(f_lo) and np.isfinite(f_hi) and f_lo * f_hi < 0.0:
            root = _refine(family, m_idx, e_grid[i], e_grid[i + 1], f_lo, f_hi, tol)
            found.append((float(root), int(_match_scalar(family, root, m_idx)[1])))
    return found


def _reference_pick(family, window, found, node_target):
    """shoot_eigenvalue as first written, given every refined root: the
    first with the wanted node count."""
    if not found:
        raise NoRootInWindow(
            f"no matching-function zero in ({window[0]}, {window[1]}) for {family.label}"
        )
    for e, nodes in found:
        if nodes == node_target:
            return e
    counts = sorted(nodes for _, nodes in found)
    raise NodeMismatch(f"roots found with node counts {counts}, wanted {node_target}")


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except (NodeMismatch, NoRootInWindow) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestShootReference:
    """shoot_eigenvalue refines first the brackets whose scan node counts
    bracket the target; it must return what refining every bracket and then
    picking returned, errors included."""

    WINDOW = (-0.999, -0.02)

    def _check(self, family, window, node_targets):
        found = _reference_scan(family, window)
        wants = [_outcome(_reference_pick, family, window, found, n) for n in node_targets]
        for n, want in zip(node_targets, wants):
            got = _outcome(shoot_eigenvalue, family, window, n, tol=1e-10)
            assert got == want
        # all targets from one scan: the values, or the first target's error
        errors = [want for want in wants if want.startswith(("NodeMismatch", "NoRootInWindow"))]
        batch = _outcome(shoot_eigenvalues, family, window, list(node_targets), tol=1e-10)
        assert batch == (errors[0] if errors else "[" + ", ".join(wants) + "]")

    @pytest.mark.parametrize("match_index", [None, 100, 400, 2000])
    @pytest.mark.parametrize("kappa", [1, 2, -1, 3])
    def test_coulomb_anchors(self, kappa, match_index, monkeypatch):
        family = coulomb_family(1.0, -1.0, kappa)
        if match_index is None:
            want = _reference_scan(family, self.WINDOW)
            assert repr(scan_eigenvalues(family, self.WINDOW)) == repr(want)
        fixed_match_index(monkeypatch, match_index)
        self._check(family, self.WINDOW, range(4))

    @pytest.mark.parametrize("approximate", [False, True])
    @pytest.mark.parametrize("screening", [0.2, 0.1, 0.05])
    def test_hard_wall_spin(self, screening, approximate):
        # the acceptance criterion 8 families; n = 1 is a NodeMismatch
        family = spin_family(
            caption_params(screening=screening), -2, approximate=approximate,
            r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True,
        )
        window = (3.5, 4.9)
        got = scan_eigenvalues(family, window, tol=1e-10, scan_points=120)
        assert repr(got) == repr(_reference_scan(family, window, scan_points=120))
        self._check(family, window, (0, 1))

    def test_node_mismatch(self):
        family = coulomb_family(1.0, -1.0, 1)
        self._check(family, (-0.7, -0.3), (7,))
        with pytest.raises(NodeMismatch, match=r"node counts \[0\], wanted 7"):
            shoot_eigenvalue(family, (-0.7, -0.3), node_target=7)

    def test_anchor_shot_refines_one_bracket(self, monkeypatch):
        # the kappa = 1 and 2 windows hold 7, 7 and 6 brackets
        calls = []

        def counted(*args):
            calls.append(args)
            return _refine(*args)

        monkeypatch.setattr(oracle, "_refine", counted)
        for n, kappa in COULOMB_ANCHOR_STATES:
            calls.clear()
            shoot_eigenvalue(coulomb_family(1.0, -1.0, kappa), self.WINDOW, n, tol=1e-10)
            assert len(calls) == 1


    @pytest.mark.parametrize("targets,refined", [([0, 1], 2), ([1, 0, 1, 0], 2), ([2, 0], 2)])
    def test_targets_share_one_scan(self, targets, refined, monkeypatch):
        scans, refines = [], []
        match_vec = oracle._match_vec

        def counted_scan(*args):
            scans.append(args)
            return match_vec(*args)

        def counted_refine(*args):
            refines.append(args)
            return _refine(*args)

        monkeypatch.setattr(oracle, "_match_vec", counted_scan)
        monkeypatch.setattr(oracle, "_refine", counted_refine)
        family = coulomb_family(1.0, -1.0, 1)
        shots = shoot_eigenvalues(family, self.WINDOW, targets, tol=1e-10)
        assert (len(scans), len(refines)) == (1, refined)
        for n, shot in zip(targets, shots):
            assert abs(shot - coulomb_energy(1.0, -1.0, n, 1)) <= 1e-6


def _reference_refine(family, m_idx, lo, hi, flo, fhi, tol):
    """_refine as first written, under a 120-step cap. The matching function
    is deterministic, so an energy the loop returns to once its bracket has
    stopped shrinking is looked up, not marched again."""
    matched = {}
    a, b, fa, fb = float(lo), float(hi), float(flo), float(fhi)
    side = 0
    for _ in range(120):
        if b - a <= tol:
            break
        denom = fb - fa
        c = (a * fb - b * fa) / denom if denom != 0.0 else 0.5 * (a + b)
        if not a < c < b:
            c = 0.5 * (a + b)
        if c not in matched:
            matched[c] = _match_scalar(family, c, m_idx)[0]
        fc = matched[c]
        if fc == 0.0:
            return c
        if fa * fc < 0.0:
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == +1:
                fb *= 0.5
            side = +1
    return 0.5 * (a + b)


class TestRefineReference:
    """_refine stops once tol is met or no double lies strictly between the
    ends of its bracket. Such a bracket never moved again under the old
    120-step cap, so every root is the one the cap returned."""

    FAMILIES = {
        **{f"coulomb_k{k}": (lambda k=k: coulomb_family(1.0, -1.0, k), (-0.999, -0.02), 240)
           for k in (1, 2, -1, 3)},
        # the acceptance criterion 8 families
        **{f"hard_wall_{alpha}_{approximate}": (
            lambda alpha=alpha, approximate=approximate: spin_family(
                caption_params(screening=alpha), -2, approximate=approximate,
                r_min=0.05, r_max=15.0, step=1e-3, hard_wall=True,
            ), (3.5, 4.9), 120)
           for alpha in (0.2, 0.1, 0.05) for approximate in (False, True)},
    }

    @pytest.mark.parametrize("tol", [1e-10, 1e-16, 1e-300])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_roots_match_the_capped_loop(self, name, tol, monkeypatch):
        make, window, points = self.FAMILIES[name]
        family = make()
        scan = oracle._scan(family, window, tol, points)
        assert scan is not None and len(scan.cells)
        calls = []
        match_scalar = oracle._match_scalar

        def counted(*args):
            calls.append(args)
            return match_scalar(*args)

        for i in scan.cells.tolist():
            args = (family, scan.m_idx, scan.energies[i], scan.energies[i + 1],
                    scan.mismatch[i], scan.mismatch[i + 1], tol)
            want = _reference_refine(*args)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_match_scalar", counted)
                got = _refine(*args)
            assert repr(got) == repr(want)
            # 11 to 22 matches on these 30 roots at tol 1e-300; the capped
            # loop made 120 whenever tol was below the doubles' spacing
            assert len(calls) <= 24


class TestInputChecks:
    """Bad arguments fail with ValueError before any march."""

    WINDOW = (-0.999, -0.02)

    @pytest.fixture
    def family(self, monkeypatch):
        def no_march(*args):
            raise AssertionError("marched before checking the arguments")

        monkeypatch.setattr(oracle, "_match_index", no_march)
        monkeypatch.setattr(oracle, "_match_vec", no_march)
        monkeypatch.setattr(oracle, "_march", no_march)
        return coulomb_family(1.0, -1.0, 1)

    @pytest.mark.parametrize(
        "window, message",
        [
            # the family has roots at -0.6 and -0.882 inside each window
            ((-0.999, math.inf), "window must be finite"),
            ((-math.inf, -0.02), "window must be finite"),
            ((-1.0e308, 1.0e308), "wider than the largest float"),
            ((-0.02, -0.999), "bad window"),
            ((-0.5, -0.5), "bad window"),
        ],
    )
    @pytest.mark.parametrize("shoot", [False, True])
    def test_window_finite(self, family, shoot, window, message):
        with pytest.raises(ValueError, match=message):
            if shoot:
                shoot_eigenvalue(family, window, 0)
            else:
                scan_eigenvalues(family, window)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (dict(r_min=0.0), "r_min must be positive"),
            (dict(r_min=-1e-4), "r_min must be positive"),
            (dict(step=0.0), "need step > 0 and r_max > r_min"),
            (dict(step=-1e-4), "need step > 0 and r_max > r_min"),
            (dict(r_max=1e-4), "need step > 0 and r_max > r_min"),
            (dict(r_max=1.5e-3), r"grid too short \(15 points\)"),
            (dict(r_max=math.inf), "r_max must be finite, got inf"),
            (dict(r_max=math.nan), "r_max must be finite, got nan"),
            (dict(step=math.nan), "step must be finite, got nan"),
        ],
    )
    def test_grid_checked(self, grid, message):
        with pytest.raises(ValueError, match=message):
            constant_family(**grid)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("shoot", [False, True])
    def test_tol_positive_and_finite(self, family, shoot, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            if shoot:
                shoot_eigenvalue(family, self.WINDOW, 0, tol=tol)
            else:
                scan_eigenvalues(family, self.WINDOW, tol=tol)

    @pytest.mark.parametrize("scan_points", [1, 0, -5])
    def test_scan_points_at_least_two(self, family, scan_points):
        with pytest.raises(ValueError, match="scan_points must be at least 2"):
            scan_eigenvalues(family, self.WINDOW, scan_points=scan_points)

    @pytest.mark.parametrize("node_target", [-1, -7])
    def test_node_target_nonnegative(self, family, node_target):
        with pytest.raises(ValueError, match="node_target must be nonnegative"):
            shoot_eigenvalue(family, self.WINDOW, node_target)

    def test_every_node_target_checked_first(self, family):
        with pytest.raises(ValueError, match="node_target must be nonnegative, got -2"):
            shoot_eigenvalues(family, self.WINDOW, [0, 1, -2])


class TestRadialProblem:
    def test_effective_potential_callable(self):
        p = caption_params()
        family = pspin_family(p, -1)
        rows = [int(np.argmin(np.abs(family.r - x))) for x in (1.0, 2.0, 5.0)]
        r = family.r[rows]
        w = family.effective_potential(-2.0)[rows]
        s = np.exp(-2.0 * p.screening * r)
        cent = 4.0 * p.screening**2 * s / (1.0 - s) ** 2
        lam = -1.0
        expected = lam * (lam - 1.0) * cent - (-2.0 - 5.0 + 5.5) * p.v0 * s * cent + (
            (5.0 - 2.0) * (5.0 + 2.0 - 5.5)
        )
        assert np.allclose(w, expected, rtol=1e-12)

    @pytest.mark.parametrize("symmetry", [PSPIN, SPIN])
    @pytest.mark.parametrize("approximate", [True, False])
    @pytest.mark.parametrize("hard_wall", [False, True])
    @pytest.mark.parametrize("h", [0.0, 5.0])
    @pytest.mark.parametrize("screening, v0", [(0.05, 1.0), (0.7, 3.0e4)])
    def test_iqy_coefficients_bits(self, symmetry, approximate, hard_wall, h, screening, v0):
        # c0 and c1 as two separate callables wrote them, each with its own
        # centrifugal factor and c1 with its own exp(-2 alpha r)
        p = caption_params(tensor_h=h, screening=screening, v0=v0)

        def cent(r):
            if not approximate:
                return 1.0 / (r * r)
            s = np.exp(-2.0 * screening * r)
            one_minus = -np.expm1(-2.0 * screening * r)
            return 4.0 * screening**2 * s / one_minus**2

        for kappa in (-2, -1, 1, 2):
            family = iqy_family(p, kappa, symmetry, approximate, hard_wall=hard_wall)
            r = family.r
            lam = effective_centrifugal(kappa, h, symmetry)
            assert family._c0.tobytes() == (lam * (lam - 1.0) * cent(r)).tobytes()
            assert family._c1.tobytes() == (-v0 * np.exp(-2.0 * screening * r) * cent(r)).tobytes()

    @pytest.mark.parametrize("kappa", sorted({k for _, k in COULOMB_ANCHOR_STATES} | {-1}))
    @pytest.mark.parametrize("b_coeff", [-1.0, -0.7])
    def test_coulomb_coefficients_bits(self, kappa, b_coeff):
        family = coulomb_family(1.0, b_coeff, kappa, r_max=60.0, step=5.0e-3)
        r = family.r
        assert family._c0.tobytes() == (kappa * (kappa - 1.0) / (r * r)).tobytes()
        assert family._c1.tobytes() == (-b_coeff / r).tobytes()

    def test_grid_geometry(self):
        p = caption_params()
        family = pspin_family(p, -1)
        assert family.r_max == pytest.approx(14.0 / p.screening)
        assert family.step == pytest.approx(1.0e-3 / p.screening)
        assert math.exp(-2.0 * p.screening * family.r_max) < 1e-12
        assert np.all(np.diff(family.r) > 0.0)


def _grid_pass_match_index(family, window):
    """The 33-energy pass over the grid, as ``_match_index`` runs it when the
    family's gamma bound does not decide."""
    lo, hi = window
    n_grid = len(family.r)
    best_idx, best_depth = None, 0.0
    for e in np.linspace(lo, hi, 33):
        g1, g2 = map(float, family.couplings(float(e)))
        w = family._c0 + g1 * family._c1 + g2
        idx = int(np.argmin(w[4 : n_grid - 5])) + 4
        if w[idx] < best_depth:
            best_depth, best_idx = float(w[idx]), idx
    return best_idx


def _table_family(c0, c1, couplings=None):
    """A 40-row family with the given coefficient rows; by default gamma is
    the energy and beta^2 = 0."""
    if couplings is None:
        def couplings(e):
            e = np.asarray(e, dtype=float)
            return e, 0.0 * e

    return ProblemFamily(
        coefficients=lambda r: (np.asarray(c0, dtype=float), np.asarray(c1, dtype=float)),
        couplings=couplings,
        seed=lambda gamma, bsq: (1.0 + 0.0 * gamma, 0.0 * gamma, 0.0 * gamma),
        r_min=0.1,
        r_max=4.0,
        step=0.1,
        label="table",
    )


_ROWS = np.arange(40)
_SUBNORMAL = 5e-324
_FLOAT_MAX = np.finfo(float).max


class TestWVerdict:
    """``_match_index`` decides "W >= 0 at every sampled energy" from the
    family's gamma bound when it can; its value is always the grid pass's."""

    @staticmethod
    def _random_case(rng):
        if rng.random() < 0.15:
            kappa = rng.choice([-2, -1, 1, 2, 3])
            family = coulomb_family(1.0, rng.choice([-1.0, -0.7, 0.5]), kappa)
            return family, [(-0.999, -0.02), tuple(sorted(rng.uniform(-3.0, 3.0, 2)))]
        symmetry = rng.choice([PSPIN, SPIN])
        p = caption_params(
            screening=float(np.exp(rng.uniform(np.log(0.01), np.log(1.0)))),
            v0=float(np.exp(rng.uniform(np.log(0.01), np.log(1000.0)))),
            tensor_h=float(rng.choice([0.0, 5.0, rng.uniform(0.0, 6.0)])),
        )
        kappa = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        kind = rng.random()
        if kind < 0.2:
            family = iqy_family(p, kappa, symmetry, approximate=False)
        elif kind < 0.4:
            family = iqy_family(p, kappa, symmetry, r_min=0.05, hard_wall=True)
        else:
            family = iqy_family(p, kappa, symmetry)
        windows = [tuple(sorted(rng.uniform(-8.0, 8.0, 2)))]
        window = scan_window(p, int(rng.integers(3)), kappa, symmetry)
        if window is not None:
            windows.append(window)
        return family, windows

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_grid_pass_on_random_families(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        grid_passes = []
        evaluate = ProblemFamily.effective_potential

        def counted(family, e):
            grid_passes.append(e)
            return evaluate(family, e)

        monkeypatch.setattr(ProblemFamily, "effective_potential", counted)
        by_bound = by_pass = 0
        for _ in range(20):
            family, windows = self._random_case(rng)
            for window in windows:
                grid_passes.clear()
                assert _match_index(family, window) == _grid_pass_match_index(family, window)
                by_pass += bool(grid_passes)
                by_bound += not grid_passes
        # both routes are exercised
        assert by_bound and by_pass

    @pytest.mark.parametrize(
        "c0, c1, bound",
        [
            # c0 = 0 rows with c1 of both signs pin both ends at 0
            (np.where(_ROWS % 3 == 0, 0.0, 1.0), np.sin(_ROWS + 0.5), (0.0, 0.0)),
            # no c1 > 0 row: the lower end is the largest float
            (1.0 + 0.0 * _ROWS, -2.0 + 0.0 * _ROWS, (-_FLOAT_MAX, 0.5 * (1.0 - 1e-12))),
            # subnormal c0 over c1 = -1: a subnormal ratio counts as 0
            (_SUBNORMAL * (1.0 + _ROWS), -1.0 + 0.0 * _ROWS, (-_FLOAT_MAX, 0.0)),
            # subnormal c0 over a tiny c1: a normal ratio, least on row 4
            (
                _SUBNORMAL * (1.0 + _ROWS),
                -1e-300 + 0.0 * _ROWS,
                (-_FLOAT_MAX, 5.0 * _SUBNORMAL / 1e-300 * (1.0 - 1e-12)),
            ),
            # normal c0 over a huge c1: a subnormal ratio counts as 0
            (1e-300 + 0.0 * _ROWS, np.where(_ROWS % 2, 1e10, -1e10), (0.0, 0.0)),
            # ratios past the largest float: the ends are capped
            (1e300 + 0.0 * _ROWS, np.where(_ROWS % 2, 1e-10, -1e-10), (-_FLOAT_MAX, _FLOAT_MAX)),
            # a negative c0 row, a non-finite coefficient: no bound
            (np.where(_ROWS == 20, -1.0, 1.0), -1.0 + 0.0 * _ROWS, None),
            (np.where(_ROWS == 20, np.inf, 1.0), -1.0 + 0.0 * _ROWS, None),
            (1.0 + 0.0 * _ROWS, np.where(_ROWS == 20, np.nan, -1.0), None),
        ],
    )
    def test_hand_built_families(self, c0, c1, bound):
        family = _table_family(c0, c1)
        assert family._gamma_bound == bound
        windows = [(0.0, 0.0), (-1.0, 0.0), (0.0, 1e-300), (0.0, 2e-23), (0.0, 1e-22)]
        windows += [(-1.0, 1.0), (0.0, 0.5), (0.4, 0.6), (-1e307, 1e307), (0.0, 1e308)]
        for window in windows:
            # the widest windows overflow W in some rows on both routes
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _grid_pass_match_index(family, window)
                assert _match_index(family, window) == expected, window

    def test_nan_couplings_fall_back(self):
        def couplings(e):
            e = np.asarray(e, dtype=float)
            return np.where(e > 0.5, np.nan, e), 1.0 + 0.0 * e

        # W = 1 - e at the sampled energies up to 0.5 and NaN above
        family = _table_family(1.0 + 0.0 * _ROWS, -1.0 + 0.0 * _ROWS, couplings)
        for window in [(0.0, 0.5), (0.0, 1.0), (0.0, 4.0)]:
            assert _match_index(family, window) == _grid_pass_match_index(family, window)

    @pytest.mark.parametrize("scale", [-315, -200, 0, 200, 300])
    def test_rows_nonnegative_at_both_ends(self, scale):
        # the rounded W is monotone in gamma, so both ends are the worst cases
        rng = np.random.default_rng(scale + 400)
        c0 = 10.0 ** (scale + rng.uniform(-3.0, 3.0, 5000))
        c0[rng.random(5000) < 0.02] = 0.0
        c1 = rng.choice([-1.0, 1.0], 5000) * c0 * 10.0 ** rng.uniform(-3.0, 3.0, 5000)
        c1[rng.random(5000) < 0.02] = 0.0
        # rows with the ratio exactly at the least one
        c1[:50] = -c0[:50] * 1e3
        g_lo, g_hi = oracle._gamma_interval(c0, c1)
        assert g_lo < 0.0 < g_hi
        for gamma in (g_lo, g_hi):
            assert (c0 + gamma * c1 + 0.0).min() >= 0.0

    @pytest.mark.parametrize("symmetry, h", [(PSPIN, 0.0), (SPIN, 5.0)])
    @pytest.mark.parametrize("screening", [0.03, 0.2])
    @pytest.mark.parametrize("kappa", [-2, -1, 1, 2])
    def test_caption_flat_families_skip_the_grid_pass(
        self, monkeypatch, symmetry, h, screening, kappa
    ):
        p = caption_params(screening=screening, tensor_h=h)
        family = iqy_family(p, kappa, symmetry)

        def no_grid_pass(family, e):
            raise AssertionError("W evaluated on the grid")

        monkeypatch.setattr(ProblemFamily, "effective_potential", no_grid_pass)
        assert scan_eigenvalues(family, scan_window(p, 0, kappa, symmetry), tol=1e-9) == []


def hardy_margin(family, e):
    """(min over the grid of r^2 (c0 + gamma c1) + 1/4, least W) at energy e:
    W - beta^2 = c0 + gamma c1 is B(r) times 1/r^2 or the Greene-Aldrich
    factor, with B = lambda (lambda - 1) - gamma V0 exp(-2 alpha r)."""
    c0, c1 = family.coefficients(family.r)
    gamma, bsq = map(float, family.couplings(e))
    w_minus_bsq = c0 + gamma * c1
    return float(np.min(family.r**2 * w_minus_bsq)) + 0.25, float(np.min(w_minus_bsq + bsq))


class TestHardyLemma:
    """No bound state for any parameter set, on the exact 1/r^2 equation and
    on its Greene-Aldrich form: inside the scan window beta^2 > 0 and
    rad = (lambda - 1/2)^2 - gamma V0 >= 0, so B(r) >= -1/4 (B >= rad - 1/4
    where gamma V0 >= 0, B >= lambda (lambda - 1) = (lambda - 1/2)^2 - 1/4
    otherwise). With 0 < r^2 c(r) <= 1 for both factors c, W >= -1/(4 r^2)
    + beta^2, and Hardy's inequality (integral of u'^2 >= 1/4 integral of
    u^2 / r^2 for u(0) = 0) leaves integral of u'^2 + W u^2 >= beta^2 integral
    of u^2 > 0: no L^2 solution of u'' = W u exists."""

    @given(
        mass=st.floats(min_value=0.3, max_value=100.0),
        v0=st.floats(min_value=1e-3, max_value=100.0),
        screening=st.floats(min_value=0.01, max_value=1.0),
        charge=st.floats(min_value=-20.0, max_value=20.0),
        tensor_h=st.sampled_from([0.0, 0.3, 0.5, 1.7, 5.0]),
        kappa=st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
        symmetry=st.sampled_from([PSPIN, SPIN]),
        approximate=st.booleans(),
    )
    @settings(max_examples=250, deadline=None)
    def test_margin_nonnegative_in_the_scan_window(
        self, mass, v0, screening, charge, tensor_h, kappa, symmetry, approximate
    ):
        p = PhysicalParams(
            mass=mass, v0=v0, screening=screening, tensor_h=tensor_h, c_spin=charge, c_pspin=charge
        )
        # C past -2M (pspin) or 2M (spin) leaves the strict window empty
        assume(charge > -2.0 * mass if symmetry == PSPIN else charge < 2.0 * mass)
        window = scan_window(p, 0, kappa, symmetry)
        assume(window is not None)
        family = iqy_family(p, kappa, symmetry, approximate=approximate, step=14.0 / screening / 4000)
        lam = effective_centrifugal(kappa, tensor_h, symmetry)
        for e in np.linspace(*window, 9).tolist():
            gamma, _ = family.couplings(e)
            # rounding in the grid factors and in c0 + gamma c1
            slack = 1e-12 * (abs(lam * (lam - 1.0)) + abs(gamma * v0))
            assert hardy_margin(family, e)[0] >= -slack, e

    @pytest.mark.parametrize("approximate", [True, False])
    @pytest.mark.parametrize("kappa", [-2, 1])
    def test_w_dips_below_zero_where_the_lemma_holds(self, approximate, kappa):
        # caption spin doublet at H 0: near the inner-root cap, W < 0 on part
        # of the grid, so W >= 0 is not what excludes a bound state
        p = caption_params()
        family = iqy_family(p, kappa, SPIN, approximate=approximate, step=14.0 / 0.05 / 4000)
        margins = [hardy_margin(family, e) for e in np.linspace(*scan_window(p, 0, kappa, SPIN), 9)]
        assert all(margin > 0.0 for margin, _ in margins)
        assert any(least_w < 0.0 for _, least_w in margins)
