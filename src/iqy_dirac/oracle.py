"""Shooting-method eigenvalue oracle for the decoupled radial equations.

Solves u'' = W(r, E) u on a fixed grid with a fourth-order (Numerov) march
from both boundaries, matching at an interior point through a normalized
Wronskian of the two one-sided solutions. The trial energy enters W
nonlinearly through the coupling and decay factors, which shooting
accommodates directly; an outer bracketing search drives the mismatch to
zero.

The effective potential is held in the split form

    W(r, E) = c0(r) + gamma(E) * c1(r) + beta_sq(E)

so a whole vector of trial energies marches in one pass during scans, while
root polishing and whole-grid integration share one plain-float march.
Neither march can serve the other's callers. On the kappa = 1 Coulomb anchor
(12,000 grid rows; one Xeon core, Python 3.11, numpy 2.4, best of 7) one
plain-float match takes 1.9 ms and a batched match of one energy 23 ms, but
the batched match of a scan's 240 energies takes 39 ms, not 240 x 1.9 ms.

A family gives the energy dependence by two callables: ``couplings(e)``
returns (gamma, beta_sq), and ``seed(gamma, beta_sq)`` the small-r power-law
index and the 1/r and constant coefficients of W that seed the outward
march. Each march is written in one direction: an inward march is the
outward recurrence run over the reversed grid, seeded with the decaying
large-r solution.

A march builds its Numerov step coefficients once, before it steps: the
plain-float march for every row it visits, the batched march in chunks of
64 grid rows. The loops then only read them, and give the bits of a loop
that rebuilds W at every step. The batched march allocates its buffers
once and writes every chunk into them. It keeps the coefficients of one
step's two products side by side, as the pair (b_k, 2a_{k+1}), so a step
is three array calls: one multiply of the two rows before it by the pair,
a subtract and a divide, the reference's operations in its order.

Rescaling keeps a march inside the float range. The plain-float march tests
each sample as it goes. The batched march steps a whole chunk first and
then tests the chunk's rows in one pass; only when some row has a column
past 1e100 or below 1e-100 (and not zero) does it rescale the first such
row, as a per-row test would have, and march the chunk again from the next
row. The rows before it needed no rescale, and a rescale by a positive
factor leaves the signs already counted as nodes unchanged, so the result
is the per-row test's, bit for bit.

A scan marches a grid of trial energies in one batch and refines each
sign change of the matching function with the plain-float march. Shooting
for one state uses the node counts the batched march already has: it
refines first, in ascending energy, only the sign-change cells whose
endpoint counts bracket the wanted count, and falls back to the other
cells when none of those roots has it. Shooting for several counts in one
family shares one scan and refines each cell at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dirac_iqy import (
    PSPIN,
    SPIN,
    PhysicalParams,
    _centrifugal_radicand,
    _couplings,
    effective_centrifugal,
    symmetry_record,
)
from .errors import NodeMismatch, NoRootInWindow, SeedUndefined

_OVERFLOW_LIMIT = 1.0e100
_UNDERFLOW_LIMIT = 1.0e-100
# Grid rows the batched march builds step coefficients for and keeps samples
# of at a time; at 240 trial energies one chunk is 0.12 MB per array.
_CHUNK_ROWS = 64
# Trial energies of the batched scan over a window.
_SCAN_POINTS = 240


@dataclass
class ProblemFamily:
    """Radial problem parameterized by the trial energy.

    The energy enters only through two callables, each taking a float or an
    array of energies:

    - ``couplings(e) -> (gamma, beta_sq)``, the factors of W's split form;
    - ``seed(gamma, beta_sq) -> (nu, w1, w0)``, the power-law index of the
      regular small-r solution and the 1/r and constant coefficients of W as
      r -> 0. The two coefficients sharpen the outward march's power-law
      seed by two Frobenius orders, which keeps seed contamination below the
      grid-convergence tolerance even for slowly suppressed indices.
    """

    c0_fn: Callable[[np.ndarray], np.ndarray]
    c1_fn: Callable[[np.ndarray], np.ndarray]
    couplings: Callable
    seed: Callable
    r_min: float
    r_max: float
    step: float
    hard_wall: bool = False
    label: str = ""
    r: np.ndarray = field(init=False, repr=False)
    _c0: np.ndarray = field(init=False, repr=False)
    _c1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.r_min > 0.0:
            raise ValueError(f"r_min must be positive, got {self.r_min}")
        if self.step <= 0.0 or self.r_max <= self.r_min:
            raise ValueError("need step > 0 and r_max > r_min")
        count = int(round((self.r_max - self.r_min) / self.step)) + 1
        if count < 16:
            raise ValueError(f"grid too short ({count} points)")
        self.r = self.r_min + self.step * np.arange(count)
        self._c0 = np.asarray(self.c0_fn(self.r), dtype=float)
        self._c1 = np.asarray(self.c1_fn(self.r), dtype=float)

    def effective_potential(self, e: float) -> np.ndarray:
        """W(r, e) on the family's grid, from the cached coefficients."""
        g1, g2 = map(float, self.couplings(e))
        return self._c0 + g1 * self._c1 + g2


# ---------------------------------------------------------------------------
# Family constructors


def _centrifugal_fn(screening: float, approximate: bool) -> Callable:
    if not approximate:
        return lambda r: 1.0 / (r * r)

    def approx(r):
        s = np.exp(-2.0 * screening * r)
        one_minus = -np.expm1(-2.0 * screening * r)
        return 4.0 * screening**2 * s / one_minus**2

    return approx


def iqy_family(
    params: PhysicalParams,
    kappa: int,
    symmetry: str,
    approximate: bool = True,
    r_min: Optional[float] = None,
    r_max: Optional[float] = None,
    step: Optional[float] = None,
    hard_wall: bool = False,
) -> ProblemFamily:
    """Spin or pseudospin radial problem, approximated or exact centrifugal
    factor."""
    alpha = params.screening
    h = step if step is not None else 1.0e-3 / alpha
    shifted = effective_centrifugal(kappa, params.tensor_h, symmetry)
    cent = _centrifugal_fn(alpha, approximate)

    def c0_fn(r):
        return shifted * (shifted - 1.0) * cent(r)

    def c1_fn(r):
        return -params.v0 * np.exp(-2.0 * alpha * r) * cent(r)

    sym = symmetry_record(symmetry)

    def couplings(e):
        return _couplings(params, e, sym)

    def seed(gamma, bsq):
        rad = _centrifugal_radicand(params, kappa, gamma, symmetry)
        rad = np.where(np.asarray(rad) >= 0.0, rad, np.nan)
        # small-r expansion of -v0*exp(-2*alpha*r)*c(r); the centrifugal
        # factor itself is even in r and contributes no 1/r term
        w1 = 2.0 * alpha * params.v0 * gamma
        w0 = bsq - 2.0 * alpha**2 * params.v0 * gamma
        if approximate:
            w0 = w0 - alpha**2 * (shifted * (shifted - 1.0) - gamma * params.v0) / 3.0
        return 0.5 + np.sqrt(rad), w1, w0

    return ProblemFamily(
        c0_fn=c0_fn,
        c1_fn=c1_fn,
        couplings=couplings,
        seed=seed,
        r_min=r_min if r_min is not None else h,
        r_max=r_max if r_max is not None else 14.0 / alpha,
        step=h,
        hard_wall=hard_wall,
        label=f"{symmetry} kappa={kappa} H={params.tensor_h}"
        + ("" if approximate else " exact-centrifugal"),
    )


pspin_family = partial(iqy_family, symmetry=PSPIN)
spin_family = partial(iqy_family, symmetry=SPIN)


def coulomb_family(
    mass: float,
    b_coeff: float,
    kappa: int,
    r_max: float = 60.0,
    step: float = 5.0e-3,
) -> ProblemFamily:
    """Pseudospin-type problem with a pure 1/r coupling; exactly solvable
    anchor used to validate the shooting machinery on a nonempty spectrum."""

    def c0_fn(r):
        return kappa * (kappa - 1.0) / (r * r)

    def c1_fn(r):
        return -b_coeff / r

    def couplings(e):
        return e - mass, (mass + e) * (mass - e)

    index = 0.5 + abs(kappa - 0.5)

    def seed(gamma, bsq):
        return index + 0.0 * np.asarray(gamma, dtype=float), -b_coeff * gamma, bsq

    return ProblemFamily(
        c0_fn=c0_fn,
        c1_fn=c1_fn,
        couplings=couplings,
        seed=seed,
        r_min=step,
        r_max=r_max,
        step=step,
        label=f"coulomb kappa={kappa} B={b_coeff}",
    )


# ---------------------------------------------------------------------------
# Numerov marches


def _seed_series(family: ProblemFamily, e):
    """Power-law index nu and coefficients a1, a2 of the regular small-r seed
    r^nu (1 + a1 r + a2 r^2), for a float or an array of energies."""
    index, w1, w0 = family.seed(*family.couplings(e))
    if not np.all(np.isfinite(index)):
        raise SeedUndefined(
            "small-r power-law index is complex inside the window; "
            "the regular boundary solution does not exist"
        )
    a1 = w1 / (2.0 * index)
    a2 = (w1 * a1 + w0) / (4.0 * index + 2.0)
    return index, a1, a2


def _outward_seed_scalar(family: ProblemFamily, e: float) -> Tuple[float, float]:
    if family.hard_wall:
        return 0.0, 1.0
    index, a1, a2 = map(float, _seed_series(family, e))
    r0, r1 = family.r[0], family.r[1]
    p0 = 1.0 + a1 * r0 + a2 * r0 * r0
    p1 = 1.0 + a1 * r1 + a2 * r1 * r1
    u1 = r1**index * p1
    # the batched march's ratio form moves crosscheck_spin.txt's |dE| cells in
    # the 9th digit, so it serves only where r1**index underflows to zero
    u0 = r0**index * p0 / u1 if u1 != 0.0 else (r0 / r1) ** index * p0 / p1
    return float(u0), 1.0


def _inward_seed_scalar(family: ProblemFamily, g2: float) -> Tuple[float, float]:
    if g2 <= 0.0:
        raise SeedUndefined("beta^2 <= 0: no decaying large-r seed")
    return math.exp(-math.sqrt(g2) * family.step), 1.0


def _step_coeffs(
    c0, c1, g1, g2, h2: float, w: np.ndarray, two_a: np.ndarray, b: np.ndarray
) -> None:
    """Numerov step coefficients 2a = 2 + 10 h^2 W / 12 and b = 1 - h^2 W / 12
    on the given grid rows, where ``h2`` is h^2 / 12 and W = c0 + c1 g1 + g2,
    written into ``w``, ``two_a`` and ``b``; one step is
    u_i = (u_{i-1} 2a_{i-1} - u_{i-2} b_{i-2}) / b_i. Doubling is exact, so
    2a has the bits of twice 1 + 5 h^2 W / 12."""
    np.multiply(c1, g1, out=w)
    np.add(c0, w, out=w)
    np.add(w, g2, out=w)
    np.multiply(w, 10.0 * h2, out=two_a)
    np.add(two_a, 2.0, out=two_a)
    np.multiply(w, h2, out=b)
    np.subtract(1.0, b, out=b)


def _march(
    family: ProblemFamily, e: float, outward: bool, stop: int, keep: int
) -> Tuple[List[float], int]:
    """Plain-float march through index ``stop`` counted from the starting
    boundary; an inward march is the same loop over the reversed grid.

    Returns the last ``keep`` samples, in march order and on one scale (a
    rescale divides the samples already kept), and the sign changes through
    index ``stop - 2``.
    """
    g1, g2 = map(float, family.couplings(e))
    c0, c1 = family._c0, family._c1
    if outward:
        u_prev, u_curr = _outward_seed_scalar(family, e)
    else:
        u_prev, u_curr = _inward_seed_scalar(family, g2)
        c0, c1 = c0[::-1], c1[::-1]
    h2 = family.step * family.step / 12.0
    w, two_a, b = np.empty((3, stop + 1))
    _step_coeffs(c0[: stop + 1], c1[: stop + 1], g1, g2, h2, w, two_a, b)
    two_a, b = two_a.tolist(), b.tolist()
    first = stop + 1 - keep
    kept = [u_prev, u_curr][first:]
    last_node = stop - 2
    lo_limit, hi_limit = _UNDERFLOW_LIMIT, _OVERFLOW_LIMIT
    nodes = 0
    steps = zip(range(2, stop + 1), two_a[1:stop], b[: stop - 1], b[2 : stop + 1])
    for i, two_a_curr, b_prev, b_new in steps:
        u_new = (u_curr * two_a_curr - u_prev * b_prev) / b_new
        if u_new * u_curr < 0.0 and i <= last_node:
            nodes += 1
        if i >= first:
            kept.append(u_new)
        mag = abs(u_new)
        if not lo_limit <= mag <= hi_limit and mag > 0.0:
            u_curr /= mag
            u_new /= mag
            kept = [u / mag for u in kept]
        u_prev, u_curr = u_curr, u_new
    return kept, nodes


def _sweep_vec(
    family: ProblemFamily, e_vec: np.ndarray, m_idx: int, outward: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized march over a batch of trial energies; inward runs the same
    loop over reversed views of the grid.

    The march fills one buffer whose row k holds the samples of grid row
    ``base + k``, ``_CHUNK_ROWS`` rows at a time, each chunk repeating the
    last two rows of the one before. A chunk builds its step coefficients
    before it steps in place, three array calls per row on views built
    before the loop; every buffer is allocated once per march.

    A chunk is marched to its end before its rows below the matching window
    are tested for rescaling, all in one pass. If a row has a column that
    needs it, the first such row is rescaled and the chunk is marched again
    from the row after it; the rows marched past it are discarded, so their
    overflow warnings are silenced. A NaN column never needs a rescale, and
    a row where no column does gets a factor of 1 in every column, so
    skipping it changes no bit. Nodes are counted from the sign changes
    between the buffer's rows at the end of each chunk, and before any
    rescale, which can turn an infinite sample into NaN and its neighbour
    into zero.
    """
    r = family.r
    h = family.step
    e_vec = np.atleast_1d(np.asarray(e_vec, dtype=float))
    g1, g2 = (np.atleast_1d(np.asarray(g, dtype=float)) for g in family.couplings(e_vec))
    cols = len(e_vec)
    c0, c1 = family._c0, family._c1
    h2 = h * h / 12.0
    window = np.full((5, cols), np.nan)
    nodes = np.zeros(cols, dtype=np.int64)
    buf = np.empty((_CHUNK_ROWS, cols))
    buf[1] = 1.0
    w, two_a, b = np.empty((3, _CHUNK_ROWS, cols))
    # row k holds (b_k, 2a_{k+1}), the coefficients of one step's two products
    pairs = np.empty((_CHUNK_ROWS - 2, 2, cols))
    # |u| of the rows tested for rescaling, or the sign-change products
    scratch = np.empty((_CHUNK_ROWS, cols))
    negative = np.empty((_CHUNK_ROWS, cols), dtype=bool)
    prod = np.empty((2, cols))

    if not outward:
        if np.any(g2 <= 0.0):
            raise SeedUndefined("beta^2 <= 0: no decaying large-r seed")
        buf[0] = np.exp(-np.sqrt(g2) * h)
        c0, c1 = c0[::-1], c1[::-1]
        m_idx = len(c0) - 1 - m_idx
    elif family.hard_wall:
        buf[0] = 0.0
    else:
        index, a1, a2 = _seed_series(family, e_vec)
        buf[0] = (
            (r[0] / r[1]) ** index
            * (1.0 + a1 * r[0] + a2 * r[0] * r[0])
            / (1.0 + a1 * r[1] + a2 * r[1] * r[1])
        )
    lo_i, hi_i = m_idx - 2, m_idx + 2
    # the step to row j multiplies rows j - 2 and j - 1 by pairs[j - 2] into
    # ``prod``, subtracts the two products into row j and divides it by b_j
    u_b, u_two_a = prod
    steps = list(zip(buf[2:], (buf[j - 2 : j] for j in range(2, _CHUNK_ROWS)), pairs, b[2:]))
    for base in range(0, hi_i - 1, _CHUNK_ROWS - 2):
        if base:
            buf[:2] = buf[-2:]
        stop = min(_CHUNK_ROWS, hi_i + 1 - base)
        rows = slice(base, base + stop)
        _step_coeffs(c0[rows, None], c1[rows, None], g1, g2, h2, w[:stop], two_a[:stop], b[:stop])
        pairs[: stop - 2, 0] = b[: stop - 2]
        pairs[: stop - 2, 1] = two_a[1 : stop - 1]
        # rows from ``first_window`` on are the matching window, never rescaled
        first_window = min(max(2, lo_i - base), stop)
        # the sign changes between rows k - 1 and k <= counted are in nodes
        counted = 1
        k = 2
        while True:
            # rows past one that needs a rescale are discarded and may overflow
            with np.errstate(over="ignore", invalid="ignore"):
                for u_new, u_before, pair, b_new in steps[k - 2 : stop - 2]:
                    np.multiply(u_before, pair, out=prod)
                    np.subtract(u_two_a, u_b, out=u_new)
                    np.divide(u_new, b_new, out=u_new)
            if k >= first_window:
                break
            mag = np.abs(buf[k:first_window], out=scratch[k:first_window])
            if mag.max() <= _OVERFLOW_LIMIT and mag.min() >= _UNDERFLOW_LIMIT:
                break
            # NaN fails every comparison, so a NaN column never needs a rescale
            needs = (mag > _OVERFLOW_LIMIT) | ((mag < _UNDERFLOW_LIMIT) & (mag > 0.0))
            flagged = np.flatnonzero(needs.any(axis=1))
            if not flagged.size:
                break
            row = flagged[0]
            # taken before the sign-change count reuses ``scratch``
            factor = np.where(needs[row], 1.0 / np.maximum(mag[row], 1.0e-290), 1.0)
            k += row
            nodes += _sign_changes(buf, counted, k, scratch, negative)
            counted = k
            buf[k - 1] *= factor
            buf[k] *= factor
            k += 1
        window[base + first_window - lo_i : base + stop - lo_i] = buf[first_window:stop]
        nodes += _sign_changes(buf, counted, min(stop - 1, m_idx - base), scratch, negative)
    return (window if outward else window[::-1]), nodes


def _sign_changes(
    buf: np.ndarray, after: int, last: int, scratch: np.ndarray, negative: np.ndarray
) -> np.ndarray:
    """Per column, the strict sign changes between buffer rows k - 1 and k
    for ``after < k <= last``, with the products in ``scratch`` and their
    signs in ``negative``."""
    count = max(last - after, 0)
    products = np.multiply(buf[after + 1 : last + 1], buf[after:last], out=scratch[:count])
    return np.count_nonzero(np.less(products, 0.0, out=negative[:count]), axis=0)


def _mismatch_from_windows(win_o, win_i, h: float):
    u_o, u_i = win_o[2], win_i[2]
    du_o = (-win_o[4] + 8.0 * win_o[3] - 8.0 * win_o[1] + win_o[0]) / (12.0 * h)
    du_i = (-win_i[4] + 8.0 * win_i[3] - 8.0 * win_i[1] + win_i[0]) / (12.0 * h)
    norm = np.hypot(u_o, du_o) * np.hypot(u_i, du_i)
    return (du_o * u_i - du_i * u_o) / np.maximum(norm, 1.0e-300)


def _match_vec(
    family: ProblemFamily, e_vec: np.ndarray, m_idx: int
) -> Tuple[np.ndarray, np.ndarray]:
    win_o, nodes_o = _sweep_vec(family, e_vec, m_idx, outward=True)
    win_i, nodes_i = _sweep_vec(family, e_vec, m_idx, outward=False)
    return _mismatch_from_windows(win_o, win_i, family.step), nodes_o + nodes_i


def _match_scalar(family: ProblemFamily, e: float, m_idx: int) -> Tuple[float, int]:
    last = len(family.r) - 1
    win_o, nodes_o = _march(family, e, True, m_idx + 2, 5)
    win_i, nodes_i = _march(family, e, False, last - m_idx + 2, 5)
    mismatch = _mismatch_from_windows(np.asarray(win_o), np.asarray(win_i[::-1]), family.step)
    return float(mismatch), nodes_o + nodes_i


def _match_index(family: ProblemFamily, window: Tuple[float, float]) -> Optional[int]:
    """Grid index of the deepest effective-potential minimum over the window,
    in [4, len(r) - 6] so the five-point matching window fits inside the grid.

    None when W never turns negative: no classically allowed region, hence
    no eigenvalue, at any sampled energy.
    """
    lo, hi = window
    n_grid = len(family.r)
    best_idx, best_depth = None, 0.0
    for e in np.linspace(lo, hi, 33):
        w = family.effective_potential(float(e))
        idx = int(np.argmin(w[4 : n_grid - 5])) + 4
        if w[idx] < best_depth:
            best_depth, best_idx = float(w[idx]), idx
    return best_idx


def _refine(family: ProblemFamily, m_idx: int, lo, hi, flo, fhi, tol: float) -> float:
    """Illinois false-position iteration inside a sign-change bracket."""
    a, b, fa, fb = float(lo), float(hi), float(flo), float(fhi)
    side = 0
    for _ in range(120):
        if b - a <= tol:
            break
        denom = fb - fa
        c = (a * fb - b * fa) / denom if denom != 0.0 else 0.5 * (a + b)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc, _ = _match_scalar(family, c, m_idx)
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


class _Scan(NamedTuple):
    m_idx: int
    energies: np.ndarray
    mismatch: np.ndarray
    nodes: np.ndarray
    cells: np.ndarray  # ascending indices i where the mismatch changes sign on [i, i + 1]


def _scan(
    family: ProblemFamily,
    window: Tuple[float, float],
    tol: float,
    scan_points: int,
) -> Optional[_Scan]:
    """Checks the arguments, then marches the padded energy grid in one
    batch; None when W never turns negative."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window must be finite, got {window}")
    if not hi > lo:
        raise ValueError(f"bad window ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"window ({lo}, {hi}) is wider than the largest float")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if scan_points < 2:
        raise ValueError(f"scan_points must be at least 2, got {scan_points}")
    m_idx = _match_index(family, window)
    if m_idx is None:
        return None
    pad = (hi - lo) * 1.0e-9
    e_grid = np.linspace(lo + pad, hi - pad, scan_points)
    fvals, nodes = _match_vec(family, e_grid, m_idx)
    finite = np.isfinite(fvals)
    cells = np.flatnonzero(finite[:-1] & finite[1:] & (fvals[:-1] * fvals[1:] < 0.0))
    return _Scan(m_idx, e_grid, fvals, nodes, cells)


def _cell_root(family: ProblemFamily, scan: _Scan, i: int, tol: float) -> Tuple[float, int]:
    """Refined root of sign-change cell ``i`` and its node count."""
    e, f = scan.energies, scan.mismatch
    root = _refine(family, scan.m_idx, e[i], e[i + 1], f[i], f[i + 1], tol)
    _, nodes = _match_scalar(family, root, scan.m_idx)
    return float(root), int(nodes)


def scan_eigenvalues(
    family: ProblemFamily,
    window: Tuple[float, float],
    tol: float = 1.0e-10,
    scan_points: int = _SCAN_POINTS,
) -> List[Tuple[float, int]]:
    """All shooting eigenvalues in the window as (energy, node count) pairs.

    Empty when the effective potential never opens a classically allowed
    region, or when the matching function has no zero crossing.
    """
    scan = _scan(family, window, tol, scan_points)
    if scan is None:
        return []
    return [_cell_root(family, scan, i, tol) for i in scan.cells]


def shoot_eigenvalues(
    family: ProblemFamily,
    window: Tuple[float, float],
    node_targets: Sequence[int],
    tol: float = 1.0e-10,
) -> List[float]:
    """For each requested number of interior nodes, the eigenvalue in the
    window whose eigenfunction has it; one batched scan serves them all.

    The node counts of the scan pick the brackets to refine: first, in
    ascending energy, the sign-change cells whose endpoint counts bracket
    the target, returning the first root whose own count is the target.
    Only if none of those roots has it are the other cells refined, also in
    ascending energy, as a fallback; when no root has the count,
    ``NodeMismatch`` lists the counts of all of them. A cell refined for one
    target is not refined again for another.
    """
    for node_target in node_targets:
        if node_target < 0:
            raise ValueError(f"node_target must be nonnegative, got {node_target}")
    scan = _scan(family, window, tol, _SCAN_POINTS)
    if scan is None or not len(scan.cells):
        raise NoRootInWindow(
            f"no matching-function zero in ({window[0]}, {window[1]}) for {family.label}"
        )
    left, right = scan.nodes[scan.cells], scan.nodes[scan.cells + 1]
    low, high = np.minimum(left, right), np.maximum(left, right)
    refined = {}
    found = []
    for node_target in node_targets:
        targeted = (low <= node_target) & (node_target <= high)
        counts = []
        for i in np.concatenate([scan.cells[targeted], scan.cells[~targeted]]).tolist():
            if i not in refined:
                refined[i] = _cell_root(family, scan, i, tol)
            e, nodes = refined[i]
            if nodes == node_target:
                found.append(e)
                break
            counts.append(nodes)
        else:
            raise NodeMismatch(f"roots found with node counts {sorted(counts)}, wanted {node_target}")
    return found


def shoot_eigenvalue(
    family: ProblemFamily,
    window: Tuple[float, float],
    node_target: int,
    tol: float = 1.0e-10,
) -> float:
    """Eigenvalue in the window whose eigenfunction has the requested number
    of interior nodes: ``shoot_eigenvalues`` of one target."""
    return shoot_eigenvalues(family, window, [node_target], tol)[0]


# ---------------------------------------------------------------------------
# Single-energy integration and node counting


def integrate_outward(family: ProblemFamily, e: float) -> Tuple[np.ndarray, np.ndarray]:
    """Regular solution marched from the inner boundary; arbitrary scale."""
    samples, _ = _march(family, e, True, len(family.r) - 1, len(family.r))
    return family.r, np.array(samples)


def count_nodes(samples: Sequence[float]) -> int:
    """Strict sign changes, ignoring sub-1e-12 magnitudes relative to the peak."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 3:
        raise ValueError(f"need at least 3 samples, got {arr.size}")
    peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        return 0
    kept = arr[np.abs(arr) > 1.0e-12 * peak]
    if kept.size < 2:
        return 0
    return int(np.sum(kept[1:] * kept[:-1] < 0.0))
