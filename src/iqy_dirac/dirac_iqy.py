"""Spin and pseudospin bound-state solver for the inversely quadratic Yukawa
potential with a Coulomb-like tensor term.

The radial problem is reduced with the exponential variable s = exp(-2*alpha*r)
and the Greene-Aldrich replacement of 1/r^2, mapped onto the
Nikiforov-Uvarov engine, and quantized by a transcendental condition in the
energy. Two residual forms are provided:

* ``energy_residual_raw``   -- the quantization condition as printed, with the
  principal (nonnegative) square root of beta^2.
* ``energy_residual_rearranged`` -- the squared form, smooth across the
  window, with t = gamma*V0 + P^2 summed as the proof in ``solve_energies``
  writes it, and the flag t <= 0, which that proof makes False.

Spin and pseudospin symmetry share every formula. A frozen ``Symmetry``
record per symmetry holds the sign s of the mass term (-1 pseudospin, +1
spin), the charge constant C, the centrifugal shift and the component the
closed form describes; gamma = E + s*M - C, beta^2 = (s*M - E)*gamma, the
strict thresholds s*M and C - s*M and the companion coupling all follow.

``solve_batch`` is the one root finder. It takes the states of one symmetry,
evaluates the squared form on a 2000-cell grid over each state's scan
window, brackets every sign change and bisects the brackets of all states
together in one loop, each bracket carrying its state's coefficients as
columns; ``solve_energies`` is its batch of one. A whole spectrum table is
one batch, so the loop's numpy calls are paid once per table, not once per
state. States that share the bits of their six residual coefficients and
their two scan-window ends share one scan, one bisection and one set of
frozen records. That is exact, as the solve reads nothing else of a state.
The condition sees kappa and H only through (lambda - 1/2)^2, so doublet
partners at H = 0 and a kappa shifted by 2H are such states: the 32 rows of
the published pseudospin table hold 18 distinct solves. Every root found is
the "relaxed" set. The "strict" set, roots of the printed condition with
principal square roots, is empty for every parameter set (proof in
``solve_energies``), so strict mode returns it without scanning.

``assemble_wavefunction`` builds a dump's grid and both components from one
evaluation of the closed form s^w (1-s)^(1/2+q) P_n^(2w,2q)(1-2s).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DomainError,
    EmptyWindow,
    EnergyAtThreshold,
    ExponentNotReal,
    NegativeRadicand,
    NonpositiveR,
    ZeroKappa,
)
from .nu_engine import RADICAND_TOLERANCE, NUCoefficients
from .special_fn import jacobi, jacobi_derivative

PSPIN = "pspin"
SPIN = "spin"

THRESHOLD_TOLERANCE = 1.0e-12
WINDOW_MARGIN = 1.0e-9

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# Spectroscopic letters by orbital angular momentum (j is skipped by convention).
_SPECTROSCOPIC = "spdfghiklmnoqrtuvwxyz"


@dataclass(frozen=True)
class Symmetry:
    """What separates pseudospin from spin: both reduce to one NU problem.

    The mass enters with sign s, gamma = E + s*M - C and
    beta^2 = (s*M - E)*gamma; the first-order coupling of the companion
    component carries s*(kappa + H)/r over the denominator s*gamma. Negation
    and commutation are exact in floating point, so each formula written with
    s rounds exactly like the same formula written out for one symmetry.
    """

    name: str
    sign: float  # s: -1 pseudospin, +1 spin
    charge: str  # PhysicalParams field holding C
    shift: float  # lambda = kappa + H + shift
    dominant: str  # RadialWavefunction field holding the closed form
    companion: str  # the field the first-order coupling derives from it


SYMMETRIES = {
    PSPIN: Symmetry(PSPIN, -1.0, "c_pspin", 0.0, "lower", "upper"),
    SPIN: Symmetry(SPIN, 1.0, "c_spin", 1.0, "upper", "lower"),
}


def symmetry_record(symmetry: str) -> Symmetry:
    """The record of a symmetry name; ValueError for any other name."""
    try:
        return SYMMETRIES[symmetry]
    except KeyError:
        raise ValueError(f"symmetry must be '{PSPIN}' or '{SPIN}', got {symmetry!r}") from None


@dataclass(frozen=True)
class PhysicalParams:
    """Physics inputs; energies and masses in fm^-1, hbar = c = 1."""

    mass: float
    v0: float
    screening: float
    tensor_h: float = 0.0
    c_spin: float = 0.0
    c_pspin: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.v0 < 0.0:
            raise ValueError(f"v0 must be nonnegative, got {self.v0}")
        if not self.screening > 0.0:
            raise ValueError(f"screening must be positive, got {self.screening}")
        if self.tensor_h < 0.0:
            raise ValueError(f"tensor_h must be nonnegative, got {self.tensor_h}")


def spectroscopic_label(n: int, kappa: int, symmetry: str) -> Tuple[int, str]:
    """(n_spect, label) of a state, e.g. (0, "0d3/2") for pspin n 1, kappa 2.

    The letter is the orbital l: kappa for kappa > 0, -kappa - 1 otherwise.
    Pseudospin states with kappa > 0 are listed one radial unit lower than
    the quantization degree; spin states keep the degree unchanged.
    """
    if kappa == 0:
        raise ZeroKappa("kappa = 0 does not label a Dirac partial wave")
    l = kappa if kappa > 0 else -kappa - 1
    letter = _SPECTROSCOPIC[l] if l < len(_SPECTROSCOPIC) else f"[l={l}]"
    n_spect = n - 1 if (symmetry_record(symmetry).sign < 0.0 and kappa > 0) else n
    return n_spect, f"{n_spect}{letter}{2 * abs(kappa) - 1}/2"


def effective_centrifugal(kappa: int, tensor_h: float, symmetry: str) -> float:
    """Shifted spin-orbit index: kappa + H (pspin) or kappa + H + 1 (spin)."""
    return kappa + tensor_h + symmetry_record(symmetry).shift


def _couplings(params: PhysicalParams, e, sym: Symmetry):
    """(gamma, beta^2) for a float or an array of energies."""
    gamma = e + sym.sign * params.mass - getattr(params, sym.charge)
    return gamma, (sym.sign * params.mass - e) * gamma


def gamma_factor(params: PhysicalParams, e, symmetry: str):
    """Energy-dependent coupling multiplying the potential."""
    return _couplings(params, e, symmetry_record(symmetry))[0]


def beta_squared(params: PhysicalParams, e, symmetry: str):
    """Square of the asymptotic decay rate; positive inside the strict domain."""
    return _couplings(params, e, symmetry_record(symmetry))[1]


def _thresholds(params: PhysicalParams, sym: Symmetry) -> Tuple[float, float]:
    """The two zeros of beta^2: s*M and C - s*M."""
    edge = sym.sign * params.mass
    return edge, getattr(params, sym.charge) - edge


def strict_window(params: PhysicalParams, symmetry: str) -> Tuple[float, float]:
    """Open energy interval on which beta^2 > 0, between the thresholds s*M
    (lower end for pseudospin, upper for spin) and C - s*M."""
    sym = symmetry_record(symmetry)
    edge, far = _thresholds(params, sym)
    lo, hi = (edge, far) if sym.sign < 0.0 else (far, edge)
    if hi <= lo:
        raise EmptyWindow(f"strict domain empty for {symmetry}: ({lo}, {hi})")
    return lo, hi


def nu_coefficients(params: PhysicalParams, kappa: int, e: float, symmetry: str) -> NUCoefficients:
    """Engine coefficients of the radial equation at trial energy e."""
    lam = effective_centrifugal(kappa, params.tensor_h, symmetry)
    gamma, bsq = _couplings(params, e, symmetry_record(symmetry))
    four_alpha_sq = 4.0 * params.screening**2
    return NUCoefficients(
        a1=1.0,
        a2=1.0,
        a3=1.0,
        xi1=bsq / four_alpha_sq - gamma * params.v0,
        xi2=-lam * (lam - 1.0) + 2.0 * bsq / four_alpha_sq,
        xi3=bsq / four_alpha_sq,
    )


pspin_nu_coefficients = partial(nu_coefficients, symmetry=PSPIN)


def _centrifugal_radicand(params: PhysicalParams, kappa: int, gamma, symmetry: str):
    """(lambda - 1/2)^2 - gamma*V0, the square of the edge exponent q."""
    lam = effective_centrifugal(kappa, params.tensor_h, symmetry)
    return (lam - 0.5) ** 2 - gamma * params.v0


def energy_residual_raw(
    params: PhysicalParams, n: int, kappa: int, e: float, symmetry: str
) -> float:
    """Quantization condition as printed, LHS minus RHS, principal roots."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    w, q = _shape_exponents(params, e, kappa, symmetry)
    return (n + 0.5 + q + w) ** 2 - (w * w - gamma_factor(params, e, symmetry) * params.v0)


def energy_residual_rearranged(
    params: PhysicalParams, n: int, kappa: int, e: float, symmetry: str
) -> Tuple[float, bool]:
    """Squared-form residual and the sign flag of the principal branch.

    Zero residual with the flag True would be a root of the raw condition;
    the flag is t <= 0, False for every input by construction, so every zero
    is a spurious root picked up by squaring.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rad = _centrifugal_radicand(params, kappa, gamma_factor(params, e, symmetry), symmetry)
    if rad < -RADICAND_TOLERANCE:
        raise NegativeRadicand(f"centrifugal radicand = {rad} at e = {e}")
    residual, sign_ok, _ = _rearranged_vec(params, n, kappa, symmetry, e)
    return float(residual), bool(sign_ok)


def _coefficients(params: PhysicalParams, n: int, kappa: int, sym: Symmetry) -> Tuple[float, ...]:
    """One state's residual coefficients as Python floats: s*M, C, V0,
    (lambda - 1/2)^2, n + 1/2 and 4 alpha^2. The square is a scalar pow(),
    which an array's ``** 2`` (x * x) does not always match."""
    lam = effective_centrifugal(kappa, params.tensor_h, sym.name)
    return (
        sym.sign * params.mass,
        getattr(params, sym.charge),
        params.v0,
        (lam - 0.5) ** 2,
        n + 0.5,
        4.0 * params.screening**2,
    )


def _residual_columns(e, sm, charge, v0, lq, nh, four_alpha_sq):
    """Squared-form residual, sign flag and beta^2 at energies ``e``; each
    coefficient of ``_coefficients`` is a float or a column matching ``e``.
    nan where the inner radicand fails. t = gamma*V0 + P^2 is summed as
    (lambda - 1/2)^2 + (n + 1/2)(P + q), which has no cancellation, so the
    flag t <= 0 is False for every input by construction. P = n + 1/2 + q is
    positive, so the division needs no guard."""
    gamma = e + sm - charge
    bsq = (sm - e) * gamma
    rad = lq - gamma * v0
    q = np.sqrt(np.where(rad >= -RADICAND_TOLERANCE, np.maximum(rad, 0.0), np.nan))
    big_p = nh + q
    t = lq + nh * (big_p + q)
    residual = bsq - four_alpha_sq * (t / (2.0 * big_p)) ** 2
    return residual, t <= 0.0, bsq


def _rearranged_vec(
    params: PhysicalParams, n: int, kappa: int, symmetry: str, e_arr: np.ndarray
):
    """Squared-form residual, sign flag (False for every input by
    construction) and beta^2 of one state at a float or array ``e_arr``."""
    return _residual_columns(e_arr, *_coefficients(params, n, kappa, symmetry_record(symmetry)))


@dataclass(frozen=True)
class EnergySolution:
    """One converged root of the squared quantization condition; not a
    root of the printed one, by the proof in ``solve_energies``. Frozen, as
    ``solve_batch`` hands one record to every state sharing its solve."""

    e: float
    residual: float
    beta_sq: float


def scan_window(
    params: PhysicalParams,
    n: int,
    kappa: int,
    symmetry: str,
    window: Optional[Tuple[float, float]] = None,
) -> Optional[Tuple[float, float]]:
    """Effective search interval: the strict domain, capped where the inner
    square root stays real, intersected with an optional user window.

    The cap is C - s*M + (lambda - 1/2)^2 / V0. For pseudospin C - s*M is
    the upper end of the strict domain, so the cap never binds there."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    lo, hi = strict_window(params, symmetry)
    if params.v0 > 0.0:
        lam = effective_centrifugal(kappa, params.tensor_h, symmetry)
        _, far = _thresholds(params, symmetry_record(symmetry))
        # Above this energy the inner square root turns complex and the
        # reduced problem loses its regular small-r solution.
        hi = min(hi, far + (lam - 0.5) ** 2 / params.v0)
    if window is not None:
        w_lo, w_hi = window
        if not (math.isfinite(w_lo) and math.isfinite(w_hi)):
            raise ValueError(f"window must be finite, got {window}")
        if w_lo >= w_hi:
            raise ValueError(f"window needs lo < hi, got {window}")
        if w_hi <= lo or w_lo >= hi:
            raise EmptyWindow(
                f"window ({w_lo}, {w_hi}) outside the scan interval ({lo}, {hi}) of "
                f"{symmetry} kappa={kappa} H={params.tensor_h}"
            )
        lo, hi = max(lo, w_lo), min(hi, w_hi)
    lo += WINDOW_MARGIN
    hi -= WINDOW_MARGIN
    if hi <= lo:
        return None
    return lo, hi


State = Tuple[PhysicalParams, int, int]  # (params, n, kappa)

# np.linspace's own arithmetic, index * step + lo with the last point set to
# hi, on one index array instead of a fresh one per call
_GRID_INDEX = np.arange(2002.0)


def _scan_grid(lo: float, hi: float) -> np.ndarray:
    """The scan grid of a window of finite width: cells of about
    (hi - lo) / 2000, bit for bit ``np.linspace(lo, hi, num)``."""
    step = (hi - lo) / 2000.0
    # (hi - lo) / step rounds up to 2001 cells for about one width in
    # eight; kept so the grid, and with it every printed root, stays.
    num = math.ceil((hi - lo) / step) + 1
    grid = _GRID_INDEX[:num] * ((hi - lo) / (num - 1)) + lo
    grid[-1] = hi
    return grid


# Inputs far outside the physical range overflow in the residual. The CLI
# keeps stderr to its one error line, so the warnings are silenced once per
# solve, not at every bisection step.
@np.errstate(over="ignore", invalid="ignore")
def solve_batch(
    states: Sequence[State],
    symmetry: str,
    window: Optional[Tuple[float, float]] = None,
    tol: float = 1.0e-12,
    mode: str = "strict",
) -> List[List[EnergySolution]]:
    """``solve_energies`` for each (params, n, kappa) of one symmetry, in order.

    A state's solve depends only on its six residual coefficients and its
    scan window, so states sharing the bits of those eight floats share one
    solve: doublet partners at H = 0, whose condition sees kappa and H only
    through (lambda - 1/2)^2, and a kappa shifted by 2H. Each distinct solve's
    grid is scanned on its own with its own coefficients; an end that only
    ``WINDOW_MARGIN`` keeps off a strict threshold takes the threshold as one
    more point, which brackets a root hidden in the margin. Then the
    sign-change brackets of every solve are bisected in one loop, each
    bracket with its own coefficient columns and its own ``live`` mask, so no
    bracket's path depends on the others: every list is the one the state
    gives alone. Each state gets its own list; the frozen records in it may
    be shared.
    """
    if mode not in ("strict", "relaxed"):
        raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    sym = symmetry_record(symmetry)
    bounds = [scan_window(params, n, kappa, symmetry, window) for params, n, kappa in states]
    if mode == "strict":
        return [[] for _ in states]
    # Keyed by bits, not values, so 0.0 and -0.0 never merge; a state with no
    # scan window packs to a shorter key. Distinct solves keep first-appearance
    # order, so the first state that overflows raises its own message.
    keys, distinct = [], {}
    for (params, n, kappa), bound in zip(states, bounds):
        coeff = _coefficients(params, n, kappa, sym)
        key = struct.pack("6d", *coeff) + (b"" if bound is None else struct.pack("2d", *bound))
        keys.append(key)
        distinct.setdefault(key, (coeff, bound))
    zeros, lows, highs, low_signs, counts = [], [], [], [], []
    for coeff, bound in distinct.values():
        e_grid = np.empty(0)
        if bound is not None:
            lo, hi = bound
            if not math.isfinite(hi - lo):
                raise OverflowError(f"scan window ({lo}, {hi}) is wider than the largest float")
            # beta^2 = 0 at a threshold, where the residual is -4 alpha^2 (t / 2P)^2 < 0
            t_lo, t_hi = sorted((coeff[0], coeff[1] - coeff[0]))
            head = [t_lo] if t_lo < lo == t_lo + WINDOW_MARGIN else []
            tail = [t_hi] if hi == t_hi - WINDOW_MARGIN < t_hi else []
            e_grid = np.concatenate((head, _scan_grid(lo, hi), tail))
        res, _, _ = _residual_columns(e_grid, *coeff)
        # Signs, not products, find and bisect the brackets: the product of
        # two tiny residuals underflows to -0.0, and times +-1 is exact.
        signs = np.sign(res)
        cells = np.flatnonzero(signs[:-1] * res[1:] < 0.0)
        zeros.append(e_grid[res == 0.0])
        lows.append(e_grid[cells])
        highs.append(e_grid[cells + 1])
        low_signs.append(signs[cells])
        counts.append(len(cells))
    a, b, sign_a = (np.concatenate([np.empty(0), *parts]) for parts in (lows, highs, low_signs))
    coeffs = [coeff for coeff, _ in distinct.values()]
    # row k holds coefficient k of every bracket's state
    columns = np.repeat(np.array(coeffs).reshape(-1, 6).T, counts, axis=1)
    while True:
        mid = 0.5 * (a + b)
        # A midpoint that rounds to an end leaves the bracket as it is, as f
        # there has that end's sign; so a bracket is done once tol or the
        # doubles between its ends stop it shrinking.
        live = (b - a > tol) & (a < mid) & (mid < b)
        if not live.any():
            break
        fmid, _, _ = _residual_columns(mid, *columns)
        # a moves only to a midpoint of its own sign, so sign_a stays true
        left = sign_a * fmid < 0.0
        # an exact zero closes the bracket on itself
        b = np.where(live & (left | (fmid == 0.0)), mid, b)
        a = np.where(live & ~left, mid, a)
    centres = np.split(0.5 * (a + b), np.cumsum(counts)[:-1])
    solved = {
        key: _solutions(sym, coeff, np.sort(np.concatenate((zero, centre))))
        for key, coeff, zero, centre in zip(distinct, coeffs, zeros, centres)
    }
    return [list(solved[key]) for key in keys]


def _solutions(sym: Symmetry, coeff: Tuple[float, ...], roots: np.ndarray) -> List[EnergySolution]:
    """One state's roots, ascending, as solutions; pseudospin keeps the
    negative-energy branch."""
    solutions = []
    for root in roots.tolist():
        if sym.sign < 0.0 and root >= 0.0:
            continue
        # Evaluated as a scalar: a scalar ``x ** 2`` rounds like pow(), an
        # array's like x * x, and the printed residual uses the former.
        residual, _, bsq = _residual_columns(root, *coeff)
        solutions.append(EnergySolution(root, float(residual), bsq))
    return solutions


def solve_energies(
    params: PhysicalParams,
    n: int,
    kappa: int,
    symmetry: str,
    window: Optional[Tuple[float, float]] = None,
    tol: float = 1.0e-12,
    mode: str = "strict",
) -> List[EnergySolution]:
    """All roots of the squared residual in the scan window: ``solve_batch``
    of one state.

    ``mode='relaxed'`` returns every root: a 2000-cell scan, closed by the
    strict thresholds, brackets every sign change, and all brackets are
    bisected until each is narrower than ``tol`` or has no double between
    its ends; pseudospin keeps the negative-energy branch.
    ``mode='strict'`` checks its inputs and the window, then returns [], as
    no root has principal square roots: with q = sqrt(radicand) >= 0 one
    needs t = gamma*V0 + P^2 <= 0 (the sign flag of ``_rearranged_vec``),
    but t = (lambda - 1/2)^2 + (n + 1/2)^2 + 2(n + 1/2)q > 0.
    """
    return solve_batch([(params, n, kappa)], symmetry, window, tol, mode)[0]


def select_branch_root(
    solutions: Sequence[EnergySolution], symmetry: str
) -> Optional[EnergySolution]:
    """Branch convention for reporting one state per quantum-number combo:
    the deepest root for pseudospin (negative-energy branch), the shallowest
    for spin."""
    sym = symmetry_record(symmetry)
    if not solutions:
        return None
    ordered = sorted(solutions, key=lambda s: s.e)
    return ordered[0] if sym.sign < 0.0 else ordered[-1]


# ---------------------------------------------------------------------------
# Wavefunction assembly


@dataclass(frozen=True)
class RadialWavefunction:
    """Sampled Dirac radial pair; the dominant component is L2-normalized."""

    r_grid: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    s_map: np.ndarray
    symmetry: str
    e: float
    n: int
    kappa: int

    @property
    def dominant(self) -> np.ndarray:
        """The closed-form component: lower for pseudospin, upper for spin."""
        return getattr(self, symmetry_record(self.symmetry).dominant)


def _shape_exponents(
    params: PhysicalParams, e: float, kappa: int, symmetry: str
) -> Tuple[float, float]:
    """(decay exponent w, edge exponent q) of the closed-form component."""
    sym = symmetry_record(symmetry)
    gamma, bsq = _couplings(params, e, sym)
    if bsq < -RADICAND_TOLERANCE:
        raise ExponentNotReal(f"beta^2 = {bsq} < 0 at e = {e}")
    rad = _centrifugal_radicand(params, kappa, gamma, symmetry)
    if rad < -RADICAND_TOLERANCE:
        raise ExponentNotReal(f"centrifugal radicand = {rad} < 0 at e = {e}")
    w = math.sqrt(max(bsq, 0.0)) / (2.0 * params.screening)
    q = math.sqrt(max(rad, 0.0))
    return w, q


def _closed_form(
    alpha: float, w: float, q: float, n: int, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unnormalized closed form s^w (1-s)^(1/2+q) P_n^(2w,2q)(1-2s) at
    s = exp(-2*alpha*r), and its exact radial derivative."""
    s = np.exp(-2.0 * alpha * r)
    one_minus = 1.0 - s
    x = 1.0 - 2.0 * s
    a, b = 2.0 * w, 2.0 * q
    poly = jacobi(n, a, b, x)
    dpoly = jacobi_derivative(n, a, b, x)
    base = s**w * one_minus ** (0.5 + q)
    value = base * poly
    dvalue_ds = base * (poly * (w / s - (0.5 + q) / one_minus) - 2.0 * dpoly)
    dvalue_dr = -2.0 * alpha * s * dvalue_ds
    return value, dvalue_dr


def _largest_jacobi_zero(n: int, a: float, b: float) -> float:
    """Largest zero of P_n^(a,b), n >= 1 and a + b > 0 (Golub-Welsch)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    # each factor a ratio of like magnitudes, so none overflows at large a
    diag = (b - a) / s * ((b + a) / (s + 2.0))
    k, s = k[1:], s[1:]
    off = 2.0 * np.sqrt(k / s * ((k + a) / s) * ((k + b) / (s + 1.0)) * ((k + a + b) / (s - 1.0)))
    # eigvalsh reads the lower triangle only
    return float(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))[-1])


def _r_grid(alpha: float, w: float, q: float, n: int, bsq: float) -> np.ndarray:
    """2001 points on which the closed form falls below 1e-8 of its peak at
    both ends; the grid ends past the outermost of its n nodes."""
    rate = 2.0 * alpha * w
    if rate <= 0.0:
        raise ExponentNotReal(f"no outer decay: beta^2 = {bsq}")
    edge_exp = 0.5 + q
    s_peak = w / (w + edge_exp)
    r_peak = -math.log(s_peak) / (2.0 * alpha)
    u_lo = (1.0e-9) ** (1.0 / edge_exp) * max(1.0 - s_peak, 1.0e-3)
    if not u_lo < 1.0:
        raise DomainError(f"no finite grid start: 1 - exp(-2 alpha r_lo) = {u_lo}")
    r_hi = r_peak + 20.0 / rate
    if n:
        # the outermost node is at the largest zero x of P_n, where
        # s = (1 - x) / 2; a zero that rounds to 1 puts it at r = inf
        s_node = 0.5 * (1.0 - _largest_jacobi_zero(n, 2.0 * w, 2.0 * q))
        r_node = -math.log(s_node) / (2.0 * alpha) if s_node > 0.0 else math.inf
        r_hi = max(r_hi, r_node + 10.0 / rate)
    r_lo = max(-math.log1p(-u_lo) / (2.0 * alpha), 1.0e-12)
    if not (math.isfinite(r_lo) and math.isfinite(r_hi)):
        raise DomainError(f"grid ends ({r_lo}, {r_hi}) are not finite")
    return np.linspace(r_lo, r_hi, 2001)


def assemble_wavefunction(
    params: PhysicalParams,
    sol: Union[EnergySolution, float],
    n: int,
    kappa: int,
    symmetry: str,
) -> RadialWavefunction:
    """Both radial components from one evaluation of the closed form: the
    dominant one L2-normalized and positive at its peak, the companion
    (d/dr + s*(kappa + H)/r) of it over s*gamma, differentiated analytically."""
    sym = symmetry_record(symmetry)
    e = sol.e if isinstance(sol, EnergySolution) else float(sol)
    gamma, bsq = _couplings(params, e, sym)
    w, q = _shape_exponents(params, e, kappa, symmetry)
    r_grid = _r_grid(params.screening, w, q, n, bsq)
    # where s = exp(-2 alpha r) underflows to 0 the derivative's w / s is inf;
    # the samples this leaves non-finite are counted and rejected below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw, draw = _closed_form(params.screening, w, q, n, r_grid)
    raw_norm = math.sqrt(float(_trapezoid(raw**2, r_grid)))
    if raw_norm == 0.0:
        raise ExponentNotReal("component vanished identically on the grid")
    out = raw / raw_norm
    peak = int(np.argmax(np.abs(out)))
    dominant = -out if out[peak] < 0.0 else out
    denom = sym.sign * gamma
    if abs(denom) < THRESHOLD_TOLERANCE:
        raise EnergyAtThreshold(f"e = {e} sits at the {symmetry} threshold")
    anchor = int(np.argmax(np.abs(raw)))
    scale = dominant[anchor] / raw[anchor]
    shifted = kappa + params.tensor_h
    companion = scale * (draw + sym.sign * (shifted / r_grid) * raw) / denom
    for name, samples in ((sym.dominant, dominant), (sym.companion, companion)):
        bad = int(np.count_nonzero(~np.isfinite(samples)))
        if bad:
            raise DomainError(f"{bad} of {samples.size} {name} samples are not finite at e = {e}")
    return RadialWavefunction(
        r_grid=r_grid,
        s_map=np.exp(-2.0 * params.screening * r_grid),
        symmetry=symmetry,
        e=e,
        n=n,
        kappa=kappa,
        **{sym.dominant: dominant, sym.companion: companion},
    )


def first_order_residual(params: PhysicalParams, wf: RadialWavefunction) -> float:
    """Derivative self-check of the companion, printed as
    ``back_substitution_residual``; not a test of the radial equation.

    ``assemble_wavefunction`` builds the companion from the same first-order
    equation that this re-evaluates with a small-step central difference of
    the dominant component's closed form. So lhs - rhs is scale *
    (central difference - analytic derivative) of that one closed form,
    normalized by the largest magnitude of the companion side.
    """
    sym = symmetry_record(wf.symmetry)
    r = wf.r_grid
    h = min(1.0e-6, 0.5 * float(r[0]))
    w, q = _shape_exponents(params, wf.e, wf.kappa, wf.symmetry)
    raw, plus, minus = (
        _closed_form(params.screening, w, q, wf.n, x)[0] for x in (r, r + h, r - h)
    )
    anchor = int(np.argmax(np.abs(raw)))
    d_fd = wf.dominant[anchor] / raw[anchor] * (plus - minus) / (2.0 * h)
    shifted = wf.kappa + params.tensor_h
    lhs = d_fd + sym.sign * (shifted / r) * wf.dominant
    rhs = sym.sign * _couplings(params, wf.e, sym)[0] * getattr(wf, sym.companion)
    scale_norm = max(float(np.max(np.abs(rhs))), 1.0e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale_norm


# ---------------------------------------------------------------------------
# Doublet partners and the centrifugal approximation


def partner_kappa(kappa: int, tensor_h: float, symmetry: str) -> int:
    """Partner sharing the residual at the given tensor strength:
    -s - 2H - kappa."""
    partner = -symmetry_record(symmetry).sign - 2.0 * tensor_h - kappa
    rounded = round(partner)
    if abs(partner - rounded) > 1.0e-9:
        raise ValueError(f"partner kappa {partner} is not an integer")
    return int(rounded)


def greene_aldrich(r: float, screening: float) -> Tuple[float, float, float]:
    """Exponential approximation of 1/r^2 with its pointwise relative error."""
    if not r > 0.0:
        raise NonpositiveR(f"r must be positive, got {r}")
    if not screening > 0.0:
        raise ValueError(f"screening must be positive, got {screening}")
    s = math.exp(-2.0 * screening * r)
    # expm1 keeps 1 - s accurate deep into the small-argument regime
    one_minus = -math.expm1(-2.0 * screening * r)
    approx = 4.0 * screening**2 * s / one_minus**2
    exact = 1.0 / (r * r)
    return approx, exact, abs(approx - exact) / exact
