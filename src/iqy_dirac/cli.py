"""Command-line front end: spectrum sweeps, wavefunction dumps, oracle
cross-checks, and the benchmark-table reproduction report.

Configuration comes from an optional flat key=value file plus flag overrides
(flags win). Every output is byte-deterministic for a fixed configuration;
floats are printed with 9 significant digits.

Exit codes: 0 success, 2 configuration or input error, 3 cross-check
failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import dirac_iqy, oracle, reference_tables
from .dirac_iqy import (
    PSPIN,
    SPIN,
    PhysicalParams,
    beta_squared,
    effective_centrifugal,
    first_order_residual,  # noqa: F401  not called here; bench/spans.py patches it on cli
    greene_aldrich,
    select_branch_root,
    solve_batch,
    solve_energies,
    spectroscopic_label,
    strict_window,
    symmetry_record,
)
from .errors import ConfigError, IoError, IqyDiracError, NoRoot
from .limits import coulomb_energy
from .special_fn import DEGREE_CAP

CSV_HEADER = "symmetry,n_nu,n_spect,kappa,label,H,E,residual,beta_sq,strict_valid"
_COLUMNS = CSV_HEADER.split(",")


@dataclass
class RunConfig:
    symmetry: str = PSPIN
    mass: float = 5.0
    v0: float = 1.0
    screening: float = 0.05
    tensor_h: List[float] = field(default_factory=lambda: [0.0])
    c_spin: float = 6.0
    c_pspin: float = -5.5
    n_min: int = 0
    n_max: int = 2
    kappas: List[int] = field(default_factory=lambda: [-1])
    window: Optional[Tuple[float, float]] = None
    tol: float = 1.0e-12
    out: Optional[str] = None
    fmt: str = "csv"

    def physical(self, tensor_h: float) -> PhysicalParams:
        try:
            return PhysicalParams(
                mass=self.mass,
                v0=self.v0,
                screening=self.screening,
                tensor_h=tensor_h,
                c_spin=self.c_spin,
                c_pspin=self.c_pspin,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> None:
        if self.symmetry not in (PSPIN, SPIN):
            raise ConfigError(f"symmetry must be spin or pspin, got {self.symmetry!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if self.out == "":
            raise ConfigError("out must be a path; omit it to write to stdout")
        if not self.kappas:
            raise ConfigError("kappa list is empty")
        if any(k == 0 for k in self.kappas):
            raise ConfigError("kappa list must not contain 0")
        if self.n_min < 0 or self.n_max < self.n_min:
            raise ConfigError(f"bad n range [{self.n_min}, {self.n_max}]")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.window is not None:
            if not all(map(math.isfinite, self.window)):
                raise ConfigError(f"window must be finite, got {self.window}")
            if self.window[0] >= self.window[1]:
                raise ConfigError(f"window needs lo < hi, got {self.window}")
        if not self.tensor_h:
            raise ConfigError("tensor_h list is empty")
        for h in self.tensor_h:
            self.physical(h)


def fmt_float(x: Optional[float]) -> str:
    if x is None or not math.isfinite(x):
        return "nan"
    return f"{x:.9g}"


def _round9(x: Optional[float]) -> Optional[float]:
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.9g}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return fmt_float(value)


def _json_cell(value):
    if isinstance(value, (str, int)):  # bool is an int
        return value
    return _round9(value)


# Each parser raises ValueError on bad text, which build_config reports as
# a bad value for its key.
def _parse_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _parse_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_tensor_h(text: str) -> List[float]:
    # -0 passes the nonnegative check; adding 0.0 makes it the 0 it prints as
    return [h + 0.0 for h in _parse_floats(text)]


def _parse_window(text: str) -> Tuple[float, float]:
    lo, hi = _parse_floats(text)  # unpacking raises ValueError unless two numbers
    return lo, hi


# Every common option once: config-file key -> (RunConfig field, parser of its
# text, extra argparse keywords). The key is also the flag's dest; the flag is
# "--" plus the key with "_" turned into "-". A flag's text wins over the
# file's, and both go through the same parser.
_OPTIONS = {
    "symmetry": ("symmetry", str, {"metavar": "{spin,pspin}"}),
    "mass": ("mass", float, {}),
    "v0": ("v0", float, {}),
    "screening": ("screening", float, {}),
    "tensor_h": ("tensor_h", _parse_tensor_h, {"action": "append"}),
    "cs": ("c_spin", float, {}),
    "cps": ("c_pspin", float, {}),
    "n_min": ("n_min", int, {}),
    "n_max": ("n_max", int, {}),
    "kappa": ("kappas", _parse_ints, {"help": "comma-separated kappa list"}),
    "window": ("window", _parse_window, {"help": "lo,hi energy window override"}),
    "tol": ("tol", float, {}),
    "out": ("out", str, {"help": "output path (stdout when omitted)"}),
    "format": ("fmt", str, {"metavar": "{csv,json}"}),
}


def load_config_file(path: str) -> dict:
    try:
        # utf-8-sig drops a leading byte-order mark, which editors may write
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = load_config_file(args.config) if args.config else {}
    for key, (attr, parse, _) in _OPTIONS.items():
        text = getattr(args, key)
        if isinstance(text, list):  # a repeated flag is one comma list
            text = ",".join(text)
        if text is None:
            text = file_values.get(key)
        if text is not None:
            try:
                setattr(cfg, attr, parse(text))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {text!r}") from exc
    # wavefunction's single-state flags narrow the configured ranges
    if getattr(args, "n", None) is not None:
        cfg.n_min = cfg.n_max = args.n
    if getattr(args, "single_kappa", None) is not None:
        cfg.kappas = [args.single_kappa]
    cfg.validate()
    return cfg


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_row(
    cfg: RunConfig, n: int, kappa: int, h: float, sols: Sequence[dirac_iqy.EnergySolution]
) -> dict:
    sol = select_branch_root(sols, cfg.symmetry)
    n_spect, label = spectroscopic_label(n, kappa, cfg.symmetry)
    return {
        "symmetry": cfg.symmetry,
        "n_nu": n,
        "n_spect": n_spect,
        "kappa": kappa,
        "label": label,
        "H": h,
        "E": sol.e if sol else None,
        "residual": sol.residual if sol else None,
        "beta_sq": sol.beta_sq if sol else None,
        "strict_valid": False,  # by the proof in solve_energies
    }


def _rows_to_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(_csv_cell(row[c]) for c in _COLUMNS) for row in rows]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def _rows_to_json(rows: Sequence[dict]) -> str:
    payload = [{c: _json_cell(row[c]) for c in _COLUMNS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def cmd_spectrum(cfg: RunConfig) -> int:
    # one frozen PhysicalParams per H value, shared by all its (n, kappa) states
    per_h = [cfg.physical(h) for h in cfg.tensor_h]
    # the states in row order, (n, kappa, H); a stable sort, not nested sorted
    # loops, keeps the rows of a repeated kappa together for each H
    n_range = range(cfg.n_min, cfg.n_max + 1)
    states = sorted(
        ((params, n, kappa) for n in n_range for kappa in cfg.kappas for params in per_h),
        key=lambda state: (state[1], state[2], state[0].tensor_h),
    )
    solved = solve_batch(states, cfg.symmetry, window=cfg.window, tol=cfg.tol, mode="relaxed")
    rows = [
        _spectrum_row(cfg, n, kappa, params.tensor_h, sols)
        for (params, n, kappa), sols in zip(states, solved)
    ]
    text = _rows_to_csv(rows) if cfg.fmt == "csv" else _rows_to_json(rows)
    _write_text(cfg.out, text)
    return 0


# ---------------------------------------------------------------------------
# wavefunction


# Rows of a sample table per % operation. All 2001 rows in one operation are
# no faster, and their large transient strings grow peak RSS by heap
# fragmentation; blocks keep it flat.
_SAMPLE_BLOCK = 128
_CSV_SAMPLE_ROW = "%.9g,%.9g,%.9g,%.9g"
_JSON_SAMPLE_ROW = '    {\n      "r": %.9g,\n      "s": %.9g,\n      "F": %.9g,\n      "G": %.9g\n    }'


def _format_samples(
    table: np.ndarray, row: str, sep: str, picks: np.ndarray, cell_text: Callable[[float], str]
) -> str:
    """The rows of an (N, 4) sample table, each ``row`` filled with its four
    cells by "%.9g", joined by ``sep``: one % operation per block of
    _SAMPLE_BLOCK rows. A cell where the boolean (N, 4) ``picks`` is true is
    printed as ``cell_text(value)`` instead, through a "%s" in its place."""
    texts = []
    picked_row = row.replace("%.9g", "%s")
    for start in range(0, len(table), _SAMPLE_BLOCK):
        block = table[start : start + _SAMPLE_BLOCK]
        cells = block.ravel().tolist()
        template = sep.join([row] * len(block))
        picked = np.flatnonzero(picks[start : start + _SAMPLE_BLOCK]).tolist()
        if picked:
            specs = ["%.9g"] * len(cells)
            for i in picked:
                specs[i], cells[i] = "%s", cell_text(cells[i])
            template = sep.join([picked_row] * len(block)) % tuple(specs)
        texts.append(template % tuple(cells))
    return sep.join(texts)


def _csv_samples(table: np.ndarray) -> str:
    """The CSV lines of an (N, 4) sample table; fmt_float prints every
    non-finite value as nan."""
    return _format_samples(table, _CSV_SAMPLE_ROW, "\n", ~np.isfinite(table), fmt_float)


def _json_number(x: float) -> str:
    """json's text for _round9 of ``x``."""
    return json.dumps(_round9(x))


def _json_picks(table: np.ndarray) -> np.ndarray:
    """A superset of the cells whose "%.9g" text is not json's text for
    their 9-digit rounding r, which _json_number writes.

    The text of a normal r (|r| >= 2**-1022) has at most 9 significant
    digits, trailing zeros stripped. Two such decimals lie at least
    1e-9 * |r| apart, and a normal double's ulp is at most 2**-52 * |r|, so
    no other decimal of at most 9 digits rounds to the same double, and
    repr's shortest round-trip digits are the text's own. Both write the
    exponent form below 1e-4 the same way ("1.5e-05"). They part on the form
    only where r is a whole number below 1e16: repr writes "3.0" and
    "1500000000.0" where %g writes "3" and "1.5e+09".

    So the picks are: non-finite x, which json writes as null; |x| below
    2.3e-308, which holds zero and every x whose r may be subnormal; and x
    within 1e-8 * |x| of a whole number. The last holds every x whose r is
    whole (0.9999999996 prints as "1"): x lies within 5e-9 * |x| of r, and
    below 1e8 that is less than 0.5, so r is rint(x); from 1e8 up any x is
    within 0.5 of rint(x)."""
    magnitude = np.abs(table)
    with np.errstate(invalid="ignore"):  # inf - inf
        near_whole = np.abs(table - np.rint(table)) <= 1e-8 * magnitude
    return ~np.isfinite(table) | (magnitude < 2.3e-308) | near_whole


def _json_samples(table: np.ndarray) -> str:
    """The items of the "samples" list of an (N >= 1, 4) sample table, as
    json.dumps(..., indent=2) writes them inside the dump's top-level dict."""
    return _format_samples(table, _JSON_SAMPLE_ROW, ",\n", _json_picks(table), _json_number)


def cmd_wavefunction(cfg: RunConfig) -> int:
    n, kappa, h = cfg.n_min, cfg.kappas[0], cfg.tensor_h[0]
    if n > DEGREE_CAP:
        raise ConfigError(f"n = {n} is above the Jacobi degree cap {DEGREE_CAP}")
    params = cfg.physical(h)
    sols = solve_energies(params, n, kappa, cfg.symmetry, window=cfg.window, tol=cfg.tol, mode="relaxed")
    sol = select_branch_root(sols, cfg.symmetry)
    if sol is None:
        raise NoRoot(f"no converged energy for n={n}, kappa={kappa}, {cfg.symmetry}")
    wf = dirac_iqy.assemble_wavefunction(params, sol, n, kappa, cfg.symmetry)
    meta = {
        "symmetry": cfg.symmetry,
        "n": n,
        "kappa": kappa,
        "H": h,
        "E": sol.e,
        "strict_valid": False,  # by the proof in solve_energies
        "nodes": oracle.count_nodes(wf.dominant),
    }
    # the 2001-row sample table, formatted a block of rows at a time with one
    # % operation and a repeated "%.9g" row template per block, not a Python
    # call per cell; only the cells whose %.9g text could differ from
    # fmt_float (non-finite, CSV) or from json's repr of the 9-digit rounding
    # _round9 (JSON) go through those formatters
    table = np.column_stack((wf.r_grid, wf.s_map, wf.upper, wf.lower))
    if cfg.fmt == "json":
        meta_json = {key: _json_cell(value) for key, value in meta.items()}
        head = json.dumps({"meta": meta_json}, indent=2)[: -len("\n}")]  # left open
        text = f'{head},\n  "samples": [\n{_json_samples(table)}\n  ]\n}}\n'
    else:
        # the meta fields as three '#' lines: the state, its energy, its nodes
        cells = [f"{key}={_csv_cell(value)}" for key, value in meta.items()]
        lines = ["# " + " ".join(cells[a:b]) for a, b in ((0, 4), (4, 6), (6, 7))]
        text = "\n".join([*lines, "r,s,F,G", _csv_samples(table)]) + "\n"
    _write_text(cfg.out, text)
    unread = [f"kappa {k}" for k in dict.fromkeys(cfg.kappas) if k != kappa]
    unread += [f"H {fmt_float(x)}" for x in dict.fromkeys(cfg.tensor_h) if x != h]
    if unread:
        print(
            f"note: the dump reads kappa={kappa} H={fmt_float(h)}; not read: {', '.join(unread)}",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# crosscheck

COULOMB_ANCHOR_STATES = ((0, 1), (1, 1), (0, 2))
CROSSCHECK_TOLERANCE = 1.0e-6


def _text_report_only(cfg: RunConfig, command: str) -> None:
    if cfg.fmt == "json":
        raise ConfigError(f"{command} writes a text report; --format json is not supported")


# Finite inputs far outside the physical range overflow in the couplings or
# march into non-finite samples; raising turns them into main's exit-2 error
# line instead of a "no bound state" report. The march's own ignore block for
# discarded rows stays silent.
@np.errstate(over="raise", invalid="raise")
def cmd_crosscheck(cfg: RunConfig) -> int:
    """Closed form versus shooting on the identical problems.

    The Coulomb anchor trio exercises the matching machinery on a nonempty
    spectrum. For the configured combos the strict closed-form set is empty
    by the proof in ``solve_energies``, so any shooting root is a
    disagreement.
    """
    _text_report_only(cfg, "crosscheck")
    lines = ["# crosscheck report"]
    failures = 0

    lines.append("## coulomb anchor (mass=1, B=-1)")
    # one family and one scan per kappa, shared by its radial numbers
    anchor_shots = {}
    for kappa in dict.fromkeys(kappa for _, kappa in COULOMB_ANCHOR_STATES):
        family = oracle.coulomb_family(1.0, -1.0, kappa, r_max=60.0, step=5.0e-3)
        targets = [n for n, k in COULOMB_ANCHOR_STATES if k == kappa]
        shots = oracle.shoot_eigenvalues(family, (-0.999, -0.02), targets, tol=1.0e-10)
        anchor_shots.update(((n, kappa), shot) for n, shot in zip(targets, shots))
    for n, kappa in COULOMB_ANCHOR_STATES:
        closed = coulomb_energy(1.0, -1.0, n, kappa)
        shot = anchor_shots[n, kappa]
        gap = abs(closed - shot)
        ok = gap <= CROSSCHECK_TOLERANCE
        failures += 0 if ok else 1
        lines.append(
            f"n={n} kappa={kappa} closed={fmt_float(closed)} shooting={fmt_float(shot)} "
            f"|dE|={fmt_float(gap)} {'ok' if ok else 'FAIL'}"
        )

    lines.append("## configured states (strict closed form vs shooting)")
    for h in cfg.tensor_h:
        params = cfg.physical(h)
        # scan_window and the oracle family do not depend on n: one scan per kappa
        shots = {}
        for kappa in dict.fromkeys(cfg.kappas):
            bounds = dirac_iqy.scan_window(params, cfg.n_min, kappa, cfg.symmetry, cfg.window)
            shots[kappa] = [] if bounds is None else oracle.scan_eigenvalues(
                oracle.iqy_family(params, kappa, cfg.symmetry), bounds, tol=1.0e-9
            )
        for n in range(cfg.n_min, cfg.n_max + 1):
            for kappa in cfg.kappas:
                if shots[kappa]:
                    failures += 1
                    lines.append(
                        f"n={n} kappa={kappa} H={fmt_float(h)} FAIL: "
                        f"0 closed-form vs {len(shots[kappa])} shooting roots"
                    )
                else:
                    lines.append(
                        f"n={n} kappa={kappa} H={fmt_float(h)} consistent: no bound state on either route"
                    )

    lines.append("## centrifugal approximation quality at r=1 fm")
    for alpha in (cfg.screening, cfg.screening / 2.0, cfg.screening / 4.0):
        _, _, rel = greene_aldrich(1.0, alpha)
        lines.append(f"screening={fmt_float(alpha)} rel_error={fmt_float(rel)}")

    lines.append(f"# failures={failures}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# reproduce-tables


# the screening is a placeholder: beta_sq and the strict window's thresholds do not read it
_CAPTION = PhysicalParams(
    mass=reference_tables.CAPTION_MASS,
    v0=reference_tables.CAPTION_V0,
    screening=0.05,
    c_spin=reference_tables.CAPTION_C_SPIN,
    c_pspin=reference_tables.CAPTION_C_PSPIN,
)
# per symmetry: the published doublet rows and the anchor entry (E, n, kappa)
_PUBLISHED = {
    PSPIN: (reference_tables.PSPIN_ROWS, reference_tables.ANCHOR_PSPIN),
    SPIN: (reference_tables.SPIN_ROWS, reference_tables.ANCHOR_SPIN),
}
# each check of the published doublet pattern, run on both tables: its label
# and whether a row's (aligned, unaligned) energies pass, given the sign s of
# the mass term (aligned lower at H = 5 for pseudospin, higher for spin)
_PATTERNS = (
    ("H=0 pairs equal ({count})", lambda a, u, s: a[0.0] == u[0.0]),
    ("H=5 pairs split ({count})", lambda a, u, s: a[5.0] != u[5.0]),
    ("H=5 aligned member {side}", lambda a, u, s: s * (float(a[5.0]) - float(u[5.0])) > 0.0),
)


def _partner_matches(rows, symmetry: str, acting_h: float) -> Tuple[int, int]:
    """(matched, testable) over a published table's H = 5 entries. The
    partners of (n, kappa) at ``acting_h`` are the table's H = 0 entries
    (n, kappa') whose condition is that of (n, kappa) at H = ``acting_h``: the
    same (lambda - 1/2)^2, so kappa' = kappa + acting_h or its mirror. An
    entry with a partner is testable, and matched when it equals one
    partner's H = 0 entry as a printed string."""

    def lq(kappa: int, h: float) -> float:
        return (effective_centrifugal(kappa, h, symmetry) - 0.5) ** 2

    entries = [
        (row.n, kappa, energies)
        for row in rows
        for kappa, energies in ((row.kappa_aligned, row.e_aligned), (row.kappa_unaligned, row.e_unaligned))
    ]
    matched = testable = 0
    for n, kappa, energies in entries:
        partners = [
            other[0.0] for m, k, other in entries if m == n and lq(k, 0.0) == lq(kappa, acting_h)
        ]
        if partners:
            testable += 1
            matched += energies[5.0] in partners
    return matched, testable


def cmd_reproduce_tables(cfg: RunConfig) -> int:
    _text_report_only(cfg, "reproduce-tables")
    lines = ["# benchmark-table reproduction report"]
    lines.append(
        "# captioned parameters: mass=5 fm^-1, v0=1, c_pspin=-5.5 fm^-1, c_spin=6 fm^-1"
    )

    lines.append("## threshold diagnostics at the published energies")
    for symmetry, (_, (anchor_e, _, _)) in _PUBLISHED.items():
        beta_anchor = beta_squared(_CAPTION, float(anchor_e), symmetry)
        lines.append(f"{symmetry} anchor E={anchor_e}: beta_sq={fmt_float(beta_anchor)}")

    values = np.array([
        beta_squared(_CAPTION, float(text), symmetry)
        for symmetry, (rows, _) in _PUBLISHED.items()
        for row in rows
        for text in (*row.e_aligned.values(), *row.e_unaligned.values())
    ])
    lines.append(
        f"entries of {values.size}: beta_sq negative {np.sum(values < 0.0)}, exactly at threshold "
        f"{np.sum(values == 0.0)}, positive {np.sum(values > 0.0)} (bound states need beta_sq > 0)"
    )

    lines.append("## screening fit on the pspin anchor entry")
    target = float(_PUBLISHED[PSPIN][1][0])
    lo, hi = strict_window(_CAPTION, PSPIN)
    lines.append(  # the strict set is empty by the proof in solve_energies
        "no screening value admits a strict root: "
        "the published energy makes beta_sq negative, so the principal-branch "
        "condition cannot be satisfied for any real screening (fit infeasible)"
    )
    lines.append(  # the bound is approached as screening -> 0 and never reached
        "closest relaxed-branch approach to the anchor at any screening: above "
        f"{fmt_float(min(abs(target - lo), abs(target - hi)))}, its distance to the strict window "
        f"({fmt_float(lo)}, {fmt_float(hi)}), which holds every relaxed root as t > 0 forces beta_sq > 0"
    )

    lines.append("## tensor strength the published H=5 columns encode")
    for acting_h in (1.0, 5.0):
        for symmetry, (rows, _) in _PUBLISHED.items():
            matched, testable = _partner_matches(rows, symmetry, acting_h)
            lines.append(
                f"{symmetry} H=5 entries equal to the H=0 entry of their H={acting_h:g} partner: "
                f"{matched} of {testable}"
            )

    lines.append("## internal degeneracy pattern of the published tables")
    failures = 0
    for name, holds in _PATTERNS:
        for symmetry, (rows, _) in _PUBLISHED.items():
            sign = symmetry_record(symmetry).sign
            ok = all(holds(row.e_aligned, row.e_unaligned, sign) for row in rows)
            failures += 0 if ok else 1
            label = name.format(count=len(rows), side="lower" if sign < 0.0 else "higher")
            lines.append(f"pattern {symmetry} {label}: {'PASS' if ok else 'FAIL'}")
    lines.append(f"# pattern_failures={failures}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand and its options.

    ``main`` builds it once per process, on its first call, and reuses it
    (``_cached_parser``): a build makes four subparsers that each copy the
    common options, a sizeable share of an in-process spectrum command, and
    nothing in it depends on argv. Reuse carries no state from
    one call to the next: ``parse_args`` leaves the parser as it was, and the
    one list option, ``--tensor-h``, appends to a fresh list because its
    default is None. Each subcommand's ``run`` is bound at that first build.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file")
    for key, (_, _, flag_keywords) in _OPTIONS.items():
        common.add_argument("--" + key.replace("_", "-"), dest=key, **flag_keywords)

    parser = argparse.ArgumentParser(prog="iqy-dirac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (
        ("spectrum", cmd_spectrum, "energy sweep over (n, kappa, H)"),
        ("reproduce-tables", cmd_reproduce_tables, "benchmark reproduction report"),
        ("crosscheck", cmd_crosscheck, "closed form vs shooting oracle"),
        (
            "wavefunction",
            cmd_wavefunction,
            "radial components of one state: n from --n or else --n-min, kappa from "
            "--single-kappa or else the first --kappa, H from the first --tensor-h",
        ),
    ):
        sub.add_parser(name, parents=[common], help=text, description=text).set_defaults(run=run)
    wf = sub.choices["wavefunction"]
    wf.add_argument("--n", type=int, help="radial quantum number (defaults to n-min)")
    wf.add_argument("--single-kappa", type=int, help="kappa (defaults to first of --kappa)")
    return parser


_cached_parser = functools.cache(build_parser)

_VALUE_FLAGS = {"--config", "--n", "--single-kappa", *("--" + key.replace("_", "-") for key in _OPTIONS)}


def _join_list_flags(argv: Sequence[str]) -> List[str]:
    """Fold '--cps -5.5e0' into '--cps=-5.5e0' for every flag that takes a
    value, so a negative value, in exponent form or a list, survives
    argparse's option detection as it does in the config file."""
    out: List[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _cached_parser().parse_args(_join_list_flags(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.run(build_config(args))
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except IqyDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # finite inputs whose arithmetic leaves the float range
        print(f"error: inputs out of floating-point range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
