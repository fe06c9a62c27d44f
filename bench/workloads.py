"""Seeded workloads of the benchmark: input generation, one operation, and the
correctness check of its output.

Each workload hands out inputs in blocks. A block has a fixed class mix, so
every seed and every run length sees the same proportions; the seed only
draws the parameters and the order inside a block. The program under test
receives nothing but the generated argv (``sweep``, ``wavefunction``) or
parameters (``crosscheck``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from iqy_dirac import cli, dirac_iqy, limits, oracle
from iqy_dirac.dirac_iqy import PSPIN, SPIN, PhysicalParams

CAPTION = dict(mass=5.0, v0=1.0, c_spin=6.0, c_pspin=-5.5)
SPECTRUM_HEADER = "symmetry,n_nu,n_spect,kappa,label,H,E,residual,beta_sq,strict_valid"
SPECTRUM_KEYS = SPECTRUM_HEADER.split(",")
TABLE_KAPPAS = {PSPIN: (-4, -3, -2, -1, 2, 3, 4, 5), SPIN: (-5, -4, -3, -2, 1, 2, 3, 4)}
TABLE_NS = (1, 2)
TABLE_HS = (0.0, 5.0)
WF_POINTS = 2001
# Acceptance criterion 7's states: each has a relaxed root for the caption
# parameters over the whole drawn screening range.
WF_STATES = {PSPIN: ((0, -1), (1, -1), (2, -2), (1, 2)), SPIN: ((0, -2), (1, 1))}
ANCHOR_STATES = ((0, 1), (1, 1), (0, 2))
CROSSCHECK_TOLERANCE = 1.0e-6
SOLVE_TOL = 1.0e-12  # the CLI's default --tol, absolute in E


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One operation: a class label, the states it completes, and its input
    (an argv list for CLI workloads, a parameter dict otherwise)."""

    label: str
    states: int
    inputs: Any


def block_rng(seed: int, index: int) -> random.Random:
    """Generator of one block, so block ``index`` is the same whatever ran before it."""
    return random.Random(f"{seed}/{index}")


def printed_root(params: PhysicalParams, n: int, kappa: int, symmetry: str, e: float) -> bool:
    """True when the quantization residual changes sign within the solver's
    absolute tolerance of the interval of energies that print as ``e`` with 9
    significant digits. Below |E| ~ 1e-3 the tolerance exceeds half a unit
    in the last printed digit, so that digit may be off by one."""
    if not math.isfinite(e) or e == 0.0:
        return False
    delta = 0.51 * 10.0 ** (math.floor(math.log10(abs(e))) - 8) + SOLVE_TOL
    lo, _ = dirac_iqy.energy_residual_rearranged(params, n, kappa, e - delta, symmetry)
    hi, _ = dirac_iqy.energy_residual_rearranged(params, n, kappa, e + delta, symmetry)
    return lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _flag_value(argv: List[str], flag: str) -> str:
    for i, token in enumerate(argv):
        if token == flag:
            return argv[i + 1]
        if token.startswith(flag + "="):
            return token.split("=", 1)[1]
    raise KeyError(flag)


class Sweep:
    """``spectrum`` commands shaped like the published tables: n 1..2, eight
    kappas and H in {0, 5}, so 32 rows each. A block holds four commands that
    alternate symmetry, two csv and two json."""

    name = "sweep"
    rows = len(TABLE_NS) * 8 * len(TABLE_HS)

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def block(self, seed: int, index: int) -> List[Op]:
        rng = block_rng(seed, index)
        ops = []
        for symmetry, fmt in ((PSPIN, "csv"), (SPIN, "json"), (PSPIN, "json"), (SPIN, "csv")):
            mass = rng.uniform(1.0, 10.0)
            argv = [
                "spectrum",
                "--symmetry", symmetry,
                f"--mass={mass!r}",
                f"--v0={rng.uniform(0.1, 3.0)!r}",
                f"--screening={math.exp(rng.uniform(math.log(0.005), math.log(0.5)))!r}",
                f"--cs={mass * rng.uniform(0.2, 1.8)!r}",
                f"--cps={-mass * rng.uniform(0.2, 1.8)!r}",
                "--n-min", str(TABLE_NS[0]),
                "--n-max", str(TABLE_NS[-1]),
                "--kappa=" + ",".join(str(k) for k in TABLE_KAPPAS[symmetry]),
                *(arg for h in TABLE_HS for arg in ("--tensor-h", repr(h))),
                "--format", fmt,
                "--out", str(self.out_dir / f"{self.name}.{fmt}"),
            ]
            ops.append(Op(f"{symmetry}/{fmt}", self.rows, argv))
        return ops

    def run(self, op: Op) -> int:
        return cli.main(op.inputs)

    def check(self, op: Op, code: int) -> Dict[str, float]:
        _require(code == 0, f"exit code {code}")
        argv = op.inputs
        symmetry, fmt = _flag_value(argv, "--symmetry"), _flag_value(argv, "--format")
        path = Path(_flag_value(argv, "--out"))
        text = path.read_text(encoding="utf-8")
        if fmt == "csv":
            lines = text.splitlines()
            _require(lines[0] == SPECTRUM_HEADER, f"header {lines[0]!r}")
            cells = [line.split(",") for line in lines[1:]]
            _require(all(len(row) == len(SPECTRUM_KEYS) for row in cells), "ragged row")
            rows = [dict(zip(SPECTRUM_KEYS, row)) for row in cells]
        else:
            rows = json.loads(text)
            _require(all(list(row) == SPECTRUM_KEYS for row in rows), "json keys")
        _require(len(rows) == self.rows, f"{len(rows)} rows")
        base = dict(
            mass=float(_flag_value(argv, "--mass")),
            v0=float(_flag_value(argv, "--v0")),
            screening=float(_flag_value(argv, "--screening")),
            c_spin=float(_flag_value(argv, "--cs")),
            c_pspin=float(_flag_value(argv, "--cps")),
        )
        combos = set()
        for row in rows:
            n, kappa, h = int(row["n_nu"]), int(row["kappa"]), float(row["H"])
            combos.add((n, kappa, h))
            _require(row["symmetry"] == symmetry, "symmetry column")
            _require(row["strict_valid"] in (False, "false"), "strict_valid must be false")
            e = row["E"]
            if e is None or e == "nan":
                continue
            e = float(e)
            params = PhysicalParams(tensor_h=h, **base)
            _require(printed_root(params, n, kappa, symmetry, e), f"E={e} is not a root")
            _require(symmetry == SPIN or e < 0.0, f"pspin E={e} >= 0")
        expected = {(n, k, h) for n in TABLE_NS for k in TABLE_KAPPAS[symmetry] for h in TABLE_HS}
        _require(combos == expected, "row set")
        return {"bytes_out": float(len(text.encode("utf-8")))}


class Crosscheck:
    """Per-state cross-checks through the library calls ``cmd_crosscheck``
    makes. A block holds 15 states: the Coulomb anchor trio, 2 IQY states
    whose effective potential dips below zero (full Numerov march) and 10 IQY
    states where it never does (early exit). The heavy share, 1/3, keeps the
    median inside ``iqy_flat`` and p90 inside ``anchor``."""

    name = "crosscheck"
    classes = {"anchor": 3, "iqy_march": 2, "iqy_flat": 10}
    # Spin at H = 0 with these kappas opens a well for every drawn screening;
    # pseudospin, or spin at H = 5, never does.
    march_kappas = (-2, -1, 1)
    flat_cases = ((PSPIN, 0.0), (PSPIN, 5.0), (SPIN, 5.0))
    flat_kappas = (-2, -1, 1, 2)
    screening_range = (0.03, 0.2)

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def _screening(self, rng: random.Random) -> float:
        lo, hi = self.screening_range
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def block(self, seed: int, index: int) -> List[Op]:
        rng = block_rng(seed, index)
        ops = [Op("anchor", 1, {"n": n, "kappa": k}) for n, k in ANCHOR_STATES]
        for _ in range(self.classes["iqy_march"]):
            ops.append(Op("iqy_march", 1, {
                "symmetry": SPIN, "tensor_h": 0.0, "screening": self._screening(rng),
                "n": rng.randrange(3), "kappa": rng.choice(self.march_kappas),
            }))
        for i in range(self.classes["iqy_flat"]):
            symmetry, h = self.flat_cases[i % len(self.flat_cases)]
            ops.append(Op("iqy_flat", 1, {
                "symmetry": symmetry, "tensor_h": h, "screening": self._screening(rng),
                "n": rng.randrange(3), "kappa": rng.choice(self.flat_kappas),
            }))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op) -> Tuple[Any, Any]:
        p = op.inputs
        if op.label == "anchor":
            closed = limits.coulomb_energy(1.0, -1.0, p["n"], p["kappa"])
            family = oracle.coulomb_family(1.0, -1.0, p["kappa"], r_max=60.0, step=5.0e-3)
            shot = oracle.shoot_eigenvalue(family, (-0.999, -0.02), node_target=p["n"], tol=1.0e-10)
            return closed, shot
        params = PhysicalParams(screening=p["screening"], tensor_h=p["tensor_h"], **CAPTION)
        n, kappa, symmetry = p["n"], p["kappa"], p["symmetry"]
        strict = dirac_iqy.solve_energies(params, n, kappa, symmetry, mode="strict")
        bounds = dirac_iqy.scan_window(params, n, kappa, symmetry, None)
        if bounds is None:
            return strict, []
        family = oracle.pspin_family(params, kappa) if symmetry == PSPIN else oracle.spin_family(params, kappa)
        return strict, oracle.scan_eigenvalues(family, bounds, tol=1.0e-9)

    def check(self, op: Op, result: Tuple[Any, Any]) -> Dict[str, float]:
        if op.label == "anchor":
            closed, shot = result
            _require(abs(closed - shot) <= CROSSCHECK_TOLERANCE, f"anchor |dE|={abs(closed - shot)}")
            return {}
        strict, shots = result
        _require(len(strict) == len(shots), f"{len(strict)} closed-form vs {len(shots)} shooting roots")
        for sol, (e_shot, nodes) in zip(strict, shots):
            _require(abs(sol.e - e_shot) <= CROSSCHECK_TOLERANCE, f"|dE|={abs(sol.e - e_shot)}")
            _require(nodes == op.inputs["n"], f"nodes {nodes}")
        return {}


class Wavefunction:
    """``wavefunction`` dumps of 2001 points over criterion 7's states, H in
    {0, 5}, with drawn screening. A block holds each of the 12 (state, H)
    pairs three times, twice as csv and once as json, in drawn order. The two
    formats cost very different times; an even split would put the median on
    the gap between them."""

    name = "wavefunction"
    screening_range = (0.03, 0.12)
    formats = ("csv", "csv", "json")

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def block(self, seed: int, index: int) -> List[Op]:
        rng = block_rng(seed, index)
        cases = [
            (sym, n, k, h, fmt)
            for sym, states in WF_STATES.items() for n, k in states for h in TABLE_HS
            for fmt in self.formats
        ]
        rng.shuffle(cases)
        ops = []
        for symmetry, n, kappa, h, fmt in cases:
            lo, hi = self.screening_range
            argv = [
                "wavefunction",
                "--symmetry", symmetry,
                *(f"--{key}={value!r}" for key, value in (
                    ("mass", CAPTION["mass"]), ("v0", CAPTION["v0"]),
                    ("cs", CAPTION["c_spin"]), ("cps", CAPTION["c_pspin"]),
                    ("screening", rng.uniform(lo, hi)), ("tensor-h", h),
                )),
                f"--n={n}",
                f"--single-kappa={kappa}",
                "--format", fmt,
                "--out", str(self.out_dir / f"{self.name}.{fmt}"),
            ]
            ops.append(Op(fmt, 1, argv))
        return ops

    def run(self, op: Op) -> int:
        return cli.main(op.inputs)

    def check(self, op: Op, code: int) -> Dict[str, float]:
        _require(code == 0, f"exit code {code}")
        argv = op.inputs
        symmetry, fmt = _flag_value(argv, "--symmetry"), _flag_value(argv, "--format")
        n, kappa = int(_flag_value(argv, "--n")), int(_flag_value(argv, "--single-kappa"))
        text = Path(_flag_value(argv, "--out")).read_text(encoding="utf-8")
        if fmt == "json":
            payload = json.loads(text)
            meta = payload["meta"]
            e, nodes = meta["E"], meta["nodes"]
            table = np.array([[s["r"], s["s"], s["F"], s["G"]] for s in payload["samples"]], dtype=float)
        else:
            lines = text.splitlines()
            header = dict(
                item.split("=", 1) for line in lines[:3] for item in line.lstrip("# ").split(" ")
            )
            _require(lines[3] == "r,s,F,G", f"column header {lines[3]!r}")
            e, nodes = float(header["E"]), int(header["nodes"])
            table = np.array([line.split(",") for line in lines[4:]], dtype=float)
        _require(table.shape == (WF_POINTS, 4), f"table shape {table.shape}")
        _require(bool(np.all(np.isfinite(table))), "non-finite sample")
        r = table[:, 0]
        dominant = table[:, 3] if symmetry == PSPIN else table[:, 2]
        norm = float(np.sum(0.5 * (dominant[1:] ** 2 + dominant[:-1] ** 2) * np.diff(r)))
        _require(abs(norm - 1.0) <= 1.0e-6, f"dominant L2 norm {norm}")
        params = PhysicalParams(
            screening=float(_flag_value(argv, "--screening")),
            tensor_h=float(_flag_value(argv, "--tensor-h")),
            **CAPTION,
        )
        _require(printed_root(params, n, kappa, symmetry, e), f"E={e} is not a root")
        return {"bytes_out": float(len(text.encode("utf-8"))), "dumps": 1.0, "nodes_match": float(nodes == n)}


WORKLOADS = {cls.name: cls for cls in (Sweep, Crosscheck, Wavefunction)}
