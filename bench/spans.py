"""Timing spans recorded from outside the package.

``Tracer.install`` replaces each layer's public functions, at the module
attributes through which they are called, with wrappers that record a span
(name, start, end, parent, operation id). Spans stay in memory until the run
ends. Nothing under ``src/`` is edited; the untraced run installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from iqy_dirac import cli, dirac_iqy, limits, oracle, special_fn

# nu_engine has no caller in src/ and reference_tables is data only, so no
# workload reaches them and they have no spans.
LAYERS = ("cli", "dirac_iqy", "special_fn", "oracle", "limits")
OP_LAYER = "bench"


def _grid_points(family) -> int:
    return len(family.r)


# (span name, call sites as (module, attribute), counter on the result).
# A function reached through several modules is patched at each of them.
SITES = (
    ("cli.main", ((cli, "main"),), None),
    ("cli.build_config", ((cli, "build_config"),), None),
    ("cli._spectrum_row", ((cli, "_spectrum_row"),), None),
    ("cli._rows_to_csv", ((cli, "_rows_to_csv"),), None),
    ("cli._rows_to_json", ((cli, "_rows_to_json"),), None),
    ("cli._write_text", ((cli, "_write_text"),), None),
    ("dirac_iqy.solve_energies", ((cli, "solve_energies"), (dirac_iqy, "solve_energies")), len),
    ("dirac_iqy.scan_window", ((dirac_iqy, "scan_window"),), None),
    ("dirac_iqy.assemble_wavefunction", ((dirac_iqy, "assemble_wavefunction"),), None),
    ("dirac_iqy.first_order_residual", ((cli, "first_order_residual"), (dirac_iqy, "first_order_residual")), None),
    ("special_fn.jacobi", ((dirac_iqy, "jacobi"), (special_fn, "jacobi")), None),
    ("special_fn.jacobi_derivative", ((dirac_iqy, "jacobi_derivative"),), None),
    ("oracle.pspin_family", ((oracle, "pspin_family"),), _grid_points),
    ("oracle.spin_family", ((oracle, "spin_family"),), _grid_points),
    ("oracle.coulomb_family", ((oracle, "coulomb_family"),), _grid_points),
    ("oracle.scan_eigenvalues", ((oracle, "scan_eigenvalues"),), len),
    ("oracle.shoot_eigenvalue", ((oracle, "shoot_eigenvalue"),), None),
    ("oracle.count_nodes", ((oracle, "count_nodes"),), None),
    ("limits.coulomb_energy", ((cli, "coulomb_energy"), (limits, "coulomb_energy")), None),
)
FAMILY_BUILDERS = ("oracle.pspin_family", "oracle.spin_family", "oracle.coulomb_family")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: bool = False
    count: Optional[int] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1.0e3


class Tracer:
    """In-memory span recorder. Spans are recorded only inside ``op``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_labels: List[str] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, len(self.op_labels) - 1))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label: str) -> Iterator[None]:
        """Root span of one benchmark operation."""
        self.op_labels.append(label)
        index = self._open(f"{OP_LAYER}.op")
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[index].error = True
                raise
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].count = counter(result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self) -> Iterator[None]:
        """Patch every site in ``SITES``; restore the originals on exit."""
        saved = []
        try:
            for name, sites, counter in SITES:
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_ms(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [span.ms for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.ms
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "start": span.start - t0, "end": span.end - t0,
                    "parent": span.parent, "op": span.op, "error": span.error,
                }) + "\n")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-function and per-layer numbers from the recorded spans."""
    out: Dict[str, float] = {}
    by_name: Dict[str, List[Span]] = {name: [] for name, _, _ in SITES}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    for name, _, _ in SITES:
        spans = by_name[name]
        out[f"{name}.calls"] = float(len(spans))
        out[f"{name}.ms"] = sum(s.ms for s in spans)
        out[f"{name}.ms_p50"] = statistics.median(s.ms for s in spans) if spans else 0.0
        out[f"{name}.errors"] = float(sum(s.error for s in spans))
    own = tracer.self_ms()
    for layer in LAYERS + (OP_LAYER,):
        out[f"{layer}.self_ms"] = sum(
            ms for span, ms in zip(tracer.spans, own) if span.name.split(".", 1)[0] == layer
        )
    solves = by_name["dirac_iqy.solve_energies"]
    out["dirac_iqy.solve_energies.roots"] = float(sum(s.count or 0 for s in solves))
    out["dirac_iqy.root_yield"] = sum(bool(s.count) for s in solves) / len(solves) if solves else 0.0
    out["oracle.family.grid_points"] = float(
        sum(s.count or 0 for name in FAMILY_BUILDERS for s in by_name[name])
    )
    out["oracle.scan_eigenvalues.roots"] = float(
        sum(s.count or 0 for s in by_name["oracle.scan_eigenvalues"])
    )
    return out
