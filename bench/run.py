"""Benchmark of the iqy-dirac package, run from the root of a source checkout:

    python3 bench/run.py --workload {sweep,crosscheck,wavefunction} \
        --seed N --seconds S --trace {0,1}

One single-threaded client runs a closed loop: the next operation starts
when the previous one has finished, so there are no queues and no wait time.
Operations come in seeded blocks (see ``workloads.py``); whole blocks run
until ``--seconds`` have passed. Every output is checked; an operation fails
when it raises, exits non-zero or fails its check, and a failure never stops
the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each block
twice, untraced then traced, and prints the per-layer metrics from the
spans, with the tracing overhead as the throughput lost between the two.
The last line of stdout is one JSON object; lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Import-time probes, spread evenly over the run so that their median, like
# the operations, spans the machine's slow and fast spells.
SETUP_SAMPLES = 12
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import iqy_dirac.cli; "
    "print(time.perf_counter() - t0)"
)


@dataclass
class Tally:
    """Latencies and outcomes of the operations of one pass."""

    latencies: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    states: int = 0
    failed: int = 0
    facts: Dict[str, float] = field(default_factory=dict)

    def states_per_s(self) -> float:
        """States completed per second of operation time. On a machine whose
        speed drifts from block to block this total is steadier than a median
        of per-block rates."""
        return self.states / sum(self.latencies)


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def import_seconds() -> float:
    """Time a fresh interpreter takes to import ``iqy_dirac.cli``."""
    env = {k: v for k, v in os.environ.items() if k != "SPECTRA_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def run_op(workload, op, tally: Tally, tracer=None) -> None:
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(op)
        else:
            with tracer.op(op.label):
                output = workload.run(op)
    except Exception:
        output, error = None, traceback.format_exc(limit=3)
    else:
        error = None
    tally.latencies.append(time.perf_counter() - start)
    tally.labels.append(op.label)
    if error is None:
        try:
            for key, value in workload.check(op, output).items():
                tally.facts[key] = tally.facts.get(key, 0.0) + value
        except Exception:
            error = traceback.format_exc(limit=3)
    if error is None:
        tally.states += op.states
    else:
        tally.failed += 1
        if tally.failed <= 3:
            print(f"FAILED {op.label} {op.inputs!r}\n{error}", file=sys.stderr)


@dataclass
class Run:
    blocks: int
    warm: Tally
    plain: Tally
    traced: Tally
    setup: List[float]

    def tallies(self) -> List[Tally]:
        return [self.warm, self.plain, self.traced]


def run_blocks(workload, seed: int, seconds: float, probe: Optional[Callable[[], float]], tracer=None) -> Run:
    """Run whole blocks until ``seconds`` pass; with a tracer, each block
    runs untraced and then traced. Before timing, one operation of each
    class warms up, and one setup probe (which may compile bytecode) is
    discarded."""
    warm, seen = Tally(), set()
    for op in workload.block(seed, -1):
        if op.label not in seen:
            seen.add(op.label)
            run_op(workload, op, warm)
    if probe is not None:
        probe()
    out = Run(0, warm, Tally(), Tally(), [])
    start = time.perf_counter()
    while out.blocks == 0 or time.perf_counter() - start < seconds:
        if probe is not None and time.perf_counter() - start >= len(out.setup) * seconds / SETUP_SAMPLES:
            out.setup.append(probe())
        ops = workload.block(seed, out.blocks)
        for op in ops:
            run_op(workload, op, out.plain)
        if tracer is not None:
            with tracer.install():
                for op in ops:
                    run_op(workload, op, out.traced, tracer)
        out.blocks += 1
    while probe is not None and len(out.setup) < SETUP_SAMPLES:
        out.setup.append(probe())
    return out


def end_to_end(plain: Tally, setup: List[float]) -> Dict[str, tuple]:
    attempted = len(plain.latencies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "states_per_s": (plain.states_per_s(), "1/s"),
        "op_ms_p50": (statistics.median(plain.latencies) * 1e3, "ms"),
        "op_ms_p90": (p90(plain.latencies) * 1e3, "ms"),
        "success_rate": ((attempted - plain.failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, plain: Tally, traced: Tally) -> Dict[str, tuple]:
    """Span metrics plus the counters taken from checked outputs."""
    import spans

    layers = spans.layer_metrics(tracer)
    units = {"calls": "count", "errors": "count", "roots": "count", "grid_points": "count", "root_yield": "ratio"}
    out = {name: (value, units.get(name.rsplit(".", 1)[-1], "ms")) for name, value in layers.items()}
    facts = traced.facts
    out["cli.bytes_out"] = (facts.get("bytes_out", 0.0), "bytes")
    dumps = facts.get("dumps", 0.0)
    out["dirac_iqy.nodes_match_ratio"] = (facts.get("nodes_match", 0.0) / dumps if dumps else 0.0, "ratio")
    op_ms: Dict[str, List[float]] = {}
    for span in tracer.spans:
        if span.parent < 0:
            op_ms.setdefault(tracer.op_labels[span.op], []).append(span.ms)
    for label in ("anchor", "iqy_march", "iqy_flat"):
        values = op_ms.get(label)
        out[f"crosscheck.{label}.ms_p50"] = (statistics.median(values) if values else 0.0, "ms")
    total_ms = sum(traced.latencies) * 1e3
    out["trace.ops"] = (float(len(traced.latencies)), "count")
    out["trace.op_ms"] = (total_ms, "ms")
    layer_self = sum(layers[f"{layer}.self_ms"] for layer in spans.LAYERS)
    out["trace.layer_self_share"] = (layer_self / total_ms, "ratio")
    out["trace.states_per_s"] = (traced.states_per_s(), "1/s")
    out["trace.untraced_states_per_s"] = (plain.states_per_s(), "1/s")
    out["trace.overhead"] = (1.0 - traced.states_per_s() / plain.states_per_s(), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "crosscheck", "wavefunction"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iqy_dirac" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("SPECTRA_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy
    import iqy_dirac

    if Path(iqy_dirac.__file__).resolve().parent != (SRC / "iqy_dirac").resolve():
        print(f"error: imported iqy_dirac from {iqy_dirac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT_DIR)
    tracer = spans.Tracer() if args.trace else None
    probe = None if args.trace else import_seconds
    result = run_blocks(workload, args.seed, args.seconds, probe, tracer)

    print("# env " + json.dumps({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace, "blocks": result.blocks,
    }))
    latencies = result.plain.latencies
    tail = p90(latencies)
    print(f"# ops {len(latencies)}, per class {json.dumps(Counter(result.plain.labels))}; "
          f"{sum(t > tail for t in latencies)} beyond p90")
    attempted = sum(len(t.latencies) for t in result.tallies())
    failed = sum(t.failed for t in result.tallies())
    print(f"{'error_rate':32s} {failed / attempted:.6g} ratio")
    if tracer is None:
        metrics = end_to_end(result.plain, result.setup)
    else:
        metrics = per_layer(tracer, result.plain, result.traced)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
