"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from iqy_dirac import cli, limits  # noqa: E402


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request, tmp_path):
    return workloads.WORKLOADS[request.param](tmp_path)


def _class_counts(ops):
    counts = {}
    for op in ops:
        counts[op.label] = counts.get(op.label, 0) + 1
    return counts


def test_generator_is_deterministic_and_stratified(workload):
    first = [workload.block(7, b) for b in range(3)]
    assert first == [workload.block(7, b) for b in range(3)]
    other = workload.block(8, 0)
    assert other != first[0]
    assert _class_counts(other) == _class_counts(first[0]) == _class_counts(first[1])


def _one(workload, label):
    return next(op for op in workload.block(3, 0) if op.label == label)


def _run(workload, op):
    tally = run.Tally()
    run.run_op(workload, op, tally)
    return tally


@pytest.mark.parametrize("name, label", [("sweep", "pspin/json"), ("wavefunction", "csv")])
def test_offset_energy_is_a_failure(tmp_path, monkeypatch, name, label):
    workload = workloads.WORKLOADS[name](tmp_path)
    op = _one(workload, label)
    assert _run(workload, op).failed == 0
    original = cli.select_branch_root

    def shifted(solutions, symmetry):
        sol = original(solutions, symmetry)
        return None if sol is None else dataclasses.replace(sol, e=sol.e + 1.0e-6)

    monkeypatch.setattr(cli, "select_branch_root", shifted)
    tally = _run(workload, op)
    assert (tally.failed, tally.states) == (1, 0)


def test_offset_coulomb_energy_is_a_failure(tmp_path, monkeypatch):
    workload = workloads.Crosscheck(tmp_path)
    op = _one(workload, "anchor")
    original = limits.coulomb_energy
    monkeypatch.setattr(limits, "coulomb_energy", lambda *a: original(*a) + 1.0e-5)
    assert _run(workload, op).failed == 1


def test_exception_is_counted_and_run_continues(tmp_path, monkeypatch):
    workload = workloads.Sweep(tmp_path)

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", broken)
    tally = run.Tally()
    ops = workload.block(1, 0)
    for op in ops:
        run.run_op(workload, op, tally)
    assert tally.failed == len(tally.latencies) == len(ops)


def test_self_times_sum_to_operation_time(tmp_path):
    workload = workloads.Wavefunction(tmp_path)
    tracer = spans.Tracer()
    tally = run.Tally()
    originals = [getattr(m, a) for _, sites, _ in spans.SITES for m, a in sites]
    with tracer.install():
        for op in workload.block(5, 0)[:6]:
            run.run_op(workload, op, tally, tracer)
    assert originals == [getattr(m, a) for _, sites, _ in spans.SITES for m, a in sites]
    assert tally.failed == 0
    own = tracer.self_ms()
    roots = [i for i, s in enumerate(tracer.spans) if s.parent < 0]
    assert len(roots) == len(tally.latencies)
    for index, latency in zip(roots, tally.latencies):
        op_self = sum(ms for span, ms in zip(tracer.spans, own) if span.op == tracer.spans[index].op)
        assert op_self == pytest.approx(tracer.spans[index].ms, rel=1e-9)
        # the root span sits inside the runner's own timing of the operation
        assert 0.0 <= latency * 1e3 - tracer.spans[index].ms <= 0.05 * latency * 1e3 + 0.5
    names = {s.name.split(".")[0] for s in tracer.spans}
    assert {"cli", "dirac_iqy", "special_fn", "oracle"} <= names
    metrics = spans.layer_metrics(tracer)
    layer_self = sum(metrics[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert layer_self == pytest.approx(sum(t.ms for t in tracer.spans if t.parent < 0) - metrics["bench.self_ms"])


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == "" or not done.stdout.strip().splitlines()[-1].startswith("{")


def test_metrics_match_the_contract(tmp_path):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.Wavefunction(tmp_path)
    ops = workload.block(2, 0)[:6]
    tracer, plain, traced = spans.Tracer(), run.Tally(), run.Tally()
    with tracer.install():
        for op in ops:
            run.run_op(workload, op, plain)
            run.run_op(workload, op, traced, tracer)
    for key, metrics in (
        ("end_to_end", run.end_to_end(plain, [0.2, 0.3, 0.25])),
        ("per_layer", run.per_layer(tracer, plain, traced)),
    ):
        assert [(name, unit) for name, (_, unit) in metrics.items()] == [
            (m["name"], m["unit"]) for m in config[key]
        ]
    assert all(value > 0.0 for value, _ in run.end_to_end(plain, [0.2]).values())
