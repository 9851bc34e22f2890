"""Smoke test of the benchmark at toy sizes.

Run from the root of the repository:

    python3 -m pytest bench/tests

It is not part of the tier-1 suite, whose ``testpaths`` name ``tests``
only, and takes one to two minutes: at toy sizes the sweep still runs
two reconstructions to the 600-iteration cap.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fp:
    SPEC = json.load(_fp)

COUNT_UNITS = ("count", "bytes", "MB")


def run_bench(workload, trace, seed=11):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_counts_repeat(workload):
    plain = run_bench(workload, 0)
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert plain["metrics"][metric["name"]]["value"] > 0

    traced = run_bench(workload, 1)
    for metric in SPEC["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]

    again = run_bench(workload, 1)
    counts = {n: m["value"] for n, m in traced["metrics"].items() if m["unit"] in COUNT_UNITS}
    assert counts == {n: m["value"] for n, m in again["metrics"].items() if m["unit"] in COUNT_UNITS}


@pytest.fixture
def spans_module(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(BENCH)
    import spans

    return spans


def test_layer_metrics_match_benchmark_json(spans_module):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {name: unit for name, (unit, _) in spans_module.LAYER_METRICS.items()}


def test_wrappers_reach_held_references_and_come_off(spans_module, monkeypatch):
    import aet2d
    import aet2d.cli
    import aet2d.inversion

    originals = (aet2d.cli.run_landweber, aet2d.cli._COMMANDS["simulate"], aet2d.run_landweber)
    # A refactor that removes a target: its metrics are absent, the run goes on.
    targets = tuple(
        (name, module, "ZeroMeanSolver.removed" if name == "fem.factor" else attr, info)
        for name, module, attr, info in spans_module.TARGETS
    )
    monkeypatch.setattr(spans_module, "TARGETS", targets)
    tracer = spans_module.Tracer("smoke")
    tracer.install()
    try:
        assert aet2d.cli.run_landweber is aet2d.inversion.run_landweber
        assert aet2d.cli.run_landweber is not originals[0]
        assert aet2d.cli._COMMANDS["simulate"] is not originals[1]
        assert tracer.absent == ["fem.factor"]
        tracer.phase, tracer.rep = "timed", 1
        mesh = aet2d.generate_disk_mesh(100)
        aet2d.solve_measurement_set(aet2d.NodalField.constant(mesh, 1.0), aet2d.MeasurementSet.special())
    finally:
        tracer.uninstall()
    assert (aet2d.cli.run_landweber, aet2d.cli._COMMANDS["simulate"], aet2d.run_landweber) == originals

    metrics, mismatches, absent = spans_module.layer_metrics(tracer, [1])
    assert {"fem.factor_s", "fem.factor_calls", "fem.factor_ms"} <= set(absent)
    assert "fem.factor_s" not in metrics and not mismatches
    assert metrics["fem.stiffness_calls"]["value"] == 1
    assert metrics["fem.solve_rhs"]["value"] == 3
    assert 0 < metrics["trace.overhead_s"]["value"] < 0.1
