import importlib.util
import os
import subprocess
import sys

import pytest

from aet2d.inversion import STOP_REASONS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "stop_panel.py")
TOY = ["--seeds", "1-2", "--vertices", "200", "--fine-vertices", "2000",
       "--max-iter", "40", "--angles", "2pi,pi"]


@pytest.fixture(scope="module")
def stop_panel():
    spec = importlib.util.spec_from_file_location("stop_panel", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(stop_panel):
    assert stop_panel.parse_seeds("1-3,7, 2024") == [1, 2, 3, 7, 2024]


def test_compare_lists_flips_and_failed_counts(stop_panel, capsys):
    def line(seed, stop, k):
        return (f"alpha=pi noise=0.05 V=198 seed={seed} stop={stop} k={k} "
                "res/tau_delta=1 truth/delta=1 error=0.1 min_error@k=0.1@3")

    here = [line(1, "discrepancy", 12), line(2, "max_iter", 40)]
    other = [line(1, "max_iter", 40), line(2, "max_iter", 40)]
    stop_panel.compare(here, other, "parent")
    out = capsys.readouterr().out
    assert "alpha=pi noise=0.05 V=198 seed=1: discrepancy k=12 / max_iter k=40" in out
    assert "# 1 flips" in out
    assert "alpha=pi noise=0.05 V=198: 1/2 / 2/2" in out


def test_toy_panel_compared_with_its_own_checkout():
    # Two seeds at two angles on 200 vertices; the other side runs the same
    # package in a subprocess, so it must print the same lines and no flip.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, SCRIPT, *TOY, "--compare", ROOT],
        env=env, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    out = proc.stdout.splitlines()
    runs = [line for line in out if " seed=" in line and not line.startswith("#")]
    here, other = runs[:4], runs[4:8]
    assert here == other
    assert len(runs) == 8
    for line, (alpha, seed) in zip(here, [(a, s) for a in ("2pi", "pi") for s in (1, 2)]):
        fields = dict(item.split("=", 1) for item in line.split())
        assert (fields["alpha"], fields["seed"], fields["V"]) == (alpha, str(seed), "198")
        assert fields["stop"] in STOP_REASONS
        assert 1 <= int(fields["k"]) <= 40
        error = float(fields["error"])
        min_error, k_min = fields["min_error@k"].split("@")
        assert float(min_error) <= error and 0 <= int(k_min) <= int(fields["k"])
        assert float(fields["truth/delta"]) > 0.0 and float(fields["res/tau_delta"]) > 0.0
    assert "# 0 flips" in out
    assert out[-2:] == [
        f"alpha={alpha} noise=0.05 V=198: {f}/2 / {f}/2"
        for alpha, f in (("2pi", _failed(here[:2])), ("pi", _failed(here[2:])))
    ]


def _failed(lines):
    return sum("stop=discrepancy" not in line for line in lines)
