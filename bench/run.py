"""Benchmark of the aet2d toolkit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``):

* ``landweber_sweep``: criterion 5c, noisy Landweber (5% noise, tau=1,
  H2_beta, max_iter=600) on 2000 vertices at alpha = 2pi, 3pi/2, pi,
  pi/2, with data made on 40000 vertices in set-up. Many small sparse
  factorizations, no dense linear algebra.
* ``condition_grid``: criterion 6, the 7x4 condition-number grid on
  1000 vertices, then one transfer matrix and ``svd_analyze`` at
  alpha = pi. Dense LAPACK, few factorizations.
* ``cli_roundtrip``: ``aet2d simulate`` then ``aet2d reconstruct`` in a
  fresh directory for trig alpha=2pi, trig alpha=3pi/2 and the special
  family, at 2000 / 40000 vertices: the only workload with the large
  mesh and file I/O on its critical path.

Load model: one process and one caller per workload, closed loop; BLAS
is pinned to ``BLAS_THREADS`` threads. The workload seed is the noise
seed of ``landweber_sweep`` and ``cli_roundtrip``; the condition grid
has no random input. Iteration counts depend on the seed.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: the timed section, median over the run's repetitions;
* ``setup_s``: imports, meshes, data synthesis and noise, median over
  ``SETUP_SAMPLES`` fresh processes: the worker's own set-up and
  ``--setup-only`` processes that stop before the timed section;
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the workload;
* ``rel_error``: mean final relative L2 error of the reconstructions.
  ``condition_grid`` reconstructs nothing; there it is a drift guard on
  the condition numbers, not an accuracy metric: the mean distance in
  decades of its g1+g2+g3 row (1000 vertices) from the criterion-6
  reference row (2000 vertices).

``--trace 1`` prints the per-layer metrics of ``spans.py`` from spans
recorded around the package's functions, and the tracing overhead. A
traced run traces every repetition and makes at least two, so it can
last longer than ``--seconds``; exact counts must repeat between its
repetitions.
Every run prints its operations and checks, the seed, the machine and
the BLAS thread count, and saves them under ``.bench_out/``. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("landweber_sweep", "condition_grid", "cli_roundtrip")
BLAS_THREADS = 1
# Fresh-process set-ups per untraced run, the worker's own included.
# A cheap set-up is dominated by imports and is noisy.
SETUP_SAMPLES = 3
# Whole-run limit: every child is killed after this many seconds in total.
RUN_LIMIT_S = 170.0


def child(args, deadline, setup_only=False):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", SRC, "--out-dir", OUT_DIR,
    ]
    argv += ["--toy"] * args.toy + ["--setup-only"] * setup_only
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"worker for {args.workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (800 / 8000 / 200 vertices) for the smoke test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "aet2d", "__init__.py")):
        sys.exit(f"no aet2d package under {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    setups = [
        child(args, deadline, setup_only=True)["setup_s"]
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
    ]
    res = child(args, deadline)
    setups.append(res["setup_s"])

    correct = res["correct"] and math.isfinite(res["rel_error"])
    problems = list(res["problems"])
    walls = res["walls"]
    if args.trace:
        metrics = res.get("layer", {})
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "rel_error": {"value": res["rel_error"], "unit": "1"},
        }

    machine = res["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  sizes {res['sizes']}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"operations: attempted {res['attempted']}  failed {res['failed']}  (first repetition below)")
    for line in res["ops"]:
        print("  " + line)
    for line in problems:
        print("problem: " + line)
    print(f"timed section: {len(walls)} repetitions, walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    if args.trace:
        print("self time by layer, first repetition:")
        for name, value in res.get("self_time", {}).items():
            print(f"  {name:26s} {value:10.4f} s")
        if res.get("absent"):
            print("absent (target not found): " + ", ".join(res["absent"]))
        print(f"spans written to {os.path.relpath(res['spans_path'], ROOT)}")
    else:
        print("setup samples " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for name, m in metrics.items():
        computed = " (computed)" if name in res.get("computed", ()) else ""
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}{computed}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "sizes": res["sizes"], "machine": machine,
        "walls": walls, "setup_samples": setups, "metrics": metrics,
        "attempted": res["attempted"], "failed": res["failed"], "correct": correct,
        "ops": res["ops"], "problems": problems,
    }
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_toy' if args.toy else ''}"
    with open(os.path.join(OUT_DIR, f"result_{tag}.json"), "w") as fp:
        json.dump(record, fp, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
