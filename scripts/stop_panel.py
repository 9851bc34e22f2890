"""Stop reasons of the bench's Landweber sweep over a panel of noise seeds.

Runs the ``landweber_sweep`` configuration of the bench (default phantom,
trig currents 1-3, tau = 1, H2_beta, ``max_iter`` 600, data made on a
40000-vertex mesh) for every accessible angle, relative noise level,
reconstruction mesh size and noise seed of the grid
(``--fine-vertices`` and ``--max-iter`` shrink the data mesh and the
iteration limit for toy runs), and prints one line per
(angle, noise, vertices, seed) run:

* ``stop`` and ``k``: the stop reason and the number of iterations;
* ``res/tau_delta``: the final residual over tau * delta;
* ``truth/delta``: the truth residual |F_h(sigma_true) - E_delta| / delta,
  the least residual the discrepancy principle could expect;
* ``error``: the final relative L2 error, and ``min_error@k``: the
  smallest error of the run and the iteration it was reached at.

A run fails when it does not stop by the discrepancy principle. The
lines end with the failed count per (angle, noise, vertices).

``--compare PATH`` runs the same panel, in a subprocess at the same
time, on the ``aet2d`` package under ``PATH/src`` (another checkout) and
prints both panels, every run whose stop reason differs between the two
(a flip), and the failed counts of the two side by side. Every input is
fixed, so two runs of one checkout print the same lines.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/stop_panel.py --seeds 1-16
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/stop_panel.py \\
        --seeds 1-16 --compare ../parent

That comparison, 16 seeds at the four angles and 5% noise, took about
8 minutes on two cores, one per side.
"""

import argparse
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np

import aet2d
from aet2d.cli import parse_angle

MAX_ITER = 600
FINE_VERTICES = 40000


def parse_seeds(text):
    """Seeds from a comma-separated list of numbers and ranges, e.g. ``1-15,2024``."""
    seeds = []
    for item in filter(None, (part.strip() for part in text.split(","))):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _list(parse):
    return lambda text: [parse(item) for item in text.split(",") if item.strip()]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-16"),
                        help="noise seeds, e.g. 1-16 or 1,2,7,2024 (default 1-16)")
    parser.add_argument("--noise", type=_list(float), default=[0.05],
                        help="relative noise levels, comma-separated (default 0.05)")
    parser.add_argument("--vertices", type=_list(int), default=[2000],
                        help="reconstruction mesh sizes, comma-separated (default 2000)")
    parser.add_argument("--angles", type=lambda t: [a.strip() for a in t.split(",") if a.strip()],
                        default=["2pi", "3pi/2", "pi", "pi/2"],
                        help="accessible arc angles, comma-separated (default 2pi,3pi/2,pi,pi/2)")
    parser.add_argument("--fine-vertices", type=int, default=FINE_VERTICES,
                        help=f"vertices of the data mesh (default {FINE_VERTICES})")
    parser.add_argument("--max-iter", type=int, default=MAX_ITER,
                        help=f"Landweber iteration limit (default {MAX_ITER})")
    parser.add_argument("--compare", metavar="PATH",
                        help="also run the panel on the aet2d package under PATH/src")
    return parser.parse_args(argv)


def panel(args):
    """Yield the line of each run of the grid, in (angle, vertices, noise, seed) order."""
    fine = aet2d.generate_disk_mesh(args.fine_vertices)
    phantom = aet2d.default_phantom()
    config = aet2d.ReconstructionConfig(
        tau=1.0, max_iter=args.max_iter, spec=aet2d.InnerProductSpec.h2_beta()
    )
    meshes = [aet2d.generate_disk_mesh(n) for n in args.vertices]
    for angle in args.angles:
        ms = aet2d.MeasurementSet.trig(parse_angle(angle))
        for mesh in meshes:
            truth = aet2d.phantom_field(phantom, mesh)
            data, _ = aet2d.simulate_data(phantom, ms, mesh, fine_mesh=fine)
            model = aet2d.solve_measurement_set(truth, ms).power_densities.values
            for noise in args.noise:
                for seed in args.seeds:
                    noisy, delta = aet2d.add_noise(data, noise, seed)
                    truth_res = math.sqrt(aet2d.norm_sq(mesh, noisy.values - model)) / delta
                    _, log = aet2d.run_landweber(config, noisy, delta, ms, truth)
                    k_min = int(np.argmin(log.rel_errors))
                    yield (
                        f"alpha={angle} noise={noise:g} V={mesh.num_vertices} seed={seed} "
                        f"stop={log.stop_reason} k={log.num_iterations} "
                        f"res/tau_delta={log.residuals[-1] / (config.tau * delta):.6f} "
                        f"truth/delta={truth_res:.4f} error={log.rel_errors[-1]:.6f} "
                        f"min_error@k={log.rel_errors[k_min]:.6f}@{k_min}"
                    )


def fields(line):
    """The ``key=value`` pairs of a panel line."""
    return dict(item.split("=", 1) for item in line.split())


def failed_counts(lines):
    """Failed and total runs per (angle, noise, vertices), in first-seen order."""
    failed, total = Counter(), Counter()
    for line in lines:
        f = fields(line)
        key = (f["alpha"], f["noise"], f["V"])
        total[key] += 1
        failed[key] += f["stop"] != "discrepancy"
    return {key: (failed[key], total[key]) for key in total}


def _group(key):
    alpha, noise, v = key
    return f"alpha={alpha} noise={noise} V={v}"


def compare(here, other, other_name):
    """Print the flips between two panels and their failed counts side by side."""
    print(f"# flips (stop and k here / at {other_name})")
    flips = 0
    for a, b in zip(here, other, strict=True):
        fa, fb = fields(a), fields(b)
        if fa["stop"] != fb["stop"]:
            flips += 1
            print(
                f"{_group((fa['alpha'], fa['noise'], fa['V']))} seed={fa['seed']}: "
                f"{fa['stop']} k={fa['k']} / {fb['stop']} k={fb['k']}"
            )
    print(f"# {flips} flips")
    print(f"# failed runs per group (here / at {other_name})")
    counts = failed_counts(other)
    for key, (failed, total) in failed_counts(here).items():
        print(f"{_group(key)}: {failed}/{total} / {counts[key][0]}/{counts[key][1]}")


def grid_argv(args):
    """The command-line arguments that select the grid of ``args``."""
    return [
        "--seeds", ",".join(map(str, args.seeds)),
        "--noise", ",".join(map(repr, args.noise)),
        "--vertices", ",".join(map(str, args.vertices)),
        "--angles", ",".join(args.angles),
        "--fine-vertices", str(args.fine_vertices),
        "--max-iter", str(args.max_iter),
    ]


def main(argv=None):
    args = parse_args(argv)
    child = None
    if args.compare:
        src = os.path.join(os.path.abspath(args.compare), "src")
        if not os.path.isfile(os.path.join(src, "aet2d", "__init__.py")):
            sys.exit(f"no aet2d package under {src}")
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *grid_argv(args)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True,
        )
        print(f"# here: aet2d from {os.path.dirname(os.path.dirname(aet2d.__file__))}")
    try:
        here = []
        for line in panel(args):
            here.append(line)
            print(line, flush=True)
        out = child.communicate()[0] if child else ""
    finally:
        if child:
            child.kill()
    if child is None:
        print("# failed runs per group")
        for key, (failed, total) in failed_counts(here).items():
            print(f"{_group(key)}: {failed}/{total}")
        return 0
    if child.returncode != 0:
        sys.exit(f"the panel under {args.compare} exited with {child.returncode}")
    other = [line for line in out.splitlines() if " seed=" in line]
    print(f"# at {args.compare}")
    print("\n".join(other))
    compare(here, other, args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
