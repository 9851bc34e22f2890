"""Worst relative deviation of the condition grid from the stacked-block SVD.

Runs ``condition_table`` twice on the default phantom (checking that the
two grids are bitwise identical), then compares every entry with
sigma_max / sigma_min of the SVD of its stacked blocks and prints the
worst relative deviation. Exits nonzero unless the grid repeats and every
entry is within 1e-10. The stacked SVDs make this slow: about two
minutes at 2000 vertices on one core.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/condition_grid_accuracy.py 1000 2000
"""

import sys
import time

import numpy as np

import aet2d
from aet2d.illposed import TABLE_ANGLES, condition_table, singular_values


def check(num_vertices: int) -> bool:
    """Print the grid's time, repeatability and worst deviation; True if
    it repeats bit for bit and every entry is within 1e-10."""
    mesh = aet2d.generate_disk_mesh(num_vertices)
    truth = aet2d.phantom_field(aet2d.default_phantom(), mesh)
    start = time.perf_counter()
    rows = condition_table(truth)
    elapsed = time.perf_counter() - start
    # the entries are finite and >= 1, so equal floats are equal bits
    repeats = condition_table(truth) == rows
    worst = 0.0
    for alpha in TABLE_ANGLES:
        T = aet2d.assemble_transfer_matrix(truth, aet2d.MeasurementSet.trig(alpha))
        blocks = T.matrix.reshape(-1, mesh.num_vertices, mesh.num_vertices)
        for row in rows:
            s = singular_values(np.vstack([blocks[j - 1] for j in row["indices"]]))
            worst = max(worst, abs(row[alpha] / (s[0] / s[-1]) - 1.0))
    print(
        f"{mesh.num_vertices} vertices: grid {elapsed:.2f} s, "
        f"bitwise repeat {repeats}, worst relative deviation {worst:.2e}"
    )
    return repeats and worst <= 1e-10


if __name__ == "__main__":
    sizes = [int(arg) for arg in sys.argv[1:]] or [1000, 2000]
    results = [check(n) for n in sizes]
    sys.exit(0 if all(results) else 1)
