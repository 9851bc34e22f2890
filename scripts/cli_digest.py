"""sha256 of every file that a fixed-seed run of the CLI writes, and of
the arrays of fixed-seed library runs.

Runs ``phantom``, ``simulate``, ``reconstruct``, ``svd`` and
``condition-table`` at small mesh sizes in a temporary directory. In all
runs but the last two, every CLI setting is pinned: a flag, or the
config section of a command that reads it, sets it, to a non-default
value where the runs allow. The two last runs, ``phantom`` into
``phantom_default`` and ``reconstruct`` of the ``trig`` data into
``trig/recon_default``, take no config and set only sizes and paths,
so a wrong default changes their lines. It then prints one
``<sha256>  <path>`` line per written file, in path order.
``condition-table`` runs twice, the second time with ``--truncate 40``,
so the grid's SVD of a square triangle has a line too.
The commands' own messages go to stderr. One ``reconstruct`` runs in
L2 through a second config, ``L2_CONFIG``, which sets beta1 = beta2 = 0;
it is written outside that directory, so it adds no line. Next it runs
``simulate_data``, ``add_noise`` and ``run_landweber`` through the
package's public API for three angles and the L2, H2 and H2_beta inner
products, and prints one ``<sha256>  library/<run>/<array>`` line for
the noisy data and noise level, the final iterate, each iteration-log
array and the stop reason. One ``library/data_second_phantom`` line
hashes the data that ``simulate_data`` then makes on the same data mesh
for a second phantom (background 1.2, the default phantom's first two
inclusions) at alpha = pi: data served by a factorization of the first
phantom would change it. One ``library/svd_pi`` line hashes the
spectrum, the exported right singular vectors and the condition number
of ``svd_analyze`` with vectors (1, 100) on the condition-grid bench's
shape (three measurements, alpha = pi), at the library mesh size.
Then come ``<sha256>  mesh/<n>/<array>`` lines for the four arrays of
``generate_disk_mesh(n)`` at the bench's mesh sizes, the 40000-vertex
data mesh included, each hashed with its dtype and shape, and after
each mesh's four a ``pattern/<n>/indptr`` and ``pattern/<n>/indices``
line for the sparsity pattern of its stiffness matrix: a change to how
entries are summed moves value lines but not these. The last four
lines, ``bench_data/<angle>``, hash the data that ``simulate_data``
transfers at the bench's own sizes, as the sweep makes them: the default
phantom on 2000 vertices from one 40000-vertex data mesh, trig currents
at alpha = 2pi, 3pi/2, pi and pi/2 in turn, so the later arcs reuse the
data mesh's kept solver and centroid tree. Every input is fixed, so a
change that keeps every mesh, written file and iterate bit-identical
leaves the output unchanged: run the script at two commits and diff the
outputs.

    PYTHONPATH=src python scripts/cli_digest.py > digests.txt
"""

import contextlib
import hashlib
import math
import os
import sys
import tempfile

import numpy as np

import aet2d
from aet2d.cli import main

CONFIG = """\
[common]
mesh_vertices = 400
fine_vertices = 3000

[reconstruct]
sigma0 = 1.4
beta1 = 2e-3
beta2 = 1e-5
sigma_floor = 0.2
safeguard = false
tau = 1.2

[svd]
mesh_vertices = 150
svd_vectors = 1,5
background = 1.2
inclusions = disc 0.3 0.2 0.3 1.8 0.1; crescent -0.3 0.2 0.35 -0.2 0.3 0.25 1.5 0.08
truncate = 40

[condition-table]
mesh_vertices = 150
"""

L2_CONFIG = CONFIG.replace("beta1 = 2e-3\nbeta2 = 1e-5", "beta1 = 0\nbeta2 = 0")

# (config, argv) of each command, in order; a config of None passes no --config.
COMMANDS = (
    ("cli.ini", ["phantom", "--out", "phantom"]),
    ("cli.ini",
     ["simulate", "--alpha", "3pi/2", "--noise", "0.05", "--seed", "7", "--out", "trig"]),
    ("cli.ini", ["reconstruct", "--data", "trig", "--max-iter", "300", "--out", "trig/recon"]),
    ("cli.ini", ["simulate", "--family", "special", "--noise", "0", "--out", "special"]),
    ("l2.ini", ["reconstruct", "--data", "special", "--max-iter", "30", "--out", "special/recon"]),
    ("cli.ini", ["svd", "--alpha", "pi", "--measurements", "2", "--out", "svd"]),
    ("cli.ini", ["condition-table", "--out", "table"]),
    ("cli.ini", ["condition-table", "--truncate", "40", "--out", "table_truncated"]),
    (None, ["phantom", "--mesh-vertices", "400", "--out", "phantom_default"]),
    (None, ["reconstruct", "--data", "trig", "--out", "trig/recon_default"]),
)


# Library runs: reconstruction and data meshes, noise, seed, iterations.
LIBRARY_SIZES = (300, 3000)
LIBRARY_NOISE = 0.05
LIBRARY_SEED = 2024
LIBRARY_MAX_ITER = 150
LIBRARY_ANGLES = (("2pi", 2.0 * math.pi), ("pi", math.pi), ("pi_2", 0.5 * math.pi))
LIBRARY_SPECS = ("l2", "h2", "h2_beta")
LIBRARY_SVD_VECTORS = (1, 100)

# Mesh sizes of the bench workloads: grid, reconstruction and data meshes.
MESH_SIZES = (1000, 2000, 40000)
# Reconstruction and data mesh sizes of the bench's landweber_sweep, and its angles.
BENCH_DATA_SIZES = (2000, 40000)
BENCH_ANGLES = (
    ("2pi", 2.0 * math.pi), ("3pi_2", 1.5 * math.pi), ("pi", math.pi), ("pi_2", 0.5 * math.pi)
)
MESH_ARRAYS = ("vertices", "triangles", "boundary_edges", "boundary_edge_angles")


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def library_digests():
    """(label, sha256) of the data, iterates and logs of fixed-seed library runs."""
    mesh = aet2d.generate_disk_mesh(LIBRARY_SIZES[0])
    fine = aet2d.generate_disk_mesh(LIBRARY_SIZES[1])
    phantom = aet2d.default_phantom()
    truth = aet2d.phantom_field(phantom, mesh)
    out = []
    for angle, alpha in LIBRARY_ANGLES:
        ms = aet2d.MeasurementSet.trig(alpha)
        data, _ = aet2d.simulate_data(phantom, ms, mesh, fine_mesh=fine)
        noisy, delta_abs = aet2d.add_noise(data, LIBRARY_NOISE, LIBRARY_SEED)
        out.append((f"library/{angle}/noisy", _sha(noisy.values, np.float64(delta_abs))))
        for name in LIBRARY_SPECS:
            config = aet2d.ReconstructionConfig(
                tau=1.0,
                max_iter=LIBRARY_MAX_ITER,
                spec=getattr(aet2d.InnerProductSpec, name)(),
            )
            sigma, log = aet2d.run_landweber(config, noisy, delta_abs, ms, truth)
            run = f"library/{angle}/{name}"
            out.append((f"{run}/sigma", _sha(sigma.values)))
            for field in ("residuals", "omegas", "rel_errors"):
                out.append((f"{run}/{field}", _sha(getattr(log, field))))
            out.append((f"{run}/stop_reason", hashlib.sha256(log.stop_reason.encode()).hexdigest()))
    second = aet2d.PhantomSpec(1.2, phantom.inclusions[:2])
    data, _ = aet2d.simulate_data(second, aet2d.MeasurementSet.trig(math.pi), mesh, fine_mesh=fine)
    out.append(("library/data_second_phantom", _sha(data.values)))
    T = aet2d.assemble_transfer_matrix(truth, aet2d.MeasurementSet.trig(math.pi))
    report = aet2d.svd_analyze(T, vector_indices=LIBRARY_SVD_VECTORS)
    vectors = [vec.values for vec in report.vectors]
    spectrum = _sha(report.singular_values, *vectors, np.float64(report.condition_number))
    out.append(("library/svd_pi", spectrum))
    return out


def _typed_sha(a):
    """sha256 of an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def mesh_digests():
    """(label, sha256) of the arrays of ``generate_disk_mesh`` at ``MESH_SIZES``,
    each mesh followed by the sparsity pattern of its stiffness matrix."""
    out = []
    for n in MESH_SIZES:
        mesh = aet2d.generate_disk_mesh(n)
        for name in MESH_ARRAYS:
            out.append((f"mesh/{n}/{name}", _typed_sha(getattr(mesh, name))))
        k = aet2d.assemble_stiffness(mesh, aet2d.NodalField.constant(mesh, 1.0))
        for name in ("indptr", "indices"):
            out.append((f"pattern/{n}/{name}", _typed_sha(getattr(k, name))))
    return out


def bench_data_digest():
    """(label, sha256) of the bench-size data for the default phantom at ``BENCH_ANGLES``."""
    mesh, fine = (aet2d.generate_disk_mesh(n) for n in BENCH_DATA_SIZES)
    out = []
    for angle, alpha in BENCH_ANGLES:
        ms = aet2d.MeasurementSet.trig(alpha)
        data, _ = aet2d.simulate_data(aet2d.default_phantom(), ms, mesh, fine_mesh=fine)
        out.append((f"bench_data/{angle}", _sha(data.values)))
    return out


def digests(root):
    """(relative path, sha256) of every file under root, in path order."""
    out = []
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fp:
                out.append((os.path.relpath(path, root), hashlib.sha256(fp.read()).hexdigest()))
    return sorted(out)


def run() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root, tempfile.TemporaryDirectory() as aside:
        os.chdir(root)
        try:
            configs = {"cli.ini": "cli.ini", "l2.ini": os.path.join(aside, "l2.ini")}
            for name, text in (("cli.ini", CONFIG), ("l2.ini", L2_CONFIG)):
                with open(configs[name], "w") as fp:
                    fp.write(text)
            for config, argv in COMMANDS:
                with contextlib.redirect_stdout(sys.stderr):
                    config_argv = ["--config", configs[config]] if config else []
                    code = main([argv[0], *config_argv, *argv[1:]])
                if code != 0:
                    print(f"{' '.join(argv)} exited with {code}", file=sys.stderr)
                    return code
            for path, digest in digests(root):
                print(f"{digest}  {path}")
        finally:
            os.chdir(cwd)
    for label, digest in library_digests() + mesh_digests() + bench_data_digest():
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
