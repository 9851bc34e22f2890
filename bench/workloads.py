"""The three benchmark workloads.

Each workload has a set-up, timed by ``setup_s``, and a repetition, which
is the timed section behind ``wall_s``. A repetition returns its checked
operations. The workloads call the public ``aet2d`` API through module
attributes at call time, so the tracer's wrappers see every call.

Failure accounting: an operation that misses its check counts as
failed. A repetition whose joint check breaks (the angle ordering, the
criterion-6 structure) counts all its operations as failed. Those are
outcomes of the method on the given inputs. A wrong output (a non-zero
exit, a non-finite value) or one that differs between repetitions also
fails its operation, and in addition makes the run incorrect.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

import aet2d
import aet2d.cli
import aet2d.illposed

ANGLES = (2.0 * math.pi, 1.5 * math.pi, math.pi, math.pi / 2)

# Three-measurement row of the criterion-6 reference grid (2000 vertices).
REFERENCE_ROW_M3 = {
    2.0 * math.pi: 1.45e1,
    1.5 * math.pi: 3.77e2,
    math.pi: 3.59e3,
    math.pi / 2: 8.81e4,
}

# Reconstruction vertices, data (fine) vertices, condition-grid vertices.
FULL_SIZES = {"recon": 2000, "fine": 40000, "grid": 1000}
TOY_SIZES = {"recon": 800, "fine": 8000, "grid": 200}

NOISE = 0.05


@dataclass
class Op:
    """One checked operation.

    ``ok`` is its check. ``error`` marks an output that is wrong rather
    than a goal missed (a non-zero exit, a non-finite value). ``output``
    must repeat exactly in every repetition of a run.
    """

    label: str
    ok: bool
    detail: str
    output: object
    error: bool = False


@dataclass
class RepResult:
    ops: list[Op]
    rel_error: float
    joint_ok: bool
    joint_detail: str


class LandweberSweep:
    """Criterion 5c: noisy Landweber at four accessible angles."""

    name = "landweber_sweep"

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.noise_seed = seed

    def setup(self):
        fine = aet2d.generate_disk_mesh(self.sizes["fine"])
        mesh = aet2d.generate_disk_mesh(self.sizes["recon"])
        spec = aet2d.default_phantom()
        self.truth = aet2d.phantom_field(spec, mesh)
        self.problems = []
        for alpha in ANGLES:
            ms = aet2d.MeasurementSet.trig(alpha)
            data, _ = aet2d.simulate_data(spec, ms, mesh, fine_mesh=fine)
            noisy, delta_abs = aet2d.add_noise(data, NOISE, self.noise_seed)
            self.problems.append((alpha, ms, noisy, delta_abs))
        self.config = aet2d.ReconstructionConfig(
            tau=1.0, delta_rel=NOISE, max_iter=600, spec=aet2d.InnerProductSpec.h2_beta()
        )

    def run(self, rep):
        ops, finals = [], []
        for alpha, ms, noisy, delta_abs in self.problems:
            _, log = aet2d.run_landweber(self.config, noisy, delta_abs, ms, self.truth)
            bound = self.config.tau * delta_abs
            final_res = float(log.residuals[-1])
            final_err = float(log.rel_errors[-1])
            finals.append(final_err)
            ops.append(Op(
                f"landweber alpha={alpha:.4f}",
                log.stop_reason == "discrepancy" and final_res <= bound,
                f"stop={log.stop_reason} iterations={log.num_iterations} "
                f"residual={final_res:.6g} tau*delta={bound:.6g} rel_error={final_err:.6g}",
                (log.num_iterations, log.stop_reason, final_res, final_err),
                error=not np.isfinite(final_err),
            ))
        ordered = all(finals[i] < finals[i + 1] for i in range(len(finals) - 1))
        return RepResult(
            ops, float(np.mean(finals)), ordered,
            "final rel errors " + " < ".join(f"{e:.4f}" for e in finals),
        )


class ConditionGrid:
    """Criterion 6: the condition-number grid plus one full SVD."""

    name = "condition_grid"

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes

    def setup(self):
        mesh = aet2d.generate_disk_mesh(self.sizes["grid"])
        self.truth = aet2d.phantom_field(aet2d.default_phantom(), mesh)

    def run(self, rep):
        rows = aet2d.condition_table(self.truth)
        ops = []
        for row in rows:
            label = "g" + "+g".join(str(j) for j in row["indices"])
            for alpha in ANGLES:
                finite = bool(np.isfinite(row[alpha]))
                ops.append(Op(f"cond {label} alpha={alpha:.4f}", finite,
                              f"cond={row[alpha]:.6g}", row[alpha], error=not finite))
        T = aet2d.assemble_transfer_matrix(self.truth, aet2d.MeasurementSet.trig(math.pi))
        report = aet2d.svd_analyze(T, vector_indices=(1, 100))
        finite = bool(np.isfinite(report.condition_number)) and all(
            np.all(np.isfinite(v.values)) for v in report.vectors
        )
        ops.append(Op("svd_analyze alpha=pi", finite, f"cond={report.condition_number:.6g}",
                      report.condition_number, error=not finite))

        m3 = next(r for r in rows if r["indices"] == (1, 2, 3))
        conds = [m3[a] for a in ANGLES]
        monotone = all(conds[i] < conds[i + 1] for i in range(len(conds) - 1))
        pairs_beat_singles = all(
            max(r[a] for r in rows if len(r["indices"]) == 2)
            < min(r[a] for r in rows if len(r["indices"]) == 1)
            for a in ANGLES
        )
        # A drift guard, not an accuracy metric: the distance in decades of
        # the 1000-vertex g1+g2+g3 row from the 2000-vertex criterion-6
        # reference row, the quantity criterion 6 bounds by 1 ("within 10x").
        rel_error = float(np.mean([abs(math.log10(m3[a] / REFERENCE_ROW_M3[a])) for a in ANGLES]))
        return RepResult(
            ops, rel_error, monotone and pairs_beat_singles,
            f"g1+g2+g3 row {', '.join(f'{c:.3e}' for c in conds)}; "
            f"monotone={monotone} pairs<singles={pairs_beat_singles}",
        )


def _digest(directory):
    digest = hashlib.sha256()
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            digest.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fp:
                digest.update(fp.read())
    return digest.hexdigest()


class CliRoundtrip:
    """``aet2d simulate`` then ``aet2d reconstruct`` for three cases."""

    name = "cli_roundtrip"

    CASES = (
        ("trig_2pi", ["--alpha", "2pi"]),
        ("trig_3pi2", ["--alpha", "3pi/2"]),
        ("special", ["--family", "special"]),
    )

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.noise_seed = seed
        self.workdir = workdir

    def setup(self):
        """Nothing beyond the imports: the CLI makes its meshes and data."""

    def _command(self, label, argv, out_dir):
        """Run one CLI command in-process; its output is the written bytes."""
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = aet2d.cli.main(argv)
        return Op(label, code == 0, f"exit={code} {text.getvalue().strip()}",
                  (" ".join(argv), _digest(out_dir)), error=code != 0)

    def run(self, rep):
        rep_dir = os.path.join(self.workdir, f"rep{rep}")
        os.makedirs(rep_dir)
        with open(os.path.join(rep_dir, "bench.ini"), "w") as fp:
            fp.write(
                f"[common]\nmesh_vertices = {self.sizes['recon']}\n"
                f"fine_vertices = {self.sizes['fine']}\n"
            )
        cwd = os.getcwd()
        os.chdir(rep_dir)
        try:
            ops, errors = [], []
            for case, extra in self.CASES:
                ops.append(self._command(
                    f"{case} simulate",
                    ["simulate", "--config", "bench.ini", *extra, "--noise", str(NOISE),
                     "--seed", str(self.noise_seed), "--out", f"{case}/data"],
                    f"{case}/data",
                ))
                rec = self._command(
                    f"{case} reconstruct",
                    ["reconstruct", "--config", "bench.ini", "--data", f"{case}/data",
                     "--out", f"{case}/recon"],
                    f"{case}/recon",
                )
                summary = configparser.ConfigParser()
                summary.read(f"{case}/recon/reconstruct_summary.txt")
                stop = summary.get("reconstruct_summary", "stop_reason", fallback="missing")
                rec.ok = rec.ok and stop == "discrepancy"
                rec.detail = f"stop={stop} {rec.detail}"
                ops.append(rec)
                errors.append(summary.getfloat(
                    "reconstruct_summary", "final_rel_error", fallback=float("nan")
                ))
        finally:
            os.chdir(cwd)
            shutil.rmtree(rep_dir, ignore_errors=True)
        return RepResult(ops, float(np.mean(errors)), True, "")


WORKLOADS = {w.name: w for w in (LandweberSweep, ConditionGrid, CliRoundtrip)}
