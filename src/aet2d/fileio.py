"""Plain-text serialization: fields, meshes, logs, and legacy VTK.

Floating-point values are written with ``repr``, which is the shortest
round-tripping decimal form, so re-reading a written file reproduces the
coefficients bit-exactly and fixed-seed runs produce byte-identical
output.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import os
from itertools import zip_longest

import numpy as np

from .fem import NodalField
from .inversion import IterationLog
from .mesh import Mesh


def _fmt(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _open_text(path):
    """Open ``path``; text that fails to decode or to parse as INI is a ``ValueError`` naming it."""
    with open(path) as fp:
        try:
            yield fp
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc


def _floats(values) -> list[float]:
    """Python floats, whose ``repr`` is the ``_fmt`` of each entry."""
    return np.asarray(values, dtype=np.float64).tolist()


def write_field_csv(path, field: NodalField) -> None:
    """Write a nodal field as ``x,y,value`` rows in mesh vertex order."""
    field.check_single("a field written to CSV")
    rows = zip(field.mesh.vertices.tolist(), field.values.tolist())
    with open(path, "w") as fp:
        fp.write("x,y,value\n")
        fp.write("".join(f"{x!r},{y!r},{v!r}\n" for (x, y), v in rows))


def read_field_csv(path, mesh: Mesh) -> NodalField:
    """Read a field written by ``write_field_csv`` back onto its mesh.

    The file must have one row per mesh vertex, in vertex order, and each
    row's x,y must equal that vertex's coordinates exactly (``repr``
    floats round-trip). A malformed row, a non-finite value, a coordinate
    mismatch or a wrong row count raises ``ValueError`` naming the file
    and line.
    """
    n = mesh.num_vertices
    vertices = mesh.vertices.tolist()
    values = np.empty(n)
    row = 0
    with _open_text(path) as fp:
        header = fp.readline().strip()
        if header != "x,y,value":
            raise ValueError(f"unexpected field header {header!r} in {path}")
        for lineno, line in enumerate(fp, start=2):
            if row == n:
                raise ValueError(f"{path}, line {lineno}: more rows than the {n} mesh vertices")
            try:
                x, y, v = (float(cell) for cell in line.split(","))
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: malformed row {line.rstrip()!r}"
                ) from None
            if not math.isfinite(v):
                raise ValueError(f"{path}, line {lineno}: non-finite value {v!r}")
            vx, vy = vertices[row]
            if x != vx or y != vy:
                raise ValueError(
                    f"{path}, line {lineno}: coordinates ({x!r}, {y!r}) differ from "
                    f"mesh vertex {row} ({vx!r}, {vy!r})"
                )
            values[row] = v
            row += 1
    if row < n:
        raise ValueError(
            f"{path}, line {row + 2}: file ends after {row} rows, mesh has {n} vertices"
        )
    return NodalField(mesh, values)


def mesh_text(mesh: Mesh) -> str:
    """Plain-text mesh format.

    Header ``vertices N triangles T boundary_edges B`` followed by N
    ``x y`` lines, T ``i j k`` lines, and B ``i j theta_mid`` lines.
    """
    boundary = zip(mesh.boundary_edges.tolist(), mesh.boundary_edge_angles.tolist())
    return "".join(
        [
            f"vertices {mesh.num_vertices} triangles {mesh.num_triangles} "
            f"boundary_edges {mesh.boundary_edges.shape[0]}\n",
            *(f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()),
            *(f"{i} {j} {k}\n" for i, j, k in mesh.triangles.tolist()),
            *(f"{i} {j} {theta!r}\n" for (i, j), theta in boundary),
        ]
    )


def mesh_text_mismatch(path, mesh: Mesh) -> int:
    """Number of the first line of the file ``path`` that differs from ``mesh_text(mesh)``, or 0."""
    with _open_text(path) as fp:
        pairs = zip_longest(fp, mesh_text(mesh).splitlines(keepends=True))
        return next((n for n, (got, want) in enumerate(pairs, start=1) if got != want), 0)


def write_mesh(path, mesh: Mesh) -> None:
    """Write ``mesh_text(mesh)`` to ``path``."""
    with open(path, "w") as fp:
        fp.write(mesh_text(mesh))


def write_field_vtk(path, field: NodalField, name: str = "value") -> None:
    """Legacy-VTK unstructured grid with one point scalar, for viewers."""
    field.check_single("a field written to VTK")
    mesh = field.mesh
    nt = mesh.num_triangles
    with open(path, "w") as fp:
        fp.write("# vtk DataFile Version 2.0\n")
        fp.write(f"{name}\n")
        fp.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.write(f"POINTS {mesh.num_vertices} double\n")
        fp.write("".join(f"{x!r} {y!r} 0.0\n" for x, y in mesh.vertices.tolist()))
        fp.write(f"CELLS {nt} {4 * nt}\n")
        fp.write("".join(f"3 {i} {j} {k}\n" for i, j, k in mesh.triangles.tolist()))
        fp.write(f"CELL_TYPES {nt}\n")
        fp.write("5\n" * nt)
        fp.write(f"POINT_DATA {mesh.num_vertices}\n")
        fp.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        fp.write("".join(f"{v!r}\n" for v in field.values.tolist()))


def write_iteration_log(path, log: IterationLog) -> None:
    columns = (_floats(log.residuals), _floats(log.omegas), _floats(log.rel_errors))
    with open(path, "w") as fp:
        fp.write("k,residual,omega,rel_error\n")
        fp.write("".join(f"{k},{r!r},{o!r},{e!r}\n" for k, (r, o, e) in enumerate(zip(*columns))))


def write_singular_values(path, values: np.ndarray) -> None:
    with open(path, "w") as fp:
        fp.write("k,sigma_k\n")
        fp.write("".join(f"{k},{s!r}\n" for k, s in enumerate(_floats(values), start=1)))


def write_condition_table(path, rows) -> None:
    """Condition-number grid as CSV, one column per angle key of the rows."""
    angles = [key for key in rows[0] if key != "indices"]
    with open(path, "w") as fp:
        header = ",".join(
            ["measurements", "indices"] + [f"alpha={_fmt(a)}" for a in angles]
        )
        fp.write(header + "\n")
        for row in rows:
            combo = row["indices"]
            cells = [str(len(combo)), "g" + "+g".join(str(j) for j in combo)]
            cells += [_fmt(row[a]) for a in angles]
            fp.write(",".join(cells) + "\n")


def write_key_values(path, section: str, entries: dict) -> None:
    """Flat ``key = value`` file with one section header."""
    with open(path, "w") as fp:
        fp.write(f"[{section}]\n")
        for key, val in entries.items():
            if isinstance(val, float):
                val = _fmt(val)
            fp.write(f"{key} = {val}\n")


def read_ini(path) -> dict[str, dict[str, str]]:
    """``{section: {key: text}}`` of an INI file; ``[DEFAULT]`` is listed if it holds keys.

    ``%`` is plain text; non-INI text raises ``ValueError`` naming the file, caused by the reason.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with _open_text(path) as fp:
        parser.read_file(fp)
    names = [parser.default_section] * bool(parser.defaults()) + parser.sections()
    return {name: dict(parser[name]) for name in names}


def read_key_values(path, section: str) -> dict:
    """Keys of one section of a ``write_key_values`` file; ``ValueError`` if it lacks it."""
    sections = read_ini(path)
    if section not in sections:
        raise ValueError(f"{path} has no [{section}] section")
    return sections[section]


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
