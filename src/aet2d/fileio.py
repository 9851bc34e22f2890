"""Plain-text serialization: fields, meshes, logs, and legacy VTK.

Floating-point values are written with ``repr``, which is the shortest
round-tripping decimal form, so re-reading a written file reproduces the
coefficients bit-exactly and fixed-seed runs produce byte-identical
output.
"""

from __future__ import annotations

import os

import numpy as np

from .fem import NodalField
from .illposed import SvdReport
from .inversion import IterationLog
from .mesh import Mesh


def _fmt(x: float) -> str:
    return repr(float(x))


def write_field_csv(path, field: NodalField) -> None:
    """Write a nodal field as ``x,y,value`` rows in mesh vertex order."""
    with open(path, "w") as fp:
        fp.write("x,y,value\n")
        for (x, y), v in zip(field.mesh.vertices, field.values):
            fp.write(f"{_fmt(x)},{_fmt(y)},{_fmt(v)}\n")


def read_field_csv(path, mesh: Mesh) -> NodalField:
    """Read a field written by ``write_field_csv`` back onto its mesh.

    The file must have one row per mesh vertex, in vertex order, and each
    row's x,y must equal that vertex's coordinates exactly (``repr``
    floats round-trip). A malformed row, a coordinate mismatch or a wrong
    row count raises ``ValueError`` naming the file and line.
    """
    n = mesh.num_vertices
    values = np.empty(n)
    row = 0
    with open(path) as fp:
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
            vx, vy = mesh.vertices[row]
            if x != vx or y != vy:
                raise ValueError(
                    f"{path}, line {lineno}: coordinates ({x!r}, {y!r}) differ from "
                    f"mesh vertex {row} ({float(vx)!r}, {float(vy)!r})"
                )
            values[row] = v
            row += 1
    if row < n:
        raise ValueError(
            f"{path}, line {row + 2}: file ends after {row} rows, mesh has {n} vertices"
        )
    return NodalField(mesh, values)


def write_mesh(path, mesh: Mesh) -> None:
    """Plain-text mesh format.

    Header ``vertices N triangles T boundary_edges B`` followed by N
    ``x y`` lines, T ``i j k`` lines, and B ``i j theta_mid`` lines.
    """
    with open(path, "w") as fp:
        fp.write(
            f"vertices {mesh.num_vertices} triangles {mesh.num_triangles} "
            f"boundary_edges {mesh.boundary_edges.shape[0]}\n"
        )
        for x, y in mesh.vertices:
            fp.write(f"{_fmt(x)} {_fmt(y)}\n")
        for i, j, k in mesh.triangles:
            fp.write(f"{i} {j} {k}\n")
        for (i, j), theta in zip(mesh.boundary_edges, mesh.boundary_edge_angles):
            fp.write(f"{i} {j} {_fmt(theta)}\n")


def read_mesh(path) -> Mesh:
    with open(path) as fp:
        head = fp.readline().split()
        if head[0::2] != ["vertices", "triangles", "boundary_edges"]:
            raise ValueError(f"unexpected mesh header in {path}")
        nv, nt, nb = (int(x) for x in head[1::2])
        vertices = np.array(
            [[float(t) for t in fp.readline().split()] for _ in range(nv)]
        )
        triangles = np.array(
            [[int(t) for t in fp.readline().split()] for _ in range(nt)]
        )
        edges = []
        angles = []
        for _ in range(nb):
            parts = fp.readline().split()
            edges.append([int(parts[0]), int(parts[1])])
            angles.append(float(parts[2]))
    return Mesh(vertices, triangles, np.array(edges), np.array(angles))


def _write_vtk_grid(fp, mesh: Mesh, title: str) -> None:
    fp.write("# vtk DataFile Version 2.0\n")
    fp.write(f"{title}\n")
    fp.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
    fp.write(f"POINTS {mesh.num_vertices} double\n")
    for x, y in mesh.vertices:
        fp.write(f"{_fmt(x)} {_fmt(y)} 0.0\n")
    nt = mesh.num_triangles
    fp.write(f"CELLS {nt} {4 * nt}\n")
    for i, j, k in mesh.triangles:
        fp.write(f"3 {i} {j} {k}\n")
    fp.write(f"CELL_TYPES {nt}\n")
    fp.write("5\n" * nt)


def write_mesh_vtk(path, mesh: Mesh) -> None:
    """Legacy-VTK unstructured grid of the bare triangulation."""
    with open(path, "w") as fp:
        _write_vtk_grid(fp, mesh, "mesh")


def write_field_vtk(path, field: NodalField, name: str = "value") -> None:
    """Legacy-VTK unstructured grid with one point scalar, for viewers."""
    mesh = field.mesh
    with open(path, "w") as fp:
        _write_vtk_grid(fp, mesh, name)
        fp.write(f"POINT_DATA {mesh.num_vertices}\n")
        fp.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        for v in field.values:
            fp.write(f"{_fmt(v)}\n")


def write_iteration_log(path, log: IterationLog) -> None:
    with open(path, "w") as fp:
        fp.write("k,residual,omega,rel_error\n")
        for k, (res, om, err) in enumerate(
            zip(log.residuals, log.omegas, log.rel_errors)
        ):
            fp.write(f"{k},{_fmt(res)},{_fmt(om)},{_fmt(err)}\n")


def read_iteration_log(path):
    """Return the (k, residual, omega, rel_error) columns as arrays."""
    rows = np.genfromtxt(path, delimiter=",", skip_header=1)
    rows = np.atleast_2d(rows)
    return rows[:, 0].astype(int), rows[:, 1], rows[:, 2], rows[:, 3]


def write_singular_values(path, values: np.ndarray) -> None:
    with open(path, "w") as fp:
        fp.write("k,sigma_k\n")
        for k, s in enumerate(values, start=1):
            fp.write(f"{k},{_fmt(s)}\n")


def write_condition_table(path, rows, angles) -> None:
    """Condition-number grid as CSV, one column per angle."""
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


def write_singular_vectors(path_pattern, report: SvdReport) -> list[str]:
    """Write each selected singular vector; pattern gets the 1-based rank."""
    paths = []
    for k, vec in zip(report.vector_indices, report.vectors):
        path = str(path_pattern).format(k)
        write_field_csv(path, vec)
        paths.append(path)
    return paths


def write_matrix_coordinate(path, matrix) -> None:
    """Sparse matrix in ``i j value`` coordinate text form (debug aid)."""
    coo = matrix.tocoo()
    with open(path, "w") as fp:
        fp.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fp.write(f"{i} {j} {_fmt(v)}\n")


def write_key_values(path, section: str, entries: dict) -> None:
    """Flat ``key = value`` file with one section header."""
    with open(path, "w") as fp:
        fp.write(f"[{section}]\n")
        for key, val in entries.items():
            if isinstance(val, float):
                val = _fmt(val)
            fp.write(f"{key} = {val}\n")


def read_key_values(path, section: str) -> dict:
    import configparser

    parser = configparser.ConfigParser()
    with open(path) as fp:
        parser.read_file(fp)
    return dict(parser[section])


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
