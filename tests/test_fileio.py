import numpy as np
import pytest

from aet2d import fileio
from aet2d.fem import NodalField
from aet2d.inversion import IterationLog
from aet2d.mesh import generate_disk_mesh


def test_field_csv_roundtrip_bit_exact(mesh200, rng, tmp_path):
    values = rng.standard_normal(mesh200.num_vertices)
    values[0] = 1e-300
    values[1] = -0.1
    values[2] = 12345.678901234567
    field = NodalField(mesh200, values)
    path = tmp_path / "field.csv"
    fileio.write_field_csv(path, field)
    again = fileio.read_field_csv(path, mesh200)
    assert np.array_equal(again.values, values)


def test_field_csv_header_check(mesh200, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        fileio.read_field_csv(path, mesh200)


def _write_field(path, mesh):
    fileio.write_field_csv(path, NodalField(mesh, np.arange(mesh.num_vertices, dtype=float)))
    return path.read_text().splitlines(keepends=True)


def test_field_csv_truncated(mesh200, tmp_path):
    path = tmp_path / "field.csv"
    lines = _write_field(path, mesh200)
    path.write_text("".join(lines[:-5]))
    first_missing = mesh200.num_vertices - 5 + 2  # header is line 1
    with pytest.raises(ValueError, match=rf"field\.csv, line {first_missing}: file ends after"):
        fileio.read_field_csv(path, mesh200)


def test_field_csv_from_other_mesh(mesh200, mesh500, tmp_path):
    path = tmp_path / "field.csv"
    _write_field(path, mesh500)
    with pytest.raises(ValueError, match=r"field\.csv, line \d+: coordinates"):
        fileio.read_field_csv(path, mesh200)
    path = tmp_path / "small.csv"
    _write_field(path, mesh200)
    with pytest.raises(ValueError, match=r"small\.csv, line \d+: (coordinates|file ends)"):
        fileio.read_field_csv(path, mesh500)


def test_field_csv_non_numeric_cell(mesh200, tmp_path):
    path = tmp_path / "field.csv"
    lines = _write_field(path, mesh200)
    x, y, _ = lines[7].split(",")
    lines[7] = f"{x},{y},oops\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"field\.csv, line 8: malformed row"):
        fileio.read_field_csv(path, mesh200)


def test_mesh_roundtrip(tmp_path):
    mesh = generate_disk_mesh(150)
    path = tmp_path / "mesh.txt"
    fileio.write_mesh(path, mesh)
    again = fileio.read_mesh(path)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    assert np.array_equal(again.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(again.boundary_edge_angles, mesh.boundary_edge_angles)


def test_vtk_export(mesh200, tmp_path):
    field = NodalField(mesh200, np.linspace(0.0, 1.0, mesh200.num_vertices))
    path = tmp_path / "field.vtk"
    fileio.write_field_vtk(path, field, name="conductivity")
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in lines[3]
    assert f"POINTS {mesh200.num_vertices} double" in lines[4]
    assert any(line.startswith("SCALARS conductivity") for line in lines)


def test_mesh_vtk_export(mesh200, tmp_path):
    path = tmp_path / "mesh.vtk"
    fileio.write_mesh_vtk(path, mesh200)
    text = path.read_text()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"CELLS {mesh200.num_triangles} {4 * mesh200.num_triangles}" in text
    assert "POINT_DATA" not in text


def test_iteration_log_roundtrip(tmp_path):
    log = IterationLog(
        residuals=np.array([1.0, 0.5, 0.25]),
        omegas=np.array([2.0, 1.0, np.nan]),
        rel_errors=np.array([0.4, 0.3, 0.2]),
        stop_reason="max_iter",
    )
    path = tmp_path / "log.csv"
    fileio.write_iteration_log(path, log)
    k, res, om, err = fileio.read_iteration_log(path)
    assert np.array_equal(k, [0, 1, 2])
    assert np.array_equal(res, log.residuals)
    assert np.array_equal(om, log.omegas, equal_nan=True)
    assert np.array_equal(err, log.rel_errors)


def test_singular_values_csv(tmp_path):
    path = tmp_path / "sv.csv"
    fileio.write_singular_values(path, np.array([3.0, 1.0, 0.5]))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,sigma_k"
    assert lines[1].startswith("1,3.0")
    assert len(lines) == 4


def test_condition_table_csv(tmp_path):
    rows = [
        {"indices": (1, 2), 3.14: 10.0, 6.28: 5.0},
        {"indices": (1,), 3.14: 100.0, 6.28: 50.0},
    ]
    path = tmp_path / "table.csv"
    fileio.write_condition_table(path, rows, angles=(6.28, 3.14))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("measurements,indices,alpha=")
    assert lines[1].split(",")[0] == "2"
    assert lines[1].split(",")[1] == "g1+g2"
    assert float(lines[2].split(",")[2]) == 50.0


def test_key_values_roundtrip(tmp_path):
    path = tmp_path / "info.txt"
    fileio.write_key_values(path, "data", {"alpha": 3.141592653589793, "seed": 7, "family": "trig"})
    back = fileio.read_key_values(path, "data")
    assert float(back["alpha"]) == 3.141592653589793
    assert int(back["seed"]) == 7
    assert back["family"] == "trig"


def test_matrix_coordinate_dump(mesh200, tmp_path):
    from aet2d.fem import assemble_mass

    m = assemble_mass(mesh200)
    path = tmp_path / "mass.txt"
    fileio.write_matrix_coordinate(path, m)
    head = path.read_text().splitlines()[0].split()
    assert int(head[0]) == mesh200.num_vertices
    assert int(head[2]) == m.nnz
