import numpy as np
import pytest
import reference

from aet2d import fileio
from aet2d.fem import NodalField
from aet2d.inversion import IterationLog
from aet2d.mesh import generate_disk_mesh
from reference import read_iteration_log


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


def test_field_csv_non_finite_value(mesh200, tmp_path):
    # NodalField would reject it too, but without naming the file
    path = tmp_path / "field.csv"
    lines = _write_field(path, mesh200)
    x, y, _ = lines[7].split(",")
    for value in ("nan", "inf", "-inf"):
        path.write_text("".join(lines[:7] + [f"{x},{y},{value}\n"] + lines[8:]))
        with pytest.raises(ValueError, match=rf"field\.csv, line 8: non-finite value {value}$"):
            fileio.read_field_csv(path, mesh200)


def test_mesh_roundtrip(tmp_path):
    mesh = generate_disk_mesh(150)
    path = tmp_path / "mesh.txt"
    fileio.write_mesh(path, mesh)
    text = path.read_text()
    assert text == fileio.mesh_text(mesh)
    head, *rows = text.splitlines()
    nv, nt, nb = (int(n) for n in head.split()[1::2])
    assert (nv, nt, nb) == (mesh.num_vertices, mesh.num_triangles, len(mesh.boundary_edges))
    vertices = [[float(c) for c in row.split()] for row in rows[:nv]]
    triangles = [[int(c) for c in row.split()] for row in rows[nv : nv + nt]]
    boundary = [row.split() for row in rows[nv + nt :]]
    assert np.array_equal(vertices, mesh.vertices)
    assert np.array_equal(triangles, mesh.triangles)
    assert np.array_equal([[int(i), int(j)] for i, j, _ in boundary], mesh.boundary_edges)
    assert np.array_equal([float(t) for *_, t in boundary], mesh.boundary_edge_angles)


def test_single_field_writers_reject_a_stack(mesh200, tmp_path):
    stack = NodalField(mesh200, np.zeros((2, mesh200.num_vertices)))
    for write in (fileio.write_field_csv, fileio.write_field_vtk):
        with pytest.raises(ValueError, match="must be a single field"):
            write(tmp_path / "stack.txt", stack)


def test_vtk_export(mesh200, tmp_path):
    field = NodalField(mesh200, np.linspace(0.0, 1.0, mesh200.num_vertices))
    path = tmp_path / "field.vtk"
    fileio.write_field_vtk(path, field, name="conductivity")
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "DATASET UNSTRUCTURED_GRID" in lines[3]
    assert f"POINTS {mesh200.num_vertices} double" in lines[4]
    assert f"CELLS {mesh200.num_triangles} {4 * mesh200.num_triangles}" in lines
    assert any(line.startswith("SCALARS conductivity") for line in lines)


def test_writers_match_row_by_row_reference(mesh2000, rng, tmp_path):
    values = rng.standard_normal(mesh2000.num_vertices)
    values[:4] = (-0.0, 1e-300, -12345.678901234567, 1e22)
    field = NodalField(mesh2000, values)
    log = IterationLog(
        residuals=rng.random(50),
        omegas=np.append(rng.random(49), np.nan),
        rel_errors=np.full(50, np.nan),
        stop_reason="max_iter",
    )
    cases = [
        ("write_field_csv", (field,)),
        ("write_field_vtk", (field, "conductivity")),
        ("write_mesh", (mesh2000,)),
        ("write_iteration_log", (log,)),
        ("write_singular_values", (np.sort(rng.random(300))[::-1],)),
        ("write_singular_values", (np.array([3, 2, 0]),)),
    ]
    for n, (name, args) in enumerate(cases):
        got, want = tmp_path / f"got{n}", tmp_path / f"want{n}"
        getattr(fileio, name)(got, *args)
        getattr(reference, name)(want, *args)
        assert got.read_bytes() == want.read_bytes(), name


def test_iteration_log_roundtrip(tmp_path):
    log = IterationLog(
        residuals=np.array([1.0, 0.5, 0.25]),
        omegas=np.array([2.0, 1.0, np.nan]),
        rel_errors=np.array([0.4, 0.3, 0.2]),
        stop_reason="max_iter",
    )
    path = tmp_path / "log.csv"
    fileio.write_iteration_log(path, log)
    k, res, om, err = read_iteration_log(path)
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
    fileio.write_condition_table(path, rows)
    lines = path.read_text().splitlines()
    # one column per angle key, in the rows' key order
    assert lines[0] == "measurements,indices,alpha=3.14,alpha=6.28"
    assert lines[1].split(",")[0] == "2"
    assert lines[1].split(",")[1] == "g1+g2"
    assert float(lines[2].split(",")[2]) == 100.0
    assert float(lines[2].split(",")[3]) == 50.0


def test_key_values_roundtrip(tmp_path):
    path = tmp_path / "info.txt"
    fileio.write_key_values(path, "data", {"alpha": 3.141592653589793, "seed": 7, "family": "trig"})
    back = fileio.read_key_values(path, "data")
    assert float(back["alpha"]) == 3.141592653589793
    assert int(back["seed"]) == 7
    assert back["family"] == "trig"


def test_read_ini_gives_the_text_of_every_section(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text("[DEFAULT]\n[common]\nnoise = 5%\n[svd]\n")
    assert fileio.read_ini(path) == {"common": {"noise": "5%"}, "svd": {}}
    path.write_text("[DEFAULT]\nmax_iter = 5\n")
    assert fileio.read_ini(path) == {"DEFAULT": {"max_iter": "5"}}
    path.write_text("noise = 0.05\n")
    with pytest.raises(ValueError, match=f"^cannot read {path}: File contains no section") as info:
        fileio.read_ini(path)
    assert str(info.value.__cause__).startswith("File contains no section headers")


def test_mesh_text_mismatch_names_the_first_differing_line(tmp_path):
    mesh = generate_disk_mesh(60)
    path = tmp_path / "mesh.txt"
    fileio.write_mesh(path, mesh)
    assert fileio.mesh_text_mismatch(path, mesh) == 0
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["0.5 0.5\n"] + lines[4:]))
    assert fileio.mesh_text_mismatch(path, mesh) == 4
    path.write_text("".join(lines[:-1]))
    assert fileio.mesh_text_mismatch(path, mesh) == len(lines)
