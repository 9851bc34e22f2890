import argparse
import math
import os
import weakref

import numpy as np
import pytest

from aet2d import cli, fileio
from aet2d.cli import CliError, build_parser, main, parse_angle
from aet2d.fem import ZeroMeanSolver
from aet2d.mesh import generate_disk_mesh
from reference import read_iteration_log


def run_cli(*args):
    return main([str(a) for a in args])


def test_parse_angle():
    assert parse_angle("2pi") == pytest.approx(2.0 * math.pi)
    assert parse_angle("3pi/2") == pytest.approx(1.5 * math.pi)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("1.25") == 1.25
    with pytest.raises(CliError):
        parse_angle("two pies")
    for text in ("pi/0", "2pi/0.0", "pi/."):
        with pytest.raises(CliError, match="cannot parse angle"):
            parse_angle(text)


def test_zero_divisor_angle_exits_2(tmp_path, capsys):
    code = run_cli("svd", "--alpha", "pi/0", "--mesh-vertices", 100, "--out", tmp_path / "s")
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot parse angle 'pi/0'" in err
    assert "error: flag --alpha: alpha = 'pi/0' is not an angle" in err


def test_phantom_command_default(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("phantom", "--mesh-vertices", 300, "--out", out) == 0
    mesh = generate_disk_mesh(300)
    field = fileio.read_field_csv(out / "phantom.csv", mesh)
    assert field.values.max() == pytest.approx(2.0, abs=1e-9)
    assert field.values.min() == pytest.approx(1.0, abs=1e-9)
    assert (out / "phantom.vtk").exists()
    assert "plateaus [1.3, 1.7, 2.0]" in capsys.readouterr().out


_PHANTOM_COMMANDS = ("phantom", "simulate", "svd", "condition-table")


def test_a_non_positive_phantom_fails_every_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[common]\nmesh_vertices = 100\nfine_vertices = 400\ninclusions = disc 0 0 0.4 -0.5 0.1\n"
    )
    for command in _PHANTOM_COMMANDS:
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert "conductivity must be positive: min -0.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_a_low_positive_phantom_passes_every_command(tmp_path, capsys):
    # the conductivity floor is Landweber's: no command that only models a
    # phantom reads it, so a background below the default floor 0.1 works
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[common]\nmesh_vertices = 60\nfine_vertices = 400\nbackground = 0.05\ninclusions =\n"
    )
    for command in _PHANTOM_COMMANDS:
        assert run_cli(command, "--config", cfg, "--out", tmp_path / command) == 0
    for section in ("phantom", "simulate"):
        cfg.write_text(f"[{section}]\nsigma_floor = 0.01\n")
        assert run_cli(section, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}, section [{section}]: {section} does not read 'sigma_floor'" in err


def test_phantom_accepts_low_background_above_floor(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[phantom]\nbackground = 0.5\ninclusions =\nmesh_vertices = 200\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 0


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(
        [
            "simulate",
            "--mesh-vertices",
            "400",
            "--family",
            "special",
            "--noise",
            "0.05",
            "--seed",
            "7",
            "--out",
            str(out),
            "--config",
            _fine_config(out),
        ]
    )
    assert code == 0
    return out


def _fine_config(d):
    path = os.path.join(str(d), "fine.ini")
    with open(path, "w") as fp:
        fp.write("[common]\nfine_vertices = 3000\n")
    return path


def test_simulate_outputs(sim_dir):
    info = fileio.read_key_values(sim_dir / "data_info.txt", "data")
    assert int(info["measurements"]) == 3
    assert float(info["delta_abs"]) > 0.0
    # phantom gradients shrink the determinant below the sigma = 1 value,
    # but the configuration must stay bounded away from degeneracy
    assert 0.1 <= abs(float(info["det_min_first_pair"])) <= 2.0
    mesh = generate_disk_mesh(400)
    for j in (1, 2, 3):
        e = fileio.read_field_csv(sim_dir / f"E_{j:02d}.csv", mesh)
        assert np.all(e.values >= 0.0)
        assert (sim_dir / f"E_noisy_{j:02d}.csv").exists()


def test_simulate_noise_free_copies_fields(tmp_path):
    out = tmp_path / "nf"
    code = main(
        [
            "simulate",
            "--mesh-vertices",
            "300",
            "--family",
            "special",
            "--measurements",
            "1",
            "--noise",
            "0.0",
            "--out",
            str(out),
            "--config",
            _fine_config(tmp_path),
        ]
    )
    assert code == 0
    clean = (out / "E_01.csv").read_bytes()
    noisy = (out / "E_noisy_01.csv").read_bytes()
    assert clean == noisy


def test_simulate_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "simulate",
                "--mesh-vertices",
                "300",
                "--measurements",
                "2",
                "--alpha",
                "3pi/2",
                "--noise",
                "0.05",
                "--seed",
                "11",
                "--out",
                str(out),
                "--config",
                _fine_config(tmp_path),
            ]
        )
        assert code == 0
        outs.append(out)
    for fname in ("E_01.csv", "E_noisy_01.csv", "data_info.txt", "truth.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_releases_the_data_mesh_before_writing(tmp_path, monkeypatch):
    # The 3000-vertex data mesh and its kept factorization are dead by the
    # time the first file is written: nothing after the data needs them.
    fine_refs, solver_refs, writes = [], [], []
    generate = cli.generate_disk_mesh

    def spy_generate(n):
        mesh = generate(n)
        if n == 3000:
            fine_refs.append(weakref.ref(mesh))
        return mesh

    init = ZeroMeanSolver.__init__

    def spy_init(self, K, mesh):
        init(self, K, mesh)
        solver_refs.append(weakref.ref(self))

    def checked(write):
        def wrapper(*args, **kwargs):
            writes.append([ref() is None for ref in fine_refs + solver_refs])
            return write(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "generate_disk_mesh", spy_generate)
    monkeypatch.setattr(ZeroMeanSolver, "__init__", spy_init)
    for name in dir(fileio):
        if name.startswith("write_"):
            monkeypatch.setattr(fileio, name, checked(getattr(fileio, name)))
    code = main(
        [
            "simulate", "--mesh-vertices", "300", "--measurements", "2", "--noise", "0.05",
            "--out", str(tmp_path / "sim"), "--config", _fine_config(tmp_path),
        ]
    )
    assert code == 0
    assert len(fine_refs) == len(solver_refs) == 1
    assert writes and all(all(dead) for dead in writes)


def test_simulate_constant_conductivity_unit_power(tmp_path):
    out = tmp_path / "const"
    cfg = tmp_path / "const.ini"
    cfg.write_text("[common]\nfine_vertices = 3000\n[simulate]\ninclusions =\n")
    code = main(
        [
            "simulate",
            "--mesh-vertices",
            "400",
            "--family",
            "special",
            "--noise",
            "0",
            "--out",
            str(out),
            "--config",
            str(cfg),
        ]
    )
    assert code == 0
    mesh = generate_disk_mesh(400)
    for j in (1, 2, 3):
        e = fileio.read_field_csv(out / f"E_{j:02d}.csv", mesh)
        assert np.max(np.abs(e.values - 1.0)) <= 0.02


def test_reconstruct_command(sim_dir, tmp_path):
    out = tmp_path / "rec"
    code = run_cli(
        "reconstruct",
        "--data",
        sim_dir,
        "--out",
        out,
        "--tau",
        "1.0",
        "--max-iter",
        "200",
    )
    assert code == 0
    summary = fileio.read_key_values(out / "reconstruct_summary.txt", "reconstruct_summary")
    info = fileio.read_key_values(sim_dir / "data_info.txt", "data")
    assert summary["stop_reason"] == "discrepancy"
    assert summary["discrepancy_reached"] == "true"
    assert float(summary["final_residual"]) <= float(info["delta_abs"])
    k, res, om, err = read_iteration_log(out / "iterations.csv")
    assert np.all(np.diff(res) <= 1e-14)
    assert (out / "reconstruction.csv").exists()
    assert (out / "reconstruction.vtk").exists()


def test_reconstruct_noise_free_reduces_error(tmp_path, sim_dir, capsys):
    sim = tmp_path / "nfsim"
    code = main(
        [
            "simulate",
            "--mesh-vertices",
            "400",
            "--family",
            "special",
            "--noise",
            "0",
            "--out",
            str(sim),
            "--config",
            _fine_config(tmp_path),
        ]
    )
    assert code == 0
    out = tmp_path / "nfrec"
    code = run_cli("reconstruct", "--data", sim, "--out", out, "--max-iter", 40)
    assert code == 0
    summary = fileio.read_key_values(out / "reconstruct_summary.txt", "reconstruct_summary")
    assert summary["stop_reason"] == "max_iter"
    assert summary["discrepancy_reached"] == "false"
    _, _, _, err = read_iteration_log(out / "iterations.csv")
    assert err[-1] < err[0]
    # noise-free: no discrepancy was asked for, so no warning
    assert "warning" not in capsys.readouterr().err

    # a noisy run cut off by max_iter before the discrepancy says so
    noisy_out = tmp_path / "maxrec"
    code = run_cli("reconstruct", "--data", sim_dir, "--out", noisy_out, "--max-iter", 2)
    assert code == 0
    summary = fileio.read_key_values(
        noisy_out / "reconstruct_summary.txt", "reconstruct_summary"
    )
    assert summary["stop_reason"] == "max_iter"
    assert summary["discrepancy_reached"] == "false"
    err_text = capsys.readouterr().err
    assert "warning: noisy run stopped by max_iter" in err_text


def _copy_data(sim_dir, dest):
    dest.mkdir()
    for path in sim_dir.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


def test_reconstruct_rejects_a_mesh_that_differs(sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    path = data / "mesh.txt"
    lines = path.read_text().splitlines(keepends=True)
    x, y = lines[5].split()
    moved = lines[:5] + [f"{x} {float(y) + 1e-15!r}\n"] + lines[6:]
    cases = (
        (moved, 6),  # a changed coordinate
        (lines[:-1], len(lines)),  # a truncated file
        (lines + ["0 1 0.5\n"], len(lines) + 1),  # an extra line
        ([], 1),  # an empty file
    )
    for text, lineno in cases:
        path.write_text("".join(text))
        code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
        assert code == 2
        assert (
            f"error: {path}, line {lineno}: differs from the mesh that mesh_vertices = 400 "
            "generates"
        ) in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


def test_reconstruct_requires_data(tmp_path, capsys):
    code = run_cli("reconstruct", "--data", tmp_path / "nowhere", "--out", tmp_path / "r")
    assert code == 2
    assert "run simulate first" in capsys.readouterr().err


def test_svd_command_tiny_matches_eig(tmp_path):
    out = tmp_path / "svd"
    code = run_cli(
        "svd",
        "--mesh-vertices",
        40,
        "--alpha",
        "pi",
        "--measurements",
        2,
        "--out",
        out,
    )
    assert code == 0
    rows = (out / "singular_values.csv").read_text().splitlines()[1:]
    s = np.array([float(r.split(",")[1]) for r in rows])
    from aet2d.forward import MeasurementSet
    from aet2d.illposed import assemble_transfer_matrix
    from aet2d.phantom import default_phantom, phantom_field

    mesh = generate_disk_mesh(40)
    T = assemble_transfer_matrix(
        phantom_field(default_phantom(), mesh), MeasurementSet.trig(math.pi, (1, 2))
    )
    eigs = np.clip(np.linalg.eigvalsh(T.matrix.T @ T.matrix)[::-1], 0.0, None)
    assert np.allclose(s, np.sqrt(eigs), rtol=1e-8, atol=1e-12)
    summary = fileio.read_key_values(out / "svd_summary.txt", "svd_summary")
    assert float(summary["condition_number"]) >= 1.0


def test_svd_command_writes_vectors(tmp_path):
    out = tmp_path / "svdvec"
    cfg = tmp_path / "svd.ini"
    cfg.write_text("[svd]\nsvd_vectors = 1,5\nmesh_vertices = 60\nmeasurements = 1\n")
    assert run_cli("svd", "--config", cfg, "--out", out) == 0
    assert (out / "singvec_0001.csv").exists()
    assert (out / "singvec_0005.csv").exists()


def test_condition_table_command(tmp_path):
    out = tmp_path / "ct"
    assert run_cli("condition-table", "--mesh-vertices", 60, "--out", out) == 0
    lines = (out / "condition_table.csv").read_text().splitlines()
    assert len(lines) == 8  # header + 7 combinations
    header = lines[0].split(",")
    assert len(header) == 2 + 4


def test_unknown_family_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[simulate]\nfamily = fourier\n")
    code = run_cli("simulate", "--config", cfg, "--out", tmp_path / "x")
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert f"{cfg}: family = 'fourier' is not a family (expected one of trig," in err
    assert run_cli("svd", "--family", "fourier", "--out", tmp_path / "x") == 2
    assert "error: flag --family: family = 'fourier' is not a family" in capsys.readouterr().err
    # only forward.FAMILIES are family names: no alias maps onto one
    for alias in ("trig_limited", "special_full"):
        assert run_cli("simulate", "--family", alias, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert f"family = '{alias}' is not a family (expected one of trig, special)" in err
    assert not (tmp_path / "x").exists()


def test_config_rejects_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[common]\nmesh_vertices = 200\n\n[reconstruct]\nmax_iters = 5\n")
    code = run_cli("phantom", "--config", cfg, "--out", tmp_path / "o")
    assert code == 2
    assert f"{cfg}, section [reconstruct]: unknown key 'max_iters'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_without_a_section_header_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flat.ini"
    cfg.write_text("mesh_vertices = 200\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"cannot read config file {cfg}" in capsys.readouterr().err


def test_config_that_cannot_be_opened_exits_2(tmp_path, capsys):
    # a missing file, a path that exists but is no file, and bytes that are no text
    missing = tmp_path / "missing.ini"
    args = ("phantom", "--mesh-vertices", 60, "--out", tmp_path / "o", "--config")
    assert run_cli(*args, missing) == 2
    assert f"config file not found: {missing}" in capsys.readouterr().err
    directory = tmp_path / "cfg"
    directory.mkdir()
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xff\xfe[phantom]\n")
    for path in (directory, binary):
        assert run_cli(*args, path) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_names_a_bad_integer(tmp_path, capsys):
    cfg = tmp_path / "int.ini"
    cfg.write_text("[phantom]\nmesh_vertices = 2k\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: mesh_vertices = '2k' is not an integer, in section [phantom]" in err


def test_config_names_a_bad_float(tmp_path, capsys):
    cfg = tmp_path / "float.ini"
    cfg.write_text("[common]\nmesh_vertices = 200\nsigma_floor = 0,1\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: sigma_floor = '0,1' is not a number, in section [common]" in err


def test_config_names_a_bad_svd_vectors_entry(tmp_path, capsys):
    cfg = tmp_path / "svd.ini"
    cfg.write_text("[svd]\nmesh_vertices = 100\nsvd_vectors = 1;5\n")
    assert run_cli("svd", "--config", cfg, "--measurements", 2, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: svd_vectors = '1;5' ('1;5') is not an integer" in err
    cfg.write_text("[svd]\nmesh_vertices = 100\nsvd_vectors = 1, x\n")
    assert run_cli("svd", "--config", cfg, "--measurements", 2, "--out", tmp_path / "o") == 2
    assert f"error: {cfg}: svd_vectors = '1, x' (' x') is not an integer" in capsys.readouterr().err


def test_reconstruct_names_a_bad_data_info_value(sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    lines = info.read_text().splitlines(keepends=True)
    info.write_text(
        "".join("delta_abs = 0.01x\n" if ln.startswith("delta_abs") else ln for ln in lines)
    )
    code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
    assert code == 2
    assert f"error: {info}: delta_abs = '0.01x' is not a number" in capsys.readouterr().err


def test_a_percent_sign_in_data_info_is_plain_text(sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    saved = info.read_text()
    for key, text in (("measurements", "3%"), ("seed", "5%")):
        lines = saved.splitlines(keepends=True)
        info.write_text("".join(f"{key} = {text}\n" if ln.startswith(key) else ln for ln in lines))
        out = tmp_path / key
        code = run_cli("reconstruct", "--data", data, "--out", out, "--max-iter", 1)
        err = capsys.readouterr().err
        if key == "measurements":
            assert code == 2
            assert f"error: {info}: measurements = '3%' is not an integer" in err
            assert not out.exists()
        else:
            # reconstruct does not read the seed
            assert code == 0
            assert (out / "reconstruction.csv").exists()


@pytest.mark.parametrize("name", ["data_info.txt", "mesh.txt", "E_noisy_02.csv", "truth.csv"])
def test_reconstruct_names_a_data_file_that_is_not_text(name, sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    path = data / name
    raw = path.read_bytes()
    half = len(raw) // 2
    path.write_bytes(raw[:half] + b"\xff" + raw[half + 1 :])
    code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: cannot read {path}: " in err
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "r").exists()


def test_reconstruct_rejects_a_negative_delta_abs(sim_dir, tmp_path, capsys):
    # a negative noise level would silently turn the discrepancy stop off
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    lines = info.read_text().splitlines(keepends=True)
    info.write_text(
        "".join("delta_abs = -1\n" if ln.startswith("delta_abs") else ln for ln in lines)
    )
    code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
    assert code == 2
    assert f"error: {info}: delta_abs = '-1' must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_reconstruct_names_the_field_file_of_a_non_finite_value(sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    for name in ("truth.csv", "E_noisy_02.csv"):
        path = data / name
        saved = path.read_text()
        lines = saved.splitlines(keepends=True)
        x, y, _ = lines[4].split(",")
        path.write_text("".join(lines[:4] + [f"{x},{y},nan\n"] + lines[5:]))
        code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
        assert code == 2
        assert f"error: {path}, line 5: non-finite value nan" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        path.write_text(saved)


def test_reconstruct_rejects_a_misspelt_boolean(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "bool.ini"
    cfg.write_text("[reconstruct]\nsafeguard = ture\n")
    code = run_cli(
        "reconstruct", "--config", cfg, "--data", sim_dir, "--out", tmp_path / "r",
        "--max-iter", 1,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "safeguard = 'ture' is not a boolean" in err
    assert f"error: {cfg}: safeguard = 'ture' is not a boolean (expected one of 1," in err
    assert "in section [reconstruct]" in err
    assert not (tmp_path / "r" / "reconstruction.csv").exists()


def test_reconstruct_names_a_missing_data_info_key(sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    lines = info.read_text().splitlines(keepends=True)
    info.write_text("".join(line for line in lines if not line.startswith("delta_abs")))
    code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
    assert code == 2
    assert f"{info} lacks the key 'delta_abs'" in capsys.readouterr().err


def test_reconstruct_rejects_data_info_without_a_section_header(sim_dir, tmp_path, capsys):
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    info.write_text("".join(info.read_text().splitlines(keepends=True)[1:]))
    code = run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1)
    assert code == 2
    assert f"cannot read {info}" in capsys.readouterr().err
    with pytest.raises(ValueError, match="has no \\[summary\\] section"):
        fileio.read_key_values(sim_dir / "data_info.txt", "summary")


@pytest.mark.parametrize(
    "section, key, text, reason",
    [
        ("phantom", "mesh_vertices", "2k", "is not an integer"),
        ("common", "sigma_floor", "0,1", "is not a number"),
        ("simulate", "noise", "5%", "is not a number"),
        ("svd", "alpha", "3pie/2", "is not an angle (cannot parse angle '3pie/2')"),
        ("reconstruct", "safeguard", "ture", "is not a boolean"),
        ("condition-table", "truncate", "ten", "is not an integer"),
        ("svd", "inclusions", "disc 0 0 0.3 2", "has a bad inclusion spec 'disc 0 0 0.3 2'"),
        ("simulate", "inclusions", "disc 0 0 0.3 2 w", "('w') is not a number"),
        ("svd", "truncate", "0", "must be >= 1"),
        ("svd", "svd_vectors", "0,-1,2", "('0') must be >= 1"),
        ("reconstruct", "beta2", "-1e-6", "must be >= 0"),
        ("reconstruct", "tau", "nan", "is not a finite number"),
        ("reconstruct", "tau", "0.5", "must be >= 1"),
        ("reconstruct", "max_iter", "0", "must be >= 1"),
        ("reconstruct", "sigma0", "inf", "is not a finite number"),
        ("simulate", "alpha", "-inf", "is not a finite number"),
        ("simulate", "fine_vertices", "3", "must be >= 4"),
        ("svd", "measurements", "0", "must be >= 1"),
        ("phantom", "background", "0", "must be > 0"),
        ("common", "sigma_floor", "-0.1", "must be > 0"),
    ],
)
def test_every_config_section_is_parsed_when_it_loads(tmp_path, capsys, section, key, text, reason):
    # phantom reads none of these sections but the first: each value
    # still parses when the file loads, and an error names the file, the
    # section, the key and the value
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {text}\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: {key} = {text!r} {reason}" in err
    assert f", in section [{section}]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, flag, text, reason",
    [
        ("phantom", "--mesh-vertices", "2k", "is not an integer"),
        ("simulate", "--noise", "5%", "is not a number"),
        ("svd", "--alpha", "3pie/2", "is not an angle (cannot parse angle '3pie/2')"),
        ("reconstruct", "--max-iter", "1e3", "is not an integer"),
        ("condition-table", "--truncate", "x", "is not an integer"),
        ("svd", "--truncate", "0", "must be >= 1"),
        ("condition-table", "--truncate", "0", "must be >= 1"),
        ("simulate", "--noise", "-0.1", "must be >= 0"),
        ("simulate", "--seed", "-1", "must be >= 0"),
        ("phantom", "--mesh-vertices", "0", "must be >= 4"),
        ("svd", "--measurements", "0", "must be >= 1"),
        ("reconstruct", "--tau", "nan", "is not a finite number"),
        ("reconstruct", "--tau", "0.99", "must be >= 1"),
        ("reconstruct", "--max-iter", "0", "must be >= 1"),
        ("simulate", "--alpha", "inf", "is not a finite number"),
        ("simulate", "--noise", "nan", "is not a finite number"),
    ],
)
def test_a_bad_flag_names_the_flag_key_and_value(
    tmp_path, capsys, monkeypatch, command, flag, text, reason
):
    # the flag fails when it loads, before any mesh is built
    def no_mesh(*args):
        raise AssertionError("a mesh was generated before the flags were checked")

    monkeypatch.setattr(cli, "generate_disk_mesh", no_mesh)
    assert run_cli(command, flag, text, "--out", tmp_path / "o") == 2
    key = flag[2:].replace("-", "_")
    assert f"error: flag {flag}: {key} = {text!r} {reason}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, sigma0, floor, floor_source",
    [
        ("[reconstruct]\nsigma0 = -5\n", -5.0, 0.1, "default"),
        ("[common]\nsigma_floor = 2\n[reconstruct]\nsigma0 = 1.5\n", 1.5, 2.0, "section [common]"),
        ("[common]\nsigma0 = 0.5\n[reconstruct]\nsigma_floor = 1\n", 0.5, 1.0, "section [reconstruct]"),
    ],
)
def test_a_start_below_the_floor_fails_at_load(tmp_path, capsys, text, sigma0, floor, floor_source):
    # the data directory is empty: an error naming the data would mean the
    # check ran only after reading it
    cfg = tmp_path / "start.ini"
    cfg.write_text(text)
    argv = ("reconstruct", "--config", cfg, "--data", tmp_path, "--out", tmp_path / "o")
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}, section [" in err
    assert f"sigma0 = {sigma0!r} is below sigma_floor = {floor!r} (" in err
    assert floor_source in err.split("sigma_floor =")[1]
    assert not (tmp_path / "o").exists()
    # a start at the floor is admissible and gets as far as the data
    cfg.write_text("[reconstruct]\nsigma0 = 0.1\nsigma_floor = 0.1\n")
    assert run_cli(*argv) == 2
    assert "run simulate first" in capsys.readouterr().err


def test_config_rejects_an_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[common]\nmesh_vertices = 200\n\n[reconstuct]\nmax_iter = 5\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: unknown section [reconstuct] (expected [common] or a command)" in err
    # [DEFAULT] is no section of this config either
    cfg.write_text("[DEFAULT]\nmax_iter = 5\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"error: {cfg}: unknown section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_rejects_a_key_its_section_command_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "misplaced.ini"
    cfg.write_text("[reconstruct]\nmax_iter = 5\nmesh_vertices = 5000\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}, section [reconstruct]: reconstruct does not read 'mesh_vertices'" in err
    assert not (tmp_path / "o").exists()
    # [common] holds any known key; a command ignores those it does not read
    cfg.write_text("[common]\nmax_iter = 5\nmesh_vertices = 200\nalpha = pi\n")
    assert run_cli("phantom", "--config", cfg, "--out", tmp_path / "o") == 0
    assert f"phantom: {generate_disk_mesh(200).num_vertices} vertices" in capsys.readouterr().out


def test_subcommand_rejects_a_flag_its_command_does_not_read(tmp_path, capsys):
    ignored = (
        "--alpha pi/2 --measurements 1 --family special --mesh-vertices 5000 "
        "--noise 0.9 --seed 3 --truncate 2"
    )
    with pytest.raises(SystemExit) as exc:
        run_cli("reconstruct", "--data", tmp_path, *ignored.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {ignored}" in capsys.readouterr().err


def test_each_subcommand_takes_the_flags_its_command_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    common = {"--config", "--out"}
    assert flags == {
        "phantom": common | {"--mesh-vertices"},
        "simulate": common
        | {"--mesh-vertices", "--alpha", "--measurements", "--family", "--noise", "--seed"},
        "reconstruct": common | {"--data", "--tau", "--max-iter"},
        "svd": common | {"--mesh-vertices", "--alpha", "--measurements", "--family", "--truncate"},
        "condition-table": common | {"--mesh-vertices", "--truncate"},
    }
    assert sum(map(len, flags.values())) == 27


@pytest.mark.parametrize(
    "argv",
    [
        ["phantom", "--mesh-vertices", "0"],
        ["svd", "--mesh-vertices", "60", "--measurements", "0"],
    ],
)
def test_a_failed_command_leaves_no_output_directory(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", tmp_path / "o") == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_special_family_rejects_an_arc_it_would_ignore(sim_dir, tmp_path, capsys):
    for command in ("simulate", "svd"):
        argv = (command, "--family", "special", "--alpha", "pi/2", "--mesh-vertices", 60)
        assert run_cli(*argv, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "error: family = special drives the whole boundary" in err
        assert f"alpha = {math.pi / 2!r} would be ignored" in err
        assert not (tmp_path / "o").exists()
    # the same check guards data that records such a pair
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    lines = info.read_text().splitlines(keepends=True)
    info.write_text("".join("alpha = pi\n" if ln.startswith("alpha") else ln for ln in lines))
    assert run_cli("reconstruct", "--data", data, "--out", tmp_path / "r", "--max-iter", 1) == 2
    assert f"alpha = {math.pi!r} would be ignored" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_reconstruct_reads_every_beta_and_no_noise_record(sim_dir, tmp_path):
    # the noise level is not read back: delta_abs is the one noise figure
    data = _copy_data(sim_dir, tmp_path / "data")
    info = data / "data_info.txt"
    lines = info.read_text().splitlines(keepends=True)
    info.write_text("".join(ln for ln in lines if not ln.startswith("noise")))
    logs = set()
    betas = ("", "beta1 = 0\nbeta2 = 0\n", "beta1 = 7\nbeta2 = 3\n", "beta1 = 7\n")
    for run, text in enumerate(betas):
        cfg = tmp_path / "betas.ini"
        cfg.write_text(f"[reconstruct]\n{text}")
        out = tmp_path / f"r{run}"
        argv = ("--config", cfg, "--data", data, "--out", out, "--max-iter", 3)
        assert run_cli("reconstruct", *argv) == 0
        logs.add((out / "iterations.csv").read_bytes())
    assert len(logs) == len(betas)
