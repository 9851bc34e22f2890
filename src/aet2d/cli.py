"""Command-line front end for the reconstruction pipeline.

Subcommands: ``phantom``, ``simulate``, ``reconstruct``, ``svd``, and
``condition-table``. Parameters come from an INI-style config file (one
section per command, ``[common]`` as shared fallback) and can be
overridden by flags. Angles accept ``pi`` expressions such as ``3pi/2``.
All commands are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys

from . import fileio
from .fem import InnerProductSpec, NodalField
from .forward import MeasurementSet, determinant_diagnostic, simulate_data
from .illposed import (
    TABLE_ANGLES,
    assemble_transfer_matrix,
    condition_table,
    svd_analyze,
)
from .inversion import ReconstructionConfig, add_noise, run_landweber
from .mesh import Mesh, generate_disk_mesh
from .phantom import Crescent, Disc, Inclusion, PhantomSpec, default_phantom, phantom_field

DEFAULTS = {
    "mesh_vertices": "2000",
    "fine_vertices": "40000",
    "alpha": "2pi",
    "measurements": "3",
    "family": "trig",
    "adjoint": "h2beta",
    "beta0": "1.0",
    "beta1": "1e-3",
    "beta2": "1e-6",
    "tau": "1.0",
    "noise": "0.0",
    "seed": "0",
    "max_iter": "1000",
    "sigma0": "1.5",
    "sigma_floor": "0.1",
    "safeguard": "true",
    "background": "1.0",
    "inclusions": "default",
    "out": "out",
    "data": "",
    "truncate": "",
    "svd_vectors": "",
}

_ADJOINTS = {
    "l2": InnerProductSpec.l2,
    "h2": InnerProductSpec.h2,
    "h2beta": InnerProductSpec.h2_beta,
}


class CliError(Exception):
    pass


def parse_angle(text: str) -> float:
    """Parse an angle given as a float or a pi expression like ``3pi/2``."""
    text = str(text).strip().lower().replace(" ", "")
    m = re.fullmatch(r"([0-9.]*)\*?pi(?:/([0-9.]+))?", text)
    try:
        if m:
            coef = float(m.group(1)) if m.group(1) else 1.0
            div = float(m.group(2)) if m.group(2) else 1.0
            return coef * math.pi / div
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse angle {text!r}") from None


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _parse_bool(key: str, text: str) -> bool:
    word = str(text).strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise CliError(
        f"{key} = {text!r} is not a boolean "
        f"(expected one of {', '.join(_TRUE_WORDS + _FALSE_WORDS)})"
    )


def _number(kind: type, settings: dict, key: str, item: str | None = None):
    """``kind(settings[key])``, or of ``item``, one entry of a list value.

    A value that does not parse raises ``CliError`` naming the key, the
    value and ``settings["config"]``, the file the value came from.
    """
    value = settings[key]
    text = value if item is None else item
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        entry = "" if item is None else f" ({text!r})"
        raise CliError(f"{settings['config']}: {key} = {value!r}{entry} is not {noun}") from None


def load_settings(command: str, args: argparse.Namespace) -> dict:
    """Merge defaults, config-file sections, and flag overrides.

    ``settings["config"]`` names the config file, the only source of a
    value that may not parse: flags are typed and the defaults parse.
    """
    settings = dict(DEFAULTS, config=args.config or "command line")
    if args.config:
        parser = configparser.ConfigParser()
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        try:
            parser.read(args.config)
        except configparser.Error as exc:
            raise CliError(f"cannot read config file {args.config}: {exc}") from None
        for section in parser.sections():
            for key in parser[section]:
                if key not in DEFAULTS:
                    raise CliError(f"{args.config}, section [{section}]: unknown key {key!r}")
        for section in ("common", command):
            if parser.has_section(section):
                settings.update(dict(parser[section]))
    overrides = {
        "alpha": args.alpha,
        "measurements": args.measurements,
        "family": args.family,
        "adjoint": args.adjoint,
        "tau": args.tau,
        "noise": args.noise,
        "seed": args.seed,
        "max_iter": args.max_iter,
        "out": args.out,
        "truncate": args.truncate,
        "mesh_vertices": getattr(args, "mesh_vertices", None),
        "data": getattr(args, "data", None),
    }
    settings.update({k: str(v) for k, v in overrides.items() if v is not None})
    return settings


def make_inner_spec(settings: dict) -> InnerProductSpec:
    name = settings["adjoint"].lower()
    if name not in _ADJOINTS:
        raise CliError(f"unknown adjoint {name!r} (expected l2, h2, or h2beta)")
    if name == "h2beta":
        return InnerProductSpec.h2_beta(
            *(_number(float, settings, key) for key in ("beta0", "beta1", "beta2"))
        )
    return _ADJOINTS[name]()


def make_measurement_set(settings: dict) -> MeasurementSet:
    m = _number(int, settings, "measurements")
    family = settings["family"].lower()
    if family in ("trig", "trig_limited"):
        return MeasurementSet.trig(parse_angle(settings["alpha"]), tuple(range(1, m + 1)))
    if family in ("special", "special_full"):
        return MeasurementSet.special(tuple(range(1, m + 1)))
    raise CliError(f"unknown family {family!r} (expected trig or special)")


def make_phantom_spec(settings: dict) -> PhantomSpec:
    text = settings["inclusions"].strip()
    background = _number(float, settings, "background")
    if text == "default":
        spec = default_phantom()
        if background != spec.background:
            spec = PhantomSpec(background, spec.inclusions)
        return spec
    inclusions = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split()
        kind, vals = parts[0], [_number(float, settings, "inclusions", x) for x in parts[1:]]
        if kind == "disc" and len(vals) == 5:
            cx, cy, r, plateau, width = vals
            inclusions.append(Inclusion(Disc((cx, cy), r), plateau, width))
        elif kind == "crescent" and len(vals) == 8:
            ocx, ocy, orr, icx, icy, irr, plateau, width = vals
            inclusions.append(
                Inclusion(Crescent(Disc((ocx, ocy), orr), Disc((icx, icy), irr)), plateau, width)
            )
        else:
            raise CliError(
                f"bad inclusion spec {chunk!r}: expected 'disc cx cy r plateau width' "
                "or 'crescent ocx ocy or icx icy ir plateau width'"
            )
    return PhantomSpec(background, tuple(inclusions))


def cmd_phantom(settings: dict) -> int:
    out = fileio.ensure_dir(settings["out"])
    mesh = generate_disk_mesh(_number(int, settings, "mesh_vertices"))
    spec = make_phantom_spec(settings)
    field = phantom_field(spec, mesh)
    floor = _number(float, settings, "sigma_floor")
    if field.values.min() < floor:
        raise CliError(
            f"phantom violates admissibility: min {field.values.min():.4g} < "
            f"floor {floor}"
        )
    fileio.write_field_csv(os.path.join(out, "phantom.csv"), field)
    fileio.write_field_vtk(os.path.join(out, "phantom.vtk"), field, name="conductivity")
    plateaus = sorted(inc.plateau for inc in spec.inclusions)
    print(
        f"phantom: {mesh.num_vertices} vertices, min {field.values.min():.6g}, "
        f"max {field.values.max():.6g}, background {spec.background:.6g}, "
        f"plateaus {plateaus}"
    )
    return 0


def cmd_simulate(settings: dict) -> int:
    out = fileio.ensure_dir(settings["out"])
    mesh = generate_disk_mesh(_number(int, settings, "mesh_vertices"))
    ms = make_measurement_set(settings)
    spec = make_phantom_spec(settings)
    data, fine_state = simulate_data(
        spec,
        ms,
        mesh,
        fine_vertex_count=_number(int, settings, "fine_vertices"),
        sigma_floor=_number(float, settings, "sigma_floor"),
    )
    noise = _number(float, settings, "noise")
    seed = _number(int, settings, "seed")
    noisy, delta_abs = add_noise(data, noise, seed)

    det_min = float("nan")
    if len(ms) >= 2:
        u1, u2 = (NodalField(fine_state.mesh, u) for u in fine_state.potentials.values[:2])
        _, det_min = determinant_diagnostic(u1, u2)

    fileio.write_mesh(os.path.join(out, "mesh.txt"), mesh)
    fileio.write_field_csv(
        os.path.join(out, "truth.csv"), phantom_field(spec, mesh)
    )
    for j, (clean, noisy_row) in enumerate(zip(data.values, noisy.values), start=1):
        e = NodalField(mesh, clean)
        fileio.write_field_csv(os.path.join(out, f"E_{j:02d}.csv"), e)
        fileio.write_field_vtk(os.path.join(out, f"E_{j:02d}.vtk"), e, name="power_density")
        fileio.write_field_csv(
            os.path.join(out, f"E_noisy_{j:02d}.csv"), NodalField(mesh, noisy_row)
        )
    fileio.write_key_values(
        os.path.join(out, "data_info.txt"),
        "data",
        {
            "mesh_vertices": settings["mesh_vertices"],
            "fine_vertices": settings["fine_vertices"],
            "alpha": parse_angle(settings["alpha"]),
            "family": settings["family"],
            "measurements": settings["measurements"],
            "noise": noise,
            "seed": seed,
            "delta_abs": delta_abs,
            "det_min_first_pair": det_min,
        },
    )
    print(
        f"simulate: {len(ms)} power densities on {mesh.num_vertices} vertices "
        f"(fine mesh {fine_state.mesh.num_vertices}), delta_abs {delta_abs:.6g}, "
        f"min |det| {det_min:.4g}"
    )
    return 0


def cmd_reconstruct(settings: dict) -> int:
    out = fileio.ensure_dir(settings["out"])
    data_dir = settings["data"] or settings["out"]
    info_path = os.path.join(data_dir, "data_info.txt")
    if not os.path.exists(info_path):
        raise CliError(f"no simulated data found at {info_path}; run simulate first")
    info = fileio.read_key_values(info_path, "data")
    for key in ("mesh_vertices", "alpha", "family", "measurements", "noise", "delta_abs"):
        if key not in info:
            raise CliError(f"{info_path} lacks the key {key!r}; run simulate again")
    info["config"] = info_path

    mesh = generate_disk_mesh(_number(int, info, "mesh_vertices"))
    mesh_path = os.path.join(data_dir, "mesh.txt")
    if _mesh_bytes(fileio.read_mesh(mesh_path)) != _mesh_bytes(mesh):
        raise CliError(
            f"{mesh_path} differs from the mesh that mesh_vertices = "
            f"{info['mesh_vertices']} generates"
        )
    ms = make_measurement_set(info)
    noisy = NodalField(
        mesh,
        [
            fileio.read_field_csv(os.path.join(data_dir, f"E_noisy_{j:02d}.csv"), mesh).values
            for j in range(1, len(ms) + 1)
        ],
    )
    truth = None
    truth_path = os.path.join(data_dir, "truth.csv")
    if os.path.exists(truth_path):
        truth = fileio.read_field_csv(truth_path, mesh)

    config = ReconstructionConfig(
        tau=_number(float, settings, "tau"),
        delta_rel=_number(float, info, "noise"),
        sigma0=_number(float, settings, "sigma0"),
        max_iter=_number(int, settings, "max_iter"),
        spec=make_inner_spec(settings),
        sigma_floor=_number(float, settings, "sigma_floor"),
        safeguard=_parse_bool("safeguard", settings["safeguard"]),
    )
    delta_abs = _number(float, info, "delta_abs")
    sigma, log = run_landweber(config, noisy, delta_abs, ms, truth)
    discrepancy_reached = log.stop_reason == "discrepancy"
    if delta_abs > 0.0 and not discrepancy_reached:
        print(
            f"warning: noisy run stopped by {log.stop_reason} after "
            f"{log.num_iterations} iterations without reaching the discrepancy "
            f"(residual {log.residuals[-1]:.6g} > tau * delta_abs "
            f"{config.tau * delta_abs:.6g})",
            file=sys.stderr,
        )

    fileio.write_field_csv(os.path.join(out, "reconstruction.csv"), sigma)
    fileio.write_field_vtk(
        os.path.join(out, "reconstruction.vtk"), sigma, name="conductivity"
    )
    fileio.write_iteration_log(os.path.join(out, "iterations.csv"), log)
    fileio.write_key_values(
        os.path.join(out, "reconstruct_summary.txt"),
        "reconstruct_summary",
        {
            "stop_reason": log.stop_reason,
            "discrepancy_reached": str(discrepancy_reached).lower(),
            "iterations": log.num_iterations,
            "final_residual": float(log.residuals[-1]),
            "final_rel_error": float(log.rel_errors[-1]),
            "delta_abs": delta_abs,
            "tau": config.tau,
        },
    )
    print(
        f"reconstruct: stopped by {log.stop_reason} after {log.num_iterations} "
        f"iterations, residual {log.residuals[-1]:.6g}, "
        f"rel error {log.rel_errors[-1]:.6g}"
    )
    return 0


def _mesh_bytes(mesh: Mesh) -> tuple[bytes, ...]:
    arrays = (mesh.vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_edge_angles)
    return tuple(a.tobytes() for a in arrays)


def _truncate_value(settings: dict):
    return _number(int, settings, "truncate") if settings["truncate"].strip() else None


def cmd_svd(settings: dict) -> int:
    out = fileio.ensure_dir(settings["out"])
    mesh = generate_disk_mesh(_number(int, settings, "mesh_vertices"))
    ms = make_measurement_set(settings)
    truth = phantom_field(make_phantom_spec(settings), mesh)
    T = assemble_transfer_matrix(truth, ms)
    indices = tuple(
        _number(int, settings, "svd_vectors", x)
        for x in settings["svd_vectors"].split(",")
        if x.strip()
    )
    report = svd_analyze(T, vector_indices=indices, truncate=_truncate_value(settings))
    fileio.write_singular_values(
        os.path.join(out, "singular_values.csv"), report.singular_values
    )
    fileio.write_singular_vectors(os.path.join(out, "singvec_{:04d}.csv"), report)
    for k, vec in zip(report.vector_indices, report.vectors):
        fileio.write_field_vtk(
            os.path.join(out, f"singvec_{k:04d}.vtk"), vec, name="singular_vector"
        )
    fileio.write_key_values(
        os.path.join(out, "svd_summary.txt"),
        "svd_summary",
        {
            "alpha": parse_angle(settings["alpha"]),
            "measurements": settings["measurements"],
            "condition_number": report.condition_number,
            "rank": len(report.singular_values),
        },
    )
    print(
        f"svd: {T.matrix.shape[0]}x{T.matrix.shape[1]} transfer matrix, "
        f"condition number {report.condition_number:.6g}"
    )
    return 0


def cmd_condition_table(settings: dict) -> int:
    out = fileio.ensure_dir(settings["out"])
    mesh = generate_disk_mesh(_number(int, settings, "mesh_vertices"))
    truth = phantom_field(make_phantom_spec(settings), mesh)
    rows = condition_table(truth, truncate=_truncate_value(settings))
    path = os.path.join(out, "condition_table.csv")
    fileio.write_condition_table(path, rows, TABLE_ANGLES)
    print(f"condition-table: wrote {len(rows)} rows x {len(TABLE_ANGLES)} angles to {path}")
    return 0


_COMMANDS = {
    "phantom": cmd_phantom,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "svd": cmd_svd,
    "condition-table": cmd_condition_table,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aet2d",
        description="Limited-angle power-density conductivity reconstruction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file (section per command)")
        p.add_argument("--alpha", help="accessible arc angle, e.g. 3pi/2")
        p.add_argument("--measurements", type=int, help="number of boundary currents")
        p.add_argument("--family", choices=["trig", "special"])
        p.add_argument("--adjoint", choices=["l2", "h2", "h2beta"])
        p.add_argument("--tau", type=float, help="discrepancy multiplier")
        p.add_argument("--noise", type=float, help="relative noise level")
        p.add_argument("--seed", type=int, help="noise RNG seed")
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--mesh-vertices", dest="mesh_vertices", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--data", help="directory with simulated data (reconstruct)")
        p.add_argument(
            "--truncate", type=int, help="keep only the K largest singular values"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = load_settings(args.command, args)
        return _COMMANDS[args.command](settings)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
