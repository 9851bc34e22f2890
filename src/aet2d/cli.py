"""Command-line front end for the reconstruction pipeline.

Subcommands: ``phantom``, ``simulate``, ``reconstruct``, ``svd``, and
``condition-table``. ``_SETTINGS`` gives each parameter its parser, typed
default (the library's, where it has one), commands and optional flag. A
value comes from the default, an INI config (``[common]``, then the
command's section) or a flag. Angles accept ``pi`` expressions such as
``3pi/2``. All commands are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import operator
import os
import re
import sys
from typing import Callable, NamedTuple

from . import fileio
from .fem import InnerProductSpec, NodalField
from .forward import FAMILIES, MeasurementSet, determinant_diagnostic, simulate_data
from .illposed import assemble_transfer_matrix, condition_table, svd_analyze
from .inversion import ReconstructionConfig, add_noise, run_landweber
from .mesh import FULL_CIRCLE, BoundaryArc, generate_disk_mesh
from .phantom import Crescent, Disc, Inclusion, PhantomSpec, default_phantom, phantom_field


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


# Value parsers. Each maps the text of a value to its typed value, or
# raises ValueError with the end of the sentence "<key> = <text> ...".


def _typed(convert: Callable[[str], object], noun: str) -> Callable[[str], object]:
    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"is not {noun}") from None
        except CliError as exc:
            raise ValueError(f"is not {noun} ({exc})") from None

    return parse


def _finite(parse: Callable[[str], float]) -> Callable[[str], float]:
    """``parse``, then reject ``nan`` and ``inf``."""

    def parse_finite(text):
        value = parse(text)
        if not math.isfinite(value):
            raise ValueError("is not a finite number")
        return value

    return parse_finite


_int = _typed(int, "an integer")
_float = _finite(_typed(float, "a number"))
_angle = _finite(_typed(parse_angle, "an angle"))


def _arc_angle(text: str) -> float:
    """An angle that ``BoundaryArc`` accepts, so that the library owns the bound."""
    alpha = _angle(text)
    try:
        BoundaryArc(alpha)
    except ValueError as exc:
        raise ValueError(f"is not an arc angle ({exc})") from None
    return alpha


def _choice(noun: str, words: dict) -> Callable[[str], object]:
    """Parser of a case-insensitive word, one of the keys of ``words``."""

    def parse(text):
        word = text.strip().lower()
        if word not in words:
            raise ValueError(f"is not {noun} (expected one of {', '.join(words)})")
        return words[word]

    return parse


_bool = _choice("a boolean", configparser.ConfigParser.BOOLEAN_STATES)


def _entry(parse: Callable[[str], object], text: str):
    """``parse`` of one entry of a list value; an error quotes the entry."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"({text!r}) {exc}") from None


def _bounded(relation: str, low: int, parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse``, then require ``value <relation> low``, ``relation`` being ">=" or ">"."""
    holds = {">=": operator.ge, ">": operator.gt}[relation]

    def parse_bounded(text):
        value = parse(text)
        if not holds(value, low):
            raise ValueError(f"must be {relation} {low}")
        return value

    return parse_bounded


_count = _bounded(">=", 1, _int)


def _rank_list(text: str) -> tuple[int, ...]:
    """Comma-separated 1-based ranks."""
    return tuple(_entry(_count, item) for item in text.split(",") if item.strip())


def _inclusions(text: str) -> tuple[Inclusion, ...]:
    """``disc``/``crescent`` specs separated by ``;``."""
    inclusions = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        kind, *words = chunk.split()
        vals = [_entry(_float, word) for word in words]
        if kind == "disc" and len(vals) == 5:
            cx, cy, r, plateau, width = vals
            inclusions.append(Inclusion(Disc((cx, cy), r), plateau, width))
        elif kind == "crescent" and len(vals) == 8:
            ocx, ocy, orr, icx, icy, irr, plateau, width = vals
            inclusions.append(
                Inclusion(Crescent(Disc((ocx, ocy), orr), Disc((icx, icy), irr)), plateau, width)
            )
        else:
            raise ValueError(
                f"has a bad inclusion spec {chunk!r}: expected 'disc cx cy r plateau width' "
                "or 'crescent ocx ocy or icx icy ir plateau width'"
            )
    return tuple(inclusions)


class _Setting(NamedTuple):
    parse: Callable[[str], object]
    default: object
    commands: tuple[str, ...]
    flag: str | None = None  # help of the flag --<key with dashes>, if any


_ALL = ("phantom", "simulate", "reconstruct", "svd", "condition-table")
_PHANTOM = ("phantom", "simulate", "svd", "condition-table")
_MEASURE = ("simulate", "svd")
_RECON = ("reconstruct",)
_FAMILIES = {name: name for name in FAMILIES}
# The defaults that the library owns: Landweber's, the inner product's and the phantom's.
_RUN, _SPEC, _DEFAULT_PHANTOM = ReconstructionConfig(), InnerProductSpec(), default_phantom()

# Every parameter. A config section or a subcommand accepts a key only
# if its command reads it; [common] accepts every key.
_SETTINGS = {
    "mesh_vertices": _Setting(_bounded(">=", 4, _int), 2000, _PHANTOM, "vertices of the mesh"),
    "fine_vertices": _Setting(_bounded(">=", 4, _int), 40000, ("simulate",)),
    "alpha": _Setting(_arc_angle, FULL_CIRCLE.alpha, _MEASURE, "accessible arc angle, e.g. 3pi/2"),
    "measurements": _Setting(_count, 3, _MEASURE, "number of boundary currents"),
    "family": _Setting(_choice("a family", _FAMILIES), "trig", _MEASURE, "trig or special"),
    "beta1": _Setting(_bounded(">=", 0, _float), _SPEC.beta1, _RECON),
    "beta2": _Setting(_bounded(">=", 0, _float), _SPEC.beta2, _RECON),
    "tau": _Setting(_bounded(">=", 1, _float), _RUN.tau, _RECON, "discrepancy multiplier"),
    "noise": _Setting(_bounded(">=", 0, _float), 0.0, ("simulate",), "relative noise level"),
    "seed": _Setting(_bounded(">=", 0, _int), 0, ("simulate",), "noise RNG seed"),
    "max_iter": _Setting(_count, _RUN.max_iter, _RECON, "Landweber iteration limit"),
    "sigma0": _Setting(_float, _RUN.sigma0, _RECON),
    "sigma_floor": _Setting(_bounded(">", 0, _float), _RUN.sigma_floor, _RECON),
    "safeguard": _Setting(_bool, _RUN.safeguard, _RECON),
    "background": _Setting(_bounded(">", 0, _float), _DEFAULT_PHANTOM.background, _PHANTOM),
    "inclusions": _Setting(_inclusions, _DEFAULT_PHANTOM.inclusions, _PHANTOM),
    "out": _Setting(str, "out", _ALL, "output directory"),
    "data": _Setting(str, "", _RECON, "directory with simulated data (default: --out)"),
    "truncate": _Setting(_count, None, ("svd", "condition-table"), "singular values kept"),
    "svd_vectors": _Setting(_rank_list, (), ("svd",)),
}

# The settings that simulate records in data_info.txt, and the keys of
# that file that reconstruct reads, with their parsers.
_DATA_KEYS = ("mesh_vertices", "fine_vertices", "alpha", "family", "measurements", "noise", "seed")
_DATA_INFO = {k: _SETTINGS[k].parse for k in ("mesh_vertices", "alpha", "family", "measurements")}
_DATA_INFO["delta_abs"] = _bounded(">=", 0, _float)


def _parse(parse: Callable[[str], object], key: str, text: str, source: str, where: str = ""):
    """``parse(text)``; an error names the source, the key and the value."""
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{source}: {key} = {text!r} {exc}{where}") from None


def _read_config(path: str) -> dict[str, dict]:
    """Typed values of each section of the config at ``path``. A section must
    be [common] or a command, and a command's section may hold only keys it reads.
    """
    try:
        texts = fileio.read_ini(path)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:
        # fileio's ValueError names the path; its cause is the reason
        raise CliError(f"cannot read config file {path}: {exc.__cause__ or exc}") from None
    sections = {}
    for section, items in texts.items():
        if section != "common" and section not in _ALL:
            raise CliError(f"{path}: unknown section [{section}] (expected [common] or a command)")
        values = sections[section] = {}
        for key, text in items.items():
            if key not in _SETTINGS:
                raise CliError(f"{path}, section [{section}]: unknown key {key!r}")
            if section != "common" and section not in _SETTINGS[key].commands:
                raise CliError(f"{path}, section [{section}]: {section} does not read {key!r}")
            values[key] = _parse(_SETTINGS[key].parse, key, text, path, f", in section [{section}]")
    return sections


def load_settings(command: str, args: argparse.Namespace) -> dict:
    """Typed values of the keys that ``command`` reads: the defaults, then the
    config's [common] and [command] sections, then the flags.
    """
    sections = _read_config(args.config) if args.config else {}
    settings = {key: s.default for key, s in _SETTINGS.items() if command in s.commands}
    sources = dict.fromkeys(settings, "default")
    for section in ("common", command):
        values = sections.get(section, {})
        for key in settings.keys() & values.keys():
            settings[key] = values[key]
            sources[key] = f"{args.config}, section [{section}]"
    for key in settings:
        text = getattr(args, key, None)
        if text is not None:
            sources[key] = f"flag --{key.replace('_', '-')}"
            settings[key] = _parse(_SETTINGS[key].parse, key, text, sources[key])
    # The one bound between two keys: the start must be admissible.
    if "sigma0" in settings and settings["sigma0"] < settings["sigma_floor"]:
        raise CliError(
            f"{sources['sigma0']}: sigma0 = {settings['sigma0']!r} is below "
            f"sigma_floor = {settings['sigma_floor']!r} ({sources['sigma_floor']})"
        )
    return settings


def make_measurement_set(settings: dict) -> MeasurementSet:
    indices = range(1, settings["measurements"] + 1)
    return MeasurementSet(settings["family"], indices, BoundaryArc(settings["alpha"]))


def cmd_phantom(settings: dict) -> int:
    mesh = generate_disk_mesh(settings["mesh_vertices"])
    spec = PhantomSpec(settings["background"], settings["inclusions"])
    field = phantom_field(spec, mesh)
    if not field.values.min() > 0.0:
        raise CliError(f"phantom conductivity must be positive: min {field.values.min():.4g}")
    out = fileio.ensure_dir(settings["out"])
    fileio.write_field_csv(os.path.join(out, "phantom.csv"), field)
    fileio.write_field_vtk(os.path.join(out, "phantom.vtk"), field, name="conductivity")
    plateaus = sorted(inc.plateau for inc in spec.inclusions)
    print(
        f"phantom: {mesh.num_vertices} vertices, min {field.values.min():.6g}, "
        f"max {field.values.max():.6g}, background {spec.background:.6g}, "
        f"plateaus {plateaus}"
    )
    return 0


def _fine_data(settings: dict, spec: PhantomSpec, ms: MeasurementSet, mesh):
    """Data on ``mesh`` from a fresh data mesh, the minimum |det| of the first
    two fine potentials (NaN for one current), and the data mesh's vertex count.

    The data mesh, its potentials and its kept factorization are released
    on return, before the caller adds noise or writes a file.
    """
    fine_mesh = generate_disk_mesh(settings["fine_vertices"])
    data, fine_potentials = simulate_data(spec, ms, mesh, fine_mesh)
    det_min = float("nan")
    if len(ms) >= 2:
        _, det_min = determinant_diagnostic(fine_potentials)
    return data, det_min, fine_mesh.num_vertices


def cmd_simulate(settings: dict) -> int:
    ms = make_measurement_set(settings)
    mesh = generate_disk_mesh(settings["mesh_vertices"])
    spec = PhantomSpec(settings["background"], settings["inclusions"])
    data, det_min, fine_vertices = _fine_data(settings, spec, ms, mesh)
    noisy, delta_abs = add_noise(data, settings["noise"], settings["seed"])

    out = fileio.ensure_dir(settings["out"])
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
    info = {key: settings[key] for key in _DATA_KEYS}
    info.update(delta_abs=delta_abs, det_min_first_pair=det_min)
    fileio.write_key_values(os.path.join(out, "data_info.txt"), "data", info)
    print(
        f"simulate: {len(ms)} power densities on {mesh.num_vertices} vertices "
        f"(fine mesh {fine_vertices}), delta_abs {delta_abs:.6g}, "
        f"min |det| {det_min:.4g}"
    )
    return 0


def cmd_reconstruct(settings: dict) -> int:
    data_dir = settings["data"] or settings["out"]
    info_path = os.path.join(data_dir, "data_info.txt")
    if not os.path.exists(info_path):
        raise CliError(f"no simulated data found at {info_path}; run simulate first")
    text = fileio.read_key_values(info_path, "data")
    for key in _DATA_INFO:
        if key not in text:
            raise CliError(f"{info_path} lacks the key {key!r}; run simulate again")
    info = {key: _parse(parse, key, text[key], info_path) for key, parse in _DATA_INFO.items()}

    ms = make_measurement_set(info)
    mesh = generate_disk_mesh(info["mesh_vertices"])
    mesh_path = os.path.join(data_dir, "mesh.txt")
    if lineno := fileio.mesh_text_mismatch(mesh_path, mesh):
        raise CliError(
            f"{mesh_path}, line {lineno}: differs from the mesh that mesh_vertices = "
            f"{info['mesh_vertices']} generates"
        )
    noisy = NodalField(
        mesh,
        [
            fileio.read_field_csv(os.path.join(data_dir, f"E_noisy_{j:02d}.csv"), mesh).values
            for j in range(1, len(ms) + 1)
        ],
    )
    truth_path = os.path.join(data_dir, "truth.csv")
    truth = fileio.read_field_csv(truth_path, mesh) if os.path.exists(truth_path) else None

    config = ReconstructionConfig(
        spec=InnerProductSpec(settings["beta1"], settings["beta2"]),
        **{key: settings[key] for key in ("tau", "sigma0", "max_iter", "sigma_floor", "safeguard")},
    )
    delta_abs = info["delta_abs"]
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

    out = fileio.ensure_dir(settings["out"])
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


def cmd_svd(settings: dict) -> int:
    ms = make_measurement_set(settings)
    mesh = generate_disk_mesh(settings["mesh_vertices"])
    truth = phantom_field(PhantomSpec(settings["background"], settings["inclusions"]), mesh)
    T = assemble_transfer_matrix(truth, ms)
    report = svd_analyze(T, settings["svd_vectors"], truncate=settings["truncate"])
    out = fileio.ensure_dir(settings["out"])
    fileio.write_singular_values(
        os.path.join(out, "singular_values.csv"), report.singular_values
    )
    for k, vec in zip(report.vector_indices, report.vectors):
        fileio.write_field_csv(os.path.join(out, f"singvec_{k:04d}.csv"), vec)
        fileio.write_field_vtk(
            os.path.join(out, f"singvec_{k:04d}.vtk"), vec, name="singular_vector"
        )
    fileio.write_key_values(
        os.path.join(out, "svd_summary.txt"),
        "svd_summary",
        {
            "alpha": settings["alpha"],
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
    mesh = generate_disk_mesh(settings["mesh_vertices"])
    truth = phantom_field(PhantomSpec(settings["background"], settings["inclusions"]), mesh)
    rows = condition_table(truth, truncate=settings["truncate"])
    path = os.path.join(fileio.ensure_dir(settings["out"]), "condition_table.csv")
    fileio.write_condition_table(path, rows)
    print(f"condition-table: wrote {len(rows)} rows x {len(rows[0]) - 1} angles to {path}")
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
        p.add_argument("--config", help="INI config file ([common] and a section per command)")
        for key, setting in _SETTINGS.items():
            if setting.flag is not None and name in setting.commands:
                p.add_argument("--" + key.replace("_", "-"), help=setting.flag)
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
