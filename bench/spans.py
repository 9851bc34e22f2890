"""Outside-in span tracing of the aet2d layers.

The tracer replaces layer entry points with timing wrappers from outside
the package: nothing under ``src/`` changes. Modules import names by
value (``cli`` holds its own reference to ``run_landweber``, ``main``
dispatches through the ``_COMMANDS`` dict), so each function is replaced
in every ``aet2d`` module, and in every module-level dict, that holds
the same object. Methods are replaced on their class. A target that no
longer exists is recorded as absent and its metrics are left out; the
run goes on.

A span is ``(id, name, parent id, start, end, workload, phase, rep,
info)``. Spans stay in memory and are written once, when the run ends.

The tracing overhead is measured by the wrappers themselves: the time
each spends outside the call it wraps (recording the span and running
its info hook), summed per repetition. Subtracting an untraced
repetition's wall time instead would bury it in run-to-run noise.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

import numpy as np


def _rhs_columns(args, kwargs, result):
    shape = np.shape(args[1])
    return {"rhs": int(np.prod(shape[1:])) if len(shape) > 1 else 1}


def _matrix_mb(shape):
    return float(np.prod(shape)) * 8 / 1e6


def _cond_input(args, kwargs, result):
    return {"svd_mb": _matrix_mb(np.shape(args[0]))}


def _analyze_input(args, kwargs, result):
    return {"svd_mb": _matrix_mb(np.shape(args[0].matrix))}


def _landweber_info(args, kwargs, result):
    log = result[1]
    return {"iterations": int(log.num_iterations), "stop": log.stop_reason}


def _file_bytes(args, kwargs, result):
    path = args[0]
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return {"bytes": os.path.getsize(path)}
    return {"bytes": 0}


# (span name, module, attribute or "Class.method" or "prefix*", info hook).
# ``phantom`` is folded into ``forward.simulate``: it is too cheap to time.
TARGETS = (
    ("mesh.generate", "aet2d.mesh", "generate_disk_mesh", None),
    ("mesh.interpolate", "aet2d.mesh", "interpolate", None),
    ("fem.stiffness", "aet2d.fem", "assemble_stiffness", None),
    ("fem.factor", "aet2d.fem", "ZeroMeanSolver.__init__", None),
    ("fem.solve", "aet2d.fem", "ZeroMeanSolver.solve_with_multiplier", _rhs_columns),
    ("fem.gram_factor", "aet2d.fem", "GramSolver.__init__", None),
    ("fem.gram_solve", "aet2d.fem", "GramSolver.solve_dual", None),
    ("forward.solve_set", "aet2d.forward", "solve_measurement_set", None),
    ("forward.simulate", "aet2d.forward", "simulate_data", None),
    ("sensitivity.derivative", "aet2d.sensitivity", "derivative_apply", None),
    ("sensitivity.adjoint", "aet2d.sensitivity", "adjoint_apply", None),
    ("inversion.landweber", "aet2d.inversion", "run_landweber", _landweber_info),
    ("illposed.transfer", "aet2d.illposed", "assemble_transfer_matrix", None),
    ("illposed.cond_svd", "aet2d.illposed", "condition_number", _cond_input),
    ("illposed.svd_analyze", "aet2d.illposed", "svd_analyze", _analyze_input),
    ("fileio.write", "aet2d.fileio", "write_*", _file_bytes),
    ("fileio.read", "aet2d.fileio", "read_*", None),
    ("cli.simulate", "aet2d.cli", "cmd_simulate", None),
    ("cli.reconstruct", "aet2d.cli", "cmd_reconstruct", None),
)

# Per-layer metrics: name -> (unit, span names it needs). Every metric
# except the ``setup.*`` pair is taken from the repetitions of the timed
# section.
LAYER_METRICS = {
    "mesh.generate_s": ("s", ("mesh.generate",)),
    "mesh.generate_calls": ("count", ("mesh.generate",)),
    "mesh.interpolate_s": ("s", ("mesh.interpolate",)),
    "fem.stiffness_s": ("s", ("fem.stiffness",)),
    "fem.stiffness_calls": ("count", ("fem.stiffness",)),
    "fem.factor_s": ("s", ("fem.factor",)),
    "fem.factor_calls": ("count", ("fem.factor",)),
    "fem.factor_ms": ("ms", ("fem.factor",)),
    "fem.solve_s": ("s", ("fem.solve",)),
    "fem.solve_calls": ("count", ("fem.solve",)),
    "fem.solve_rhs": ("count", ("fem.solve",)),
    "fem.gram_factor_s": ("s", ("fem.gram_factor",)),
    "fem.gram_solve_s": ("s", ("fem.gram_solve",)),
    "fem.gram_solve_calls": ("count", ("fem.gram_solve",)),
    "forward.solve_set_self_s": ("s", ("forward.solve_set",)),
    "forward.solve_set_calls": ("count", ("forward.solve_set",)),
    "forward.simulate_s": ("s", ("forward.simulate",)),
    "sensitivity.derivative_self_s": ("s", ("sensitivity.derivative",)),
    "sensitivity.derivative_calls": ("count", ("sensitivity.derivative",)),
    "sensitivity.adjoint_self_s": ("s", ("sensitivity.adjoint",)),
    "sensitivity.adjoint_calls": ("count", ("sensitivity.adjoint",)),
    "inversion.landweber_self_s": ("s", ("inversion.landweber",)),
    "inversion.runs": ("count", ("inversion.landweber",)),
    "inversion.iterations": ("count", ("inversion.landweber",)),
    "inversion.iter_ms_p50": ("ms", ("inversion.landweber", "sensitivity.derivative")),
    "inversion.iter_ms_p90": ("ms", ("inversion.landweber", "sensitivity.derivative")),
    "inversion.extra_forward_solves": ("count", ("inversion.landweber", "forward.solve_set")),
    "inversion.discrepancy_reached": ("count", ("inversion.landweber",)),
    "illposed.transfer_s": ("s", ("illposed.transfer",)),
    "illposed.transfer_self_s": ("s", ("illposed.transfer",)),
    "illposed.transfer_calls": ("count", ("illposed.transfer",)),
    "illposed.cond_svd_s": ("s", ("illposed.cond_svd",)),
    "illposed.cond_svd_calls": ("count", ("illposed.cond_svd",)),
    "illposed.svd_input_mb": ("MB", ("illposed.cond_svd", "illposed.svd_analyze")),
    "illposed.svd_analyze_s": ("s", ("illposed.svd_analyze",)),
    "fileio.write_s": ("s", ("fileio.write",)),
    "fileio.write_calls": ("count", ("fileio.write",)),
    "fileio.bytes_written": ("bytes", ("fileio.write",)),
    "fileio.read_s": ("s", ("fileio.read",)),
    "fileio.read_calls": ("count", ("fileio.read",)),
    "cli.simulate_s": ("s", ("cli.simulate",)),
    "cli.reconstruct_s": ("s", ("cli.reconstruct",)),
    "setup.mesh.generate_s": ("s", ("mesh.generate",)),
    "setup.forward.simulate_s": ("s", ("forward.simulate",)),
    "trace.overhead_s": ("s", ()),
}

# Exact counts: they must repeat between repetitions and between runs
# of the same workload and seed.
COUNT_METRICS = tuple(
    name for name, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes", "MB")
)

# Quantities computed from other counts or from array shapes, not measured.
COMPUTED_METRICS = ("inversion.extra_forward_solves", "illposed.svd_input_mb")


def _resolve(module_name, attr):
    """Yield (owner, attribute name, original) for one target pattern."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return
    if attr.endswith("*"):
        prefix = attr[:-1]
        for name, value in sorted(vars(module).items()):
            if (
                name.startswith(prefix)
                and callable(value)
                and getattr(value, "__module__", None) == module_name
            ):
                yield module, name, value
        return
    owner_name, _, method = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return
    value = vars(owner).get(method) if owner_name else getattr(owner, method, None)
    if callable(value):
        yield owner, method, value


class Tracer:
    """Span recorder that installs and removes the layer wrappers."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.phase = "setup"
        self.rep = -1
        self.absent: list[str] = []
        self.overhead: dict[int, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            span = [len(spans), name, stack[-1] if stack else None, None, None,
                    self.workload, self.phase, self.rep, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                try:
                    span[8] = info(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    span[8] = None
            outside = (span[3] - entered) + (clock() - span[4])
            self.overhead[span[7]] = self.overhead.get(span[7], 0.0) + outside
            return result

        return wrapper

    def install(self):
        """Wrap every target; record the targets that do not exist."""
        self.absent = []
        for name, module_name, attr, info in TARGETS:
            found = False
            for owner, key, original in _resolve(module_name, attr):
                found = True
                wrapper = self._wrap(name, original, info)
                if isinstance(owner, type):
                    self._replace(owner, key, original, wrapper, as_attr=True)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "aet2d" or mod_name.startswith("aet2d.")):
                        continue
                    for gname, gvalue in list(vars(mod).items()):
                        if gvalue is original:
                            self._replace(mod, gname, original, wrapper, as_attr=True)
                        elif isinstance(gvalue, dict):
                            for dkey, dvalue in list(gvalue.items()):
                                if dvalue is original:
                                    self._replace(gvalue, dkey, original, wrapper, as_attr=False)
            if not found:
                self.absent.append(name)

    def _replace(self, owner, key, original, wrapper, as_attr):
        if as_attr:
            setattr(owner, key, wrapper)
        else:
            owner[key] = wrapper
        self._undo.append((owner, key, original, as_attr))

    def uninstall(self):
        for owner, key, original, as_attr in reversed(self._undo):
            if as_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._undo = []

    def write(self, path):
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def _self_times(spans):
    """Span duration minus the durations of its direct children."""
    child = {}
    for s in spans:
        if s[2] is not None:
            child[s[2]] = child.get(s[2], 0.0) + (s[4] - s[3])
    return {s[0]: (s[4] - s[3]) - child.get(s[0], 0.0) for s in spans}


def self_time_by_layer(spans):
    """Total self time per span name, largest first."""
    selfs = _self_times(spans)
    totals = {}
    for s in spans:
        totals[s[1]] = totals.get(s[1], 0.0) + selfs[s[0]]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def _rep_metrics(spans):
    """Per-layer metrics of one repetition's spans (or of the set-up)."""
    by_id = {s[0]: s for s in spans}
    selfs = _self_times(spans)

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(name):
        return sum(s[4] - s[3] for s in named(name))

    def self_total(name):
        return sum(selfs[s[0]] for s in named(name))

    def under(span, ancestor_id):
        parent = span[2]
        while parent is not None:
            if parent == ancestor_id:
                return True
            parent = by_id[parent][2] if parent in by_id else None
        return False

    def info_sum(name, key):
        infos = [s[8] for s in named(name)]
        if any(i is None for i in infos):
            return None
        return sum(i[key] for i in infos)

    factor_calls = len(named("fem.factor"))
    writes = named("fileio.write")
    write_parents = {s[2] for s in writes}
    leaf_writes = [s for s in writes if s[0] not in write_parents]

    runs = named("inversion.landweber")
    intervals = []
    solves_in_runs = 0
    for run in runs:
        starts = [s[3] for s in named("sensitivity.derivative") if under(s, run[0])]
        intervals += list(np.diff(starts) * 1e3)
        solves_in_runs += sum(1 for s in named("forward.solve_set") if under(s, run[0]))
    iterations = info_sum("inversion.landweber", "iterations")
    svd_mb = [info_sum("illposed.cond_svd", "svd_mb"), info_sum("illposed.svd_analyze", "svd_mb")]
    leaf_bytes = [s[8] for s in leaf_writes]

    out = {
        "mesh.generate_s": total("mesh.generate"),
        "mesh.generate_calls": len(named("mesh.generate")),
        "mesh.interpolate_s": total("mesh.interpolate"),
        "fem.stiffness_s": total("fem.stiffness"),
        "fem.stiffness_calls": len(named("fem.stiffness")),
        "fem.factor_s": total("fem.factor"),
        "fem.factor_calls": factor_calls,
        "fem.factor_ms": 1e3 * total("fem.factor") / factor_calls if factor_calls else 0.0,
        "fem.solve_s": total("fem.solve"),
        "fem.solve_calls": len(named("fem.solve")),
        "fem.solve_rhs": info_sum("fem.solve", "rhs"),
        "fem.gram_factor_s": total("fem.gram_factor"),
        "fem.gram_solve_s": total("fem.gram_solve"),
        "fem.gram_solve_calls": len(named("fem.gram_solve")),
        "forward.solve_set_self_s": self_total("forward.solve_set"),
        "forward.solve_set_calls": len(named("forward.solve_set")),
        "forward.simulate_s": total("forward.simulate"),
        "sensitivity.derivative_self_s": self_total("sensitivity.derivative"),
        "sensitivity.derivative_calls": len(named("sensitivity.derivative")),
        "sensitivity.adjoint_self_s": self_total("sensitivity.adjoint"),
        "sensitivity.adjoint_calls": len(named("sensitivity.adjoint")),
        "inversion.landweber_self_s": self_total("inversion.landweber"),
        "inversion.runs": len(runs),
        "inversion.iterations": iterations,
        "inversion.iter_ms_p50": float(np.percentile(intervals, 50)) if intervals else 0.0,
        "inversion.iter_ms_p90": float(np.percentile(intervals, 90)) if intervals else 0.0,
        "inversion.extra_forward_solves": (
            None if iterations is None else solves_in_runs - iterations - len(runs)
        ),
        "inversion.discrepancy_reached": sum(
            1 for s in runs if s[8] is not None and s[8]["stop"] == "discrepancy"
        ),
        "illposed.transfer_s": total("illposed.transfer"),
        "illposed.transfer_self_s": self_total("illposed.transfer"),
        "illposed.transfer_calls": len(named("illposed.transfer")),
        "illposed.cond_svd_s": total("illposed.cond_svd"),
        "illposed.cond_svd_calls": len(named("illposed.cond_svd")),
        "illposed.svd_input_mb": None if None in svd_mb else sum(svd_mb),
        "illposed.svd_analyze_s": total("illposed.svd_analyze"),
        "fileio.write_s": sum(s[4] - s[3] for s in leaf_writes),
        "fileio.write_calls": len(leaf_writes),
        "fileio.bytes_written": (
            None if None in leaf_bytes else sum(i["bytes"] for i in leaf_bytes)
        ),
        "fileio.read_s": total("fileio.read"),
        "fileio.read_calls": len(named("fileio.read")),
        "cli.simulate_s": total("cli.simulate"),
        "cli.reconstruct_s": total("cli.reconstruct"),
    }
    return out


def layer_metrics(tracer: Tracer, reps):
    """Per-layer metrics of the repetitions ``reps`` of a traced run.

    Times are medians over the repetitions; counts come from the first
    repetition and must repeat exactly in the others.
    Returns (metrics, count mismatches, absent metric names).
    """
    per_rep = [
        _rep_metrics([s for s in tracer.spans if s[6] == "timed" and s[7] == rep])
        for rep in reps
    ]
    setup = _rep_metrics([s for s in tracer.spans if s[6] == "setup"])
    mismatches = [
        name
        for name in COUNT_METRICS
        if name in per_rep[0] and any(r[name] != per_rep[0][name] for r in per_rep[1:])
    ]
    metrics, absent = {}, []
    for name, (unit, needs) in LAYER_METRICS.items():
        if any(n in tracer.absent for n in needs):
            absent.append(name)
            continue
        if name == "trace.overhead_s":
            value = statistics.median(tracer.overhead.get(rep, 0.0) for rep in reps)
        elif name.startswith("setup."):
            value = setup[name[len("setup."):]]
        elif name in COUNT_METRICS:
            value = per_rep[0][name]
        else:
            value = statistics.median(r[name] for r in per_rep)
        if value is None:
            absent.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, mismatches, absent
