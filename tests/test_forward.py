import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.spatial

from aet2d import forward
from aet2d.fem import CompatibilityWarning, NodalField, assemble_boundary_load, norm_sq
from aet2d.forward import (
    MeasurementSet,
    determinant_diagnostic,
    measurement_loads,
    simulate_data,
    solve_measurement_set,
)
from aet2d.mesh import FULL_CIRCLE, BoundaryArc, generate_disk_mesh
from aet2d.phantom import PhantomSpec, default_phantom, phantom_field
from reference import power_density


def test_trig_current_values():
    full = MeasurementSet.trig(2.0 * math.pi)
    assert full.current(1, 0.0) == 0.0
    assert full.current(1, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    quarter = MeasurementSet.trig(math.pi / 2, (2,))
    assert quarter.current(2, 3.0) == 0.0  # outside the arc


def test_special_current_values():
    ms = MeasurementSet.special()
    assert ms.arc == FULL_CIRCLE
    assert ms.current(3, math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert ms.current(2, 0.0) == 1.0


def test_boundary_current_validation():
    with pytest.raises(ValueError, match="unknown family 'fourier'"):
        MeasurementSet("fourier", (1,))
    with pytest.raises(ValueError, match="j >= 1"):
        MeasurementSet.trig(math.pi, (1, 0))
    with pytest.raises(ValueError, match=r"j in \{1, 2, 3\}"):
        MeasurementSet.special((1, 4))
    # the library names the families as the CLI does
    with pytest.raises(ValueError, match="unknown family 'trig_limited'"):
        MeasurementSet("trig_limited", (1,), BoundaryArc(math.pi))


def test_measurement_set_validation():
    with pytest.raises(ValueError, match="needs at least one boundary current"):
        MeasurementSet("trig", (), BoundaryArc(math.pi))
    ms = MeasurementSet("trig", [1, 2], BoundaryArc(math.pi))
    assert ms == MeasurementSet.trig(math.pi, (1, 2))
    assert ms.indices == (1, 2) and len(ms) == 2
    assert MeasurementSet("trig", (1,)).arc == FULL_CIRCLE


def test_special_set_rejects_an_arc_it_would_ignore():
    with pytest.raises(ValueError, match=rf"alpha = {math.pi!r} would be ignored"):
        MeasurementSet("special", (1,), BoundaryArc(math.pi))


def test_special_loads_have_zero_total_flux(mesh500):
    with warnings.catch_warnings():
        warnings.simplefilter("error", CompatibilityWarning)
        loads = measurement_loads(mesh500, MeasurementSet.special())
    assert loads.shape == (mesh500.num_vertices, 3)


def test_special_potentials_match_linear_solutions(mesh2000):
    sigma = NodalField.constant(mesh2000, 1.0)
    state = solve_measurement_set(sigma, MeasurementSet.special())
    x, y = mesh2000.vertices[:, 0], mesh2000.vertices[:, 1]
    exact = [y, x, (x + y) / math.sqrt(2.0)]
    for u, ref in zip(state.potentials.values, exact):
        assert math.sqrt(norm_sq(mesh2000, u - ref) / norm_sq(mesh2000, ref)) <= 0.02


def test_constant_sigma_power_density(mesh500):
    for c in (0.5, 2.0):
        state = solve_measurement_set(
            NodalField.constant(mesh500, c), MeasurementSet.special()
        )
        for e in state.power_densities.values:
            ref = np.full(mesh500.num_vertices, 1.0 / c)
            assert math.sqrt(norm_sq(mesh500, e - ref) / norm_sq(mesh500, ref)) <= 0.02


def test_power_density_nonnegative(mesh500):
    sigma = phantom_field(default_phantom(), mesh500)
    state = solve_measurement_set(sigma, MeasurementSet.trig(1.5 * math.pi))
    assert state.power_densities.values.shape == (3, mesh500.num_vertices)
    assert np.all(state.power_densities.values >= 0.0)


def test_power_density_exact_cases(mesh500):
    # the density formula on exact potentials, through the package's
    # averaging, gradient and projection maps
    sigma1 = NodalField.constant(mesh500, 1.0)
    const = NodalField.constant(mesh500, 3.7)
    assert np.max(power_density(sigma1, const).values) <= 1e-20
    y = NodalField(mesh500, mesh500.vertices[:, 1])
    e = power_density(sigma1, y)
    assert np.max(np.abs(e.values - 1.0)) <= 1e-12
    sigma2 = NodalField.constant(mesh500, 2.0)
    yhalf = NodalField(mesh500, mesh500.vertices[:, 1] / 2.0)
    assert np.max(np.abs(power_density(sigma2, yhalf).values - 0.5)) <= 1e-12


# Oracle of a variable conductivity: sigma = s(y) with the full-circle
# current s(sin theta) cos theta has the potential u = x and the power
# density E = s(y) exactly. Measured rel. mass-norm errors per vertex count
# (V is 1001, 1998 and 7997): eta = |E_h - E| / |E| and |u_h - x| / |x|.
ORACLE_ERRORS = {1000: (2.623e-3, 1.969e-4), 2000: (1.585e-3, 9.080e-5), 8000: (6.500e-4, 2.290e-5)}
# Observed orders per h ~ V^-1/2 between neighbouring sizes, for eta and u.
ORACLE_ORDERS = ((1.46, 2.24), (1.29, 1.99))
# Margins: each error may grow by 20%, each order may fall by 0.25.
ORACLE_ERROR_MARGIN, ORACLE_ORDER_MARGIN = 1.2, 0.25


def _oracle_conductivity(y):
    return 1.0 + 0.5 * np.sin(2.0 * y) + 0.3 * y**2


def test_variable_conductivity_oracle_converges():
    s = _oracle_conductivity
    sizes, errors = [], []
    for target, bounds in ORACLE_ERRORS.items():
        mesh = generate_disk_mesh(target)
        x, y = mesh.vertices.T
        load = assemble_boundary_load(mesh, lambda th: s(np.sin(th)) * np.cos(th), FULL_CIRCLE)
        ms = MeasurementSet.trig(2.0 * math.pi, (1,))
        state = solve_measurement_set(NodalField(mesh, s(y)), ms, loads=load[:, None])
        eta = math.sqrt(norm_sq(mesh, state.power_densities.values[0] - s(y)) / norm_sq(mesh, s(y)))
        u_err = math.sqrt(norm_sq(mesh, state.potentials.values[0] - x) / norm_sq(mesh, x))
        assert eta <= ORACLE_ERROR_MARGIN * bounds[0]
        assert u_err <= ORACLE_ERROR_MARGIN * bounds[1]
        sizes.append(mesh.num_vertices)
        errors.append((eta, u_err))
    for k, measured in enumerate(ORACLE_ORDERS):
        log_h_ratio = 0.5 * math.log(sizes[k + 1] / sizes[k])
        for coarse, fine, order in zip(errors[k], errors[k + 1], measured):
            assert math.log(coarse / fine) / log_h_ratio >= order - ORACLE_ORDER_MARGIN


def test_current_scaling_squares_power(mesh500):
    # E(a*g) = a^2 E(g) by linearity of the solve
    sigma = phantom_field(default_phantom(), mesh500)
    b = assemble_boundary_load(mesh500, np.sin, FULL_CIRCLE)
    state = solve_measurement_set(
        sigma, MeasurementSet.special((1, 2)), loads=np.column_stack([b, 3.0 * b])
    )
    e1, e3 = state.power_densities.values
    assert np.allclose(e3, 9.0 * e1, rtol=1e-12, atol=1e-13)
    u = NodalField(mesh500, state.potentials.values[0])
    assert np.array_equal(power_density(sigma, u).values, e1)


def test_sigma_scaling_inverts_power(mesh500):
    base = phantom_field(default_phantom(), mesh500)
    ms = MeasurementSet.trig(math.pi, (1, 2))
    e_base = solve_measurement_set(base, ms).power_densities.values
    scaled = NodalField(mesh500, 2.0 * base.values)
    e_scaled = solve_measurement_set(scaled, ms).power_densities.values
    assert np.allclose(e_scaled, e_base / 2.0, rtol=1e-12, atol=1e-14)


def test_determinant_exact_fields(mesh500):
    x, y = mesh500.vertices.T
    det, dmin = determinant_diagnostic(NodalField(mesh500, np.stack([y, x])))
    assert np.allclose(det, -1.0, atol=1e-12)
    assert dmin == pytest.approx(1.0, abs=1e-12)
    # only the first two rows enter
    det_same, _ = determinant_diagnostic(NodalField(mesh500, np.stack([y, y, x])))
    assert np.allclose(det_same, 0.0, atol=1e-15)
    for values in (y, y[None]):
        with pytest.raises(ValueError, match="at least two fields"):
            determinant_diagnostic(NodalField(mesh500, values))


def test_determinant_special_pair(mesh2000):
    state = solve_measurement_set(
        NodalField.constant(mesh2000, 1.0), MeasurementSet.special((1, 2))
    )
    _, dmin = determinant_diagnostic(state.potentials)
    assert dmin >= 0.9


def test_stack_roundtrip(mesh200, rng):
    # a stack is one (M, V) C-contiguous array whose rows are the fields
    rows = rng.standard_normal((mesh200.num_vertices, 3)).T  # Fortran order
    stack = NodalField(mesh200, rows)
    assert stack.values.shape == (3, mesh200.num_vertices)
    assert stack.values.flags.c_contiguous
    for j in range(3):
        assert np.array_equal(NodalField(mesh200, stack.values[j]).values, rows[j])
    v = mesh200.num_vertices
    for bad in (np.zeros((3, v + 1)), np.zeros((2, 3, v)), np.float64(1.0)):
        with pytest.raises(ValueError, match="coefficients per field"):
            NodalField(mesh200, bad)
    with pytest.raises(ValueError, match="non-finite"):
        NodalField(mesh200, np.where(np.arange(3 * v).reshape(3, v) == 2 * v, np.nan, 0.0))


def test_a_prebuilt_solver_gives_the_same_state_bitwise(mesh200, monkeypatch):
    # one factorization serves sets on several arcs at one conductivity
    sigma = phantom_field(default_phantom(), mesh200)
    solver = solve_measurement_set(sigma, MeasurementSet.trig(2.0 * math.pi)).solver
    expected = solve_measurement_set(sigma, MeasurementSet.trig(0.5 * math.pi))

    def no_factorization(*args):
        raise AssertionError("K(sigma) was factorized again")

    monkeypatch.setattr(forward, "ZeroMeanSolver", no_factorization)
    state = solve_measurement_set(sigma, MeasurementSet.trig(0.5 * math.pi), solver=solver)
    assert state.solver is solver
    assert np.array_equal(state.potentials.values, expected.potentials.values)
    assert np.array_equal(state.power_densities.values, expected.power_densities.values)


def test_simulate_data_matches_direct_solve(mesh500, fine3000):
    spec = default_phantom()
    ms = MeasurementSet.special()
    data, fine_potentials = simulate_data(spec, ms, mesh500, fine_mesh=fine3000)
    assert fine_potentials.mesh is fine3000
    assert fine_potentials.values.shape == (3, fine3000.num_vertices)
    sigma = phantom_field(spec, mesh500)
    direct = solve_measurement_set(sigma, ms)
    assert data.values.shape == (3, mesh500.num_vertices)
    for interp, own in zip(data.values, direct.power_densities.values):
        rel = math.sqrt(norm_sq(mesh500, interp - own) / norm_sq(mesh500, own))
        assert rel <= 0.05  # different discretizations, same field


def _recorded_solvers(monkeypatch):
    """Replace ``forward.ZeroMeanSolver`` by a subclass that records its instances.

    Returns the instances' weakrefs and, per instance, which earlier ones
    were still alive when it began to factorize.
    """
    solvers, alive_at_init = [], []

    class RecordedSolver(forward.ZeroMeanSolver):
        def __init__(self, *args, **kwargs):
            alive_at_init.append([ref() is not None for ref in solvers])
            super().__init__(*args, **kwargs)
            solvers.append(weakref.ref(self))

    monkeypatch.setattr(forward, "ZeroMeanSolver", RecordedSolver)
    return solvers, alive_at_init


def _fresh_mesh_data(spec, ms, recon):
    """``simulate_data`` on a data mesh of its own, with no kept solver."""
    return simulate_data(spec, ms, recon, generate_disk_mesh(3000))


def test_simulate_data_keeps_one_fine_solver_and_no_forward_state(
    mesh200, fine3000, monkeypatch
):
    # While the data mesh lives it keeps at most one fine solver (and its
    # sparse LU factor); the returned pair keeps neither the solver nor the
    # rest of the fine forward solution alive.
    solvers, _ = _recorded_solvers(monkeypatch)
    states = []

    class RecordedState(forward.ForwardState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(weakref.ref(self))

    monkeypatch.setattr(forward, "_FINE_SOLVERS", weakref.WeakKeyDictionary())
    monkeypatch.setattr(forward, "ForwardState", RecordedState)
    kept = simulate_data(default_phantom(), MeasurementSet.trig(math.pi), mesh200, fine3000)
    gc.collect()
    assert len(solvers) == 1 and len(states) == 1
    assert states[0]() is None
    assert solvers[0]() is forward._FINE_SOLVERS[fine3000][1]
    forward._FINE_SOLVERS.clear()
    gc.collect()
    assert solvers[0]() is None
    assert kept[1].mesh is fine3000


def test_simulate_data_factorizes_a_data_mesh_once_for_every_arc(mesh200, monkeypatch):
    spec = default_phantom()
    sets = [MeasurementSet.trig(a * math.pi) for a in (2.0, 1.5, 1.0, 0.5)]
    expected = [_fresh_mesh_data(spec, ms, mesh200) for ms in sets]
    solvers, _ = _recorded_solvers(monkeypatch)
    fine = generate_disk_mesh(3000)
    for ms, (data, potentials) in zip(sets, expected):
        got_data, got_potentials = simulate_data(spec, ms, mesh200, fine)
        assert np.array_equal(got_data.values, data.values)
        assert np.array_equal(got_potentials.values, potentials.values)
    assert len(solvers) == 1


def test_simulate_data_builds_a_data_mesh_centroid_tree_once_for_every_arc(
    mesh200, monkeypatch
):
    # the data mesh keeps the centroid tree that point location queries, so
    # the arcs locate the reconstruction vertices without building another
    spec = default_phantom()
    sets = [MeasurementSet.trig(a * math.pi) for a in (2.0, 1.5, 1.0, 0.5)]
    expected = [_fresh_mesh_data(spec, ms, mesh200)[0] for ms in sets]
    built = []
    tree = scipy.spatial.cKDTree

    def counted_tree(*args, **kwargs):
        built.append(args[0].shape)
        return tree(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counted_tree)
    fine = generate_disk_mesh(3000)
    for ms, data in zip(sets, expected):
        assert np.array_equal(simulate_data(spec, ms, mesh200, fine)[0].values, data.values)
    assert built == [(fine.num_triangles, 2)]


def test_simulate_data_refactorizes_for_another_conductivity(mesh200, monkeypatch):
    spec = default_phantom()
    other = PhantomSpec(1.2, spec.inclusions[:1])
    ms = MeasurementSet.trig(math.pi)
    expected = [_fresh_mesh_data(phantom, ms, mesh200) for phantom in (spec, other)]
    solvers, alive_at_init = _recorded_solvers(monkeypatch)
    fine = generate_disk_mesh(3000)
    for phantom, (data, potentials) in zip((spec, other), expected):
        got_data, got_potentials = simulate_data(phantom, ms, mesh200, fine)
        assert np.array_equal(got_data.values, data.values)
        assert np.array_equal(got_potentials.values, potentials.values)
    # the first solver was released before the second one factorized
    assert alive_at_init == [[], [False]]
    second = simulate_data(other, ms, mesh200, fine)[0]
    assert len(solvers) == 2
    assert np.array_equal(second.values, expected[1][0].values)


def test_simulate_data_releases_the_kept_solver_with_its_mesh(mesh200, monkeypatch):
    solvers, _ = _recorded_solvers(monkeypatch)
    fine = generate_disk_mesh(3000)
    kept = simulate_data(default_phantom(), MeasurementSet.trig(math.pi), mesh200, fine)
    gc.collect()
    assert solvers[0]() is not None
    del fine, kept
    gc.collect()
    assert solvers[0]() is None


def test_simulate_data_rejects_a_non_positive_phantom_after_a_reusable_call(mesh200):
    spec = default_phantom()
    ms = MeasurementSet.trig(math.pi)
    fine = generate_disk_mesh(3000)
    simulate_data(spec, ms, mesh200, fine)
    simulate_data(spec, MeasurementSet.trig(0.5 * math.pi), mesh200, fine)
    negative = PhantomSpec(1.0, (replace(spec.inclusions[0], plateau=-0.5),))
    with pytest.raises(ValueError, match="conductivity must be positive"):
        simulate_data(negative, ms, mesh200, fine)


def test_simulate_data_deterministic(mesh200, fine3000):
    spec = default_phantom()
    ms = MeasurementSet.trig(math.pi, (1,))
    a, _ = simulate_data(spec, ms, mesh200, fine_mesh=fine3000)
    b, _ = simulate_data(spec, ms, mesh200, fine_mesh=fine3000)
    assert np.array_equal(a.values, b.values)
