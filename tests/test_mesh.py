import math
import re

import numpy as np
import pytest
import reference

from aet2d.mesh import (
    BoundaryArc,
    accessible_boundary_edges,
    generate_disk_mesh,
    interpolate,
    locate_points,
)


def conforming_edge_counts(mesh):
    t = mesh.triangles
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    pairs = np.sort(pairs, axis=1)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    return counts


@pytest.mark.parametrize("target", [4, 12, 60, 500, 2000])
def test_generated_mesh_invariants(target):
    mesh = generate_disk_mesh(target)
    assert abs(mesh.num_vertices - target) <= 0.2 * target
    assert np.all(mesh.triangle_areas > 0.0)
    assert mesh.num_vertices - mesh.edge_count() + mesh.num_triangles == 1
    assert mesh.min_angle_deg() > 15.0
    counts = conforming_edge_counts(mesh)
    assert set(counts) <= {1, 2}
    assert np.sum(counts == 1) == mesh.boundary_edges.shape[0]
    bverts = np.unique(mesh.boundary_edges)
    assert np.max(np.abs(np.linalg.norm(mesh.vertices[bverts], axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("target", [4, 5, 7, 100, 700, 2000, 10500, 40000])
def test_generated_mesh_matches_reference(target):
    mesh, ref = generate_disk_mesh(target), reference.disk_mesh(target)
    for name in ("vertices", "triangles", "boundary_edges", "boundary_edge_angles"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("target", [4, 12, 60, 500, 2000, 8000, 40000])
def test_edge_count_matches_unique_pairs(target):
    mesh = generate_disk_mesh(target)
    t = mesh.triangles
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    assert mesh.edge_count() == np.unique(pairs, axis=0).shape[0]


def test_vertex_count_near_target(mesh2000):
    assert 1600 <= mesh2000.num_vertices <= 2400


def test_total_area_inscribed_polygon(mesh2000):
    # the triangulation fills the inscribed polygon exactly
    b = mesh2000.boundary_edges.shape[0]
    polygon_area = 0.5 * b * math.sin(2.0 * math.pi / b)
    area = mesh2000.triangle_areas.sum()
    assert area < math.pi
    assert abs(area - polygon_area) <= 1e-12 * polygon_area
    assert abs(area - math.pi) <= 0.005 * math.pi


def test_determinism():
    a = generate_disk_mesh(700)
    b = generate_disk_mesh(700)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.boundary_edges, b.boundary_edges)


def test_rejects_tiny_target():
    with pytest.raises(ValueError):
        generate_disk_mesh(3)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 7.0])
def test_boundary_arc_validation(alpha):
    with pytest.raises(ValueError):
        BoundaryArc(alpha)


def test_accessible_edges_full_circle(mesh500):
    idx = accessible_boundary_edges(mesh500, BoundaryArc(2.0 * math.pi))
    assert len(idx) == mesh500.boundary_edges.shape[0]


def test_accessible_edges_half(mesh500):
    b = mesh500.boundary_edges.shape[0]
    idx = accessible_boundary_edges(mesh500, BoundaryArc(math.pi))
    assert abs(len(idx) - b / 2) <= 1
    assert np.all(mesh500.boundary_edge_angles[idx] <= math.pi)


def test_accessible_edges_quarter_on_360_segment_boundary():
    mesh = generate_disk_mesh(10500)
    assert mesh.boundary_edges.shape[0] == 360
    idx = accessible_boundary_edges(mesh, BoundaryArc(math.pi / 2))
    assert abs(len(idx) - 90) <= 1


def test_an_arc_that_holds_no_edge_raises():
    # the first boundary edge midpoint of the 49-vertex mesh lies at 2pi/48
    mesh = generate_disk_mesh(50)
    msg = "the arc alpha = 0.1 holds no boundary edge of the mesh: its first edge midpoint "
    with pytest.raises(ValueError, match=re.escape(f"{msg}lies at angle {math.pi / 24!r}")):
        accessible_boundary_edges(mesh, BoundaryArc(0.1))


def test_accessible_edges_nested(mesh500):
    small = set(accessible_boundary_edges(mesh500, BoundaryArc(math.pi / 2)))
    large = set(accessible_boundary_edges(mesh500, BoundaryArc(1.5 * math.pi)))
    assert small <= large


def test_interpolate_reproduces_linears(mesh500, rng):
    values = 0.7 * mesh500.vertices[:, 0] - 1.3 * mesh500.vertices[:, 1] + 0.2
    pts = rng.uniform(-0.7, 0.7, size=(300, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.95]
    exact = 0.7 * pts[:, 0] - 1.3 * pts[:, 1] + 0.2
    assert np.max(np.abs(interpolate(mesh500, values, pts) - exact)) <= 1e-12


def test_interpolate_circle_points(mesh2000):
    # points on the unit circle sit just outside the polygon; the inward
    # nudge must keep the error at the sagitta scale, not the edge scale
    values = mesh2000.vertices[:, 0] + 2.0 * mesh2000.vertices[:, 1]
    theta = np.linspace(0.0, 2.0 * math.pi, 41)[:-1] + 0.0137
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    exact = pts[:, 0] + 2.0 * pts[:, 1]
    assert np.max(np.abs(interpolate(mesh2000, values, pts) - exact)) <= 5e-3


def _located(mesh, tri_idx, bary):
    """The points that ``locate_points`` found, from their barycentric coordinates."""
    return np.einsum("nc,ncd->nd", bary, mesh.vertices[mesh.triangles[tri_idx]])


def test_interpolate_stack_rows_equal_single_fields(mesh2000, mesh500, rng):
    # points on the circle between boundary vertices take the nudged path
    values = rng.standard_normal((3, mesh2000.num_vertices))
    theta = np.linspace(0.0, 2.0 * math.pi, 41)[:-1] + 0.0137
    pts = np.vstack([mesh500.vertices, np.column_stack([np.cos(theta), np.sin(theta)])])
    tri_idx, bary = locate_points(mesh2000, pts)
    assert np.max(np.abs(_located(mesh2000, tri_idx, bary) - pts)) > 1e-9
    stacked = interpolate(mesh2000, values, pts)
    assert stacked.shape == (3, pts.shape[0])
    for row in range(3):
        single = interpolate(mesh2000, values[row], pts)
        assert single.shape == (pts.shape[0],)
        assert stacked[row].tobytes() == single.tobytes()


@pytest.mark.parametrize("data_size", [7, 800, 10500])
def test_locate_points_matches_the_column_loop_reference(data_size, mesh500, rng):
    # target vertices, random points of the disk and circle points, some of
    # which only the nudge locates: the same triangles and barycentrics, bit
    # for bit, as the per-call tree tested one candidate column at a time
    mesh = generate_disk_mesh(data_size)
    theta = rng.uniform(0.0, 2.0 * math.pi, 400)
    radius = np.append(np.sqrt(rng.uniform(0.0, 1.0, 200)), np.ones(200))
    disk = radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    pts = np.vstack([mesh500.vertices, disk])
    tri_idx, bary = locate_points(mesh, pts)
    assert np.max(np.abs(_located(mesh, tri_idx, bary) - pts)) > 1e-9
    ref_idx, ref_bary = reference.locate_points(mesh, pts)
    assert tri_idx.dtype == ref_idx.dtype and bary.shape == ref_bary.shape
    assert tri_idx.tobytes() == ref_idx.tobytes()
    assert bary.tobytes() == ref_bary.tobytes()


def test_locate_points_of_no_points(mesh500):
    tri_idx, bary = locate_points(mesh500, np.zeros((0, 2)))
    assert tri_idx.shape == (0,) and bary.shape == (0, 3)
    stack = np.ones((2, mesh500.num_vertices))
    assert interpolate(mesh500, stack, np.zeros((0, 2))).shape == (2, 0)


def test_points_outside_the_disk_raise(mesh2000, mesh500, rng):
    values = rng.standard_normal((3, mesh2000.num_vertices))
    pts = np.vstack([mesh500.vertices, [[1.5, 0.0], [0.0, -2.0]]])
    first = r"the first at \(1\.5, 0\.0\)$"
    message = rf"^2 of {pts.shape[0]} points lie outside the unit disk, {first}"
    with pytest.raises(ValueError, match=message):
        locate_points(mesh2000, pts)
    for field in (values, values[0]):
        with pytest.raises(ValueError, match=message):
            interpolate(mesh2000, field, pts)


def test_a_non_finite_point_is_named_like_a_point_outside_the_disk(mesh200):
    # not scipy's "'x' must be finite" from the centroid tree
    values = np.zeros(mesh200.num_vertices)
    for bad, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        pts = np.array([[0.1, 0.2], [0.0, bad], [0.3, -0.1]])
        message = rf"^1 of 3 points lie outside the unit disk, the first at \(0\.0, {shown}\)$"
        with pytest.raises(ValueError, match=message):
            locate_points(mesh200, pts)
        with pytest.raises(ValueError, match=message):
            interpolate(mesh200, values, pts)


def test_interpolate_rejects_a_field_of_another_length(mesh200):
    # V + 5 entries read the first V silently; V - 1 raised an IndexError
    v = mesh200.num_vertices
    for shape in ((v + 5,), (v - 1,), (2, v + 5), ()):
        message = rf"^a field on this mesh has {v} values, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            interpolate(mesh200, np.zeros(shape), mesh200.vertices)


@pytest.mark.parametrize("data_size", [4, 5, 7, 10, 50, 200, 800, 3000])
def test_every_point_of_the_closed_disk_is_located(data_size, rng):
    # target mesh vertices, random points of the closed disk, points on the
    # circle and the mesh's own boundary vertices are all located. A point
    # inside the mesh polygon, whose inscribed radius is sqrt(1 - L^2/4) for
    # the longest boundary chord L, is located where it is; the nudge moves
    # any other point by at most L^2/4 times its radius
    mesh = generate_disk_mesh(data_size)
    ends = mesh.vertices[mesh.boundary_edges]
    shrink = np.max(np.sum((ends[:, 1] - ends[:, 0]) ** 2, axis=1)) / 4.0
    radius = np.append(np.sqrt(rng.uniform(0.0, 1.0, 300)), np.ones(200))
    theta = rng.uniform(0.0, 2.0 * math.pi, 500)
    disk = radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    targets = [generate_disk_mesh(n).vertices for n in (4, 17, 200, 2000)]
    own = np.unique(mesh.boundary_edges)
    values = 0.7 * mesh.vertices[:, 0] - 1.3 * mesh.vertices[:, 1] + 0.2
    for pts in (*targets, disk, mesh.vertices[own]):
        tri_idx, bary = locate_points(mesh, pts)
        assert np.all(bary >= -1e-9)
        r = np.hypot(*pts.T)
        moved = np.hypot(*(_located(mesh, tri_idx, bary) - pts).T)
        assert np.all(moved[r < math.sqrt(1.0 - shrink)] <= 1e-15)
        assert np.all(moved <= shrink * r + 1e-15)
        err = np.abs(interpolate(mesh, values, pts) - (0.7 * pts[:, 0] - 1.3 * pts[:, 1] + 0.2))
        assert np.all(err <= math.hypot(0.7, 1.3) * moved + 1e-12)
    assert np.array_equal(interpolate(mesh, values, mesh.vertices[own]), values[own])


def test_mesh_operators_share_storage(mesh500):
    e = mesh500.incidence
    assert e.indices.dtype == e.indptr.dtype == np.int32
    assert np.shares_memory(e.indices, mesh500.triangles)
    et = mesh500.incidence_t
    assert np.shares_memory(et.indices, e.indices)
    assert np.shares_memory(et.data, e.data)
    grad = mesh500.gradient_operator
    assert grad.indices.dtype == grad.indptr.dtype == np.int32
    assert np.shares_memory(grad.data, mesh500.hat_gradients)


def test_vertex_weights_are_cached_read_only_patch_thirds(mesh2000):
    w = mesh2000.vertex_weights
    assert w is mesh2000.vertex_weights
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    assert w.tobytes() == (mesh2000.vertex_patch_areas / 3.0).tobytes()
    # int phi_i is also the i-th row sum of the mass matrix, up to rounding
    lumped = np.asarray(mesh2000.mass.sum(axis=1)).ravel()
    assert np.max(np.abs(w - lumped) / lumped) <= 1e-15
