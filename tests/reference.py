"""Matrix-free references of the forward map and its linearization, a
reader of the iteration log, and row-at-a-time references of the mesher
and the text writers, for cross-checks in tests.

``power_density`` evaluates sigma |grad u|^2 for a given potential u.
``linearized_potential`` solves for one measurement's potential
perturbation on its own, and ``derivative_pairing`` pairs the derivative
with the nodal data basis triangle by triangle. None of them assembles a
matrix, so they check the transfer matrix and the derivative
independently of how the package forms them.

``disk_mesh`` and the ``write_*`` functions build the mesh and the files
one triangle, vertex or row at a time, with a two-pointer sweep over
each ring pair and one ``fp.write`` per row. ``locate_points`` builds
its own centroid tree and corner arrays over all triangles on every call
and tests the candidates one column at a time. The package builds them
an array at a time and must match them byte for byte.
"""

import numpy as np

from aet2d.fem import NodalField, triangle_average
from aet2d.forward import ForwardState, gradient_on_triangles, project_to_vertices
from aet2d.mesh import MASS_BASE, TWO_PI, Mesh, _ring_layout


def power_density(sigma: NodalField, u: NodalField) -> NodalField:
    """Power density sigma * |grad u|^2 of one potential, as a vertex field."""
    mesh = sigma.mesh
    grad = gradient_on_triangles(mesh, u.values)
    tri_vals = triangle_average(mesh, sigma.values) * np.einsum("td,td->t", grad, grad)
    return NodalField(mesh, project_to_vertices(mesh, tri_vals))


def read_iteration_log(path):
    """Return the (k, residual, omega, rel_error) columns of an iteration log."""
    rows = np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))
    return rows[:, 0].astype(int), rows[:, 1], rows[:, 2], rows[:, 3]


def linearized_potential(state: ForwardState, j: int, h: NodalField) -> NodalField:
    """Potential perturbation for a conductivity perturbation h.

    Solves the zero-mean weak problem
    int sigma grad(u') . grad(v) = -int h grad(u_j) . grad(v) for all v,
    reusing the forward factorization of K(sigma).
    """
    mesh = state.mesh
    rhs = state.pairing_t[j] @ (triangle_average(mesh, h.values) * mesh.triangle_areas)
    return NodalField(mesh, state.solver.solve(-rhs))


def derivative_pairing(state: ForwardState, h: NodalField) -> np.ndarray:
    """Stacked pairings of the derivative in direction h with the data basis.

    Per measurement, component row is int psi_row [h |grad u_j|^2 +
    2 sigma grad u_j . grad u'_j(h)], evaluated triangle by triangle.
    """
    mesh = state.mesh
    t = mesh.triangles
    h_loc = h.values[t]
    sig_loc = state.sigma.values[t]
    out = []
    for j in range(state.num_measurements):
        up = linearized_potential(state, j, h)
        dir_pair = np.einsum(
            "td,td->t", state.grad_u[j], gradient_on_triangles(mesh, up.values)
        )
        # int_T h phi_a weights (exact for P1 h), plus the constant term
        mult = np.einsum("ab,tb->ta", MASS_BASE, h_loc) * (
            state.grad_sq[j] * mesh.triangle_areas
        )[:, None]
        second = np.einsum("ab,tb->ta", MASS_BASE, sig_loc) * (
            2.0 * dir_pair * mesh.triangle_areas
        )[:, None]
        row = np.bincount(
            t.ravel(), weights=(mult + second).ravel(), minlength=mesh.num_vertices
        )
        out.append(row)
    return np.concatenate(out)


def strip_triangles(inner, outer):
    """Triangles between two rings by an angular two-pointer sweep."""
    mi, mo = len(inner), len(outer)
    tris = []
    i = j = 0
    while i < mi or j < mo:
        if j < mo and (i == mi or (j + 1) * mi <= (i + 1) * mo):
            tris.append((inner[i % mi], outer[j % mo], outer[(j + 1) % mo]))
            j += 1
        else:
            tris.append((inner[i % mi], outer[j % mo], inner[(i + 1) % mi]))
            i += 1
    return tris


def disk_mesh(target_vertex_count: int) -> Mesh:
    """The ring mesh of ``generate_disk_mesh``, built vertex by vertex."""
    counts = _ring_layout(target_vertex_count)
    n_rings = len(counts)
    verts = [(0.0, 0.0)]
    ring_indices = []
    start = 1
    for k, m in enumerate(counts, start=1):
        r = k / n_rings
        theta = TWO_PI * np.arange(m) / m
        verts.extend(map(tuple, np.column_stack([r * np.cos(theta), r * np.sin(theta)])))
        ring_indices.append(np.arange(start, start + m))
        start += m
    first = ring_indices[0]
    m0 = len(first)
    tris = [(0, first[j], first[(j + 1) % m0]) for j in range(m0)]
    for k in range(1, n_rings):
        tris.extend(strip_triangles(ring_indices[k - 1], ring_indices[k]))
    last = ring_indices[-1]
    mb = len(last)
    boundary_edges = np.column_stack([last, np.roll(last, -1)])
    mid_angles = (TWO_PI * (np.arange(mb) + 0.5) / mb) % TWO_PI
    return Mesh(np.asarray(verts), np.asarray(tris), boundary_edges, mid_angles)


def locate_points(mesh: Mesh, points):
    """``(tri_idx, bary)`` of each point: the nearest of its 8 (then, nudged, 32)
    centroid candidates that holds it, tried one candidate column at a time.
    """
    from scipy.spatial import cKDTree

    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    p = mesh.vertices[mesh.triangles]
    tree = cKDTree(p.mean(axis=1))
    n = points.shape[0]
    tri_idx = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]

    def try_assign(pts, rows, k, tol):
        _, cand = tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        remaining = np.ones(len(rows), dtype=bool)
        for c in range(cand.shape[1]):
            if not remaining.any():
                break
            act = np.flatnonzero(remaining)
            t = cand[act, c]
            rel = pts[act] - p[t, 0]
            l1 = (rel[:, 0] * d2[t, 1] - rel[:, 1] * d2[t, 0]) / det[t]
            l2 = (d1[t, 0] * rel[:, 1] - d1[t, 1] * rel[:, 0]) / det[t]
            l0 = 1.0 - l1 - l2
            ok = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
            hit = act[ok]
            tri_idx[rows[hit]] = t[ok]
            bary[rows[hit]] = np.column_stack([l0[ok], l1[ok], l2[ok]])
            remaining[act[ok]] = False

    try_assign(points, np.arange(n), k=min(8, mesh.num_triangles), tol=1e-12)
    miss = np.flatnonzero(tri_idx < 0)
    if miss.size:
        ends = mesh.vertices[mesh.boundary_edges]
        chords = ends[:, 1] - ends[:, 0]
        shrink = float(np.max(np.einsum("bd,bd->b", chords, chords))) / 4.0
        try_assign(points[miss] * (1.0 - shrink), miss, k=min(32, mesh.num_triangles), tol=1e-9)
    return tri_idx, bary


def _fmt(x) -> str:
    return repr(float(x))


def write_field_csv(path, field: NodalField) -> None:
    with open(path, "w") as fp:
        fp.write("x,y,value\n")
        for (x, y), v in zip(field.mesh.vertices, field.values):
            fp.write(f"{_fmt(x)},{_fmt(y)},{_fmt(v)}\n")


def write_mesh(path, mesh: Mesh) -> None:
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


def write_field_vtk(path, field: NodalField, name: str = "value") -> None:
    mesh = field.mesh
    nt = mesh.num_triangles
    with open(path, "w") as fp:
        fp.write("# vtk DataFile Version 2.0\n")
        fp.write(f"{name}\n")
        fp.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fp.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            fp.write(f"{_fmt(x)} {_fmt(y)} 0.0\n")
        fp.write(f"CELLS {nt} {4 * nt}\n")
        for i, j, k in mesh.triangles:
            fp.write(f"3 {i} {j} {k}\n")
        fp.write(f"CELL_TYPES {nt}\n")
        fp.write("5\n" * nt)
        fp.write(f"POINT_DATA {mesh.num_vertices}\n")
        fp.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        for v in field.values:
            fp.write(f"{_fmt(v)}\n")


def write_iteration_log(path, log) -> None:
    with open(path, "w") as fp:
        fp.write("k,residual,omega,rel_error\n")
        for k, (res, om, err) in enumerate(zip(log.residuals, log.omegas, log.rel_errors)):
            fp.write(f"{k},{_fmt(res)},{_fmt(om)},{_fmt(err)}\n")


def write_singular_values(path, values) -> None:
    with open(path, "w") as fp:
        fp.write("k,sigma_k\n")
        for k, s in enumerate(values, start=1):
            fp.write(f"{k},{_fmt(s)}\n")
