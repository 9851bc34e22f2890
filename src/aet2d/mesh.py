"""Triangulations of the unit disk with marked boundary arcs.

The mesher lays vertices on concentric rings (counts proportional to the
radius) and triangulates each ring pair by merging the two rings' vertex
angles in increasing order, ties to the outer ring: each outer vertex
passed adds a triangle on an outer edge, each inner vertex one on an
inner edge. This is fully deterministic: the same target vertex count
always yields the same mesh, which keeps regression tests and noise
seeds meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

TWO_PI = 2.0 * math.pi

# Quality floor asserted at generation time; guards stiffness conditioning.
MIN_ANGLE_DEG = 15.0

# P1 element mass matrix of a unit-area triangle: int_T phi_i phi_j / |T|.
MASS_BASE = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class BoundaryArc:
    """Accessible boundary arc {theta in [0, alpha]} on the unit circle."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= TWO_PI:
            raise ValueError(f"arc angle must lie in (0, 2*pi], got {self.alpha}")


FULL_CIRCLE = BoundaryArc(TWO_PI)


class AssemblyPlan(NamedTuple):
    """Fixed scatter of the 9T local element entries into a CSR matrix.

    Local entry k is (t, i, j) in C order of a (T, 3, 3) block array and
    belongs to row ``triangles[t, i]``, column ``triangles[t, j]``.
    ``indptr``/``indices`` are the canonical pattern of those positions
    (rows in order, each row's columns sorted, no duplicates), and
    ``slot[k]`` is the position of entry k in it, so
    ``np.bincount(slot, weights=local.ravel())`` sums each matrix entry's
    element contributions in element order (bincount starts each sum at
    +0.0, so an entry whose contributions are all -0.0 comes out +0.0).
    All arrays are int32 and read-only.
    """

    slot: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


class Mesh:
    """Conforming triangulation of the unit disk.

    Parameters
    ----------
    vertices : (V, 2) float array
        Vertex positions (x, y); boundary vertices lie exactly on the unit circle.
    triangles : (T, 3) int array
        Vertex index triples, counterclockwise orientation.
    boundary_edges : (B, 2) int array
        Vertex index pairs on the boundary, ordered counterclockwise.
    boundary_edge_angles : (B,) float array
        Polar angle of each boundary edge midpoint, in [0, 2*pi).

    Instances are immutable after construction and safe to share between
    threads. Derived data is computed lazily and cached: the geometry
    (areas, P1 gradients, local stiffness blocks, patch areas), the
    ``assembly_plan`` that ``scatter`` assembles every global matrix
    with, the mass matrix ``mass`` (the data-space inner product), the
    hat-function integrals ``vertex_weights``, and the fixed-pattern
    sparse operators between vertex and triangle values (``incidence_t``,
    its transpose view ``incidence``, ``gradient_operator``), whose index
    arrays are int32, and the centroid KD-tree of ``locate_points``. The
    incidence shares ``triangles`` as its index array, and
    ``gradient_operator`` stores no copy of ``hat_gradients``.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_edge_angles):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int32)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int32)
        self.boundary_edge_angles = np.ascontiguousarray(
            boundary_edge_angles, dtype=np.float64
        )
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
        if self.boundary_edges.shape[0] != self.boundary_edge_angles.shape[0]:
            raise ValueError("boundary edge / angle count mismatch")
        for arr in (
            self.vertices,
            self.triangles,
            self.boundary_edges,
            self.boundary_edge_angles,
        ):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def triangle_areas(self) -> np.ndarray:
        """(T,) signed triangle areas (positive for CCW orientation)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        areas.setflags(write=False)
        return areas

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """(T, 3, 2) gradients of the three P1 hat functions per triangle."""
        p = self.vertices[self.triangles]
        x, y = p[..., 0], p[..., 1]
        nxt = [1, 2, 0]
        prv = [2, 0, 1]
        b = y[:, nxt] - y[:, prv]
        c = x[:, prv] - x[:, nxt]
        grads = np.stack([b, c], axis=-1) / (2.0 * self.triangle_areas)[:, None, None]
        # Stored in (t, d, c) order, the data layout of ``gradient_operator``.
        store = np.ascontiguousarray(grads.transpose(0, 2, 1))
        store.setflags(write=False)
        return store.transpose(0, 2, 1)

    @cached_property
    def local_stiffness(self) -> np.ndarray:
        """(T, 3, 3) element stiffness blocks for unit conductivity."""
        g = self.hat_gradients
        s = np.einsum("tid,tjd->tij", g, g) * self.triangle_areas[:, None, None]
        s = np.ascontiguousarray(s)  # assembly takes its entries in C order
        s.setflags(write=False)
        return s

    @cached_property
    def vertex_patch_areas(self) -> np.ndarray:
        """(V,) total area of the triangles incident to each vertex."""
        w = self.incidence_t @ self.triangle_areas
        w.setflags(write=False)
        return w

    @cached_property
    def vertex_weights(self) -> np.ndarray:
        """(V,) integrals of the hat functions, int phi_i = |patch_i| / 3, read-only.

        The row sums of ``mass``, up to rounding; the one formula for the
        mean constraint of the Neumann solve and the lumped mass.
        """
        w = self.vertex_patch_areas / 3.0
        w.setflags(write=False)
        return w

    @cached_property
    def _corner_indptr(self) -> np.ndarray:
        """(T+1,) int32 row pointer of a (T, *) matrix with 3 entries per row."""
        ptr = np.arange(0, 3 * self.num_triangles + 1, 3, dtype=np.int32)
        ptr.setflags(write=False)
        return ptr

    @cached_property
    def assembly_plan(self) -> AssemblyPlan:
        """Scatter plan of the global matrices; see ``AssemblyPlan``."""
        t = self.triangles.astype(np.int64)
        v = self.num_vertices
        keys = (np.repeat(t, 3, axis=1) * v + np.tile(t, 3)).ravel()  # row * V + column
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new = np.ones(keys.size, dtype=bool)
        new[1:] = sorted_keys[1:] != sorted_keys[:-1]
        slot = np.empty(keys.size, dtype=np.int32)
        slot[order] = np.cumsum(new) - 1
        distinct = sorted_keys[new]
        indptr = np.searchsorted(distinct, np.arange(v + 1) * v).astype(np.int32)
        plan = AssemblyPlan(slot, indptr, (distinct % v).astype(np.int32))
        for arr in plan:
            arr.setflags(write=False)
        return plan

    def scatter(self, local: np.ndarray) -> sparse.csr_matrix:
        """(V, V) CSR sum of the (T, 3, 3) local blocks over the ``assembly_plan``.

        Each entry sums its element contributions in element order; shares the plan's index arrays.
        """
        plan = self.assembly_plan
        data = np.bincount(plan.slot, weights=local.ravel(), minlength=plan.indices.size)
        v = self.num_vertices
        matrix = sparse.csr_matrix((data, plan.indices, plan.indptr), shape=(v, v))
        matrix.has_canonical_format = True
        return matrix

    @cached_property
    def mass(self) -> sparse.csr_matrix:
        """(V, V) mass matrix M_ij = int phi_i phi_j (exact for P1 x P1), read-only.

        The Gram matrix of the data space and of the L2 domain product.
        """
        m = self.scatter(self.triangle_areas[:, None, None] * MASS_BASE)
        m.data.setflags(write=False)
        return m

    def corner_matrix_t(self, corner_values: np.ndarray) -> sparse.csc_matrix:
        """(V, T) matrix with entry (triangles[t, c], t) = corner_values[t, c].

        Stored as CSC in local (t, c) order: a product with a triangle
        vector scatters in that order, like ``np.bincount`` over
        ``triangles.ravel()``, and a product of its transpose (a CSR view)
        with a vertex vector sums each triangle over c = 0, 1, 2 in turn.
        """
        return sparse.csc_matrix(
            (np.ravel(corner_values), self.triangles.ravel(), self._corner_indptr),
            shape=(self.num_vertices, self.num_triangles),
        )

    @cached_property
    def incidence_t(self) -> sparse.csc_matrix:
        """(V, T) vertex-triangle incidence E^T: scatters triangle values."""
        return self.corner_matrix_t(np.ones(3 * self.num_triangles))

    @cached_property
    def incidence(self) -> sparse.csr_matrix:
        """(T, V) incidence E, a CSR view of ``incidence_t``: sums over corners."""
        return self.incidence_t.T

    @cached_property
    def gradient_operator(self) -> sparse.csr_matrix:
        """(2T, V) map from nodal values to the flattened (T, 2) P1 gradients.

        Its data array is the storage of ``hat_gradients``, not a copy;
        row (t, d) sums over the corners c in order.
        """
        t = self.num_triangles
        return sparse.csr_matrix(
            (
                self.hat_gradients.transpose(0, 2, 1).ravel(),
                np.repeat(self.triangles, 2, axis=0).ravel(),
                np.arange(0, 6 * t + 1, 3, dtype=np.int32),
            ),
            shape=(2 * t, self.num_vertices),
        )

    @cached_property
    def _centroid_tree(self):
        """``cKDTree`` of the (T, 2) triangle centroids: the candidates of ``locate_points``."""
        from scipy.spatial import cKDTree

        return cKDTree(self.vertices[self.triangles].mean(axis=1))

    def edge_count(self) -> int:
        """Number of distinct edges (for Euler characteristic checks)."""
        t = self.triangles.astype(np.int64)
        a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
        b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
        keys = np.sort(np.minimum(a, b) * self.num_vertices + np.maximum(a, b))
        return int(np.count_nonzero(keys[1:] != keys[:-1])) + int(keys.size > 0)

    def min_angle_deg(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        a = np.roll(p, -1, axis=1) - p  # (T, 3, 2): corner c to corner c + 1
        b = np.roll(p, -2, axis=1) - p  # corner c to corner c + 2
        norms = np.linalg.norm(a, axis=2) * np.linalg.norm(b, axis=2)
        cosang = np.einsum("tcd,tcd->tc", a, b) / norms
        return float(np.min(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))))


def rowwise(op: sparse.spmatrix, values: np.ndarray) -> np.ndarray:
    """``op`` applied to one vector (n,) or to each row of an (M, n) stack.

    A stack takes one sparse product with M columns, which sums each
    entry in the same order as the product with that row alone. The
    result is C-contiguous.
    """
    return np.ascontiguousarray((op @ values.T).T)


def _ring_layout(target_vertex_count: int) -> list[int]:
    """Per-ring vertex counts whose total is close to the target.

    Ring k (radius k/n) gets about c*k vertices with c chosen to hit the
    target; c near 2*pi keeps triangles close to equilateral. The outer
    ring count is rounded to a multiple of 4 when that stays within the
    +-20% budget, so that the quarter/half/three-quarter arcs start and
    end exactly on boundary vertices.
    """
    n = max(1, round((-1.0 + math.sqrt(1.0 + 4.0 * (target_vertex_count - 1) / math.pi)) / 2.0))
    c = 2.0 * (target_vertex_count - 1) / (n * (n + 1))
    counts = [max(3, round(c * k)) for k in range(1, n + 1)]
    rounded = counts.copy()
    rounded[-1] = max(4, 4 * round(counts[-1] / 4))
    if abs(1 + sum(rounded) - target_vertex_count) <= 0.2 * target_vertex_count:
        return rounded
    return counts


def _strip_triangles(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Triangulate the annulus strip between two vertex rings.

    Both rings are ordered by angle starting at theta = 0. Outer vertex
    j + 1 sits at angle key (j + 1) * len(inner) and inner vertex i + 1
    at (i + 1) * len(outer) (exact integers); the keys are merged in
    increasing order, ties to the outer ring. A step past an outer
    vertex adds (inner[i], outer[j], outer[j + 1]), a step past an inner
    one (inner[i], outer[j], inner[i + 1]), where i and j count the
    earlier steps of each kind. Returns the (len(inner) + len(outer), 3)
    CCW triangles.
    """
    mi, mo = len(inner), len(outer)
    keys = np.concatenate([np.arange(1, mo + 1) * mi, np.arange(1, mi + 1) * mo])
    is_outer = np.argsort(keys, kind="stable") < mo
    j = np.cumsum(is_outer) - is_outer
    i = np.arange(mi + mo) - j
    third = np.where(is_outer, outer[(j + 1) % mo], inner[(i + 1) % mi])
    return np.column_stack([inner[i % mi], outer[j % mo], third])


def generate_disk_mesh(target_vertex_count: int) -> Mesh:
    """Generate a deterministic unit-disk triangulation.

    Parameters
    ----------
    target_vertex_count : int
        Requested vertex count (>= 4); the result is within +-20%.

    Returns
    -------
    Mesh
        Validated mesh: positive CCW areas, conforming connectivity,
        Euler characteristic 1, minimum angle above ``MIN_ANGLE_DEG``,
        boundary vertices placed exactly on the unit circle.
    """
    if target_vertex_count < 4:
        raise ValueError(
            f"target_vertex_count must be >= 4, got {target_vertex_count}"
        )
    counts = _ring_layout(target_vertex_count)
    n_rings = len(counts)

    rings = [np.zeros((1, 2))]
    ring_indices: list[np.ndarray] = []
    start = 1
    for k, m in enumerate(counts, start=1):
        r = k / n_rings
        theta = TWO_PI * np.arange(m) / m
        rings.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        ring_indices.append(np.arange(start, start + m))
        start += m

    first = ring_indices[0]
    fan = np.column_stack([np.zeros_like(first), first, np.roll(first, -1)])
    strips = [_strip_triangles(ring_indices[k - 1], ring_indices[k]) for k in range(1, n_rings)]

    last = ring_indices[-1]
    mb = len(last)
    boundary_edges = np.column_stack([last, np.roll(last, -1)])
    # midpoint angle of edge (i, i+1) on an equally spaced ring
    mid_angles = (TWO_PI * (np.arange(mb) + 0.5) / mb) % TWO_PI

    mesh = Mesh(np.concatenate(rings), np.concatenate([fan, *strips]), boundary_edges, mid_angles)
    _validate(mesh)
    return mesh


def _validate(mesh: Mesh) -> None:
    if np.any(mesh.triangle_areas <= 0.0):
        raise AssertionError("mesh contains non-CCW or degenerate triangles")
    v, e, t = mesh.num_vertices, mesh.edge_count(), mesh.num_triangles
    if v - e + t != 1:
        raise AssertionError(f"Euler characteristic {v - e + t} != 1")
    min_angle = mesh.min_angle_deg()
    if min_angle <= MIN_ANGLE_DEG:
        raise AssertionError(
            f"mesh quality floor violated: min angle {min_angle:.2f} deg"
        )
    bverts = np.unique(mesh.boundary_edges)
    radii = np.linalg.norm(mesh.vertices[bverts], axis=1)
    if np.max(np.abs(radii - 1.0)) > 1e-12:
        raise AssertionError("boundary vertices not on the unit circle")


def accessible_boundary_edges(mesh: Mesh, arc: BoundaryArc) -> np.ndarray:
    """Indices of boundary edges whose midpoint angle lies in [0, alpha].

    An arc that holds none, so that every current on it would be zero,
    raises ``ValueError`` naming the angle of the first edge midpoint.
    """
    idx = np.flatnonzero(mesh.boundary_edge_angles <= arc.alpha)
    if not idx.size:
        raise ValueError(
            f"the arc alpha = {arc.alpha!r} holds no boundary edge of the mesh: its first "
            f"edge midpoint lies at angle {float(mesh.boundary_edge_angles.min())!r}"
        )
    return idx


def locate_points(mesh: Mesh, points: np.ndarray):
    """Find the containing triangle and barycentric weights of each point.

    Every point of the closed unit disk is located, in the nearest of its
    candidates (the mesh's cached centroid KD-tree) that holds it. A point
    between the circle and a boundary chord of length L lies outside the
    mesh polygon, by at most the sagitta 1 - sqrt(1 - L^2/4) <= L^2/4, so
    a missed point is shrunk toward the origin by L^2/4 of the longest
    chord and tried again. A point that no triangle holds even then, or
    that is not finite, raises ``ValueError`` naming how many points
    missed and the first.

    Returns
    -------
    tri_idx : (N,) int array
        Containing triangle per point.
    bary : (N, 3) float array
        Barycentric weights of the point in that triangle.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    tri_idx = np.full(n, -1, dtype=np.int64)
    bary = np.zeros((n, 3))

    def try_assign(pts, rows, k, tol):
        cand = mesh._centroid_tree.query(pts, k=k)[1].reshape(len(rows), k)
        corners = mesh.vertices[mesh.triangles[cand]]
        d1 = corners[:, :, 1] - corners[:, :, 0]
        d2 = corners[:, :, 2] - corners[:, :, 0]
        det = 2.0 * mesh.triangle_areas[cand]  # the cross product d1 x d2, bit for bit
        rel = pts[:, None] - corners[:, :, 0]
        l1 = (rel[..., 0] * d2[..., 1] - rel[..., 1] * d2[..., 0]) / det
        l2 = (d1[..., 0] * rel[..., 1] - d1[..., 1] * rel[..., 0]) / det
        l0 = 1.0 - l1 - l2
        ok = (l0 >= -tol) & (l1 >= -tol) & (l2 >= -tol)
        hit = np.flatnonzero(ok.any(axis=1))
        first = ok[hit].argmax(axis=1)
        tri_idx[rows[hit]] = cand[hit, first]
        bary[rows[hit]] = np.stack([l0, l1, l2], axis=-1)[hit, first]

    finite = np.isfinite(points).all(axis=1)
    try_assign(points[finite], np.flatnonzero(finite), k=min(8, mesh.num_triangles), tol=1e-12)
    miss = np.flatnonzero(tri_idx < 0)
    if miss.size:
        ends = mesh.vertices[mesh.boundary_edges]
        chords = ends[:, 1] - ends[:, 0]
        shrink = float(np.max(np.einsum("bd,bd->b", chords, chords))) / 4.0
        retry = miss[finite[miss]]
        try_assign(points[retry] * (1.0 - shrink), retry, k=min(32, mesh.num_triangles), tol=1e-9)
        miss = np.flatnonzero(tri_idx < 0)
    if miss.size:
        x, y = points[miss[0]].tolist()
        raise ValueError(
            f"{miss.size} of {n} points lie outside the unit disk, the first at ({x!r}, {y!r})"
        )
    return tri_idx, bary


def interpolate(mesh: Mesh, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate P1 nodal fields at points of the closed unit disk (barycentric).

    ``values`` is one field (V,) or an (M, V) stack of fields, one per
    row; the result is (N,) or (M, N). The points are located once, and
    each row is evaluated exactly as a single field would be. A point
    outside the disk raises ``ValueError`` (``locate_points``), as does a
    row whose length is not the mesh's vertex count.
    """
    values = np.asarray(values)
    if values.shape[-1:] != (mesh.num_vertices,):
        raise ValueError(
            f"a field on this mesh has {mesh.num_vertices} values, got shape {values.shape}"
        )
    tri_idx, bary = locate_points(mesh, points)
    corner = mesh.triangles[tri_idx]
    rows = values.reshape(-1, values.shape[-1])
    out = np.array([np.einsum("nc,nc->n", row[corner], bary) for row in rows])
    return out.reshape(values.shape[:-1] + tri_idx.shape)
