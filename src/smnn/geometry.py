"""Delaunay triangulations, barycentric coordinates and boundary facets.

Conventions used throughout the package:

* A point cloud is an (m, n) float64 array of m distinct points in R^n.
* Simplex vertex ids refer to rows of the owning cloud and are stored as
  sorted tuples; maximal simplices are listed in lexicographic order.
* A boundary facet stores a unit normal N and offset c with N.x + c = 0
  on the facet hyperplane, oriented so that the opposite vertex of the
  adjacent simplex satisfies N.x + c < 0 (the normal points outward).
  A query x sees the facet exactly when N.x + c > 0.

Degenerate inputs (co-spherical point subsets) are resolved by building
the triangulation on a deterministically perturbed copy of the cloud:
point i is shifted by zeta * i * (1, ..., 1) with zeta = 1e-10 times the
cloud diameter (bounding-box diagonal).  Every quantity exposed to
callers (barycentric coordinates, normals, offsets, circumspheres) is
computed from the original, unperturbed coordinates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSupport,
    DimensionTooSmall,
    NoVisibleFacet,
    SingularSimplex,
)

# Tolerance for barycentric feasibility and clamping.
TAU = 1e-9

# Condition-number ceiling for simplex vertex systems.
COND_LIMIT = 1e12

# Two points closer than this are considered coincident.
COINCIDENCE_TOL = 1e-9


@dataclass
class PointCloud:
    """Immutable set of m points in R^n.

    points : (m, n) float64 array, all entries finite.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim != 2:
            raise ValueError("point cloud must be a 2-d array, got shape %s" % (pts.shape,))
        if pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("point cloud must contain at least one point and one coordinate")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class Simplex:
    """Maximal cell of a triangulation, referenced by sorted vertex ids."""

    vertex_ids: tuple

    def __post_init__(self):
        ids = tuple(int(i) for i in self.vertex_ids)
        if list(ids) != sorted(set(ids)):
            raise ValueError("vertex ids must be sorted and distinct: %r" % (ids,))
        object.__setattr__(self, "vertex_ids", ids)

    def __len__(self):
        return len(self.vertex_ids)


@dataclass(frozen=True)
class BoundaryFacet:
    """Hull facet with outward unit normal and hyperplane offset.

    facet_ids   : sorted tuple of the n vertex ids spanning the facet.
    opposite_id : id of the remaining vertex of the adjacent simplex.
    normal      : unit vector N with N.x + offset < 0 at the opposite vertex.
    offset      : scalar c with N.u + c = 0 for every facet vertex u.
    """

    facet_ids: tuple
    opposite_id: int
    normal: np.ndarray
    offset: float

    def side(self, x):
        """Signed distance N.x + c; positive means x sees this facet."""
        return float(self.normal @ np.asarray(x, dtype=np.float64) + self.offset)


@dataclass
class Barycentric:
    """Barycentric coordinates of one query point w.r.t. one simplex."""

    simplex: Simplex
    coords: np.ndarray


@dataclass
class Triangulation:
    """Delaunay triangulation of a point cloud.

    maximal  : maximal simplices in lexicographic vertex-id order.
    boundary : hull facets in lexicographic facet-id order.
    """

    cloud: PointCloud
    maximal: list
    boundary: list
    _simplex_array: np.ndarray = field(repr=False, default=None)
    _tmat_inv: np.ndarray = field(repr=False, default=None)
    _facet_arrays: tuple = field(repr=False, default=None)

    def __post_init__(self):
        if self._simplex_array is None:
            arr = np.array([s.vertex_ids for s in self.maximal], dtype=np.int64)
            self._simplex_array = arr

    def _inverse_systems(self):
        """Stacked inverses of the homogeneous vertex matrices, cached.

        Flat cells (quantized input data can force exactly co-hyperplanar
        vertex sets) get NaN blocks: their coordinates never pass a
        feasibility test, so point location simply ignores them while the
        complex keeps its face bookkeeping intact.
        """
        if self._tmat_inv is None:
            pts = self.cloud.points
            n = self.cloud.dim
            verts = pts[self._simplex_array]  # (S, n+1, n)
            tmat = np.empty((verts.shape[0], n + 1, n + 1))
            tmat[:, :n, :] = np.transpose(verts, (0, 2, 1))
            tmat[:, n, :] = 1.0
            sv = np.linalg.svd(tmat, compute_uv=False)
            usable = sv[:, -1] * COND_LIMIT > sv[:, 0]
            inv = np.full_like(tmat, np.nan)
            if usable.any():
                inv[usable] = np.linalg.inv(tmat[usable])
            self._tmat_inv = inv
        return self._tmat_inv

    def boundary_arrays(self):
        """Stacked facet vertex ids (F, n), unit normals (F, n), offsets (F,), cached."""
        if self._facet_arrays is None:
            n = self.cloud.dim
            self._facet_arrays = (
                np.array([f.facet_ids for f in self.boundary], dtype=np.int64).reshape(-1, n),
                np.array([f.normal for f in self.boundary], dtype=np.float64).reshape(-1, n),
                np.array([f.offset for f in self.boundary], dtype=np.float64),
            )
        return self._facet_arrays

    def barycentric_batch(self, xs):
        """Raw coordinates for a batch of queries, shape (Q, S, n+1)."""
        xs = np.asarray(xs, dtype=np.float64)
        h = np.concatenate([xs, np.ones((xs.shape[0], 1))], axis=1)
        return np.einsum("sij,qj->qsi", self._inverse_systems(), h)


def _as_points(obj):
    if isinstance(obj, PointCloud):
        return obj.points
    return PointCloud(np.asarray(obj)).points


def _cloud_diameter(points):
    """Bounding-box diagonal, a constant-factor proxy for the true diameter."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.linalg.norm(span))


def _degeneracy_shift(points):
    """Deterministic index-scaled shift that breaks co-spherical ties."""
    zeta = 1e-10 * _cloud_diameter(points)
    if zeta == 0.0:
        zeta = 1e-10
    idx = np.arange(points.shape[0], dtype=np.float64)
    return zeta * idx[:, None] * np.ones((1, points.shape[1]))


def simplex_volume_normalized(vertices):
    """Volume of the simplex after scaling its edge matrix to unit size.

    Zero for affinely dependent vertices; used to reject degenerate cells.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    edges = verts[1:] - verts[0]
    scale = np.abs(edges).max()
    if scale == 0.0:
        return 0.0
    n = edges.shape[0]
    det = np.linalg.det(edges / scale)
    return abs(det) / math.factorial(n)


def _facet_plane(points, facet_ids, opposite_id):
    """Outward unit normal and offset of a hull facet.

    The normal spans the null space of the facet edge matrix; its sign is
    fixed so the opposite vertex lies strictly on the negative side.
    """
    verts = points[list(facet_ids)]
    diffs = verts[1:] - verts[0]
    _, sing, vt = np.linalg.svd(diffs, full_matrices=True)
    normal = vt[-1]
    offset = -float(normal @ verts.mean(axis=0))
    side_opp = float(normal @ points[opposite_id] + offset)
    if abs(side_opp) <= 1e-12 * max(1.0, float(np.abs(verts).max())):
        # The owning cell is flat, so the opposite vertex sits on the
        # facet plane and cannot orient it; point away from the cloud
        # centroid instead, which lies inside the hull.
        side_opp = float(normal @ points.mean(axis=0) + offset)
    if side_opp > 0.0:
        normal, offset = -normal, -offset
    return normal, offset


def build_delaunay(cloud):
    """Delaunay triangulation of a full-dimensional point cloud.

    Ties between co-spherical point subsets are broken by the deterministic
    index-scaled perturbation described in the module docstring, so the
    result depends only on the input ordering.
    """
    # Imported here so that loading a model and inference need only NumPy.
    from scipy.spatial import Delaunay, cKDTree

    points = _as_points(cloud)
    m, n = points.shape
    if m < n + 1:
        raise DimensionTooSmall(
            "need at least %d points for a %d-dimensional triangulation, got %d"
            % (n + 1, n, m)
        )
    pairs = cKDTree(points).query_pairs(r=COINCIDENCE_TOL)
    if pairs:
        i, j = sorted(pairs)[0]
        raise ValueError(
            "points %d and %d coincide within %g" % (i, j, COINCIDENCE_TOL)
        )
    centered = points - points.mean(axis=0)
    rank = np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, _cloud_diameter(points)))
    if rank < n:
        raise DegenerateSupport(
            "points span an affine subspace of dimension %d < %d" % (rank, n)
        )

    qhull = Delaunay(points + _degeneracy_shift(points))
    if qhull.coplanar.size:
        raise ValueError(
            "triangulation dropped input points %s" % qhull.coplanar[:, 0].tolist()
        )

    simp = np.sort(qhull.simplices.astype(np.int64), axis=1)
    order = np.lexsort(simp.T[::-1])
    simp = simp[order]

    # A face shared by two cells is interior; a face of exactly one cell
    # lies on the hull and becomes a boundary facet.  Flat cells (possible
    # when quantized points are exactly co-hyperplanar) are kept: they
    # carry no interior but preserve the face counts.
    face_count = {}
    face_opposite = {}
    for row in simp:
        for drop in range(n + 1):
            face = tuple(np.delete(row, drop))
            face_count[face] = face_count.get(face, 0) + 1
            face_opposite[face] = int(row[drop])
    bad = [f for f, c in face_count.items() if c > 2]
    if bad:
        raise SingularSimplex("face %r is shared by more than two cells" % (bad[0],))

    boundary = []
    for face in sorted(f for f, c in face_count.items() if c == 1):
        normal, offset = _facet_plane(points, face, face_opposite[face])
        boundary.append(
            BoundaryFacet(
                facet_ids=tuple(int(i) for i in face),
                opposite_id=face_opposite[face],
                normal=normal,
                offset=offset,
            )
        )

    maximal = [Simplex(tuple(int(i) for i in row)) for row in simp]
    tri = Triangulation(
        cloud=cloud if isinstance(cloud, PointCloud) else PointCloud(points),
        maximal=maximal,
        boundary=boundary,
        _simplex_array=simp,
    )
    return tri


def barycentric_solve(vertices, x):
    """Solve for the barycentric coordinates of x in one simplex.

    Coordinates may be negative; callers clamp after containment testing.
    Raises SingularSimplex when the vertex system is ill conditioned.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    n_plus_1, n = verts.shape
    if n_plus_1 != n + 1:
        raise ValueError("expected n+1 vertices of dimension n, got shape %s" % (verts.shape,))
    tmat = np.vstack([verts.T, np.ones(n + 1)])
    if np.linalg.cond(tmat) > COND_LIMIT:
        raise SingularSimplex("vertex system condition number exceeds %g" % COND_LIMIT)
    h = np.append(np.asarray(x, dtype=np.float64), 1.0)
    coords = np.linalg.solve(tmat, h)
    return coords


def clamp_coords(coords, tol=TAU):
    """Zero out entries below tol in magnitude and renormalize to sum 1."""
    out = np.where(np.abs(coords) < tol, 0.0, coords)
    total = out.sum()
    if total <= 0.0:
        raise SingularSimplex("cannot renormalize barycentric coordinates summing to %g" % total)
    return out / total


def locate_batch(tri, xs):
    """Containing simplex of each query row, and the raw coordinates.

    The only point-location kernel.  Containment allows a slack of TAU on
    every coordinate; when a query lies on a shared face the simplex with
    the lowest index wins.  Returns (index, bary): index[q] is the
    containing simplex of row q, or -1 outside the hull, and
    bary[q, index[q]] holds its unclamped coordinates.
    """
    bary = tri.barycentric_batch(xs)
    feasible = (bary >= -TAU).all(axis=2)
    first = np.argmax(feasible, axis=1).tolist()
    return [s if feasible[q, s] else -1 for q, s in enumerate(first)], bary


def locate(tri, x):
    """Find the containing maximal simplex of x, or None when x is outside.

    One row of locate_batch; the returned coordinates are clamped and
    renormalized.
    """
    (index,), bary = locate_batch(tri, np.asarray(x, dtype=np.float64)[None])
    if index < 0:
        return None
    simplex = tri.maximal[index]
    return simplex, Barycentric(simplex, clamp_coords(bary[0, index]))


def visible_facet_indices(tri, x):
    """Ascending positions in tri.boundary of the facets with N.x + c > 0."""
    _, normals, offsets = tri.boundary_arrays()
    return np.nonzero(normals @ x + offsets > 0.0)[0]


def visible_boundary_facets(tri, x):
    """Hull facets separating the exterior point x from the hull interior."""
    x = np.asarray(x, dtype=np.float64)
    visible = visible_facet_indices(tri, x)
    if not visible.size:
        raise NoVisibleFacet("no boundary facet is visible from %s" % (x.tolist(),))
    return [tri.boundary[i] for i in visible]


def circumsphere(vertices):
    """Circumcenter and squared radius of a full-dimensional simplex.

    Solves the linear system equating squared distances to all vertices.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    n = verts.shape[1]
    if verts.shape[0] != n + 1:
        raise ValueError("expected n+1 vertices, got shape %s" % (verts.shape,))
    amat = 2.0 * (verts[1:] - verts[0])
    if np.linalg.cond(amat) > COND_LIMIT:
        raise SingularSimplex("circumsphere system condition number exceeds %g" % COND_LIMIT)
    rhs = np.einsum("ij,ij->i", verts[1:], verts[1:]) - verts[0] @ verts[0]
    center = np.linalg.solve(amat, rhs)
    radius_sq = float(np.sum((verts[0] - center) ** 2))
    return center, radius_sq


def circumsphere_contains(vertices, q, tol=1e-7):
    """True when q lies strictly inside the circumsphere of the simplex.

    The comparison is relative: containment requires the squared distance
    to fall below (1 - tol) times the squared circumradius.
    """
    center, radius_sq = circumsphere(vertices)
    dist_sq = float(np.sum((np.asarray(q, dtype=np.float64) - center) ** 2))
    return dist_sq < radius_sq * (1.0 - tol)
