"""Delaunay triangulations, point location and hull facets.

Conventions used throughout the package:

* A point cloud is an (m, n) float64 array of m distinct points in R^n.
* Simplex vertex ids refer to rows of the owning cloud and are stored as
  sorted rows; maximal simplices are listed in lexicographic order.
* A boundary facet stores a unit normal N and offset c with N.x + c = 0
  on the facet hyperplane, oriented so that the opposite vertex of the
  adjacent simplex satisfies N.x + c < 0 (the normal points outward).
  A query x sees the facet exactly when N.x + c > 0.

A Triangulation is its arrays, made only by build_triangulation from a
cloud and its maximal simplices: the hull facets, their opposite
vertices, planes (one stacked SVD; dots by a stacked matmul, which rounds
as the 1-d product) and the inverted vertex systems all follow from
those two, so build_delaunay (after Qhull) and a model file load (from
the stored simplices) produce the same complex from the same bits.  Its
Simplex and BoundaryFacet lists are views built on each read.

Point location (locate_batch) accepts a cell when every barycentric
coordinate is at least -TAU, and the lowest cell index wins on shared
faces.  A complex with fewer than INDEX_MIN_CELLS cells tests all its
cells at once, in (Q, S, n+1) memory.  A larger one carries a CellIndex
built with it: each usable cell's bounding box, padded by a bound derived
from TAU and the cell's condition number (see _padded_boxes) so that it
holds every query the coordinate test can accept, and a uniform grid of
buckets listing, in ascending order, the cells whose boxes meet them.  A
query tests only the cells of its bucket whose box holds it, which gives
the same cell and the same coordinate bits in memory linear in the
(query, candidate) pairs.

Degenerate inputs (co-spherical point subsets) are resolved by building
the triangulation on a deterministically perturbed copy of the cloud:
point i is shifted by zeta * i * (1, ..., 1) with zeta = 1e-10 times the
cloud diameter (bounding-box diagonal).  Every quantity exposed to
callers (barycentric coordinates, normals, offsets) is computed from the
original, unperturbed coordinates.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSupport, DimensionTooSmall, SingularSimplex

# Tolerance for barycentric feasibility and clamping.
TAU = 1e-9

# Condition-number ceiling for simplex vertex systems.
COND_LIMIT = 1e12

# Two points closer than this are considered coincident.
COINCIDENCE_TOL = 1e-9

# Complexes with at least this many cells locate queries through a
# CellIndex; smaller ones test every cell.  On random 2- to 4-D clouds a
# single query through the index breaks even with the all-cells test at
# 670-750 cells and is 22-27% cheaper at about 1,050.
INDEX_MIN_CELLS = 1024


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


@dataclass(frozen=True, eq=False)
class CellIndex:
    """Uniform grid over the padded bounding boxes of the usable cells.

    bounds : (S, 2n) padded box of every cell as (-lo, hi), so that x
             lies in it exactly when (-x, x) <= bounds; a usable cell's
             coordinates pass the TAU feasibility test only for queries
             inside its box (see _padded_boxes).  Rows of flat cells are
             never read.
    origin : (n,) lower corner of the grid, the support's lower corner.
    scale  : (n,) buckets per unit length along each axis.
    top    : (n,) highest bucket coordinate along each axis.
    stride : (n,) flat bucket id of a unit step along each axis.
    start  : (B+1,) CSR offsets: bucket b holds cells[start[b]:start[b+1]].
    cells  : ids of the usable cells whose box meets each bucket, ascending
             within each bucket.
    """

    bounds: np.ndarray
    origin: np.ndarray
    scale: np.ndarray
    top: np.ndarray
    stride: np.ndarray
    start: np.ndarray
    cells: np.ndarray

    def buckets(self, xs):
        """Flat bucket id of each row of xs."""
        return _grid_coords(xs, self.origin, self.scale, self.top) @ self.stride


def _grid_coords(xs, origin, scale, top):
    """Per-axis bucket coordinates of the rows of xs, shape (Q, n).

    Monotone in every coordinate and clipped to the grid, so a point
    inside a box always falls in a bucket of that box's range, and a
    point off the grid in the nearest edge bucket.
    """
    return np.minimum(np.maximum((xs - origin) * scale, 0.0), top).astype(np.int64)


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Simplicial complex over a point cloud; made by build_triangulation.

    simplices : (S, n+1) vertex ids of the maximal simplices, rows sorted,
                in lexicographic order.
    inverses  : (S, n+1, n+1) inverses of the homogeneous vertex matrices;
                flat cells get NaN blocks.
    facets    : (F, n) vertex ids of the hull facets, in lexicographic order.
    opposite  : (F,) id of the vertex of each facet's cell off the facet.
    normals   : (F, n) outward unit normals of the facets.
    offsets   : (F,) hyperplane offsets of the facets.
    index     : CellIndex of the usable cells, or None below INDEX_MIN_CELLS.
    The complex is these arrays; maximal and boundary are views of them.
    """

    cloud: PointCloud
    simplices: np.ndarray
    inverses: np.ndarray = field(repr=False)
    facets: np.ndarray = field(repr=False)
    opposite: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    index: CellIndex = field(repr=False)

    @property
    def maximal(self):
        """The simplices as a list of Simplex, built on each read."""
        return [Simplex(tuple(row)) for row in self.simplices.tolist()]

    @property
    def boundary(self):
        """The hull facets as a list of BoundaryFacet, built on each read."""
        planes = zip(self.facets.tolist(), self.opposite.tolist(), self.normals, self.offsets.tolist())
        return [BoundaryFacet(tuple(ids), opp, nrm, c) for ids, opp, nrm, c in planes]


def as_cloud(obj):
    """obj itself when it is a PointCloud, else a PointCloud of it; the one
    coercion of a point set, which raises ValueError unless the points form
    a non-empty 2-d array of finite values."""
    return obj if isinstance(obj, PointCloud) else PointCloud(np.asarray(obj))


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


def _dots(a, b):
    """Row-wise a[i] @ b[i], rounded as the 1-d product (einsum is not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _check_simplices(simplices, m, n):
    """The simplex ids as int64, or ValueError when they are malformed."""
    simp = np.asarray(simplices)
    if simp.dtype.kind not in "iu" or simp.ndim != 2 or simp.shape[1] != n + 1 or not simp.size:
        raise ValueError(
            "simplices must be a nonempty integer array of shape (S, %d), got %s of shape %s"
            % (n + 1, simp.dtype, simp.shape)
        )
    simp = simp.astype(np.int64)
    if simp.min() < 0 or simp.max() >= m:
        raise ValueError("simplex vertex ids must lie in [0, %d)" % m)
    if not (np.diff(simp, axis=1) > 0).all():
        raise ValueError("simplex vertex ids must be sorted and distinct within each cell")
    step = np.diff(simp, axis=0)
    lead = step[np.arange(step.shape[0]), np.argmax(step != 0, axis=1)]
    if not (lead > 0).all():
        raise ValueError("simplices must be distinct and listed in lexicographic order")
    return simp


def _padded_boxes(lo, hi, sv):
    """Bounding boxes of the cells, padded to hold every query that the
    TAU feasibility test of locate_batch can accept in the cell.

    lo and hi are the (S, n) corners of the cells' vertex boxes, sv the
    (S, n+1) singular values of the homogeneous vertex matrices T.  For a query x, h = (x, 1), let lam be
    the exact coordinates T^-1 h and lam' = fl(X h) the ones the kernel
    computes with the stored inverse X.  As h = T lam,
    lam' - lam = (X T - I) lam + r with |r| <= gamma_{n+1} |X| |T| |lam|,
    and an LU-based inverse has |X T - I| <= c_n u |X| |L| |U| (Higham,
    Accuracy and Stability of Numerical Algorithms, section 14.3).  So
    max|lam' - lam| <= eps L with L = max|lam| and
    eps = 64 (n+1)^2 u kappa, kappa = sv[0] / sv[-1]; the factor 64
    covers c_n and the pivot growth with room to spare, and also the few
    ulps by which the pad below is rounded.

    A feasible query has lam'_i >= -TAU, so lam_i >= -(TAU + eps L).  The
    lam_i sum to 1, so L <= 1 + n (TAU + eps L), i.e.
    L <= (1 + n TAU) / (1 - n eps), and every lam_i >= -delta with
    delta = TAU + eps L.  Along axis d, x_d - min_i v_id is
    sum_i lam_i (v_id - min_i v_id), which has at most n negative terms,
    each above -delta w_d (w_d the width of the cell along d); hence
    x_d >= min_i v_id - n delta w_d, and likewise
    x_d <= max_i v_id + n delta w_d.  The corners are then moved one ulp
    outward so that their own rounding cannot cut into that bound.  A
    usable cell with n eps >= 1 gets an unbounded box; flat cells, which
    the index never lists, may get NaN corners.
    """
    n = lo.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = 64 * (n + 1) ** 2 * np.finfo(np.float64).eps * (sv[:, 0] / sv[:, -1])
        bound = np.where(n * eps < 1.0, (1.0 + n * TAU) / (1.0 - n * eps), np.inf)
        pad = (n * (TAU + eps * bound))[:, None] * (hi - lo)
    return np.nextafter(lo - pad, -np.inf), np.nextafter(hi + pad, np.inf)


def _cell_index(points, simp, sv, usable):
    """The CellIndex of the usable cells of a complex.

    The grid spans the support's bounding box.  A bucket gets a third of
    the mean volume of the unpadded usable boxes (their total volume over
    three times the cell count), so a typical box spans two to three
    buckets along each axis.  Larger buckets list more cells that the
    box test then rejects; smaller ones list each cell in more buckets.
    Supports far from that typical shape (most of the bounding box empty,
    or long thin boxes) would need far more buckets or list entries, so
    the bucket side doubles until there are at most 4 buckets and 64
    list entries per cell.
    """
    n = points.shape[1]
    corners = points[simp.T]  # (n+1, S, n)
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    ids = np.flatnonzero(usable)
    side = (np.prod((hi - lo)[ids], axis=1).mean() / 3.0) ** (1.0 / n)
    lo, hi = _padded_boxes(lo, hi, sv)
    origin = points.min(axis=0)
    span = points.max(axis=0) - origin
    while True:
        shape = np.maximum(np.ceil(span / side), 1.0)
        scale, top = shape / span, shape - 1
        first = _grid_coords(lo[ids], origin, scale, top)
        extent = _grid_coords(hi[ids], origin, scale, top) - first + 1
        count = extent.prod(axis=1)
        if np.prod(shape) <= 4 * ids.size and count.sum() <= 64 * ids.size:
            break
        side *= 2.0
    stride = np.cumprod(np.concatenate([[1], shape[:-1]])).astype(np.int64)

    # Every (cell, bucket) pair of each box's bucket range, sorted by
    # bucket and then by cell through the unique key bucket * S + cell.
    rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    key = np.zeros_like(rank)
    for d in range(n):
        along = np.repeat(extent[:, d], count)
        key += (np.repeat(first[:, d], count) + rank % along) * stride[d]
        rank //= along
    cells_total = simp.shape[0]
    key = np.sort(key * cells_total + np.repeat(ids, count))
    start = np.zeros(int(np.prod(shape)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // cells_total, minlength=start.size - 1), out=start[1:])
    cells = key % cells_total
    bounds = np.concatenate([-lo, hi], axis=1)
    for arr in (bounds, origin, scale, top, stride, start, cells):
        arr.setflags(write=False)
    return CellIndex(bounds, origin, scale, top, stride, start, cells)


def build_triangulation(cloud, simplices):
    """The complex of the given maximal simplices over a point cloud.

    The only constructor of a Triangulation.  simplices is an (S, n+1)
    integer array of ids in [0, m), each row strictly increasing and the
    rows in strictly increasing lexicographic order; ValueError otherwise.
    A face shared by two cells is interior and a face of exactly one cell
    is a hull facet; a face of three or more raises SingularSimplex.
    Flat cells (possible when quantized points are exactly
    co-hyperplanar) are kept: they carry no interior but preserve the
    face counts.
    """
    cloud = as_cloud(cloud)
    points = cloud.points
    m, n = points.shape
    simp = _check_simplices(simplices, m, n)

    # Face d of a cell drops its vertex d, which is then the opposite
    # vertex; sorting all faces puts equal ones next to each other.
    keep = np.array([np.delete(np.arange(n + 1), d) for d in range(n + 1)])
    faces = simp[:, keep].reshape(-1, n)
    opposite = simp.reshape(-1)
    order = np.lexsort(faces.T[::-1])
    faces, opposite = faces[order], opposite[order]
    same = (faces[1:] == faces[:-1]).all(axis=1)
    triple = np.nonzero(same[1:] & same[:-1])[0]
    if triple.size:
        raise SingularSimplex(
            "face %r is shared by more than two cells" % (tuple(faces[triple[0]].tolist()),)
        )
    single = ~(np.append(same, False) | np.insert(same, 0, False))
    facets, opposite = faces[single], opposite[single]

    # Each facet's unit normal spans the null space of its edge matrix and
    # is signed so the opposite vertex lies strictly on the negative side.
    corners = points[facets]  # (F, n, n)
    normals = np.linalg.svd(corners[:, 1:] - corners[:, :1], full_matrices=True)[2][:, -1]
    offsets = -_dots(normals, corners.mean(axis=1))
    side = _dots(normals, points[opposite]) + offsets
    # A flat owning cell puts the opposite vertex on the facet plane, where
    # it cannot orient the facet; point away from the cloud centroid,
    # which lies inside the hull, instead.
    flat = np.abs(side) <= 1e-12 * np.maximum(1.0, np.abs(corners).max(axis=(1, 2)))
    centroid = np.broadcast_to(points.mean(axis=0), normals.shape)
    side = np.where(flat, _dots(normals, centroid) + offsets, side)
    sign = np.where(side > 0.0, -1.0, 1.0)
    normals, offsets = normals * sign[:, None], offsets * sign

    # Flat cells get NaN inverse blocks: their coordinates never pass a
    # feasibility test, so point location simply ignores them.
    verts = points[simp]  # (S, n+1, n)
    tmat = np.empty((verts.shape[0], n + 1, n + 1))
    tmat[:, :n, :] = np.transpose(verts, (0, 2, 1))
    tmat[:, n, :] = 1.0
    sv = np.linalg.svd(tmat, compute_uv=False)
    usable = sv[:, -1] * COND_LIMIT > sv[:, 0]
    inverses = np.full_like(tmat, np.nan)
    if usable.any():
        inverses[usable] = np.linalg.inv(tmat[usable])

    index = None
    if simp.shape[0] >= INDEX_MIN_CELLS and usable.any():
        index = _cell_index(points, simp, sv, usable)

    for arr in (simp, inverses, facets, opposite, normals, offsets):
        arr.setflags(write=False)
    return Triangulation(
        cloud=cloud,
        simplices=simp,
        inverses=inverses,
        facets=facets,
        opposite=opposite,
        normals=normals,
        offsets=offsets,
        index=index,
    )


def build_delaunay(cloud):
    """Delaunay triangulation of a full-dimensional point cloud.

    Ties between co-spherical point subsets are broken by the deterministic
    index-scaled perturbation described in the module docstring, so the
    result depends only on the input ordering.
    """
    # Imported here so that loading a model and inference need only NumPy.
    from scipy.spatial import Delaunay, cKDTree

    cloud = as_cloud(cloud)
    points = cloud.points
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
    simp = simp[np.lexsort(simp.T[::-1])]
    return build_triangulation(cloud, simp)


def clamp_coords(coords):
    """Zero out entries below TAU in magnitude and renormalize to sum 1:
    one coordinate vector, or each row of an array of them.  A row sums
    as the vector alone does, so the two give the same bits."""
    out = np.where(np.abs(coords) < TAU, 0.0, coords)
    total = out.sum(axis=-1, keepdims=True)
    if total.min(initial=1.0) <= 0.0:
        raise SingularSimplex(
            "cannot renormalize barycentric coordinates summing to %g" % total.min()
        )
    return out / total


def locate_batch(tri, xs):
    """Containing simplex of each query row, and its raw coordinates.

    The only point-location kernel.  Containment allows a slack of TAU on
    every coordinate; when a query lies on a shared face the simplex with
    the lowest index wins.  Returns (index, coords): index[q] is the
    containing simplex of row q, or -1 outside the hull, and coords[q]
    its n+1 unclamped coordinates (meaningless where index[q] is -1).

    A complex with a CellIndex tests only the cells whose padded box holds
    the query, among those listed for its bucket; a smaller one tests all
    its cells.  Both give the same index and the same coordinate bits.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if tri.index is not None:
        return _locate_indexed(tri, xs)
    h = np.concatenate([xs, np.ones((xs.shape[0], 1))], axis=1)
    bary = np.einsum("sij,qj->qsi", tri.inverses, h)
    feasible = (bary >= -TAU).all(axis=2)
    first = np.argmax(feasible, axis=1).tolist()
    index = [s if feasible[q, s] else -1 for q, s in enumerate(first)]
    return index, [bary[q, s] for q, s in enumerate(first)]


def _locate_indexed(tri, xs):
    """locate_batch through the CellIndex, in memory linear in the number
    of (query, candidate cell) pairs."""
    grid = tri.index
    rows, n = xs.shape
    bucket = grid.buckets(xs)
    first, stop = grid.start[bucket], grid.start[bucket + 1]
    # Pair p joins query qs[p] with cell cand[p]; a query's pairs follow
    # its bucket's list, so its cells stay in ascending order.
    qs = np.repeat(np.arange(rows), stop - first)
    cand = np.concatenate(
        [grid.cells[:0]] + [grid.cells[a:b] for a, b in zip(first.tolist(), stop.tolist())]
    )
    inside = (np.concatenate([-xs, xs], axis=1)[qs] <= grid.bounds[cand]).all(axis=1)
    qs, cand = qs[inside], cand[inside]
    h = np.empty((rows, n + 1))
    h[:, :n] = xs
    h[:, n] = 1.0
    coords = np.einsum("pij,pj->pi", tri.inverses[cand], h[qs])
    hit = np.flatnonzero((coords >= -TAU).all(axis=1))
    index = [-1] * rows
    pick = [0] * rows
    # Walk the feasible pairs backwards, so each query keeps its first one:
    # the lowest cell, as its bucket lists them in ascending order.
    for p, q, s in zip(hit[::-1].tolist(), qs[hit[::-1]].tolist(), cand[hit[::-1]].tolist()):
        index[q], pick[q] = s, p
    return index, coords[pick] if coords.size else np.zeros((rows, n + 1))


def locate(tri, x):
    """The containing maximal simplex of x and its clamped, renormalized
    barycentric coordinates, or None when x is outside the hull.

    One row of locate_batch.
    """
    (index,), coords = locate_batch(tri, np.asarray(x, dtype=np.float64)[None])
    if index < 0:
        return None
    return Simplex(tuple(tri.simplices[index].tolist())), clamp_coords(coords[0])


def visible_facet_indices(tri, x):
    """Ascending positions in tri.facets of the facets with N.x + c > 0."""
    return np.nonzero(tri.normals @ x + tri.offsets > 0.0)[0]
