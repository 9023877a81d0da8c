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
cloud and its maximal simplices, so build_delaunay (after Qhull) and a
model file load produce the same complex from the same bits.  Its slack,
how far the stored facet planes miss a convex hull, bounds the rounding
band of the exterior embedding route, and its reach (_reach) is a norm
that no query a cell accepts exceeds.

Point location (locate_batch) accepts a cell when every barycentric
coordinate is at least -TAU, and the lowest cell index wins on shared
faces.  Each call picks its search (Triangulation.search): while its
rows times cells stay below INDEX_MIN_CELLS, so for one row on a
complex of fewer cells, it tests all the cells at once; from there on
it pairs each query with candidate cells in ascending order through the
complex's locator, which every complex of LOCATOR_MIN_CELLS cells or
more carries: a CellIndex of padded cell boxes below SCREEN_MIN_DIM
dimensions and a LiftScreen of lifted cell planes from there on.  Every
search gives the same cell and coordinate bits.

Degenerate inputs (co-spherical point subsets) are resolved by building
the triangulation on a deterministically perturbed copy of the cloud:
point i is shifted by zeta * i * (1, ..., 1) with zeta = 1e-10 times the
cloud diameter (bounding-box diagonal).  Every quantity exposed to
callers (barycentric coordinates, normals, offsets) is computed from the
original, unperturbed coordinates.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSupport, DimensionMismatch, DimensionTooSmall, SingularSimplex, finite, indices, real

# Tolerance for barycentric feasibility and clamping.
TAU = 1e-9

# A cell is usable when the proven bound on the condition number of its
# vertex system (_condition) lies below this.
COND_LIMIT = 1e12

# Two points closer than this are considered coincident.
COINCIDENCE_TOL = 1e-9

# A locate_batch call of at least this many rows times cells searches
# through the complex's locator, and a smaller one tests every cell at
# once; so one row takes the locator from this many cells on.  On random
# 2- and 3-D clouds a single query through the index breaks even with
# the all-cells test at about 850-1,050 cells and is 13-28% cheaper at
# about 1,250; in 4-D the screen breaks even at about 540.  In batches
# (scripts/sweep.py locate, three runs with one BLAS thread) the index
# breaks even between 8 and 32 rows a call on the 169 cells of spiral
# support 95: 8 rows cost 1.05-1.09 times as much through it as through
# every cell, 32 rows about half, and a 512-row call 0.79-0.88 us a row
# against 3.6-3.9 us.
INDEX_MIN_CELLS = 1024

# Complexes of at least this many cells carry a locator; smaller ones
# test every cell in every call.  In the same sweep, on 18 cells a 512-row
# call costs 1.03-1.04 times as much through the index as through every
# cell, and a 100-row call 1.36-1.38 times; on 35 cells a 512-row call
# costs 0.70-0.73 times as much, and a 32-row call, just past the cut,
# 1.34-1.35 times.
LOCATOR_MIN_CELLS = 32

# A locator in this many dimensions or more is a LiftScreen, in fewer a
# CellIndex.  In the same sweep a 512-row call costs 3.2-3.7 us a row
# through the index against 12-17 us through the screen on the 6,239
# cells of clusters support 1,000 (3-D), but 23-27 us against 5.4-6.1 us
# on the 1,795 of Iris (4-D); on the small 2-D spiral complexes the screen
# costs 17-49% less from 8 rows a call (README).  Earlier, unpinned runs
# on random complexes of 900 to 3,000 cells read 0.9 us a row through
# the index in 2-D and 2.1-2.4 us in 3-D against 7-14 us through the
# screen, 8-14 against 6-13 us in 4-D and 63-96 against 10-14 us in 5-D;
# one row cost 33-60 us through either, the screen the cheaper from 5-D.
SCREEN_MIN_DIM = 4


@dataclass
class PointCloud:
    """Immutable set of m points in R^n.

    points : (m, n) float64 array, all entries finite.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = finite(self.points, "point cloud").copy(order="K")
        if pts.ndim != 2:
            raise ValueError("point cloud must be a 2-d array, got shape %s" % (pts.shape,))
        if pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("point cloud must contain at least one point and one coordinate")
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

    kind = "index"

    def buckets(self, xs):
        """Flat bucket id of each row of xs."""
        return _grid_coords(xs, self.origin, self.scale, self.top) @ self.stride

    def pairs(self, h):
        """(query, cell) candidate pairs of the homogeneous queries h: the
        cells of each query's bucket whose padded box holds it.  A query's
        pairs follow its bucket's list, so its cells stay in ascending
        order."""
        xs = h[:, :-1]
        bucket = self.buckets(xs)
        first, stop = self.start[bucket], self.start[bucket + 1]
        qs = np.repeat(np.arange(h.shape[0]), stop - first)
        cand = np.concatenate(
            [self.cells[:0]] + [self.cells[a:b] for a, b in zip(first.tolist(), stop.tolist())]
        )
        both = np.concatenate([-xs, xs], axis=1)
        inside = _passes(np.take(both, qs, axis=0) <= np.take(self.bounds, cand, axis=0))
        return qs[inside], cand[inside]


@dataclass(frozen=True, eq=False)
class LiftScreen:
    """The cells of a complex as planes under the lifted support points.

    planes : (n+1, 2S) two columns per cell s, so that (x, 1) @ planes
             gives lo_s in column s and hi_s in column S + s: the plane
             l_s that interpolates |u|^2 over the cell's vertices u,
             lowered by the cell's drop and raised by its pad (see
             _lift_screen); a pad is inf where the cell's coordinate
             slack is.  A flat cell's columns are (0, ..., 0, -inf), so
             it never raises the bar and is never kept.
    slop   : bound on the rounding of the product and of the bar, per
             unit of max(1, |x|_inf).
    """

    planes: np.ndarray
    slop: float

    kind = "lift"

    def pairs(self, h):
        """(query, cell) candidate pairs of the homogeneous queries h: the
        cells whose hi reaches the bar, the largest lo less the slop, in
        blocks of about 2**18 (query, column) values.  The flat indices
        of a block's mask list each query's cells in ascending order."""
        cells = self.planes.shape[1] // 2
        span = np.abs(h).max(axis=1)
        # A row with an infinite coordinate would meet inf - inf in the
        # product and the bar; as a NaN row it quietly reaches no cell.  A
        # Python sum is the cheapest finiteness test of a one-row batch.
        if not sum(span.tolist()) < np.inf:
            h = np.where((span < np.inf)[:, None], h, np.nan)
        slop = span * self.slop
        step = max(1, (1 << 17) // cells)
        none = np.zeros(0, dtype=np.intp)
        qs, cand = [none], [none]
        for a in range(0, h.shape[0], step):
            both = h[a : a + step] @ self.planes
            bar = both[:, :cells].max(axis=1) - slop[a : a + step]
            q, s = np.divmod(np.flatnonzero(both[:, cells:] >= bar[:, None]), cells)
            qs.append(q + a)
            cand.append(s)
        # One block (or none), the usual case, needs no concatenation.
        return (np.concatenate(qs), np.concatenate(cand)) if len(qs) > 2 else (qs[-1], cand[-1])


def _grid_coords(xs, origin, scale, top):
    """Per-axis bucket coordinates of the rows of xs, shape (Q, n).

    Monotone and clipped to the grid, so a point inside a box falls in a
    bucket of that box's range, a point off the grid in the nearest edge
    bucket, and a NaN coordinate (np.fmax) in the lowest.
    """
    return np.fmin(np.fmax((xs - origin) * scale, 0.0), top).astype(np.int64)


def _passes(ok):
    """ok.all(axis=-1) as one boolean product over the failed tests, at a
    fraction of its cost; ok must come from >= or <=, so a NaN fails."""
    return ~(~ok @ _trues(ok.shape[-1]))


@functools.cache
def _trues(k):
    # Read-only, as every call shares it; np.ones would cost a one-row
    # location about as much as the product it feeds.
    return np.frombuffer(b"\x01" * k, bool)


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Simplicial complex over a point cloud; made by build_triangulation.

    simplices : (S, n+1) sorted vertex ids of the cells, in lexicographic order.
    inverses  : (S, n+1, n+1) inverse vertex matrices, NaN for flat cells.
    facets    : (F, n) vertex ids of the hull facets, in lexicographic order.
    opposite  : (F,) id of the vertex of each facet's cell off the facet.
    normals   : (F, n) outward unit normals of the facets.
    offsets   : (F,) hyperplane offsets of the facets.
    slack     : how far the planes miss a convex hull: the largest computed
                N.v + c over cloud points v, and |N.u + c| at facet vertices.
    cond      : a proven upper bound on the worst condition number of a
                usable cell (_condition), or NaN when no cell is usable.
    reach     : a norm no query that passes a cell's TAU test exceeds.
    index     : from LOCATOR_MIN_CELLS cells, the point locator: a CellIndex
                below SCREEN_MIN_DIM dimensions, then a LiftScreen; or None.
                locate_batch reads it for calls of rows * cells from
                INDEX_MIN_CELLS on (search).
    The complex is these arrays; maximal and boundary are views of them.
    """

    cloud: PointCloud
    simplices: np.ndarray
    inverses: np.ndarray = field(repr=False)
    facets: np.ndarray = field(repr=False)
    opposite: np.ndarray = field(repr=False)
    normals: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    slack: float = field(repr=False)
    cond: float = field(repr=False)
    reach: float = field(repr=False)
    index: object = field(repr=False)

    @property
    def locator(self):
        """The point locator of the complex, which batches search through:
        "index" (a CellIndex), "lift" (a LiftScreen) or "cells" (none, so
        every call tests every cell)."""
        return "cells" if self.index is None else self.index.kind

    def search(self, rows):
        """How locate_batch searches the complex in a call of `rows` rows:
        "cells" (every cell at once) while rows * cells is below
        INDEX_MIN_CELLS, or where there is no locator; else the locator."""
        return "cells" if rows * self.simplices.shape[0] < INDEX_MIN_CELLS else self.locator

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


def as_point(x, dim):
    """x as a float64 array of shape (dim,); the one rule on a single point,
    which raises DimensionMismatch for another shape and ValueError for
    complex input."""
    x = real(x, "a point")
    if x.shape != (dim,):
        raise DimensionMismatch("expected one point of dimension %d, got shape %s" % (dim, x.shape))
    return x


def _cloud_diameter(points):
    """Bounding-box diagonal, a constant-factor proxy for the true diameter."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.linalg.norm(span))


def _degeneracy_shift(points):
    """Deterministic index-scaled shift that breaks co-spherical ties."""
    zeta = 1e-10 * _cloud_diameter(points)
    idx = np.arange(points.shape[0], dtype=np.float64)
    return zeta * idx[:, None] * np.ones((1, points.shape[1]))


def _dots(a, b):
    """Row-wise a[i] @ b[i], rounded as the 1-d product (einsum is not)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _check_simplices(simplices, m, n):
    """The simplex ids as int64, or ValueError when they are malformed."""
    simp = np.asarray(simplices)
    if simp.ndim != 2 or simp.shape[1] != n + 1 or not simp.size:
        raise ValueError(
            "simplices must be a nonempty array of shape (S, %d), got shape %s" % (n + 1, simp.shape)
        )
    simp = indices(simp, "simplex vertex id", stop=m)
    if not (np.diff(simp, axis=1) > 0).all():
        raise ValueError("simplex vertex ids must be sorted and distinct within each cell")
    step = np.diff(simp, axis=0)
    lead = step[np.arange(step.shape[0]), np.argmax(step != 0, axis=1)]
    if not (lead > 0).all():
        raise ValueError("simplices must be distinct and listed in lexicographic order")
    return simp


def _padded_boxes(lo, hi, delta):
    """Bounding boxes of the cells, padded to hold every query that the
    TAU feasibility test of locate_batch can accept in the cell.

    lo and hi are the (S, n) corners of the cells' vertex boxes and delta
    their (S,) slack.  For a query x, h = (x, 1), let lam be the exact
    coordinates T^-1 h in the homogeneous vertex matrix T and lam' =
    fl(X h) the ones the kernel computes with the stored inverse X.  As h = T lam,
    lam' - lam = (X T - I) lam + r with |r| <= gamma_{n+1} |X| |T| |lam|,
    and an LU-based inverse has |X T - I| <= c_n u |X| |L| |U| (Higham,
    Accuracy and Stability of Numerical Algorithms, section 14.3).  So
    max|lam' - lam| <= eps L with L = max|lam| and
    eps = 128 (n+1)^2 u kappa, kappa any upper bound on cond_2(T) (the
    kappa of _condition); _coordinate_slack writes it as 64 (n+1)^2
    times the machine epsilon, which is 2u.  The factor 128 covers c_n
    and the pivot growth with room to spare, and also the few ulps by
    which the pad below is rounded.

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
    with np.errstate(invalid="ignore"):
        pad = (n * delta)[:, None] * (hi - lo)
    return np.nextafter(lo - pad, -np.inf), np.nextafter(hi + pad, np.inf)


def _coordinate_slack(kappa, n):
    """delta of _padded_boxes for each cell of an n-D complex, from an upper
    bound kappa on the condition number cond_2(T) of each: every exact
    coordinate of a query that the TAU test accepts in the cell is at
    least -delta; inf where n eps >= 1 or kappa is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = 64 * (n + 1) ** 2 * np.finfo(np.float64).eps * kappa
        bound = np.where(n * eps < 1.0, (1.0 + n * TAU) / (1.0 - n * eps), np.inf)
        return TAU + eps * bound


def _reach(points, delta):
    """A norm beyond which no query passes the TAU test of a cell, from the
    coordinate slack delta of the usable cells (flat ones accept nothing).
    If the test accepts x in s, its exact coordinates in s are at least
    -delta_s (_coordinate_slack) and sum to 1, so their absolute values
    sum to at most 1 + 2n delta_s and |x| <= (1 + 2n delta) rho: rho the
    largest cloud norm, delta the largest slack, inf if any is.  One part
    in 1e12 more covers its rounding and that of a squared norm, (2n+10)u.
    """
    rho = np.sqrt(_dots(points, points).max())
    return float((1.0 + 1e-12) * (1.0 + 2 * points.shape[1] * delta.max(initial=0.0)) * rho)


def _cell_index(points, simp, delta, usable):
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
    lo, hi = _padded_boxes(lo, hi, delta)
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


def _lift_screen(points, simp, delta, inverses, usable):
    """The LiftScreen of a complex.

    Lift each support point v to q_v = fl(|v|^2) and give each usable cell
    s the row P_s = fl(X_s^T q_s), X_s its stored inverse and q_s the lifts
    of its vertices, so that l_s(x) = P_s.(x, 1), in exact arithmetic, is
    close to q_u at each vertex u of s.  In a Delaunay complex each l_s is
    a plane under all the lifted points and through those of its own
    cell, so the cell that holds x has the largest l_s(x) (Edelsbrunner
    and Seidel, 1986).  The screen keeps that argument exact in floating
    point, and for any complex.

    Measured over all support points v, each cell t has
        above_t >= max_v l_t(v) - q_v,
        depth_t >= max_v q_v - l_t(v), both at least 0, and
        own_t   >= max |l_t(u) - q_u| over the vertices u of t,
    each the computed value plus its rounding bound; A and M are the
    largest above and depth.  Let the TAU test accept x in cell s.  By
    _padded_boxes its exact coordinates lam, with x = sum lam_i u_i over
    the vertices of s and sum lam_i = 1, are all at least -delta_s
    (_coordinate_slack).  At most n of them are negative, so the negative
    ones sum to at least -n delta_s and the others to at most
    1 + n delta_s.  As l_t is affine, for every cell t
        l_t(x) = sum lam_i l_t(u_i)
              <= sum lam_i q_i + above_t (1 + n delta_s) + depth_t n delta_s,
        l_s(x) = sum lam_i q_i + sum lam_i (l_s(u_i) - q_i)
              >= sum lam_i q_i - own_s (1 + 2 n delta_s).
    Split delta_s at a typical slack D: above_t (1 + n delta_s) +
    depth_t n delta_s is at most drop_t + (A + M) n max(delta_s - D, 0).
    So lo_t(x) <= hi_s(x) for the planes
        lo_t = l_t - drop_t,  drop_t = above_t (1 + n D) + depth_t n D,
        hi_s = l_s + pad_s,   pad_s  = own_s (1 + 2 n delta_s)
                                       + (A + M) n max(delta_s - D, 0).
    D is the largest slack within a factor 8 of the middle one: the
    slack grows with the ratio of the coordinates to the cell widths, and
    this D follows it when the whole support is scaled, while one sliver,
    whose slack is far above it, widens only its own pad.  A sliver's
    large depth, or the large above of a cell that is not Delaunay,
    likewise lowers only its own lo.  drop and pad are rounded up by one
    part in 1e6, far more than their own arithmetic can lose, and the
    constant terms of lo and hi are moved one ulp outward.  The computed
    product is within gamma_{n+1} |c|_1 |h|_inf of h.c for each column c
    and h = (x, 1), and the bar rounds once more, so
    slop = 4 (n+2) u max|c|_1 over the lo columns and the finite hi
    columns bounds all of it with room to spare.  Hence the computed hi
    of s reaches the computed bar: every cell that accepts x, the lowest
    one among them too, is a candidate of LiftScreen.pairs.
    """
    m, n = points.shape
    cells = simp.shape[0]
    unit = np.finfo(np.float64).eps / 2
    q = _dots(points, points)
    lift = np.einsum("sij,si->sj", inverses, q[simp])

    # l_t(v) - q_v for every cell t and support point v, in blocks of
    # about 2**20 values, widened by its rounding bound.
    h = np.concatenate([points, np.ones((m, 1))], axis=1)
    norm, scale = np.where(usable, np.abs(lift).sum(axis=1), 0.0), np.abs(h).max(axis=1)
    above, depth, own = np.zeros(cells), np.zeros(cells), np.zeros(cells)
    step = max(1, (1 << 20) // m)
    for a in range(0, cells, step):
        b = slice(a, a + step)
        miss = lift[b] @ h.T - q
        err = 4 * (n + 2) * unit * (norm[b, None] * scale + q)
        above[b] = (miss + err).max(axis=1)
        depth[b] = (err - miss).max(axis=1)
        rows = np.arange(miss.shape[0])[:, None]
        own[b] = (np.abs(miss) + err)[rows, simp[b]].max(axis=1)

    above, depth = np.maximum(above, 0.0), np.maximum(depth, 0.0)
    finite = usable & (delta < np.inf)
    typical = 0.0
    if finite.any():
        # The middle slack by sorting: np.median would import numpy.ma,
        # about 20 ms of a cold model load.
        middle = np.sort(delta[finite])[np.count_nonzero(finite) // 2]
        typical = delta[finite & (delta <= 8.0 * middle)].max()
    room = 1.0 + 1e-6
    drop = room * (above * (1.0 + n * typical) + depth * n * typical)
    beyond = (above[usable].max() + depth[usable].max()) * n * np.maximum(delta - typical, 0.0)
    pad = room * (own * (1.0 + 2 * n * delta) + beyond)
    lo, hi = lift.copy(), lift.copy()
    lo[:, n] = np.nextafter(lift[:, n] - drop, -np.inf)
    hi[:, n] = np.nextafter(lift[:, n] + pad, np.inf)
    lo[~usable] = hi[~usable] = np.append(np.zeros(n), -np.inf)
    planes = np.ascontiguousarray(np.concatenate([lo, hi]).T)
    norm = np.abs(planes).sum(axis=0)
    bounded = usable & np.isfinite(pad)
    slop = 4 * (n + 2) * unit * max(norm[:cells][usable].max(), norm[cells:][bounded].max(initial=0.0))
    planes.setflags(write=False)
    return LiftScreen(planes, float(slop))


def _hull_facets(simp, n):
    """The hull facets of the cells simp, in lexicographic order, and the
    vertex of each facet's cell off the facet; a face of three or more
    cells raises SingularSimplex.  The faces sort by one lexsort over int64
    keys that pack id columns in order, in base (largest id + 1), so they
    sort and compare as the columns do: one key while base^n < 2^63."""
    # Face d of a cell drops its vertex d, which is then the opposite
    # vertex; sorting all faces puts equal ones next to each other.
    keep = np.array([np.delete(np.arange(n + 1), d) for d in range(n + 1)])
    faces = simp[:, keep].reshape(-1, n)
    opposite = simp.reshape(-1)
    base = int(simp.max()) + 1
    width = max(w for w in range(1, n + 1) if base**w < 1 << 63)
    keys = [np.ravel_multi_index(cols, (base,) * len(cols)) for cols in np.split(faces.T, range(width, n, width))]
    order = np.lexsort(keys[::-1])
    faces, opposite = faces[order], opposite[order]
    same = np.logical_and.reduce([np.diff(key[order]) == 0 for key in keys])
    triple = np.nonzero(same[1:] & same[:-1])[0]
    if triple.size:
        raise SingularSimplex(
            "face %r is shared by more than two cells" % (tuple(faces[triple[0]].tolist()),)
        )
    single = ~(np.append(same, False) | np.insert(same, 0, False))
    return faces[single], opposite[single]


def _facet_planes(points, facets, opposite):
    """The outward unit normals and offsets of the facets, and the slack of
    Triangulation."""
    m = points.shape[0]
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
    # The planes at their own vertices and, in blocks of about 2**20
    # values, at every cloud point.
    own = np.matmul(corners, normals[:, :, None])[..., 0] + offsets[:, None]
    step = max(1, (1 << 20) // m)
    slack = float(np.abs(own).max())
    for a in range(0, len(offsets), step):
        slack = max(slack, float((points @ normals[a : a + step].T + offsets[a : a + step]).max()))
    return normals, offsets, slack


def _cell_systems(points, simp):
    """The (S, n+1, n+1) homogeneous vertex matrices T of the cells: the
    vertices as columns over a row of ones."""
    n = points.shape[1]
    verts = points[simp]  # (S, n+1, n)
    tmat = np.empty((verts.shape[0], n + 1, n + 1))
    tmat[:, :n, :] = np.transpose(verts, (0, 2, 1))
    tmat[:, n, :] = 1.0
    return tmat


# Cells per inv call of _condition: one exactly singular cell sends its
# block, not the stack, through the second factorization.
_CONDITION_BLOCK = 256


def _condition(tmat):
    """The inverses of the vertex systems T, NaN blocks for the exactly
    singular ones, and a proven upper bound kappa on each cell's
    condition number cond_2(T), inf for those.

    inv factors each cell alone, a block of cells a call; it raises for
    the block where one cell meets a zero pivot.  Only such a block runs
    slogdet, the same LU, which gives sign 0 exactly there (det could
    underflow or overflow), and inverts the others.  Let X be the stored
    inverse, F = |T|_F |X|_F and c = 64 (n+1)^2 u, which as in
    _padded_boxes covers the backward error of the LU-based inverse,
    |T X - I|_F <= c F.  With R = T X - I, T^-1 = X (I + R)^-1, so for
    cF < 1 |T^-1|_F <= |X|_F / (1 - cF) and
        cond_2(T) <= |T|_F |T^-1|_F <= F / (1 - cF).
    The computed F is within ((n+1)^2 + 3) u of F, below c / 16, so it
    is taken rounded up by the factor 1 + c, and what is left of that
    factor covers the rounding of the few operations after it: kappa =
    F (1 + c) / (1 - c F (1 + c)) >= cond_2(T), inf where c F (1 + c)
    reaches 1/2.
    """
    inverses = np.full_like(tmat, np.nan)
    for a in range(0, len(tmat), _CONDITION_BLOCK):
        block, out = tmat[a : a + _CONDITION_BLOCK], inverses[a : a + _CONDITION_BLOCK]
        try:
            out[:] = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            solved = np.linalg.slogdet(block)[0] != 0
            out[solved] = np.linalg.inv(block[solved])
    c = 64 * tmat.shape[1] ** 2 * (np.finfo(np.float64).eps / 2)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        up = np.sqrt(np.einsum("sij,sij->s", tmat, tmat) * np.einsum("sij,sij->s", inverses, inverses)) * (1.0 + c)
        kappa = np.where(c * up < 0.5, up / (1.0 - c * up), np.inf)
    return inverses, kappa


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
    n = points.shape[1]
    simp = _check_simplices(simplices, *points.shape)
    facets, opposite = _hull_facets(simp, n)
    normals, offsets, slack = _facet_planes(points, facets, opposite)

    # A cell is usable when the proven bound on its condition number is
    # below COND_LIMIT.  The others (flat cells) get NaN inverse blocks:
    # their coordinates never pass a feasibility test, so point location
    # simply ignores them.  The same bound gives each cell's coordinate
    # slack, which every locator bound reads.
    inverses, kappa = _condition(_cell_systems(points, simp))
    usable = kappa < COND_LIMIT
    inverses[~usable] = np.nan
    cond = float(kappa[usable].max()) if usable.any() else np.nan
    delta = _coordinate_slack(kappa, n)

    index = None
    if simp.shape[0] >= LOCATOR_MIN_CELLS and usable.any():
        if n < SCREEN_MIN_DIM:
            index = _cell_index(points, simp, delta, usable)
        else:
            index = _lift_screen(points, simp, delta, inverses, usable)

    for arr in (simp, inverses, facets, opposite, normals, offsets):
        arr.setflags(write=False)
    return Triangulation(
        cloud=cloud, simplices=simp, inverses=inverses, facets=facets, opposite=opposite,
        normals=normals, offsets=offsets, slack=slack, cond=cond, reach=_reach(points, delta[usable]), index=index,
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
    """Containing simplex of each query row, and its raw coordinates: the
    only point-location kernel.  A cell contains a query when every
    coordinate is at least -TAU, and the lowest index wins on shared faces.
    index[q] is the cell of row q, or -1 outside the hull, and coords[q]
    its n+1 unclamped coordinates (meaningless where index[q] is -1).  The
    call searches as tri.search(rows) says; a CellIndex or LiftScreen
    gives the bits of testing every cell."""
    xs = np.asarray(xs, dtype=np.float64)
    rows, n = xs.shape
    h = np.empty((rows, n + 1))
    h[:, :n] = xs
    h[:, n] = 1.0
    if tri.search(rows) == "cells":
        bary = np.einsum("sij,qj->qsi", tri.inverses, h)
        feasible = _passes(bary >= -TAU)
        first = np.argmax(feasible, axis=1).tolist()
        index = [s if feasible[q, s] else -1 for q, s in enumerate(first)]
        return index, [bary[q, s] for q, s in enumerate(first)]
    qs, cand = tri.index.pairs(h)
    coords = np.einsum("pij,pj->pi", np.take(tri.inverses, cand, axis=0), np.take(h, qs, axis=0))
    hit = np.flatnonzero(_passes(coords >= -TAU))
    index = [-1] * rows
    pick = [0] * rows
    # Walk the feasible pairs backwards, so each query keeps its first one:
    # the lowest cell, as both locators pair a query's cells in ascending
    # order.
    for p, q, s in zip(hit[::-1].tolist(), qs[hit[::-1]].tolist(), cand[hit[::-1]].tolist()):
        index[q], pick[q] = s, p
    return index, coords[pick] if coords.size else np.zeros((rows, n + 1))


def locate(tri, x):
    """The containing maximal simplex of x and its clamped, renormalized
    barycentric coordinates, or None when x lies in no cell (outside the
    hull, or not finite: one row of locate_batch); x follows as_point."""
    (index,), coords = locate_batch(tri, as_point(x, tri.cloud.dim)[None])
    if index < 0:
        return None
    return Simplex(tuple(tri.simplices[index].tolist())), clamp_coords(coords[0])

