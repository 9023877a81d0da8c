"""Barycentric embedding of queries over a triangulated support set.

The embedding space translates all data so the training centroid sits at
the origin, wraps the support triangulation in a sphere of radius R, and
maps any query x inside the ball to a sparse vector of convex weights:

* inside the hull, the barycentric coordinates of its containing simplex;
* outside it, the coordinates of the virtual simplex (w, facet vertices)
  that contains x, where w = R x/|x| and the facet is visible from x; the
  weight on w is the sphere mass and owns no support index.  When the
  centroid lies outside the hull, queries behind it, and the centroid
  itself, have no virtual simplex: xi and xi_batch raise
  NoContainingVirtualSimplex, and training.evaluate scores them as misses.

Entries below 1e-9 in magnitude are zeroed and the rest renormalized, so
vertex queries come back as clean indicators.  A batch of embeddings is
one CSR record, an EmbeddingBatch; xi builds its single row directly.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMargin,
    NoContainingVirtualSimplex,
    NonFiniteQuery,
    OutsideBall,
    ZeroNorm,
)
from .geometry import (
    TAU,
    PointCloud,
    build_delaunay,
    clamp_coords,
    locate,
    locate_batch,
    visible_facet_indices,
)

# Rows located per call of geometry.locate_batch.  A complex small enough
# to have no cell index is searched by the all-cells kernel, which holds
# (rows, cells, n+1) coordinates at once; the chunk bounds that memory.
_CHUNK = 512


@dataclass
class EmbeddingSpace:
    """Frozen geometric context shared by training and inference.

    centroid : mean of the full training set, in raw coordinates.
    radius   : bounding sphere radius (max translated norm plus margin).
    support  : translated support points; rows are support indices.
    tri      : Delaunay triangulation of the support points.
    """

    dim: int
    centroid: np.ndarray
    radius: float
    support: PointCloud
    tri: object


@dataclass
class SparseXi:
    """Sparse embedding of one query: a row of an EmbeddingBatch.

    indices     : support indices with nonzero weight, ascending.
    values      : matching weights, each positive.
    sphere_mass : weight on the sphere point project_to_sphere(space, t) of
                  the translated query t, 0 inside the hull.
    facet_used  : ids of the boundary facet of the virtual simplex.
    """

    indices: np.ndarray
    values: np.ndarray
    sphere_mass: float = 0.0
    facet_used: tuple = None

    def to_dense(self, m):
        dense = np.zeros(m)
        dense[self.indices] = self.values
        return dense


@dataclass
class EmbeddingBatch:
    """The embeddings of Q queries as one CSR record.  Row r has support
    indices indices[indptr[r]:indptr[r + 1]], their weights at the same
    positions of values, sphere mass sphere_mass[r], and in facet[r] the
    ids of the facet of its virtual simplex, all -1 inside the hull."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    sphere_mass: np.ndarray
    facet: np.ndarray

    def __len__(self):
        return self.indptr.size - 1

    def rows(self):
        """Each row as a SparseXi over slices of these arrays."""
        ends = self.indptr.tolist()
        return [
            SparseXi(self.indices[a:b], self.values[a:b], mass, tuple(f) if f[0] >= 0 else None)
            for a, b, mass, f in zip(ends, ends[1:], self.sphere_mass.tolist(), self.facet.tolist())
        ]


def integer_indices(values, what):
    """values as an int64 array; ValueError when any of them is a float or
    a boolean, which casting would silently read as an index (1.7 and
    True as 1)."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind not in "iu" and not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in arr.reshape(-1)
    ):
        raise ValueError("%s must be integers, not floats or booleans" % what)
    return arr.astype(np.int64, copy=False)


def fit_space(train_points, support_indices, radius_margin=1.0):
    """Build the embedding space for a training set and support subset.

    The centroid and radius come from the full training set; the support
    rows, translated to centroid-at-origin, get triangulated.  Warns when
    the origin falls outside the support hull: queries behind that hull,
    as seen from the origin, then have no containing virtual simplex.
    """
    if not (math.isfinite(radius_margin) and radius_margin > 0.0):
        raise InvalidMargin("radius margin must be finite and positive, got %r" % (radius_margin,))
    pts = train_points.points if isinstance(train_points, PointCloud) else None
    if pts is None:
        pts = PointCloud(np.asarray(train_points)).points
    support_indices = integer_indices(support_indices, "support_indices")
    if support_indices.ndim != 1 or support_indices.size == 0:
        raise ValueError("support_indices must be a nonempty 1-d sequence")
    if support_indices.min() < 0 or support_indices.max() >= pts.shape[0]:
        raise ValueError("support index out of range")
    if np.unique(support_indices).size != support_indices.size:
        raise ValueError("support_indices contains duplicates")

    centroid = pts.mean(axis=0)
    translated = pts - centroid
    radius = float(np.linalg.norm(translated, axis=1).max() + radius_margin)
    support = PointCloud(translated[support_indices])
    tri = build_delaunay(support)
    if locate(tri, np.zeros(pts.shape[1])) is None:
        warnings.warn(
            "training centroid lies outside the support hull; "
            "queries behind the hull will raise NoContainingVirtualSimplex",
            stacklevel=2,
        )
    return EmbeddingSpace(pts.shape[1], centroid, radius, support, tri)


def project_to_sphere(space, x):
    """Radial projection of a translated point onto the bounding sphere."""
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        raise ZeroNorm("cannot project a point with norm %g onto the sphere" % norm)
    return space.radius * x / norm


def _xi_outside(space, x):
    """Raw coordinates on (w, facet vertices) and facet ids of the virtual
    simplex of a translated point outside the hull, solved for all visible
    facets in one stacked system: the most interior coordinates win, ties
    going to the lowest facet.  None when none contains x within TAU, or
    when x is the centroid, which has no sphere point."""
    try:
        w = project_to_sphere(space, x)
    except ZeroNorm:
        return None
    visible = visible_facet_indices(space.tri, x)
    ids = space.tri.facets[visible]
    n = x.size
    tmat = np.ones((visible.size, n + 1, n + 1))
    tmat[:, :n, 0] = w
    tmat[:, :n, 1:] = np.transpose(space.support.points[ids], (0, 2, 1))
    rhs = np.broadcast_to(np.append(x, 1.0), (visible.size, n + 1))
    coords = np.linalg.solve(tmat, rhs[..., None])[..., 0]
    low = coords.min(axis=1, initial=np.inf)
    if not (low >= -TAU).any():
        return None
    best = int(np.argmax(low))
    return coords[best], ids[best]


def xi(space, x_raw):
    """Sparse embedding of one raw-coordinate query, bit for bit row 0 of
    xi_batch; built directly, as a batch record costs one query 17-28 µs."""
    x = np.asarray(x_raw, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(
            "expected one query of dimension %d, got shape %s" % (space.dim, x.shape)
        )
    t = _in_ball(space, x[None])
    (cell,), coords = locate_batch(space.tri, t)
    if cell >= 0:
        coef = clamp_coords(coords[0])
        keep = coef > 0.0
        return SparseXi(space.tri.simplices[cell][keep], coef[keep])
    hit = _xi_outside(space, t[0])
    if hit is None:
        raise _no_virtual_simplex(t[0])
    coef = clamp_coords(hit[0])
    keep = coef[1:] > 0.0
    return SparseXi(hit[1][keep], coef[1:][keep], float(coef[0]), tuple(hit[1].tolist()))


def translate_queries(space, xs_raw):
    """Validated (Q, n) queries moved to centroid-at-origin, and the mask
    of the rows inside the closed bounding ball.  Raises DimensionMismatch
    and NonFiniteQuery; a non-finite coordinate leaves its row outside the
    ball, so only those rows are checked."""
    xs = np.asarray(xs_raw, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != space.dim:
        raise DimensionMismatch(
            "expected queries of dimension %d, got shape %s" % (space.dim, xs.shape)
        )
    translated = xs - space.centroid
    inside = np.einsum("ij,ij->i", translated, translated) <= (space.radius + TAU) ** 2
    if not inside.all():
        finite = np.isfinite(xs).all(axis=1)
        if not finite.all():
            raise NonFiniteQuery("query %d has a non-finite coordinate" % np.argmin(finite))
    return translated, inside


def embed_translated(space, translated):
    """The EmbeddingBatch of translated queries known to lie in the ball,
    and the mask of its rows that have an embedding; a row that no virtual
    simplex contains is left empty.  Interior rows are located through
    locate_batch, and all rows are clamped as one array."""
    rows, n = translated.shape
    located = [locate_batch(space.tri, translated[a : a + _CHUNK]) for a in range(0, rows or 1, _CHUNK)]
    index = [s for cells, _ in located for s in cells]
    coords = np.concatenate([np.reshape(c, (-1, n + 1)) for _, c in located])
    ids = space.tri.simplices[index]
    facet = np.full((rows, n), -1)
    # Id -1 marks the sphere point's coordinate of an exterior row, and
    # every coordinate of a row with no virtual simplex; such a row holds
    # ones, so that it clamps.
    for q in [q for q, s in enumerate(index) if s < 0]:
        hit = _xi_outside(space, translated[q])
        if hit is None:
            ids[q], coords[q] = -1, 1.0
        else:
            coords[q], facet[q] = hit
            ids[q, 0], ids[q, 1:] = -1, hit[1]
    coef = clamp_coords(coords)
    keep = (coef > 0.0) & (ids >= 0)
    mass = np.where(facet[:, 0] >= 0, coef[:, 0], 0.0)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return EmbeddingBatch(indptr, ids[keep], coef[keep], mass, facet), ids.max(axis=1) >= 0


def _in_ball(space, xs_raw):
    """translate_queries for rows that must all lie in the ball."""
    translated, inside = translate_queries(space, xs_raw)
    if not inside.all():
        row = np.argmin(inside)
        norm = np.linalg.norm(translated[row])
        raise OutsideBall("query %d has norm %g exceeding ball radius %g" % (row, norm, space.radius))
    return translated


def _no_virtual_simplex(t):
    return NoContainingVirtualSimplex("no virtual simplex accepts the exterior point %s" % (t.tolist(),))


def embed_batch(space, xs_raw):
    """The EmbeddingBatch of raw queries.  Queries of the wrong shape raise
    DimensionMismatch, non-finite ones NonFiniteQuery, queries outside the
    ball OutsideBall, and those no virtual simplex contains
    NoContainingVirtualSimplex."""
    translated = _in_ball(space, xs_raw)
    batch, found = embed_translated(space, translated)
    if not found.all():
        raise _no_virtual_simplex(translated[np.argmin(found)])
    return batch


def xi_batch(space, xs_raw):
    """One SparseXi view per row of embed_batch."""
    return embed_batch(space, xs_raw).rows()
