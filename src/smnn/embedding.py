"""Barycentric embedding of queries over a triangulated support set.

The embedding space translates all data so the training centroid sits at
the origin, wraps the support triangulation in a sphere of radius R, and
maps any query x inside the ball to a sparse vector of convex weights:

* x inside the hull: the barycentric coordinates of its containing
  simplex, scattered to the support indices of that simplex.
* x outside the hull: x is joined with its radial projection w = R x/|x|
  onto the sphere.  Among the boundary facets visible from x, the one
  whose virtual simplex (w, facet vertices) contains x supplies the
  coordinates; the weight on w is reported separately as sphere_mass and
  owns no support index.  When the centroid lies outside the support
  hull, queries behind the hull have no such facet, and the centroid
  itself has no projection: xi and xi_batch raise
  NoContainingVirtualSimplex, and training.evaluate scores them as
  misses.

Entries smaller than 1e-9 in magnitude are zeroed and the rest
renormalized, so exact vertex queries come back as clean indicators.
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
    """Sparse embedding of one query.

    indices     : support indices with nonzero weight, ascending.
    values      : matching weights, each positive.
    sphere_mass : weight on the sphere projection point, 0 inside the hull.
    sphere_point: the projection w when sphere_mass may be nonzero.
    facet_used  : ids of the boundary facet of the virtual simplex.
    """

    indices: np.ndarray
    values: np.ndarray
    sphere_mass: float = 0.0
    sphere_point: np.ndarray = None
    facet_used: tuple = None

    def to_dense(self, m):
        dense = np.zeros(m)
        dense[self.indices] = self.values
        return dense


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
    return EmbeddingSpace(
        dim=pts.shape[1],
        centroid=centroid,
        radius=radius,
        support=support,
        tri=tri,
    )


def project_to_sphere(space, x):
    """Radial projection of a translated point onto the bounding sphere."""
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        raise ZeroNorm("cannot project a point with norm %g onto the sphere" % norm)
    return space.radius * x / norm


def _xi_outside(space, x):
    """Sphere-augmented embedding for a translated point outside the hull.

    The virtual simplices (w, facet vertices) of all visible facets are
    solved in one stacked system.  The most interior coordinate vector
    wins, ties going to the lowest facet index; None when none of them
    contains x within TAU, or when x is the centroid itself, which has no
    sphere point and so no virtual simplex.
    """
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
    coords = clamp_coords(coords[best])
    keep = coords[1:] > 0.0
    return SparseXi(
        indices=ids[best][keep],
        values=coords[1:][keep],
        sphere_mass=float(coords[0]),
        sphere_point=w,
        facet_used=tuple(ids[best].tolist()),
    )


def _xi_inside(ids, coords):
    keep = coords > 0.0
    return SparseXi(indices=ids[keep], values=coords[keep])


def xi(space, x_raw):
    """Sparse embedding of one raw-coordinate query: row 0 of xi_batch."""
    x = np.asarray(x_raw, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(
            "expected one query of dimension %d, got shape %s" % (space.dim, x.shape)
        )
    return xi_batch(space, x[None])[0]


def translate_queries(space, xs_raw):
    """Validated (Q, n) queries moved to centroid-at-origin, and the mask
    of the rows inside the closed bounding ball.

    Raises DimensionMismatch and NonFiniteQuery; rows outside the ball are
    left to the caller.  A non-finite coordinate makes the squared norm
    NaN or infinite, so only rows outside the ball need the finiteness
    check.
    """
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
    """Embeddings of translated queries already known to lie in the ball.

    Interior queries are located through geometry.locate_batch; exterior
    rows take the virtual-simplex route, and a row that no virtual
    simplex contains (behind a hull that misses the centroid) comes back
    as None.
    """
    out = []
    for start in range(0, translated.shape[0], _CHUNK):
        block = translated[start : start + _CHUNK]
        index, coords = locate_batch(space.tri, block)
        for q, idx in enumerate(index):
            if idx >= 0:
                out.append(_xi_inside(space.tri.simplices[idx], clamp_coords(coords[q])))
            else:
                out.append(_xi_outside(space, block[q]))
    return out


def xi_batch(space, xs_raw):
    """Embeddings for a batch of raw queries, one SparseXi per row.

    The single embedding path: queries of the wrong shape raise
    DimensionMismatch, non-finite ones NonFiniteQuery, queries outside
    the ball OutsideBall, and queries that no virtual simplex contains
    NoContainingVirtualSimplex.
    """
    translated, inside = translate_queries(space, xs_raw)
    if not inside.all():
        row = np.argmin(inside)
        raise OutsideBall(
            "query %d has norm %g exceeding ball radius %g"
            % (row, np.linalg.norm(translated[row]), space.radius)
        )
    out = embed_translated(space, translated)
    for row, x in enumerate(out):
        if x is None:
            raise NoContainingVirtualSimplex(
                "no virtual simplex accepts the exterior point %s" % (translated[row].tolist(),)
            )
    return out
