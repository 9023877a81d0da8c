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

Of the visible facets, the one whose virtual simplex has the largest
minimum coordinate wins, ties going to the lowest facet.  The exterior
rows of a location chunk that has any go through one call of
_virtual_simplices, and xi passes its one row to the same call.  It
follows the ray from the origin through x: the facet where that ray
leaves the hull, when the centroid lies inside it, is the winner in
exact arithmetic, and a proven rounding band around it (_beyond_band)
rules most other visible facets out.  Every (row, remaining facet)
system is solved in one stacked np.linalg.solve.  The results are the
bits of solving every visible facet of every row on its own.

Entries below 1e-9 in magnitude are zeroed and the rest renormalized, so
vertex queries come back as clean indicators.  A batch of embeddings is
one CSR record, an EmbeddingBatch; xi builds its single row directly.
"""

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
    indices,
    positive,
)
from .geometry import (
    TAU,
    PointCloud,
    _dots,
    as_cloud,
    build_delaunay,
    clamp_coords,
    locate,
    locate_batch,
)

# Rows located per call of geometry.locate_batch.  A complex small enough
# to have no cell index is searched by the all-cells kernel, which holds
# (rows, cells, n+1) coordinates at once; the chunk bounds that memory.
_CHUNK = 512

# Unit roundoff of float64.
_U = np.finfo(np.float64).eps / 2

# _virtual_simplices rules facets out through _beyond_band only when the
# visible (row, facet) pairs outnumber the rows by more than this: on the
# 2- to 4-D benchmark supports the band costs about as much as solving 50
# more systems.
_BAND_MIN = 48


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


def fit_space(train_points, support_indices, radius_margin=1.0):
    """Build the embedding space for a training set and support subset.

    The centroid and radius come from the full training set; the support
    rows, translated to centroid-at-origin, get triangulated.  Warns when
    the origin falls outside the support hull: queries behind that hull,
    as seen from the origin, then have no containing virtual simplex.
    """
    radius_margin = positive(radius_margin, "radius margin", error=InvalidMargin)
    pts = as_cloud(train_points).points
    support_indices = indices(support_indices, "support index", stop=pts.shape[0])
    if support_indices.ndim != 1 or support_indices.size == 0:
        raise ValueError("support_indices must be a nonempty 1-d sequence")
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


def _beyond_band(space, norms, dots, ahead, visible):
    """Mask of the visible facets whose virtual simplex can neither win nor
    tie under the coordinates np.linalg.solve computes for it; all other
    visible facets stay candidates.  norms are the rows' norms (clipped
    away from 0), dots and ahead the (rows, facets) N.x and N.x + c, and
    visible the mask of the facets to consider.

    For a translated row x with sphere point w = R x/|x| = x/rho and a
    facet plane (N_f, c_f), let a_f = N_f.x + c_f and b_f = N_f.w + c_f
    (ahead and b below; x sees f when a_f > 0).  In exact arithmetic the
    coordinate of w in the virtual simplex (w, f) is a_f/b_f, and with
    x s_f the point where the ray from the origin through x meets the
    plane of f,

        a_g b_f - b_g a_f = (N_g.x)(N_f.x)(1/rho - 1)(s_f - s_g).

    The ray leaves the hull through the facet of smallest s_f, which has
    the largest a/b; call the visible facet of largest computed a/b g.  A
    facet f is ruled out when

        a_g b_f - b_g (a_f + C1) - b_f C2 > 0,                       (*)

    a band on s_f - s_g that shrinks to nothing as |x| nears R.

    Proof that (*) forces min lam' < -TAU for the computed coordinates
    lam' of (w, f), so that f neither reaches -TAU nor ties a winner.
    Gaussian elimination with partial pivoting gives (T + dT) lam' = (x, 1)
    with ||dT|| <= eps t in the infinity norm, t = (n+1) max(R, 1) >=
    ||T||, and eps = 4 gamma_3N N^2 2^(N-1) (N = n+1; Higham, Accuracy and
    Stability of Numerical Algorithms, theorems 9.3-9.4 with pivot growth
    at most 2^(N-1); the 4 covers blocked variants) plus (n+5)u for the
    rounding of w.  Suppose min lam' >= -TAU.  The row of ones gives
    sum lam' = 1 - (dT lam')_N, so ||lam'||_1 <= (1 + 2N TAU)/(1 - eps t)
    <= L = 2 while eps t <= 1/4.  The plane (N, c) of a facet, |N| = 1
    and |c| < R up to rounding, applied to the system then errs by at most
    (||N||_1 + |c|) eps t L <= E = 2(sqrt n + R) eps t L.
    Let xi = tri.slack + 4(n+1)uR, the computed slack plus the rounding
    of computing it, so that exactly |N_f.u + c_f| <= xi at the vertices
    u of f, and N_g.v + c_g <= xi at every support point v.
    The plane of f gives lam'_0 b_f <= a_f + xi L + E, so for b_f > 0,
    lam'_0 <= (a_f + C1)/b_f with C1 = E + xi L.  The plane of g, with
    e_i = -(N_g.u_i + c_g) <= 3R at the vertices u_i of f, gives
    sum_i lam'_i e_i = lam'_0 b_g - a_g + (at most E)
                    <= b_g (a_f + C1)/b_f - a_g + E   for b_g >= 0.
    The positive lam'_i add at least -xi L to that sum, and each of the
    at most n negative ones at least 3R min lam'; so with m = min(min
    lam', 0), 3nR m <= b_g (a_f + C1)/b_f - a_g + C1, and (*), with
    C2 = C1 + 3nR TAU, makes this less than -3nR TAU: a contradiction.
    Nothing here assumes that the centroid lies inside the hull.

    The test uses the computed a and b, each within beta = 4(n+4)uR of
    the exact values (u the unit roundoff): with X = a_g - beta - C2 > 0
    and Y = b_g + beta, (*) holds when b_f X - a_f Y > beta X +
    Y (beta + C1), which also forces b_f > 0; 64uR^2 more covers the
    rounding of the test itself, whose terms are below 3R by 3R.  A row
    with no visible facet of b above beta, a row where eps t > 1/4, and
    every facet where the test fails keep all their visible facets as
    candidates: the rule of one solve per visible facet, in the same code.
    """
    rows, n = dots.shape[0], space.dim
    radius = space.radius
    t = (n + 1) * max(radius, 1.0)
    eps = 12 * (n + 1) ** 3 * 2.0 ** n * _U + (n + 5) * _U
    beta = 4 * (n + 4) * _U * radius
    c1 = 4 * (n**0.5 + radius) * eps * t + 2 * (space.tri.slack + 4 * (n + 1) * _U * radius)
    c2 = c1 + 3 * n * radius * TAU
    b = dots * (radius / norms)[:, None] + space.tri.offsets
    alpha = np.divide(ahead, b, out=np.full(b.shape, -np.inf), where=visible & (b > beta))
    g = (np.arange(rows), np.argmax(alpha, axis=1))
    big_x = ahead[g] - beta - c2
    big_y = b[g] + beta
    z = beta * big_x + big_y * (beta + c1) + 64 * _U * radius**2
    z[(alpha[g] == -np.inf) | (big_x <= 0.0) | (eps * t > 0.25)] = np.inf
    return b * big_x[:, None] - ahead * big_y[:, None] > z[:, None]


def _virtual_simplices(space, xs):
    """The virtual simplex of each translated row of xs outside the hull:
    the mask of the rows that have one, raw coordinates on (w, facet
    vertices) and the facet's ids.

    For each row, every candidate facet is solved; the most interior
    coordinates (largest minimum) win, ties going to the lowest facet, and
    a row whose best minimum is below -TAU has none, nor does the centroid,
    which has no sphere point.  The candidates are the visible facets,
    N.x + c > 0 with each row's product rounding as tri.normals @ x does,
    that _beyond_band cannot rule out, or all of them when the band could
    save few solves (_BAND_MIN); w rounds as project_to_sphere.  All
    (row, candidate) systems go to one stacked np.linalg.solve, which
    solves each as it would alone.  Memory is (rows, facets).
    """
    tri = space.tri
    rows, n = xs.shape
    norms = np.sqrt(_dots(xs, xs))
    dots = np.matmul(tri.normals, xs[:, :, None])[..., 0]
    ahead = dots + tri.offsets
    cand = (ahead > 0.0) & (norms >= 1e-12)[:, None]
    if np.count_nonzero(cand) > rows + _BAND_MIN:
        cand &= ~_beyond_band(space, np.maximum(norms, 1e-12), dots, ahead, cand)
    r, f = np.nonzero(cand)
    xr = xs[r]
    tmat = np.ones((r.size, n + 1, n + 1))
    tmat[:, :n, 0] = space.radius * xr / norms[r, None]
    tmat[:, :n, 1:] = np.transpose(space.support.points[tri.facets[f]], (0, 2, 1))
    rhs = np.ones((r.size, n + 1, 1))
    rhs[:, :n, 0] = xr
    coords = np.linalg.solve(tmat, rhs)[..., 0]
    low = np.full(cand.shape, -np.inf)
    low[cand] = coords.min(axis=1)
    pair = np.zeros(cand.shape, dtype=np.intp)
    pair[cand] = np.arange(r.size)
    best = (np.arange(rows), np.argmax(low, axis=1))
    hit = coords[pair[best]] if coords.size else np.ones((rows, n + 1))
    return low[best] >= -TAU, hit, tri.facets[best[1]]


def xi(space, x_raw):
    """Sparse embedding of one raw-coordinate query, bit for bit row 0 of
    xi_batch; built directly, as a batch record costs one query 50-60 µs."""
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
    found, hit, ids = _virtual_simplices(space, t)
    if not found[0]:
        raise _no_virtual_simplex(t[0])
    coef = clamp_coords(hit[0])
    ids = ids[0]
    keep = coef[1:] > 0.0
    return SparseXi(ids[keep], coef[1:][keep], float(coef[0]), tuple(ids.tolist()))


def translate_queries(space, xs_raw):
    """Validated (Q, n) queries, an array or a PointCloud, moved to
    centroid-at-origin, and the mask of the rows inside the closed bounding
    ball; the one rule on queries.  Raises DimensionMismatch and
    NonFiniteQuery; a non-finite coordinate leaves its row outside the
    ball, so only those rows are checked."""
    if isinstance(xs_raw, PointCloud):
        xs_raw = xs_raw.points
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
    simplex contains is left empty.  One pass locates _CHUNK rows at a
    time and sends a chunk's exterior rows, if any, to _virtual_simplices."""
    rows, n = translated.shape
    ids = np.empty((rows, n + 1), dtype=space.tri.simplices.dtype)
    coords = np.empty((rows, n + 1))
    facet = np.full((rows, n), -1)
    for a in range(0, rows, _CHUNK):
        cells, coords[a : a + _CHUNK] = locate_batch(space.tri, translated[a : a + _CHUNK])
        ids[a : a + _CHUNK] = space.tri.simplices[cells]
        q = a + np.flatnonzero(np.asarray(cells) < 0)
        if q.size:
            # Id -1 marks the sphere point's coordinate of an exterior
            # row, and every coordinate of a row with no virtual simplex;
            # such a row holds ones, so that it clamps.
            found, hit, fids = _virtual_simplices(space, translated[q])
            coords[q] = np.where(found[:, None], hit, 1.0)
            facet[q] = ids[q, 1:] = np.where(found[:, None], fids, -1)
            ids[q, 0] = -1
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
