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
minimum coordinate wins, ties going to the lowest facet.  A query beyond
tri.reach skips point location.  Exterior rows go through one call of
_virtual_simplices per location chunk, or for xi's one row.  The ray from
the origin through x leaves the hull through the facet of largest polar
value N.x/(-c), which wins in exact arithmetic; a proven band below that
value (_exit_bar) rules the other facets out, so one stacked solve takes
about one system a row, with the bits of solving every visible facet.

Entries below 1e-9 in magnitude are zeroed and the rest renormalized, so
vertex queries come back as clean indicators.  A batch of embeddings is
one CSR record, an EmbeddingBatch; xi builds its single row directly.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMargin,
    NoContainingVirtualSimplex,
    NonFiniteQuery,
    OutsideBall,
    ZeroNorm,
    finite,
    indices,
    integer,
    positive,
    real,
    sparse_row,
)
from .geometry import (
    TAU,
    PointCloud,
    _dots,
    as_cloud,
    as_point,
    build_delaunay,
    clamp_coords,
    locate,
    locate_batch,
)

# Rows located per call of geometry.locate_batch.  The all-cells kernel
# holds (rows, cells, n+1) coordinates at once, and serves a chunk only
# on a complex of fewer than LOCATOR_MIN_CELLS cells or while rows times
# cells stay below INDEX_MIN_CELLS; a locator's candidate pairs grow
# with the rows too.  The chunk bounds both.
_CHUNK = 512

# Unit roundoff of float64.
_U = np.finfo(np.float64).eps / 2


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

    @cached_property
    def polar(self):
        """(F,) 1/(-c) for the facet offsets c of the polar rows of _exit_bar, NaN elsewhere."""
        c = self.tri.offsets
        return np.divide(-1.0, c, out=np.full(c.shape, np.nan), where=c < min(c.min(), 0.0) / 1024)

    @cached_property
    def exit_terms(self):
        """The constants (room, most, base, spread) of _exit_bar."""
        n, radius, inv_k0 = self.dim, self.radius, float(np.fmax.reduce(self.polar))
        t, eps = (n + 1) * max(radius, 1.0), 12 * (n + 1) ** 3 * 2.0**n * _U + (n + 5) * _U
        room, unit = 1 + 8 * (n + 4) * _U, _U * radius * inv_k0
        e, test = 2 * (n + 4) * unit, (6 * n + 16) * unit
        if not (eps * t <= 0.25 and test <= 0.25):
            return 1.0, 0.0, 0.0, 0.0
        c1 = 4 * (n**0.5 + radius) * eps * t + 2 * (self.tri.slack + 4 * (n + 1) * _U * radius)
        spread = (1 + 1e-6) * (1 + 2 * e) * (2 * c1 + 3 * n * radius * TAU) * radius * inv_k0
        return room, radius / ((1 + test) * room), 1 - 4 * e * (1 + 1e-6), spread


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
        m = integer(m, "m", low=1)
        cols, vals = sparse_row(self.indices, self.values, m)
        dense = np.zeros(m)
        dense[cols] = vals
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
    """Radial projection of a translated point onto the bounding sphere.
    x follows as_point, and a non-finite one raises NonFiniteQuery."""
    x = finite(as_point(x, space.dim), "the point", NonFiniteQuery)
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        raise ZeroNorm("cannot project a point with norm %g onto the sphere" % norm)
    return space.radius * x / norm


def _exit_bar(space, norms, polar):
    """The bar of each row: a visible facet whose polar value lies below it
    can neither win nor tie under the coordinates np.linalg.solve computes
    for its virtual simplex.  polar holds P = fl(fl(N.x) space.polar) for
    rows of norms norms, NaN (never below a bar) off the polar rows.

    For a row x, sigma = R/|x| and a facet plane (N_f, c_f), let a_f =
    N_f.x + c_f and b_f = sigma N_f.x + c_f: a_f/b_f is the exact
    coordinate of the sphere point w = sigma x in the virtual simplex
    (w, f).  A facet f is ruled out by a facet g when b_f > 0, b_g >= 0 and

        a_g b_f - b_g (a_f + C1) - b_f C2 > 0.                       (*)

    Proof that (*) forces min lam' < -TAU for the computed coordinates
    lam' of (w, f), so that f neither reaches -TAU nor ties a winner.
    Gaussian elimination with partial pivoting gives (T + dT) lam' = (x, 1)
    with ||dT||_inf <= eps t, t = (n+1) max(R, 1) >= ||T||, and eps =
    4 gamma_3N N^2 2^(N-1) (N = n+1; Higham, Accuracy and Stability of
    Numerical Algorithms, theorems 9.3-9.4, pivot growth at most 2^(N-1),
    the 4 for blocked variants) plus (n+5)u for the rounding of w.  Let
    min lam' >= -TAU.  The row of ones gives ||lam'||_1 <= (1 + 2N TAU)/
    (1 - eps t) <= L = 2 for eps t <= 1/4, and a facet plane (|N| = 1,
    |c| < R) applied to the system errs by at most E = 2(sqrt n + R) eps t
    L.  With xi = tri.slack + 4(n+1)uR, |N_f.u + c_f| <= xi at the
    vertices u of f and N_g.v + c_g <= xi at every support point v.  The
    plane of f gives lam'_0 <= (a_f + C1)/b_f with C1 = E + xi L.  The
    plane of g, with e_i = -(N_g.u_i + c_g) <= 3R at the vertices u_i of
    f, gives sum_i lam'_i e_i = lam'_0 b_g - a_g + (at most E), at most
    b_g (a_f + C1)/b_f - a_g + E; there the positive lam'_i add at least
    -xi L and each of the at most n negative ones at least 3R min lam'.
    So m = min(min lam', 0) has 3nR m <= b_g (a_f + C1)/b_f - a_g + C1,
    which (*) with C2 = C1 + 3nR TAU makes less than -3nR TAU.

    The polar rows are the facets with c_f < min(min c, 0)/1024, so that
    no plane near the origin loosens every bar.  With k_f = -c_f >= k0 > 0
    on them (1/k0 the largest entry of space.polar) and p_f = N_f.x/k_f,
    the ray through x meets the plane of f at x/p_f, so it leaves the hull
    through the facet of largest p.  Then a_f = k_f (p_f - 1), b_f = k_f
    (sigma p_f - 1), a_g b_f - b_g a_f = k_g k_f (sigma - 1)(p_g - p_f);
    as b_f k_g <= b_g k_f for p_f <= p_g, (*) holds when sigma > 1 and
    p_g - p_f > (sigma p_g - 1)(C1 + C2)/(k0 (sigma - 1)).  Take g of
    largest P.  N_f.x is computed within e_d = 2nu|x|, and P_f within e_p
    = 2(n+4)u|x|/k0 <= e = 2(n+4)uR/k0 of p_f; a computed N_f.x + c_f > 0
    gives p_f > 1 - e_d/k0.  So on a row with sigma > 1 + (6n + 16)uR/k0
    = 1 + sigma (e_d/k0 + 2e_p), every visible f has b_f > 0, and if there
    is one, sigma p_g >= sigma (p_f - 2e_p) > 1, hence b_g > 0, and P_g >=
    P_f > 1/2; then as sigma p_g - 1 <= sigma P_g (1 + 2e), f is ruled out
    when P_f < P_g (1 - q),
        q = 4e + (1 + 2e)(C1 + C2) R / (k0 (R - |x|)).
    The bar is P_g (1 - q (1 + 1e-6)), from |x| (with 8(n+4)u of room)
    and 1/k0 as rounded.  It matters only while q < 1, when R - |x| >
    (C1 + C2)R/k0 >= 6e-9 R and q >= 6e-9, so rounding stays far below
    the 1e-6.  |x| enters no higher than the test allows: a row that fails
    it gets q > 10^5, a bar below 0 if P_g > 0, and keeps every visible
    facet, whose P is positive; so does every row, under a bar of 0, when
    eps t > 1/4 or (6n + 16)uR/k0 > 1/4.  Nothing here assumes that the
    centroid lies inside the hull.
    """
    room, most, base, spread = space.exit_terms
    top = np.fmax.reduce(polar, axis=1)
    return top * (base - spread / (space.radius - room * np.minimum(norms, most)))


def _virtual_simplices(space, xs):
    """The virtual simplex of each translated row of xs outside the hull:
    the mask of the rows that have one, raw coordinates on (w, facet
    vertices) and the facet's ids.  The candidates of a row are the visible
    facets, N.x + c > 0 rounding as tri.normals @ x does, that _exit_bar
    does not rule out.  Their systems, w (rounded as project_to_sphere)
    and the facet's points as columns over a row of ones, go to one stacked
    np.linalg.solve, which solves each as alone.  The most interior
    coordinates (largest minimum) win, ties going to the lowest facet; a
    row whose best minimum is below -TAU has none, nor does the centroid.
    Memory is (rows, facets), then linear in the candidates.
    """
    tri = space.tri
    rows, n = xs.shape
    norms = np.sqrt(_dots(xs, xs))
    dots = np.matmul(tri.normals, xs[:, :, None])[..., 0]
    polar = dots * space.polar
    bar = _exit_bar(space, norms, polar)
    cand = (dots + tri.offsets > 0.0) & ~(polar < bar[:, None]) & (norms >= 1e-12)[:, None]
    r, f = np.nonzero(cand)
    if not r.size:
        return np.zeros(rows, dtype=bool), np.ones((rows, n + 1)), tri.facets[np.zeros(rows, dtype=np.intp)]
    # Each candidate's augmented system [T | (x, 1)] over a row of ones.
    xr = xs[r]
    system = np.ones((r.size, n + 1, n + 2))
    system[:, :n, 0] = space.radius * xr / norms[r, None]
    system[:, :n, 1:-1] = tri.cloud.points.take(tri.facets.take(f, axis=0), axis=0).transpose(0, 2, 1)
    system[:, :n, -1] = xr
    coords = np.linalg.solve(system[..., :-1], system[..., -1:])[..., 0]
    low = coords.min(axis=1)
    # Each row's pairs, most interior first; the sort is stable, so ties
    # keep facet order, and a row's first pair, where its run of r starts
    # (r is sorted), wins.  A row with no pair points at another row's.
    each = np.arange(rows)
    win = np.lexsort((-low, r))[np.minimum(np.searchsorted(r, each), r.size - 1)]
    return (r[win] == each) & (low[win] >= -TAU), coords[win], tri.facets[f[win]]


def xi(space, x_raw):
    """Sparse embedding of one raw-coordinate query, bit for bit row 0 of
    xi_batch; built directly, as a batch record costs one query 31-35 µs.
    x_raw follows as_point."""
    t = _in_ball(space, as_point(x_raw, space.dim)[None])
    if np.vdot(t, t) <= space.tri.reach * space.tri.reach:
        (cell,), coords = locate_batch(space.tri, t)
        if cell >= 0:
            coef = clamp_coords(coords[0])
            keep = coef > 0.0
            return SparseXi(space.tri.simplices[cell][keep], coef[keep])
    found, hit, ids = _virtual_simplices(space, t)
    if not found[0]:
        raise _no_virtual_simplex(t[0])
    coef = clamp_coords(hit[0])
    keep = coef[1:] > 0.0
    return SparseXi(ids[0][keep], coef[1:][keep], float(coef[0]), tuple(ids[0].tolist()))


def translate_queries(space, xs_raw):
    """Validated (Q, n) queries, an array or a PointCloud, moved to
    centroid-at-origin, and the mask of the rows inside the closed bounding
    ball; the one rule on queries.  Raises DimensionMismatch, NonFiniteQuery
    and, for complex queries, ValueError; a non-finite coordinate leaves its
    row outside the ball, so only those rows are checked."""
    if isinstance(xs_raw, PointCloud):
        xs_raw = xs_raw.points
    xs = real(xs_raw, "queries")
    if xs.ndim != 2 or xs.shape[1] != space.dim:
        raise DimensionMismatch(
            "expected queries of dimension %d, got shape %s" % (space.dim, xs.shape)
        )
    translated = xs - space.centroid
    inside = np.einsum("ij,ij->i", translated, translated) <= (space.radius + TAU) ** 2
    if not inside.all():
        ok = np.isfinite(xs).all(axis=1)
        if not ok.all():
            raise NonFiniteQuery("query %d has a non-finite coordinate" % np.argmin(ok))
    return translated, inside


def embed_translated(space, translated):
    """The EmbeddingBatch of translated queries known to lie in the ball,
    and the mask of its rows that have an embedding; a row that no virtual
    simplex contains is left empty.  One pass takes _CHUNK rows at a time,
    locates those within tri.reach, and sends the chunk's exterior rows, if
    any, to _virtual_simplices."""
    rows, n = translated.shape
    ids = np.empty((rows, n + 1), dtype=space.tri.simplices.dtype)
    coords = np.empty((rows, n + 1))
    facet = np.full((rows, n), -1)
    near = np.einsum("ij,ij->i", translated, translated) <= space.tri.reach * space.tri.reach
    for a in range(0, rows, _CHUNK):
        cells = np.full(min(_CHUNK, rows - a), -1)
        p = np.flatnonzero(near[a : a + _CHUNK])
        if p.size:
            cells[p], coords[a + p] = locate_batch(space.tri, translated[a + p])
        ids[a : a + _CHUNK] = space.tri.simplices[cells]
        q = a + np.flatnonzero(cells < 0)
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
