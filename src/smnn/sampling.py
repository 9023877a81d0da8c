"""Support-set selection by greedy farthest-point traversal.

The sampler walks the training set starting from the point nearest the
centroid, always adding the point farthest from everything selected so
far, and stops once the cover radius drops below epsilon.  The selected
prefix is therefore independent of epsilon, which makes it easy to pick
an epsilon that yields an exact support size.

Each step of the traversal measures one new point against all m points.
It works on a coordinate-major copy of the points, so every array
operation of the step runs over m values rather than over the n
coordinates of one point, and it sums the squared coordinates in the
order NumPy's `np.linalg.norm(pts - x, axis=1)` sums each row: the
distances, and so the order and the cover radii, are bit for bit those
of the row-major norm in every dimension.
"""

import itertools

import numpy as np

from .errors import integer, positive
from .geometry import as_cloud

# epsilon_for_size keeps its walk here, as ((seed, shape, point bytes),
# [(index, cover radius), ...]), until the next epsilon_representative
# call takes it: the size-then-epsilon pair walks the prefix once.  The
# record is only read against the reader's own seed and points, so any
# caller or thread may take it.
_last_walk = None


def epsilon_from_kappa(train_points, kappa):
    """epsilon = (max point norm + 1/2) / kappa, for centroid-centered points."""
    positive(kappa, "kappa")
    pts = as_cloud(train_points).points
    max_norm = float(np.linalg.norm(pts, axis=1).max())
    return (max_norm + 0.5) / kappa


def _break_tie(values, best, rng):
    """Index of the maximum of values, given best = values.argmax(); exact
    ties are broken by the seeded rng."""
    # argmax returns the first maximum, so every tie lies at or after it.
    ties = values[best:] == values[best]
    if np.count_nonzero(ties) == 1:
        return best
    return int(rng.choice(best + np.flatnonzero(ties)))


def _pairwise_rows(sq):
    """Sum the rows of sq in place, in the order NumPy's pairwise summation
    adds the n terms of one contiguous row; returns the sum (a view of sq).

    Below 8 terms that is one running sum; up to 128 it is eight running
    sums over blocks of 8, joined as a balanced tree, plus the remainder
    one by one; above 128 the two halves (cut at a multiple of 8) are
    summed alike and added.
    """
    n = len(sq)
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_rows(sq[:half])
        total += _pairwise_rows(sq[half:])
        return total
    rest = n - n % 8 if n >= 8 else 1
    for i in range(8, rest, 8):
        sq[:8] += sq[i:i + 8]
    if n >= 8:
        sq[0:8:2] += sq[1:8:2]
        sq[0:8:4] += sq[2:8:4]
        sq[0] += sq[4]
    for i in range(rest, n):
        sq[0] += sq[i]
    return sq[0]


def _distances(cols, x, buf):
    """Distances from x to the m points whose (n, m) coordinate-major copy
    is cols, bit for bit `np.linalg.norm(pts - x, axis=1)`; the result is
    a view of the (n, m) scratch array buf."""
    np.subtract(cols, x[:, None], out=buf)
    np.multiply(buf, buf, out=buf)
    total = _pairwise_rows(buf)
    return np.sqrt(total, out=total)


def _farthest_points(pts, seed):
    """Yield (index, cover radius) of the greedy traversal, point by point.

    Callers that stop early see exactly the prefix of the full order.
    """
    rng = np.random.default_rng(integer(seed, "seed"))
    cols = np.ascontiguousarray(pts.T)
    buf = np.empty_like(cols)
    near = -_distances(cols, pts.mean(axis=0), buf)
    start = _break_tie(near, int(near.argmax()), rng)
    dists = _distances(cols, pts[start], buf).copy()
    # A selected point's distance is marked -1, so that no tie at a cover
    # radius of 0 (duplicate rows) picks it again.  Each step takes the
    # argmax of the distances once: the value there is the cover radius it
    # yields (dists holds no NaN), clamped at 0 once every point is
    # selected, and the index the next step's pick.
    dists[start] = -1.0
    best = int(dists.argmax())
    yield start, max(float(dists[best]), 0.0)
    for _ in range(pts.shape[0] - 1):
        nxt = _break_tie(dists, best, rng)
        np.minimum(dists, _distances(cols, pts[nxt], buf), out=dists)
        dists[nxt] = -1.0
        best = int(dists.argmax())
        yield nxt, max(float(dists[best]), 0.0)


def farthest_point_order(train_points, seed=0):
    """Full greedy traversal of the training set.

    Returns (order, radii): order, a permutation of the rows, lists them in
    the order selected, and radii[j] is the cover radius once the first j+1
    are selected.  Any epsilon-representative prefix is a prefix of order.
    """
    order, radii = zip(*_farthest_points(as_cloud(train_points).points, seed))
    return np.array(order, dtype=np.int64), np.array(radii)


def epsilon_representative(train_points, epsilon, seed=0):
    """Indices of a greedy epsilon-cover of the training set.

    Every training point ends up within epsilon of a selected point.
    """
    global _last_walk
    record, _last_walk = _last_walk, None
    positive(epsilon, "epsilon")
    pts = as_cloud(train_points).points
    # The walk of epsilon_for_size is a prefix of this one when the seed
    # and the points' bits match (float == would take -0.0 for 0.0); it
    # holds the answer when its last radius, the least, is below epsilon.
    hit = record and record[0] == (integer(seed, "seed"), pts.shape, pts.tobytes()) and record[1][-1][1] < epsilon
    steps = record[1] if hit else _farthest_points(pts, seed)
    selected = []
    for index, radius in steps:
        selected.append(index)
        if radius < epsilon:
            break
    return selected


def epsilon_for_size(train_points, size, seed=0):
    """An epsilon whose greedy cover has exactly `size` points.

    Exploits the prefix property: size k is reachable iff the cover radius
    strictly decreases into the half-open interval between radii[k-1] and
    radii[k-2].  Raises when ties make the size unreachable.
    """
    pts = as_cloud(train_points).points
    m = pts.shape[0]
    if integer(size, "size", low=1) > m:
        raise ValueError("size must be in [1, %d], got %d" % (m, size))
    global _last_walk
    walk = list(itertools.islice(_farthest_points(pts, seed), size))
    _last_walk = ((int(seed), pts.shape, pts.tobytes()), walk)
    radii = [r for _, r in walk]
    if size == m and m >= 2:
        # radii[m-1] is zero once everything is selected; any epsilon up to
        # the previous cover radius forces the full traversal.
        if radii[m - 2] > 0.0:
            return float(radii[m - 2])
        raise ValueError("duplicate points prevent a full-size cover")
    upper = radii[size - 2] if size >= 2 else np.inf
    lower = radii[size - 1]
    if not lower < upper:
        raise ValueError("cover radius ties make size %d unreachable" % size)
    if np.isinf(upper):
        return float(lower * 2.0 if lower > 0.0 else 1.0)
    return float(0.5 * (lower + upper))
