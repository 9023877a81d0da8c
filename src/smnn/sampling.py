"""Support-set selection by greedy farthest-point traversal.

The sampler walks the training set starting from the point nearest the
centroid, always adding the point farthest from everything selected so
far, and stops once the cover radius drops below epsilon.  The selected
prefix is therefore independent of epsilon, which makes it easy to pick
an epsilon that yields an exact support size.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud


@dataclass
class SamplerConfig:
    """How the support set was chosen; stored in model provenance."""

    mode: str
    epsilon: float = None
    kappa: float = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("epsilon", "kappa"):
            raise ValueError("mode must be 'epsilon' or 'kappa', got %r" % (self.mode,))
        if self.mode == "epsilon":
            if not _positive(self.epsilon) or self.kappa is not None:
                raise ValueError("mode 'epsilon' needs a finite epsilon > 0 and no kappa")
        else:
            if not _positive(self.kappa) or self.epsilon is not None:
                raise ValueError("mode 'kappa' needs a finite kappa > 0 and no epsilon")

    def to_dict(self):
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "kappa": self.kappa,
            "seed": self.seed,
        }


def _positive(value):
    """True for a finite number above zero; False for None, NaN and infinity."""
    return value is not None and math.isfinite(value) and value > 0.0


def _points_of(obj):
    if isinstance(obj, PointCloud):
        return obj.points
    return np.asarray(obj, dtype=np.float64)


def epsilon_from_kappa(train_points, kappa):
    """epsilon = (max point norm + 1/2) / kappa, for centroid-centered points."""
    if not _positive(kappa):
        raise ValueError("kappa must be finite and positive, got %r" % (kappa,))
    pts = _points_of(train_points)
    max_norm = float(np.linalg.norm(pts, axis=1).max())
    return (max_norm + 0.5) / kappa


def _tie_argmax(values, rng):
    """Index of the maximum; exact ties are broken by the seeded rng."""
    values = np.asarray(values)
    top = values.max()
    ties = np.nonzero(values == top)[0]
    if ties.size == 1:
        return int(ties[0])
    return int(rng.choice(ties))


def _farthest_points(pts, seed):
    """Yield (index, cover radius) of the greedy traversal, point by point.

    Callers that stop early see exactly the prefix of the full order.
    """
    rng = np.random.default_rng(seed)
    centroid = pts.mean(axis=0)
    start = _tie_argmax(-np.linalg.norm(pts - centroid, axis=1), rng)
    dists = np.linalg.norm(pts - pts[start], axis=1)
    yield start, float(dists.max())
    for _ in range(pts.shape[0] - 1):
        nxt = _tie_argmax(dists, rng)
        np.minimum(dists, np.linalg.norm(pts - pts[nxt], axis=1), out=dists)
        yield nxt, float(dists.max())


def farthest_point_order(train_points, seed=0):
    """Full greedy traversal of the training set.

    Returns (order, radii) where order[j] is the j-th selected index and
    radii[j] is the cover radius once the first j+1 points are selected.
    Any epsilon-representative prefix is a prefix of this order.
    """
    order, radii = zip(*_farthest_points(_points_of(train_points), seed))
    return np.array(order, dtype=np.int64), np.array(radii)


def epsilon_representative(train_points, epsilon, seed=0):
    """Indices of a greedy epsilon-cover of the training set.

    Every training point ends up within epsilon of a selected point.
    """
    if not _positive(epsilon):
        raise ValueError("epsilon must be finite and positive, got %r" % (epsilon,))
    selected = []
    for index, radius in _farthest_points(_points_of(train_points), seed):
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
    pts = _points_of(train_points)
    m = pts.shape[0]
    if not 1 <= size <= m:
        raise ValueError("size must be in [1, %d], got %d" % (m, size))
    radii = [r for _, r in itertools.islice(_farthest_points(pts, seed), size)]
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
