"""Synthetic dataset generators, the bundled iris fixture and CSV I/O.

CSV format: header ``f1,...,fn,label``, comma separated, decimal-point
floats written with shortest round-trip precision, label as the final
column.  All generators are bit-deterministic for a fixed seed.
"""

import csv
import importlib.resources
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCount, ParseError, TooManyClusters, integer
from .geometry import PointCloud


@dataclass
class LabeledDataset:
    """Point cloud plus one label name per point."""

    points: PointCloud
    labels: list

    def __post_init__(self):
        if not isinstance(self.points, PointCloud):
            self.points = PointCloud(np.asarray(self.points))
        self.labels = [str(v) for v in self.labels]
        if len(self.labels) != self.points.size:
            raise ValueError(
                "got %d labels for %d points" % (len(self.labels), self.points.size)
            )
        if len(set(self.labels)) < 2:
            raise ValueError("dataset must contain at least two distinct labels")

    @property
    def size(self):
        return self.points.size

    @property
    def dim(self):
        return self.points.dim


def gen_spiral(n_samples, noise_sd=0.02, turns=0.65, seed=0):
    """Two interleaved Archimedean spiral arms for binary classification.

    Arm a places points at parameter s evenly spaced in [0, 1] with
    radius s and angle turns*2*pi*s + a*pi, plus Gaussian noise.
    """
    if integer(n_samples, "n_samples", low=4, error=InvalidCount) % 2:
        raise InvalidCount("n_samples must be even, got %d" % n_samples)
    if noise_sd < 0.0:
        raise InvalidCount("noise_sd must be nonnegative, got %g" % noise_sd)
    per_arm = n_samples // 2
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 1.0, per_arm)
    points = []
    labels = []
    for arm in (0, 1):
        theta = turns * 2.0 * np.pi * s + arm * np.pi
        arm_pts = np.column_stack([s * np.cos(theta), s * np.sin(theta)])
        points.append(arm_pts)
        labels.extend([str(arm)] * per_arm)
    pts = np.vstack(points) + rng.normal(0.0, noise_sd, size=(n_samples, 2))
    return LabeledDataset(points=PointCloud(pts), labels=labels)


def _hypercube_vertices(n_features, count, rng):
    """`count` distinct signed-hypercube vertices in seeded random order."""
    total = 2 ** n_features if n_features < 63 else None
    if total is not None and count > total:
        raise TooManyClusters(
            "%d cluster centroids requested but only %d hypercube vertices exist"
            % (count, total)
        )
    if total is not None and total <= 4096:
        signs = np.array(
            [[1.0 if (v >> b) & 1 else -1.0 for b in range(n_features)] for v in range(total)]
        )
        return signs[rng.permutation(total)[:count]]
    chosen = []
    seen = set()
    while len(chosen) < count:
        v = np.where(rng.random(n_features) < 0.5, -1.0, 1.0)
        key = tuple(v)
        if key not in seen:
            seen.add(key)
            chosen.append(v)
    return np.array(chosen)


def gen_clusters(
    n_samples,
    n_features=2,
    clusters_per_class=2,
    class_sep=1.0,
    flip_fraction=0.02,
    seed=0,
):
    """Binary Gaussian-cluster data with optional label noise.

    Each class owns clusters_per_class unit-variance Gaussian blobs
    centered on distinct hypercube vertices scaled by class_sep; a seeded
    fraction of labels is then flipped.
    """
    integer(n_samples, "n_samples", low=10, error=InvalidCount)
    integer(n_features, "n_features", low=2, error=InvalidCount)
    integer(clusters_per_class, "clusters_per_class", low=1, error=InvalidCount)
    if not 0.0 <= flip_fraction < 1.0:
        raise InvalidCount("flip_fraction must be in [0, 1), got %g" % flip_fraction)
    n_clusters = 2 * clusters_per_class
    rng = np.random.default_rng(seed)
    centroids = _hypercube_vertices(n_features, n_clusters, rng) * class_sep

    base, extra = divmod(n_samples, n_clusters)
    points = []
    labels = []
    for c in range(n_clusters):
        count = base + (1 if c < extra else 0)
        blob = centroids[c] + rng.standard_normal((count, n_features))
        points.append(blob)
        labels.extend([str(c % 2)] * count)
    pts = np.vstack(points)
    labels = np.array(labels)

    n_flips = int(round(flip_fraction * n_samples))
    if n_flips:
        flip_idx = rng.choice(n_samples, size=n_flips, replace=False)
        flipped = labels[flip_idx].astype(int) ^ 1
        labels[flip_idx] = flipped.astype(str)

    order = rng.permutation(n_samples)
    return LabeledDataset(points=PointCloud(pts[order]), labels=labels[order].tolist())


def save_csv(dataset, path):
    """Write header f1..fn,label then one row per point.

    Floats use repr, which round-trips doubles exactly.
    """
    n = dataset.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f%d" % (i + 1) for i in range(n)] + ["label"])
        for row, label in zip(dataset.points.points, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


def load_csv(path):
    """Read a dataset written by save_csv.

    ParseError carries 1-based row and column numbers counted from the
    top of the file, header included.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("empty dataset file %s" % path, row=1, column=1)
    header = rows[0]
    if len(header) < 2 or header[-1].strip() != "label":
        raise ParseError(
            "header must be f1,...,fn,label, got %r" % (",".join(header),), row=1, column=1
        )
    n = len(header) - 1
    points = np.empty((len(rows) - 1, n))
    labels = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise DimensionMismatch(
                "row %d has %d cells, expected %d" % (r, len(row), n + 1)
            )
        for c in range(n):
            try:
                points[r - 2, c] = float(row[c])
            except ValueError:
                raise ParseError(
                    "malformed numeric cell %r at row %d, column %d" % (row[c], r, c + 1),
                    row=r,
                    column=c + 1,
                ) from None
        labels.append(row[n])
    return LabeledDataset(points=PointCloud(points), labels=labels)


def load_iris():
    """The bundled 150-row iris dataset (4 features, 3 classes of 50)."""
    resource = importlib.resources.files("smnn").joinpath("data/iris.csv")
    with importlib.resources.as_file(resource) as path:
        return load_csv(path)


def split(dataset, train_fraction, seed=0):
    """Stratified seeded split into (train, test).

    The train side receives floor(N * train_fraction) points, apportioned
    to classes by largest remainder; every class with at least two points
    keeps a representative on both sides when the totals allow it.  Row
    order within each side follows the original dataset.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1), got %g" % train_fraction)
    labels = np.array(dataset.labels)
    classes = sorted(set(dataset.labels))
    n_total = dataset.size
    target = int(n_total * train_fraction)

    counts = {c: int(np.count_nonzero(labels == c)) for c in classes}
    raw = {c: counts[c] * train_fraction for c in classes}
    alloc = {c: int(raw[c]) for c in classes}
    deficit = target - sum(alloc.values())
    by_remainder = sorted(classes, key=lambda c: (-(raw[c] - alloc[c]), classes.index(c)))
    for c in by_remainder[:deficit]:
        alloc[c] += 1

    # Keep both sides populated for every class that can afford it.
    for c in classes:
        if counts[c] >= 2:
            alloc[c] = min(max(alloc[c], 1), counts[c] - 1)
    drift = sum(alloc.values()) - target
    adjustable = sorted(classes, key=lambda c: (-counts[c], classes.index(c)))
    while drift > 0:
        for c in adjustable:
            low = 1 if counts[c] >= 2 else 0
            if alloc[c] > low:
                alloc[c] -= 1
                drift -= 1
                break
        else:
            break
    while drift < 0:
        for c in adjustable:
            high = counts[c] - 1 if counts[c] >= 2 else counts[c]
            if alloc[c] < high:
                alloc[c] += 1
                drift += 1
                break
        else:
            break

    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for c in classes:
        members = np.nonzero(labels == c)[0]
        perm = members[rng.permutation(members.size)]
        train_idx.extend(perm[: alloc[c]].tolist())
        test_idx.extend(perm[alloc[c] :].tolist())
    train_idx = sorted(train_idx)
    test_idx = sorted(test_idx)

    pts = dataset.points.points
    return (
        LabeledDataset(points=PointCloud(pts[train_idx]), labels=[dataset.labels[i] for i in train_idx]),
        LabeledDataset(points=PointCloud(pts[test_idx]), labels=[dataset.labels[i] for i in test_idx]),
    )
