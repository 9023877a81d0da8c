"""Synthetic dataset generators, the bundled iris fixture and CSV I/O.

CSV format: header ``f1,...,fn,label``, comma separated, decimal-point
floats written with shortest round-trip precision, label as the final
column.  All generators are bit-deterministic for a fixed seed.
"""

import contextlib
import csv
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCount, ParseError, TooManyClusters, integer, positive
from .geometry import PointCloud, as_cloud
from .model import LabelEncoding


@dataclass
class LabeledDataset:
    """Point cloud plus one label name per point, of at least two classes."""

    points: PointCloud
    labels: list

    def __post_init__(self):
        self.points = as_cloud(self.points)
        self.labels = [str(v) for v in self.labels]
        LabelEncoding.from_labels(self.labels).encode(self.labels, self.points.size)

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
    noise_sd = positive(noise_sd, "noise_sd", InvalidCount, strict=False)
    turns = positive(turns, "turns", low=-math.inf)
    per_arm = n_samples // 2
    rng = np.random.default_rng(integer(seed, "seed"))
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
    class_sep = positive(class_sep, "class_sep", low=-math.inf)
    flip_fraction = positive(flip_fraction, "flip_fraction", InvalidCount, strict=False)
    if flip_fraction >= 1.0:
        raise InvalidCount("flip_fraction must be in [0, 1), got %g" % flip_fraction)
    n_clusters = 2 * clusters_per_class
    rng = np.random.default_rng(integer(seed, "seed"))
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f%d" % (i + 1) for i in range(n)] + ["label"])
        for row, label in zip(dataset.points.points, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


def _excerpt(text):
    """repr of text, or of its first 80 characters and its length when it
    is longer, so that an error quoting a file's text stays short."""
    if len(text) <= 80:
        return repr(text)
    return "%r... (%d characters)" % (text[:80], len(text))


def load_csv(path):
    """Read a dataset written by save_csv.

    ParseError carries 1-based row and column numbers counted from the
    top of the file, header included; a file that is not UTF-8 CSV text
    raises it without them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError("%s is not UTF-8 CSV text: %s" % (path, exc)) from None
    if not rows:
        raise ParseError("empty dataset file %s" % path, row=1, column=1)
    header = rows[0]
    if len(header) < 2 or header[-1].strip() != "label":
        raise ParseError(
            "header must be f1,...,fn,label, got %s" % _excerpt(",".join(header)), row=1, column=1
        )
    n = len(header) - 1
    points = np.full((len(rows) - 1, n), np.nan)
    labels = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise DimensionMismatch(
                "row %d has %d cells, expected %d" % (r, len(row), n + 1)
            )
        for c in range(n):
            with contextlib.suppress(ValueError):
                points[r - 2, c] = float(row[c])
            if not math.isfinite(points[r - 2, c]):
                raise ParseError(
                    "malformed or non-finite numeric cell %s at row %d, column %d" % (_excerpt(row[c]), r, c + 1),
                    row=r, column=c + 1,
                )
        labels.append(row[n])
    return LabeledDataset(points=PointCloud(points), labels=labels)


def load_iris():
    """The bundled 150-row iris dataset (4 features, 3 classes of 50)."""
    resource = importlib.resources.files("smnn").joinpath("data/iris.csv")
    with importlib.resources.as_file(resource) as path:
        return load_csv(path)


def _train_counts(counts, train_fraction):
    """The train rows of each class of split, from the row counts of the
    classes in sorted order."""
    target = int(sum(counts) * train_fraction)
    raw = [n * train_fraction for n in counts]
    alloc = [int(r) for r in raw]
    deficit = target - sum(alloc)
    by_remainder = sorted(range(len(counts)), key=lambda c: (-(raw[c] - alloc[c]), c))
    for c in by_remainder[:deficit]:
        alloc[c] += 1

    # Keep both sides populated for every class that can afford it, then
    # restore the total as far as those bounds allow, the largest classes
    # first: each gives (drift > 0) or takes (drift < 0) as much of the
    # drift as it can.
    for c, n in enumerate(counts):
        if n >= 2:
            alloc[c] = min(max(alloc[c], 1), n - 1)
    drift = sum(alloc) - target
    for c in sorted(range(len(counts)), key=lambda c: (-counts[c], c)):
        low, high = (1, counts[c] - 1) if counts[c] >= 2 else (0, counts[c])
        move = max(min(drift, alloc[c] - low), alloc[c] - high)
        alloc[c] -= move
        drift -= move
    return alloc


def split(dataset, train_fraction, seed=0):
    """Stratified seeded split into (train, test).

    floor(N * train_fraction) train points go to classes by largest
    remainder; every class with two or more points keeps one on each side,
    and the largest classes give or take points to restore that total when
    their counts allow it (10 A and 10 B rows at 0.95 give 18 train rows,
    not 19).  Row order within each side follows the original dataset.
    """
    train_fraction = positive(train_fraction, "train_fraction")
    if train_fraction >= 1.0:
        raise ValueError("train_fraction must be in (0, 1), got %g" % train_fraction)
    labels = np.array(dataset.labels)
    members = [np.nonzero(labels == c)[0] for c in sorted(set(dataset.labels))]
    alloc = _train_counts([idx.size for idx in members], train_fraction)

    rng = np.random.default_rng(integer(seed, "seed"))
    train_idx = []
    test_idx = []
    for idx, n_train in zip(members, alloc):
        perm = idx[rng.permutation(idx.size)]
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())
    train_idx = sorted(train_idx)
    test_idx = sorted(test_idx)

    pts = dataset.points.points
    return (
        LabeledDataset(points=PointCloud(pts[train_idx]), labels=[dataset.labels[i] for i in train_idx]),
        LabeledDataset(points=PointCloud(pts[test_idx]), labels=[dataset.labels[i] for i in test_idx]),
    )
