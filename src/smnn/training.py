"""Stochastic gradient training of the simplicial-map classifier.

Each training point touches only the weight columns of its embedding
support indices: with probabilities s and one-hot target y the gradient
of the cross-entropy w.r.t. weight column t is (s - y) * xi_t, so one
SGD step updates at most n+2 columns.  Embeddings are precomputed once
per space because they never change during training.

Steps on disjoint columns commute exactly, so an epoch whose steps
rarely share a column runs level by level (_level_epoch): each level is
a set of steps sharing no column, done as one NumPy batch, and every
column sees the updates of the sequential order (_kernel_epoch).
"""

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .embedding import embed_batch, embed_translated, fit_space, translate_queries
from .errors import InvalidCount, indices, integer, positive
from .model import LabelEncoding, SmnnModel, cross_entropy, init_weights, softmax

INIT_MODES = ("uniform01", "one_hot")

# train_cached runs its epochs level by level when the first epoch's
# schedule has at least this many steps per level on average, and one
# kernel call per step otherwise.  See the README's "Training kernel"
# for the sweep behind the crossover.
BATCH_MIN_WIDTH = 16


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0
    init_mode: str = "uniform01"
    shuffle: bool = True

    def __post_init__(self):
        positive(self.learning_rate, "learning rate")
        self.epochs = integer(self.epochs, "epochs", low=1)
        integer(self.seed, "seed")
        if self.init_mode not in INIT_MODES:
            raise ValueError("init_mode must be one of %r" % (INIT_MODES,))


@dataclass
class TrainReport:
    """Per-epoch running mean loss and accuracy, accumulated sample by
    sample as the weights move; wall time in seconds; the number of SGD
    steps (epochs times rows) and of the batches they ran in: kernel
    calls, or level batches of the level schedule."""

    history: list = field(default_factory=list)
    wall_time: float = 0.0
    n_steps: int = 0
    n_batches: int = 0

    @property
    def us_per_step(self):
        return self.wall_time / self.n_steps * 1e6 if self.n_steps else 0.0

    @property
    def final_loss(self):
        return self.history[-1][0]

    @property
    def final_accuracy(self):
        return self.history[-1][1]


@dataclass
class CachedEmbedding:
    """The EmbeddingBatch and label indices of a training set."""

    batch: object
    y: np.ndarray

    def __len__(self):
        return len(self.batch)

    @property
    def xis(self):
        """The rows as SparseXi views, built on each read."""
        return self.batch.rows()


@dataclass
class SparseGradient:
    """Gradient block restricted to the touched weight columns."""

    indices: np.ndarray
    block: np.ndarray

    def to_dense(self, m):
        k = self.block.shape[0]
        dense = np.zeros((k, m))
        dense[:, self.indices] = self.block
        return dense


def _points(points):
    return np.asarray(getattr(points, "points", points), dtype=np.float64)


def precompute_embeddings(space, train_points, y_encoded):
    """Embed every training point once; y_encoded are label indices."""
    pts = _points(train_points)
    y = indices(y_encoded, "label index")
    if y.shape != (pts.shape[0],):
        raise ValueError(
            "labels and points disagree: label shape %s, point shape %s" % (y.shape, pts.shape)
        )
    return CachedEmbedding(batch=embed_batch(space, pts), y=y)


def _pack(batch, k, m):
    """The rows of an EmbeddingBatch as the kernel reads them: per row, the
    indices of its columns in the flattened C-ordered (k, m) weights, shape
    (c, k), its values, and each value repeated k times in that order."""
    ends = batch.indptr.tolist()
    fidx = batch.indices[:, None] + np.arange(k) * m
    vals = batch.values
    vrep = vals.repeat(k).tolist()
    return [(fidx[a:b], vals[a:b], vrep[a * k:b * k]) for a, b in zip(ends, ends[1:])]


def _kernel(flat, fidx, vals, vrep, y_index, eta):
    """Softmax probabilities of one packed sample, as a list, before the
    SGD update that follows in place.  `flat` is the flattened view of
    C-ordered weights.

    Each operation rounds as the NumPy step `s = softmax(W[:, cols] @ v)`,
    `W[:, cols] -= eta * ((s - e_y)[:, None] * v)` does, so the weights
    are bit-identical to it:
    - the logits are the same column-major gemv (with its FMAs), since the
      (c, k) block is the transpose of the F-ordered `W[:, cols]`;
    - each exponential is NumPy's `exp`, whose scalar call rounds as its
      array loop does, and `math.exp` does not;
    - NumPy sums fewer than 8 terms left to right and more in pairwise
      blocks, so only the short sum is done in Python;
    - the rest is single IEEE operations, the same in Python and NumPy.
    """
    block = flat[fidx]
    z = vals.dot(block).tolist()
    top = max(z)
    e = [float(np.exp(v - top)) for v in z]
    if len(e) < 8:
        total = 0.0
        for v in e:
            total += v
    else:
        total = float(np.sum(e))
    s = [v / total for v in e]
    g = s.copy()
    g[y_index] -= 1.0
    flat.put(fidx, [
        w - eta * (gr * v)
        for w, gr, v in zip(block.ravel().tolist(), g * len(fidx), vrep)
    ])
    return s


def gradient(weights, xi, y_index):
    """Cross-entropy gradient for one sample, restricted to touched columns."""
    y = int(indices(y_index, "label index", stop=weights.shape[0]))
    cols = np.asarray(xi.indices, dtype=np.int64)
    vals = np.asarray(xi.values, dtype=np.float64)
    g = softmax(weights[:, cols] @ vals)
    g[y] -= 1.0
    return SparseGradient(indices=cols, block=np.outer(g, vals))


def sgd_step(weights, xi, y_index, eta):
    """Apply one closed-form SGD update in place and return the weights."""
    eta = positive(eta, "learning rate")
    if weights.dtype.kind != "f":
        raise TypeError("weights must be a floating-point array, got %s" % weights.dtype)
    k, m = weights.shape
    y = int(indices(y_index, "label index", stop=k))
    cols = np.asarray(xi.indices, dtype=np.int64)
    vals = np.asarray(xi.values, dtype=np.float64)
    work = np.ascontiguousarray(weights)
    _kernel(work.reshape(-1), cols[:, None] + np.arange(k) * m, vals, vals.repeat(k).tolist(), y, eta)
    if work is not weights:
        weights[...] = work
    return weights


def _sum_in_order(losses):
    """Sum of an array of losses, added one at a time in order.  NumPy's
    array log rounds as its scalar log, so this is the total that scoring
    one sample at a time gives, bit for bit."""
    total = 0.0
    for v in losses.tolist():
        total += v
    return total


def train(train_points, train_labels, support_indices, config, radius_margin=1.0):
    """Fit the space, precompute embeddings and run SGD.

    Returns the trained model and a report.  Two calls with identical
    inputs and config produce bit-identical weight matrices.
    """
    pts = _points(train_points)
    labels = [str(v) for v in train_labels]
    if len(labels) != pts.shape[0]:
        raise ValueError("labels and points disagree: %d vs %d" % (len(labels), pts.shape[0]))
    encoding = LabelEncoding.from_labels(labels)
    y = np.array([encoding.index(v) for v in labels], dtype=np.int64)

    space = fit_space(pts, support_indices, radius_margin=radius_margin)
    support_labels = y[np.asarray(support_indices, dtype=np.int64)]
    cached = precompute_embeddings(space, pts, y)
    return train_cached(space, cached, support_labels, encoding, config)


def _levels(order, cols, m):
    """The level of each step of an epoch's order: one more than the
    highest level of any earlier step that shares a weight column with it.
    Steps of one level share no column, and each column's steps fall in
    increasing levels in their order in the epoch."""
    last = [0] * m
    get = last.__getitem__
    levels = []
    for touched in map(cols.__getitem__, order):
        level = max(map(get, touched)) + 1
        for j in touched:
            last[j] = level
        levels.append(level)
    return levels


def _kernel_epoch(flat, rows, order, eta):
    """One epoch as one kernel call per step.  `rows` is (packed rows, label
    indices).  Returns the true-class probability of each step in order,
    the number of hits and the number of kernel calls."""
    packed, y = rows
    kept = []
    hits = 0
    for i in order.tolist():
        y_i = y[i]
        s = _kernel(flat, *packed[i], y_i, eta)
        kept.append(s[y_i])
        hits += s.index(max(s)) == y_i
    return np.array(kept), hits, len(kept)


@dataclass
class _LevelRows:
    """The rows as _level_epoch reads them: per row, its weight columns
    (cols), the index of its width group (group) and its place in that
    group (slot); per group, the columns and values of _width_groups and
    the labels of its rows."""

    m: int
    cols: list
    group: np.ndarray
    slot: np.ndarray
    groups: list


def _width_groups(batch, k, m):
    """Per embedding width c of an EmbeddingBatch: its rows of width c,
    their columns as indices into the flattened C-ordered (k, m) weights,
    shape (rows, c, k), and their values, (rows, c)."""
    widths = np.diff(batch.indptr)
    for c in np.unique(widths).tolist():
        members = np.flatnonzero(widths == c)
        at = batch.indptr[members, None] + np.arange(c)
        yield members, batch.indices[at][:, :, None] + np.arange(k) * m, batch.values[at]


def _level_rows(batch, y, k, m):
    ends = batch.indptr.tolist()
    cols = batch.indices.tolist()
    group, slot = np.zeros((2, len(batch)), dtype=np.int64)
    groups = []
    for g, (members, fidx, vals) in enumerate(_width_groups(batch, k, m)):
        group[members] = g
        slot[members] = np.arange(members.size)
        groups.append((fidx, vals, y[members]))
    cols = [cols[a:b] for a, b in zip(ends, ends[1:])]
    return _LevelRows(m=m, cols=cols, group=group, slot=slot, groups=groups)


def _level_epoch(flat, rows, order, eta):
    """One epoch level by level, bit-identical to _kernel_epoch.

    The steps of one level and width run as one batch.  Each column sees
    the updates of the sequential order, and each batch rounds as the
    kernel does:
    - the stacked matmul of (1, c) values and (c, k) blocks is, per step,
      the gemv of the kernel's `vals.dot(block)`, FMAs included (an einsum
      or an elementwise product is not);
    - NumPy's array exp rounds as its scalar call;
    - np.sum along the rows of a C-ordered array adds as the kernel does,
      left to right below 8 classes and in pairwise blocks from 8.
    Returns what _kernel_epoch does, with the number of batches.
    """
    levels = np.array(_levels(order.tolist(), rows.cols, rows.m))
    key = levels * len(rows.groups) + rows.group[order]
    steps = np.argsort(key, kind="stable")
    cuts = (np.flatnonzero(np.diff(key[steps])) + 1).tolist()
    kept = np.empty(order.size)
    hits = 0
    for a, b in zip([0] + cuts, cuts + [order.size]):
        at = steps[a:b]
        picked = order[at]
        fidx, vals, y = rows.groups[rows.group[picked[0]]]
        sub = rows.slot[picked]
        fidx, vals, y = fidx[sub], vals[sub], y[sub]
        block = flat[fidx]
        s = softmax(np.matmul(vals[:, None, :], block)[:, 0])
        true = (np.arange(y.size), y)
        kept[at] = s[true]
        hits += int(np.count_nonzero(s.argmax(axis=1) == y))
        s[true] -= 1.0
        flat[fidx] = block - eta * (s[:, None, :] * vals[:, :, None])
    return kept, hits, len(cuts) + 1


def train_cached(space, cached, support_labels, encoding, config):
    """SGD over precomputed embeddings; lets callers sweep hyperparameters.

    The first epoch's order decides how every epoch runs: level by level
    when it averages at least BATCH_MIN_WIDTH steps per level, else one
    kernel call per step.  Both give the same bits.  A cache with no rows
    raises InvalidCount.
    """
    if not len(cached):
        raise InvalidCount("cannot train on an embedding cache with no rows")
    k = encoding.k
    m = space.support.size
    y = indices(cached.y, "label index", stop=k)
    rng = np.random.default_rng(config.seed)
    weights = init_weights(config.init_mode, rng, k, m, support_labels)
    model = SmnnModel(space, encoding, weights, support_labels)

    flat = weights.reshape(-1)
    n_rows = len(cached)
    eta = float(config.learning_rate)

    def draw():
        return rng.permutation(n_rows) if config.shuffle else np.arange(n_rows)

    order = draw()
    epoch, rows = _level_epoch, _level_rows(cached.batch, y, k, m)
    if n_rows < BATCH_MIN_WIDTH * max(_levels(order.tolist(), rows.cols, m)):
        epoch, rows = _kernel_epoch, (_pack(cached.batch, k, m), y.tolist())

    history = []
    n_batches = 0
    started = time.perf_counter()
    for done in range(config.epochs):
        if done:
            order = draw()
        kept, hits, batches = epoch(flat, rows, order, eta)
        n_batches += batches
        total = _sum_in_order(cross_entropy(kept))
        history.append((total / n_rows, hits / n_rows))
    wall_time = time.perf_counter() - started
    return model, TrainReport(history, wall_time, config.epochs * n_rows, n_batches)


@dataclass
class EvalReport:
    """Scores of a labelled set.

    n_out_of_hull        : rows embedded through a virtual simplex.
    n_outside_ball       : rows outside the bounding ball.
    n_no_virtual_simplex : rows in the ball that no virtual simplex
                           contains, behind a hull that misses the centroid.
    Rows of the last two kinds count as misses with loss log(k) in
    accuracy and mean_loss, but not in the confusion.
    """

    accuracy: float
    mean_loss: float
    confusion: np.ndarray
    n_out_of_hull: int
    n_outside_ball: int
    n_no_virtual_simplex: int

    def to_dict(self, encoding=None):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["confusion"] = self.confusion.tolist()
        if encoding is not None:
            out["labels"] = list(encoding.labels)
        return out


def evaluate(model, points, labels):
    """Accuracy, mean loss and confusion counts on a labelled set.

    Points whose translation leaves the bounding ball, and points behind
    a support hull that misses the centroid, cannot be embedded; they are
    scored as misclassified with chance-level loss log(k) and counted in
    n_outside_ball and n_no_virtual_simplex respectively.  Queries of the
    wrong shape or with a non-finite coordinate raise, as in xi_batch.  A
    set with no rows raises InvalidCount.
    """
    pts = _points(points)
    translated, in_ball = translate_queries(model.space, pts)
    if not in_ball.size:
        raise InvalidCount("cannot evaluate a set with no rows")
    inside = np.nonzero(in_ball)[0]
    labels = [str(v) for v in labels]
    if len(labels) != pts.shape[0]:
        raise ValueError("labels and points disagree")
    y = np.array([model.encoding.index(v) for v in labels], dtype=np.int64)
    k = model.encoding.k

    batch, found = embed_translated(model.space, translated[inside])
    flat = model.weights.reshape(-1)
    z = np.empty((len(batch), k))
    for members, fidx, vals in _width_groups(batch, k, model.weights.shape[1]):
        z[members] = np.matmul(vals[:, None, :], flat[fidx])[:, 0]
    probs = softmax(z[found])
    y = y[inside[found]]
    pred = probs.argmax(axis=1)
    n_rows = pts.shape[0]
    n_outside = n_rows - inside.size
    n_missing = inside.size - y.size
    total_loss = _sum_in_order(cross_entropy(probs[np.arange(y.size), y]))
    total_loss += (n_outside + n_missing) * np.log(k)

    return EvalReport(
        accuracy=int((pred == y).sum()) / n_rows,
        mean_loss=float(total_loss / n_rows),
        confusion=np.bincount(y * k + pred, minlength=k * k).reshape(k, k),
        n_out_of_hull=int(np.count_nonzero(batch.facet[:, 0] >= 0)),
        n_outside_ball=n_outside,
        n_no_virtual_simplex=n_missing,
    )
