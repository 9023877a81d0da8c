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

import functools
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .embedding import embed_batch, embed_translated, fit_space, translate_queries
from .errors import InvalidCount, finite, indices, integer, positive, sparse_row
from .geometry import as_cloud
from .model import LabelEncoding, SmnnModel, _support_labels, cross_entropy, init_weights, softmax

INIT_MODES = ("uniform01", "one_hot")

# train_cached runs its epochs level by level when the cache holds at
# least this many rows per row on its busiest weight column, and one
# kernel call per step otherwise.  A column's rows fall in distinct
# levels, so that ratio bounds every epoch's mean level width.  See the
# README's "Level schedule" for the sweep behind the cut.
BATCH_MIN_WIDTH = 8


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0
    init_mode: str = "uniform01"
    shuffle: bool = True

    def __post_init__(self):
        self.learning_rate = positive(self.learning_rate, "learning rate")
        self.epochs = integer(self.epochs, "epochs", low=1)
        self.seed = integer(self.seed, "seed")
        if self.init_mode not in INIT_MODES:
            raise ValueError("init_mode must be one of %r" % (INIT_MODES,))
        if not isinstance(self.shuffle, (bool, np.bool_)):
            raise ValueError("shuffle must be a bool, got %r" % (self.shuffle,))
        self.shuffle = bool(self.shuffle)


@dataclass
class TrainReport:
    """Per-epoch running mean loss and accuracy, accumulated sample by
    sample as the weights move; wall time in seconds; the number of SGD
    steps (epochs times rows) and of the batches they ran in: one kernel
    call a step, or on the level path the fixed batches and per level one
    batch a shared width, width 1 counting as the widest.  n_exterior
    counts the training rows embedded through a virtual simplex;
    sphere_mass_mean and sphere_mass_max are their mean and largest
    sphere weight, or 0."""

    history: list = field(default_factory=list)
    wall_time: float = 0.0
    n_steps: int = 0
    n_batches: int = 0
    n_exterior: int = 0
    sphere_mass_mean: float = 0.0
    sphere_mass_max: float = 0.0

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
    """The EmbeddingBatch of a training set and one label index per row;
    labels that are not integers, or not one per row, raise ValueError."""

    batch: object
    y: np.ndarray

    def __post_init__(self):
        self.y = indices(self.y, "label index")
        if self.y.shape != (len(self.batch),):
            raise ValueError(
                "labels and points disagree: label shape %s, point shape %s" % (self.y.shape, self.batch.facet.shape)
            )

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
        """The (k, m) gradient: the indices follow the support-index rule of
        errors.sparse_row, the block holds one finite column per index, and
        m is an integer of at least 1."""
        m = integer(m, "m", low=1)
        cols = indices(self.indices, "support index", stop=m)
        block = finite(self.block, "a gradient block")
        if cols.ndim != 1 or block.ndim != 2 or block.shape[1:] != cols.shape:
            raise ValueError(
                "a gradient block of shape %s does not fit %d support indices" % (block.shape, cols.size)
            )
        dense = np.zeros((block.shape[0], m))
        dense[:, cols] = block
        return dense


def precompute_embeddings(space, train_points, y_encoded):
    """Embed every training point once; y_encoded are label indices."""
    return CachedEmbedding(embed_batch(space, train_points), y_encoded)


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
    cols, vals = sparse_row(xi.indices, xi.values, weights.shape[1])
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
    cols, vals = sparse_row(xi.indices, xi.values, m)
    work = np.ascontiguousarray(weights)
    _kernel(work.reshape(-1), cols[:, None] + np.arange(k) * m, vals, vals.repeat(k).tolist(), y, eta)
    if work is not weights:
        weights[...] = work
    return weights


def _sum_in_order(losses):
    """Sum of an array of losses, added one at a time from 0.0 in order
    (np.add.accumulate adds left to right).  NumPy's array log rounds as
    its scalar log, so this is the total that scoring one sample at a time
    gives, bit for bit."""
    # The leading 0.0 turns a sum of -0.0 losses (true probabilities of
    # exactly 1) into 0.0, as a running total from 0.0 does.
    return 0.0 + float(np.add.accumulate(losses)[-1]) if losses.size else 0.0


def train(train_points, train_labels, support_indices, config, radius_margin=1.0):
    """Fit the space, precompute embeddings and run SGD.

    Returns the trained model and a report.  Two calls with identical
    inputs and config produce bit-identical weight matrices.
    """
    cloud = as_cloud(train_points)
    labels = [str(v) for v in train_labels]
    encoding = LabelEncoding.from_labels(labels)
    y = encoding.encode(labels, cloud.size)

    space = fit_space(cloud, support_indices, radius_margin=radius_margin)
    support_labels = y[np.asarray(support_indices, dtype=np.int64)]
    cached = precompute_embeddings(space, cloud, y)
    return train_cached(space, cached, support_labels, encoding, config)


def _levels(order, rows):
    """The shared steps of an epoch's order, and the level of each: one
    more than the highest level of any earlier step that shares a weight
    column with it.  Steps of one level share no column, and each column's
    steps fall in increasing levels in their order in the epoch.  A row
    that shares no column with another row is level 1 in every order, so
    only the shared rows are scanned."""
    order = order[rows.shared[order]]
    last = [0] * rows.m
    get = last.__getitem__
    levels = []
    for touched in map(rows.cols.__getitem__, order.tolist()):
        level = max(map(get, touched)) + 1
        for j in touched:
            last[j] = level
        levels.append(level)
    return order, np.array(levels, dtype=np.int64)


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
    """The rows as _level_epoch reads them.  Per width, the rows that share
    no column (fixed) and the shared rows (groups, where width 1 rides in
    the widest), each as row indices, the columns and values of
    _width_groups, and one-hot labels; per row, its label (y), its weight
    columns (cols), whether one of them is another row's too (shared), and
    for a shared row the index of its group (group) and its place (slot)."""

    k: int
    m: int
    y: np.ndarray
    cols: list
    shared: np.ndarray
    group: np.ndarray
    slot: np.ndarray
    fixed: list
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


def _level_rows(batch, y, k, m, uses):
    """The _LevelRows of an EmbeddingBatch, label indices y and rows per column (uses)."""
    ends = batch.indptr.tolist()
    cols = batch.indices.tolist()
    cols = [cols[a:b] for a, b in zip(ends, ends[1:])]
    # Per entry, whether its column has another entry; per row, any such.
    owner = np.repeat(np.arange(len(batch)), np.diff(batch.indptr))
    reused = uses[batch.indices] > 1
    shared = np.bincount(owner, weights=reused, minlength=len(batch)) > 0
    hot = np.eye(k)[y]
    fixed, groups = [], []
    for members, fidx, vals in _width_groups(batch, k, m):
        for part, mine in ((fixed, ~shared[members]), (groups, shared[members])):
            if mine.any():
                part.append((members[mine], fidx[mine], vals[mine], hot[members[mine]]))
    if len(groups) > 1 and groups[0][2].shape[1] == 1:
        # The shared width-1 rows join the widest group.  Padded with value
        # 0.0 on the k zero slots past the weights, a logit is v * w plus
        # exact zeros: the unpadded bits under any summation order, which
        # a wider row does not keep.
        at, fidx, vals, one = groups.pop(0)
        spare = (at.size, groups[-1][2].shape[1] - 1)
        fidx = np.concatenate((fidx, np.broadcast_to(k * m + np.arange(k), spare + (k,))), axis=1)
        padded = (at, fidx, np.concatenate((vals, np.zeros(spare)), axis=1), one)
        groups[-1] = tuple(map(np.concatenate, zip(groups[-1], padded)))
    group, slot = np.zeros((2, len(batch)), dtype=np.int64)
    for i, (at, *_) in enumerate(groups):
        group[at], slot[at] = i, np.arange(at.size)
    return _LevelRows(k, m, y, cols, shared, group, slot, fixed, groups)


def _batch(flat, probs, at, fidx, vals, hot, eta):
    """One batch of steps on disjoint columns: rows `at`, their columns in
    the flattened weights, values and one-hot labels.  Writes each step's
    softmax row to probs at its row, and re-zeroes the k slots past the
    weights, which padded entries read and write."""
    block = flat[fidx]
    s = softmax(np.matmul(vals[:, None, :], block)[:, 0])
    probs[at] = s
    flat[fidx] = block - eta * ((s - hot)[:, None, :] * vals[:, :, None])
    flat[-hot.shape[1]:] = 0.0


def _level_epoch(flat, rows, order, eta, scan=None):
    """One epoch level by level, bit-identical to _kernel_epoch.  `flat` is
    the flattened weights and k zero slots; scan is _levels of the order,
    which is taken here when the caller does not hold it.

    The rows that share no column commute with every step, so they run as
    the fixed batches of _level_rows.  The shared steps of one level and
    group run as one batch.  Each column sees the updates of the
    sequential order, and each batch rounds as the kernel does:
    - the stacked matmul of (1, c) values and (c, k) blocks is, per step,
      the gemv of the kernel's `vals.dot(block)`, FMAs included (an einsum
      or an elementwise product is not);
    - NumPy's array exp rounds as its scalar call;
    - np.sum along the rows of a C-ordered array adds as the kernel does,
      left to right below 8 classes and in pairwise blocks from 8;
    - subtracting a one-hot 0.0 leaves a probability as it is.
    Returns what _kernel_epoch does, read once from the batches' softmax
    rows, with the number of batches.
    """
    batches = list(rows.fixed)
    if rows.groups:
        shared, levels = scan or _levels(order, rows)
        key = levels * len(rows.groups) + rows.group[shared]
        steps = np.argsort(key, kind="stable")
        cuts = (np.flatnonzero(np.diff(key[steps])) + 1).tolist()
        for a, b in zip([0] + cuts, cuts + [shared.size]):
            picked = shared[steps[a:b]]
            _, fidx, vals, hot = rows.groups[rows.group[picked[0]]]
            sub = rows.slot[picked]
            batches.append((picked, fidx[sub], vals[sub], hot[sub]))
    probs = np.empty((rows.y.size, rows.k))
    for batch in batches:
        _batch(flat, probs, *batch, eta)
    hits = int(np.count_nonzero(probs.argmax(axis=1) == rows.y))
    return probs[order, rows.y[order]], hits, len(batches)


def train_cached(space, cached, support_labels, encoding, config):
    """SGD over precomputed embeddings; lets callers sweep hyperparameters.

    The cache picks how every epoch runs, whatever the seed: level by level
    when its rows number BATCH_MIN_WIDTH or more times those on its busiest
    weight column, else one kernel call per step; both give the same bits.
    Without shuffling every epoch takes one order, so the levels of that
    order, which the busiest column's rows bound from below, replace them,
    and that one scan serves every epoch.
    An empty cache raises InvalidCount, and a diverging rate NonFiniteWeights.
    """
    if not len(cached):
        raise InvalidCount("cannot train on an embedding cache with no rows")
    k = encoding.k
    m = space.support.size
    y = indices(cached.y, "label index", stop=k)
    support_labels = _support_labels(support_labels, k, m)
    rng = np.random.default_rng(config.seed)
    # The k zero slots past the weights are read by padded level rows.
    flat = np.append(init_weights(config.init_mode, rng, k, m, support_labels), np.zeros(k))
    n_rows = len(cached)
    eta = float(config.learning_rate)

    uses = np.bincount(cached.batch.indices, minlength=m)
    level = n_rows >= BATCH_MIN_WIDTH * uses.max()
    scan = None
    if level:
        rows = _level_rows(cached.batch, y, k, m, uses)
        if not config.shuffle:
            scan = _levels(np.arange(n_rows), rows)
            level = n_rows >= BATCH_MIN_WIDTH * scan[1].max(initial=1)
    if level:
        epoch = functools.partial(_level_epoch, scan=scan)
    else:
        epoch, rows = _kernel_epoch, (_pack(cached.batch, k, m), y.tolist())

    history = []
    n_batches = 0
    started = time.perf_counter()
    for _ in range(config.epochs):
        order = rng.permutation(n_rows) if config.shuffle else np.arange(n_rows)
        kept, hits, batches = epoch(flat, rows, order, eta)
        n_batches += batches
        history.append((_sum_in_order(cross_entropy(kept)) / n_rows, hits / n_rows))
    wall_time = time.perf_counter() - started
    model = SmnnModel(space, encoding, flat[:-k].reshape(k, m), support_labels)
    mass = cached.batch.sphere_mass[cached.batch.facet[:, 0] >= 0]
    return model, TrainReport(
        history,
        wall_time,
        config.epochs * n_rows,
        n_batches,
        n_exterior=mass.size,
        sphere_mass_mean=float(mass.mean()) if mass.size else 0.0,
        sphere_mass_max=float(mass.max(initial=0.0)),
    )


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
    translated, in_ball = translate_queries(model.space, points)
    n_rows = in_ball.size
    if not n_rows:
        raise InvalidCount("cannot evaluate a set with no rows")
    inside = np.nonzero(in_ball)[0]
    y = model.encoding.encode(labels, n_rows)
    k = model.encoding.k

    batch, found = embed_translated(model.space, translated[inside])
    flat = model.weights.reshape(-1)
    z = np.empty((len(batch), k))
    for members, fidx, vals in _width_groups(batch, k, model.weights.shape[1]):
        z[members] = np.matmul(vals[:, None, :], flat[fidx])[:, 0]
    probs = softmax(z[found])
    y = y[inside[found]]
    pred = probs.argmax(axis=1)
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
