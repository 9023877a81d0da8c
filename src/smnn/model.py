"""Softmax classifier over sparse barycentric embeddings.

The model owns a (k, m) weight matrix: one column per support point, one
row per class.  Logits are the weight columns of the active support
indices combined with the embedding weights; the sphere mass of exterior
queries carries no weight column and therefore no logit contribution.
Probability vectors are plain float64 arrays in label-encoding order.
"""

from dataclasses import dataclass

import numpy as np

from .embedding import xi as _xi
from .errors import UnknownLabel, indices, integer

# Probabilities are floored at this value inside log-loss.
LOSS_FLOOR = 1e-12


@dataclass(frozen=True)
class LabelEncoding:
    """Bijection between class label names and indices 0..k-1."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(str(v) for v in self.labels)
        if len(labels) < 2:
            raise ValueError("need at least two classes, got %r" % (labels,))
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate label names in %r" % (labels,))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_labels(cls, labels):
        """Encoding over the sorted distinct label names."""
        return cls(tuple(sorted(set(str(v) for v in labels))))

    @property
    def k(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise UnknownLabel("unknown label %r, expected one of %r" % (label, self.labels))


@dataclass
class SmnnModel:
    """Trained simplicial-map classifier.

    space          : embedding geometry (centroid, radius, triangulation).
    encoding       : class label names in index order.
    weights        : (k, m) float64 matrix, column t belongs to support point t.
    support_labels : (m,) int array, encoded label of each support point.
    """

    space: object
    encoding: LabelEncoding
    weights: np.ndarray
    support_labels: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        k, m = self.weights.shape
        if k != self.encoding.k:
            raise ValueError("weight rows %d != number of classes %d" % (k, self.encoding.k))
        if m != self.space.support.size:
            raise ValueError("weight columns %d != support size %d" % (m, self.space.support.size))
        if not np.isfinite(self.weights).all():
            raise ValueError("weights hold a non-finite number")
        self.support_labels = _support_labels(self.support_labels, k, m)


def _support_labels(labels, k, m):
    """The encoded label of each of m support points, as int64 in [0, k)."""
    labels = indices(labels, "support label", stop=k)
    if labels.shape != (m,):
        raise ValueError("support_labels must have shape (%d,)" % m)
    return labels


def softmax(z):
    """Numerically stable softmax along the last axis: one (k,) logit
    vector, or (Q, k) rows of them.  Each row is shifted by its max before
    exponentiating, and its result equals the softmax of that row alone
    bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(p_true):
    """-log of true-class probabilities, each floored at LOSS_FLOOR; a
    scalar or an array of them."""
    return -np.log(np.maximum(p_true, LOSS_FLOOR))


def init_weights(mode, seed, k, m, support_labels=None):
    """Initial (k, m) weight matrix.

    'uniform01' draws i.i.d. from [0, 1); 'one_hot' sets column t to the
    indicator of the label of support point t, which makes the classifier
    reproduce the support labelling exactly before any training.
    """
    if mode == "uniform01":
        if not isinstance(seed, np.random.Generator):
            seed = np.random.default_rng(integer(seed, "seed"))
        return seed.random((k, m))
    if mode == "one_hot":
        if support_labels is None:
            raise ValueError("one_hot initialization requires support_labels")
        support_labels = _support_labels(support_labels, k, m)
        weights = np.zeros((k, m))
        weights[support_labels, np.arange(m)] = 1.0
        return weights
    raise ValueError("unknown init mode %r" % (mode,))


def logits(model, xi):
    """Class scores for one sparse embedding; sphere mass contributes nothing."""
    return model.weights[:, xi.indices] @ xi.values


def forward(model, x_raw):
    """Class probability vector for one raw query inside the bounding ball."""
    return softmax(logits(model, _xi(model.space, x_raw)))


def predict(model, x_raw):
    """Predicted label name; argmax ties resolve to the lowest class index."""
    probs = forward(model, x_raw)
    return model.encoding.labels[int(np.argmax(probs))]


def loss(model, x_raw, true_label):
    """Cross-entropy of the forward probabilities against the true label."""
    probs = forward(model, x_raw)
    return float(cross_entropy(probs[model.encoding.index(true_label)]))
