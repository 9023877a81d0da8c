"""The one scoring rule: the softmax of W[:, idx] @ xi, its argmax and the
floored cross-entropy, read alike by forward, predict, loss, gradient and
evaluate.  evaluate scores the rows of its EmbeddingBatch by width group
and must give the report of the per-row oracle (reference_evaluate in
conftest, which embeds through xi) bit for bit."""

import warnings

import numpy as np
import pytest

import smnn
from smnn.embedding import embed_translated, translate_queries
from smnn.model import logits
from smnn.training import _kernel, _pack

from conftest import batch_of, reference_evaluate, reference_softmax


def _sized_support(pts, size):
    return smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, size, 0), 0)


def _trained(train, support, epochs):
    config = smnn.TrainConfig(epochs=epochs, seed=0)
    return smnn.train(train.points.points, train.labels, support, config)[0]


def _support_rows(train, support):
    """Up to 20 support points, exactly as given to fit_space, with their
    labels: each embeds as one support index, a group of width 1."""
    picked = np.asarray(support)[:20]
    return train.points.points[picked], [train.labels[i] for i in picked]


def _with_exterior_rows(model, test, train, support):
    """The held-out rows, the same rows pushed radially to halfway between
    the largest support norm and the ball radius (outside the hull, inside
    the ball), support points, and one row outside the ball."""
    space = model.space
    pts = test.points.points
    reach = 0.5 * (np.linalg.norm(space.support.points, axis=1).max() + space.radius)
    t = pts - space.centroid
    pushed = space.centroid + t * (reach / np.linalg.norm(t, axis=1)[:, None])
    far = space.centroid + 2.0 * space.radius * np.eye(space.dim)[0]
    at, at_labels = _support_rows(train, support)
    rows = np.vstack([pts, pushed, at, far])
    return model, rows, test.labels * 2 + at_labels + test.labels[:1]


def _spiral():
    train, test = smnn.split(smnn.gen_spiral(400, seed=0), 0.75, seed=0)
    support = _sized_support(train.points.points, 95)
    return _with_exterior_rows(_trained(train, support, 20), test, train, support)


def _clusters_3d():
    # 701 rows: more than one locate_batch chunk, over a complex large
    # enough for the cell index.
    data = smnn.gen_clusters(1400, n_features=3, class_sep=1.5, seed=0)
    train, test = smnn.split(data, 0.75, seed=0)
    support = _sized_support(train.points.points, 1000)
    return _with_exterior_rows(_trained(train, support, 3), test, train, support)


def _iris():
    train, test = smnn.split(smnn.load_iris(), 0.75, seed=0)
    pts = train.points.points
    support = np.sort(np.unique(pts, axis=0, return_index=True)[1])
    return _with_exterior_rows(_trained(train, support, 20), test, train, support)


def _ten_class_ring():
    """Ten blobs on a ring, supported by the rows right of the centroid
    only, so the hull misses the centroid: held-out rows take all three
    embedding routes or have no virtual simplex, as does the centroid."""
    rng = np.random.default_rng(0)
    angles = 2.0 * np.pi * np.arange(10) / 10
    centers = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = np.vstack([c + 0.8 * rng.standard_normal((100, 2)) for c in centers])
    labels = [str(c) for c in range(10) for _ in range(100)]
    train, test = smnn.split(smnn.LabeledDataset(pts, labels), 0.75, seed=0)
    tp = train.points.points
    support = np.nonzero(tp[:, 0] - tp[:, 0].mean() > 1.0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        space = smnn.fit_space(tp, support)
    encoding = smnn.LabelEncoding.from_labels(train.labels)
    y = np.array([encoding.index(v) for v in train.labels])
    weights = smnn.init_weights("uniform01", 0, encoding.k, support.size)
    model = smnn.SmnnModel(space, encoding, weights, y[support])
    far = space.centroid + 2.0 * space.radius * np.eye(2)[0]
    at, at_labels = _support_rows(train, support)
    rows = np.vstack([test.points.points, at, space.centroid, far])
    return model, rows, test.labels + at_labels + ["0", "1"]


CASES = {
    "spiral": _spiral,
    "clusters3d": _clusters_3d,
    "iris": _iris,
    "ten-class-ring": _ten_class_ring,
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


def _bytes(value):
    return np.float64(value).tobytes()


class TestEvaluateExactness:
    def test_report_equals_per_row_oracle(self, case):
        model, rows, labels = case
        report = smnn.evaluate(model, rows, labels)
        expected = reference_evaluate(model, rows, labels)
        translated, in_ball = translate_queries(model.space, rows)
        batch, found = embed_translated(model.space, translated[in_ball])
        assert (np.diff(batch.indptr)[found] == 1).sum() >= 20
        assert _bytes(report.accuracy) == _bytes(expected.accuracy)
        assert _bytes(report.mean_loss) == _bytes(expected.mean_loss)
        assert report.confusion.dtype == expected.confusion.dtype
        assert np.array_equal(report.confusion, expected.confusion)
        assert report.n_out_of_hull == expected.n_out_of_hull > 0
        assert report.n_outside_ball == expected.n_outside_ball >= 1
        assert report.n_no_virtual_simplex == expected.n_no_virtual_simplex

    def test_ring_has_rows_without_a_virtual_simplex(self):
        model, rows, labels = _ten_class_ring()
        report = smnn.evaluate(model, rows, labels)
        assert model.encoding.k == 10
        # Held-out rows as well as the centroid row.
        assert report.n_no_virtual_simplex > 1

    def test_each_row_scores_as_forward_predict_and_loss(self, case):
        model, rows, labels = case
        log_k = float(np.log(model.encoding.k))
        probs = []
        zs = []
        for x, label in zip(rows, labels):
            single = smnn.evaluate(model, [x], [label])
            try:
                p = smnn.forward(model, x)
            except (smnn.OutsideBall, smnn.NoContainingVirtualSimplex):
                assert single.accuracy == 0.0 and single.confusion.sum() == 0
                assert _bytes(single.mean_loss) == _bytes(log_k)
                continue
            assert _bytes(single.mean_loss) == _bytes(smnn.loss(model, x, label))
            pred = smnn.predict(model, x)
            assert single.confusion[model.encoding.index(label), model.encoding.index(pred)] == 1
            assert single.accuracy == (pred == label)
            probs.append(p)
            zs.append(logits(model, smnn.xi(model.space, x)))
        assert smnn.softmax(np.array(zs)).tobytes() == np.array(probs).tobytes()


class TestSoftmaxRows:
    @pytest.mark.parametrize("k", range(2, 14))
    def test_rows_equal_one_vector_calls(self, k):
        # From k = 8 NumPy sums the exponentials in pairwise blocks.
        rng = np.random.default_rng(k)
        for q in (1, 3, 1000):
            z = rng.standard_normal((q, k)) * rng.choice([0.1, 1.0, 30.0], size=(q, 1))
            rows = smnn.softmax(z)
            assert rows.shape == (q, k)
            for r in range(q):
                one = smnn.softmax(z[r])
                assert rows[r].tobytes() == one.tobytes()
                assert one.tobytes() == reference_softmax(z[r]).tobytes()

    def test_no_rows(self):
        assert smnn.softmax(np.zeros((0, 3))).shape == (0, 3)


class TestGradientProbabilities:
    def test_gradient_reads_the_kernel_probabilities(self):
        # The kernel's probabilities before its update are the ones the
        # gradient must use.
        rng = np.random.default_rng(8)
        for _ in range(500):
            k = int(rng.integers(2, 14))
            c = int(rng.integers(1, 9))
            m = c + int(rng.integers(0, 4))
            weights = rng.standard_normal((k, m)) * rng.choice([0.1, 1.0, 10.0])
            cols = np.sort(rng.choice(m, size=c, replace=False))
            xi = smnn.SparseXi(indices=cols, values=rng.dirichlet(np.ones(c)))
            y_index = int(rng.integers(k))

            packed = _pack(batch_of([xi]), k, m)[0]
            g = np.array(_kernel(weights.copy().reshape(-1), *packed, y_index, 0.1))
            g[y_index] -= 1.0
            grad = smnn.gradient(weights, xi, y_index)
            assert grad.block.tobytes() == np.outer(g, xi.values).tobytes()
