"""Closed-form gradient, SGD updates, the training loop and evaluation."""

import functools
from dataclasses import replace

import numpy as np
import pytest

import smnn
from smnn import training
from smnn.model import cross_entropy
from smnn.training import (
    BATCH_MIN_WIDTH,
    INIT_MODES,
    _batch,
    _kernel,
    _kernel_epoch,
    _level_epoch,
    _level_rows,
    _levels,
    _pack,
    _sum_in_order,
    precompute_embeddings,
)

from conftest import (
    SQUARE_LABELS,
    SQUARE_MARGIN,
    SQUARE_POINTS,
    batch_of,
    numpy_step,
    numpy_train,
    random_cloud,
    same_bits,
)

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _dense_loss(weights, cols, vals, y_index):
    z = weights[:, cols] @ vals
    e = np.exp(z - z.max())
    return -np.log(e[y_index] / e.sum())


class TestTrainConfig:
    def test_defaults(self):
        cfg = smnn.TrainConfig()
        assert cfg.learning_rate == 0.1
        assert cfg.epochs == 100
        assert cfg.shuffle

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            smnn.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            smnn.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            smnn.TrainConfig(init_mode="gaussian")

    @pytest.mark.parametrize("rate", NON_FINITE)
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            smnn.TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("shuffle", ["no", "", 0, 1, 1.0, None, [True]])
    def test_rejects_non_bool_shuffle(self, shuffle):
        with pytest.raises(ValueError, match="shuffle must be a bool"):
            smnn.TrainConfig(shuffle=shuffle)

    @pytest.mark.parametrize("shuffle", [True, False, np.True_, np.False_])
    def test_accepts_bool_shuffle(self, shuffle):
        assert smnn.TrainConfig(shuffle=shuffle).shuffle == shuffle


class TestGradient:
    def test_matches_probability_form(self, square_model):
        rng = np.random.default_rng(0)
        square_model.weights[:] = rng.standard_normal((2, 4))
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        grad = smnn.gradient(square_model.weights, xi, 1)

        z = square_model.weights[:, xi.indices] @ xi.values
        s = np.exp(z - z.max())
        s /= s.sum()
        s[1] -= 1.0
        assert np.abs(grad.block - np.outer(s, xi.values)).max() < 1e-12
        assert np.array_equal(grad.indices, xi.indices)

    def test_column_sums_vanish(self, square_model):
        # Rows sum to s - e_y over classes, and that vector sums to zero.
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        grad = smnn.gradient(square_model.weights, xi, 0)
        assert np.abs(grad.block.sum(axis=0)).max() < 1e-12

    def test_finite_differences(self, square_model):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            square_model.weights[:] = rng.standard_normal((2, 4))
            x = np.array([0.75, 0.75]) + 0.2 * rng.standard_normal(2)
            xi = smnn.xi(square_model.space, x)
            y_index = int(rng.integers(0, 2))
            grad = smnn.gradient(square_model.weights, xi, y_index)
            cols = np.asarray(xi.indices)
            vals = np.asarray(xi.values)
            for a in range(2):
                for b in range(cols.size):
                    w_plus = square_model.weights.copy()
                    w_minus = square_model.weights.copy()
                    w_plus[a, cols[b]] += h
                    w_minus[a, cols[b]] -= h
                    fd = (
                        _dense_loss(w_plus, cols, vals, y_index)
                        - _dense_loss(w_minus, cols, vals, y_index)
                    ) / (2.0 * h)
                    assert abs(fd - grad.block[a, b]) <= 1e-7 + 1e-6 * abs(fd)

    def test_to_dense_shape(self, square_model):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        dense = smnn.gradient(square_model.weights, xi, 0).to_dense(4)
        assert dense.shape == (2, 4)
        assert np.array_equal(dense[:, 3], [0.0, 0.0])

    def test_bad_label_index(self, square_model):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        for y_index in (2, -1):
            with pytest.raises(ValueError):
                smnn.gradient(square_model.weights, xi, y_index)

    def test_reads_weights_only(self, square_model):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        square_model.weights.flags.writeable = False
        grad = smnn.gradient(square_model.weights, xi, 0)
        assert grad.block.shape == (2, 3)


class TestSgdStep:
    def test_explicit_update(self, square_model):
        rng = np.random.default_rng(1)
        square_model.weights[:] = rng.standard_normal((2, 4))
        before = square_model.weights.copy()
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        expected = before.copy()
        grad = smnn.gradient(before, xi, 1)
        expected[:, grad.indices] -= 0.3 * grad.block

        out = smnn.sgd_step(square_model.weights, xi, 1, 0.3)
        assert out is square_model.weights
        assert np.array_equal(square_model.weights, expected)

    def test_untouched_columns_identical(self, square_model):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        before = square_model.weights.copy()
        smnn.sgd_step(square_model.weights, xi, 0, 0.5)
        assert np.array_equal(square_model.weights[:, 3], before[:, 3])

    def test_touched_column_count_bound(self):
        rng = np.random.default_rng(2)
        pts = random_cloud(rng, 30, 3, spread=2.0)
        space = smnn.fit_space(pts, list(range(30)), radius_margin=1.0)
        for _ in range(100):
            x = pts.mean(axis=0) + 0.5 * rng.standard_normal(3)
            xi = smnn.xi(space, x)
            assert len(xi.indices) <= 4

    def test_single_sample_loss_drops(self, square_model):
        rng = np.random.default_rng(3)
        square_model.weights[:] = rng.standard_normal((2, 4))
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        cols = np.asarray(xi.indices)
        vals = np.asarray(xi.values)
        before = _dense_loss(square_model.weights, cols, vals, 0)
        smnn.sgd_step(square_model.weights, xi, 0, 0.1)
        after = _dense_loss(square_model.weights, cols, vals, 0)
        assert after < before

    def test_positive_rate_required(self, square_model):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        before = square_model.weights.copy()
        for rate in (0.0, -0.1) + NON_FINITE:
            with pytest.raises(ValueError):
                smnn.sgd_step(square_model.weights, xi, 0, rate)
        assert np.array_equal(square_model.weights, before)

    @pytest.mark.parametrize("y_index", [-1, 2])
    def test_label_index_out_of_range(self, square_model, y_index):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        before = square_model.weights.copy()
        with pytest.raises(ValueError, match="label index"):
            smnn.sgd_step(square_model.weights, xi, y_index, 0.1)
        assert np.array_equal(square_model.weights, before)

    @pytest.mark.parametrize("cols, vals", [
        ([-1, 1], [0.5, 0.5]),
        ([4, 1], [0.5, 0.5]),
        ([1.0, 2.0], [0.5, 0.5]),
        ([True, False], [0.5, 0.5]),
        ([1, 2, 3], [0.5, 0.5]),
    ])
    def test_bad_support_indices_rejected(self, square_model, cols, vals):
        # -1 would update column 3 and 4 lies past the 4 columns.
        xi = smnn.SparseXi(np.array(cols), np.array(vals))
        before = square_model.weights.copy()
        with pytest.raises(ValueError, match="support ind"):
            smnn.gradient(square_model.weights, xi, 0)
        with pytest.raises(ValueError, match="support ind"):
            smnn.sgd_step(square_model.weights, xi, 0, 0.1)
        assert np.array_equal(square_model.weights, before)

    def test_integer_weights_rejected(self, square_model):
        # Writing float updates back into an integer matrix would truncate.
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        weights = np.ones((2, 4), dtype=np.int64)
        with pytest.raises(TypeError):
            smnn.sgd_step(weights, xi, 0, 0.1)
        assert (weights == 1).all()

    def test_updates_non_contiguous_weights_in_place(self, square_model):
        rng = np.random.default_rng(4)
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        dense = rng.standard_normal((2, 4))
        expected = smnn.sgd_step(dense.copy(), xi, 1, 0.3)

        fortran = np.asfortranarray(dense)
        assert smnn.sgd_step(fortran, xi, 1, 0.3) is fortran
        assert fortran.flags.f_contiguous
        assert fortran.tobytes() == expected.tobytes()

        base = np.zeros((2, 8))
        base[:, ::2] = dense
        view = base[:, ::2]
        assert smnn.sgd_step(view, xi, 1, 0.3) is view
        assert base[:, ::2].tobytes() == expected.tobytes()
        assert not base[:, 1::2].any()

    def test_step_reports_preupdate_loss(self, square_model):
        # The kernel returns the probabilities before its update; training
        # scores each step by them.
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        cols = np.asarray(xi.indices)
        vals = np.asarray(xi.values)
        expected = _dense_loss(square_model.weights, cols, vals, 1)
        before = square_model.weights.copy()
        probs = _kernel(square_model.weights.reshape(-1), *_pack(batch_of([xi]), 2, 4)[0], 1, 0.1)
        assert abs(-np.log(probs[1]) - expected) < 1e-12
        assert not np.array_equal(square_model.weights, before)


class TestTrain:
    def test_deterministic(self):
        cfg = smnn.TrainConfig(epochs=40, seed=5)
        m1, r1 = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)
        m2, r2 = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)
        assert np.array_equal(m1.weights, m2.weights)
        assert r1.history == r2.history

    def test_history_shape_and_progress(self):
        cfg = smnn.TrainConfig(epochs=200, seed=0, learning_rate=0.5)
        model, report = smnn.train(
            SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN
        )
        assert len(report.history) == 200
        assert report.wall_time > 0.0
        assert report.n_steps == 200 * 4
        assert report.n_batches == report.n_steps  # four steps per level: the kernel path
        assert report.us_per_step == report.wall_time / report.n_steps * 1e6
        assert report.final_loss < report.history[0][0]
        assert report.final_accuracy == 1.0
        for t, label in enumerate(SQUARE_LABELS):
            assert smnn.predict(model, SQUARE_POINTS[t]) == label

    def test_seed_changes_weights(self):
        cfg_a = smnn.TrainConfig(epochs=5, seed=1)
        cfg_b = smnn.TrainConfig(epochs=5, seed=2)
        m1, _ = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg_a, SQUARE_MARGIN)
        m2, _ = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg_b, SQUARE_MARGIN)
        assert not np.array_equal(m1.weights, m2.weights)

    def test_no_shuffle_is_deterministic(self):
        cfg = smnn.TrainConfig(epochs=10, seed=0, shuffle=False)
        m1, _ = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)
        m2, _ = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)
        assert np.array_equal(m1.weights, m2.weights)

    def test_subset_support(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([
            rng.normal([0.0, 0.0], 0.3, size=(40, 2)),
            rng.normal([3.0, 3.0], 0.3, size=(40, 2)),
        ])
        labels = ["a"] * 40 + ["b"] * 40
        cfg = smnn.TrainConfig(epochs=60, seed=0, learning_rate=0.5)
        model, _ = smnn.train(pts, labels, [0, 5, 12, 40, 47, 61], cfg)
        report = smnn.evaluate(model, pts, labels)
        assert report.accuracy >= 0.95
        assert model.weights.shape == (2, 6)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="labels and points disagree: 2 labels, 4 points"):
            smnn.train(SQUARE_POINTS, ["0", "1"], [0, 1, 2, 3], smnn.TrainConfig())


class TestTrainReportRoutes:
    def test_spiral_support_5_exterior_rows(self):
        # At support 5, 160 of the 300 spiral training rows lie outside the
        # support hull; the report reads them off the embedding record.
        train_ds, _ = smnn.split(smnn.gen_spiral(400, seed=0), 0.75, seed=0)
        pts = train_ds.points.points
        support = smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, 5, seed=0), seed=0)
        _, report = smnn.train(pts, train_ds.labels, support, smnn.TrainConfig(epochs=1))
        space = smnn.fit_space(pts, support)
        mass = [x.sphere_mass for x in (smnn.xi(space, p) for p in pts) if x.facet_used is not None]
        assert report.n_exterior == len(mass) == 160
        assert report.sphere_mass_max == max(mass)
        assert report.sphere_mass_mean == pytest.approx(np.mean(mass), rel=1e-12)
        assert 0.0 < report.sphere_mass_mean < report.sphere_mass_max < 1.0

    def test_no_exterior_rows(self):
        _, report = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], smnn.TrainConfig(epochs=1))
        assert (report.n_exterior, report.sphere_mass_mean, report.sphere_mass_max) == (0, 0.0, 0.0)


class TestTrainCached:
    def test_matches_train(self):
        cfg = smnn.TrainConfig(epochs=30, seed=9)
        direct, _ = smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)

        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        y = np.array([encoding.index(v) for v in SQUARE_LABELS])
        space = smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=SQUARE_MARGIN)
        cached = precompute_embeddings(space, SQUARE_POINTS, y)
        rebuilt, _ = smnn.train_cached(space, cached, y, encoding, cfg)
        assert np.array_equal(direct.weights, rebuilt.weights)

    def test_cache_reuse_across_rates(self):
        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        y = np.array([encoding.index(v) for v in SQUARE_LABELS])
        space = smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=SQUARE_MARGIN)
        cached = precompute_embeddings(space, SQUARE_POINTS, y)
        finals = []
        for eta in (0.01, 0.5):
            cfg = smnn.TrainConfig(epochs=50, seed=0, learning_rate=eta)
            _, report = smnn.train_cached(space, cached, y, encoding, cfg)
            finals.append(report.final_loss)
        assert finals[1] < finals[0]


def _training_inputs(pts, labels, support):
    """Space, embedding cache, support labels and encoding of one fit."""
    encoding = smnn.LabelEncoding.from_labels(labels)
    y = np.array([encoding.index(v) for v in labels], dtype=np.int64)
    space = smnn.fit_space(pts, support)
    cached = precompute_embeddings(space, pts, y)
    return space, cached, y[np.asarray(support, dtype=np.int64)], encoding


def _sized_support(pts, size):
    return smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, size, 0), 0)


def _spiral_inputs(size):
    train, _ = smnn.split(smnn.gen_spiral(400, seed=0), 0.75, seed=0)
    pts = train.points.points
    return _training_inputs(pts, train.labels, _sized_support(pts, size))


def _exterior_rows(cached):
    return sum(x.facet_used is not None for x in cached.xis)


def _rows_per_busiest_column(inputs):
    space, cached = inputs[:2]
    return len(cached) / np.bincount(cached.batch.indices, minlength=space.support.size).max()


def _rows(batch, y, k, m):
    """The _LevelRows of a batch, with the column counts train_cached hands in."""
    return _level_rows(batch, np.asarray(y), k, m, np.bincount(batch.indices, minlength=m))


class TestKernelExactness:
    """train_cached, sgd_step and gradient give the bytes of the NumPy step
    (numpy_step in conftest) on every kind of row and class count."""

    @staticmethod
    def assert_matches_numpy_step(inputs, config):
        """Returns whether train_cached ran the level schedule, after
        checking that it did exactly when the cache holds BATCH_MIN_WIDTH
        or more rows per row on its busiest column."""
        model, report = smnn.train_cached(*inputs, config)
        weights, history = numpy_train(*inputs, config)
        assert model.weights.tobytes() == weights.tobytes()
        assert report.history == history
        level_path = _rows_per_busiest_column(inputs) >= training.BATCH_MIN_WIDTH
        assert (report.n_batches < report.n_steps) == level_path
        return level_path

    def assert_both_paths_match(self, inputs, config, monkeypatch):
        """Returns the path train_cached picks, after checking it and the
        other path, forced through BATCH_MIN_WIDTH, against the NumPy step."""
        level_path = self.assert_matches_numpy_step(inputs, config)
        with monkeypatch.context() as forced:
            forced.setattr(training, "BATCH_MIN_WIDTH", len(inputs[1]) + 1 if level_path else 1)
            assert self.assert_matches_numpy_step(inputs, config) != level_path
        return level_path

    @pytest.mark.parametrize("size", [5, 95])
    def test_spiral(self, monkeypatch, size):
        inputs = _spiral_inputs(size)
        assert _exterior_rows(inputs[1]) > 0
        for rate in (0.1, 0.5):
            config = smnn.TrainConfig(learning_rate=rate, epochs=15, seed=1)
            # About 1.9 and 10 rows per row on the busiest column: the
            # kernel, then level by level.
            assert self.assert_both_paths_match(inputs, config, monkeypatch) == (size == 95)

    def test_one_hot_without_shuffle(self):
        config = smnn.TrainConfig(epochs=20, seed=2, init_mode="one_hot", shuffle=False)
        self.assert_matches_numpy_step(_spiral_inputs(9), config)

    def test_clusters_3d(self, monkeypatch):
        data = smnn.gen_clusters(800, n_features=3, class_sep=1.5, seed=0)
        pts = data.points.points
        inputs = _training_inputs(pts, data.labels, _sized_support(pts, 120))
        self.assert_both_paths_match(inputs, smnn.TrainConfig(epochs=3, seed=0), monkeypatch)

    def test_iris_full_support(self):
        # Every row is a support vertex: one touched column, three classes.
        data = smnn.load_iris()
        pts = data.points.points
        support = np.sort(np.unique(pts, axis=0, return_index=True)[1])
        inputs = _training_inputs(pts, data.labels, support)
        assert inputs[3].k == 3
        assert sum(len(x.indices) == 1 for x in inputs[1].xis) > 100
        for rate in (0.01, 0.5):
            config = smnn.TrainConfig(learning_rate=rate, epochs=10, seed=3)
            assert self.assert_matches_numpy_step(inputs, config)

    def test_ten_classes(self, monkeypatch):
        # NumPy sums 8 or more exponentials in pairwise blocks; both paths
        # run, so the kernel's np.sum branch is covered.
        rng = np.random.default_rng(5)
        pts = random_cloud(rng, 240, 2)
        labels = [str(v) for v in rng.integers(0, 10, size=240)]
        inputs = _training_inputs(pts, labels, _sized_support(pts, 60))
        assert inputs[3].k == 10
        self.assert_both_paths_match(inputs, smnn.TrainConfig(epochs=5, seed=4), monkeypatch)

    def test_random_blocks(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            k = int(rng.integers(2, 13))
            c = int(rng.integers(1, 9))
            m = c + int(rng.integers(0, 4))
            weights = rng.standard_normal((k, m)) * rng.choice([0.1, 1.0, 10.0])
            cols = np.sort(rng.choice(m, size=c, replace=False))
            xi = smnn.SparseXi(indices=cols, values=rng.dirichlet(np.ones(c)))
            y_index = int(rng.integers(k))
            eta = float(rng.choice([0.01, 0.1, 0.5]))

            expected = weights.copy()
            numpy_step(expected, cols, xi.values, y_index, eta)
            grad = smnn.gradient(weights, xi, y_index)
            s = weights[:, cols] @ xi.values
            s = np.exp(s - s.max())
            s /= s.sum()
            s[y_index] -= 1.0
            assert grad.block.tobytes() == np.outer(s, xi.values).tobytes()
            smnn.sgd_step(weights, xi, y_index, eta)
            assert weights.tobytes() == expected.tobytes()


def _iris_inputs(keep_duplicate=False):
    """Iris on its full support: every distinct row is a support vertex and
    touches one column.  With the duplicate row kept, two rows share one."""
    data = smnn.load_iris()
    pts, labels = data.points.points, data.labels
    support = np.sort(np.unique(pts, axis=0, return_index=True)[1])
    if not keep_duplicate:
        pts, labels = pts[support], [labels[i] for i in support]
        support = np.arange(len(support))
    return _training_inputs(pts, labels, support)


def _empty_row_inputs():
    """Seven rows on a five-point support whose two far rows put all their
    weight on the sphere point: their embeddings keep no column."""
    pts = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1], [0, 0], [30, 0.25], [-30, -0.25]], dtype=float)
    labels = ["a", "b", "a", "b", "a", "b", "a"]
    encoding = smnn.LabelEncoding.from_labels(labels)
    y = encoding.encode(labels, len(pts))
    space = smnn.fit_space(pts, np.arange(5), radius_margin=1e-12)
    cached = precompute_embeddings(space, pts, y)
    assert np.diff(cached.batch.indptr).tolist() == [1, 1, 1, 1, 1, 0, 0]
    return space, cached, y[:5], encoding


def _full_scan(order, cols, m):
    """The level of each step of order, scanning every row."""
    last = [0] * m
    levels = []
    for i in order:
        level = max((last[j] for j in cols[i]), default=0) + 1
        for j in cols[i]:
            last[j] = level
        levels.append(level)
    return levels


def _slotted(weights, k):
    """The flattened weights followed by the k zero slots that the padded
    rows of _level_rows read, as train_cached lays them out."""
    return np.concatenate((np.ravel(weights), np.zeros(k)))


def _run_epochs(epoch, inputs, config):
    """Weights, history and batch count of train_cached's loop, with each
    epoch run by `epoch` (_kernel_epoch or _level_epoch).  The zero slots
    must read +0.0 after every epoch."""
    space, cached, support_labels, encoding = inputs
    k, m, n_rows = encoding.k, space.support.size, len(cached)
    y = np.asarray(cached.y)
    rng = np.random.default_rng(config.seed)
    flat = _slotted(smnn.init_weights(config.init_mode, rng, k, m, support_labels), k)
    if epoch is _level_epoch:
        rows = _rows(cached.batch, y, k, m)
    else:
        rows = (_pack(cached.batch, k, m), y.tolist())
    history, n_batches = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(n_rows) if config.shuffle else np.arange(n_rows)
        kept, hits, batches = epoch(flat, rows, order, config.learning_rate)
        assert flat[-k:].tobytes() == bytes(8 * k)
        history.append((_sum_in_order(cross_entropy(kept)) / n_rows, hits / n_rows))
        n_batches += batches
    return flat[:-k].reshape(k, m), history, n_batches


def _level_cases():
    config = smnn.TrainConfig
    ten = np.random.default_rng(5)
    ten_pts = random_cloud(ten, 240, 2)
    ten_labels = [str(v) for v in ten.integers(0, 10, size=240)]
    clusters = smnn.gen_clusters(800, n_features=3, class_sep=1.5, seed=0)
    return {
        "spiral-5": (lambda: _spiral_inputs(5), config(epochs=8, seed=1)),
        "spiral-95": (lambda: _spiral_inputs(95), config(learning_rate=0.5, epochs=8, seed=1)),
        "iris-0.1": (_iris_inputs, config(learning_rate=0.1, epochs=20, seed=3)),
        "iris-0.01": (_iris_inputs, config(learning_rate=0.01, epochs=20, seed=3)),
        "iris-0.5": (_iris_inputs, config(learning_rate=0.5, epochs=20, seed=3)),
        "iris-duplicate": (lambda: _iris_inputs(True), config(epochs=20, seed=4)),
        "empty-rows": (_empty_row_inputs, config(epochs=6, seed=3)),
        "clusters-3d": (
            lambda: _training_inputs(
                clusters.points.points, clusters.labels,
                _sized_support(clusters.points.points, 300),
            ),
            config(epochs=3, seed=0),
        ),
        "ten-classes": (
            lambda: _training_inputs(ten_pts, ten_labels, _sized_support(ten_pts, 60)),
            config(epochs=5, seed=4),
        ),
        "one-hot-no-shuffle": (
            lambda: _spiral_inputs(9),
            config(epochs=10, seed=2, init_mode="one_hot", shuffle=False),
        ),
    }


LEVEL_CASES = _level_cases()


class TestLevelSchedule:
    """The level schedule gives the bytes of one kernel call per step, and
    train_cached picks it by the cache's rows per busiest column alone."""

    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    def test_paths_bit_identical(self, case):
        make, config = LEVEL_CASES[case]
        inputs = make()
        w_kernel, h_kernel, calls = _run_epochs(_kernel_epoch, inputs, config)
        w_level, h_level, batches = _run_epochs(_level_epoch, inputs, config)
        assert w_level.tobytes() == w_kernel.tobytes()
        assert h_level == h_kernel
        assert calls == config.epochs * len(inputs[1])
        assert config.epochs <= batches <= calls
        if case == "iris-duplicate":
            # The twin rows share a column, so they take two levels; the
            # other rows, all of width 1, make one fixed batch.
            assert batches == 3 * config.epochs
        # One group per shared width, but the shared rows of width 1 ride
        # in the widest group when there is a wider one.
        space, cached, _, encoding = inputs
        rows = _rows(cached.batch, cached.y, encoding.k, space.support.size)
        widths = set(np.diff(cached.batch.indptr)[rows.shared].tolist())
        assert [g[2].shape[1] for g in rows.groups] == sorted(widths - {1} or widths)

        model, report = smnn.train_cached(*inputs, config)
        assert model.weights.tobytes() == w_kernel.tobytes()
        assert report.history == h_kernel
        assert report.n_batches in (calls, batches)

    def test_rows_without_a_column_train_on_both_paths(self, monkeypatch):
        # The two far rows of _empty_row_inputs keep no column: both paths
        # take them, as level 1 or as a kernel call on no column, and
        # score them with uniform probabilities.
        inputs = _empty_row_inputs()
        config = smnn.TrainConfig(epochs=6, seed=3)
        monkeypatch.setattr(training, "BATCH_MIN_WIDTH", 1)
        model, level = smnn.train_cached(*inputs, config)
        monkeypatch.setattr(training, "BATCH_MIN_WIDTH", 8)
        kernel_model, kernel = smnn.train_cached(*inputs, config)
        # Widths 1 and 0 make two batches a level epoch; the kernel takes
        # one call a step.
        assert level.n_batches == 2 * config.epochs
        assert kernel.n_batches == len(inputs[1]) * config.epochs
        assert model.weights.tobytes() == kernel_model.weights.tobytes()
        assert level.history == kernel.history
        far = np.array([[30, 0.25], [-30, -0.25]])
        for x in far:
            assert smnn.forward(model, x).tolist() == [0.5, 0.5]
        report = smnn.evaluate(model, far, ["b", "a"])
        assert report.mean_loss == float(np.log(2.0))
        assert report.accuracy == 0.5 and report.n_out_of_hull == 2

    def test_level_invariant(self, monkeypatch):
        # The levels _level_epoch uses are those of the full scan: no two
        # steps of a level share a column, and each step sits one level
        # above the highest earlier step it shares a column with.  Iris
        # shares no column, its duplicate one, and two rows of
        # _empty_row_inputs have none.  Only the shared steps are scanned;
        # the full scan puts every other step at level 1.
        used = []

        def spy(order, rows):
            used.append(_levels(order, rows))
            return used[-1]

        monkeypatch.setattr(training, "_levels", spy)
        rng = np.random.default_rng(8)
        cases = (lambda: _spiral_inputs(9), lambda: _spiral_inputs(95), _iris_inputs,
                 lambda: _iris_inputs(True), _empty_row_inputs)
        for make in cases:
            space, cached, support_labels, encoding = make()
            k, m = encoding.k, space.support.size
            cols = [set(np.asarray(x.indices).tolist()) for x in cached.xis]
            rows = _rows(cached.batch, cached.y, k, m)
            flat = _slotted(smnn.init_weights("uniform01", rng, k, m, support_labels), k)
            for _ in range(3):
                order = rng.permutation(len(cols))
                calls = len(used)
                batches = _level_epoch(flat, rows, order, 0.1)[2]
                assert len(used) == calls + bool(rows.shared.any())
                shared, scanned = used[-1] if len(used) > calls else (order[:0], order[:0])
                assert shared.tolist() == [i for i in order.tolist() if rows.shared[i]]
                levels = np.ones(order.size, dtype=np.int64)
                levels[rows.shared[order]] = scanned
                levels = levels.tolist()
                assert levels == _full_scan(order.tolist(), [sorted(c) for c in cols], m)
                # A level runs one batch per shared width, width 1 counting
                # as the widest shared width.
                widths = [len(cols[i]) for i in shared.tolist()]
                merged = [max(widths) if w == 1 else w for w in widths]
                assert batches == len(rows.fixed) + len(set(zip(scanned.tolist(), merged)))
                order = order.tolist()
                for t, i in enumerate(order):
                    below = [levels[u] for u in range(t) if cols[order[u]] & cols[i]]
                    assert levels[t] == 1 + max(below, default=0)
                for level in set(levels):
                    members = [cols[i] for i, lv in zip(order, levels) if lv == level]
                    assert sum(map(len, members)) == len(set().union(*members))

    def test_full_support_epoch_builds_no_schedule(self, monkeypatch):
        # With no shared row an epoch is the fixed batches alone: no scan
        # and no argsort.  The duplicate row brings both back.
        calls = []

        def count(name, real):
            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        monkeypatch.setattr(training, "_levels", count("levels", _levels))
        monkeypatch.setattr(np, "argsort", count("argsort", np.argsort))
        for keep_duplicate, expected in ((False, []), (True, ["levels", "argsort"] * 2)):
            space, cached, support_labels, encoding = _iris_inputs(keep_duplicate)
            k, m = encoding.k, space.support.size
            rows = _rows(cached.batch, cached.y, k, m)
            assert len(rows.fixed) == 1 and len(rows.groups) == int(keep_duplicate)
            flat = _slotted(smnn.init_weights("uniform01", 0, k, m, support_labels), k)
            del calls[:]
            for seed in range(2):
                order = np.random.default_rng(seed).permutation(len(cached))
                batches = _level_epoch(flat, rows, order, 0.1)[2]
                assert batches == 1 + 2 * keep_duplicate
            assert calls == expected

    def test_masked_scan_is_the_full_scan_on_random_rows(self):
        # Random CSR rows of width 0 to 4 over few or many columns, so that
        # empty, private and shared rows mix; the mask marks exactly the
        # rows with a column another row uses, the scan of the shared steps
        # is the full scan, and the level epoch gives the kernel's bytes.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_rows = int(rng.integers(1, 40))
            m = int(rng.integers(1, 4 * n_rows + 2))
            k = int(rng.integers(2, 5))
            cols = [np.sort(rng.choice(m, size=min(m, int(rng.integers(0, 5))), replace=False))
                    for _ in range(n_rows)]
            widths = [c.size for c in cols]
            batch = smnn.EmbeddingBatch(
                indptr=np.concatenate([[0], np.cumsum(widths)]).astype(np.int64),
                indices=np.concatenate(cols).astype(np.int64),
                values=rng.random(sum(widths)),
                sphere_mass=np.zeros(n_rows),
                facet=np.full((n_rows, 1), -1),
            )
            y = rng.integers(0, k, size=n_rows)
            rows = _rows(batch, y, k, m)
            lists = [c.tolist() for c in cols]
            others = [set().union(*(lists[:i] + lists[i + 1:])) for i in range(n_rows)]
            assert rows.shared.tolist() == [bool(others[i] & set(c)) for i, c in enumerate(lists)]
            packed = (_pack(batch, k, m), y.tolist())
            weights = rng.standard_normal(k * m)
            for _ in range(3):
                order = rng.permutation(n_rows)
                full = _full_scan(order.tolist(), lists, m)
                shared, levels = _levels(order, rows)
                mask = rows.shared[order].tolist()
                assert shared.tolist() == order[mask].tolist()
                assert levels.tolist() == [lv for lv, s in zip(full, mask) if s]
                assert all(lv == 1 for lv, s in zip(full, mask) if not s)
                level, kernel = _slotted(weights, k), weights.copy()
                kept, hits, _ = _level_epoch(level, rows, order, 0.3)
                kept_kernel, hits_kernel, _ = _kernel_epoch(kernel, packed, order, 0.3)
                assert level.tobytes() == _slotted(kernel, k).tobytes()
                assert kept.tobytes() == kept_kernel.tobytes() and hits == hits_kernel
                weights = kernel

    def test_stacked_matmul_is_the_kernel_gemv(self):
        # The level batch takes its logits from one stacked matmul; each
        # step's row must be the kernel's vals.dot(block), FMAs included.
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 13))
            c = int(rng.integers(1, 10))
            steps = int(rng.integers(1, 20))
            m = c * steps
            flat = (rng.standard_normal((k, m)) * rng.choice([0.1, 1.0, 10.0])).reshape(-1)
            cols = rng.permutation(m).reshape(steps, c)
            fidx = cols[:, :, None] + np.arange(k) * m
            vals = rng.dirichlet(np.ones(c), size=steps)
            blocks = flat[fidx]
            stacked = np.matmul(vals[:, None, :], blocks)[:, 0]
            for t in range(steps):
                assert stacked[t].tobytes() == vals[t].dot(blocks[t]).tobytes()

    def test_padded_width_one_rows_are_the_kernel_gemv(self):
        # Shared width-1 rows ride in the widest shared group with value 0.0
        # on the k zero slots past the weights.  Their stacked logits must be
        # the unpadded kernel's vals.dot(block) bit for bit, at every width,
        # for values other than 1.0 and for weights of +-0.0 and +-1e-300.
        rng = np.random.default_rng(12)
        tiny = np.array([0.0, -0.0, 1e-300, -1e-300])
        steps = 12
        for k in range(2, 13):
            for width in range(2, 10):
                # Every width-1 column is used twice; the wide rows overlap.
                cols = [[t] for t in range(steps)] * 2 + [
                    list(range(steps, steps + width)),
                    list(range(steps + width - 1, steps + 2 * width - 1)),
                ]
                values = [rng.choice([1.0, 0.5, 0.3, 1e-5], size=1) for _ in range(2 * steps)]
                values += [rng.dirichlet(np.ones(width)) for _ in range(2)]
                batch = batch_of([smnn.SparseXi(indices=c, values=v) for c, v in zip(cols, values)])
                m = steps + 2 * width - 1
                rows = _rows(batch, np.zeros(len(cols), dtype=np.int64), k, m)
                assert len(rows.groups) == 1 and not rows.fixed
                at, fidx, vals, _ = rows.groups[0]
                assert sorted(at.tolist()) == list(range(len(cols)))
                weights = rng.standard_normal((k, m)) * rng.choice([1e-3, 1.0, 1e3])
                weights = np.where(rng.random((k, m)) < 0.4, rng.choice(tiny, size=(k, m)), weights)
                flat = _slotted(weights, k)
                stacked = np.matmul(vals[:, None, :], flat[fidx])[:, 0]
                packed = _pack(batch, k, m)
                for t, i in enumerate(at.tolist()):
                    f, v, _ = packed[i]
                    assert stacked[t].tobytes() == v.dot(flat[f]).tobytes()

    def test_clusters_width_three_rows_keep_their_group(self):
        # Padding a width-3 row to 4 can move the stacked matmul's bits, so
        # only the width-1 rows join the width-4 group, on the zero slots.
        make, _ = LEVEL_CASES["clusters-3d"]
        space, cached, _, encoding = make()
        k, m = encoding.k, space.support.size
        rows = _rows(cached.batch, cached.y, k, m)
        widths = np.diff(cached.batch.indptr)
        assert set(widths[rows.shared].tolist()) == {1, 3, 4}
        three, four = rows.groups
        assert three[0].tolist() == np.flatnonzero(rows.shared & (widths == 3)).tolist()
        assert three[2].shape[1] == 3 and four[2].shape[1] == 4
        one = rows.shared & (widths == 1)
        assert sorted(four[0].tolist()) == np.flatnonzero(one | rows.shared & (widths == 4)).tolist()
        padded = widths[four[0]] == 1
        assert padded.sum() == one.sum() > 0
        assert (four[1][padded, 1:] == k * m + np.arange(k)).all()
        assert four[2][padded, 1:].tobytes() == bytes(8 * 3 * padded.sum())
        assert (four[1][padded, 0] == cached.batch.indices[cached.batch.indptr[four[0][padded]], None]
                + np.arange(k) * m).all()

    def test_diverging_rate_keeps_the_zero_slots(self, monkeypatch):
        # A rate that drives the weights to inf and NaN: the level path still
        # gives the kernel's bytes, and the zero slots that padded rows read
        # hold +0.0 after every batch, so no NaN leaks into another row.
        inputs = _spiral_inputs(95)
        k, m = inputs[3].k, inputs[0].support.size
        rows = _rows(inputs[1].batch, inputs[1].y, k, m)
        assert (rows.groups[-1][1] >= k * m).any()
        slots, inf, nan = [], [], []

        def spy(flat, *args):
            _batch(flat, *args)
            slots.append(flat[-k:].tobytes())
            inf.append(np.isinf(flat[:-k]).any())
            nan.append(np.isnan(flat[:-k]).any())

        monkeypatch.setattr(training, "_batch", spy)
        config = smnn.TrainConfig(learning_rate=1.7e308, epochs=3, seed=1)
        # The overflow is the point of the run, so its warnings are off.
        with np.errstate(over="ignore", invalid="ignore"):
            w_kernel, h_kernel, _ = _run_epochs(_kernel_epoch, inputs, config)
            assert not slots
            w_level, h_level, batches = _run_epochs(_level_epoch, inputs, config)
        assert len(slots) == batches and set(slots) == {bytes(8 * k)}
        assert any(inf) and any(nan) and np.isnan(w_level).any()
        assert w_level.tobytes() == w_kernel.tobytes()
        assert np.array(h_level).tobytes() == np.array(h_kernel).tobytes()

    def test_only_level_epochs_scan(self, monkeypatch):
        # The cache picks the path before any epoch.  The kernel path builds
        # no level record and scans no order; the level path builds its
        # record once and each shuffled epoch scans its own order, once, or
        # never where no row is shared.  An unshuffled fit that the cache
        # sends level by level scans its one order once, first, to count its
        # levels (spiral 95 then takes the kernel), and its epochs read that
        # scan.
        calls = []

        def count(name, real):
            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return spy

        monkeypatch.setattr(training, "_levels", count("levels", _levels))
        monkeypatch.setattr(training, "_level_rows", count("rows", _level_rows))
        for case, shuffle, level_path, shared, count in (
            ("iris-duplicate", True, True, True, 0), ("iris-0.1", True, True, False, 0),
            ("clusters-3d", True, True, True, 0), ("spiral-95", True, True, True, 0),
            ("spiral-5", True, False, True, 0), ("empty-rows", True, False, True, 0),
            ("clusters-3d", False, True, True, 1), ("spiral-95", False, False, True, 1),
            ("spiral-5", False, False, True, 0),
        ):
            make, config = LEVEL_CASES[case]
            inputs = make()
            del calls[:]
            _, report = smnn.train_cached(*inputs, replace(config, shuffle=shuffle))
            assert (report.n_batches < report.n_steps) == level_path
            scans = config.epochs if level_path and shared and shuffle else 0
            assert calls == ["rows"] * (level_path or count) + ["levels"] * (count + scans)

    def test_row_sum_and_exp_are_the_kernel_s(self):
        # np.sum along C-ordered rows adds left to right below 8 terms and
        # pairwise from 8, as the kernel's sum does; the array exp rounds as
        # the scalar one.
        rng = np.random.default_rng(10)
        for k in range(2, 18):
            z = rng.standard_normal((300, k)) * rng.choice([0.1, 1.0, 30.0], size=(300, 1))
            e = np.exp(z - z.max(axis=1, keepdims=True))
            for row, zr in zip(e, z):
                scalar = [float(np.exp(v - zr.max())) for v in zr.tolist()]
                assert row.tolist() == scalar
            sums = e.sum(axis=1, keepdims=True)[:, 0]
            for row, total in zip(e.tolist(), sums.tolist()):
                if k < 8:
                    expected = 0.0
                    for v in row:
                        expected += v
                else:
                    expected = float(np.sum(row))
                assert total == expected


# The benchmark's fits: the seed-0 split and support of each workload.
BENCHMARK_SUPPORTS = {
    "bench-spiral-5": (lambda: smnn.gen_spiral(400, seed=0), 5),
    "bench-spiral-9": (lambda: smnn.gen_spiral(400, seed=0), 9),
    "bench-spiral-95": (lambda: smnn.gen_spiral(400, seed=0), 95),
    "bench-clusters-1000": (lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000),
    "bench-iris-full": (smnn.load_iris, None),
}


@functools.lru_cache(maxsize=None)
def _benchmark_inputs(name):
    make, size = BENCHMARK_SUPPORTS[name]
    train = smnn.split(make(), 0.75, seed=0)[0]
    pts = train.points.points
    return _training_inputs(pts, train.labels, _sized_support(pts, size or len(np.unique(pts, axis=0))))


def _unshuffled_levels(inputs):
    """The level count of the one order of an unshuffled fit, 1 when no
    row shares a column, by the full scan."""
    space, cached = inputs[:2]
    b = cached.batch
    cols = [b.indices[x:z].tolist() for x, z in zip(b.indptr[:-1], b.indptr[1:])]
    return max(_full_scan(range(len(cached)), cols, space.support.size), default=1)


class TestPathChoice:
    """train_cached picks its path from the cache alone, whatever the seed,
    and an unshuffled fit from the levels of its one order."""

    @staticmethod
    def level_path(inputs, config):
        _, report = smnn.train_cached(*inputs, replace(config, epochs=1))
        return report.n_batches < report.n_steps

    def test_benchmark_supports(self):
        # The spiral supports 5 and 9 keep the kernel; spiral 95 (10.0 rows
        # per row on its busiest column), the 1,000-point clusters support
        # and the Iris full support run level by level.
        for name, level_path in (("bench-spiral-5", False), ("bench-spiral-9", False),
                                 ("bench-spiral-95", True), ("bench-clusters-1000", True),
                                 ("bench-iris-full", True)):
            inputs = _benchmark_inputs(name)
            assert (_rows_per_busiest_column(inputs) >= BATCH_MIN_WIDTH) == level_path
            assert self.level_path(inputs, smnn.TrainConfig()) == level_path

    @pytest.mark.parametrize("case", sorted(LEVEL_CASES) + sorted(BENCHMARK_SUPPORTS))
    def test_same_path_at_every_seed_and_without_shuffle(self, case):
        # Shuffled, the busiest column picks the path at every seed.
        # Unshuffled, the order's level count, which that column's row
        # count bounds from below, replaces it.
        if case in LEVEL_CASES:
            make, config = LEVEL_CASES[case]
            inputs = make()
        else:
            inputs, config = _benchmark_inputs(case), smnn.TrainConfig()
        shuffled = replace(config, shuffle=True)
        paths = [self.level_path(inputs, replace(shuffled, seed=seed)) for seed in range(5)]
        assert paths == [_rows_per_busiest_column(inputs) >= BATCH_MIN_WIDTH] * 5
        levels = _unshuffled_levels(inputs)
        assert len(inputs[1]) / levels <= _rows_per_busiest_column(inputs)
        unshuffled = self.level_path(inputs, replace(config, shuffle=False))
        assert unshuffled == (len(inputs[1]) >= BATCH_MIN_WIDTH * levels)

    def test_unshuffled_benchmark_supports(self):
        # Without shuffling, spiral support 95 (300 rows in 201 levels) runs
        # on the kernel, where its narrow levels cost the level path 2-3x;
        # the 1,000-point clusters support (3,000 rows in 82 levels) stays
        # level by level.  Both keep the bits of the kernel.
        for name, level_path in (("bench-spiral-95", False), ("bench-clusters-1000", True)):
            inputs = _benchmark_inputs(name)
            config = smnn.TrainConfig(epochs=2, shuffle=False)
            assert self.level_path(inputs, config) == level_path
            model, report = smnn.train_cached(*inputs, config)
            weights, history, _ = _run_epochs(_kernel_epoch, inputs, config)
            assert model.weights.tobytes() == weights.tobytes() and report.history == history


class TestDivergedFit:
    """A rate that drives the weights to NaN raises NonFiniteWeights, a
    ValueError, on either path, and builds no model."""

    CONFIG = smnn.TrainConfig(learning_rate=1.7e308, epochs=3, seed=1)

    @pytest.mark.parametrize("min_width", [1, 10**6])
    def test_train_cached(self, monkeypatch, min_width):
        monkeypatch.setattr(training, "BATCH_MIN_WIDTH", min_width)
        inputs = _spiral_inputs(95)
        # The overflow is the point of the run, so its warnings are off.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(smnn.NonFiniteWeights, match="non-finite"):
                smnn.train_cached(*inputs, self.CONFIG)
        assert issubclass(smnn.NonFiniteWeights, (ValueError, smnn.SmnnError))

    def test_train(self):
        train, _ = smnn.split(smnn.gen_spiral(400, seed=0), 0.75, seed=0)
        pts = train.points.points
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(smnn.NonFiniteWeights):
                smnn.train(pts, train.labels, _sized_support(pts, 95), self.CONFIG)


class TestSumInOrder:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1000])
    def test_is_the_running_total(self, n):
        # The loop is the reference: a total that starts at 0.0 and adds
        # one loss at a time in order.  All -0.0 losses sum to 0.0.
        rng = np.random.default_rng(n)
        for losses in (rng.exponential(size=n) * rng.choice([1e-9, 1.0, 1e9], size=n),
                       cross_entropy(np.ones(n))):
            total = 0.0
            for v in losses.tolist():
                total += v
            summed = _sum_in_order(losses)
            assert type(summed) is float
            assert np.float64(summed).tobytes() == np.float64(total).tobytes()


class TestLabelRange:
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_label_rejected_before_any_step(self, square_space, bad):
        # -1 would wrap to the last class, 2 (= k) would overrun it.
        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        cached = precompute_embeddings(square_space, SQUARE_POINTS, [0, bad, bad, 1])
        with pytest.raises(ValueError, match="label index %d out of range for k=2" % bad):
            smnn.train_cached(square_space, cached, [0, 0, 1, 1], encoding, smnn.TrainConfig(epochs=2))


class TestSupportLabels:
    """train_cached checks support labels with SmnnModel's rule before any
    step, in both init modes."""

    @pytest.mark.parametrize("init_mode", INIT_MODES)
    @pytest.mark.parametrize("labels, match", [
        ([0.5, 1.7, True, 0], "integers"),
        (np.array([0.0, 1.0, 1.0, 0.0]), "integers"),
        ([0, 1, 2, 0], "out of range"),
        ([-1, 0, 1, 1], "out of range"),
    ])
    def test_rejected(self, monkeypatch, square_space, init_mode, labels, match):
        def no_epoch(*args):
            raise AssertionError("an epoch ran before the support labels were checked")

        monkeypatch.setattr(training, "_kernel_epoch", no_epoch)
        monkeypatch.setattr(training, "_level_epoch", no_epoch)
        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        cached = precompute_embeddings(square_space, SQUARE_POINTS, [0, 0, 1, 1])
        config = smnn.TrainConfig(epochs=2, init_mode=init_mode)
        with pytest.raises(ValueError, match=match):
            smnn.train_cached(square_space, cached, labels, encoding, config)

    def test_accepted_labels_reach_the_model(self, square_space):
        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        cached = precompute_embeddings(square_space, SQUARE_POINTS, [0, 0, 1, 1])
        model, _ = smnn.train_cached(
            square_space, cached, (0, 0, 1, 1), encoding, smnn.TrainConfig(epochs=2)
        )
        assert model.support_labels.dtype == np.int64
        assert model.support_labels.tolist() == [0, 0, 1, 1]


class TestIntegerLabels:
    """Label indices are integers; a cast would truncate 1.7 to class 1
    and read True as class 1, so floats and booleans are rejected."""

    @pytest.mark.parametrize("y", [
        [0.9, 1.7, True, 0.2],
        [0.0, 1.0, 1.0, 0.0],
        [True, False, True, False],
        np.array([0.0, 1.0, 1.0, 0.0]),
        np.array([False, True, True, False]),
    ])
    def test_precompute_rejects_non_integer_labels(self, square_space, y):
        with pytest.raises(ValueError, match="integers"):
            precompute_embeddings(square_space, SQUARE_POINTS, y)

    @pytest.mark.parametrize("y_index", [0.5, 1.7, 1.0, True, np.float64(1.0), np.True_])
    def test_gradient_and_step_reject_non_integer_label(self, square_model, y_index):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        before = square_model.weights.copy()
        with pytest.raises(ValueError, match="integers"):
            smnn.gradient(square_model.weights, xi, y_index)
        with pytest.raises(ValueError, match="integers"):
            smnn.sgd_step(square_model.weights, xi, y_index, 0.1)
        assert np.array_equal(square_model.weights, before)

    @pytest.mark.parametrize("y_index", [1, np.int64(1), np.uint8(1)])
    def test_integer_label_accepted(self, square_model, y_index):
        xi = smnn.xi(square_model.space, [0.75, 0.6])
        expected = smnn.gradient(square_model.weights, xi, 1).block
        assert np.array_equal(smnn.gradient(square_model.weights, xi, y_index).block, expected)


class TestPrecompute:
    def test_counts_and_labels(self, square_space):
        y = np.array([0, 0, 1, 1])
        cached = precompute_embeddings(square_space, SQUARE_POINTS, y)
        assert len(cached) == 4
        assert np.array_equal(cached.y, y)
        for t, xi in enumerate(cached.xis):
            assert list(xi.indices) == [t]

    def test_length_mismatch(self, square_space):
        with pytest.raises(ValueError):
            precompute_embeddings(square_space, SQUARE_POINTS, np.array([0, 1]))

    def test_training_on_an_empty_cache_raises_invalid_count(self, square_space):
        cached = precompute_embeddings(square_space, np.zeros((0, 2)), [])
        assert len(cached) == 0 and cached.y.dtype == np.int64
        assert cached.batch.indptr.tolist() == [0] and cached.xis == []
        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        with pytest.raises(smnn.InvalidCount, match="no rows"):
            smnn.train_cached(square_space, cached, [0, 0, 1, 1], encoding, smnn.TrainConfig(epochs=2))


class TestBatchPathsBuildNoViews:
    """precompute_embeddings, train_cached and evaluate read the
    EmbeddingBatch arrays and build no SparseXi."""

    @pytest.mark.parametrize("case", ["spiral-9", "iris"])
    def test_no_sparse_xi_built(self, monkeypatch, case):
        if case == "iris":
            data, size = smnn.load_iris(), None
        else:
            data, size = smnn.gen_spiral(400, seed=0), 9
        pts = data.points.points
        support = (
            np.sort(np.unique(pts, axis=0, return_index=True)[1])
            if size is None else _sized_support(pts, size)
        )
        encoding = smnn.LabelEncoding.from_labels(data.labels)
        y = np.array([encoding.index(v) for v in data.labels])
        space = smnn.fit_space(pts, support)
        views = smnn.xi_batch(space, pts)
        singles = [smnn.xi(space, q) for q in pts[::7]]
        assert any(x.facet_used is not None for x in views) == (case == "spiral-9")

        def refuse(self, *args, **kwargs):
            raise AssertionError("a SparseXi was built")

        with monkeypatch.context() as patch:
            patch.setattr(smnn.SparseXi, "__init__", refuse)
            with pytest.raises(AssertionError, match="SparseXi"):
                smnn.xi(space, pts[0])
            cached = precompute_embeddings(space, pts, y)
            model, report = smnn.train_cached(
                space, cached, y[support], encoding, smnn.TrainConfig(epochs=3)
            )
            smnn.evaluate(model, pts, data.labels)
        # The spiral runs one kernel call per step, Iris the level schedule.
        assert (report.n_batches < report.n_steps) == (case == "iris")
        assert all(same_bits(a, b) for a, b in zip(cached.xis, views))
        assert all(same_bits(a, b) for a, b in zip(smnn.xi_batch(space, pts), views))
        assert all(same_bits(smnn.xi(space, q), x) for q, x in zip(pts[::7], singles))


def _two_blob_model():
    """One-hot model over blob a of a two-blob cloud: the training centroid
    lies between the blobs, outside the support hull."""
    rng = np.random.default_rng(2)
    pts = np.vstack([random_cloud(rng, 10, 2) + 10.0, random_cloud(rng, 10, 2) - 10.0])
    with pytest.warns(UserWarning, match="NoContainingVirtualSimplex"):
        space = smnn.fit_space(pts, list(range(10)), radius_margin=1.0)
    encoding = smnn.LabelEncoding.from_labels(["a", "b"])
    y = np.zeros(10, dtype=np.int64)
    weights = smnn.init_weights("one_hot", 0, 2, 10, y)
    return smnn.SmnnModel(space=space, encoding=encoding, weights=weights, support_labels=y)


class TestEvaluate:
    def test_perfect_square(self, square_model):
        report = smnn.evaluate(square_model, SQUARE_POINTS, SQUARE_LABELS)
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, [[2, 0], [0, 2]])
        assert report.n_out_of_hull == 0
        assert report.n_outside_ball == 0

    def test_sphere_route_counted(self, square_model):
        report = smnn.evaluate(square_model, np.array([[0.75, 1.25]]), ["0"])
        assert report.n_out_of_hull == 1
        assert report.confusion.sum() == 1

    def test_outside_ball_scored_as_miss(self, square_model):
        report = smnn.evaluate(square_model, np.array([[0.75, 9.0], [0.75, 0.6]]), ["0", "0"])
        assert report.n_outside_ball == 1
        assert report.n_out_of_hull == 0
        assert np.array_equal(report.confusion, [[1, 0], [0, 0]])
        assert report.accuracy == 0.5
        assert abs(report.mean_loss - (np.log(2.0) + np.log(2.0)) / 2.0) < 1e-12

    def test_no_rows_raises(self, square_model):
        with pytest.raises(smnn.InvalidCount):
            smnn.evaluate(square_model, np.zeros((0, 2)), [])

    def test_row_behind_a_hull_that_misses_the_centroid_scored_as_miss(self):
        # Two blobs supported by blob a alone: a row behind that hull, as
        # seen from the centroid, has no embedding; it is scored as a miss
        # with loss log(k) and counted, and the other rows are unaffected.
        model = _two_blob_model()
        pts = model.space.support.points[:2] + model.space.centroid
        alone = smnn.evaluate(model, pts, ["a", "a"])
        assert alone.accuracy == 1.0 and alone.n_no_virtual_simplex == 0
        behind = model.space.centroid + np.array([10.0, -10.0])
        with pytest.raises(smnn.NoContainingVirtualSimplex):
            smnn.xi(model.space, behind)
        report = smnn.evaluate(model, np.vstack([pts, behind]), ["a", "a", "b"])
        assert report.n_no_virtual_simplex == 1
        assert report.n_outside_ball == 0 and report.n_out_of_hull == 0
        assert np.array_equal(report.confusion, alone.confusion)
        assert report.accuracy == 2 / 3
        expected = (2 * alone.mean_loss + np.log(2.0)) / 3
        assert abs(report.mean_loss - expected) < 1e-12
        assert report.to_dict()["n_no_virtual_simplex"] == 1

    def test_row_at_a_centroid_outside_the_hull_scored_as_miss(self):
        # The centroid has no sphere projection, so no virtual simplex.
        model = _two_blob_model()
        pts = model.space.support.points[:2] + model.space.centroid
        with pytest.raises(smnn.NoContainingVirtualSimplex):
            smnn.xi(model.space, model.space.centroid)
        with pytest.raises(smnn.NoContainingVirtualSimplex):
            smnn.forward(model, model.space.centroid)
        report = smnn.evaluate(model, np.vstack([pts, model.space.centroid]), ["a", "a", "b"])
        assert report.n_no_virtual_simplex == 1
        assert report.n_outside_ball == 0 and report.n_out_of_hull == 0
        assert np.array_equal(report.confusion, [[2, 0], [0, 0]])
        assert report.accuracy == 2 / 3

    def test_confusion_totals(self):
        rng = np.random.default_rng(21)
        pts = random_cloud(rng, 60, 2, spread=3.0)
        labels = [str(int(v)) for v in rng.integers(0, 3, size=60)]
        cfg = smnn.TrainConfig(epochs=5, seed=0)
        model, _ = smnn.train(pts, labels, list(range(60)), cfg)
        report = smnn.evaluate(model, pts, labels)
        assert report.confusion.sum() == 60
        hits = np.trace(report.confusion)
        assert report.accuracy == hits / 60

    def test_to_dict(self, square_model):
        report = smnn.evaluate(square_model, SQUARE_POINTS, SQUARE_LABELS)
        payload = report.to_dict(square_model.encoding)
        assert payload["labels"] == ["0", "1"]
        assert payload["confusion"] == [[2, 0], [0, 2]]
        assert payload["n_out_of_hull"] == 0 and payload["n_outside_ball"] == 0
        assert payload["n_no_virtual_simplex"] == 0
        assert isinstance(payload["accuracy"], float)

    def test_unknown_label_rejected(self, square_model):
        with pytest.raises(KeyError):
            smnn.evaluate(square_model, SQUARE_POINTS, ["0", "0", "1", "9"])

    def test_mismatched_lengths(self, square_model):
        with pytest.raises(ValueError, match="labels and points disagree: 3 labels, 4 points"):
            smnn.evaluate(square_model, SQUARE_POINTS, ["0", "0", "1"])
