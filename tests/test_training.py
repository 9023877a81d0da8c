"""Closed-form gradient, SGD updates, the training loop and evaluation."""

import numpy as np
import pytest

import smnn
from smnn.model import cross_entropy
from smnn.training import (
    BATCH_MIN_WIDTH,
    INIT_MODES,
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
        with pytest.raises(ValueError):
            smnn.train(SQUARE_POINTS, ["0", "1"], [0, 1, 2, 3], smnn.TrainConfig())


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


class TestKernelExactness:
    """train_cached, sgd_step and gradient give the bytes of the NumPy step
    (numpy_step in conftest) on every kind of row and class count."""

    @staticmethod
    def assert_matches_numpy_step(inputs, config):
        """Returns whether train_cached ran the level schedule, after
        checking that it did exactly when the first epoch's order averages
        BATCH_MIN_WIDTH or more steps per level."""
        model, report = smnn.train_cached(*inputs, config)
        weights, history = numpy_train(*inputs, config)
        assert model.weights.tobytes() == weights.tobytes()
        assert report.history == history

        space, cached, support_labels, encoding = inputs
        rng = np.random.default_rng(config.seed)
        smnn.init_weights(config.init_mode, rng, encoding.k, space.support.size, support_labels)
        order = rng.permutation(len(cached)) if config.shuffle else np.arange(len(cached))
        cols = [list(x.indices) for x in cached.xis]
        levels = _levels(order.tolist(), cols, space.support.size)
        level_path = len(cached) >= BATCH_MIN_WIDTH * max(levels)
        assert (report.n_batches < report.n_steps) == level_path
        return level_path

    @pytest.mark.parametrize("size", [5, 95])
    def test_spiral(self, size):
        inputs = _spiral_inputs(size)
        assert _exterior_rows(inputs[1]) > 0
        for rate in (0.1, 0.5):
            config = smnn.TrainConfig(learning_rate=rate, epochs=15, seed=1)
            # About 1.3 and 8 steps per level: one kernel call per step.
            assert not self.assert_matches_numpy_step(inputs, config)

    def test_one_hot_without_shuffle(self):
        config = smnn.TrainConfig(epochs=20, seed=2, init_mode="one_hot", shuffle=False)
        self.assert_matches_numpy_step(_spiral_inputs(9), config)

    def test_clusters_3d(self):
        data = smnn.gen_clusters(800, n_features=3, class_sep=1.5, seed=0)
        pts = data.points.points
        inputs = _training_inputs(pts, data.labels, _sized_support(pts, 120))
        self.assert_matches_numpy_step(inputs, smnn.TrainConfig(epochs=3, seed=0))

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

    def test_ten_classes(self):
        # NumPy sums 8 or more exponentials in pairwise blocks.
        rng = np.random.default_rng(5)
        pts = random_cloud(rng, 240, 2)
        labels = [str(v) for v in rng.integers(0, 10, size=240)]
        inputs = _training_inputs(pts, labels, _sized_support(pts, 60))
        assert inputs[3].k == 10
        self.assert_matches_numpy_step(inputs, smnn.TrainConfig(epochs=5, seed=4))

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


def _run_epochs(epoch, inputs, config):
    """Weights, history and batch count of train_cached's loop, with each
    epoch run by `epoch` (_kernel_epoch or _level_epoch)."""
    space, cached, support_labels, encoding = inputs
    k, m, n_rows = encoding.k, space.support.size, len(cached)
    y = np.asarray(cached.y)
    rng = np.random.default_rng(config.seed)
    weights = smnn.init_weights(config.init_mode, rng, k, m, support_labels)
    if epoch is _level_epoch:
        rows = _level_rows(cached.batch, y, k, m)
    else:
        rows = (_pack(cached.batch, k, m), y.tolist())
    history, n_batches = [], 0
    for _ in range(config.epochs):
        order = rng.permutation(n_rows) if config.shuffle else np.arange(n_rows)
        kept, hits, batches = epoch(weights.reshape(-1), rows, order, config.learning_rate)
        history.append((_sum_in_order(cross_entropy(kept)) / n_rows, hits / n_rows))
        n_batches += batches
    return weights, history, n_batches


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
    train_cached picks it by the measured level width alone."""

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
            # The twin rows share a column, so every epoch has two levels.
            assert batches == 2 * config.epochs

        model, report = smnn.train_cached(*inputs, config)
        assert model.weights.tobytes() == w_kernel.tobytes()
        assert report.history == h_kernel
        assert report.n_batches in (calls, batches)

    def test_level_invariant(self):
        # No two steps of a level share a column, and each step sits one
        # level above the highest earlier step it shares a column with.
        rng = np.random.default_rng(8)
        for make in (lambda: _spiral_inputs(9), lambda: _spiral_inputs(95), _iris_inputs):
            space, cached, _, _ = make()
            cols = [set(np.asarray(x.indices).tolist()) for x in cached.xis]
            for _ in range(3):
                order = rng.permutation(len(cols)).tolist()
                levels = _levels(order, [sorted(c) for c in cols], space.support.size)
                for t, i in enumerate(order):
                    below = [levels[u] for u in range(t) if cols[order[u]] & cols[i]]
                    assert levels[t] == 1 + max(below, default=0)
                for level in set(levels):
                    members = [cols[i] for i, lv in zip(order, levels) if lv == level]
                    assert sum(map(len, members)) == len(set().union(*members))

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


class TestLabelRange:
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_label_rejected_before_any_step(self, square_space, bad):
        # -1 would wrap to the last class, 2 (= k) would overrun it.
        encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
        cached = precompute_embeddings(square_space, SQUARE_POINTS, [0, bad, bad, 1])
        with pytest.raises(ValueError, match="label index %d out of range for k=2" % bad):
            smnn.train_cached(square_space, cached, [0, 0, 1, 1], encoding, smnn.TrainConfig(epochs=2))


class TestSupportLabels:
    """train_cached passes support labels to SmnnModel, which checks them
    before any step, in both init modes."""

    @pytest.mark.parametrize("init_mode", INIT_MODES)
    @pytest.mark.parametrize("labels, match", [
        ([0.5, 1.7, True, 0], "integers"),
        (np.array([0.0, 1.0, 1.0, 0.0]), "integers"),
        ([0, 1, 2, 0], "out of range"),
        ([-1, 0, 1, 1], "out of range"),
    ])
    def test_rejected(self, square_space, init_mode, labels, match):
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
