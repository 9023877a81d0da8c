"""End-to-end checks of the library's headline behaviors.

Each test measures one advertised property, prints a single PASS/FAIL
summary line with the measured values, and then asserts the property.
The consistence test trains from one-hot weights over a full support and
pins what softmax cross-entropy guarantees there: every support point is
classified correctly after every epoch of training; its first-epoch
gradient is exactly softmax(e_y) - e_y on its own column, nonzero since
softmax of finite logits is never one-hot; the gradient keeps the sign
that reinforces the support label; and the largest per-epoch gradient
shrinks strictly without reaching zero.
"""

import time

import numpy as np
import pytest

import smnn
from smnn.model import logits, softmax

from conftest import SQUARE_POINTS, circumsphere_contains, random_cloud


def _verdict(ok, name, detail):
    return "%s %s: %s" % ("PASS" if ok else "FAIL", name, detail)


def _dedup_indices(pts):
    return np.sort(np.unique(pts, axis=0, return_index=True)[1])


class TestWorkedExample:
    def test_square_goldens(self, acceptance_record, square_model):
        started = time.perf_counter()
        model = square_model

        inside = smnn.xi(model.space, [0.75, 0.6])
        outside = smnn.xi(model.space, [0.75, 1.25])
        xi_dev = max(
            np.abs(inside.to_dense(4) - [0.3, 0.2, 0.5, 0.0]).max(),
            np.abs(outside.to_dense(4) - [0.0, 1 / 3, 0.0, 1 / 3]).max(),
            abs(outside.sphere_mass - 1 / 3),
        )
        fwd_dev = max(
            np.abs(smnn.forward(model, [0.75, 0.6]) - 0.5).max(),
            np.abs(smnn.forward(model, [0.75, 1.25]) - 0.5).max(),
        )
        radius_dev = abs(model.space.radius - 1.0)
        elapsed = time.perf_counter() - started

        ok = xi_dev < 1e-9 and fwd_dev < 1e-9 and radius_dev < 1e-9 and elapsed < 1.0
        acceptance_record(
            _verdict(
                ok,
                "worked example",
                "forward dev %.1e, xi dev %.1e, radius dev %.1e (tol 1e-9), %.2fs (< 1s)"
                % (fwd_dev, xi_dev, radius_dev, elapsed),
            )
        )
        assert fwd_dev < 1e-9
        assert xi_dev < 1e-9
        assert radius_dev < 1e-9
        assert elapsed < 1.0


class TestIrisReproduction:
    def test_mean_accuracy_and_loss(self, acceptance_record):
        started = time.perf_counter()
        data = smnn.load_iris()
        etas = (0.01, 0.1, 0.5)
        accs = {eta: [] for eta in etas}
        losses = {eta: [] for eta in etas}

        for seed in range(5):
            train_ds, test_ds = smnn.split(data, 0.75, seed=seed)
            pts = train_ds.points.points
            support = _dedup_indices(pts)
            encoding = smnn.LabelEncoding.from_labels(train_ds.labels)
            y = np.array([encoding.index(v) for v in train_ds.labels])
            space = smnn.fit_space(pts, support)
            cached = smnn.precompute_embeddings(space, pts, y)
            for eta in etas:
                cfg = smnn.TrainConfig(learning_rate=eta, epochs=1000, seed=seed)
                model, _ = smnn.train_cached(space, cached, y[support], encoding, cfg)
                rep = smnn.evaluate(model, test_ds.points.points, test_ds.labels)
                accs[eta].append(rep.accuracy)
                losses[eta].append(rep.mean_loss)

        mean_acc = {eta: float(np.mean(accs[eta])) for eta in etas}
        mean_loss = {eta: float(np.mean(losses[eta])) for eta in etas}
        best = max(etas, key=lambda eta: (mean_acc[eta], -mean_loss[eta]))
        elapsed = time.perf_counter() - started

        ok = 0.87 <= mean_acc[best] <= 0.97 and mean_loss[best] <= 0.65 and elapsed < 60
        acceptance_record(
            _verdict(
                ok,
                "iris reproduction",
                "best eta %g, mean accuracy %.3f (in [0.87, 0.97]), "
                "mean loss %.3f (<= 0.65), %.1fs (< 60s)"
                % (best, mean_acc[best], mean_loss[best], elapsed),
            )
        )
        assert 0.87 <= mean_acc[best] <= 0.97
        assert mean_loss[best] <= 0.65
        assert elapsed < 60.0


class TestSpiralLadder:
    def test_accuracy_grows_with_support_size(self, acceptance_record):
        started = time.perf_counter()
        sizes = (5, 9, 95)
        means = []
        for size in sizes:
            accs = []
            for seed in range(5):
                full = smnn.gen_spiral(400, seed=seed)
                train_ds, test_ds = smnn.split(full, 0.75, seed=seed)
                pts = train_ds.points.points
                eps = smnn.epsilon_for_size(pts, size, seed=seed)
                support = smnn.epsilon_representative(pts, eps, seed=seed)
                cfg = smnn.TrainConfig(learning_rate=0.1, epochs=500, seed=seed)
                model, _ = smnn.train(pts, train_ds.labels, support, cfg)
                rep = smnn.evaluate(model, test_ds.points.points, test_ds.labels)
                accs.append(rep.accuracy)
            means.append(float(np.mean(accs)))
        elapsed = time.perf_counter() - started

        monotone = means[0] <= means[1] <= means[2]
        ok = monotone and means[2] >= 0.95 and means[0] >= 0.70 and elapsed < 60
        acceptance_record(
            _verdict(
                ok,
                "spiral ladder",
                "mean accuracies %.3f/%.3f/%.3f for sizes 5/9/95 "
                "(monotone, last >= 0.95, first >= 0.70), %.1fs (< 60s)"
                % (means[0], means[1], means[2], elapsed),
            )
        )
        assert monotone
        assert means[2] >= 0.95
        assert means[0] >= 0.70
        assert elapsed < 60.0


class TestGradientCheck:
    def test_matches_central_differences(self, acceptance_record):
        started = time.perf_counter()
        step = 1e-6
        worst = 0.0
        for i in range(50):
            rng = np.random.default_rng(1000 + i)
            n = 2 if i % 2 == 0 else 3
            m = int(rng.integers(n + 3, 13))
            pts = random_cloud(rng, m, n, spread=2.0)
            space = smnn.fit_space(pts, np.arange(m))
            k = 2 if i % 3 else 3
            weights = rng.uniform(-1.0, 1.0, size=(k, m))
            y = int(rng.integers(k))

            w = rng.random(m)
            w /= w.sum()
            x = w @ pts
            if i % 3 == 2:
                far = pts[np.argmax(np.linalg.norm(pts - space.centroid, axis=1))]
                x = space.centroid + 1.25 * (far - space.centroid)

            sparse = smnn.xi(space, x)
            analytic = smnn.gradient(weights, sparse, y).to_dense(m)
            dense = sparse.to_dense(m)

            fd = np.zeros_like(weights)
            for r in range(k):
                for c in range(m):
                    up = weights.copy()
                    up[r, c] += step
                    down = weights.copy()
                    down[r, c] -= step
                    f_up = -np.log(softmax(up @ dense)[y])
                    f_down = -np.log(softmax(down @ dense)[y])
                    fd[r, c] = (f_up - f_down) / (2.0 * step)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            worst = max(worst, float(rel))
        elapsed = time.perf_counter() - started

        ok = worst < 1e-5 and elapsed < 5.0
        acceptance_record(
            _verdict(
                ok,
                "gradient check",
                "max relative error %.1e (< 1e-5) over 50 instances, %.2fs (< 5s)"
                % (worst, elapsed),
            )
        )
        assert worst < 1e-5
        assert elapsed < 5.0


class TestEmptyBall:
    def test_no_circumsphere_violations(self, acceptance_record):
        started = time.perf_counter()
        violations = 0
        clouds = 0
        for i in range(100):
            rng = np.random.default_rng(2000 + i)
            n = 2 if i % 2 == 0 else 3
            m = int(rng.integers(n + 2, 13))
            pts = random_cloud(rng, m, n)
            tri = smnn.build_delaunay(smnn.PointCloud(pts))
            clouds += 1
            for simplex in tri.maximal:
                verts = pts[list(simplex.vertex_ids)]
                others = [j for j in range(m) if j not in simplex.vertex_ids]
                for j in others:
                    if circumsphere_contains(verts, pts[j], tol=1e-7):
                        violations += 1
        elapsed = time.perf_counter() - started

        ok = violations == 0 and elapsed < 10.0
        acceptance_record(
            _verdict(
                ok,
                "empty ball",
                "%d violations over %d clouds (tol 1e-7), %.2fs (< 10s)"
                % (violations, clouds, elapsed),
            )
        )
        assert violations == 0
        assert elapsed < 10.0


class TestEmbeddingProperties:
    def test_partition_reconstruction_continuity(self, acceptance_record):
        started = time.perf_counter()

        partition_dev = 0.0
        recon_dev = 0.0
        n_point_cases = 0
        for s in range(10):
            rng = np.random.default_rng(3000 + s)
            n = 2 if s % 2 == 0 else 3
            m = int(rng.integers(n + 4, 17))
            pts = random_cloud(rng, m, n, spread=2.0)
            space = smnn.fit_space(pts, np.arange(m))
            support = space.support.points
            far = pts[np.argmax(np.linalg.norm(pts - space.centroid, axis=1))]
            for q in range(24):
                if q % 2 == 0:
                    w = rng.random(m)
                    w /= w.sum()
                    x = w @ pts
                else:
                    x = space.centroid + (1.05 + 0.2 * rng.random()) * (
                        far - space.centroid
                    )
                sparse = smnn.xi(space, x)
                total = float(sparse.values.sum()) + sparse.sphere_mass
                partition_dev = max(partition_dev, abs(total - 1.0))
                rebuilt = sparse.to_dense(m) @ support
                if sparse.sphere_mass:
                    w = smnn.project_to_sphere(space, x - space.centroid)
                    rebuilt = rebuilt + sparse.sphere_mass * w
                recon_dev = max(
                    recon_dev, float(np.abs(rebuilt - (x - space.centroid)).max())
                )
                n_point_cases += 1

        # Continuity pairs need simplices with bounded aspect ratio and
        # vertices in general position: the gap across a pair scales with
        # 1/height, and exactly coplanar hull quads admit two barycentric
        # representations of the same point.  A jittered shell around a
        # hub avoids both.
        continuity_dev = 0.0
        n_pairs = 0
        for s in range(4):
            rng = np.random.default_rng(4000 + s)
            n = 2 if s % 2 == 0 else 3
            if n == 2:
                angles = 2.0 * np.pi * np.arange(10) / 10.0 + rng.uniform(-0.1, 0.1, 10)
                ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
                ring *= rng.uniform(0.9, 1.1, 10)[:, None]
                pts = np.vstack([[0.0, 0.0], ring])
            else:
                dirs = np.vstack(
                    [
                        np.eye(3),
                        -np.eye(3),
                        np.array(
                            [
                                [x, y, z]
                                for x in (-1.0, 1.0)
                                for y in (-1.0, 1.0)
                                for z in (-1.0, 1.0)
                            ]
                        )
                        / np.sqrt(3.0),
                    ]
                )
                pts = np.vstack([np.zeros(3), dirs * rng.uniform(0.9, 1.1, 14)[:, None]])
            m = pts.shape[0]
            space = smnn.fit_space(pts, np.arange(m))
            for q in range(60):
                if q % 3 == 2:
                    facet = space.tri.boundary[q % len(space.tri.boundary)]
                    mid = space.support.points[list(facet.facet_ids)].mean(axis=0)
                    unit = facet.normal / np.linalg.norm(facet.normal)
                    a = mid - 0.5e-6 * unit + space.centroid
                    b = mid + 0.5e-6 * unit + space.centroid
                else:
                    w = rng.random(m)
                    w /= w.sum()
                    a = w @ pts
                    unit = rng.standard_normal(n)
                    unit /= np.linalg.norm(unit)
                    b = a + 1e-6 * unit
                xa = smnn.xi(space, a)
                xb = smnn.xi(space, b)
                gap = max(
                    float(np.abs(xa.to_dense(m) - xb.to_dense(m)).max()),
                    abs(xa.sphere_mass - xb.sphere_mass),
                )
                continuity_dev = max(continuity_dev, gap)
                n_pairs += 1
        elapsed = time.perf_counter() - started

        ok = (
            partition_dev < 1e-7
            and recon_dev < 1e-6
            and continuity_dev < 1e-4
            and n_point_cases >= 200
            and n_pairs >= 200
            and elapsed < 10.0
        )
        acceptance_record(
            _verdict(
                ok,
                "embedding properties",
                "partition %.1e (< 1e-7) and reconstruction %.1e (< 1e-6) over %d "
                "cases, continuity %.1e (< 1e-4) over %d pairs, %.2fs (< 10s)"
                % (partition_dev, recon_dev, n_point_cases, continuity_dev, n_pairs, elapsed),
            )
        )
        assert n_point_cases >= 200 and n_pairs >= 200
        assert partition_dev < 1e-7
        assert recon_dev < 1e-6
        assert continuity_dev < 1e-4
        assert elapsed < 10.0


class TestConsistence:
    def test_one_hot_support_accuracy_and_gradients(self, acceptance_record):
        rng = np.random.default_rng(77)
        pts = random_cloud(rng, 20, 2, spread=2.0)
        labels = [str(int(v)) for v in rng.integers(0, 2, size=20)]
        cfg = smnn.TrainConfig(
            learning_rate=0.1, epochs=100, seed=0, init_mode="one_hot"
        )
        model, _ = smnn.train(pts, labels, np.arange(20), cfg)

        encoding = model.encoding
        y = np.array([encoding.index(v) for v in labels])

        hits = sum(smnn.predict(model, pts[i]) == labels[i] for i in range(20))
        support_accuracy = hits / 20.0

        # With the full support, point i embeds as the indicator of column
        # i, so its logits are the one-hot row e_y and its cross-entropy
        # gradient is softmax(e_y) - e_y on column i alone: never zero, but
        # negative on the true class and positive elsewhere, so each step
        # only reinforces the support label.  Column i is touched by point
        # i only, which makes the in-order pass below reach the same
        # weights as the shuffled pass inside train.
        hand = smnn.SmnnModel(
            space=model.space,
            encoding=encoding,
            weights=smnn.init_weights("one_hot", 0, encoding.k, 20, y),
            support_labels=y,
        )
        eye = np.eye(encoding.k)
        sparses = [smnn.xi(model.space, pts[i]) for i in range(20)]
        closed_form_dev = 0.0
        stray_entries = 0
        wrong_signs = 0
        unstable = 0
        epoch_max = []
        for epoch in range(100):
            worst = 0.0
            for i in range(20):
                dense = smnn.gradient(hand.weights, sparses[i], y[i]).to_dense(20)
                column = dense[:, i]
                stray_entries += np.count_nonzero(np.delete(dense, i, axis=1))
                wrong_signs += np.count_nonzero(
                    np.where(eye[y[i]] == 1.0, column >= 0.0, column <= 0.0)
                )
                if epoch == 0:
                    expected = softmax(eye[y[i]]) - eye[y[i]]
                    closed_form_dev = max(
                        closed_form_dev, float(np.abs(column - expected).max())
                    )
                worst = max(worst, float(np.abs(dense).max()))
                smnn.sgd_step(hand.weights, sparses[i], y[i], 0.1)
            epoch_max.append(worst)
            unstable += sum(
                smnn.predict(hand, pts[i]) != labels[i] for i in range(20)
            )
        shrinking = epoch_max[-1] > 0.0 and all(
            a > b for a, b in zip(epoch_max, epoch_max[1:])
        )
        matches_train = np.array_equal(hand.weights, model.weights)

        ok = (
            support_accuracy == 1.0
            and closed_form_dev < 1e-15
            and stray_entries == 0
            and wrong_signs == 0
            and unstable == 0
            and shrinking
            and matches_train
        )
        acceptance_record(
            _verdict(
                ok,
                "consistence",
                "support accuracy %.3f (= 1.0), first-epoch gradient dev %.1e "
                "from softmax(e_y) - e_y (< 1e-15), %d off-column and %d "
                "wrong-sign entries (= 0), %d unstable predictions (= 0), "
                "max |gradient| %.4f -> %.4f (strictly decreasing: %s), "
                "weights equal train: %s"
                % (
                    support_accuracy,
                    closed_form_dev,
                    stray_entries,
                    wrong_signs,
                    unstable,
                    epoch_max[0],
                    epoch_max[-1],
                    "yes" if shrinking else "no",
                    "yes" if matches_train else "no",
                ),
            )
        )
        assert support_accuracy == 1.0
        assert closed_form_dev < 1e-15
        assert stray_entries == 0
        assert wrong_signs == 0
        assert unstable == 0
        assert shrinking
        assert matches_train


class TestClustersPipeline:
    def test_support_size_and_accuracy(self, acceptance_record):
        started = time.perf_counter()
        data = smnn.gen_clusters(1000, n_features=2, class_sep=1.5, seed=0)
        train_ds, test_ds = smnn.split(data, 0.75, seed=0)
        pts = train_ds.points.points
        eps = smnn.epsilon_from_kappa(pts - pts.mean(axis=0), 10.0)
        support = smnn.epsilon_representative(pts, eps, seed=0)
        cfg = smnn.TrainConfig(learning_rate=0.1, epochs=500, seed=0)
        model, _ = smnn.train(pts, train_ds.labels, support, cfg)
        rep = smnn.evaluate(model, test_ds.points.points, test_ds.labels)
        elapsed = time.perf_counter() - started

        m = len(support)
        size_ok = 53 / 3 <= m <= 53 * 3
        ok = size_ok and rep.accuracy >= 0.80
        acceptance_record(
            _verdict(
                ok,
                "clusters pipeline",
                "support size %d (within factor 3 of 53), accuracy %.3f (>= 0.80), "
                "%.1fs" % (m, rep.accuracy, elapsed),
            )
        )
        assert size_ok
        assert rep.accuracy >= 0.80


class TestPersistence:
    def test_round_trip_forward_identity(self, acceptance_record, tmp_path):
        full = smnn.gen_spiral(120, seed=5)
        pts = full.points.points
        eps = smnn.epsilon_for_size(pts, 20, seed=5)
        support = smnn.epsilon_representative(pts, eps, seed=5)
        cfg = smnn.TrainConfig(learning_rate=0.1, epochs=100, seed=5)
        model, _ = smnn.train(pts, full.labels, support, cfg)

        path = tmp_path / "model.json"
        smnn.save_model(model, path)
        loaded, _ = smnn.load_model(path)

        rng = np.random.default_rng(9)
        identical = 0
        for _ in range(100):
            w = rng.random(pts.shape[0])
            w /= w.sum()
            scale = 0.5 + 0.8 * rng.random()
            x = model.space.centroid + scale * (w @ pts - model.space.centroid)
            identical += np.array_equal(
                smnn.forward(model, x), smnn.forward(loaded, x)
            )

        ok = identical == 100
        acceptance_record(
            _verdict(
                ok, "persistence", "%d/100 forward calls bit-identical" % identical
            )
        )
        assert identical == 100
