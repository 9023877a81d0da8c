"""Dataset generators, CSV round trips and stratified splitting."""

import itertools

import numpy as np
import pytest

import smnn
from smnn.datagen import _hypercube_vertices, _train_counts


def _train_counts_by_steps(counts, train_fraction):
    """split's allocation moving one row at a time, as it once did: the
    oracle of the closed-form drift correction in _train_counts."""
    target = int(sum(counts) * train_fraction)
    raw = [n * train_fraction for n in counts]
    alloc = [int(r) for r in raw]
    by_remainder = sorted(range(len(counts)), key=lambda c: (-(raw[c] - alloc[c]), c))
    for c in by_remainder[: target - sum(alloc)]:
        alloc[c] += 1
    for c, n in enumerate(counts):
        if n >= 2:
            alloc[c] = min(max(alloc[c], 1), n - 1)
    drift = sum(alloc) - target
    adjustable = sorted(range(len(counts)), key=lambda c: (-counts[c], c))
    while drift > 0:
        for c in adjustable:
            if alloc[c] > (1 if counts[c] >= 2 else 0):
                alloc[c] -= 1
                drift -= 1
                break
        else:
            break
    while drift < 0:
        for c in adjustable:
            if alloc[c] < (counts[c] - 1 if counts[c] >= 2 else counts[c]):
                alloc[c] += 1
                drift += 1
                break
        else:
            break
    return alloc


class TestLabeledDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            smnn.LabeledDataset(points=np.zeros((3, 2)), labels=["a", "b"])

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            smnn.LabeledDataset(points=np.zeros((3, 2)), labels=["a", "a", "a"])

    def test_labels_coerced_to_str(self):
        ds = smnn.LabeledDataset(points=np.zeros((2, 2)), labels=[0, 1])
        assert ds.labels == ["0", "1"]
        assert ds.size == 2
        assert ds.dim == 2


class TestGenSpiral:
    def test_shapes_and_labels(self):
        ds = smnn.gen_spiral(200, seed=0)
        assert ds.size == 200
        assert ds.dim == 2
        assert ds.labels == ["0"] * 100 + ["1"] * 100

    def test_deterministic(self):
        a = smnn.gen_spiral(100, seed=4)
        b = smnn.gen_spiral(100, seed=4)
        assert np.array_equal(a.points.points, b.points.points)
        c = smnn.gen_spiral(100, seed=5)
        assert not np.array_equal(a.points.points, c.points.points)

    def test_noiseless_geometry(self):
        ds = smnn.gen_spiral(200, noise_sd=0.0, turns=1.75, seed=0)
        pts = ds.points.points
        s = np.linspace(0.0, 1.0, 100)
        # Radius equals the curve parameter on both arms.
        assert np.abs(np.linalg.norm(pts[:100], axis=1) - s).max() < 1e-12
        assert np.abs(np.linalg.norm(pts[100:], axis=1) - s).max() < 1e-12
        # The second arm is the first rotated by half a turn.
        assert np.abs(pts[100:] + pts[:100]).max() < 1e-12
        # 1.75 turns ends the first arm pointing straight down.
        assert np.abs(pts[99] - [0.0, -1.0]).max() < 1e-9
        assert np.abs(pts[0]).max() == 0.0

    def test_turns_change_layout(self):
        a = smnn.gen_spiral(100, noise_sd=0.0, turns=1.0)
        b = smnn.gen_spiral(100, noise_sd=0.0, turns=2.0)
        assert not np.allclose(a.points.points, b.points.points)

    def test_rejects_bad_counts(self):
        with pytest.raises(smnn.InvalidCount):
            smnn.gen_spiral(101)
        with pytest.raises(smnn.InvalidCount):
            smnn.gen_spiral(2)
        with pytest.raises(smnn.InvalidCount):
            smnn.gen_spiral(100, noise_sd=-0.1)


class TestGenClusters:
    def test_shapes_and_balance(self):
        ds = smnn.gen_clusters(100, n_features=2, clusters_per_class=2, flip_fraction=0.0)
        assert ds.size == 100
        assert ds.dim == 2
        assert ds.labels.count("0") == 50
        assert ds.labels.count("1") == 50

    def test_deterministic(self):
        a = smnn.gen_clusters(80, seed=3)
        b = smnn.gen_clusters(80, seed=3)
        assert np.array_equal(a.points.points, b.points.points)
        assert a.labels == b.labels

    def test_blobs_sit_on_scaled_hypercube_vertices(self):
        ds = smnn.gen_clusters(
            200, n_features=2, clusters_per_class=2, class_sep=50.0, flip_fraction=0.0, seed=1
        )
        pts = ds.points.points
        vertices = 50.0 * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)
        gaps = np.linalg.norm(pts[:, None, :] - vertices[None, :, :], axis=2)
        nearest = gaps.argmin(axis=1)
        assert gaps.min(axis=1).max() < 10.0
        assert set(nearest.tolist()) == {0, 1, 2, 3}
        # Each blob is label-pure and each class owns two blobs.
        labels = np.array(ds.labels)
        owners = {v: set(labels[nearest == v]) for v in range(4)}
        assert all(len(s) == 1 for s in owners.values())
        assert sorted(min(s) for s in owners.values()).count("0") == 2

    def test_flip_count_exact(self):
        clean = smnn.gen_clusters(100, flip_fraction=0.0, seed=6)
        noisy = smnn.gen_clusters(100, flip_fraction=0.1, seed=6)
        order_a = np.lexsort(clean.points.points.T)
        order_b = np.lexsort(noisy.points.points.T)
        assert np.array_equal(clean.points.points[order_a], noisy.points.points[order_b])
        la = np.array(clean.labels)[order_a]
        lb = np.array(noisy.labels)[order_b]
        assert int(np.count_nonzero(la != lb)) == 10

    def test_high_dimensional_centroids_by_rejection(self):
        # Above 4096 vertices the centroids are drawn one at a time and a
        # repeat is redrawn.  Far apart blobs show four distinct centroids.
        a = smnn.gen_clusters(40, n_features=13, class_sep=100.0, flip_fraction=0.0, seed=4)
        b = smnn.gen_clusters(40, n_features=13, class_sep=100.0, flip_fraction=0.0, seed=4)
        assert a.points.points.tobytes() == b.points.points.tobytes() and a.labels == b.labels
        _, counts = np.unique(np.sign(a.points.points), axis=0, return_counts=True)
        assert counts.tolist() == [10] * 4

    def test_rejection_skips_repeated_draws(self):
        # 300 draws from 8192 vertices repeat some vertex; the result is
        # the distinct draws in first-seen order.
        got = _hypercube_vertices(13, 300, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        draws = []
        while len({tuple(v) for v in draws}) < 300:
            draws.append(tuple(np.where(rng.random(13) < 0.5, -1.0, 1.0)))
        assert len(draws) > 300
        assert [tuple(v) for v in got] == list(dict.fromkeys(draws))

    def test_rejects_bad_parameters(self):
        with pytest.raises(smnn.InvalidCount):
            smnn.gen_clusters(5)
        with pytest.raises(smnn.InvalidCount):
            smnn.gen_clusters(50, n_features=1)
        with pytest.raises(smnn.InvalidCount):
            smnn.gen_clusters(50, flip_fraction=1.0)
        with pytest.raises(smnn.TooManyClusters):
            smnn.gen_clusters(50, n_features=2, clusters_per_class=3)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = smnn.gen_spiral(60, seed=2)
        path = tmp_path / "spiral.csv"
        smnn.save_csv(ds, path)
        back = smnn.load_csv(path)
        assert np.array_equal(back.points.points, ds.points.points)
        assert back.labels == ds.labels

    def test_header_layout(self, tmp_path):
        ds = smnn.gen_clusters(20, n_features=3, flip_fraction=0.0)
        path = tmp_path / "c.csv"
        smnn.save_csv(ds, path)
        assert path.read_text().splitlines()[0] == "f1,f2,f3,label"

    def test_missing_label_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n1.0,2.0\n")
        with pytest.raises(smnn.ParseError) as err:
            smnn.load_csv(path)
        assert err.value.row == 1

    @pytest.mark.parametrize(
        "text", ["x" * 100_000 + "\n", "f1,label\n" + "7" * 50_000 + "e,a\n"], ids=["header", "cell"]
    )
    def test_long_text_is_quoted_short(self, tmp_path, text):
        # A one-cell header of 100,000 bytes, or a malformed cell of 50,000:
        # the message quotes the first 80 characters and the length.
        path = tmp_path / "long.csv"
        path.write_text(text)
        with pytest.raises(smnn.ParseError) as err:
            smnn.load_csv(path)
        quoted = text.splitlines()[-1].split(",")[0]
        assert len(str(err.value)) < 200 and "%d characters" % len(quoted) in str(err.value)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,label\n1.0,2.0,a\n1.0,b\n")
        with pytest.raises(smnn.DimensionMismatch):
            smnn.load_csv(path)

    def test_malformed_float_coordinates(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f1,f2,label\n1.0,2.0,a\n1.0,oops,b\n")
        with pytest.raises(smnn.ParseError) as err:
            smnn.load_csv(path)
        assert err.value.row == 3
        assert err.value.column == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_coordinates(self, tmp_path, cell):
        # Refused with the cell's place, not later by the point cloud rule.
        path = tmp_path / "inf.csv"
        path.write_text("f1,f2,label\n1.0,2.0,a\n%s,1.0,b\n" % cell)
        with pytest.raises(smnn.ParseError, match="non-finite numeric cell .* at row 3, column 1$") as err:
            smnn.load_csv(path)
        assert (err.value.row, err.value.column) == (3, 1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(smnn.ParseError):
            smnn.load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f1,f2,label\n")
        with pytest.raises(ValueError):
            smnn.load_csv(path)


class TestLoadIris:
    def test_contents(self):
        ds = smnn.load_iris()
        assert ds.size == 150
        assert ds.dim == 4
        for name in ("setosa", "versicolor", "virginica"):
            assert ds.labels.count(name) == 50
        assert np.array_equal(ds.points.points[0], [5.1, 3.5, 1.4, 0.2])


class TestSplit:
    def test_iris_three_quarters(self):
        train, test = smnn.split(smnn.load_iris(), 0.75, seed=0)
        assert train.size == 112
        assert test.size == 38
        assert train.labels.count("setosa") == 38
        assert train.labels.count("versicolor") == 37
        assert train.labels.count("virginica") == 37

    def test_row_order_preserved(self):
        train, test = smnn.split(smnn.load_iris(), 0.75, seed=0)
        # Iris is stored class by class, so each side stays contiguous.
        assert train.labels == sorted(train.labels)
        assert test.labels == sorted(test.labels)

    def test_partition_is_exact(self):
        ds = smnn.gen_clusters(97, seed=8, flip_fraction=0.0)
        train, test = smnn.split(ds, 0.6, seed=1)
        assert train.size + test.size == 97
        combined = np.vstack([train.points.points, test.points.points])
        key = np.lexsort(combined.T)
        base = np.lexsort(ds.points.points.T)
        assert np.array_equal(combined[key], ds.points.points[base])

    def test_both_sides_stratified(self):
        ds = smnn.gen_clusters(50, seed=9, flip_fraction=0.0)
        for frac in (0.3, 0.5, 0.8):
            train, test = smnn.split(ds, frac, seed=2)
            assert train.size == int(50 * frac)
            for name in ("0", "1"):
                assert name in train.labels
                assert name in test.labels

    @pytest.mark.parametrize(
        "counts, fraction, train_counts",
        [
            # floor(102 * 0.3) = 30 goes to A alone; B keeps a train row,
            # which A gives back.
            ((100, 2), 0.3, (29, 1)),
            # floor(20 * 0.95) = 19 would leave one class no test row; no
            # class can take the row back, so the train side holds 18.
            ((10, 10), 0.95, (9, 9)),
        ],
    )
    def test_both_sides_kept_over_the_total(self, counts, fraction, train_counts):
        labels = ["A"] * counts[0] + ["B"] * counts[1]
        ds = smnn.LabeledDataset(points=np.arange(2.0 * len(labels)).reshape(-1, 2), labels=labels)
        train, test = smnn.split(ds, fraction, seed=0)
        assert (train.labels.count("A"), train.labels.count("B")) == train_counts
        assert train.size + test.size == len(labels)

    @pytest.mark.parametrize(
        "counts, fraction, train_counts",
        [
            # floor(106 * 0.9) = 95, but A and B each keep a test row (94);
            # C, the largest class, takes the missing row.
            ((3, 3, 100), 0.9, (2, 2, 91)),
            # floor(10 * 0.1) = 1, but each class keeps a train row and no
            # class can give one back, so the train side holds 5.
            ((2, 2, 2, 2, 2), 0.1, (1, 1, 1, 1, 1)),
        ],
    )
    def test_drift_restored_by_the_largest_classes(self, counts, fraction, train_counts):
        labels = [name for name, n in zip("ABCDE", counts) for _ in range(n)]
        ds = smnn.LabeledDataset(points=np.arange(2.0 * len(labels)).reshape(-1, 2), labels=labels)
        train, test = smnn.split(ds, fraction, seed=0)
        assert tuple(train.labels.count(name) for name in "ABCDE"[: len(counts)]) == train_counts
        assert train.size + test.size == len(labels)

    def test_train_counts_match_the_step_by_step_rule(self):
        for k in (1, 2, 3):
            for counts in itertools.product(range(1, 9), repeat=k):
                for fraction in np.linspace(0.05, 0.95, 10).tolist():
                    assert _train_counts(list(counts), fraction) == _train_counts_by_steps(
                        list(counts), fraction
                    ), (counts, fraction)

    def test_seed_changes_membership(self):
        ds = smnn.gen_spiral(100, seed=0)
        a, _ = smnn.split(ds, 0.5, seed=0)
        b, _ = smnn.split(ds, 0.5, seed=1)
        assert a.size == b.size
        assert not np.array_equal(a.points.points, b.points.points)

    def test_same_seed_identical(self):
        ds = smnn.gen_spiral(100, seed=0)
        a, _ = smnn.split(ds, 0.7, seed=5)
        b, _ = smnn.split(ds, 0.7, seed=5)
        assert np.array_equal(a.points.points, b.points.points)
        assert a.labels == b.labels

    def test_fraction_bounds(self):
        ds = smnn.gen_spiral(20, seed=0)
        with pytest.raises(ValueError):
            smnn.split(ds, 0.0)
        with pytest.raises(ValueError):
            smnn.split(ds, 1.0)
