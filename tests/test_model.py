"""Label encoding, weights, forward map, prediction and loss."""

import numpy as np
import pytest

import smnn
from smnn.embedding import SparseXi

from conftest import SQUARE_LABELS, SQUARE_POINTS, random_cloud


class TestLabelEncoding:
    def test_sorted_unique(self):
        enc = smnn.LabelEncoding.from_labels(["b", "a", "b", "c"])
        assert enc.labels == ("a", "b", "c")
        assert enc.k == 3
        assert enc.index("b") == 1

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            smnn.LabelEncoding.from_labels(["x", "x"])
        with pytest.raises(ValueError):
            smnn.LabelEncoding(("only",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            smnn.LabelEncoding(("a", "a"))

    def test_unknown_label(self):
        enc = smnn.LabelEncoding(("a", "b"))
        with pytest.raises(KeyError):
            enc.index("z")
        with pytest.raises(smnn.UnknownLabel, match="unknown label 'z'") as err:
            enc.index("z")
        assert isinstance(err.value, smnn.SmnnError)

    def test_encode(self):
        enc = smnn.LabelEncoding(("a", "b"))
        y = enc.encode(["b", "a", "b"], 3)
        assert y.dtype == np.int64 and y.tolist() == [1, 0, 1]
        assert smnn.LabelEncoding(("0", "1")).encode([1, 0], 2).tolist() == [1, 0]
        with pytest.raises(ValueError, match="labels and points disagree: 2 labels, 3 points"):
            enc.encode(["a", "b"], 3)
        with pytest.raises(smnn.UnknownLabel, match="unknown label 'z'"):
            enc.encode(["a", "z"], 2)

    def test_encode_matches_the_per_label_scan(self):
        # Mixed label types go through str, as the first written scan of
        # the label tuple did; the first unknown label is the one named.
        enc = smnn.LabelEncoding(("1", "10", "a", "b"))
        rng = np.random.default_rng(0)
        names = [np.str_("a"), "b", 1, np.int64(10), "10", np.str_("1")]
        labels = [names[i] for i in rng.integers(0, len(names), size=1000)]
        expected = [enc.labels.index(str(v)) for v in labels]
        assert enc.encode(labels, 1000).tolist() == expected
        assert [enc.index(v) for v in labels] == expected
        for bad in (["a", 2, "c"], [np.str_("a"), np.str_("z"), 3]):
            with pytest.raises(smnn.UnknownLabel) as err:
                enc.encode(bad, 3)
            message = "unknown label %r, expected one of %r" % (str(bad[1]), enc.labels)
            assert err.value.args == (message,)


class TestInitWeights:
    def test_one_hot_square_example(self):
        weights = smnn.init_weights("one_hot", 0, 2, 4, [0, 0, 1, 1])
        assert np.array_equal(weights, [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])

    def test_uniform01_deterministic(self):
        a = smnn.init_weights("uniform01", 123, 3, 7)
        b = smnn.init_weights("uniform01", 123, 3, 7)
        assert np.array_equal(a, b)

    def test_uniform01_range(self):
        weights = smnn.init_weights("uniform01", 9, 3, 5)
        assert weights.shape == (3, 5)
        assert weights.min() >= 0.0 and weights.max() < 1.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            smnn.init_weights("xavier", 0, 2, 2, [0, 1])

    def test_one_hot_needs_labels(self):
        with pytest.raises(ValueError):
            smnn.init_weights("one_hot", 0, 2, 2)
        with pytest.raises(ValueError):
            smnn.init_weights("one_hot", 0, 2, 2, [0, 5])

    @pytest.mark.parametrize("labels", [
        [0.5, 1, 0, 1],
        [0.0, 0.0, 1.0, 1.0],
        [True, False, True, False],
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([False, False, True, True]),
    ])
    def test_one_hot_rejects_non_integer_labels(self, labels):
        # A cast to int64 would read 0.5 as class 0 and True as class 1.
        with pytest.raises(ValueError, match="integers"):
            smnn.init_weights("one_hot", 0, 2, 4, labels)


def _sparse(indices, values, mass=0.0, facet=None):
    return SparseXi(
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        sphere_mass=mass,
        facet_used=facet,
    )


class TestLogits:
    def test_square_interior(self, square_model):
        z = smnn.logits(square_model, _sparse([0, 1, 2], [0.3, 0.2, 0.5]))
        assert np.abs(z - 0.5).max() < 1e-15

    def test_vertex_column(self, square_model):
        square_model.weights[:] = np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]])
        z = smnn.logits(square_model, _sparse([2], [1.0]))
        assert np.array_equal(z, square_model.weights[:, 2])

    def test_sphere_mass_excluded(self, square_model):
        base = _sparse([1, 3], [1.0 / 3.0, 1.0 / 3.0], mass=1.0 / 3.0)
        scaled = _sparse([1, 3], [1.0 / 3.0, 1.0 / 3.0], mass=0.9)
        assert np.array_equal(
            smnn.logits(square_model, base), smnn.logits(square_model, scaled)
        )
        assert np.abs(smnn.logits(square_model, base) - 1.0 / 3.0).max() < 1e-15


class TestSoftmax:
    def test_normalization_and_positivity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            z = rng.standard_normal(k) * float(rng.choice([1.0, 10.0]))
            s = smnn.softmax(z)
            assert abs(s.sum() - 1.0) < 1e-9
            assert (s > 0.0).all()

    def test_no_overflow_at_huge_scale(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = smnn.softmax(rng.standard_normal(4) * 1e4)
            assert np.isfinite(s).all()
            assert abs(s.sum() - 1.0) < 1e-9
            assert (s >= 0.0).all()

    def test_extreme_equal_logits(self):
        s = smnn.softmax(np.array([1000.0, 1000.0]))
        assert np.array_equal(s, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.standard_normal(4)
            assert np.abs(smnn.softmax(z) - smnn.softmax(z + 17.3)).max() < 1e-12


class TestForward:
    def test_square_goldens(self, square_model):
        assert np.abs(smnn.forward(square_model, [0.75, 0.6]) - 0.5).max() < 1e-9
        assert np.abs(smnn.forward(square_model, [0.75, 1.25]) - 0.5).max() < 1e-9

    def test_outside_ball_propagates(self, square_model):
        with pytest.raises(smnn.OutsideBall):
            smnn.forward(square_model, [0.75, 9.0])

    def test_probability_vector_invariants(self, square_model):
        rng = np.random.default_rng(2)
        square_model.weights[:] = rng.standard_normal((2, 4))
        for _ in range(50):
            angle = rng.random() * 2.0 * np.pi
            r = rng.random()
            x = square_model.space.centroid + r * np.array([np.cos(angle), np.sin(angle)])
            probs = smnn.forward(square_model, x)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs > 0.0).all()


class TestPredict:
    def test_argmax(self, square_model):
        square_model.weights[:] = np.array([[5.0, 5.0, 5.0, 5.0], [0.0, 0.0, 0.0, 0.0]])
        assert smnn.predict(square_model, [0.75, 0.6]) == "0"

    def test_tie_lowest_index(self, square_model):
        # Golden forwards are exactly (0.5, 0.5): the tie goes to class "0".
        assert smnn.predict(square_model, [0.75, 0.6]) == "0"
        assert smnn.predict(square_model, [0.75, 1.25]) == "0"

    def test_consistence_on_support(self):
        rng = np.random.default_rng(3)
        pts = random_cloud(rng, 20, 2)
        labels = [str(int(v)) for v in rng.integers(0, 3, size=20)]
        enc = smnn.LabelEncoding.from_labels(labels)
        y = np.array([enc.index(v) for v in labels])
        space = smnn.fit_space(pts, list(range(20)), radius_margin=1.0)
        weights = smnn.init_weights("one_hot", 0, enc.k, 20, y)
        model = smnn.SmnnModel(space=space, encoding=enc, weights=weights, support_labels=y)
        for t in range(20):
            assert smnn.predict(model, pts[t]) == labels[t]


class TestLoss:
    def test_uniform_prediction(self, square_model):
        assert abs(smnn.loss(square_model, [0.75, 0.6], "0") - np.log(2.0)) < 1e-9
        assert abs(smnn.loss(square_model, [0.75, 0.6], "1") - np.log(2.0)) < 1e-9

    def test_direct_value(self, square_model):
        # Force probabilities (0.9, 0.1) via logit difference log 9.
        square_model.weights[:] = 0.0
        square_model.weights[0] = np.log(9.0)
        assert abs(smnn.loss(square_model, [0.75, 0.6], "1") + np.log(0.1)) < 1e-9

    def test_confident_correct_loss_small(self, square_model):
        square_model.weights[:] = 0.0
        square_model.weights[0] = 30.0
        assert smnn.loss(square_model, [0.75, 0.6], "0") < 1e-9

    def test_floor_bounds_loss(self, square_model):
        square_model.weights[:] = 0.0
        square_model.weights[0] = 1e4
        loss = smnn.loss(square_model, [0.75, 0.6], "1")
        assert loss <= -np.log(1e-12) + 1e-9
        assert loss > 0.0


class TestSmnnModelValidation:
    @pytest.mark.parametrize("labels", [
        [0.5, 1.7, True, 0],
        [0.0, 1.0, 1.0, 0.0],
        [True, False, True, False],
        np.array([0.0, 1.0, 1.0, 0.0]),
    ])
    def test_non_integer_support_labels_rejected(self, square_model, labels):
        # A cast to int64 would store [0, 1, 1, 0], and explain would
        # report those as the support points' labels.
        with pytest.raises(ValueError, match="integers"):
            smnn.SmnnModel(square_model.space, square_model.encoding, square_model.weights, labels)

    @pytest.mark.parametrize("labels", [[0, 1, 2, 0], [0, -1, 1, 1]])
    def test_out_of_range_support_labels_rejected(self, square_model, labels):
        # Label 2 of k = 2 made explain raise a bare IndexError.
        with pytest.raises(ValueError, match="out of range for k=2"):
            smnn.SmnnModel(square_model.space, square_model.encoding, square_model.weights, labels)

    @pytest.mark.parametrize("labels", [[0, 0, 1, 1], np.array([0, 0, 1, 1], dtype=np.int32)])
    def test_integer_support_labels_stored_as_int64(self, square_model, labels):
        model = smnn.SmnnModel(square_model.space, square_model.encoding, square_model.weights, labels)
        assert model.support_labels.dtype == np.int64
        assert model.support_labels.tolist() == [0, 0, 1, 1]

    def test_shape_mismatches(self, square_space):
        enc = smnn.LabelEncoding(("0", "1"))
        with pytest.raises(ValueError):
            smnn.SmnnModel(square_space, enc, np.zeros((3, 4)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            smnn.SmnnModel(square_space, enc, np.zeros((2, 3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            smnn.SmnnModel(square_space, enc, np.zeros((2, 4)), np.zeros(3, dtype=int))
