"""The input rules of smnn.errors (positive, integer, indices) and the
public entry points that apply them.

The rules are reached through the module at run time, so the table of
entry points below also runs against a tree that lacks them."""

import dataclasses
import inspect
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import smnn
from smnn import cli, errors
from smnn.training import precompute_embeddings

from conftest import SQUARE_LABELS, SQUARE_MARGIN, SQUARE_POINTS

BOOLEANS = (True, False, np.True_, np.False_)
NON_FINITE = (math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"))


class Custom(Exception):
    """An error class a caller passes to a rule."""


class TestPositive:
    @pytest.mark.parametrize("value", [
        1, 0.5, 1e-300, 2 ** 70, np.float64(2.0), np.float32(0.25), np.int64(3), np.uint8(7),
    ])
    def test_accepts_finite_numbers_above_zero(self, value):
        out = errors.positive(value, "rate")
        assert type(out) is float and out == value

    @pytest.mark.parametrize("value", BOOLEANS + NON_FINITE + (
        0, 0.0, -0.0, -1, -0.5, np.int64(-2), np.float64(-1e-300), None, "1", 1j,
    ))
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="rate must be a finite number above zero, got"):
            errors.positive(value, "rate")

    @pytest.mark.parametrize("value", [True, 0.0, math.nan])
    def test_raises_the_given_error(self, value):
        with pytest.raises(Custom, match="margin"):
            errors.positive(value, "margin", error=Custom)

    @pytest.mark.parametrize("sign", [1, -1], ids=["10**400", "-10**400"])
    @pytest.mark.parametrize("low, strict", [(0.0, True), (0.0, False), (-math.inf, True)])
    def test_an_int_past_the_float_range_is_not_finite(self, sign, low, strict):
        with pytest.raises(Custom, match="turns must be a finite number"):
            errors.positive(sign * 10 ** 400, "turns", error=Custom, low=low, strict=strict)


class TestInteger:
    @pytest.mark.parametrize("value, low", [
        (0, 0), (5, 0), (4, 4), (2 ** 70, 1), (np.int64(5), 0), (np.uint8(3), 1), (np.int32(-2), -3),
    ])
    def test_accepts_integers_from_low(self, value, low):
        out = errors.integer(value, "n", low=low)
        assert type(out) is int and out == value

    @pytest.mark.parametrize("value", BOOLEANS + NON_FINITE + (
        1.0, 2.5, np.float64(2.0), -1, np.int64(-1), "2", None,
    ))
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="n must be an integer of at least 0, got"):
            errors.integer(value, "n")

    @pytest.mark.parametrize("value", [3, 0, np.int64(-5)])
    def test_rejects_below_low(self, value):
        with pytest.raises(ValueError, match=re.escape("at least 4, got %r" % (value,))):
            errors.integer(value, "n", low=4)

    @pytest.mark.parametrize("value", [True, 2.0, 1])
    def test_raises_the_given_error(self, value):
        with pytest.raises(Custom, match="count"):
            errors.integer(value, "count", low=2, error=Custom)


class TestIndices:
    @pytest.mark.parametrize("values", [
        [0, 2, 1],
        [np.int64(1), 2, np.uint8(0)],
        np.array([0, 2, 1], dtype=np.int32),
        np.array([0, 2, 1], dtype=np.uint8),
        (0, 1),
    ])
    def test_accepts_integers(self, values):
        out = errors.indices(values, "idx", stop=3)
        assert out.dtype == np.int64 and out.tolist() == list(np.asarray(values).tolist())

    def test_scalar_and_empty(self):
        assert errors.indices(np.int64(2), "idx", stop=3).shape == ()
        assert int(errors.indices(2, "idx", stop=3)) == 2
        assert errors.indices([], "idx", stop=3).size == 0

    def test_no_range_check_without_stop(self):
        assert errors.indices([-1, 10 ** 6], "idx").tolist() == [-1, 10 ** 6]

    @pytest.mark.parametrize("values", [
        [0, True],
        [np.True_, 1],
        [0, 1.0],
        [np.float64(1.0)],
        [0, math.nan],
        [0, math.inf],
        [0.5],
        ["1"],
        [[0, 1.5]],
        np.array([0.0, 1.0]),
        np.array([True, False]),
        True,
        1.0,
        np.float64(1.0),
    ])
    def test_rejects_non_integers(self, values):
        with pytest.raises(ValueError, match="idx: expected integers, not floats or booleans"):
            errors.indices(values, "idx", stop=3)

    @pytest.mark.parametrize("values, bad", [
        ([0, 3], 3),
        ([-1, 0], -1),
        ([0, 4, -1], 4),
        (np.array([5], dtype=np.uint8), 5),
        (-1, -1),
    ])
    def test_rejects_out_of_range(self, values, bad):
        with pytest.raises(ValueError, match=r"^idx %d out of range for k=3$" % bad):
            errors.indices(values, "idx", stop=3)

    @staticmethod
    def long_mixed():
        # 1,000 indices alternating Python ints and np.int64, as a support
        # list of fit_space or a model file's labels may hold them.
        return [i if i % 2 else np.int64(i) for i in range(1000)]

    def test_accepts_a_long_mixed_list(self):
        values = self.long_mixed()
        out = errors.indices(values, "idx", stop=1000)
        assert out.dtype == np.int64 and out.tolist() == list(range(1000))

    @pytest.mark.parametrize("last", [True, np.bool_(True), 1.0])
    def test_rejects_a_long_list_whose_last_element_is_not_an_integer(self, last):
        values = self.long_mixed()
        values[-1] = last
        with pytest.raises(ValueError, match="idx: expected integers, not floats or booleans"):
            errors.indices(values, "idx", stop=1000)

    @pytest.mark.parametrize("values", [
        [[0, 1, 2], [1, 2]],
        [0, [1]],
        [0, None],
        [0, {"1": 1}],
    ], ids=["ragged", "nested", "None", "dict"])
    def test_names_lists_and_other_objects(self, values):
        with pytest.raises(ValueError, match="^idx: expected integers, got lists or other objects$"):
            errors.indices(values, "idx", stop=3)

    def test_rejects_integers_past_int64(self):
        with pytest.raises(ValueError, match="idx: an integer exceeds the int64 range"):
            errors.indices([0, 2 ** 64], "idx", stop=3)

    @pytest.mark.parametrize("values", [[0, 1.0], [0, 3], [2 ** 70]])
    def test_raises_the_given_error(self, values):
        with pytest.raises(Custom, match="idx"):
            errors.indices(values, "idx", stop=3, error=Custom)


class TestReal:
    @pytest.mark.parametrize("values", [
        [1, 2.5], np.array([1, 2], dtype=np.int32), np.array([0.5, None], dtype=object),
    ])
    def test_returns_the_float64_cast(self, values):
        out = errors.real(values, "v")
        assert out.dtype == np.float64
        assert out.tobytes() == np.asarray(values, dtype=np.float64).tobytes()

    def test_a_float64_array_is_returned_as_is(self):
        arr = np.ones(3)
        assert errors.real(arr, "v") is arr

    @pytest.mark.parametrize("values", [
        [1j], np.array([1 + 0j, 2]), np.array([1, 1j], dtype=object), [1j, None], np.complex64(1),
        np.array([np.complex128(0.75 + 3j), 0.6], dtype=object), np.array([np.complex64(1), 2], dtype=object),
    ])
    def test_rejects_complex_numbers(self, values):
        with pytest.raises(ValueError, match="^v must be real numbers.*complex"):
            errors.real(values, "v")


    @pytest.mark.parametrize("values, kind", [
        ([True, False], "booleans"), (np.array([1, 0], dtype=bool), "booleans"), (np.True_, "booleans"),
        (np.array([0.5, True], dtype=object), "booleans"), (np.array([np.False_, 1.0], dtype=object), "booleans"),
        (["0.75", "0.6"], "strings"), (np.array([b"0.75", b"0.6"]), "strings"), ("1", "strings"),
        (np.array([0.5, "0.6"], dtype=object), "strings"), (np.array([np.bytes_(b"1"), 2], dtype=object), "strings"),
        ([True, 0.5], "booleans"), ([[0.5, 1], [np.False_, 2]], "booleans"), ([0.5, "0.6"], "strings"),
    ])
    def test_rejects_booleans_and_strings(self, values, kind):
        with pytest.raises(ValueError, match="^v must be real numbers, got %s$" % kind):
            errors.real(values, "v")


    @pytest.mark.parametrize("values", [[10 ** 400], [[0.5], [-(10 ** 400)]], np.array([10 ** 400], dtype=object)])
    def test_rejects_integers_past_the_float_range(self, values):
        with pytest.raises(ValueError, match="^v must be real numbers: int too large to convert to float$"):
            errors.real(values, "v")


class TestFinite:
    def test_returns_the_float64_cast(self):
        out = errors.finite([1, 2.5], "v")
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("value", NON_FINITE + (None,))
    def test_rejects_non_finite_numbers(self, value):
        with pytest.raises(ValueError, match="^v must be finite numbers, got a non-finite one$"):
            errors.finite(np.array([0.5, value], dtype=object), "v")

    def test_raises_the_given_error(self):
        with pytest.raises(Custom, match="non-finite"):
            errors.finite([math.nan], "v", error=Custom)
        # Complex input breaks the float rule, not the finiteness rule.
        with pytest.raises(ValueError, match="must be real"):
            errors.finite([1j], "v", error=Custom)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    space = smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=SQUARE_MARGIN)
    encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
    y = np.array([0, 0, 1, 1])
    model = smnn.SmnnModel(space, encoding, smnn.init_weights("one_hot", 0, 2, 4, y), y)
    root = tmp_path_factory.mktemp("rules")
    data = root / "d.csv"
    smnn.save_csv(smnn.gen_spiral(40), data)
    return SimpleNamespace(
        space=space,
        encoding=encoding,
        y=y,
        model=model,
        xi=smnn.xi(space, [0.75, 0.6]),
        cached=precompute_embeddings(space, SQUARE_POINTS, y),
        root=root,
        data=data,
    )


def _doc(c, **changes):
    doc = smnn.model_to_dict(c.model)
    doc.update(changes)
    return doc


def _with_true(c, key, *at):
    """The model document as JSON reads it, with true at doc[key][at]."""
    doc = json.loads(json.dumps(smnn.model_to_dict(c.model)))
    *path, last = (key,) + at
    target = doc
    for step in path:
        target = target[step]
    target[last] = True
    return doc


def _train_cli(c, support):
    path = c.root / "support.json"
    path.write_text(json.dumps(support))
    args = cli._build_parser().parse_args([
        "train", "--data", str(c.data), "--support", str(path), "--epochs", "1",
        "--out", str(c.root / "m.json"),
    ])
    return cli._COMMANDS["train"](args)


def _cached(c, y):
    return smnn.CachedEmbedding(batch=c.cached.batch, y=np.array(y))


def _space(c, centroid=None, radius=None):
    """An EmbeddingSpace over the square's complex, with c.space's centroid
    and radius unless given."""
    return smnn.EmbeddingSpace(
        c.space.centroid if centroid is None else centroid, c.space.radius if radius is None else radius, c.space.tri
    )


def _support_norm(c):
    return float(np.linalg.norm(c.space.support.points, axis=1).max())


# (entry point and argument, call on the ctx fixture, error, message match)
ENTRY_POINTS = [
    # sampling
    ("epsilon_from_kappa kappa=True",
     lambda c: smnn.epsilon_from_kappa(SQUARE_POINTS, True), ValueError, "kappa"),
    ("epsilon_representative epsilon=True",
     lambda c: smnn.epsilon_representative(SQUARE_POINTS, True), ValueError, "epsilon"),
    ("epsilon_representative epsilon=10**400",
     lambda c: smnn.epsilon_representative(SQUARE_POINTS, 10 ** 400), ValueError,
     "epsilon must be a finite number above zero"),
    ("epsilon_representative seed=1.5",
     lambda c: smnn.epsilon_representative(SQUARE_POINTS, 0.1, seed=1.5), ValueError, "seed"),
    ("farthest_point_order seed=True",
     lambda c: smnn.farthest_point_order(SQUARE_POINTS, seed=True), ValueError, "seed"),
    ("epsilon_for_size size=True",
     lambda c: smnn.epsilon_for_size(SQUARE_POINTS, True), ValueError, "size must be an integer"),
    ("epsilon_for_size size=0",
     lambda c: smnn.epsilon_for_size(SQUARE_POINTS, 0), ValueError, "size"),
    ("epsilon_for_size size=5",
     lambda c: smnn.epsilon_for_size(SQUARE_POINTS, 5), ValueError, r"size must be in \[1, 4\]"),
    ("epsilon_for_size seed=2.0",
     lambda c: smnn.epsilon_for_size(SQUARE_POINTS, 2, seed=np.float64(2.0)), ValueError, "seed"),
    # training
    ("TrainConfig learning_rate=True",
     lambda c: smnn.TrainConfig(learning_rate=True), ValueError, "learning rate"),
    ("TrainConfig epochs=True", lambda c: smnn.TrainConfig(epochs=True), ValueError, "epochs"),
    ("TrainConfig epochs=2.0", lambda c: smnn.TrainConfig(epochs=2.0), ValueError, "epochs"),
    ("TrainConfig epochs=inf", lambda c: smnn.TrainConfig(epochs=math.inf), ValueError, "epochs"),
    ("TrainConfig epochs=0", lambda c: smnn.TrainConfig(epochs=0), ValueError, "epochs"),
    ("TrainConfig seed=1.5", lambda c: smnn.TrainConfig(seed=1.5), ValueError, "seed"),
    ("TrainConfig seed=True", lambda c: smnn.TrainConfig(seed=True), ValueError, "seed"),
    ("sgd_step eta=True",
     lambda c: smnn.sgd_step(c.model.weights.copy(), c.xi, 0, True), ValueError, "learning rate"),
    ("sgd_step y_index=True",
     lambda c: smnn.sgd_step(c.model.weights.copy(), c.xi, True, 0.1), ValueError, "integers"),
    ("sgd_step y_index=-1",
     lambda c: smnn.sgd_step(c.model.weights.copy(), c.xi, -1, 0.1), ValueError,
     "label index -1 out of range for k=2"),
    ("gradient y_index=2",
     lambda c: smnn.gradient(c.model.weights, c.xi, 2), ValueError,
     "label index 2 out of range for k=2"),
    ("precompute_embeddings labels of shape (4, 1)",
     lambda c: precompute_embeddings(c.space, SQUARE_POINTS, np.zeros((4, 1), int)), ValueError,
     r"label shape \(4, 1\), point shape \(4, 2\)"),
    ("precompute_embeddings labels=[0.0, ...]",
     lambda c: precompute_embeddings(c.space, SQUARE_POINTS, [0.0, 0, 1, 1]), ValueError,
     "integers"),
    # a hand-built cache holds one integer label per embedded row
    ("CachedEmbedding 5 labels for 4 rows",
     lambda c: _cached(c, [0, 0, 1, 1, 0]), ValueError, r"label shape \(5,\), point shape \(4, 2\)"),
    ("CachedEmbedding 3 labels for 4 rows",
     lambda c: _cached(c, [0, 0, 1]), ValueError, r"label shape \(3,\), point shape \(4, 2\)"),
    ("CachedEmbedding labels of shape (2, 2)",
     lambda c: _cached(c, [[0, 0], [1, 1]]), ValueError, r"label shape \(2, 2\), point shape \(4, 2\)"),
    ("CachedEmbedding labels [0.0, ...]",
     lambda c: smnn.CachedEmbedding(c.cached.batch, [0.0, 0, 1, 1]), ValueError,
     "label index: expected integers"),
    ("TrainConfig learning_rate=10**400",
     lambda c: smnn.TrainConfig(learning_rate=10 ** 400), ValueError, "learning rate must be a finite number"),
    ("train_cached label 2",
     lambda c: smnn.train_cached(c.space, _cached(c, [0, 2, 1, 1]), c.y, c.encoding,
                                 smnn.TrainConfig(epochs=1)),
     ValueError, "label index 2 out of range for k=2"),
    # embedding
    ("fit_space radius_margin=True",
     lambda c: smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=True),
     smnn.InvalidMargin, "radius margin"),
    ("fit_space radius_margin=nan",
     lambda c: smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=math.nan),
     smnn.InvalidMargin, "finite"),
    ("fit_space support index 4",
     lambda c: smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 4]), ValueError, "out of range"),
    ("fit_space support index True",
     lambda c: smnn.fit_space(SQUARE_POINTS, [0, 1, True, 3]), ValueError, "integers"),
    ("fit_space non-finite point",
     lambda c: smnn.fit_space([[0.0, 0.0], [1.0, 0.0], [0.0, math.nan]], [0, 1, 2]),
     ValueError, "non-finite"),
    ("fit_space radius_margin=10**400",
     lambda c: smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=10 ** 400),
     smnn.InvalidMargin, "radius margin must be a finite number"),
    # a margin the largest norm absorbs leaves a sphere through a support point
    ("fit_space radius_margin=1e-10 at norm 3.5e9",
     lambda c: smnn.fit_space(SQUARE_POINTS * 1e10, [0, 1, 2, 3], radius_margin=1e-10),
     ValueError, "does not exceed the largest support norm"),
    # the space checks its centroid and radius against its complex
    ("EmbeddingSpace radius below the support norms",
     lambda c: _space(c, radius=0.3), ValueError, r"^radius 0\.3 does not exceed the largest support norm$"),
    ("EmbeddingSpace radius at the largest support norm",
     lambda c: _space(c, radius=_support_norm(c)), ValueError, "does not exceed the largest support norm"),
    ("EmbeddingSpace radius=0",
     lambda c: _space(c, radius=0), ValueError, "radius must be a finite number above zero"),
    ("EmbeddingSpace radius=True",
     lambda c: _space(c, radius=True), ValueError, "radius must be a finite number above zero"),
    ("EmbeddingSpace radius=10**400",
     lambda c: _space(c, radius=10 ** 400), ValueError, "radius must be a finite number above zero"),
    ("EmbeddingSpace radius=inf",
     lambda c: _space(c, radius=math.inf), ValueError, "radius must be a finite number above zero"),
    ("EmbeddingSpace centroid of shape (3,)",
     lambda c: _space(c, centroid=np.zeros(3)), ValueError, r"^centroid has shape \(3,\), expected \(2,\)$"),
    ("EmbeddingSpace centroid of shape (1, 2)",
     lambda c: _space(c, centroid=[[0.5, 0.5]]), ValueError, r"centroid has shape \(1, 2\), expected \(2,\)"),
    ("EmbeddingSpace NaN centroid",
     lambda c: _space(c, centroid=[math.nan, 0.5]), ValueError, "centroid must be finite numbers"),
    ("EmbeddingSpace [True, 0.5] centroid",
     lambda c: _space(c, centroid=[True, 0.5]), ValueError, "centroid must be real numbers, got booleans"),
    ("project_to_sphere 3-coordinate point",
     lambda c: smnn.project_to_sphere(c.space, [0.5, 0.5, 0.5]), smnn.DimensionMismatch, r"shape \(3,\)"),
    ("project_to_sphere NaN point",
     lambda c: smnn.project_to_sphere(c.space, [math.nan, 0.5]), smnn.NonFiniteQuery, "non-finite"),
    ("project_to_sphere infinite point",
     lambda c: smnn.project_to_sphere(c.space, [0.5, math.inf]), smnn.NonFiniteQuery, "non-finite"),
    # model
    ("SmnnModel support label 2",
     lambda c: smnn.SmnnModel(c.space, c.encoding, c.model.weights, [0, 2, 1, 1]), ValueError,
     "support label 2 out of range for k=2"),
    ("SmnnModel support labels of shape (3,)",
     lambda c: smnn.SmnnModel(c.space, c.encoding, c.model.weights, [0, 1, 1]), ValueError,
     "shape"),
    ("SmnnModel NaN weights",
     lambda c: smnn.SmnnModel(c.space, c.encoding, np.full((2, 4), np.nan), c.y), ValueError,
     "non-finite"),
    ("SmnnModel weights of shape (4,)",
     lambda c: smnn.SmnnModel(c.space, c.encoding, np.zeros(4), c.y), ValueError,
     r"weights of shape \(4,\), expected \(k, m\) = \(2, 4\)"),
    ("SmnnModel weights of shape (2, 4, 1)",
     lambda c: smnn.SmnnModel(c.space, c.encoding, np.zeros((2, 4, 1)), c.y), ValueError,
     r"weights of shape \(2, 4, 1\), expected \(k, m\) = \(2, 4\)"),
    ("SmnnModel infinite weight",
     lambda c: smnn.SmnnModel(c.space, c.encoding, np.where(c.y == 0, np.inf, 0.0)[None]
                              .repeat(2, axis=0), c.y), ValueError, "non-finite"),
    ("init_weights support label 2",
     lambda c: smnn.init_weights("one_hot", 0, 2, 4, [0, 1, 1, 2]), ValueError,
     "support label 2 out of range for k=2"),
    ("init_weights seed=1.5",
     lambda c: smnn.init_weights("uniform01", 1.5, 2, 4), ValueError, "seed"),
    ("init_weights support label 1.0",
     lambda c: smnn.init_weights("one_hot", 0, 2, 4, [0, 1, 1.0, 1]), ValueError, "integers"),
    ("init_weights k=2.5",
     lambda c: smnn.init_weights("uniform01", 0, 2.5, 3), ValueError, "k must be an integer"),
    ("init_weights k=True",
     lambda c: smnn.init_weights("one_hot", 0, True, 2, [0, 0]), ValueError, "k must be an integer"),
    ("init_weights k=-1",
     lambda c: smnn.init_weights("uniform01", 0, -1, 3), ValueError, "k must be an integer of at least 1"),
    ("init_weights m=0",
     lambda c: smnn.init_weights("uniform01", 0, 2, 0), ValueError, "m must be an integer of at least 1"),
    ("init_weights m=2.0",
     lambda c: smnn.init_weights("one_hot", 0, 2, 2.0, [0, 1]), ValueError, "m must be an integer"),
    # persist
    ("model_from_dict dim=True",
     lambda c: smnn.model_from_dict(_doc(c, dim=True)), smnn.ModelFileError, "dim"),
    ("model_from_dict dim=2.0",
     lambda c: smnn.model_from_dict(_doc(c, dim=2.0)), smnn.ModelFileError, "dim"),
    ("model_from_dict dim=0",
     lambda c: smnn.model_from_dict(_doc(c, dim=0)), smnn.ModelFileError, "dim"),
    ("model_from_dict n_classes=True",
     lambda c: smnn.model_from_dict(_doc(c, n_classes=True)), smnn.ModelFileError, "n_classes"),
    ("model_from_dict support label 2",
     lambda c: smnn.model_from_dict(_doc(c, support_labels=[0, 2, 1, 1])), smnn.ModelFileError,
     "support label 2 out of range for k=2"),
    ("model_from_dict schema_version=True",
     lambda c: smnn.model_from_dict(_doc(c, schema_version=True)), smnn.ModelFileError,
     "schema_version"),
    ("model_from_dict schema_version=1.0",
     lambda c: smnn.model_from_dict(_doc(c, schema_version=1.0)), smnn.ModelFileError,
     "schema_version"),
    ("model_from_dict schema_version=2.0",
     lambda c: smnn.model_from_dict(_doc(c, schema_version=2.0)), smnn.ModelFileError,
     "schema_version"),
    ("model_from_dict radius=10**400",
     lambda c: smnn.model_from_dict(_doc(c, radius=10 ** 400)), smnn.ModelFileError,
     "radius must be a finite number above zero"),
    ("model_from_dict radius below the support norms",
     lambda c: smnn.model_from_dict(_doc(c, radius=0.3)), smnn.ModelFileError,
     r"^radius 0\.3 does not exceed the largest support norm$"),
    ("model_from_dict centroid of shape (3,)",
     lambda c: smnn.model_from_dict(_doc(c, centroid=[0.5, 0.5, 0.5])), smnn.ModelFileError,
     r"^centroid has shape \(3,\), expected \(2,\)$"),
    ("model_from_dict support points of dimension 3",
     lambda c: smnn.model_from_dict(_doc(c, support_points=[p + [1.0] for p in c.space.support.points.tolist()])),
     smnn.ModelFileError, "^support_points have dimension 3, expected 2$"),
    ("model_from_dict ragged simplices",
     lambda c: smnn.model_from_dict(_doc(c, simplices=[[0, 1, 2], [1, 2]])), smnn.ModelFileError,
     "^simplices: simplex vertex id: expected integers, got lists or other objects$"),
    ("model_from_dict weights of shape (2, 3)",
     lambda c: smnn.model_from_dict(_doc(c, weights=[[0.5] * 3] * 2)), smnn.ModelFileError,
     r"weights of shape \(2, 3\), expected \(k, m\) = \(2, 4\)"),
    ("model_from_dict 3 support labels",
     lambda c: smnn.model_from_dict(_doc(c, support_labels=[0, 1, 1])), smnn.ModelFileError,
     r"support_labels must have shape \(4,\)"),
    ("model_from_dict NaN weight",
     lambda c: smnn.model_from_dict(_doc(c, weights=[[math.nan] * 4] * 2)), smnn.ModelFileError,
     "non-finite"),
    # one JSON true in a numeric field, where a float cast read it as 1
    ("model_from_dict true in weights",
     lambda c: smnn.model_from_dict(_with_true(c, "weights", 0, 0)), smnn.ModelFileError,
     "weights must be real numbers, got booleans"),
    ("model_from_dict true in centroid",
     lambda c: smnn.model_from_dict(_with_true(c, "centroid", 0)), smnn.ModelFileError,
     "centroid must be real numbers, got booleans"),
    ("model_from_dict true in support_points",
     lambda c: smnn.model_from_dict(_with_true(c, "support_points", 0, 0)), smnn.ModelFileError,
     "support_points must be real numbers, got booleans"),
    ("model_from_dict true in support_labels",
     lambda c: smnn.model_from_dict(_with_true(c, "support_labels", 2)), smnn.ModelFileError,
     "support label: expected integers, not floats or booleans"),
    ("model_from_dict true in simplices",
     lambda c: smnn.model_from_dict(_with_true(c, "simplices", 0, 1)), smnn.ModelFileError,
     "simplices: simplex vertex id: expected integers, not floats or booleans"),
    # datagen
    ("gen_clusters clusters_per_class=0",
     lambda c: smnn.gen_clusters(40, clusters_per_class=0), smnn.InvalidCount,
     "clusters_per_class"),
    ("gen_clusters clusters_per_class=-1",
     lambda c: smnn.gen_clusters(40, clusters_per_class=-1), smnn.InvalidCount,
     "clusters_per_class"),
    ("gen_clusters n_features=2.0",
     lambda c: smnn.gen_clusters(40, n_features=2.0), smnn.InvalidCount, "n_features"),
    ("gen_clusters n_samples=40.0",
     lambda c: smnn.gen_clusters(40.0), smnn.InvalidCount, "n_samples"),
    ("gen_clusters n_samples=9",
     lambda c: smnn.gen_clusters(9), smnn.InvalidCount, "n_samples"),
    ("gen_spiral n_samples=40.0",
     lambda c: smnn.gen_spiral(40.0), smnn.InvalidCount, "n_samples"),
    ("gen_spiral n_samples=2", lambda c: smnn.gen_spiral(2), smnn.InvalidCount, "n_samples"),
    ("gen_spiral n_samples=41", lambda c: smnn.gen_spiral(41), smnn.InvalidCount, "even"),
    ("gen_spiral noise_sd=True",
     lambda c: smnn.gen_spiral(40, noise_sd=True), smnn.InvalidCount, "noise_sd"),
    ("gen_spiral noise_sd=nan",
     lambda c: smnn.gen_spiral(40, noise_sd=math.nan), smnn.InvalidCount, "noise_sd"),
    ("gen_spiral noise_sd=-0.1",
     lambda c: smnn.gen_spiral(40, noise_sd=-0.1), smnn.InvalidCount,
     "noise_sd must be a finite number of at least zero, got -0.1"),
    ("gen_spiral turns=inf",
     lambda c: smnn.gen_spiral(40, turns=math.inf), ValueError, "turns must be a finite number,"),
    ("gen_spiral turns=True", lambda c: smnn.gen_spiral(40, turns=True), ValueError, "turns"),
    ("gen_spiral turns='1'", lambda c: smnn.gen_spiral(40, turns="1"), ValueError, "turns"),
    ("gen_clusters class_sep=nan",
     lambda c: smnn.gen_clusters(40, class_sep=math.nan), ValueError, "class_sep"),
    ("gen_clusters class_sep=True",
     lambda c: smnn.gen_clusters(40, class_sep=True), ValueError, "class_sep"),
    ("gen_clusters flip_fraction=True",
     lambda c: smnn.gen_clusters(40, flip_fraction=True), smnn.InvalidCount, "flip_fraction"),
    ("gen_clusters flip_fraction=nan",
     lambda c: smnn.gen_clusters(40, flip_fraction=math.nan), smnn.InvalidCount, "flip_fraction"),
    ("gen_clusters flip_fraction=-0.1",
     lambda c: smnn.gen_clusters(40, flip_fraction=-0.1), smnn.InvalidCount, "flip_fraction"),
    ("gen_clusters flip_fraction=1.0",
     lambda c: smnn.gen_clusters(40, flip_fraction=1.0), smnn.InvalidCount, r"in \[0, 1\)"),
    ("gen_spiral seed=True", lambda c: smnn.gen_spiral(40, seed=True), ValueError, "seed"),
    ("gen_spiral seed=1.5", lambda c: smnn.gen_spiral(40, seed=1.5), ValueError, "seed"),
    ("gen_spiral seed=None", lambda c: smnn.gen_spiral(40, seed=None), ValueError, "seed"),
    ("gen_clusters seed=True", lambda c: smnn.gen_clusters(40, seed=True), ValueError, "seed"),
    ("gen_clusters seed=1.5", lambda c: smnn.gen_clusters(40, seed=1.5), ValueError, "seed"),
    ("gen_clusters seed=None", lambda c: smnn.gen_clusters(40, seed=None), ValueError, "seed"),
    ("gen_spiral turns=10**400",
     lambda c: smnn.gen_spiral(10, turns=10 ** 400), ValueError, "turns must be a finite number,"),
    ("split train_fraction=10**400",
     lambda c: smnn.split(smnn.gen_spiral(40), 10 ** 400), ValueError, "train_fraction must be a finite number"),
    ("split train_fraction='0.5'",
     lambda c: smnn.split(smnn.gen_spiral(40), "0.5"), ValueError, "train_fraction must be a finite number"),
    ("split train_fraction=None",
     lambda c: smnn.split(smnn.gen_spiral(40), None), ValueError, "train_fraction must be a finite number"),
    ("split train_fraction=True",
     lambda c: smnn.split(smnn.gen_spiral(40), True), ValueError, "train_fraction must be a finite number"),
    ("split train_fraction=nan",
     lambda c: smnn.split(smnn.gen_spiral(40), math.nan), ValueError, "train_fraction must be a finite number"),
    ("split train_fraction=0",
     lambda c: smnn.split(smnn.gen_spiral(40), 0), ValueError, "train_fraction"),
    ("split train_fraction=1",
     lambda c: smnn.split(smnn.gen_spiral(40), 1), ValueError, r"train_fraction must be in \(0, 1\)"),
    ("split seed=True",
     lambda c: smnn.split(smnn.gen_spiral(40), 0.5, seed=True), ValueError, "seed"),
    ("split seed=1.5",
     lambda c: smnn.split(smnn.gen_spiral(40), 0.5, seed=1.5), ValueError, "seed"),
    ("split seed=None",
     lambda c: smnn.split(smnn.gen_spiral(40), 0.5, seed=None), ValueError, "seed"),
    # sparse rows: m follows the integer rule
    ("SparseXi.to_dense m=2.5",
     lambda c: c.xi.to_dense(2.5), ValueError, "m must be an integer of at least 1, got 2.5"),
    ("SparseXi.to_dense m=True",
     lambda c: c.xi.to_dense(True), ValueError, "m must be an integer of at least 1, got True"),
    ("SparseGradient.to_dense m=2.5",
     lambda c: smnn.gradient(c.model.weights, c.xi, 0).to_dense(2.5), ValueError,
     "m must be an integer of at least 1, got 2.5"),
    ("SparseGradient.to_dense m=True",
     lambda c: smnn.gradient(c.model.weights, c.xi, 0).to_dense(True), ValueError,
     "m must be an integer of at least 1, got True"),
    # complex input is refused before any float cast could drop its
    # imaginary part
    ("PointCloud complex points",
     lambda c: smnn.PointCloud(SQUARE_POINTS + 1j), ValueError, "point cloud must be real"),
    ("fit_space complex points",
     lambda c: smnn.fit_space(SQUARE_POINTS + 1j, [0, 1, 2, 3]), ValueError, "complex"),
    ("train complex points",
     lambda c: smnn.train(SQUARE_POINTS + 1j, SQUARE_LABELS, [0, 1, 2, 3], smnn.TrainConfig(epochs=1)),
     ValueError, "complex"),
    ("forward complex point",
     lambda c: smnn.forward(c.model, np.array([0.75 + 3j, 0.6])), ValueError, "a point must be real"),
    ("forward [1j, 0.6]",
     lambda c: smnn.forward(c.model, [1j, 0.6]), ValueError, "a point must be real"),
    ("xi complex point",
     lambda c: smnn.xi(c.space, np.array([0.75, 0.6 + 0j])), ValueError, "a point must be real"),
    ("explain complex point",
     lambda c: smnn.explain(c.model, np.array([0.75 + 3j, 0.6])), ValueError, "a point must be real"),
    ("locate complex point",
     lambda c: smnn.locate(c.space.tri, np.array([0.1 + 1j, 0.0])), ValueError, "a point must be real"),
    ("project_to_sphere complex point",
     lambda c: smnn.project_to_sphere(c.space, np.array([0.1 + 1j, 0.2])), ValueError,
     "a point must be real"),
    ("xi_batch complex queries",
     lambda c: smnn.xi_batch(c.space, np.array([[0.75 + 3j, 0.6]])), ValueError, "queries must be real"),
    ("evaluate complex queries",
     lambda c: smnn.evaluate(c.model, np.array([[0.75 + 3j, 0.6]]), ["0"]), ValueError,
     "queries must be real"),
    ("logits complex values",
     lambda c: smnn.logits(c.model, smnn.SparseXi(c.xi.indices, c.xi.values + 1j)), ValueError,
     "sparse row values must be real"),
    ("SmnnModel complex weights",
     lambda c: smnn.SmnnModel(c.space, c.encoding, c.model.weights + 1j, c.y), ValueError,
     "weights must be real"),
    ("softmax complex logits",
     lambda c: smnn.softmax(np.array([1.0 + 2j, 0.0])), ValueError, "logits must be real"),
    # complex numbers among the objects of an object array: the cast would
    # raise a bare TypeError for Python's complex, and keep only the real
    # parts of NumPy's complex scalars or of a complex block
    ("forward complex object",
     lambda c: smnn.forward(c.model, np.array([0.75, 0.6 + 0j], dtype=object)), ValueError,
     "a point must be real numbers, got complex ones"),
    ("forward [1j, None]",
     lambda c: smnn.forward(c.model, [1j, None]), ValueError, "a point must be real numbers, got complex ones"),
    ("xi complex object",
     lambda c: smnn.xi(c.space, np.array([0.75 + 3j, 0.6], dtype=object)), ValueError,
     "a point must be real numbers, got complex ones"),
    ("explain complex object",
     lambda c: smnn.explain(c.model, np.array([1j, 0.6], dtype=object)), ValueError,
     "a point must be real numbers, got complex ones"),
    ("evaluate complex objects",
     lambda c: smnn.evaluate(c.model, np.array([[0.75, 0.6 + 0j]], dtype=object), ["0"]), ValueError,
     "queries must be real numbers, got complex ones"),
    ("fit_space complex objects",
     lambda c: smnn.fit_space(np.array([[0, 0], [1, 0], [0, 1 + 0j]], dtype=object), [0, 1, 2]),
     ValueError, "point cloud must be real numbers, got complex ones"),
    ("PointCloud complex objects",
     lambda c: smnn.PointCloud(np.array([[0, 0], [1, 0], [0, 1 + 0j]], dtype=object)), ValueError,
     "point cloud must be real numbers, got complex ones"),
    ("softmax complex objects",
     lambda c: smnn.softmax(np.array([1, 2 + 1j], dtype=object)), ValueError,
     "logits must be real numbers, got complex ones"),
    ("logits complex object values",
     lambda c: smnn.logits(c.model, smnn.SparseXi(c.xi.indices, c.xi.values.astype(object) + 0j)),
     ValueError, "sparse row values must be real numbers, got complex ones"),
    ("SparseXi.to_dense complex object values",
     lambda c: smnn.SparseXi(c.xi.indices, c.xi.values.astype(object) + 0j).to_dense(4), ValueError,
     "sparse row values must be real numbers, got complex ones"),
    ("SparseGradient.to_dense complex block",
     lambda c: smnn.SparseGradient(np.array([0]), np.array([[1 + 2j], [0.5]])).to_dense(4), ValueError,
     "a gradient block must be real numbers, got complex"),
    ("SparseGradient.to_dense complex object block",
     lambda c: smnn.SparseGradient(np.array([0]), np.array([[1 + 2j], [0.5]], dtype=object)).to_dense(4),
     ValueError, "a gradient block must be real numbers, got complex ones"),
    ("forward NumPy complex128 object",
     lambda c: smnn.forward(c.model, np.array([np.complex128(0.75 + 3j), 0.6], dtype=object)), ValueError,
     "a point must be real numbers, got complex ones"),
    ("explain NumPy complex64 object",
     lambda c: smnn.explain(c.model, np.array([np.complex64(0.75), 0.6], dtype=object)), ValueError,
     "a point must be real numbers, got complex ones"),
    ("evaluate NumPy complex128 objects",
     lambda c: smnn.evaluate(c.model, np.array([[np.complex128(0.75 + 1j), 0.6]], dtype=object), ["0"]),
     ValueError, "queries must be real numbers, got complex ones"),
    ("PointCloud NumPy complex64 objects",
     lambda c: smnn.PointCloud(np.array([[0, 0], [1, 0], [0, np.complex64(1)]], dtype=object)), ValueError,
     "point cloud must be real numbers, got complex ones"),
    ("softmax NumPy complex128 objects",
     lambda c: smnn.softmax(np.array([1, np.complex128(2 + 1j)], dtype=object)), ValueError,
     "logits must be real numbers, got complex ones"),
    ("SparseGradient.to_dense NumPy complex128 object block",
     lambda c: smnn.SparseGradient(np.array([0]), np.array([[np.complex128(1 + 2j)], [0.5]], dtype=object))
     .to_dense(4), ValueError, "a gradient block must be real numbers, got complex ones"),
    # booleans and strings are not numbers, though the float cast reads
    # them as 0 or 1 and parses them
    ("forward [True, True]",
     lambda c: smnn.forward(c.model, [True, True]), ValueError, "a point must be real numbers, got booleans"),
    ('forward ["0.75", "0.6"]',
     lambda c: smnn.forward(c.model, ["0.75", "0.6"]), ValueError, "a point must be real numbers, got strings"),
    ('forward [b"0.75", b"0.6"]',
     lambda c: smnn.forward(c.model, np.array([b"0.75", b"0.6"])), ValueError,
     "a point must be real numbers, got strings"),
    ("forward boolean object",
     lambda c: smnn.forward(c.model, np.array([0.75, np.True_], dtype=object)), ValueError,
     "a point must be real numbers, got booleans"),
    ("xi boolean point",
     lambda c: smnn.xi(c.space, np.array([True, False])), ValueError, "a point must be real numbers, got booleans"),
    ('explain ["0.75", 0.6] objects',
     lambda c: smnn.explain(c.model, np.array(["0.75", 0.6], dtype=object)), ValueError,
     "a point must be real numbers, got strings"),
    ("evaluate boolean queries",
     lambda c: smnn.evaluate(c.model, [[True, False]], ["0"]), ValueError,
     "queries must be real numbers, got booleans"),
    ("PointCloud 0/1 booleans",
     lambda c: smnn.PointCloud([[True, False], [False, True], [True, True]]), ValueError,
     "point cloud must be real numbers, got booleans"),
    ("fit_space string points",
     lambda c: smnn.fit_space(SQUARE_POINTS.astype(str), [0, 1, 2, 3]), ValueError,
     "point cloud must be real numbers, got strings"),
    ("softmax boolean logits",
     lambda c: smnn.softmax(np.array([True, False])), ValueError, "logits must be real numbers, got booleans"),
    ("logits boolean values",
     lambda c: smnn.logits(c.model, smnn.SparseXi(c.xi.indices, c.xi.values > 0)), ValueError,
     "sparse row values must be real numbers, got booleans"),
    ("SparseGradient.to_dense string block",
     lambda c: smnn.SparseGradient(np.array([0]), np.array([["1"], ["0.5"]])).to_dense(4), ValueError,
     "a gradient block must be real numbers, got strings"),
    ("SmnnModel boolean weights",
     lambda c: smnn.SmnnModel(c.space, c.encoding, np.ones((2, 4), dtype=bool), c.y), ValueError,
     "weights must be real numbers, got booleans"),
    # a list that mixes a boolean with numbers is read element by element,
    # where casting it first made a float array that read True as 1.0
    ("forward [True, 0.05]",
     lambda c: smnn.forward(c.model, [True, 0.05]), ValueError, "a point must be real numbers, got booleans"),
    ("xi [True, 0.05]",
     lambda c: smnn.xi(c.space, [True, 0.05]), ValueError, "a point must be real numbers, got booleans"),
    ("explain [np.True_, 0.05]",
     lambda c: smnn.explain(c.model, [np.True_, 0.05]), ValueError, "a point must be real numbers, got booleans"),
    ("evaluate [[True, 0.1], [0.1, 0.1]]",
     lambda c: smnn.evaluate(c.model, [[True, 0.1], [0.1, 0.1]], ["0", "1"]), ValueError,
     "queries must be real numbers, got booleans"),
    ("PointCloud [[True, 0.5], ...]",
     lambda c: smnn.PointCloud([[True, 0.5], [0, 1], [1, 0]]), ValueError,
     "point cloud must be real numbers, got booleans"),
    ("fit_space [[True, 0.5], ...]",
     lambda c: smnn.fit_space([[True, 0.5], [0, 1], [1, 0]], [0, 1, 2]), ValueError,
     "point cloud must be real numbers, got booleans"),
    ("softmax [True, 1.0]",
     lambda c: smnn.softmax([True, 1.0]), ValueError, "logits must be real numbers, got booleans"),
    ("logits values [True, ...]",
     lambda c: smnn.logits(c.model, smnn.SparseXi(c.xi.indices, [True] + c.xi.values.tolist()[1:])), ValueError,
     "sparse row values must be real numbers, got booleans"),
    ("SparseXi.to_dense values [True, ...]",
     lambda c: smnn.SparseXi(c.xi.indices, [True] + c.xi.values.tolist()[1:]).to_dense(4), ValueError,
     "sparse row values must be real numbers, got booleans"),
    ("SparseGradient.to_dense block [[True], [0.5]]",
     lambda c: smnn.SparseGradient(np.array([0]), [[True], [0.5]]).to_dense(4), ValueError,
     "a gradient block must be real numbers, got booleans"),
    # any other object the float cast refuses breaks the same rule, an
    # integer past the float range included
    ("forward [object(), 0.6]",
     lambda c: smnn.forward(c.model, [object(), 0.6]), ValueError, "a point must be real numbers: "),
    ("forward [10**400, 0.0]",
     lambda c: smnn.forward(c.model, [10 ** 400, 0.0]), ValueError, "a point must be real numbers: int too large"),
    ("PointCloud [[10**400, 0.0], ...]",
     lambda c: smnn.PointCloud([[10 ** 400, 0.0], [1.0, 2.0]]), ValueError,
     "point cloud must be real numbers: int too large"),
    ("softmax [10**400, 1]",
     lambda c: smnn.softmax([10 ** 400, 1]), ValueError, "logits must be real numbers: int too large"),
    # cli
    ("train --support [true, ...]",
     lambda c: _train_cli(c, [True, 1, 2, 3]), smnn.ParseError, "integers"),
    ("train --support [..., 2.0]",
     lambda c: _train_cli(c, [0, 1, 2.0, 3]), smnn.ParseError, "integers"),
    ("train --support [2**64]",
     lambda c: _train_cli(c, [0, 1, 2, 2 ** 64]), smnn.ParseError, "int64 range"),
    ("train --support [[...]]",
     lambda c: _train_cli(c, [[0, 1, 2, 3]]), smnn.ParseError, "JSON array of integers"),
    ("train --support {}",
     lambda c: _train_cli(c, {"0": 1}), smnn.ParseError, "JSON array of integers"),
]


@pytest.mark.parametrize(
    "call, error, match", [row[1:] for row in ENTRY_POINTS], ids=[row[0] for row in ENTRY_POINTS]
)
def test_entry_point_rejects(ctx, call, error, match):
    with pytest.raises(error, match=match):
        call(ctx)


class TestRecords:
    """EmbeddingSpace and CachedEmbedding check their own fields, so the
    loader only maps a document onto the records."""

    def test_the_space_derives_its_support_and_dimension(self, ctx):
        assert list(inspect.signature(smnn.EmbeddingSpace).parameters) == ["centroid", "radius", "tri"]
        space = smnn.EmbeddingSpace(ctx.space.centroid.tolist(), 2, ctx.space.tri)
        assert space.support is ctx.space.tri.cloud and space.dim == 2
        assert space.centroid.tolist() == ctx.space.centroid.tolist() and type(space.radius) is float

    def test_the_loader_reads_the_weights_and_labels_once(self, ctx, monkeypatch):
        # Every module's binding of the two rules is wrapped; each call
        # records the name of the field it checks.
        calls = []
        for module in (smnn.persist, smnn.model, smnn.embedding, smnn.geometry, smnn.training):
            for name in ("finite", "indices"):
                rule = getattr(module, name, None)
                if rule is not None:
                    monkeypatch.setattr(module, name, lambda v, what, *a, _rule=rule, **k: (
                        calls.append(what) or _rule(v, what, *a, **k)))
        doc = json.loads(json.dumps(smnn.model_to_dict(ctx.model)))
        model, _ = smnn.model_from_dict(doc)
        assert calls.count("weights") == 1 and calls.count("support label") == 1
        assert model.weights.tobytes() == ctx.model.weights.tobytes()
        assert model.support_labels.tolist() == ctx.model.support_labels.tolist()


class TestSparseRow:
    """logits, both to_dense views, sgd_step and gradient read one sparse-row
    rule: an index outside [0, m), unequal lengths or a non-finite value
    raises, and no weight moves."""

    ROWS = [
        ("index -1", [-1], [1.0], "support index -1 out of range for k=4"),
        ("index m", [4], [1.0], "support index 4 out of range for k=4"),
        ("float index", [0.0], [1.0], "integers"),
        ("NaN value", [0], [math.nan], "non-finite"),
        ("infinite value", [0, 1], [0.5, math.inf], "non-finite"),
        ("unequal lengths", [0, 1], [1.0], "2 support indices"),
        ("2-D values", [0, 1], [[0.5, 0.0], [0.0, 0.5]], "2 support indices"),
    ]

    @pytest.mark.parametrize("cols, vals, match", [r[1:] for r in ROWS], ids=[r[0] for r in ROWS])
    def test_rejects_and_leaves_the_weights(self, ctx, cols, vals, match):
        row = smnn.SparseXi(np.array(cols), np.array(vals))
        kept = ctx.model.weights.copy()
        work = kept.copy()
        calls = [
            lambda: smnn.logits(ctx.model, row),
            lambda: row.to_dense(4),
            lambda: smnn.SparseGradient(np.array(cols), np.outer([1.0, -1.0], vals)).to_dense(4),
            lambda: smnn.sgd_step(work, row, 0, 0.1),
            lambda: smnn.gradient(work, row, 0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()
        assert ctx.model.weights.tobytes() == kept.tobytes() and work.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("block", [[1.0, -1.0], [[[1.0, -1.0]]]], ids=["1-D", "3-D"])
    def test_gradient_block_must_be_2d(self, block):
        with pytest.raises(ValueError, match="does not fit 2 support indices"):
            smnn.SparseGradient(np.array([0, 1]), np.array(block)).to_dense(4)


class TestValidInputs:
    """Accepted values of every type take the path of the plain int or float."""

    def test_train_config(self):
        config = smnn.TrainConfig(learning_rate=np.float64(0.1), epochs=np.int64(3), seed=np.uint8(2),
                                  shuffle=np.False_)
        assert type(config.epochs) is int and config.epochs == 3
        # The config keeps what its rules return, so it is JSON as provenance.
        assert type(config.learning_rate) is float and config.learning_rate == 0.1
        assert type(config.seed) is int and config.seed == 2
        assert type(config.shuffle) is bool and config.shuffle is False
        assert json.loads(json.dumps(dataclasses.asdict(config))) == {
            "learning_rate": 0.1, "epochs": 3, "seed": 2, "init_mode": "uniform01", "shuffle": False}

    def test_sampling(self):
        pts = np.random.default_rng(0).random((30, 2))
        eps = smnn.epsilon_for_size(pts, np.int64(7), seed=np.int64(3))
        assert eps == smnn.epsilon_for_size(pts, 7, seed=3)
        assert smnn.epsilon_representative(pts, np.float64(eps), seed=np.int32(3)) == (
            smnn.epsilon_representative(pts, eps, seed=3)
        )
        assert smnn.epsilon_from_kappa(pts, 4) == smnn.epsilon_from_kappa(pts, 4.0)

    def test_fit_space_margin(self):
        a = smnn.fit_space(SQUARE_POINTS, np.arange(4), radius_margin=1)
        b = smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=1.0)
        assert a.radius == b.radius

    def test_generators(self):
        a = smnn.gen_clusters(np.int64(40), n_features=np.int64(3), clusters_per_class=np.int64(1))
        b = smnn.gen_clusters(40, n_features=3, clusters_per_class=1)
        assert np.array_equal(a.points.points, b.points.points) and a.labels == b.labels

    def test_generator_real_parameters(self):
        # Integer and NumPy values of the real-valued parameters, and the
        # edge values zero and negative, give the bits of the plain float.
        pairs = [
            (smnn.gen_spiral(40, noise_sd=np.float64(0.02), turns=np.float32(0.5)),
             smnn.gen_spiral(40, noise_sd=0.02, turns=0.5)),
            (smnn.gen_spiral(40, noise_sd=0, turns=-1), smnn.gen_spiral(40, noise_sd=0.0, turns=-1.0)),
            (smnn.gen_clusters(40, class_sep=2, flip_fraction=0), smnn.gen_clusters(40, class_sep=2.0, flip_fraction=0.0)),
            (smnn.gen_clusters(40, class_sep=np.float64(-1.5), flip_fraction=np.float64(0.1)),
             smnn.gen_clusters(40, class_sep=-1.5, flip_fraction=0.1)),
        ]
        for a, b in pairs:
            assert a.points.points.tobytes() == b.points.points.tobytes() and a.labels == b.labels

    def test_generator_and_split_seeds(self):
        for seed in (np.int64(3), np.uint8(3)):
            for make in (smnn.gen_spiral, smnn.gen_clusters):
                a, b = make(40, seed=seed), make(40, seed=3)
                assert np.array_equal(a.points.points, b.points.points) and a.labels == b.labels
            a, b = smnn.split(smnn.gen_spiral(40), 0.5, seed=seed)
            c, d = smnn.split(smnn.gen_spiral(40), 0.5, seed=3)
            assert np.array_equal(a.points.points, c.points.points) and b.labels == d.labels


class TestPointCloudQueries:
    """A PointCloud of queries takes the path of its array, bit for bit:
    translate_queries is the one query rule of every batch entry point."""

    # Two rows inside the square's hull and two outside it.
    ROWS = np.array([[0.6, 0.7], [0.9, 0.55], [0.3, 0.75], [1.2, 1.0]])

    @staticmethod
    def _bits(batch):
        return [a.tobytes() for a in (batch.indptr, batch.indices, batch.values,
                                      batch.sphere_mass, batch.facet)]

    def test_embed_batch(self, ctx):
        cloud = smnn.PointCloud(self.ROWS)
        assert self._bits(smnn.embedding.embed_batch(ctx.space, cloud)) == self._bits(
            smnn.embedding.embed_batch(ctx.space, self.ROWS)
        )

    def test_xi_batch(self, ctx):
        for a, b in zip(smnn.xi_batch(ctx.space, smnn.PointCloud(self.ROWS)),
                        smnn.xi_batch(ctx.space, self.ROWS)):
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.values.tobytes() == b.values.tobytes()
            assert (a.sphere_mass, a.facet_used) == (b.sphere_mass, b.facet_used)

    def test_evaluate(self, ctx):
        labels = ["0", "1", "0", "1"]
        a = smnn.evaluate(ctx.model, smnn.PointCloud(self.ROWS), labels).to_dict()
        b = smnn.evaluate(ctx.model, self.ROWS, labels).to_dict()
        assert a == b and a["n_out_of_hull"] == 2

    def test_precompute_embeddings(self, ctx):
        a = precompute_embeddings(ctx.space, smnn.PointCloud(self.ROWS), [0, 1, 0, 1])
        b = precompute_embeddings(ctx.space, self.ROWS, [0, 1, 0, 1])
        assert self._bits(a.batch) == self._bits(b.batch) and a.y.tobytes() == b.y.tobytes()
