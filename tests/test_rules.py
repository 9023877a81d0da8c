"""The input rules of smnn.errors (positive, integer, indices) and the
public entry points that apply them.

The rules are reached through the module at run time, so the table of
entry points below also runs against a tree that lacks them."""

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

    def test_rejects_integers_past_int64(self):
        with pytest.raises(ValueError, match="idx: an integer exceeds the int64 range"):
            errors.indices([0, 2 ** 64], "idx", stop=3)

    @pytest.mark.parametrize("values", [[0, 1.0], [0, 3], [2 ** 70]])
    def test_raises_the_given_error(self, values):
        with pytest.raises(Custom, match="idx"):
            errors.indices(values, "idx", stop=3, error=Custom)


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


# (entry point and argument, call on the ctx fixture, error, message match)
ENTRY_POINTS = [
    # sampling
    ("SamplerConfig epsilon=True",
     lambda c: smnn.SamplerConfig("epsilon", epsilon=True), ValueError, "epsilon"),
    ("SamplerConfig kappa=True",
     lambda c: smnn.SamplerConfig("kappa", kappa=True), ValueError, "kappa"),
    ("SamplerConfig seed=1.5",
     lambda c: smnn.SamplerConfig("epsilon", epsilon=0.5, seed=1.5), ValueError, "seed"),
    ("SamplerConfig seed=True",
     lambda c: smnn.SamplerConfig("kappa", kappa=2.0, seed=True), ValueError, "seed"),
    ("epsilon_from_kappa kappa=True",
     lambda c: smnn.epsilon_from_kappa(SQUARE_POINTS, True), ValueError, "kappa"),
    ("epsilon_representative epsilon=True",
     lambda c: smnn.epsilon_representative(SQUARE_POINTS, True), ValueError, "epsilon"),
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
    ("model_from_dict NaN weight",
     lambda c: smnn.model_from_dict(_doc(c, weights=[[math.nan] * 4] * 2)), smnn.ModelFileError,
     "non-finite"),
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


class TestValidInputs:
    """Accepted values of every type take the path of the plain int or float."""

    def test_train_config(self):
        config = smnn.TrainConfig(learning_rate=np.float64(0.1), epochs=np.int64(3), seed=np.uint8(2))
        assert type(config.epochs) is int and config.epochs == 3

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
