"""Trainable, explainable simplicial-map classifiers.

A classifier here is a softmax over a trainable weight matrix indexed by
a support subset of the training data: queries are embedded as convex
(barycentric) combinations of support points via a Delaunay
triangulation, points outside the data hull borrow a projection onto a
bounding sphere, and predictions decompose exactly into per-vertex
contributions.
"""

from .datagen import LabeledDataset, gen_clusters, gen_spiral, load_csv, load_iris, save_csv, split
from .embedding import (
    EmbeddingBatch,
    EmbeddingSpace,
    SparseXi,
    fit_space,
    project_to_sphere,
    xi,
    xi_batch,
)
from .errors import (
    DegenerateSupport,
    DimensionMismatch,
    DimensionTooSmall,
    InvalidCount,
    InvalidMargin,
    ModelFileError,
    NoContainingVirtualSimplex,
    NonFiniteQuery,
    NonFiniteWeights,
    OutsideBall,
    ParseError,
    SingularSimplex,
    SmnnError,
    TooManyClusters,
    UnknownLabel,
    ZeroNorm,
)
from .explain import Explanation, explain, render_explanation_svg
from .geometry import (
    BoundaryFacet,
    PointCloud,
    Simplex,
    Triangulation,
    build_delaunay,
    locate,
)
from .model import LabelEncoding, SmnnModel, forward, init_weights, logits, loss, predict, softmax
from .persist import load_model, model_from_dict, model_to_dict, save_model
from .sampling import (
    epsilon_for_size,
    epsilon_from_kappa,
    epsilon_representative,
    farthest_point_order,
)
from .training import (
    CachedEmbedding,
    EvalReport,
    SparseGradient,
    TrainConfig,
    TrainReport,
    evaluate,
    gradient,
    precompute_embeddings,
    sgd_step,
    train,
    train_cached,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryFacet",
    "CachedEmbedding",
    "DegenerateSupport",
    "DimensionMismatch",
    "DimensionTooSmall",
    "EmbeddingBatch",
    "EmbeddingSpace",
    "EvalReport",
    "Explanation",
    "InvalidCount",
    "InvalidMargin",
    "LabelEncoding",
    "LabeledDataset",
    "ModelFileError",
    "NoContainingVirtualSimplex",
    "NonFiniteQuery",
    "NonFiniteWeights",
    "OutsideBall",
    "ParseError",
    "PointCloud",
    "Simplex",
    "SingularSimplex",
    "SmnnError",
    "SmnnModel",
    "SparseGradient",
    "SparseXi",
    "TooManyClusters",
    "TrainConfig",
    "TrainReport",
    "Triangulation",
    "UnknownLabel",
    "ZeroNorm",
    "build_delaunay",
    "epsilon_for_size",
    "epsilon_from_kappa",
    "epsilon_representative",
    "evaluate",
    "explain",
    "farthest_point_order",
    "fit_space",
    "forward",
    "gen_clusters",
    "gen_spiral",
    "gradient",
    "init_weights",
    "load_csv",
    "load_iris",
    "load_model",
    "locate",
    "logits",
    "loss",
    "model_from_dict",
    "model_to_dict",
    "precompute_embeddings",
    "predict",
    "project_to_sphere",
    "render_explanation_svg",
    "save_csv",
    "save_model",
    "sgd_step",
    "softmax",
    "split",
    "train",
    "train_cached",
    "xi",
    "xi_batch",
]
