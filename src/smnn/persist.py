"""Model persistence as a single self-describing JSON document.

The file stores what inference needs and cannot derive: label names,
centroid, radius, the translated support points with labels, the maximal
simplices of the triangulation and the weight matrix.  Loading rebuilds
the hull facets and the inverted vertex systems from the support points
and simplices through geometry.build_triangulation, the code that built
them at training time, and checks every field first.  Floats go through
json's repr-based encoder, which round-trips doubles exactly, so a
reloaded model reproduces forward outputs bit for bit.

Schema version 2 is written.  Version 1 files, which also listed the
boundary facets, load through the same code; their facets are ignored.
A file that is not a JSON document, or a malformed or inconsistent
document, raises ModelFileError.
"""

import json

import numpy as np

from .embedding import EmbeddingSpace
from .errors import ModelFileError, SingularSimplex, finite, indices, integer
from .geometry import PointCloud, build_triangulation
from .model import LabelEncoding, SmnnModel

SCHEMA_VERSION = 2
READABLE_VERSIONS = (1, 2)

_REQUIRED = (
    "dim",
    "n_classes",
    "labels",
    "centroid",
    "radius",
    "support_points",
    "support_labels",
    "simplices",
    "weights",
)


def model_to_dict(model, provenance=None):
    space = model.space
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": space.dim,
        "n_classes": model.encoding.k,
        "labels": list(model.encoding.labels),
        "centroid": space.centroid.tolist(),
        "radius": space.radius,
        "support_points": space.support.points.tolist(),
        "support_labels": model.support_labels.tolist(),
        "simplices": space.tri.simplices.tolist(),
        "weights": model.weights.tolist(),
        "provenance": dict(provenance) if provenance else {},
    }


def save_model(model, path, provenance=None):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, provenance), fh, indent=1)
        fh.write("\n")


def _array(doc, key, shape, integer=False):
    """doc[key] as a finite numeric array of the given shape, where None
    matches any length; integer arrays must hold JSON integers."""
    try:
        arr = np.array(doc[key])
    except ValueError:
        raise ModelFileError("%s is not a rectangular array" % key) from None
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise ModelFileError(
            "%s must hold %s, got %s" % (key, "integers" if integer else "numbers", arr.dtype)
        )
    if arr.ndim != len(shape) or any(want not in (None, got) for got, want in zip(arr.shape, shape)):
        raise ModelFileError(
            "%s has shape %s, expected %s"
            % (key, arr.shape, tuple("*" if s is None else s for s in shape))
        )
    return arr.astype(np.int64) if integer else finite(arr, key, ModelFileError)


def model_from_dict(doc):
    """Model and provenance from a parsed model document.

    Checks keys, types, shapes, finiteness, label and simplex ranges and
    a radius above the largest support norm, and rebuilds the
    triangulation from the stored simplices; raises ModelFileError on the
    first problem.
    """
    if not isinstance(doc, dict):
        raise ModelFileError("a model document must be a JSON object")
    version = integer(doc.get("schema_version"), "schema_version", error=ModelFileError)
    if version not in READABLE_VERSIONS:
        raise ModelFileError(
            "unsupported model schema version %r, expected one of %r"
            % (version, READABLE_VERSIONS)
        )
    missing = [key for key in _REQUIRED if key not in doc]
    if missing:
        raise ModelFileError("model document lacks %s" % ", ".join(missing))

    dim = integer(doc["dim"], "dim", low=1, error=ModelFileError)
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise ModelFileError("labels must be a list of strings")
    try:
        encoding = LabelEncoding(tuple(labels))
    except ValueError as exc:
        raise ModelFileError("labels: %s" % exc) from None
    k = encoding.k
    if integer(doc["n_classes"], "n_classes", error=ModelFileError) != k:
        raise ModelFileError("n_classes %r != %d labels" % (doc["n_classes"], k))

    points = _array(doc, "support_points", (None, dim))
    m = points.shape[0]
    centroid = _array(doc, "centroid", (dim,))
    radius = float(_array(doc, "radius", ()))
    if not radius > np.linalg.norm(points, axis=1).max():
        raise ModelFileError("radius %r does not exceed the largest support norm" % radius)
    weights = _array(doc, "weights", (k, m))
    support_labels = _array(doc, "support_labels", (m,), integer=True)
    support_labels = indices(support_labels, "support label", stop=k, error=ModelFileError)
    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ModelFileError("provenance must be a JSON object")

    support = PointCloud(points)
    try:
        tri = build_triangulation(support, doc["simplices"])
    except (ValueError, SingularSimplex) as exc:
        raise ModelFileError("simplices: %s" % exc) from None
    space = EmbeddingSpace(dim=dim, centroid=centroid, radius=radius, support=support, tri=tri)
    model = SmnnModel(
        space=space, encoding=encoding, weights=weights, support_labels=support_labels
    )
    return model, provenance


def read_json(path, error):
    """The JSON document in the file at path; error (a ParseError or
    ModelFileError class) when its bytes do not decode as one, nested too
    deeply for the parser included."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error("%s is not a JSON document: %s" % (path, exc)) from None


def load_model(path):
    return model_from_dict(read_json(path, ModelFileError))
