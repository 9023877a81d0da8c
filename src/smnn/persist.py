"""Model persistence as a single self-describing JSON document.

The file stores what inference needs and cannot derive: label names,
centroid, radius, the translated support points with labels, the maximal
simplices of the triangulation and the weight matrix.  Loading rebuilds
the hull facets and the inverted vertex systems from the support points
and simplices through geometry.build_triangulation, the code that built
them at training time; each record it builds checks its own fields, and
the loader only maps the document onto them.  Floats go through
json's repr-based encoder, which round-trips doubles exactly, so a
reloaded model reproduces forward outputs bit for bit.

Schema version 2 is written.  Version 1 files, which also listed the
boundary facets, load through the same code; their facets are ignored.
A file that is not a JSON document, or a malformed or inconsistent
document, raises ModelFileError.
"""

import json

from .embedding import EmbeddingSpace
from .errors import ModelFileError, SingularSimplex, finite, integer
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
    """Write the model document to path, its text built first, so a
    provenance that is not JSON leaves the file as it was."""
    text = json.dumps(model_to_dict(model, provenance), indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def model_from_dict(doc):
    """Model and provenance from a parsed model document.

    Checks the header (keys, version, dim, labels, n_classes and
    provenance), then builds the support PointCloud, its triangulation
    from the stored simplices, the EmbeddingSpace and the SmnnModel, each
    of which checks its own fields; raises ModelFileError on the first
    problem.
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

    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ModelFileError("provenance must be a JSON object")

    try:
        support = PointCloud(finite(doc["support_points"], "support_points"))
    except ValueError as exc:
        raise ModelFileError(str(exc)) from None
    if support.dim != dim:
        raise ModelFileError("support_points have dimension %d, expected %d" % (support.dim, dim))
    try:
        tri = build_triangulation(support, doc["simplices"])
    except (ValueError, SingularSimplex) as exc:
        raise ModelFileError("simplices: %s" % exc) from None
    try:
        space = EmbeddingSpace(doc["centroid"], doc["radius"], tri)
        model = SmnnModel(space, encoding, doc["weights"], doc["support_labels"])
    except ValueError as exc:
        raise ModelFileError(str(exc)) from None
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
