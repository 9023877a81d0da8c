"""Exception hierarchy shared by all smnn modules."""


class SmnnError(Exception):
    """Base class for every error raised by this package."""


class DimensionTooSmall(SmnnError):
    """Fewer points than needed to span a full-dimensional simplex."""


class DegenerateSupport(SmnnError):
    """All points lie in a proper affine subspace of the ambient space."""


class SingularSimplex(SmnnError):
    """A simplex whose vertex system is numerically singular."""


class OutsideBall(SmnnError):
    """Query point lies outside the bounding ball of the embedding space."""


class ZeroNorm(SmnnError):
    """Cannot project the zero vector onto the bounding sphere."""


class NoContainingVirtualSimplex(SmnnError):
    """No sphere-augmented simplex contains the exterior query point."""


class InvalidMargin(SmnnError):
    """Radius margin must be strictly positive."""


class InvalidCount(SmnnError):
    """A sample or row count is unusable: too few samples requested from a
    generator, or a labelled set with no rows to score."""


class TooManyClusters(SmnnError):
    """More cluster centroids requested than hypercube vertices available."""


class ParseError(SmnnError):
    """Malformed cell in a dataset file; carries its 1-based location."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DimensionMismatch(SmnnError):
    """Feature dimension of the data does not match what was expected."""


class NonFiniteQuery(SmnnError):
    """A query has a NaN or infinite coordinate."""


class ModelFileError(SmnnError, ValueError):
    """A model document is malformed or inconsistent, so nothing was loaded."""


class UnknownLabel(SmnnError, KeyError):
    """A class label that the model's label encoding does not hold."""

    # KeyError would print the message quoted, as it does a missing key.
    __str__ = SmnnError.__str__
