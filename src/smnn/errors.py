"""Exception hierarchy and input rules shared by all smnn modules.

Each rule on a user input has one definition here: positive, integer and
indices.  Booleans are never numbers or indices, though Python makes bool
a subclass of int.  A rule raises ValueError unless its caller names the
error class it raises for that input.
"""

import math
import numbers

import numpy as np


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


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def positive(value, what, error=ValueError):
    """value as a float: a finite real number above zero."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        math.isfinite(value) and value > 0
    ):
        raise error("%s must be a finite number above zero, got %r" % (what, value))
    return float(value)


def integer(value, what, low=0, error=ValueError):
    """value as an int: an integer of at least low, not a float."""
    if not _is_integer(value) or value < low:
        raise error("%s must be an integer of at least %d, got %r" % (what, low, value))
    return int(value)


def indices(values, what, stop=None, error=ValueError):
    """values as an int64 array, each in [0, stop) when stop is given.

    A float or a boolean among them raises, as casting would silently read
    it as an index (1.7 and True as 1); the range message calls stop k.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind not in "iu" and not all(map(_is_integer, arr.reshape(-1))):
        raise error("%s: expected integers, not floats or booleans" % what)
    try:
        arr = arr.astype(np.int64, copy=False)
    except OverflowError:
        raise error("%s: an integer exceeds the int64 range" % what) from None
    if stop is not None:
        bad = arr[(arr < 0) | (arr >= stop)]
        if bad.size:
            raise error("%s %d out of range for k=%d" % (what, bad[0], stop))
    return arr
