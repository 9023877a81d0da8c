"""Exception hierarchy and input rules shared by all smnn modules.

Each rule on a user input has one definition here: positive (for real
numbers, with a lower bound), integer, indices, real (float64 arrays, no
complex numbers, booleans or strings), finite and sparse_row.  Booleans
are never numbers or indices, though Python makes bool a subclass of
int.  A rule raises ValueError unless its caller names the error class
it raises for that input.
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


class NonFiniteWeights(SmnnError, ValueError):
    """Weights hold a NaN or infinite number, as a diverging learning rate leaves them."""


class UnknownLabel(SmnnError, KeyError):
    """A class label that the model's label encoding does not hold."""

    # KeyError would print the message quoted, as it does a missing key.
    __str__ = SmnnError.__str__


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def positive(value, what, error=ValueError, low=0.0, strict=True):
    """value as a float: a finite real number above low, or at least low
    when strict is False; low=-inf admits every finite number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        math.isfinite(value) and (value > low if strict else value >= low)
    ):
        bound = "zero" if low == 0 else "%g" % low
        rule = "" if low == -math.inf else (" above " if strict else " of at least ") + bound
        raise error("%s must be a finite number%s, got %r" % (what, rule, value))
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
    # One subclass test per element type, not an ABC isinstance per element.
    if arr.dtype.kind not in "iu" and not all(
        issubclass(t, numbers.Integral) and not issubclass(t, bool) for t in set(map(type, arr.reshape(-1)))
    ):
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


# What the float cast reads as a number but is not a real one, by the
# dtype kind of an array of it: the cast would keep only the real part of
# a complex number, read a boolean as 0 or 1 and parse a string.
_NOT_REAL = {"c": ((complex, np.complexfloating), "complex ones"), "b": ((bool, np.bool_), "booleans"),
             "U": ((str,), "strings"), "S": ((bytes,), "strings")}


def real(values, what):
    """values as a float64 array.  Complex numbers, booleans and strings
    raise, as an array of them or among the objects of an object array;
    so does any other object the cast refuses.  Every other cast is
    NumPy's, so None becomes NaN."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "O":
        # One subclass test per element type, as in indices.
        kind = min((k for t in set(map(type, arr.reshape(-1))) for k, (types, _) in _NOT_REAL.items()
                    if issubclass(t, types)), default=kind)
    if kind in _NOT_REAL:
        raise ValueError("%s must be real numbers, got %s" % (what, _NOT_REAL[kind][1]))
    try:
        return np.asarray(arr, dtype=np.float64)
    except TypeError as exc:
        raise ValueError("%s must be real numbers: %s" % (what, exc)) from None


def finite(values, what, error=ValueError):
    """real(values, what), with every value finite or error raised."""
    arr = real(values, what)
    if not np.isfinite(arr).all():
        raise error("%s must be finite numbers, got a non-finite one" % what)
    return arr


def sparse_row(cols, values, stop):
    """One sparse row as (int64 indices, float64 values): each index in
    [0, stop) by the indices rule, and one finite value per index."""
    cols = indices(cols, "support index", stop=stop)
    vals = finite(values, "sparse row values")
    if cols.ndim != 1 or vals.shape != cols.shape:
        raise ValueError(
            "a sparse row has %d support indices but values of shape %s" % (cols.size, vals.shape)
        )
    return cols, vals
