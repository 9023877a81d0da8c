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


# The dtype kind each type of number reads as, one subclass test per type;
# bool before Integral, as Python makes bool a subclass of int.
_KINDS = (((bool, np.bool_), "b"), (numbers.Integral, "i"), (numbers.Real, "f"), (numbers.Complex, "c"),
          (str, "U"), (bytes, "S"))


def _kind(t):
    return next((kind for types, kind in _KINDS if issubclass(t, types)), "O")


def positive(value, what, error=ValueError, low=0.0, strict=True):
    """value as a float: a finite real number above low, or at least low
    when strict is False; low=-inf admits every finite number."""
    try:
        ok = _kind(type(value)) in ("i", "f") and math.isfinite(value) and (value > low if strict else value >= low)
    except OverflowError:  # an int past the float range, as 10**400
        ok = False
    if not ok:
        bound = "zero" if low == 0 else "%g" % low
        rule = "" if low == -math.inf else (" above " if strict else " of at least ") + bound
        raise error("%s must be a finite number%s, got %r" % (what, rule, value))
    return float(value)


def integer(value, what, low=0, error=ValueError):
    """value as an int: an integer of at least low, not a float."""
    if _kind(type(value)) != "i" or value < low:
        raise error("%s must be an integer of at least %d, got %r" % (what, low, value))
    return int(value)


def _scan(values):
    """values as an array, and the dtype kinds of its elements.  A list is
    read as an object array, so each element keeps its type: a float cast
    would read [True, 0.5] as [1.0, 0.5]."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.dtype.kind != "O":
        return arr, {arr.dtype.kind}
    return arr, set(map(_kind, set(map(type, arr.reshape(-1)))))


def indices(values, what, stop=None, error=ValueError):
    """values as an int64 array, each in [0, stop) when stop is given.

    A float or a boolean among them raises, as casting would silently read
    it as an index (1.7 and True as 1); the range message calls stop k.
    """
    arr, kinds = _scan(values)
    if not kinds <= {"i", "u"}:
        got = "got lists or other objects" if "O" in kinds else "not floats or booleans"
        raise error("%s: expected integers, %s" % (what, got))
    try:
        arr = arr.astype(np.int64, copy=False)
    except OverflowError:
        raise error("%s: an integer exceeds the int64 range" % what) from None
    if stop is not None:
        bad = arr[(arr < 0) | (arr >= stop)]
        if bad.size:
            raise error("%s %d out of range for k=%d" % (what, bad[0], stop))
    return arr


# What the float cast reads as a number but is not a real one, by kind:
# the cast would keep only the real part of a complex number, read a
# boolean as 0 or 1 and parse a string.
_NOT_REAL = {"c": "complex ones", "b": "booleans", "U": "strings", "S": "strings"}


def real(values, what):
    """values as a float64 array.  Complex numbers, booleans and strings
    raise, as an array of them or among the elements of a list or object
    array; so does any other object the cast refuses, 10**400 included.
    Every other cast is NumPy's, so None becomes NaN."""
    arr, kinds = _scan(values)
    if not kinds.isdisjoint(_NOT_REAL):
        raise ValueError("%s must be real numbers, got %s" % (what, _NOT_REAL[min(kinds & _NOT_REAL.keys())]))
    try:
        return np.asarray(arr, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
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
