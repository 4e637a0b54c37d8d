"""Shared numerical kernels.

Singular values, symmetric inverse square roots, tolerance and integer
validation, the rules for fields read from documents, and the one way a
frozen value type holds its fields: each array is read-only and its own,
copied in ``__post_init__`` or made fresh for a value built ``_unchecked``.
It owns the count rule and the clipped-range rule.  Every function but
``_frozen``, ``_unchecked`` and ``_clipped``, which fill or clip a value
being built, is pure, so all of it is safe to call concurrently.
"""

from __future__ import annotations

from itertools import chain
from numbers import Integral

import numpy as np

__all__ = ["singular_values", "inverse_sqrt_spd", "checked_tolerance", "checked_integer"]


def singular_values(matrix) -> np.ndarray:
    """Nonincreasing singular values of a finite real matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("singular_values expects a 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("singular_values requires finite entries")
    return np.linalg.svd(matrix, compute_uv=False)


def inverse_sqrt_spd(matrix) -> np.ndarray:
    """Symmetric inverse square root of a symmetric positive-definite matrix.

    Returns ``S`` with ``S @ matrix @ S.T = I`` (within 1e-10 for
    well-conditioned desk-scale inputs).

    Raises
    ------
    ValueError
        If the input is not symmetric, or its smallest eigenvalue falls at or
        below ``1e-12`` times the largest (the offending eigenvalue is named).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("inverse_sqrt_spd expects a square matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    with np.errstate(over="ignore"):  # entries near the float limit, opposite signs
        asymmetry = float(np.max(np.abs(matrix - matrix.T)))
    if asymmetry > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asymmetry:.3e}")
    eigenvalues, vectors = np.linalg.eigh(matrix)
    smallest, largest = float(eigenvalues[0]), float(eigenvalues[-1])
    if largest <= 0.0 or smallest <= 1e-12 * largest:
        raise ValueError(
            f"matrix is not positive definite: offending eigenvalue {smallest:.6e}"
        )
    return (vectors / np.sqrt(eigenvalues)) @ vectors.T


def _owned_array(value, what: str = "", ndim: int = 0, dtype=float) -> np.ndarray:
    """A new ``dtype`` copy of ``value`` for a value type to own; given ``ndim``,
    ValueError unless it is a nonempty finite ``ndim``-D array."""
    array = np.array(value, dtype=dtype)
    if ndim and (array.ndim != ndim or array.size == 0 or not np.isfinite(array).all()):
        raise ValueError(f"{what} must be a nonempty finite {ndim}-D array")
    return array


def _frozen(value, **fields):
    """``value``, of a frozen value type, with ``fields`` set and each array
    among them (a field, or in a tuple field) read-only."""
    for field in fields.values():
        for item in field if type(field) is tuple else (field,):
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
    value.__dict__.update(fields)  # a frozen dataclass has no slots
    return value


def _unchecked(cls, **fields):
    """An instance of the frozen value type ``cls`` holding ``fields``, without
    running its ``__post_init__``; its arrays are made read-only, as
    ``_frozen`` makes them.

    Only for values that are valid by construction: each caller says why
    its fields already meet every check the constructor would run, in the
    form the constructor would store them.
    """
    return _frozen(object.__new__(cls), **fields)


def _required(document: dict, key: str, what: str):
    """``document[key]``; ValueError naming ``what`` and the key when it is missing."""
    try:
        return document[key]
    except KeyError:
        raise ValueError(f"{what} is missing the required key {key!r}") from None


def _number_array(value, what: str) -> np.ndarray:
    """``value`` as ``np.asarray`` parses it; TypeError unless its entries are numbers.

    Every document parser reads its arrays through this, so that JSON
    strings and booleans, also among numbers, are rejected instead of
    converted to floats, and nested lists of unequal lengths are refused
    under the field's name.  A list of numbers, or of equally long lists (no
    document array has more dimensions), takes one flat pass that also
    builds an all-float array; anything else goes to ``np.asarray``.
    """
    flat = None
    if type(value) in (list, tuple) and value:
        flat, shape = value, (len(value),)
        if type(value[0]) in (list, tuple):
            try:
                widths = set(map(len, value))
            except TypeError:  # a number among the rows
                widths = ()
            flat = list(chain.from_iterable(value)) if len(widths) == 1 else None  # else ragged
            shape = (len(value), len(value[0]))
    if flat is not None:
        kinds = set(map(type, flat))
        if bool in kinds:
            raise TypeError(f"{what} must hold only numbers")
        if kinds == {float}:
            return np.fromiter(flat, float, len(flat)).reshape(shape)
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{what} must be a rectangular array: nested lists differ in shape") from None
    if array.dtype.kind not in "iuf":
        raise TypeError(f"{what} must hold only numbers")
    return array


def checked_tolerance(tolerance) -> float:
    """``tolerance`` as a float; ValueError unless it is finite and >= 0."""
    tolerance = float(tolerance)
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    return tolerance


def checked_integer(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is an integer (a bool is not).

    Numpy integers pass; floats are refused rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_count(value, name: str) -> int:
    """``checked_integer(value, name)``; ValueError unless it is at least 1."""
    value = checked_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be at least 1")
    return value


def _clipped(array: np.ndarray, message: str, high: float | None = None) -> None:
    """Clip ``array`` in place to ``[0, high]`` (``high`` None: no upper end);
    ValueError with ``message`` unless every entry is within 1e-12 of it.
    The clip runs only if an entry lies outside ``(0, high]``; it keeps a
    ``-0.0`` when ``high`` is given, and makes it ``+0.0`` when it is None."""
    if array.size:
        low = float(np.minimum.reduce(array, axis=None))
        top = low if high is None else float(np.maximum.reduce(array, axis=None))
        if low < -1e-12 or high is not None and top > high + 1e-12:
            raise ValueError(message)
        if not low > 0.0 or high is not None and top > high:
            np.clip(array, 0.0, high, out=array)
