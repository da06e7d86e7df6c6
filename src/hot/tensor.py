"""Dense tensor primitives: matricization, mode products and pooling.

Conventions used throughout the package
---------------------------------------
* A dense order-k tensor is a C-contiguous ``numpy.ndarray`` of ``float64``
  with k axes ("modes"), last index fastest.  Modes are addressed by 0-based
  axis index.
* ``matricize(t, mode)`` puts the mode-``mode`` fibers into the rows of a
  matrix; the columns run over the remaining modes in their original order,
  earliest remaining mode varying slowest.  With this ordering the identity

      matricize(t ×_0 A_0 ×_1 A_1 ... ×_{k-1} A_{k-1}, k)
          = matricize(t, k) @ kron_chain([A_0, A_1, ..., A_{k-1}]).T

  holds for an order-(k+1) tensor ``t`` whose last mode is untouched; the
  test suite pins this down.
* Degenerate modes of size 1 are legal everywhere.
"""

from __future__ import annotations

import math

import numpy as np

# Element counts are validated against this bound so byte sizes cannot
# overflow a signed 64-bit word.
MAX_ELEMENTS = 2**60


def check_shape(dims) -> tuple[int, ...]:
    """Validate a tensor shape: positive dims, sane total element count."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError("tensor order must be >= 1")
    if any(d < 1 for d in dims):
        raise ValueError(f"all dims must be >= 1, got {dims}")
    if math.prod(dims) > MAX_ELEMENTS:
        raise ValueError(f"element count {math.prod(dims)} exceeds {MAX_ELEMENTS}")
    return dims


def as_tensor(data) -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 array and validate it.

    Parameters
    ----------
    data : array_like
        Input values.

    Returns
    -------
    numpy.ndarray
        Validated float64 array (a copy only if coercion requires one).
    """
    t = np.ascontiguousarray(data, dtype=np.float64)
    check_shape(t.shape)
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor contains non-finite entries")
    return t


def _check_mode(t: np.ndarray, mode: int) -> None:
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")


def matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold ``t`` along ``mode`` into an ``N_mode x prod(other dims)`` matrix.

    Each column is one mode-``mode`` fiber.  Columns are ordered with the
    remaining modes in their original order, the earliest remaining mode
    varying slowest (C-order flattening of the remaining axes).

    Parameters
    ----------
    t : numpy.ndarray
        Tensor of order >= 1.
    mode : int
        0-based mode whose fibers become the rows.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(t.shape[mode], t.size // t.shape[mode])``.
    """
    _check_mode(t, mode)
    return np.ascontiguousarray(np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1))


def mode_product(t: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Contract matrix ``a`` against one mode of ``t``.

    The result replaces ``t.shape[mode] == N`` by ``a.shape[0]``:

        out[..., i, ...] = sum_j t[..., j, ...] * a[i, j]

    equivalently ``matricize(out, mode) = a @ matricize(t, mode)``.

    Parameters
    ----------
    t : numpy.ndarray
        Tensor of order >= 1.
    a : numpy.ndarray
        Matrix of shape ``(d, t.shape[mode])``.
    mode : int
        Mode to contract.

    Returns
    -------
    numpy.ndarray
        Tensor with ``t.shape[mode]`` replaced by ``d``.
    """
    _check_mode(t, mode)
    if a.ndim != 2:
        raise ValueError("mode_product expects a matrix")
    if a.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix has {a.shape[1]} columns but mode {mode} has size {t.shape[mode]}"
        )
    return np.ascontiguousarray(np.moveaxis(np.tensordot(a, t, axes=(1, mode)), 0, mode))


def pool_sum_except(t: np.ndarray, mode: int) -> np.ndarray:
    """Sum out all positional modes except ``mode``, keeping the last (hidden) mode.

    For ``t`` of order k+1 (k positional modes plus a hidden mode), returns the
    ``(t.shape[mode], t.shape[-1])`` matrix

        out[a, d] = sum over all other positional indices of t[..., a, ..., d]

    The reduction is permutation invariant along every summed mode.
    """
    _check_mode(t, mode)
    if t.ndim < 2:
        raise ValueError("pooling needs at least one positional mode plus a hidden mode")
    if mode == t.ndim - 1:
        raise ValueError("cannot pool with the hidden (last) mode as the kept mode")
    axes = tuple(i for i in range(t.ndim - 1) if i != mode)
    return np.ascontiguousarray(t.sum(axis=axes)) if axes else np.ascontiguousarray(t)


def pool_mean_except(t: np.ndarray, mode: int) -> np.ndarray:
    """Mean-pooling variant of :func:`pool_sum_except` (same kept modes)."""
    pooled = pool_sum_except(t, mode)
    count = t.size // (t.shape[mode] * t.shape[-1])
    return pooled / float(count)
