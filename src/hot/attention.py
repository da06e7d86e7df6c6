"""Multihead attention oracles over k-dimensional token grids.

Inputs are tensors of shape ``(N_0, ..., N_{k-1}, D)``: k positional modes and
one hidden mode.  The four attention variants that train and predict live in
one place, :func:`hot.model.attention_sublayer_v`: one loop over modes, where
the full variants are a single mode holding every token (so they take no mask
that turns a mode off).  This module holds the exact references they are
checked against:

* ``full_high_order_attention``  exact softmax over flattened tokens; the
                                 quadratic oracle, refused above a size cap.
* ``materialized_attention``     the Kronecker product of the per-mode softmax
                                 matrices built explicitly; the oracle for the
                                 factored softmax variant.

Per-mode attention matrices are built from query/key tensors pooled down to
one mode (sum or mean over the other positional modes).  Heads are
accumulated in ascending order, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kron import kron_chain
from .tensor import as_tensor, pool_mean_except, pool_sum_except

DEFAULT_ORACLE_CAP = 4096
EPS_Z = 1e-6  # floor of the kernel row sums in diffops.kernelized_mode_apply_v


class OracleSizeError(ValueError):
    """Raised when the quadratic oracle is asked to attend over too many tokens."""


@dataclass(frozen=True)
class AttentionWeights:
    """Projection matrices of all heads, in the fused layout the model's sublayer takes.

    ``wq``, ``wk``, ``wv`` and ``wo`` have shape (D, heads, D_H), with
    D = heads * D_H, so ``reshape(D, D)`` of each is a view: the
    (D, heads*D_H) matrix of :func:`hot.model.attention_sublayer_v`, head h in
    columns h*D_H to h*D_H + D_H.  ``wo[:, h]`` is head h's (D_H, D) output
    map transposed.  :meth:`head` gives one head's four matrices.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self):
        d, r, dh = self.wq.shape
        if d != r * dh:
            raise ValueError(f"model dim {d} must equal heads*head_dim {r}*{dh}")
        for name, arr in (("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            if arr.shape != (d, r, dh):
                raise ValueError(f"{name} has shape {arr.shape}, expected {(d, r, dh)}")

    @property
    def heads(self) -> int:
        return self.wq.shape[1]

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def d_head(self) -> int:
        return self.wq.shape[2]

    def head(self, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Head ``h``'s (D, D_H) ``wq``, ``wk``, ``wv`` and (D_H, D) ``wo``, as views."""
        return self.wq[:, h], self.wk[:, h], self.wv[:, h], self.wo[:, h].T


def check_model_dims(d_model: int, heads: int) -> None:
    """Raise ``ValueError`` unless ``heads >= 1`` heads split ``d_model >= 1`` evenly."""
    if heads < 1 or d_model < 1:
        raise ValueError(f"d_model {d_model} and heads {heads} must both be >= 1")
    if d_model % heads != 0:
        raise ValueError(f"d_model {d_model} not divisible by {heads} heads")


def random_attention_weights(d_model: int, heads: int, seed: int = 0) -> AttentionWeights:
    """Glorot-uniform attention weights, deterministic in the seed.

    Drawn head by head, (heads, D, D_H) for Q, K, V and (heads, D_H, D) for
    the output map, and stored in the fused layout of :class:`AttentionWeights`.
    """
    check_model_dims(d_model, heads)
    d_head = d_model // heads
    rng = np.random.default_rng(seed)

    def glorot(shape):
        limit = math.sqrt(6.0 / (shape[-2] + shape[-1]))
        return rng.uniform(-limit, limit, size=shape)

    wq, wk, wv = (np.ascontiguousarray(glorot((heads, d_model, d_head)).transpose(1, 0, 2))
                  for _ in range(3))
    wo = np.ascontiguousarray(glorot((heads, d_head, d_model)).transpose(2, 0, 1))
    return AttentionWeights(wq=wq, wk=wk, wv=wv, wo=wo)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction; rows sum to 1."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_input(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    x = as_tensor(x)
    if x.ndim < 2:
        raise ValueError("attention input needs at least one positional mode")
    if x.shape[-1] != w.d_model:
        raise ValueError(f"hidden dim {x.shape[-1]} != weight dim {w.d_model}")
    return x


def standard_attention(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """Scaled dot-product multihead attention over a plain token list (N, D)."""
    x = _check_input(x, w)
    if x.ndim != 2:
        raise ValueError("standard_attention expects a matrix of token embeddings")
    out = np.zeros_like(x)
    scale = 1.0 / math.sqrt(w.d_head)
    for h in range(w.heads):
        wq, wk, wv, wo = w.head(h)
        s = softmax_rows(((x @ wq) @ (x @ wk).T) * scale)
        out += (s @ (x @ wv)) @ wo
    return out


def _pool(t: np.ndarray, mode: int, pooling: str) -> np.ndarray:
    if pooling == "sum":
        return pool_sum_except(t, mode)
    if pooling == "mean":
        return pool_mean_except(t, mode)
    raise ValueError(f"unknown pooling {pooling!r}")


def mode_attention_matrix(q: np.ndarray, k: np.ndarray, mode: int,
                          pooling: str = "sum") -> np.ndarray:
    """Row-stochastic attention matrix for one mode of a single head.

    Pools the head's query/key tensors down to (N_mode, D_H) and applies
    softmax-normalized scaled dot products.  At k=1 (one positional mode)
    pooling is the identity and this is exactly standard attention weights.
    """
    q = as_tensor(q)
    k = as_tensor(k)
    if q.shape != k.shape:
        raise ValueError(f"query shape {q.shape} != key shape {k.shape}")
    qt = _pool(q, mode, pooling)
    kt = _pool(k, mode, pooling)
    return softmax_rows((qt @ kt.T) / math.sqrt(q.shape[-1]))


def full_high_order_attention(x: np.ndarray, w: AttentionWeights,
                              oracle_cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Exact attention over all positions jointly: flatten, attend, refold.

    Every positional index is one token, so cost is quadratic in
    ``prod(N_i)``.  The oracle for the full softmax variant; refuses token
    counts above ``oracle_cap``.
    """
    x = _check_input(x, w)
    tokens = math.prod(x.shape[:-1])
    if tokens > oracle_cap:
        raise OracleSizeError(
            f"{tokens} tokens exceed the oracle cap {oracle_cap}; "
            "raise the cap explicitly to run the quadratic reference anyway"
        )
    flat = x.reshape(tokens, x.shape[-1])
    return standard_attention(flat, w).reshape(x.shape)


def materialized_attention(x: np.ndarray, w: AttentionWeights,
                           pooling: str = "sum") -> np.ndarray:
    """Kronecker-factorized softmax attention with the implied matrix materialized.

    Per head, builds ``S_0 (x) ... (x) S_{k-1}`` from the per-mode matrices of
    :func:`mode_attention_matrix` and applies it to the flattened values.  The
    oracle for the factored softmax variant; memory is quadratic in
    ``prod(N_i)``.
    """
    x = _check_input(x, w)
    tokens = math.prod(x.shape[:-1])
    out = np.zeros_like(x)
    for h in range(w.heads):
        wq, wk, wv, wo = w.head(h)
        q, kt, v = x @ wq, x @ wk, x @ wv
        s = kron_chain(mode_attention_matrix(q, kt, i, pooling) for i in range(x.ndim - 1))
        out += (s @ v.reshape(tokens, w.d_head)).reshape(v.shape) @ wo
    return out
