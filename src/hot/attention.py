"""Multihead attention oracles over k-dimensional token grids.

Inputs are tensors of shape ``(N_0, ..., N_{k-1}, D)``: k positional modes and
one hidden mode.  The four attention variants that train and predict live in
one place, :func:`hot.model.attention_sublayer_v`: one loop over modes, where
the full variants are a single mode holding every token (so they take no mask
that turns a mode off).  :func:`materialized_attention` is the one exact
reference for all four: it takes the sublayer's arguments and builds each
head's token x token matrix explicitly, as the Kronecker product of one gate
per mode (:func:`mode_attention_matrix` or :func:`kernel_gate`) or as one gate
over all tokens.  At one positional mode every variant reduces to
:func:`standard_attention` (the kernelized ones in expectation).

Per-mode attention matrices are built from query/key tensors pooled down to
one mode (sum or mean over the other positional modes).  Heads are
accumulated in ascending order, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureMapSpec, projection_matrix
from .kron import kron_chain
from .tensor import as_tensor, pool_mean_except, pool_sum_except

VARIANTS = ("full-softmax", "full-linear", "factored-softmax", "factored-linear")
EPS_Z = 1e-6  # floor of the kernel row sums in diffops.kernelized_mode_apply_v


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


def kernel_gate(qt: np.ndarray, kt: np.ndarray, spec: FeatureMapSpec,
                omega: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The N x N kernelized gate ``Z^-1 phi(qt) phi(kt)^T`` of rows ``qt``, ``kt`` (N, E).

    phi is :mod:`hot.features`'s map of the rows scaled by E**-0.25.  Returns the gate, with Z
    floored at ``EPS_Z`` as in :func:`hot.diffops.kernelized_mode_apply_v`, and unfloored Z.
    """
    omega = projection_matrix(spec) if omega is None else omega
    t = np.stack([qt, kt]) * qt.shape[-1] ** -0.25
    qp, kp = np.exp(t @ omega.T - 0.5 * (t * t).sum(-1, keepdims=True)) / math.sqrt(len(omega))
    z = qp @ kp.sum(axis=0)
    return (qp @ kp.T) / np.maximum(z, EPS_Z)[:, None], z


def materialized_attention(x: np.ndarray, w: AttentionWeights, variant: str = "factored-softmax",
                           spec: FeatureMapSpec | None = None, mask: tuple[bool, ...] = (),
                           pooling: str = "sum") -> np.ndarray:
    """What :func:`hot.model.attention_sublayer` computes, each head's matrix built explicitly.

    Per head, the Kronecker product of one gate per mode (:func:`mode_attention_matrix`,
    :func:`kernel_gate` of the pooled rows, or the identity where ``mask`` turns the mode
    off) is applied to the flattened values; a full variant has one gate over all tokens.
    """
    x = _check_input(x, w)
    if variant not in VARIANTS or (variant.startswith("full") and not all(mask)):
        raise ValueError(f"variant must be one of {VARIANTS}; a full one cannot turn a mode off")
    tokens = math.prod(x.shape[:-1])
    dims = (tokens,) if variant.startswith("full") else x.shape[:-1]
    omega = projection_matrix(spec) if variant.endswith("linear") else None
    out = np.zeros_like(x)
    for h in range(w.heads):
        wq, wk, wv, wo = w.head(h)
        q, k = ((x @ m).reshape(dims + (-1,)) for m in (wq, wk))
        gates = []
        for i, n in enumerate(dims):
            if mask and not mask[i]:
                gates.append(np.eye(n))
            elif omega is None:
                gates.append(mode_attention_matrix(q, k, i, pooling))
            else:
                gates.append(kernel_gate(_pool(q, i, pooling), _pool(k, i, pooling), spec, omega)[0])
        v = x @ wv
        out += (kron_chain(gates) @ v.reshape(tokens, -1)).reshape(v.shape) @ wo
    return out
