"""Multihead attention over k-dimensional token grids, in four variants.

Inputs are tensors of shape ``(N_0, ..., N_{k-1}, D)``: k positional modes and
one hidden mode.  All variants share the same per-head projections and differ
only in how the ``prod(N_i) x prod(N_i)`` attention matrix is represented:

* ``full_high_order_attention``    exact softmax over flattened tokens; the
                                   quadratic oracle, refused above a size cap.
* ``materialized_attention``       the Kronecker product of the per-mode
                                   matrices built explicitly; the oracle for
                                   the factorized softmax variant.
* ``factorized_attention_softmax`` one softmax attention matrix per mode and
                                   head, combined implicitly as a Kronecker
                                   product and applied by mode products.
* ``full_attention_linear``        flattened tokens with random-feature
                                   (kernelized) attention weights.
* ``factorized_attention_linear``  per-mode kernelized attention; linear cost
                                   in the token count.

Per-mode attention matrices are built from query/key tensors pooled down to
one mode (sum over the other positional modes, Performer-style features on the
pooled rows for the kernelized path).  Heads are accumulated in ascending
order, modes in ascending order, so results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureMapSpec, feature_map, projection_matrix
from .kron import kron_chain
from .tensor import as_tensor, mode_product, pool_mean_except, pool_sum_except

DEFAULT_ORACLE_CAP = 4096
EPS_Z = 1e-6


class OracleSizeError(ValueError):
    """Raised when the quadratic oracle is asked to attend over too many tokens."""


@dataclass(frozen=True)
class AttentionWeights:
    """Per-head projection matrices.

    ``wq``, ``wk``, ``wv`` have shape (heads, D, D_H) and ``wo`` has shape
    (heads, D_H, D), with D = heads * D_H.  Projections map the hidden
    dimension D down to D_H; the output projection maps back.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self):
        r, d, dh = self.wq.shape
        if d != r * dh:
            raise ValueError(f"model dim {d} must equal heads*head_dim {r}*{dh}")
        for name, arr, shape in (
            ("wk", self.wk, (r, d, dh)),
            ("wv", self.wv, (r, d, dh)),
            ("wo", self.wo, (r, dh, d)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @property
    def heads(self) -> int:
        return self.wq.shape[0]

    @property
    def d_model(self) -> int:
        return self.wq.shape[1]

    @property
    def d_head(self) -> int:
        return self.wq.shape[2]


def random_attention_weights(d_model: int, heads: int, seed: int = 0) -> AttentionWeights:
    """Glorot-uniform attention weights, deterministic in the seed."""
    if d_model % heads != 0:
        raise ValueError(f"model dim {d_model} not divisible by {heads} heads")
    d_head = d_model // heads
    rng = np.random.default_rng(seed)

    def glorot(shape):
        limit = math.sqrt(6.0 / (shape[-2] + shape[-1]))
        return rng.uniform(-limit, limit, size=shape)

    return AttentionWeights(
        wq=glorot((heads, d_model, d_head)),
        wk=glorot((heads, d_model, d_head)),
        wv=glorot((heads, d_model, d_head)),
        wo=glorot((heads, d_head, d_model)),
    )


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
        q = x @ w.wq[h]
        k = x @ w.wk[h]
        v = x @ w.wv[h]
        s = softmax_rows((q @ k.T) * scale)
        out += (s @ v) @ w.wo[h]
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
    ``prod(N_i)``.  Serves as the correctness oracle for the factorized
    variants and refuses token counts above ``oracle_cap``.
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
    verification oracle for :func:`factorized_attention_softmax`; memory is
    quadratic in ``prod(N_i)``.
    """
    x = _check_input(x, w)
    tokens = math.prod(x.shape[:-1])
    out = np.zeros_like(x)
    for h in range(w.heads):
        q = x @ w.wq[h]
        kt = x @ w.wk[h]
        v = x @ w.wv[h]
        s = kron_chain(mode_attention_matrix(q, kt, i, pooling) for i in range(x.ndim - 1))
        out += (s @ v.reshape(tokens, w.d_head)).reshape(v.shape) @ w.wo[h]
    return out


def factorized_attention_softmax(x: np.ndarray, w: AttentionWeights,
                                 modes=None, pooling: str = "sum") -> np.ndarray:
    """Kronecker-factorized softmax attention.

    Per head, builds one row-stochastic matrix per positional mode and applies
    their implicit Kronecker product to the value tensor by sequential mode
    products; the full attention matrix is never materialized.  ``modes``
    restricts which positional modes attend (others pass through), enabling
    attention-order ablations; default is all modes.
    """
    x = _check_input(x, w)
    k = x.ndim - 1
    enabled = sorted(range(k)) if modes is None else sorted(set(modes))
    if any(m < 0 or m >= k for m in enabled):
        raise ValueError(f"modes {enabled} out of range for {k} positional modes")
    out = np.zeros_like(x)
    for h in range(w.heads):
        q = x @ w.wq[h]
        kt = x @ w.wk[h]
        p = x @ w.wv[h]
        for i in enabled:
            s_i = mode_attention_matrix(q, kt, i, pooling=pooling)
            p = mode_product(p, s_i, i)
        out += p @ w.wo[h]
    return out


def _z_broadcast(z: np.ndarray, ndim: int, mode: int) -> np.ndarray:
    shape = [1] * ndim
    shape[mode] = -1
    return z.reshape(shape)


def kernelized_mode_apply(v: np.ndarray, qt: np.ndarray, kt: np.ndarray, mode: int,
                          spec: FeatureMapSpec, omega: np.ndarray | None = None,
                          stats: dict | None = None) -> np.ndarray:
    """Apply one mode's kernelized attention matrix to a value tensor.

    Implicitly uses ``S = Z^-1 phi(qt) phi(kt)^T`` where the rows of ``qt`` and
    ``kt`` are the pooled per-position query/key vectors for this mode and Z
    holds the row sums, so S has unit row sums by construction.  The key-side
    contraction runs first, so cost stays linear in the token count (never
    quadratic in N_mode).  Rows of Z below the 1e-6 floor are clamped and
    counted into ``stats["z_floored"]`` when a dict is passed.
    """
    v = as_tensor(v)
    d_head = qt.shape[-1]
    scale = d_head ** -0.25  # phi(q*s).phi(k*s) estimates exp(q.k/sqrt(d_head))
    if omega is None:
        omega = projection_matrix(spec)
    qp = feature_map(qt * scale, spec, omega)
    kp = feature_map(kt * scale, spec, omega)
    out = mode_product(v, kp.T, mode)
    out = mode_product(out, qp, mode)
    z = qp @ kp.sum(axis=0)
    floored = int(np.count_nonzero(z < EPS_Z))
    if stats is not None:
        stats["z_floored"] = stats.get("z_floored", 0) + floored
    z = np.maximum(z, EPS_Z)
    return out / _z_broadcast(z, v.ndim, mode)


def factorized_attention_linear(x: np.ndarray, w: AttentionWeights, spec: FeatureMapSpec,
                                modes=None, pooling: str = "sum",
                                stats: dict | None = None) -> np.ndarray:
    """Kronecker-factorized attention with kernelized per-mode weights.

    Per head and per mode: pool queries/keys to that mode, map them through
    the positive random feature map, and fold the resulting linear attention
    into the value tensor.  Deterministic given ``spec.seed`` (the projection
    matrix is fixed, shared across heads and modes).
    """
    x = _check_input(x, w)
    k = x.ndim - 1
    enabled = sorted(range(k)) if modes is None else sorted(set(modes))
    if any(m < 0 or m >= k for m in enabled):
        raise ValueError(f"modes {enabled} out of range for {k} positional modes")
    omega = projection_matrix(spec)
    out = np.zeros_like(x)
    for h in range(w.heads):
        q = x @ w.wq[h]
        kt_full = x @ w.wk[h]
        p = x @ w.wv[h]
        for i in enabled:
            qt = _pool(q, i, pooling)
            kt = _pool(kt_full, i, pooling)
            p = kernelized_mode_apply(p, qt, kt, i, spec, omega, stats)
        out += p @ w.wo[h]
    return out


def full_attention_linear(x: np.ndarray, w: AttentionWeights, spec: FeatureMapSpec,
                          stats: dict | None = None) -> np.ndarray:
    """Kernelized attention over the flattened token list (no factorization).

    Completes the 2x2 variant grid: quadratic-vs-factorized crossed with
    softmax-vs-linear weights.  At one positional mode this coincides with
    ``factorized_attention_linear``.
    """
    x = _check_input(x, w)
    tokens = math.prod(x.shape[:-1])
    flat = x.reshape(tokens, x.shape[-1])
    omega = projection_matrix(spec)
    out = np.zeros_like(flat)
    for h in range(w.heads):
        q = flat @ w.wq[h]
        kt = flat @ w.wk[h]
        v = flat @ w.wv[h]
        out += kernelized_mode_apply(v, q, kt, 0, spec, omega, stats) @ w.wo[h]
    return out.reshape(x.shape)
