"""Float64 numpy reference forward of ``hot.model.HOTModel``.

Written from the method's equations, not from the program's tape code:

    tokens  = patches of the raw volume, one channel per patch cell
    x       = tokens W_patch + b_patch
    block   : post-norm  y = LN2(z + FFN(z)),  z = LN1(x + Attn(x))
              pre-norm   z = x + Attn(LN1(x)), y = z + FFN(LN2(z))
    Attn(x) = sum_h P_h W_O,h, where P_h starts as x W_V,h and, for each
              enabled mode i in ascending order, P_h <- P_h x_i S_i, with the
              gate S_i built from the mode-i pooled rotated queries and keys
    FFN(z)  = GELU(z W_1 + b_1) W_2 + b_2,  GELU(u) = u Phi(u)
    head    = mean over tokens (or the flattened grid), then an affine map

Rotary phases rotate each feature pair (2j, 2j+1) by the angle
``sum_m pos_m * base**(-2j/E)`` summed over the rotary modes, one rotation
rather than one per mode.

The kernelized gate ``S = Z^-1 phi(Q) phi(K)^T`` with positive random
features ``phi(u)_m = M^-1/2 exp(w_m . u - |u|^2/2)`` is evaluated in log
space: the query norm and the ``M^-1/2`` factors are constant along a row and
cancel in ``Z^-1``, so

    log S[n, n'] = LSE_m(w_m . q_n + w_m . k_n' - |k_n'|^2/2)  - (same LSE over n', m)

which never underflows and needs no floor.  The projection ``w`` is the
program's seeded ``projection_matrix``, used as a constant.  The same log
terms give the program's unfloored row sums ``Z``, so the reference also
counts the rows the program clamps at its floor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, logsumexp


def patch_tokens(x: np.ndarray, patch_sizes) -> np.ndarray:
    """(B, d_0, ..., d_{k-1}) -> (B, d_0/p_0, ..., prod p) with cells row-major."""
    b, dims = x.shape[0], x.shape[1:]
    k = len(dims)
    split = []
    for d, p in zip(dims, patch_sizes):
        split += [d // p, p]
    t = x.reshape([b] + split)
    t = t.transpose([0] + [1 + 2 * i for i in range(k)] + [2 + 2 * i for i in range(k)])
    return t.reshape((b,) + tuple(d // p for d, p in zip(dims, patch_sizes)) + (-1,))


def rotate(t: np.ndarray, modes, base: float) -> np.ndarray:
    """Rotate feature pairs of (B, N_0, ..., N_{k-1}, E) by the summed mode angles."""
    if not modes:
        return t
    dims, e = t.shape[1:-1], t.shape[-1]
    freqs = base ** (-np.arange(0, e, 2) / e)
    theta = np.zeros(dims + (e // 2,))
    for m in modes:
        shape = [1] * len(dims) + [1]
        shape[m] = dims[m]
        theta = theta + np.arange(dims[m]).reshape(shape) * freqs
    c, s = np.cos(theta), np.sin(theta)
    even, odd = t[..., 0::2], t[..., 1::2]
    out = np.empty_like(t)
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = odd * c + even * s
    return out


def pool(t: np.ndarray, mode: int, pooling: str) -> np.ndarray:
    """(B, N_0, ..., E) -> (B, N_mode, E), summing or averaging the other token modes."""
    k = t.ndim - 2
    others = tuple(1 + j for j in range(k) if j != mode)
    pooled = t.sum(axis=others)
    if pooling == "mean":
        pooled = pooled / (math.prod(t.shape[1:-1]) // t.shape[1 + mode])
    return pooled


def softmax_gate(qt: np.ndarray, kt: np.ndarray) -> np.ndarray:
    logits = qt @ kt.swapaxes(-1, -2) / math.sqrt(qt.shape[-1])
    return np.exp(logits - logsumexp(logits, axis=-1, keepdims=True))


def kernel_gate(qt: np.ndarray, kt: np.ndarray, omega: np.ndarray,
                eps_z: float) -> tuple[np.ndarray, int]:
    """Row-normalized positive-feature gate in log space, plus the program's floored-row count."""
    e, m = qt.shape[-1], omega.shape[0]
    q = qt * e ** -0.25
    k = kt * e ** -0.25
    qw = q @ omega.T  # (B, N, M)
    kw = k @ omega.T - 0.5 * np.sum(k * k, axis=-1, keepdims=True)
    log_terms = qw[:, :, None, :] + kw[:, None, :, :]  # (B, N, N', M)
    log_pair = logsumexp(log_terms, axis=-1)  # (B, N, N')
    log_row = logsumexp(log_pair, axis=-1, keepdims=True)
    log_z = log_row[..., 0] - 0.5 * np.sum(q * q, axis=-1) - math.log(m)
    floored = int(np.count_nonzero(log_z < math.log(eps_z)))
    return np.exp(log_pair - log_row), floored


def apply_along(p: np.ndarray, gate: np.ndarray, mode: int) -> np.ndarray:
    """p[b, ..., n, ...] <- sum_n' gate[b, n, n'] p[b, ..., n', ...] along token mode ``mode``."""
    moved = np.moveaxis(p, 1 + mode, 1)
    mixed = np.einsum("bnk,bk...->bn...", gate, moved)
    return np.moveaxis(mixed, 1, 1 + mode)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def gelu(u: np.ndarray) -> np.ndarray:
    return 0.5 * u * (1.0 + erf(u / math.sqrt(2.0)))


class ReferenceForward:
    """Reference logits for one model configuration and parameter dict.

    ``omega`` is the feature projection (``None`` for the softmax variant) and
    ``eps_z`` the program's floor on kernel row sums, used only for counting.
    After each call, ``floored_rows`` and ``kernel_rows`` hold the counts of
    that call.
    """

    def __init__(self, config, params: dict, omega: np.ndarray | None, eps_z: float):
        if config.block.variant not in ("factored-softmax", "factored-linear"):
            raise ValueError(f"no reference for variant {config.block.variant!r}")
        self.config = config
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.omega = omega
        self.eps_z = eps_z
        self.floored_rows = 0
        self.kernel_rows = 0

    def __call__(self, x_raw: np.ndarray) -> np.ndarray:
        cfg, w = self.config, self.params
        self.floored_rows = self.kernel_rows = 0
        x = patch_tokens(np.asarray(x_raw, dtype=np.float64), cfg.patch.patch_sizes)
        x = x @ w["patch.w"] + w["patch.b"]
        for b in range(cfg.num_blocks):
            x = self._block(x, f"block{b}")
        if cfg.head.pooling == "mean":
            pooled = x.mean(axis=tuple(range(1, x.ndim - 1)))
        else:
            pooled = x.reshape(x.shape[0], -1)
        out = pooled @ w["head.w"] + w["head.b"]
        if cfg.head.task == "forecast":
            out = out.reshape(x.shape[0], cfg.head.horizon, cfg.head.n_series)
        return out

    def _block(self, x: np.ndarray, pre: str) -> np.ndarray:
        w, eps = self.params, self.config.block.ln_eps

        def ln(v, name):
            return layer_norm(v, w[f"{pre}.{name}.gamma"], w[f"{pre}.{name}.beta"], eps)

        def ffn(v):
            hidden = gelu(v @ w[f"{pre}.ffn.w1"] + w[f"{pre}.ffn.b1"])
            return hidden @ w[f"{pre}.ffn.w2"] + w[f"{pre}.ffn.b2"]

        if self.config.block.norm_placement == "post":
            z = ln(x + self._attention(x, f"{pre}.attn"), "ln1")
            return ln(z + ffn(z), "ln2")
        z = x + self._attention(ln(x, "ln1"), f"{pre}.attn")
        return z + ffn(ln(z, "ln2"))

    def _attention(self, x: np.ndarray, pre: str) -> np.ndarray:
        blk, rot, w = self.config.block, self.config.rotary, self.params
        modes = blk.enabled_modes
        out = np.zeros_like(x)
        for h in range(blk.heads):
            q = rotate(x @ w[f"{pre}.h{h}.wq"], rot.modes, rot.base)
            k = rotate(x @ w[f"{pre}.h{h}.wk"], rot.modes, rot.base)
            p = x @ w[f"{pre}.h{h}.wv"]
            for i in modes:
                qt, kt = pool(q, i, blk.pooling), pool(k, i, blk.pooling)
                if blk.variant == "factored-softmax":
                    gate = softmax_gate(qt, kt)
                else:
                    gate, floored = kernel_gate(qt, kt, self.omega, self.eps_z)
                    self.floored_rows += floored
                    self.kernel_rows += qt.shape[0] * qt.shape[1]
                p = apply_along(p, gate, i)
            out += p @ w[f"{pre}.h{h}.wo"]
        return out


def relative_error(pred: np.ndarray, ref: np.ndarray) -> float:
    """max |pred - ref| over max |ref|; infinite when ``pred`` is not finite."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != ref.shape or not np.all(np.isfinite(pred)):
        return math.inf
    return float(np.max(np.abs(pred - ref)) / max(float(np.max(np.abs(ref))), 1e-300))
