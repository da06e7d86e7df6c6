"""Materialized references for the model's attention sublayer, used by tests.

``kernel_gate`` builds one mode's kernelized attention matrix
``Z^-1 phi(qt) phi(kt)^T`` explicitly, with the row sums Z floored at
``EPS_Z`` as in ``hot.diffops.kernelized_mode_apply_v``.  ``materialized_sublayer``
applies, per head, the Kronecker product of the per-mode gates (the identity on
masked modes) to the flattened values: the matrix the factored variants apply
by mode products, or the one flattened-token gate of the full-linear variant.
The full-softmax variant has its oracle in ``hot.attention``.
"""

import math

import numpy as np

from hot import autodiff as ad
from hot import diffops as ops
from hot.attention import EPS_Z, mode_attention_matrix
from hot.features import projection_matrix
from hot.kron import kron_chain
from hot.tensor import pool_mean_except, pool_sum_except


def phi(x, spec, omega=None):
    """Positive random features of constant vectors ``x`` (..., input_dim)."""
    x = np.asarray(x, dtype=np.float64)
    rows = ops.feature_map_v(ad.constant(x.reshape(-1, x.shape[-1])), spec, omega).value
    return rows.reshape(x.shape[:-1] + (-1,))


def kernel_gate(qt, kt, spec, omega=None):
    """The N x N kernelized gate of rows ``qt``, ``kt`` (N, E), and its unfloored row sums Z."""
    scale = qt.shape[-1] ** -0.25
    qp = phi(qt * scale, spec, omega)
    kp = phi(kt * scale, spec, omega)
    z = qp @ kp.sum(axis=0)
    return (qp @ kp.T) / np.maximum(z, EPS_Z)[:, None], z


def materialized_sublayer(x, w, variant, spec=None, mask=(), pooling="sum"):
    """What ``hot.model.attention_sublayer`` computes for every variant but
    full-softmax, with each head's token x token matrix built explicitly."""
    dims = x.shape[:-1]
    tokens = math.prod(dims)
    omega = projection_matrix(spec) if spec is not None else None
    pool = {"sum": pool_sum_except, "mean": pool_mean_except}[pooling]
    out = np.zeros_like(x)
    for h in range(w.heads):
        wq, wk, wv, wo = w.head(h)
        q, k, v = x @ wq, x @ wk, x @ wv
        if variant == "full-linear":
            s = kernel_gate(q.reshape(tokens, -1), k.reshape(tokens, -1), spec, omega)[0]
        else:
            gates = []
            for i, n in enumerate(dims):
                if mask and not mask[i]:
                    gates.append(np.eye(n))
                elif variant == "factored-softmax":
                    gates.append(mode_attention_matrix(q, k, i, pooling))
                else:
                    gates.append(kernel_gate(pool(q, i), pool(k, i), spec, omega)[0])
            s = kron_chain(gates)
        out += (s @ v.reshape(tokens, -1)).reshape(v.shape) @ wo
    return out
