"""Differentiable composites of the tape primitives.

The model's building blocks (mode application, pooling, layer norm, random
features, kernelized attention and losses), expressed over
:class:`~hot.autodiff.Var` so the tape provides exact adjoints.  These carry a
leading batch axis where noted; the feature-map projection matrix is treated
as a constant (no gradient flows into the random draw).
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .attention import EPS_Z
from .autodiff import Var
from .features import FeatureMapSpec, projection_matrix


def batched_mode_apply_v(t: Var, s: Var, axis: int, lead: int = 1) -> Var:
    """Apply per-batch matrices ``s`` (*lead, d, N) along ``axis`` of ``t`` (*lead, ...)."""
    return ad.apply_along(s, t, axis, lead)


def sum_except_v(t: Var, keep_axes) -> Var:
    """Sum out every axis not listed; kept axes stay in their original order."""
    keep = sorted(ax % t.value.ndim for ax in keep_axes)
    drop = tuple(ax for ax in range(t.value.ndim) if ax not in keep)
    return ad.sum_axes(t, drop) if drop else t


def layer_norm_v(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Layer normalization along the last axis with learned scale and shift."""
    return ad.layer_norm_last(x, gamma, beta, eps)


def feature_map_v(x: Var, spec: FeatureMapSpec, omega: np.ndarray | None = None) -> Var:
    """Positive random features along the last axis; ``omega`` is a constant."""
    if omega is None:
        omega = projection_matrix(spec)
    proj = ad.matmul(x, ad.constant(omega), tb=True)
    sq = ad.scale(ad.sum_axes(ad.mul(x, x), -1, keepdims=True), 0.5)
    return ad.scale(ad.exp(ad.sub(proj, sq)), 1.0 / math.sqrt(spec.num_features))


def kernelized_mode_apply_v(v: Var, qt: Var, kt: Var, axis: int, spec: FeatureMapSpec,
                            omega: np.ndarray | None = None, lead: int = 1) -> Var:
    """Batched differentiable kernelized attention along one mode.

    ``v`` is (*lead, ..., N, ..., E) with ``N`` at ``axis``; ``qt``/``kt`` are
    the pooled per-mode matrices (*lead, N, E).  Applies
    ``S = Z^-1 phi(qt) phi(kt)^T`` with the row sums Z floored at ``EPS_Z``.
    The contraction order follows from the shapes: with ``N <= M`` random
    features the N x N gate is built and applied once; otherwise (for example
    over flattened tokens) ``phi(kt)^T`` contracts first, so the cost stays
    linear in ``N``.
    """
    if omega is None:
        omega = projection_matrix(spec)
    scale = qt.shape[-1] ** -0.25
    qp = feature_map_v(ad.scale(qt, scale), spec, omega)  # (*lead, N, M)
    kp = feature_map_v(ad.scale(kt, scale), spec, omega)
    batch_shape = qp.shape[:-2]
    n, m = qp.shape[-2:]
    z = ad.reshape(ad.matmul(qp, ad.reshape(ad.sum_axes(kp, len(batch_shape)),
                                            batch_shape + (m, 1))),
                   batch_shape + (n,))
    z = ad.clip_min(z, EPS_Z)
    qn = ad.mul(qp, ad.reshape(ad.power(z, -1.0), batch_shape + (n, 1)))  # Z^-1 phi(qt)
    if n <= m:
        return ad.apply_along(ad.matmul(qn, kp, tb=True), v, axis, lead)
    swap = tuple(range(len(batch_shape))) + (len(batch_shape) + 1, len(batch_shape))
    keyed = ad.apply_along(ad.transpose(kp, swap), v, axis, lead)  # M at axis
    return ad.apply_along(qn, keyed, axis, lead)


def mse_v(pred: Var, target: np.ndarray) -> Var:
    diff = ad.sub(pred, ad.constant(target))
    return ad.mean_all(ad.mul(diff, diff))


def cross_entropy_v(logits: Var, labels: np.ndarray) -> Var:
    """Mean negative log-likelihood of integer ``labels`` under row logits."""
    n, c = logits.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    logp = ad.log_softmax_last(logits)
    return ad.scale(ad.sum_axes(ad.mul(logp, ad.constant(onehot))), -1.0 / n)
