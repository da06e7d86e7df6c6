"""Positive random features for linear-time softmax-kernel attention.

The map sends x in R^d to M nonnegative features

    phi(x)_m = M**-0.5 * exp(w_m . x - |x|^2 / 2)

with projection rows w_m drawn standard normal and orthogonalized in blocks of
d rows (QR per block, row norms redrawn chi-distributed so each row keeps a
Gaussian marginal).  Then E[phi(q) . phi(k)] = exp(q . k), and scaling both
inputs by d**-0.25 before the map turns that into an unbiased estimate of the
softmax kernel exp(q . k / sqrt(d)).  The map itself is
:func:`hot.diffops.feature_map_v`; this module fixes its projection matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FeatureMapSpec:
    """Configuration of one random feature map (fixed given the seed)."""

    num_features: int
    input_dim: int
    seed: int = 0
    variant: str = "positive"

    def __post_init__(self):
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.variant != "positive":
            raise ValueError(f"unknown feature map variant {self.variant!r}")


def projection_matrix(spec: FeatureMapSpec) -> np.ndarray:
    """Block-orthogonal Gaussian projection matrix of shape (M, input_dim).

    Rows are orthogonal within each block of ``input_dim`` rows and have
    chi-distributed norms, so every row is marginally standard normal.
    """
    rng = np.random.default_rng(spec.seed)
    m, d = spec.num_features, spec.input_dim
    blocks = []
    remaining = m
    while remaining > 0:
        block = rng.standard_normal((d, d))
        q, r = np.linalg.qr(block)
        q = q * np.sign(np.diag(r))  # Haar-correct the factor's column signs
        take = min(remaining, d)
        blocks.append(q.T[:take])
        remaining -= take
    omega = np.vstack(blocks)
    norms = np.linalg.norm(rng.standard_normal((m, d)), axis=1)
    return omega * norms[:, None]
