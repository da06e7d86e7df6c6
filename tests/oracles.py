"""Test helper: the program's own feature map on constant arrays.

``phi`` runs ``hot.diffops.feature_map_v`` off the tape, so the feature-map
tests check the map the model uses.  The materialized attention oracle,
``kernel_gate`` included, is ``hot.attention.materialized_attention``.
"""

import numpy as np

from hot import autodiff as ad
from hot import diffops as ops


def phi(x, spec, omega=None):
    """Positive random features of constant vectors ``x`` (..., input_dim)."""
    x = np.asarray(x, dtype=np.float64)
    rows = ops.feature_map_v(ad.constant(x.reshape(-1, x.shape[-1])), spec, omega).value
    return rows.reshape(x.shape[:-1] + (-1,))

