"""Kronecker-factorized high-order attention: tensor algebra, exact attention
oracles, random features, reverse-mode gradients, and benchmark tooling.

The attention variants that train and predict are the model's sublayer,
:func:`hot.model.attention_sublayer_v`: one loop over token modes, in which the
full variants are one flattened mode holding every token, so a mask that turns
a mode off is refused for them.  Their one oracle, :func:`materialized_attention`,
takes the sublayer's arguments and builds each head's token x token matrix."""

from .attention import (
    AttentionWeights,
    materialized_attention,
    mode_attention_matrix,
    random_attention_weights,
    softmax_rows,
    standard_attention,
)
from .features import FeatureMapSpec, projection_matrix
from .io import read_tensor, write_tensor
from .kron import (
    KronFactors,
    KronSum,
    kron_decompose,
    kron_rank_bound,
    materialize,
    reconstruction_error,
    vanloan_rearrange,
)
from .tensor import matricize, mode_product, pool_mean_except, pool_sum_except

__all__ = [
    "AttentionWeights",
    "FeatureMapSpec",
    "KronFactors",
    "KronSum",
    "kron_decompose",
    "kron_rank_bound",
    "materialize",
    "materialized_attention",
    "matricize",
    "mode_attention_matrix",
    "mode_product",
    "pool_mean_except",
    "pool_sum_except",
    "projection_matrix",
    "random_attention_weights",
    "read_tensor",
    "reconstruction_error",
    "softmax_rows",
    "standard_attention",
    "vanloan_rearrange",
    "write_tensor",
]
