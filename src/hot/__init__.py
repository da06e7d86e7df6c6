"""Kronecker-factorized high-order attention: tensor algebra, attention
variants with exact oracles, reverse-mode gradients, and benchmark tooling."""

from .attention import (
    AttentionWeights,
    factorized_attention_linear,
    factorized_attention_softmax,
    full_attention_linear,
    full_high_order_attention,
    kernelized_mode_apply,
    materialized_attention,
    mode_attention_matrix,
    random_attention_weights,
    softmax_rows,
    standard_attention,
)
from .features import FeatureMapSpec, feature_map, projection_matrix
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
    "factorized_attention_linear",
    "factorized_attention_softmax",
    "feature_map",
    "full_attention_linear",
    "full_high_order_attention",
    "kernelized_mode_apply",
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
