"""Attention variant tests: exact oracles, reductions, and statistical limits.

The variants run through the model's sublayer (``hot.model.attention_sublayer``).
The exact comparisons pit it against independently coded references
(per-element loops, explicitly materialized Kronecker matrices, flattened-token
attention).  The kernelized variants get statistical tests of their softmax
limits; those use inputs with moderate pooled logits so the random-feature
estimator variance stays finite at desk-scale feature counts.
"""

import math

import numpy as np
import pytest

import hot
from hot import autodiff as ad
from hot import diffops as ops
from hot.attention import (
    EPS_Z,
    AttentionWeights,
    kernel_gate,
    materialized_attention,
    mode_attention_matrix,
    random_attention_weights,
    softmax_rows,
    standard_attention,
)
from hot.features import FeatureMapSpec, projection_matrix
from hot.kron import kron_chain
from hot.model import attention_sublayer
from hot.tensor import mode_product, pool_sum_except
from oracles import phi


def kernelized_apply(v, qt, kt, axis, spec):
    """``diffops.kernelized_mode_apply_v`` on one unbatched input."""
    return ops.kernelized_mode_apply_v(ad.constant(v[None]), ad.constant(qt[None]),
                                       ad.constant(kt[None]), axis + 1, spec).value[0]


def standard_attention_by_loops(x, w):
    """Independent reference: per-token, per-head python loops."""
    n, d = x.shape
    out = np.zeros((n, d))
    for h in range(w.heads):
        wq, wk, wv, wo = w.head(h)
        q = np.array([[x[i] @ wq[:, e] for e in range(w.d_head)] for i in range(n)])
        k = np.array([[x[i] @ wk[:, e] for e in range(w.d_head)] for i in range(n)])
        v = np.array([[x[i] @ wv[:, e] for e in range(w.d_head)] for i in range(n)])
        for i in range(n):
            logits = np.array([q[i] @ k[j] for j in range(n)]) / math.sqrt(w.d_head)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            attended = sum(weights[j] * v[j] for j in range(n))
            out[i] += attended @ wo
    return out


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=0)

    def test_no_overflow_on_large_logits(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_values_from_high_precision_oracle(self):
        # frozen from 50-digit decimal arithmetic: exp(i)/sum(exp(1..3))
        expected = np.array([
            0.090030573170380457998022101484491797867930864911468,
            0.24472847105479765247295961834076279719930007483797,
            0.66524095577482188952901828017474540493276906025055,
        ])
        out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))
        assert np.abs(out[0] - expected).max() <= 1e-15

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax_rows(rng.standard_normal((20, 7)) * 10)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 5))
        assert np.abs(softmax_rows(logits) - softmax_rows(logits + 3.7)).max() <= 1e-12


class TestStandardAttention:
    def test_single_token(self):
        rng = np.random.default_rng(2)
        w = random_attention_weights(6, 2, seed=0)
        x = rng.standard_normal((1, 6))
        expected = sum(x @ w.head(h)[2] @ w.head(h)[3] for h in range(2))
        assert np.abs(standard_attention(x, w) - expected).max() <= 1e-12

    def test_identical_rows_give_identical_rows(self):
        rng = np.random.default_rng(3)
        w = random_attention_weights(6, 2, seed=1)
        row = rng.standard_normal(6)
        x = np.tile(row, (4, 1))
        out = standard_attention(x, w)
        assert np.abs(out - out[0]).max() <= 1e-12

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(4)
        w = random_attention_weights(4, 2, seed=2)
        x = rng.standard_normal((3, 4))
        assert np.abs(standard_attention(x, w) - standard_attention_by_loops(x, w)).max() <= 1e-12


class TestModeAttentionMatrix:
    def test_reduces_to_standard_weights_at_one_mode(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((5, 3))
        k = rng.standard_normal((5, 3))
        expected = softmax_rows((q @ k.T) / math.sqrt(3))
        assert np.abs(mode_attention_matrix(q, k, 0) - expected).max() <= 1e-15

    def test_constant_input_gives_uniform_matrix(self):
        q = np.ones((2, 3, 4))
        out = mode_attention_matrix(q, q, 1)
        assert np.abs(out - 1.0 / 3.0).max() <= 1e-12

    def test_matches_hand_expanded_pooling(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 3, 4))
        # brute force: pool by explicit sums, then row-normalized exponentials
        for mode, n in [(0, 2), (1, 3)]:
            qt = np.zeros((n, 4))
            kt = np.zeros((n, 4))
            for a in range(n):
                for other in range(q.shape[1 - mode]):
                    idx = (a, other) if mode == 0 else (other, a)
                    qt[a] += q[idx]
                    kt[a] += k[idx]
            logits = qt @ kt.T / 2.0
            expected = np.exp(logits - logits.max(axis=1, keepdims=True))
            expected /= expected.sum(axis=1, keepdims=True)
            assert np.abs(mode_attention_matrix(q, k, mode) - expected).max() <= 1e-12

    def test_row_stochastic(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((3, 4, 5))
        out = mode_attention_matrix(q, rng.standard_normal((3, 4, 5)), 1)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


class TestFullHighOrderAttention:
    def test_reduces_to_standard_at_one_mode(self):
        rng = np.random.default_rng(8)
        w = random_attention_weights(6, 3, seed=3)
        x = rng.standard_normal((5, 6))
        out = materialized_attention(x, w, "full-softmax")
        assert np.abs(out - standard_attention(x, w)).max() <= 1e-15

    def test_matches_flattening_reference(self):
        rng = np.random.default_rng(9)
        w = random_attention_weights(4, 2, seed=4)
        x = rng.standard_normal((2, 2, 4))
        expected = standard_attention_by_loops(x.reshape(4, 4), w).reshape(2, 2, 4)
        assert np.abs(materialized_attention(x, w, "full-softmax") - expected).max() <= 1e-12

    def test_shape_preserved(self):
        rng = np.random.default_rng(10)
        w = random_attention_weights(8, 2, seed=5)
        x = rng.standard_normal((2, 3, 4, 8))
        assert materialized_attention(x, w, "full-softmax").shape == x.shape

    @pytest.mark.parametrize("fn", [attention_sublayer, materialized_attention])
    def test_refuses_unknown_variant_and_masked_full_variant(self, fn):
        w = random_attention_weights(4, 2, seed=6)
        x = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="variant must be one of"):
            fn(x, w, "full")
        with pytest.raises(ValueError, match="cannot turn a mode off"):
            fn(x, w, "full-linear", FeatureMapSpec(8, 2), (True, False))


class TestFactorizedSoftmax:
    def test_reduces_to_standard_at_one_mode(self):
        rng = np.random.default_rng(11)
        w = random_attention_weights(6, 2, seed=7)
        x = rng.standard_normal((7, 6))
        out = attention_sublayer(x, w, "factored-softmax")
        assert np.abs(out - standard_attention(x, w)).max() <= 1e-14

    def test_matches_materialized_kronecker(self):
        rng = np.random.default_rng(12)
        w = random_attention_weights(4, 2, seed=8)
        x = rng.standard_normal((2, 3, 4))
        ref = materialized_attention(x, w)
        assert np.abs(attention_sublayer(x, w, "factored-softmax") - ref).max() <= 1e-10

    def test_matches_materialized_on_small_grid_sweep(self):
        rng = np.random.default_rng(13)
        shapes = [(2,), (5,), (2, 3), (4, 5), (8, 8), (2, 3, 4), (2, 2, 2, 2)]
        for dims in shapes:
            assert math.prod(dims) <= 64
            for heads in (1, 2):
                w = random_attention_weights(4, heads, seed=9)
                x = rng.standard_normal(dims + (4,))
                ref = materialized_attention(x, w)
                out = attention_sublayer(x, w, "factored-softmax")
                assert np.abs(out - ref).max() <= 1e-10, (dims, heads)

    def test_implied_attention_matrix_is_row_stochastic(self):
        rng = np.random.default_rng(14)
        w = random_attention_weights(4, 1, seed=10)
        x = rng.standard_normal((3, 4, 4))
        wq, wk, _, _ = w.head(0)
        q = x @ wq
        kt = x @ wk
        s = kron_chain(mode_attention_matrix(q, kt, i) for i in range(2))
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        w = random_attention_weights(6, 2, seed=11)
        x = rng.standard_normal((4, 5, 6))
        perm = rng.permutation(5)
        out_perm = attention_sublayer(x[:, perm, :], w, "factored-softmax")
        perm_out = attention_sublayer(x, w, "factored-softmax")[:, perm, :]
        assert np.abs(out_perm - perm_out).max() <= 1e-10

    def test_mode_subset_leaves_other_modes_untouched(self):
        rng = np.random.default_rng(16)
        w = random_attention_weights(4, 2, seed=12)
        x = rng.standard_normal((3, 4, 4))
        out = attention_sublayer(x, w, "factored-softmax", mask=(False, True))
        # with only mode 1 enabled, the implied matrix is I (x) S1
        ref = np.zeros_like(x)
        for h in range(w.heads):
            wq, wk, wv, wo = w.head(h)
            q = x @ wq
            kt = x @ wk
            v = x @ wv
            s1 = mode_attention_matrix(q, kt, 1)
            ref += mode_product(v, s1, 1) @ wo
        assert np.abs(out - ref).max() <= 1e-12

    def test_no_modes_is_value_projection_only(self):
        rng = np.random.default_rng(17)
        w = random_attention_weights(4, 2, seed=13)
        x = rng.standard_normal((3, 4, 4))
        out = attention_sublayer(x, w, "factored-softmax", mask=(False, False))
        ref = sum(x @ w.head(h)[2] @ w.head(h)[3] for h in range(w.heads))
        assert np.abs(out - ref).max() <= 1e-12


class TestFeatureMap:
    def test_zero_input_gives_constant(self):
        spec = FeatureMapSpec(16, 4, seed=0)
        out = phi(np.zeros(4), spec)
        assert np.abs(out - 1.0 / 4.0).max() <= 1e-15

    def test_strictly_positive(self):
        rng = np.random.default_rng(18)
        spec = FeatureMapSpec(32, 4, seed=1)
        out = phi(rng.standard_normal((10, 4)), spec)
        assert (out > 0).all()

    def test_monte_carlo_kernel_identity(self):
        # E[phi(q).phi(k)] = exp(q.k), checked across 10 feature seeds
        rng = np.random.default_rng(19)
        q = rng.standard_normal(4)
        q *= 0.8 / np.linalg.norm(q)
        k = rng.standard_normal(4)
        k *= 0.9 / np.linalg.norm(k)
        target = math.exp(q @ k)
        estimates = [
            phi(q, FeatureMapSpec(4096, 4, seed=s)) @ phi(k, FeatureMapSpec(4096, 4, seed=s))
            for s in range(10)
        ]
        assert abs(np.mean(estimates) - target) / target <= 0.05

    def test_projection_rows_block_orthogonal(self):
        spec = FeatureMapSpec(8, 4, seed=2)
        omega = projection_matrix(spec)
        for block in (omega[:4], omega[4:]):
            gram = block @ block.T
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() <= 1e-10

    def test_deterministic_given_seed(self):
        spec = FeatureMapSpec(64, 4, seed=3)
        assert np.array_equal(projection_matrix(spec), projection_matrix(spec))


class TestKernelizedModeApply:
    def test_implied_rows_sum_to_one(self):
        rng = np.random.default_rng(20)
        spec = FeatureMapSpec(16, 4, seed=4)
        s, z = kernel_gate(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), spec)
        assert (z >= EPS_Z).all()
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12

    def test_single_position_is_identity(self):
        rng = np.random.default_rng(21)
        spec = FeatureMapSpec(16, 4, seed=5)
        v = rng.standard_normal((1, 3, 4))
        qt = rng.standard_normal((1, 4))
        kt = rng.standard_normal((1, 4))
        out = kernelized_apply(v, qt, kt, 0, spec)
        assert np.abs(out - v).max() <= 1e-12

    def test_converges_to_softmax_application(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal((4, 5, 4))
        q = rng.standard_normal((4, 5, 4)) * 0.35
        k = rng.standard_normal((4, 5, 4)) * 0.35
        qt = pool_sum_except(q, 0)
        kt = pool_sum_except(k, 0)
        ref = mode_product(v, softmax_rows(qt @ kt.T / 2.0), 0)
        errs = []
        for s in range(10):
            out = kernelized_apply(v, qt, kt, 0, FeatureMapSpec(2048, 4, seed=s))
            errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        assert np.mean(errs) <= 0.1

    def test_floored_rows_stay_finite(self):
        spec = FeatureMapSpec(8, 2, seed=6)
        v = np.ones((2, 2))
        # keys far in the negative direction drive Z towards zero
        qt = np.full((2, 2), 30.0)
        kt = np.full((2, 2), -30.0)
        s, z = kernel_gate(qt, kt, spec)
        assert (z < EPS_Z).all()
        out = kernelized_apply(v, qt, kt, 0, spec)
        assert np.isfinite(out).all()
        assert np.abs(out - s @ v).max() <= 1e-12


class TestFactorizedLinear:
    def test_equals_full_linear_at_one_mode(self):
        rng = np.random.default_rng(23)
        w = random_attention_weights(8, 2, seed=14)
        spec = FeatureMapSpec(32, 4, seed=7)
        x = rng.standard_normal((6, 8))
        a = attention_sublayer(x, w, "factored-linear", spec)
        b = attention_sublayer(x, w, "full-linear", spec)
        assert np.abs(a - b).max() <= 1e-12

    def test_converges_to_standard_attention_at_one_mode(self):
        rng = np.random.default_rng(24)
        w = random_attention_weights(8, 2, seed=15)
        x = rng.standard_normal((6, 8)) * 0.5
        ref = standard_attention(x, w)
        errs = []
        for s in range(10):
            out = attention_sublayer(x, w, "factored-linear", FeatureMapSpec(2048, 4, seed=s))
            errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        assert np.mean(errs) <= 0.1

    def test_statistical_match_with_factorized_softmax(self):
        rng = np.random.default_rng(25)
        w = random_attention_weights(8, 2, seed=16)
        x = rng.standard_normal((4, 5, 8)) * 0.25
        ref = materialized_attention(x, w)
        errs = []
        for s in range(10):
            out = attention_sublayer(x, w, "factored-linear", hot.FeatureMapSpec(2048, 4, seed=s))
            errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        assert np.mean(errs) <= 0.1

    def test_shape_preserved(self):
        rng = np.random.default_rng(26)
        w = random_attention_weights(8, 2, seed=17)
        spec = FeatureMapSpec(16, 4, seed=8)
        x = rng.standard_normal((2, 3, 4, 8))
        assert attention_sublayer(x, w, "factored-linear", spec).shape == x.shape

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(27)
        w = random_attention_weights(8, 2, seed=18)
        spec = FeatureMapSpec(64, 4, seed=9)
        x = rng.standard_normal((3, 4, 8))
        a = attention_sublayer(x, w, "factored-linear", spec)
        b = attention_sublayer(x, w, "factored-linear", spec)
        assert np.array_equal(a, b)


class TestFullLinear:
    def test_statistical_match_with_full_softmax(self):
        rng = np.random.default_rng(28)
        w = random_attention_weights(8, 2, seed=19)
        x = rng.standard_normal((3, 4, 8)) * 0.5
        ref = materialized_attention(x, w, "full-softmax")
        errs = []
        for s in range(10):
            out = attention_sublayer(x, w, "full-linear", FeatureMapSpec(4096, 4, seed=s))
            errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        assert np.mean(errs) <= 0.1

    def test_matches_materialized_kernel_gate(self):
        # 12 flattened tokens > M = 8 features: the key-first contraction
        rng = np.random.default_rng(29)
        w = random_attention_weights(8, 2, seed=21)
        spec = FeatureMapSpec(8, 4, seed=10)
        x = rng.standard_normal((3, 4, 8))
        ref = materialized_attention(x, w, "full-linear", spec)
        out = attention_sublayer(x, w, "full-linear", spec)
        assert np.abs(out - ref).max() <= 1e-12


class TestWeights:
    # D = 6, 2 heads of 3: each matrix is (D, H, E)
    SHAPES = {name: (6, 2, 3) for name in ("wq", "wk", "wv", "wo")}

    def test_dims_validated(self):
        with pytest.raises(ValueError, match="model dim"):
            AttentionWeights(
                wq=np.zeros((5, 2, 2)), wk=np.zeros((5, 2, 2)),
                wv=np.zeros((5, 2, 2)), wo=np.zeros((5, 2, 2)),
            )

    @pytest.mark.parametrize("name,shape", [
        ("wk", (6, 3, 2)), ("wv", (2, 6, 3)), ("wo", (2, 3, 6)), ("wo", (6, 6)),
    ])
    def test_mismatched_shapes_rejected(self, name, shape):
        arrays = {k: np.zeros(s) for k, s in self.SHAPES.items()}
        AttentionWeights(**arrays)
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=name):
            AttentionWeights(**arrays)

    def test_heads_must_divide_model_dim(self):
        with pytest.raises(ValueError):
            random_attention_weights(7, 2)

    def test_parameter_shapes(self):
        w = random_attention_weights(8, 4, seed=20)
        assert w.heads == 4 and w.d_model == 8 and w.d_head == 2
        assert w.wq.shape == w.wk.shape == w.wv.shape == w.wo.shape == (8, 4, 2)
        assert all(np.shares_memory(m.reshape(8, 8), m) for m in (w.wq, w.wk, w.wv, w.wo))

    def test_random_weights_keep_their_per_head_draws(self):
        d, heads, e = 8, 4, 2
        rng = np.random.default_rng(20)

        def glorot(shape):
            limit = math.sqrt(6.0 / (shape[-2] + shape[-1]))
            return rng.uniform(-limit, limit, size=shape)

        draws = [glorot((heads, d, e)) for _ in range(3)] + [glorot((heads, e, d))]
        w = random_attention_weights(d, heads, seed=20)
        for h in range(heads):
            for got, drawn in zip(w.head(h), draws):
                assert np.array_equal(got, drawn[h])

    def test_head_is_a_view_of_the_fused_columns(self):
        w = random_attention_weights(8, 4, seed=20)
        wq, wk, wv, wo = w.head(2)
        assert np.array_equal(wq, w.wq.reshape(8, 8)[:, 4:6])
        assert np.array_equal(wo, w.wo.reshape(8, 8)[:, 4:6].T)
        assert all(np.shares_memory(m, full) for m, full in zip((wq, wk, wv, wo),
                                                               (w.wq, w.wk, w.wv, w.wo)))


class TestExports:
    def test_every_exported_name_resolves(self):
        assert [name for name in hot.__all__ if not hasattr(hot, name)] == []
