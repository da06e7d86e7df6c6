"""Tensor primitive tests against brute-force index-level oracles."""

import itertools
import math

import numpy as np
import pytest

from hot.tensor import (
    as_tensor,
    matricize,
    mode_product,
    pool_mean_except,
    pool_sum_except,
)


def matricize_by_fibers(t, mode):
    """Independent oracle: enumerate mode fibers one index tuple at a time."""
    rest = [i for i in range(t.ndim) if i != mode]
    cols = []
    for idx in itertools.product(*(range(t.shape[i]) for i in rest)):
        sel = [slice(None)] * t.ndim
        for axis, val in zip(rest, idx):
            sel[axis] = val
        cols.append(t[tuple(sel)])
    return np.stack(cols, axis=1)


def mode_product_by_sum(t, a, mode):
    """Independent oracle: direct evaluation of the defining sum."""
    out_shape = list(t.shape)
    out_shape[mode] = a.shape[0]
    out = np.zeros(out_shape)
    for idx in itertools.product(*(range(n) for n in out_shape)):
        acc = 0.0
        for j in range(t.shape[mode]):
            src = list(idx)
            src[mode] = j
            acc += t[tuple(src)] * a[idx[mode], j]
        out[idx] = acc
    return out


class TestMatricize:
    def test_shape(self):
        t = np.zeros((3, 4, 5))
        assert matricize(t, 1).shape == (4, 15)

    def test_order2_mode0_is_identity(self):
        t = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(matricize(t, 0), t)

    def test_2x2x2_explicit(self):
        t = np.arange(1.0, 9.0).reshape(2, 2, 2)
        # frozen from the fiber-enumeration oracle
        expected = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        assert np.array_equal(matricize(t, 0), expected)
        assert np.array_equal(matricize_by_fibers(t, 0), expected)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (3, 2, 2, 3)])
    def test_matches_fiber_enumeration(self, shape):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(shape)
        for mode in range(len(shape)):
            assert np.array_equal(matricize(t, mode), matricize_by_fibers(t, mode))

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            matricize(np.zeros((2, 2)), 2)


class TestModeProduct:
    def test_identity(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            out = mode_product(t, np.eye(t.shape[mode]), mode)
            assert np.allclose(out, t, atol=0)

    def test_explicit_1x2(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = np.array([[1.0, 1.0]])
        assert np.array_equal(mode_product(t, a, 0), np.array([[4.0, 6.0]]))
        assert np.array_equal(mode_product_by_sum(t, a, 0), np.array([[4.0, 6.0]]))

    @pytest.mark.parametrize("shape,mode", [((2, 3), 0), ((2, 3, 4), 1), ((2, 3, 4), 2)])
    def test_matches_direct_sum(self, shape, mode):
        rng = np.random.default_rng(3)
        t = rng.standard_normal(shape)
        a = rng.standard_normal((4, shape[mode]))
        assert np.allclose(mode_product(t, a, mode), mode_product_by_sum(t, a, mode), atol=1e-12)

    def test_matricized_oracle(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            a = rng.standard_normal((6, t.shape[mode]))
            out = mode_product(t, a, mode)
            assert np.allclose(matricize(out, mode), a @ matricize(t, mode), atol=1e-12)

    def test_commutes_across_distinct_modes(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((6, 5))
        left = mode_product(mode_product(t, a, 0), b, 2)
        right = mode_product(mode_product(t, b, 2), a, 0)
        assert np.abs(left - right).max() <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mode_product(np.zeros((2, 3)), np.zeros((4, 5)), 1)


class TestKroneckerMatricizationIdentity:
    def test_order4_identity(self):
        # (t x_0 A_0 x_1 A_1 x_2 A_2) matricized on the last mode equals
        # matricize(t) @ kron(A_0, A_1, A_2).T
        rng = np.random.default_rng(6)
        t = rng.standard_normal((2, 3, 4, 5))
        mats = [rng.standard_normal((2, 2)), rng.standard_normal((3, 3)), rng.standard_normal((4, 4))]
        out = t
        for i, a in enumerate(mats):
            out = mode_product(out, a, i)
        lhs = matricize(out, 3)
        rhs = matricize(t, 3) @ np.kron(np.kron(mats[0], mats[1]), mats[2]).T
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_rectangular_factors(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((2, 3, 4))
        a0 = rng.standard_normal((5, 2))
        a1 = rng.standard_normal((6, 3))
        out = mode_product(mode_product(t, a0, 0), a1, 1)
        lhs = matricize(out, 2)
        rhs = matricize(t, 2) @ np.kron(a0, a1).T
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestPooling:
    def test_order2_is_identity(self):
        t = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(pool_sum_except(t, 0), t)

    def test_all_ones_counts_summed_positions(self):
        t = np.ones((2, 3, 4))
        out = pool_sum_except(t, 0)
        assert out.shape == (2, 4)
        assert np.array_equal(out, np.full((2, 4), 3.0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((2, 3, 4, 5))
        perm = rng.permutation(3)
        # summation order differs, so equality only up to fp reassociation
        diff = pool_sum_except(t, 0) - pool_sum_except(t[:, perm], 0)
        assert np.abs(diff).max() <= 1e-12

    def test_mean_pooling(self):
        t = np.ones((2, 3, 4))
        assert np.array_equal(pool_mean_except(t, 0), np.ones((2, 4)))

    def test_rejects_hidden_mode(self):
        with pytest.raises(ValueError):
            pool_sum_except(np.zeros((2, 3)), 1)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_tensor(np.array([1.0, np.nan]))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            as_tensor(np.zeros((2, 0)))

    def test_size1_dims_are_legal(self):
        t = as_tensor(np.zeros((1, 3, 1)))
        assert matricize(t, 1).shape == (3, 1)
        assert math.prod(t.shape) == 3
