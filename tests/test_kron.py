"""Kronecker algebra and rank-decomposition tests.

Decomposition checks are construct-then-recover: plant a known Kronecker
structure, decompose, and compare against the planted matrix (or against the
SVD truncation behaviour for monotonicity).
"""

import itertools
import warnings

import numpy as np
import pytest

from hot.attention import softmax_rows
from hot.kron import (
    KronFactors,
    KronSum,
    kron_chain,
    kron_decompose,
    kron_rank_bound,
    materialize,
    reconstruction_error,
    vanloan_rearrange,
)


def kron_by_expansion(a, b):
    """Independent oracle: entry-by-entry expansion of the block structure."""
    ma, na = a.shape
    mb, nb = b.shape
    out = np.zeros((ma * mb, na * nb))
    for ia, ja, ib, jb in itertools.product(range(ma), range(na), range(mb), range(nb)):
        out[ia * mb + ib, ja * nb + jb] = a[ia, ja] * b[ib, jb]
    return out


class TestMaterialize:
    def test_identity_term(self):
        term = KronFactors((np.eye(2), np.eye(3)))
        assert np.array_equal(materialize(term), np.eye(6))

    def test_two_terms_by_expansion(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((2, 2)) for _ in range(4)]
        ks = KronSum((KronFactors((mats[0], mats[1])), KronFactors((mats[2], mats[3]))))
        expected = kron_by_expansion(mats[0], mats[1]) + kron_by_expansion(mats[2], mats[3])
        assert np.allclose(materialize(ks), expected, atol=0)

    def test_round_trip_through_decompose(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((6, 6))
        ks = kron_decompose(s, (2, 3), rank=kron_rank_bound((2, 3)))
        assert np.abs(materialize(ks) - s).max() <= 1e-10

    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            KronSum((KronFactors((np.eye(2),)), KronFactors((np.eye(3),))))



class TestVanLoanRearrange:
    def test_k1_is_flatten(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((3, 3))
        out = vanloan_rearrange(s, (3,))
        assert out.shape == (9,)
        assert np.array_equal(out, s.reshape(-1))

    def test_single_kron_term_has_rank_one(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        r = vanloan_rearrange(kron_chain([a, b]), (2, 2))
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[0] > 1e-6
        assert np.all(sv[1:] <= 1e-10 * sv[0])
        # and the rank-one factors are the flattened inputs up to scale
        assert np.abs(np.outer(a.reshape(-1), b.reshape(-1)) - r).max() <= 1e-12

    def test_bijection_preserves_value_multiset(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal((12, 12))
        out = vanloan_rearrange(s, (2, 3, 2))
        assert out.shape == (4, 9, 4)
        assert np.array_equal(np.sort(out.reshape(-1)), np.sort(s.reshape(-1)))

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            vanloan_rearrange(np.zeros((5, 5)), (2, 3))


class TestKronDecompose:
    def test_planted_single_term_recovered_at_rank_one(self):
        rng = np.random.default_rng(11)
        s = kron_chain([rng.standard_normal((3, 3)), rng.standard_normal((4, 4))])
        ks = kron_decompose(s, (3, 4), 1)
        assert reconstruction_error(ks, s) <= 1e-10
        assert ks.residual <= 1e-10

    def test_exact_at_rank_bound_3x3(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal((9, 9))
        assert kron_rank_bound((3, 3)) == 9
        ks = kron_decompose(s, (3, 3), 9)
        assert reconstruction_error(ks, s) <= 1e-10

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(13)
        s = rng.standard_normal((9, 9))
        errs = [reconstruction_error(kron_decompose(s, (3, 3), r), s) for r in range(1, 10)]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
    def test_universality_for_row_stochastic(self, dims):
        rng = np.random.default_rng(14)
        side = dims[0] * dims[1]
        for _ in range(3):
            s = softmax_rows(rng.standard_normal((side, side)))
            rank = min(dims[0] ** 2, dims[1] ** 2)
            ks = kron_decompose(s, dims, rank)
            assert reconstruction_error(ks, s) <= 1e-8

    def test_rank_multiplicativity_of_single_term(self):
        rng = np.random.default_rng(15)
        for n0, n1 in [(2, 2), (2, 3), (3, 3)]:
            a = rng.standard_normal((n0, n0))
            b = rng.standard_normal((n1, n1))
            ranks = []
            for m in (a, b, kron_chain([a, b])):
                sv = np.linalg.svd(m, compute_uv=False)
                ranks.append(int(np.sum(sv > 1e-9 * sv[0])))
            assert ranks[2] == ranks[0] * ranks[1]

    def test_als_three_modes_recovers_planted_sum(self):
        rng = np.random.default_rng(16)
        terms = [
            kron_chain([rng.standard_normal((2, 2)) for _ in range(3)]) for _ in range(2)
        ]
        s = terms[0] + terms[1]
        ks = kron_decompose(s, (2, 2, 2), 2, rng=np.random.default_rng(1))
        assert ks.residual <= 1e-8
        assert reconstruction_error(ks, s) <= 1e-8

    def test_als_error_non_increasing(self):
        rng = np.random.default_rng(17)
        s = rng.standard_normal((8, 8))
        with warnings.catch_warnings():
            # a stalled-but-flagged sweep at some rank is fine here; only the
            # ordering of the residuals is under test
            warnings.simplefilter("ignore", RuntimeWarning)
            errs = [
                reconstruction_error(kron_decompose(s, (2, 2, 2), r, rng=np.random.default_rng(2)), s)
                for r in (1, 2, 3, 4)
            ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12

    def test_als_non_convergence_is_flagged(self):
        rng = np.random.default_rng(19)
        s = rng.standard_normal((8, 8))
        with pytest.warns(RuntimeWarning, match="ALS did not converge"):
            ks = kron_decompose(s, (2, 2, 2), 2, rng=np.random.default_rng(0), max_sweeps=2)
        assert not ks.converged
        assert ks.residual is not None and ks.residual > 0

    def test_als_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(18)
        s = rng.standard_normal((8, 8))
        a = kron_decompose(s, (2, 2, 2), 2, rng=np.random.default_rng(3))
        b = kron_decompose(s, (2, 2, 2), 2, rng=np.random.default_rng(3))
        for ta, tb in zip(a.terms, b.terms):
            for fa, fb in zip(ta.factors, tb.factors):
                assert np.array_equal(fa, fb)

    def test_zero_matrix(self):
        ks = kron_decompose(np.zeros((6, 6)), (2, 3), 2)
        assert reconstruction_error(ks, np.zeros((6, 6))) == 0.0

    def test_rank_bound_values(self):
        assert kron_rank_bound((2, 3)) == 4
        assert kron_rank_bound((3, 3)) == 9
        assert kron_rank_bound((2, 2, 2)) == 16

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            kron_decompose(np.eye(4), (2, 2), 0)
