"""Kronecker products and Kronecker-rank decomposition.

A square matrix ``S`` acting on a flattened index grid ``N_0 x ... x N_{k-1}``
can be approximated as a sum of Kronecker products of small per-mode factors,

    S ~ sum_r  S_r^(0) (x) S_r^(1) (x) ... (x) S_r^(k-1),

and such a sum applied to a tensor without ever materializing ``S``:
multiplying by one Kronecker term is the chain of per-mode products
``(...((V x_0 S^(0)) x_1 S^(1)) ... x_{k-1} S^(k-1))``, which is how
:mod:`hot.attention` applies its per-mode attention matrices.

Finding the best sum of a given length reduces, after a fixed entry
rearrangement (:func:`vanloan_rearrange`), to low-rank approximation: truncated
SVD for two modes, alternating least squares CP for three or more.  The number
of terms needed for an exact representation is at most
``min_j prod_{i != j} N_i**2``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import matricize

ALS_MAX_SWEEPS = 200
ALS_TOL = 1e-10


@dataclass(frozen=True)
class KronFactors:
    """One Kronecker term: a list of square per-mode factor matrices."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("a Kronecker term needs at least one factor")
        for i, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ValueError(f"factor {i} must be square, got shape {f.shape}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def side(self) -> int:
        """Side length of the implied full matrix."""
        return math.prod(self.dims)


@dataclass(frozen=True)
class KronSum:
    """A rank-R sum of Kronecker terms with identical per-mode shapes.

    ``residual``, ``converged`` and ``sweeps`` carry diagnostics when the sum
    was produced by :func:`kron_decompose`.
    """

    terms: tuple[KronFactors, ...]
    residual: float | None = field(default=None, compare=False)
    converged: bool = field(default=True, compare=False)
    sweeps: int = field(default=0, compare=False)

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("a Kronecker sum needs at least one term")
        dims = self.terms[0].dims
        for r, term in enumerate(self.terms):
            if term.dims != dims:
                raise ValueError(f"term {r} has dims {term.dims}, expected {dims}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.terms[0].dims

    @property
    def rank(self) -> int:
        return len(self.terms)


def kron_chain(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    out = np.asarray(mats[0], dtype=np.float64)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def materialize(ks: KronSum | KronFactors) -> np.ndarray:
    """Expand a Kronecker sum into the full ``side x side`` matrix.

    This is a verification oracle: the factored application paths exist
    precisely to avoid this expansion, so production code never calls it.
    """
    if isinstance(ks, KronFactors):
        ks = KronSum((ks,))
    out = np.zeros((ks.terms[0].side, ks.terms[0].side))
    for term in ks.terms:
        out += kron_chain(term.factors)
    return out


def vanloan_rearrange(s: np.ndarray, dims) -> np.ndarray:
    """Rearrange a ``prod(dims) x prod(dims)`` matrix into a tensor of shape ``(N_0**2, ..., N_{k-1}**2)``.

    Entry ``(i_0*N_0+j_0, ..., i_{k-1}*N_{k-1}+j_{k-1})`` of the result is
    ``s[flat(i_0..i_{k-1}), flat(j_0..j_{k-1})]``.  The map is a bijection on
    entries, and a single Kronecker product ``A_0 (x) ... (x) A_{k-1}``
    rearranges to the rank-one outer product ``vec(A_0) o ... o vec(A_{k-1})``,
    which is what makes nearest-Kronecker-term problems low-rank problems.
    """
    dims = tuple(int(d) for d in dims)
    s = np.asarray(s, dtype=np.float64)
    side = math.prod(dims)
    if s.ndim != 2 or s.shape != (side, side):
        raise ValueError(f"matrix shape {s.shape} does not match dims {dims}")
    k = len(dims)
    t = s.reshape(dims + dims)
    perm = []
    for i in range(k):
        perm.extend([i, k + i])
    t = np.transpose(t, perm)
    return np.ascontiguousarray(t.reshape(tuple(d * d for d in dims)))


def kron_rank_bound(dims) -> int:
    """Number of terms guaranteed to represent any matrix on this grid exactly."""
    dims = tuple(int(d) for d in dims)
    return min(math.prod(d * d for i, d in enumerate(dims) if i != j) for j in range(len(dims)))


def _fold_factor(vec: np.ndarray, n: int) -> np.ndarray:
    return np.ascontiguousarray(vec.reshape(n, n))


def _khatri_rao(mats: list[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product; first matrix's rows vary slowest."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, m.shape[1])
    return out


def _als_sweep_loop(t: np.ndarray, factors: list[np.ndarray], norm_t: float,
                    max_sweeps: int, tol: float) -> tuple[list[np.ndarray], float, bool, int]:
    """Run ALS sweeps from the given factor init until the residual stalls."""
    k = t.ndim
    unfoldings = [matricize(t, i) for i in range(k)]
    prev = np.inf
    residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        for i in range(k):
            others = [factors[j] for j in range(k) if j != i]
            gram = np.ones((factors[i].shape[1],) * 2)
            for f in others:
                gram *= f.T @ f
            rhs = unfoldings[i] @ _khatri_rao(others)
            # gram can be singular when rank exceeds what the data supports;
            # lstsq still minimizes the true objective, so sweeps never
            # increase the residual
            factors[i] = np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T
        residual = np.linalg.norm(t - _khatri_rao(factors).sum(axis=1).reshape(t.shape)) / norm_t
        if abs(prev - residual) < tol:
            return factors, residual, True, sweep
        prev = residual
    return factors, residual, False, max_sweeps


def _als_cp(t: np.ndarray, rank: int, rng: np.random.Generator,
            max_sweeps: int, tol: float) -> tuple[list[np.ndarray], float, bool, int]:
    """CP decomposition by ALS, growing the rank one column at a time.

    Each rank r warm-starts from the rank r-1 solution plus a small random
    column; if ALS lands worse than the previous rank (possible from a bad
    perturbation), the previous solution padded with a zero column is kept.
    This makes the final residual non-increasing in the requested rank.
    """
    k = t.ndim
    norm_t = np.linalg.norm(t)
    if norm_t == 0.0:
        return [np.zeros((n, rank)) for n in t.shape], 0.0, True, 0
    pad_scale = 0.01 * norm_t ** (1.0 / k)
    best: list[np.ndarray] | None = None
    best_res = np.inf
    converged = True
    total_sweeps = 0
    for r in range(1, rank + 1):
        if best is None:
            init = [rng.standard_normal((n, 1)) for n in t.shape]
        else:
            init = [
                np.hstack([f, pad_scale * rng.standard_normal((f.shape[0], 1))])
                for f in best
            ]
        factors, res, conv, sweeps = _als_sweep_loop(t, init, norm_t, max_sweeps, tol)
        total_sweeps += sweeps
        if res <= best_res:
            best, best_res, converged = factors, res, conv
        else:
            best = [np.hstack([f, np.zeros((f.shape[0], 1))]) for f in best]
    return best, best_res, converged, total_sweeps


def kron_decompose(s: np.ndarray, dims, rank: int,
                   rng: np.random.Generator | None = None,
                   max_sweeps: int = ALS_MAX_SWEEPS, tol: float = ALS_TOL) -> KronSum:
    """Decompose a square matrix into a rank-``rank`` sum of Kronecker terms.

    For one or two modes the optimal truncation comes from the SVD of the
    rearranged matrix; singular-value ties keep the earlier index.  For three
    or more modes the rearranged tensor is CP-decomposed by seeded-random-init
    alternating least squares (``rng`` drives the init; defaults to seed 0).
    ALS non-convergence is reported through ``converged``/``residual`` on the
    result and a warning, never silently.

    The reconstruction residual (relative Frobenius) is attached to the
    returned :class:`KronSum`.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    dims = tuple(int(d) for d in dims)
    t = vanloan_rearrange(s, dims)
    norm = np.linalg.norm(t)
    k = len(dims)

    if k == 1:
        terms = [KronFactors((_fold_factor(t.copy(), dims[0]),))]
        terms += [KronFactors((np.zeros((dims[0], dims[0])),)) for _ in range(rank - 1)]
        return KronSum(tuple(terms), residual=0.0, converged=True, sweeps=0)

    if k == 2:
        u, sv, vt = np.linalg.svd(t, full_matrices=False)
        terms = []
        for r in range(rank):
            if r < sv.size:
                w = math.sqrt(sv[r])
                a = _fold_factor(w * u[:, r], dims[0])
                b = _fold_factor(w * vt[r, :], dims[1])
            else:
                a = np.zeros((dims[0], dims[0]))
                b = np.zeros((dims[1], dims[1]))
            terms.append(KronFactors((a, b)))
        tail = sv[min(rank, sv.size):]
        residual = float(np.linalg.norm(tail) / norm) if norm > 0 else 0.0
        return KronSum(tuple(terms), residual=residual, converged=True, sweeps=0)

    if rng is None:
        rng = np.random.default_rng(0)
    factors, residual, converged, sweeps = _als_cp(t, rank, rng, max_sweeps, tol)
    if not converged:
        warnings.warn(
            f"ALS did not converge in {max_sweeps} sweeps "
            f"(relative residual {residual:.3e})",
            RuntimeWarning,
        )
    terms = tuple(
        KronFactors(tuple(_fold_factor(factors[i][:, r], dims[i]) for i in range(k)))
        for r in range(rank)
    )
    return KronSum(terms, residual=float(residual), converged=converged, sweeps=sweeps)


def reconstruction_error(ks: KronSum, s: np.ndarray) -> float:
    """Relative Frobenius error of a Kronecker sum against the target matrix."""
    denom = np.linalg.norm(s)
    if denom == 0.0:
        return float(np.linalg.norm(materialize(ks)))
    return float(np.linalg.norm(materialize(ks) - s) / denom)
