"""Tensorized multivariate basis functions and their design matrices.

Univariate bases are combined into products psi_alpha(x) = prod_k
psi_{k, alpha_k}(x_k) over a total-degree set of multi-indices.  The
ordering of multi-indices is graded lexicographic (total degree first,
then plain tuple comparison) and is part of the on-disk format for
coefficient files.

Batched prediction (``predict_many``) holds one (chunk rows x |union|)
buffer plus small per-sub-block temporaries, however many dimensions there
are.  Its product order is fixed, and its GEMMs have the shapes of a plain
chunked evaluation that holds every gathered table at once; that is what
keeps its outputs bit-identical to such an evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from typing import Iterator

import numpy as np

from .spectral import PoincareBasis1D

_CHUNK = 5000  # row block size for memory-bounded prediction
_CELLS = 1 << 16  # cells per row sub-block when filling a chunk's buffer


@dataclass(frozen=True)
class TruncationSet:
    """All multi-indices with total degree <= degree, graded-lex ordered."""

    dimension: int
    degree: int
    indices: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.indices)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def total_degree_set(d: int, p: int) -> TruncationSet:
    """Complete total-degree truncation; cardinality binomial(d + p, p)."""
    if d < 1 or p < 0:
        raise ValueError("need d >= 1 and p >= 0")
    indices: list[tuple[int, ...]] = []
    for t in range(p + 1):
        indices.extend(_compositions(t, d))
    assert len(indices) == comb(d + p, p)
    return TruncationSet(dimension=d, degree=p, indices=tuple(indices))


@dataclass(frozen=True)
class ChaosBasis:
    """A truncation set bound to one univariate basis per input variable."""

    truncation: TruncationSet
    bases: tuple[PoincareBasis1D, ...]
    _alpha: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.bases) != self.truncation.dimension:
            raise ValueError("one univariate basis per dimension is required")
        alpha = np.array(self.truncation.indices, dtype=np.intp)
        for k, basis in enumerate(self.bases):
            if alpha[:, k].max() > basis.n_modes:
                raise ValueError(
                    f"dimension {k} needs mode {alpha[:, k].max()} "
                    f"but the basis holds only {basis.n_modes}")
        object.__setattr__(self, "_alpha", alpha)

    @property
    def dimension(self) -> int:
        return self.truncation.dimension

    @property
    def size(self) -> int:
        return self.truncation.size

    @property
    def eigenvalue_table(self) -> np.ndarray:
        """lambda_{k,j} for j = 0..degree, shape (d, degree+1).

        The trivial mode's entry is exactly zero (the discrete eigensolve
        returns roundoff noise there, which would leak into column norms).
        """
        p = self.truncation.degree
        table = np.stack([b.eigenvalues[: p + 1] for b in self.bases]).copy()
        table[:, 0] = 0.0
        return table

    def _value_tables(self, X: np.ndarray) -> list[np.ndarray]:
        p = self.truncation.degree
        return [b.eval_all(X[:, k], min(p, b.n_modes)) for k, b in enumerate(self.bases)]

    def _deriv_tables(self, X: np.ndarray) -> list[np.ndarray]:
        p = self.truncation.degree
        return [b.eval_deriv_all(X[:, k], min(p, b.n_modes)) for k, b in enumerate(self.bases)]


def basis_matrix(basis: ChaosBasis, X: np.ndarray) -> np.ndarray:
    """Design matrix Psi[i, j] = psi_{alpha_j}(x^(i)), shape (n, P)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    tables = basis._value_tables(X)
    out = np.ones((X.shape[0], basis.size))
    for k in range(basis.dimension):
        out *= tables[k][:, basis._alpha[:, k]]
    return out


def deriv_matrix(basis: ChaosBasis, X: np.ndarray, k: int) -> np.ndarray:
    """Partial-derivative design matrix d psi_alpha / d x_k at the rows of X.

    Columns whose multi-index has alpha_k = 0 are exactly zero.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    tables = basis._value_tables(X)
    dtable = basis.bases[k].eval_deriv_all(X[:, k], min(basis.truncation.degree, basis.bases[k].n_modes))
    out = dtable[:, basis._alpha[:, k]]
    for l in range(basis.dimension):
        if l != k:
            out *= tables[l][:, basis._alpha[:, l]]
    out[:, basis._alpha[:, k] == 0] = 0.0
    return out


def h1_column_norms(basis: ChaosBasis) -> np.ndarray:
    """Column norms sqrt(1 + sum_k lambda_{k, alpha_k}) of the combined system."""
    lam = basis.eigenvalue_table
    totals = np.zeros(basis.size)
    for k in range(basis.dimension):
        totals += lam[k, basis._alpha[:, k]]
    return np.sqrt(1.0 + totals)


@dataclass(frozen=True)
class ChaosExpansion:
    """A chaos basis with one fitted coefficient per multi-index."""

    basis: ChaosBasis
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} coefficients, got {c.shape}")
        object.__setattr__(self, "coefficients", c)

    @property
    def active(self) -> np.ndarray:
        return np.flatnonzero(self.coefficients)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Surrogate values at the rows of X."""
        values, _ = predict_many(self.basis, self.coefficients[None, :], X)
        return values[:, 0]

    def predict_grad(self, X: np.ndarray) -> np.ndarray:
        """Surrogate gradient at the rows of X, shape (n, d)."""
        _, grads = predict_many(self.basis, self.coefficients[None, :], X, with_grad=True)
        return grads[:, :, 0]


def _fold(tables: list[np.ndarray], alpha: np.ndarray, rows: slice, dims,
          out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Left fold over ``dims`` (non-empty) of the gathered tables, into ``out``.

    ``tables`` are transposed, (modes, chunk rows), and so is the result,
    (|union|, sub-block rows): every gather then copies contiguous runs.
    The fold starts from the first gathered table itself, which gives the
    bits of a fold started from ones, since 1.0 * g == g exactly.
    ``mode="clip"`` spares the buffered copy numpy makes for ``out=`` in its
    default mode; it never clips, because ChaosBasis checks every index
    against its table.
    """
    first, *rest = dims
    np.take(tables[first][:, rows], alpha[:, first], axis=0, out=out, mode="clip")
    for k in rest:
        out *= np.take(tables[k][:, rows], alpha[:, k], axis=0, out=tmp, mode="clip")
    return out


def predict_many(
    basis: ChaosBasis,
    coefficients: np.ndarray,
    X: np.ndarray,
    with_grad: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Evaluate several expansions over the same basis in one sweep.

    ``coefficients`` has one expansion per row, shape (n_fits, P).  Returns
    values of shape (n, n_fits) and, when requested, gradients of shape
    (n, d, n_fits).  Only the union of the active columns is materialized,
    so a batch of sparse fits shares the per-dimension spline tables.

    Memory is one (chunk rows x |union|) buffer plus three sub-block
    temporaries of about ``_CELLS`` cells each.  Rows go in chunks of
    ``_CHUNK``; within a chunk the buffer is filled in row sub-blocks, read
    straight from the per-dimension tables, then multiplied by the
    coefficients in one GEMM.  The buffer holds the value columns, then each
    gradient block in turn.  Values are the left fold g_0 * ... * g_{d-1} of
    the gathered tables and gradient k is
    (D_k * (g_0 * ... * g_{k-1})) * (g_{d-1} * ... * g_{k+1}), with the
    alpha_k = 0 columns zeroed.  That product order and the GEMM shapes (full
    chunks, C-contiguous) are fixed, which keeps the outputs bit-identical
    whatever the sub-block size.
    """
    C = np.atleast_2d(np.asarray(coefficients, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = basis.dimension
    if C.shape[1] != basis.size:
        raise ValueError(f"expected {basis.size} coefficients per fit, got {C.shape[1]}")
    if X.shape[1] != d:
        raise ValueError(f"expected {d} input columns, got {X.shape[1]}")
    n = X.shape[0]
    union = np.flatnonzero(np.any(C != 0.0, axis=0))
    values = np.zeros((n, C.shape[0]))
    grads = np.zeros((n, d, C.shape[0])) if with_grad else None
    if union.size == 0:
        return values, grads
    alpha = basis._alpha[union]
    CU = C[:, union].T  # (|union|, n_fits)
    zero = [alpha[:, k] == 0 for k in range(d)]
    step = max(1, min(_CELLS // union.size, _CHUNK, n))  # rows per sub-block
    buf = np.empty((min(_CHUNK, n), union.size))
    scratch = np.empty((3, step * union.size))

    def sub_blocks(m: int):
        """Row slices of a chunk of m rows, each with its three scratch arrays."""
        for s in range(0, m, step):
            sb = slice(s, min(s + step, m))
            shape = (union.size, sb.stop - sb.start)
            yield sb, [a[: shape[0] * shape[1]].reshape(shape) for a in scratch]

    for lo in range(0, n, _CHUNK):
        rows = slice(lo, min(lo + _CHUNK, n))
        Xc = X[rows]
        cols = buf[: Xc.shape[0]]
        tables = [t.T.copy() for t in basis._value_tables(Xc)]
        for sb, (acc, _, tmp) in sub_blocks(Xc.shape[0]):
            cols[sb] = _fold(tables, alpha, sb, range(d), acc, tmp).T
        values[rows] = cols @ CU
        if not with_grad:
            continue
        dtables = [t.T.copy() for t in basis._deriv_tables(Xc)]
        for k in range(d):
            for sb, (acc, part, tmp) in sub_blocks(Xc.shape[0]):
                block = np.take(dtables[k][:, sb], alpha[:, k], axis=0, out=acc, mode="clip")
                if k > 0:
                    block *= _fold(tables, alpha, sb, range(k), part, tmp)
                if k < d - 1:
                    block *= _fold(tables, alpha, sb, range(d - 1, k, -1), part, tmp)
                block[zero[k]] = 0.0
                cols[sb] = block.T
            grads[rows, k, :] = cols @ CU
    return values, grads


def export_expansion_json(expansion: ChaosExpansion, path) -> None:
    """Coefficients keyed by multi-index, plus the eigenvalue table."""
    payload = {
        "dimension": expansion.basis.dimension,
        "degree": expansion.basis.truncation.degree,
        "terms": [
            {"alpha": list(alpha), "c": float(c)}
            for alpha, c in zip(expansion.basis.truncation.indices, expansion.coefficients)
        ],
        "eigenvalue_table": expansion.basis.eigenvalue_table.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def coefficients_from_json(basis: ChaosBasis, path) -> ChaosExpansion:
    """Rebind exported coefficients to an equivalent basis definition."""
    with open(path) as fh:
        payload = json.load(fh)
    lookup = {tuple(t["alpha"]): float(t["c"]) for t in payload["terms"]}
    coeffs = np.array([lookup[alpha] for alpha in basis.truncation.indices])
    return ChaosExpansion(basis=basis, coefficients=coeffs)
