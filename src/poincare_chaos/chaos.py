"""Tensorized multivariate basis functions and their design matrices.

Univariate bases are combined into products psi_alpha(x) = prod_k
psi_{k, alpha_k}(x_k) over a total-degree set of multi-indices.  The
ordering of multi-indices is graded lexicographic (total degree first,
then plain tuple comparison) and is part of the on-disk format for
coefficient files.

One kernel, ``_fill``, builds every tensor-product column: the design
matrices and the chunk buffer of batched prediction alike.  It has one
product order per column kind, a left fold g_0 * ... * g_{d-1} of the
gathered univariate values, with the derivative D_k in front and g_k left
out for d/dx_k, and it works through row sub-blocks with two temporaries.
The design matrices are therefore bit-identical however the rows are
blocked, and ``predict_many`` holds one (chunk rows x |union|) buffer
whatever the dimension.
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

    def _tables(self, X: np.ndarray, deriv=()) -> tuple[list, dict]:
        """Univariate tables at the rows of X, each transposed to a contiguous
        (modes, rows) array: the values of every dimension, and the
        derivatives of the dimensions in ``deriv``, keyed by dimension."""
        p = self.truncation.degree
        tables = [b.eval_all(X[:, k], p).T.copy() for k, b in enumerate(self.bases)]
        dtables = {k: self.bases[k].eval_deriv_all(X[:, k], p).T.copy() for k in deriv}
        return tables, dtables


def _inputs(basis: ChaosBasis, X: np.ndarray, k: int | None = None) -> np.ndarray:
    """X as a float (n, d) array; ValueError for any other width, or for a
    derivative direction k outside 0..d-1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = basis.dimension
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"expected {d} input columns, got an array of shape {X.shape}")
    if k is not None and not 0 <= k < d:
        raise ValueError(f"derivative direction {k} is outside 0..{d - 1}")
    return X


def _fill(out: np.ndarray, tables: list[np.ndarray], dtables: dict[int, np.ndarray],
          alpha: np.ndarray, k: int | None = None) -> np.ndarray:
    """Fill ``out`` (rows x |alpha|) with tensor-product columns and return it.

    ``tables`` and ``dtables`` come from ``ChaosBasis._tables`` at the rows
    of ``out``.  Each column is a left fold of gathered table entries: the
    value g_0 * g_1 * ... * g_{d-1} or, for direction ``k``, the derivative
    D_k * g_0 * ... * g_{d-1} with g_k left out and the alpha_k = 0 columns
    set to zero.  The fold runs over row sub-blocks of about ``_CELLS``
    cells, transposed to (|alpha|, sub-block rows) so that every gather
    copies contiguous runs; elementwise products do not depend on the
    blocking, so neither do the bits.  The first factor is the gathered
    table itself, which has the bits of a fold started from ones.
    ``mode="clip"`` spares the buffered copy numpy makes for ``out=`` in its
    default mode; it never clips, because ChaosBasis checks every index
    against its table.
    """
    n, m = out.shape
    factors = [(tables[l], l) for l in range(alpha.shape[1]) if l != k]
    if k is not None:
        factors.insert(0, (dtables[k], k))
        zero = alpha[:, k] == 0
    (first, j), *rest = factors
    step = max(1, min(_CELLS // m, n))
    scratch = np.empty((2, step * m))
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        acc, tmp = (a[: m * (rows.stop - lo)].reshape(m, -1) for a in scratch)
        np.take(first[:, rows], alpha[:, j], axis=0, out=acc, mode="clip")
        for table, l in rest:
            acc *= np.take(table[:, rows], alpha[:, l], axis=0, out=tmp, mode="clip")
        if k is not None:
            acc[zero] = 0.0
        out[rows] = acc.T
    return out


def basis_matrix(basis: ChaosBasis, X: np.ndarray) -> np.ndarray:
    """Design matrix Psi[i, j] = psi_{alpha_j}(x^(i)), shape (n, P)."""
    X = _inputs(basis, X)
    return _fill(np.empty((X.shape[0], basis.size)), *basis._tables(X), basis._alpha)


def deriv_matrix(basis: ChaosBasis, X: np.ndarray, k: int) -> np.ndarray:
    """Partial-derivative design matrix d psi_alpha / d x_k at the rows of X.

    Columns whose multi-index has alpha_k = 0 are exactly zero.
    """
    X = _inputs(basis, X, k)
    return _fill(np.empty((X.shape[0], basis.size)), *basis._tables(X, (k,)), basis._alpha, k)


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

    Memory is one (chunk rows x |union|) buffer plus the two sub-block
    temporaries of ``_fill``.  Rows go in chunks of ``_CHUNK``; ``_fill``
    writes the value columns of a chunk into the buffer, one GEMM with the
    coefficients follows, and then the same again for each gradient block.
    The columns have the product order of ``basis_matrix`` and
    ``deriv_matrix``, and every GEMM has a full chunk, C-contiguous, so the
    outputs keep their bits whatever the sub-block size.
    """
    C = np.atleast_2d(np.asarray(coefficients, dtype=float))
    X = _inputs(basis, X)
    if C.shape[1] != basis.size:
        raise ValueError(f"expected {basis.size} coefficients per fit, got {C.shape[1]}")
    n, d = X.shape
    union = np.flatnonzero(np.any(C != 0.0, axis=0))
    values = np.zeros((n, C.shape[0]))
    grads = np.zeros((n, d, C.shape[0])) if with_grad else None
    if union.size == 0:
        return values, grads
    alpha = basis._alpha[union]
    CU = C[:, union].T  # (|union|, n_fits)
    buf = np.empty((min(_CHUNK, n), union.size))
    for lo in range(0, n, _CHUNK):
        rows = slice(lo, min(lo + _CHUNK, n))
        cols = buf[: rows.stop - lo]
        tables, dtables = basis._tables(X[rows], range(d) if with_grad else ())
        values[rows] = _fill(cols, tables, dtables, alpha) @ CU
        for k in dtables:
            grads[rows, k, :] = _fill(cols, tables, dtables, alpha, k) @ CU
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
