"""Tensorized multivariate basis functions and their design matrices.

Univariate bases are combined into products psi_alpha(x) = prod_k
psi_{k, alpha_k}(x_k) over a total-degree set of multi-indices.  The
ordering of multi-indices is graded lexicographic (total degree first,
then plain tuple comparison) and is part of the on-disk format for
coefficient files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb
from typing import Iterator

import numpy as np

from .spectral import PoincareBasis1D

_CHUNK = 5000  # row block size for memory-bounded prediction


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
    """
    C = np.atleast_2d(np.asarray(coefficients, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    union = np.flatnonzero(np.any(C != 0.0, axis=0))
    values = np.zeros((n, C.shape[0]))
    grads = np.zeros((n, d, C.shape[0])) if with_grad else None
    if union.size == 0:
        return values, grads
    alpha = basis._alpha[union]
    CU = C[:, union].T  # (|union|, n_fits)

    for lo in range(0, n, _CHUNK):
        rows = slice(lo, min(lo + _CHUNK, n))
        Xc = X[rows]
        tables = basis._value_tables(Xc)
        gathered = [tables[k][:, alpha[:, k]] for k in range(d)]
        cols = np.ones((Xc.shape[0], union.size))
        for k in range(d):
            cols *= gathered[k]
        values[rows] = cols @ CU
        if not with_grad:
            continue
        dtables = basis._deriv_tables(Xc)
        prefix = [np.ones((Xc.shape[0], union.size))]
        for k in range(d - 1):
            prefix.append(prefix[-1] * gathered[k])
        suffix = np.ones((Xc.shape[0], union.size))
        for k in range(d - 1, -1, -1):
            dcols = dtables[k][:, alpha[:, k]] * prefix[k] * suffix
            dcols[:, alpha[:, k] == 0] = 0.0
            grads[rows, k, :] = dcols @ CU
            suffix *= gathered[k]
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
