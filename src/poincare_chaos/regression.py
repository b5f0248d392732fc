"""Sparse coefficient estimation from function and gradient data.

Three fitters share one engine, a hybrid of least-angle regression and
restricted ordinary least squares:

* ``fit_standard``      -- function values only.
* ``fit_deriv_aggregated`` -- one sparse regression per partial derivative
  (weighted by sqrt(w_k)), coefficients averaged over the derivative fits
  that can see them, constant term recovered from the residual mean.
* ``fit_combined``      -- function and all derivative rows stacked into one
  system, derivative blocks scaled by sqrt(w_k), columns normalized by their
  analytic H1 norms and the coefficients rescaled back afterwards.  The
  stacked system is filled in place, one preallocated array for all blocks.

The engine runs the LARS path to produce a nested sequence of candidate
active sets, solves restricted OLS for each candidate, scores it with the
exact leave-one-out error from the hat-matrix identity

    e_loo = (1/m) sum_i ((b_i - bhat_i) / (1 - h_ii))^2,

and returns the candidate with the smallest score (earliest wins ties).

The path is incremental: the correlations are formed once and updated with
the product that each step length already needs, and the signed active
columns and the Cholesky factor of their Gram grow in preallocated buffers,
so no step gathers the active columns again.  Only the entry order leaves
the path; every path records why it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg.blas import dtpsv

from .chaos import ChaosBasis, ChaosExpansion, basis_matrix, deriv_matrix, h1_column_norms
from .errors import Degenerate, MissingGradients

_CORR_TOL = 1e-12      # stop the path when correlations vanish (relative)
_DEP_TOL = 1e-10       # column declared dependent below this relative norm
_LEVERAGE_TOL = 1e-10  # 1 - h_ii below this makes LOO meaningless


@dataclass(frozen=True)
class DesignData:
    """An experimental design: inputs, model values, optional gradients."""

    X: np.ndarray
    y: np.ndarray
    G: np.ndarray | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if y.size != X.shape[0]:
            raise ValueError("y length must match the number of design rows")
        G = self.G
        if G is not None:
            G = np.asarray(G, dtype=float)
            if G.shape != X.shape:
                raise ValueError("gradient block must be shaped like X")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "G", G)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def resample_rows(self, rng: np.random.Generator) -> "DesignData":
        """Bootstrap: rows drawn with replacement, y and gradients kept together."""
        idx = rng.integers(0, self.n, size=self.n)
        return DesignData(self.X[idx], self.y[idx], None if self.G is None else self.G[idx])


class FitMethod(str, Enum):
    STANDARD = "standard"
    DERIV_AGGREGATED = "deriv_aggregated"
    COMBINED = "combined"


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    active_set: tuple[int, ...]
    loo_error: float
    method_tag: FitMethod
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self, indices=None) -> dict:
        keyed = (
            {str(list(indices[j])): float(self.coefficients[j]) for j in self.active_set}
            if indices is not None
            else {str(j): float(self.coefficients[j]) for j in self.active_set}
        )
        return {"method": self.method_tag.value, "loo_error": float(self.loo_error),
                "coefficients": keyed}


def _lars_path(A: np.ndarray, b: np.ndarray, cap: int, diagnostics: dict) -> list[int]:
    """Order in which columns enter the least-angle path (Efron et al. 2004).

    Incremental form.  The correlations c = A^T (b - mu) are formed once and
    then updated as c -= gamma * A^T u, reusing the product A^T u that the
    step length needs; no step is taken once ``cap`` columns are active.
    The signed active columns are kept as the rows of a preallocated
    (cap x m) block, so the equiangular direction u and the new row of the
    Cholesky factor are each one product with a prefix of that block.  The
    factor of the signed active Gram is kept as R = L^T in packed upper
    storage, column by column: the first k(k+1)/2 entries are the factor of
    the first k columns, so every triangular solve reads one buffer in place.

    Ties in the entry correlations break toward the lowest column index
    (np.argmax convention).  The path stops at ``cap`` entries, when the
    residual correlation vanishes, or when the active Gram factor becomes
    numerically singular; the last two record ``diagnostics["stop"]``.
    """
    m, P = A.shape
    active: list[int] = []
    in_active = np.zeros(P, dtype=bool)
    Xa = np.empty((cap, m))                # row t: sign_t * A[:, active[t]]
    R = np.empty(cap * (cap + 1) // 2)     # packed upper Cholesky factor R = L^T
    ones = np.ones(cap)
    scale = np.linalg.norm(b) * max(np.max(np.abs(A)), 1e-300)
    corr = A.T @ b

    while len(active) < cap:
        if active:
            # Step along the equiangular direction of the active set until an
            # inactive correlation ties with the active ones.
            k = len(active)
            z = dtpsv(k, R, dtpsv(k, R, ones[:k], trans=1))
            AA = 1.0 / np.sqrt(ones[:k] @ z)
            w = AA * z
            u = w @ Xa[:k]
            a_vec = A.T @ u

            C = float(np.max(np.abs(corr[active])))
            inactive = ~in_active
            cj = corr[inactive]
            aj = a_vec[inactive]
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = np.concatenate(((C - cj) / (AA - aj), (C + cj) / (AA + aj)))
            cand = cand[np.isfinite(cand) & (cand > 1e-15 * max(C / AA, 1e-300))]
            gamma = min(cand.min(), C / AA) if cand.size else C / AA
            corr -= gamma * a_vec

        masked = np.where(in_active, 0.0, corr)
        j = int(np.argmax(np.abs(masked)))
        if abs(masked[j]) <= _CORR_TOL * max(scale, 1.0):
            diagnostics["stop"] = "correlations vanished"
            break
        s_new = 1.0 if corr[j] >= 0 else -1.0

        k = len(active)
        v = Xa[k]
        np.multiply(A[:, j], s_new, out=v)
        vv = v @ v
        if k == 0:
            R[0] = np.sqrt(vv)
        else:
            lvec = dtpsv(k, R, Xa[:k] @ v, trans=1)
            d2 = vv - lvec @ lvec
            if d2 <= _DEP_TOL * vv:
                diagnostics["stop"] = "dependent column"
                diagnostics.setdefault("skipped_columns", []).append(j)
                break
            col = k * (k + 1) // 2           # column k of R starts here
            R[col:col + k] = lvec
            R[col + k] = np.sqrt(d2)
        active.append(j)
        in_active[j] = True

    return active


def _loo_over_candidates(A: np.ndarray, b: np.ndarray, order: list[int],
                         diagnostics: dict) -> tuple[list[int], float]:
    """Score every prefix of the entry order (including the empty model)."""
    m = A.shape[0]
    best_k, best_loo = 0, float(np.mean(b**2))  # empty model predicts zero
    Q = np.empty((m, len(order)))
    h = np.zeros(m)
    resid = b.copy()
    for t, j in enumerate(order):
        a = A[:, j]
        q = a - Q[:, :t] @ (Q[:, :t].T @ a) if t else a.copy()
        q -= Q[:, :t] @ (Q[:, :t].T @ q) if t else 0.0
        nq = np.linalg.norm(q)
        if nq <= _DEP_TOL * max(np.linalg.norm(a), 1e-300):
            diagnostics.setdefault("rank_deficient_at", []).append(j)
            break
        q /= nq
        Q[:, t] = q
        h = h + q**2
        resid = resid - q * (q @ resid)
        one_minus_h = 1.0 - h
        if np.any(one_minus_h < _LEVERAGE_TOL):
            diagnostics.setdefault("saturated_at", []).append(j)
            continue
        loo = float(np.mean((resid / one_minus_h) ** 2))
        if loo < best_loo:
            best_k, best_loo = t + 1, loo
    return order[:best_k], best_loo


def lars_loo(
    A: np.ndarray,
    b: np.ndarray,
    max_terms: int = 200,
    normalize: bool = True,
    method_tag: FitMethod = FitMethod.STANDARD,
) -> FitResult:
    """Hybrid LARS-OLS with exact leave-one-out model selection.

    ``normalize`` rescales columns to unit empirical norm for the path
    geometry only; candidate OLS, the LOO score and the returned
    coefficients always refer to the original columns (restricted OLS is
    invariant under column scaling).  Callers that already normalize their
    columns analytically pass ``normalize=False``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    m, P = A.shape
    if m < 2:
        raise Degenerate("need at least 2 rows")
    if b.size != m:
        raise ValueError("row mismatch between matrix and targets")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("matrix and targets must be finite")

    diagnostics: dict = {}
    norms = np.linalg.norm(A, axis=0)
    ok = norms > _DEP_TOL * max(norms.max(), 1e-300)
    A_path = A / np.where(norms > 0, norms, 1.0) if normalize else A
    if not ok.all():
        A_path = A_path.copy()
        A_path[:, ~ok] = 0.0
        diagnostics["dropped_zero_columns"] = int((~ok).sum())

    cap = int(min(m - 1, P, max_terms))
    order = _lars_path(A_path, b, cap, diagnostics)
    # Every exit before the cap records its own reason.
    diagnostics.setdefault("stop", "max_terms" if cap == max_terms else "size limit")
    chosen, loo = _loo_over_candidates(A, b, order, diagnostics)
    diagnostics["path_length"] = len(order)

    coeffs = np.zeros(P)
    if chosen:
        sol, *_ = np.linalg.lstsq(A[:, chosen], b, rcond=None)
        coeffs[chosen] = sol
    return FitResult(
        coefficients=coeffs,
        active_set=tuple(sorted(chosen)),
        loo_error=loo,
        method_tag=method_tag,
        diagnostics=diagnostics,
    )


def _sqrt_weights(basis: ChaosBasis, X: np.ndarray) -> list[np.ndarray]:
    return [np.sqrt(basis.bases[k].weight(X[:, k])) for k in range(basis.dimension)]


def fit_standard(basis: ChaosBasis, data: DesignData, max_terms: int = 200) -> FitResult:
    """Sparse regression of the function values on the basis columns."""
    Psi = basis_matrix(basis, data.X)
    return lars_loo(Psi, data.y, max_terms=max_terms, method_tag=FitMethod.STANDARD)


def fit_deriv_aggregated(basis: ChaosBasis, data: DesignData, max_terms: int = 200) -> FitResult:
    """Average the per-derivative sparse fits, then recover the constant.

    For each variable k the regression uses rows sqrt(w_k) * dpsi_alpha/dx_k
    over the columns with alpha_k > 0 against sqrt(w_k) * dM/dx_k.  A
    coefficient of rank-r multi-index is seen by exactly r derivative fits
    and is averaged over them (per-fit zeros included).  The constant is the
    mean of the residual y - Psi c_rest.
    """
    if data.G is None:
        raise MissingGradients("fit_deriv_aggregated needs gradient data")
    d, P = basis.dimension, basis.size
    alpha = basis._alpha
    sqw = _sqrt_weights(basis, data.X)

    per_fit = np.zeros((d, P))
    loos = []
    diagnostics: dict = {}
    for k in range(d):
        mask = alpha[:, k] > 0
        Ak = sqw[k][:, None] * deriv_matrix(basis, data.X, k)[:, mask]
        bk = sqw[k] * data.G[:, k]
        sub = lars_loo(Ak, bk, max_terms=max_terms, method_tag=FitMethod.DERIV_AGGREGATED)
        per_fit[k, mask] = sub.coefficients
        loos.append(sub.loo_error)
        if sub.diagnostics:
            diagnostics[f"deriv_{k}"] = sub.diagnostics

    rank = (alpha > 0).sum(axis=1)
    coeffs = np.zeros(P)
    nz = rank > 0
    coeffs[nz] = per_fit[:, nz].sum(axis=0) / rank[nz]

    Psi = basis_matrix(basis, data.X)
    resid = data.y - Psi @ coeffs
    coeffs[0] = float(np.mean(resid))

    return FitResult(
        coefficients=coeffs,
        active_set=tuple(np.flatnonzero(coeffs)),
        loo_error=float(np.mean(loos)),
        method_tag=FitMethod.DERIV_AGGREGATED,
        diagnostics=diagnostics,
    )


def _combined_system(basis: ChaosBasis,
                     data: DesignData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The H1-normalized stacked system of ``fit_combined``, built in place.

    Returns (A, t, norms).  A is filled block by block; each derivative block
    is scaled by sqrt(w_k) and then every column divided by its norm in
    place, which are the same products as stacking the scaled blocks and
    dividing the stack.
    """
    n, d = data.n, basis.dimension
    sqw = _sqrt_weights(basis, data.X)
    A = np.empty(((d + 1) * n, basis.size))
    A[:n] = basis_matrix(basis, data.X)
    for k in range(d):
        block = A[(k + 1) * n:(k + 2) * n]
        block[...] = deriv_matrix(basis, data.X, k)
        block *= sqw[k][:, None]
    norms = h1_column_norms(basis)
    A /= norms
    t = np.concatenate([data.y] + [sqw[k] * data.G[:, k] for k in range(d)])
    return A, t, norms


def fit_combined(basis: ChaosBasis, data: DesignData, max_terms: int = 200) -> FitResult:
    """One stacked regression over function rows and scaled derivative rows.

    The stacked matrix is [Psi; T_1 Psi_d1; ...; T_d Psi_dd] with diagonal
    (T_k)_ii = sqrt(w_k(x_k_i)); every column is divided by its analytic H1
    norm sqrt(1 + sum_k lambda_{k, alpha_k}) so the system is orthonormal in
    expectation, and the returned coefficients are rescaled back.
    """
    if data.G is None:
        raise MissingGradients("fit_combined needs gradient data")
    A, t, norms = _combined_system(basis, data)
    res = lars_loo(A, t, max_terms=max_terms, normalize=False, method_tag=FitMethod.COMBINED)
    coeffs = res.coefficients / norms
    return FitResult(
        coefficients=coeffs,
        active_set=res.active_set,
        loo_error=res.loo_error,
        method_tag=FitMethod.COMBINED,
        diagnostics=res.diagnostics,
    )


def expansion_from_fit(basis: ChaosBasis, fit: FitResult) -> ChaosExpansion:
    return ChaosExpansion(basis=basis, coefficients=fit.coefficients)
