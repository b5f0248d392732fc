import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from poincare_chaos import (
    ChaosBasis,
    ChaosExpansion,
    DesignData,
    FitMethod,
    ProductMeasure,
    basis_matrix,
    deriv_matrix,
    fit_combined,
    fit_deriv_aggregated,
    fit_standard,
    h1_column_norms,
    lars_loo,
    make_measure,
    total_degree_set,
)
from poincare_chaos.bench import get_model
from poincare_chaos.cli import build_chaos_basis
from poincare_chaos.errors import Degenerate, MissingGradients
from poincare_chaos.regression import _CORR_TOL, _DEP_TOL, _combined_system, _lars_path

from conftest import make_test_basis


@pytest.fixture(scope="module")
def toy_basis_small():
    """d = 2 cosine tensor basis on U(-1,1), small enough for exact checks."""
    b = make_test_basis("uniform", {"a": -1.0, "b": 1.0}, None, "constant", 4, 800)
    return ChaosBasis(total_degree_set(2, 4), (b, b))


@pytest.fixture(scope="module")
def planted_case():
    """10-sparse target in the d=4, p=8 basis with exact values and gradients."""
    b = make_test_basis("uniform", {"a": -1.0, "b": 1.0}, None, "constant", 8, 2000)
    cb = ChaosBasis(total_degree_set(4, 8), (b,) * 4)
    rng = np.random.default_rng(202)
    support = rng.choice(np.arange(1, cb.size), size=10, replace=False)
    c = np.zeros(cb.size)
    c[support] = rng.uniform(0.5, 2.0, 10) * rng.choice([-1.0, 1.0], 10)
    planted = ChaosExpansion(cb, c)
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m,) * 4).sample(200, 123)
    data = DesignData(X, planted.predict(X), planted.predict_grad(X))
    return cb, c, set(int(i) for i in support), data


def test_orthonormal_design_recovery():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 6)))
    c = np.zeros(6)
    c[[1, 3, 4]] = [2.0, -1.5, 0.7]
    res = lars_loo(Q, Q @ c)
    assert res.active_set == (1, 3, 4)
    assert np.max(np.abs(res.coefficients - c)) < 1e-10


def test_noise_only_selection():
    rng = np.random.default_rng(8)
    b = rng.standard_normal(40)
    A = rng.standard_normal((40, 20))
    res = lars_loo(A, b)
    empty_loo = float(np.mean(b**2))
    assert res.loo_error <= empty_loo * (1 + 1e-12)


def test_loo_hat_identity_vs_brute_force():
    rng = np.random.default_rng(9)
    m = 30
    A = rng.standard_normal((m, 50))
    b = A[:, :4] @ np.array([1.0, 2.0, -1.0, 0.5]) + 0.1 * rng.standard_normal(m)
    res = lars_loo(A, b)
    S = list(res.active_set)
    brute = 0.0
    for i in range(m):
        mask = np.arange(m) != i
        sol, *_ = np.linalg.lstsq(A[mask][:, S], b[mask], rcond=None)
        brute += (b[i] - A[i, S] @ sol) ** 2
    brute /= m
    assert abs(res.loo_error - brute) / brute < 1e-9


def test_degenerate_row_count():
    with pytest.raises(Degenerate):
        lars_loo(np.ones((1, 3)), np.ones(1))


def test_fit_standard_constant_and_single_mode(toy_basis_small):
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(80, 5)
    data = DesignData(X, np.full(80, 3.25), None)
    res = fit_standard(toy_basis_small, data)
    assert res.coefficients[0] == pytest.approx(3.25, abs=1e-10)
    assert np.max(np.abs(res.coefficients[1:])) < 1e-10

    j = toy_basis_small.truncation.indices.index((2, 1))
    y = basis_matrix(toy_basis_small, X)[:, j]
    res = fit_standard(toy_basis_small, DesignData(X, y, None))
    assert res.coefficients[j] == pytest.approx(1.0, abs=1e-10)
    assert res.method_tag is FitMethod.STANDARD


def test_planted_recovery_all_fitters(planted_case):
    cb, c_true, support, data = planted_case
    for fitter in (fit_standard, fit_deriv_aggregated, fit_combined):
        res = fitter(cb, data)
        big = {int(i) for i in np.flatnonzero(np.abs(res.coefficients) > 1e-6 * np.max(np.abs(c_true)))}
        assert big == support, fitter.__name__
        assert np.max(np.abs(res.coefficients - c_true)) / np.max(np.abs(c_true)) < 1e-6


def test_deriv_aggregated_requires_gradients(toy_basis_small):
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(50, 6)
    with pytest.raises(MissingGradients):
        fit_deriv_aggregated(toy_basis_small, DesignData(X, np.zeros(50), None))
    with pytest.raises(MissingGradients):
        fit_combined(toy_basis_small, DesignData(X, np.zeros(50), None))


def test_deriv_aggregated_averages_over_contributing_fits(toy_basis_small):
    """A rank-2 coefficient is the mean of exactly its two derivative fits:
    doubling one gradient column and zeroing the other must average back."""
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(120, 7)
    j = toy_basis_small.truncation.indices.index((1, 1))
    c = np.zeros(toy_basis_small.size)
    c[j] = 1.0
    ex = ChaosExpansion(toy_basis_small, c)
    G_true = ex.predict_grad(X)
    G = G_true.copy()
    G[:, 0] *= 2.0
    G[:, 1] = 0.0
    res = fit_deriv_aggregated(toy_basis_small, DesignData(X, ex.predict(X), G))
    assert res.coefficients[j] == pytest.approx(1.0, abs=1e-8)  # (2 + 0) / 2


def test_deriv_aggregated_linear_single_variable(toy_basis_small):
    """A target living on one variable is recovered by that derivative fit alone."""
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(100, 8)
    j = toy_basis_small.truncation.indices.index((1, 0))
    c = np.zeros(toy_basis_small.size)
    c[j] = -1.7
    ex = ChaosExpansion(toy_basis_small, c)
    res = fit_deriv_aggregated(toy_basis_small, DesignData(X, ex.predict(X), ex.predict_grad(X)))
    assert res.coefficients[j] == pytest.approx(-1.7, abs=1e-8)


def test_constant_recovered_from_residual_mean(toy_basis_small):
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(100, 9)
    j = toy_basis_small.truncation.indices.index((0, 2))
    c = np.zeros(toy_basis_small.size)
    c[0], c[j] = 5.0, 1.0
    ex = ChaosExpansion(toy_basis_small, c)
    res = fit_deriv_aggregated(toy_basis_small, DesignData(X, ex.predict(X), ex.predict_grad(X)))
    assert res.coefficients[0] == pytest.approx(5.0, abs=1e-8)


def test_combined_matches_manual_stack(toy_basis_small):
    """fit_combined == lars_loo on the explicitly H1-normalized stacked system;
    with unit weights the scaling blocks are identities."""
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(60, 10)
    rng = np.random.default_rng(11)
    c = np.where(rng.random(toy_basis_small.size) < 0.25,
                 rng.standard_normal(toy_basis_small.size), 0.0)
    ex = ChaosExpansion(toy_basis_small, c)
    y, G = ex.predict(X), ex.predict_grad(X)
    data = DesignData(X, y, G)
    res = fit_combined(toy_basis_small, data)

    blocks = [basis_matrix(toy_basis_small, X)]
    targets = [y]
    for k in range(2):
        blocks.append(deriv_matrix(toy_basis_small, X, k))  # w == 1: T_k = I
        targets.append(G[:, k])
    A = np.vstack(blocks)
    assert A.shape == (3 * 60, toy_basis_small.size)
    norms = h1_column_norms(toy_basis_small)
    manual = lars_loo(A / norms[None, :], np.concatenate(targets), normalize=False)
    assert np.max(np.abs(res.coefficients - manual.coefficients / norms)) < 1e-10


def test_combined_stack_orthonormal_in_expectation(toy_basis_small):
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(10**5, 12)
    blocks = [basis_matrix(toy_basis_small, X)]
    for k in range(2):
        blocks.append(deriv_matrix(toy_basis_small, X, k))
    A = np.vstack(blocks) / h1_column_norms(toy_basis_small)[None, :]
    cols = np.arange(min(8, toy_basis_small.size))
    G = A[:, cols].T @ A[:, cols] / X.shape[0]
    n = X.shape[0]
    for i in cols:
        for j in cols:
            prods = sum(b[:, i] * b[:, j] for b in blocks) / (
                h1_column_norms(toy_basis_small)[i] * h1_column_norms(toy_basis_small)[j])
            sigma = prods.std(ddof=1) / np.sqrt(n)
            target = 1.0 if i == j else 0.0
            assert abs(G[i, j] - target) <= 3 * sigma + 1e-3


def test_noiseless_consistency_all_fitters(toy_basis_small):
    """With m >= P and an exactly representable target, the three fitters agree."""
    m = make_measure("uniform", {"a": -1, "b": 1})
    P = toy_basis_small.size
    X = ProductMeasure((m, m)).sample(3 * P, 14)
    rng = np.random.default_rng(15)
    c = np.where(rng.random(P) < 0.3, rng.standard_normal(P), 0.0)
    c[0] = 0.4
    ex = ChaosExpansion(toy_basis_small, c)
    data = DesignData(X, ex.predict(X), ex.predict_grad(X))
    sols = [fitter(toy_basis_small, data).coefficients
            for fitter in (fit_standard, fit_deriv_aggregated, fit_combined)]
    for sol in sols:
        assert np.max(np.abs(sol - c)) < 1e-8


def test_bootstrap_resampling_keeps_rows_together():
    X = np.arange(20, dtype=float).reshape(10, 2)
    y = X[:, 0] * 100
    G = np.column_stack([X[:, 0] * 1000, X[:, 1] * 1000])
    data = DesignData(X, y, G)
    boot = data.resample_rows(np.random.default_rng(0))
    assert boot.X.shape == X.shape
    assert np.array_equal(boot.y, boot.X[:, 0] * 100)
    assert np.array_equal(boot.G[:, 0], boot.X[:, 0] * 1000)


def test_fit_result_serialization(toy_basis_small):
    m = make_measure("uniform", {"a": -1, "b": 1})
    X = ProductMeasure((m, m)).sample(50, 16)
    j = toy_basis_small.truncation.indices.index((1, 0))
    c = np.zeros(toy_basis_small.size)
    c[j] = 2.0
    ex = ChaosExpansion(toy_basis_small, c)
    res = fit_standard(toy_basis_small, DesignData(X, ex.predict(X), None))
    payload = res.to_json_dict(indices=toy_basis_small.truncation.indices)
    assert payload["method"] == "standard"
    assert payload["loo_error"] >= 0.0
    assert "[1, 0]" in payload["coefficients"]


@given(m=st.integers(8, 25), p=st.integers(2, 10), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_loo_identity_property(m, p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, p))
    b = rng.standard_normal(m)
    res = lars_loo(A, b, max_terms=min(m - 2, p))
    S = list(res.active_set)
    if not S:
        assert res.loo_error == pytest.approx(float(np.mean(b**2)))
        return
    brute = 0.0
    for i in range(m):
        mask = np.arange(m) != i
        sol, *_ = np.linalg.lstsq(A[mask][:, S], b[mask], rcond=None)
        brute += (b[i] - A[i, S] @ sol) ** 2
    brute /= m
    assert res.loo_error == pytest.approx(brute, rel=1e-7)


def _reference_lars_path(A, b, cap, diagnostics):
    """The least-angle path recomputed from scratch at every step: A^T (b - mu)
    and the signed active block gathered anew, Cholesky solves on a dense
    factor.  The incremental ``_lars_path`` must reproduce its entry order."""
    m, P = A.shape
    mu = np.zeros(m)
    active: list[int] = []
    signs: list[float] = []
    in_active = np.zeros(P, dtype=bool)
    L = np.zeros((cap, cap))
    scale = np.linalg.norm(b) * max(np.max(np.abs(A)), 1e-300)

    while len(active) < cap:
        corr = A.T @ (b - mu)
        masked = np.where(in_active, 0.0, corr)
        j = int(np.argmax(np.abs(masked)))
        if abs(masked[j]) <= _CORR_TOL * max(scale, 1.0):
            diagnostics["stop"] = "correlations vanished"
            break
        s_new = 1.0 if corr[j] >= 0 else -1.0

        k = len(active)
        v = s_new * A[:, j]
        if k == 0:
            d2 = v @ v
            if d2 <= 0:
                diagnostics["stop"] = "zero column"
                break
            L[0, 0] = np.sqrt(d2)
        else:
            Xa = A[:, active] * np.asarray(signs)[None, :]
            lvec = solve_triangular(L[:k, :k], Xa.T @ v, lower=True)
            d2 = v @ v - lvec @ lvec
            if d2 <= _DEP_TOL * (v @ v):
                diagnostics["stop"] = "dependent column"
                diagnostics.setdefault("skipped_columns", []).append(j)
                break
            L[k, :k] = lvec
            L[k, k] = np.sqrt(d2)

        active.append(j)
        signs.append(s_new)
        in_active[j] = True
        k = len(active)

        ones = np.ones(k)
        z = solve_triangular(L[:k, :k], ones, lower=True)
        z = solve_triangular(L[:k, :k].T, z, lower=False)
        AA = 1.0 / np.sqrt(ones @ z)
        w = AA * z
        Xa = A[:, active] * np.asarray(signs)[None, :]
        u = Xa @ w

        C = float(np.max(np.abs(corr[active])))
        if k == cap or in_active.all():
            gamma = C / AA
        else:
            a_vec = A.T @ u
            inactive = ~in_active
            cj = corr[inactive]
            aj = a_vec[inactive]
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = np.concatenate(((C - cj) / (AA - aj), (C + cj) / (AA + aj)))
            cand = cand[np.isfinite(cand) & (cand > 1e-15 * max(C / AA, 1e-300))]
            gamma = min(cand.min(), C / AA) if cand.size else C / AA
        mu = mu + gamma * u

    return active


def _design(model, n, seed):
    X = model.input_measure.sample(n, seed)
    return DesignData(X, model.eval(X), model.grad(X))


@pytest.fixture(scope="module")
def toy_combined():
    """The toy d=4, p=8 combined system under w_lin at n=200: 1000 x 495."""
    model = get_model("toy", d=4)
    basis = build_chaos_basis(model, "wlin", 8, 1000)
    return basis, _design(model, 200, 31)


@pytest.fixture(scope="module")
def flood_combined():
    """The flood p=5 combined system under w_lin at n=40: 360 x 1287."""
    model = get_model("flood")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        basis = build_chaos_basis(model, "wlin", 5, 400)
    return basis, _design(model, 40, 32)


def _assert_same_path(A, b, cap):
    new, ref = {}, {}
    order = _lars_path(A, b, cap, new)
    assert order == _reference_lars_path(A, b, cap, ref)
    assert new == ref
    return order, new


@pytest.mark.parametrize("case", ["toy_combined", "flood_combined"])
def test_incremental_path_matches_reference_on_combined_stacks(case, request):
    basis, data = request.getfixturevalue(case)
    A, t, _ = _combined_system(basis, data)
    assert A.shape == ((basis.dimension + 1) * data.n, basis.size)
    cap = min(A.shape[0] - 1, A.shape[1], 200)
    order, _ = _assert_same_path(A, t, cap)
    assert len(order) == cap


def test_incremental_path_matches_reference_on_exact_ties():
    """Equal correlations break toward the lowest index in both forms."""
    A = np.eye(8)[:, :6]
    b = np.array([3.0, 3.0, -2.0, 2.0, 1.0, 1.0, 0.5, 0.25])
    order, _ = _assert_same_path(A, b, 6)
    assert order[:2] == [0, 1] and order[2:4] == [2, 3]


# Column 1 duplicates column 0.  Once column 0 is active its copy ties with
# the active correlation for the rest of the path, so the next entry is an
# exact tie in exact arithmetic.  Here every number is a small binary
# fraction, so the tie is decided without rounding: the copy wins by index.
_DUPLICATED = (np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
               np.array([2.0, 1.0, 0.0, 0.0]))


def test_incremental_path_matches_reference_with_duplicated_column():
    order, diag = _assert_same_path(*_DUPLICATED, 3)
    assert order == [0]
    assert diag == {"stop": "dependent column", "skipped_columns": [1]}


@pytest.mark.parametrize("max_terms", [5, 0])
def test_stop_max_terms(max_terms):
    rng = np.random.default_rng(42)
    res = lars_loo(rng.standard_normal((40, 30)), rng.standard_normal(40), max_terms=max_terms)
    assert res.diagnostics["stop"] == "max_terms"
    assert res.diagnostics["path_length"] == max_terms


@pytest.mark.parametrize("shape, length", [((10, 30), 9), ((40, 6), 6)])
def test_stop_size_limit(shape, length):
    rng = np.random.default_rng(43)
    res = lars_loo(rng.standard_normal(shape), rng.standard_normal(shape[0]))
    assert res.diagnostics["stop"] == "size limit"
    assert res.diagnostics["path_length"] == length


def test_stop_correlations_vanished():
    rng = np.random.default_rng(44)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 6)))
    res = lars_loo(Q, Q[:, [1, 3, 4]] @ np.array([2.0, -1.5, 0.7]))
    assert res.diagnostics["stop"] == "correlations vanished"
    assert res.diagnostics["path_length"] == 3


def test_stop_dependent_column():
    res = lars_loo(*_DUPLICATED)
    assert res.diagnostics["stop"] == "dependent column"
    assert res.diagnostics["skipped_columns"] == [1]
    assert res.diagnostics["path_length"] == 1


@pytest.mark.parametrize("where", ["A", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(where, bad):
    rng = np.random.default_rng(45)
    A, b = rng.standard_normal((20, 8)), rng.standard_normal(20)
    (A if where == "A" else b)[3] = bad
    with pytest.raises(ValueError, match="finite"):
        lars_loo(A, b)


def test_combined_system_matches_stacked_copy(toy_combined):
    """The in-place stack holds the bytes of stacking the scaled blocks and
    dividing the stack by the H1 norms."""
    basis, data = toy_combined
    sqw = [np.sqrt(basis.bases[k].weight(data.X[:, k])) for k in range(basis.dimension)]
    blocks = [basis_matrix(basis, data.X)]
    targets = [data.y]
    for k in range(basis.dimension):
        blocks.append(sqw[k][:, None] * deriv_matrix(basis, data.X, k))
        targets.append(sqw[k] * data.G[:, k])
    norms = h1_column_norms(basis)
    A, t, got_norms = _combined_system(basis, data)
    assert A.tobytes() == (np.vstack(blocks) / norms[None, :]).tobytes()
    assert t.tobytes() == np.concatenate(targets).tobytes()
    assert got_norms.tobytes() == norms.tobytes()
