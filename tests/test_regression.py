import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from poincare_chaos.errors import Degenerate, MissingGradients

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
