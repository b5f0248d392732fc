import json
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_chaos import (
    ChaosBasis,
    ChaosExpansion,
    ProductMeasure,
    basis_matrix,
    coefficients_from_json,
    deriv_matrix,
    export_expansion_json,
    h1_column_norms,
    make_measure,
    predict_many,
    total_degree_set,
)
from poincare_chaos import chaos
from poincare_chaos.errors import OutOfSupport

from conftest import make_test_basis


@pytest.fixture(scope="module")
def cos2d():
    b = make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 8, 800)
    return ChaosBasis(total_degree_set(2, 4), (b, b))


def test_total_degree_cardinalities():
    assert total_degree_set(4, 8).size == comb(12, 8) == 495
    one_d = total_degree_set(1, 3)
    assert one_d.indices == ((0,), (1,), (2,), (3,))
    assert total_degree_set(8, 0).indices == ((0,) * 8,)


def test_graded_lex_order():
    ts = total_degree_set(2, 2)
    assert ts.indices == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))


@given(d=st.integers(1, 5), p=st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_truncation_set_properties(d, p):
    ts = total_degree_set(d, p)
    assert ts.size == comb(d + p, p)
    degrees = [sum(a) for a in ts.indices]
    assert max(degrees) <= p
    assert len(set(ts.indices)) == ts.size
    # graded-lex: sorted by (degree, tuple)
    assert list(ts.indices) == sorted(ts.indices, key=lambda a: (sum(a), a))


def test_basis_matrix_constant_column(cos2d):
    X = np.random.default_rng(0).random((40, 2))
    Psi = basis_matrix(cos2d, X)
    assert Psi.shape == (40, cos2d.size)
    assert np.max(np.abs(Psi[:, 0] - 1.0)) < 1e-6


def test_basis_matrix_cosine_value(cos2d):
    """At x_1 = 0 the (1,0) column equals psi_1(0), of magnitude sqrt(2)."""
    X = np.column_stack([np.zeros(5), np.linspace(0.1, 0.9, 5)])
    j = cos2d.truncation.indices.index((1, 0))
    Psi = basis_matrix(cos2d, X)
    assert np.max(np.abs(np.abs(Psi[:, j]) - np.sqrt(2))) < 1e-3


def test_tensor_orthonormality_monte_carlo(cos2d):
    """Gram of 20 random columns under mu-samples is the identity to MC noise.

    With 210 simultaneous entries, ~0.6 excursions beyond 3 sigma are
    expected by chance, so the test bounds the count of 3-sigma outliers
    and requires every entry inside 5 sigma."""
    m = make_measure("uniform", {"a": 0, "b": 1})
    X = ProductMeasure((m, m)).sample(10**5, 11)
    rng = np.random.default_rng(1)
    cols = rng.choice(cos2d.size, size=min(20, cos2d.size), replace=False)
    Psi = basis_matrix(cos2d, X)[:, cols]
    n = X.shape[0]
    G = Psi.T @ Psi / n
    outliers, total = 0, 0
    for i in range(len(cols)):
        for j in range(i, len(cols)):
            prod = Psi[:, i] * Psi[:, j]
            sigma = prod.std(ddof=1) / np.sqrt(n)
            target = 1.0 if i == j else 0.0
            dev = abs(G[i, j] - target)
            assert dev <= 5 * sigma + 1e-4
            outliers += dev > 3 * sigma + 1e-4
            total += 1
    assert outliers <= max(2, 0.01 * total)


def test_deriv_matrix_zero_columns_and_value(cos2d):
    X = np.random.default_rng(3).random((30, 2))
    D0 = deriv_matrix(cos2d, X, 0)
    alpha = np.array(cos2d.truncation.indices)
    assert np.all(D0[:, alpha[:, 0] == 0] == 0.0)
    one_d = ChaosBasis(total_degree_set(1, 3), (cos2d.bases[0],))
    Dx = deriv_matrix(one_d, np.array([[0.5]]), 0)
    j = one_d.truncation.indices.index((1,))
    assert abs(abs(Dx[0, j]) - np.sqrt(2) * np.pi) < 1e-2


def test_weighted_deriv_orthogonality_monte_carlo(cos2d):
    """E[(sqrt(w) dpsi)' (sqrt(w) dpsi)] / n approaches diag(lambda_{k,alpha_k})."""
    m = make_measure("uniform", {"a": 0, "b": 1})
    X = ProductMeasure((m, m)).sample(10**5, 13)
    D = deriv_matrix(cos2d, X, 0)  # unit weight: T_k = identity
    alpha = np.array(cos2d.truncation.indices)
    sel = np.flatnonzero(alpha[:, 0] > 0)[:8]
    G = D[:, sel].T @ D[:, sel] / X.shape[0]
    lam = cos2d.eigenvalue_table[0]
    for ii, i in enumerate(sel):
        for jj, j in enumerate(sel):
            prod = D[:, i] * D[:, j]
            sigma = prod.std(ddof=1) / np.sqrt(X.shape[0])
            target = lam[alpha[i, 0]] if i == j else 0.0
            assert abs(G[ii, jj] - target) <= 3 * sigma + 1e-3


def test_deriv_matrix_finite_differences(cos2d):
    X = np.random.default_rng(4).uniform(0.05, 0.95, (25, 2))
    h = 1e-5
    for k in range(2):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += h
        Xm[:, k] -= h
        fd = (basis_matrix(cos2d, Xp) - basis_matrix(cos2d, Xm)) / (2 * h)
        D = deriv_matrix(cos2d, X, k)
        scale = np.max(np.abs(D))
        assert np.max(np.abs(fd - D)) / scale < 1e-5


def test_predict_and_grad(cos2d):
    X = np.random.default_rng(5).uniform(0.02, 0.98, (100, 2))
    zero = ChaosExpansion(cos2d, np.zeros(cos2d.size))
    assert np.all(zero.predict(X) == 0.0)
    assert np.all(zero.predict_grad(X) == 0.0)

    c = np.zeros(cos2d.size)
    j = cos2d.truncation.indices.index((1, 0))
    c[j] = 2.0
    ex = ChaosExpansion(cos2d, c)
    Psi = basis_matrix(cos2d, X)
    assert np.allclose(ex.predict(X), 2 * Psi[:, j], atol=1e-12)

    rng = np.random.default_rng(6)
    c = np.where(rng.random(cos2d.size) < 0.2, rng.standard_normal(cos2d.size), 0.0)
    ex = ChaosExpansion(cos2d, c)
    g = ex.predict_grad(X)
    h = 1e-5
    for k in range(2):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += h
        Xm[:, k] -= h
        fd = (ex.predict(Xp) - ex.predict(Xm)) / (2 * h)
        assert np.max(np.abs(fd - g[:, k])) / max(np.max(np.abs(g)), 1e-12) < 1e-5


def test_predict_many_matches_single(cos2d):
    rng = np.random.default_rng(9)
    C = np.where(rng.random((3, cos2d.size)) < 0.1, rng.standard_normal((3, cos2d.size)), 0.0)
    X = rng.uniform(0, 1, (50, 2))
    vals, grads = predict_many(cos2d, C, X, with_grad=True)
    for i in range(3):
        ex = ChaosExpansion(cos2d, C[i])
        assert np.allclose(vals[:, i], ex.predict(X), atol=1e-14)
        assert np.allclose(grads[:, :, i], ex.predict_grad(X), atol=1e-14)


def _reference_predict_many(basis, coefficients, X, with_grad=False):
    """The straightforward chunked kernel: every gathered table and every
    prefix product of a chunk held at once, products started from ones."""
    C = np.atleast_2d(np.asarray(coefficients, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    union = np.flatnonzero(np.any(C != 0.0, axis=0))
    values = np.zeros((n, C.shape[0]))
    grads = np.zeros((n, d, C.shape[0])) if with_grad else None
    if union.size == 0:
        return values, grads
    alpha = basis._alpha[union]
    CU = C[:, union].T

    for lo in range(0, n, chaos._CHUNK):
        rows = slice(lo, min(lo + chaos._CHUNK, n))
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


@pytest.fixture(scope="module")
def cos4d(cosine_basis_small):
    return ChaosBasis(total_degree_set(4, 4), (cosine_basis_small,) * 4)


def _coefficient_set(basis, case):
    rng = np.random.default_rng(21)
    fits = {"one": 1, "five": 5, "no_x0": 5, "zero": 2}[case]
    C = np.where(rng.random((fits, basis.size)) < 0.5,
                 rng.standard_normal((fits, basis.size)), 0.0)
    if case == "no_x0":
        C[:, basis._alpha[:, 0] > 0] = 0.0
    if case == "zero":
        C[:] = 0.0
    return C


@pytest.mark.parametrize("with_grad", [True, False])
@pytest.mark.parametrize("case", ["one", "five", "no_x0", "zero"])
def test_predict_many_bits_match_reference(cos4d, monkeypatch, case, with_grad):
    """Bitwise equal to the straightforward kernel, over ragged chunks (40 rows
    in chunks of 7) and ragged row sub-blocks (3 to 6 rows each)."""
    monkeypatch.setattr(chaos, "_CHUNK", 7)
    monkeypatch.setattr(chaos, "_CELLS", 3 * cos4d.size)
    C = _coefficient_set(cos4d, case)
    X = np.random.default_rng(22).random((40, 4))
    values, grads = predict_many(cos4d, C, X, with_grad=with_grad)
    ref_values, ref_grads = _reference_predict_many(cos4d, C, X, with_grad=with_grad)
    assert values.tobytes() == ref_values.tobytes()
    if with_grad:
        assert grads.tobytes() == ref_grads.tobytes()
    else:
        assert grads is None and ref_grads is None
    if case == "no_x0" and with_grad:
        assert np.all(grads[:, 0, :] == 0.0)
    if case == "zero":
        assert not values.any()


@pytest.mark.parametrize("n_coeffs,n_inputs", [(1, 0), (-1, 0), (0, 1), (0, -1)],
                         ids=["wide-coefficients", "narrow-coefficients",
                              "extra-input-column", "missing-input-column"])
def test_predict_many_rejects_malformed_input(cos2d, n_coeffs, n_inputs):
    C = np.ones((2, cos2d.size + n_coeffs))
    X = np.full((5, cos2d.dimension + n_inputs), 0.5)
    with pytest.raises(ValueError):
        predict_many(cos2d, C, X, with_grad=True)


def test_predict_many_peak_memory_is_one_chunk_buffer(cosine_basis_small):
    """The traced peak stays within two (rows x |union|) buffers for d = 4:
    one buffer, the per-chunk tables and the sub-block temporaries."""
    basis = ChaosBasis(total_degree_set(4, 8), (cosine_basis_small,) * 4)
    rng = np.random.default_rng(23)
    C = np.where(rng.random((3, basis.size)) < 0.5,
                 rng.standard_normal((3, basis.size)), 0.0)
    X = rng.random((3000, 4))
    union = np.count_nonzero(np.any(C != 0.0, axis=0))
    tracemalloc.start()
    try:
        predict_many(basis, C, X, with_grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * X.shape[0] * union * 8


def test_h1_column_norms(cos2d):
    norms = h1_column_norms(cos2d)
    assert norms[0] == 1.0
    j = cos2d.truncation.indices.index((1, 0))
    assert norms[j] == pytest.approx(np.sqrt(1 + np.pi**2), rel=1e-3)
    # monotone in each index entry
    idx = {a: i for i, a in enumerate(cos2d.truncation.indices)}
    for a, i in idx.items():
        for k in range(2):
            higher = list(a)
            higher[k] += 1
            if tuple(higher) in idx:
                assert norms[idx[tuple(higher)]] > norms[i]


def test_out_of_support_propagates(cos2d):
    with pytest.raises(OutOfSupport):
        basis_matrix(cos2d, np.array([[1.2, 0.5]]))


def test_mode_budget_validation(cos2d):
    small = make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 2, 400)
    with pytest.raises(ValueError):
        ChaosBasis(total_degree_set(2, 4), (small, small))


def test_expansion_json_roundtrip(cos2d, tmp_path):
    rng = np.random.default_rng(8)
    c = np.where(rng.random(cos2d.size) < 0.3, rng.standard_normal(cos2d.size), 0.0)
    ex = ChaosExpansion(cos2d, c)
    path = tmp_path / "exp.json"
    export_expansion_json(ex, path)
    back = coefficients_from_json(cos2d, path)
    assert np.array_equal(back.coefficients, c)
    payload = json.loads(path.read_text())
    assert payload["dimension"] == 2
    assert len(payload["terms"]) == cos2d.size
