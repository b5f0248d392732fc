import numpy as np
import pytest

from poincare_chaos import (
    BenchmarkModel,
    ChaosBasis,
    ChaosExpansion,
    DesignData,
    ProductMeasure,
    dgsm,
    first_sobol,
    fit_combined,
    make_measure,
    make_report,
    reference_sobol,
    sobol_dgsm_bound,
    total_degree_set,
    total_sobol,
    toy_model,
    variance,
)
from poincare_chaos.errors import ZeroVariance

from conftest import make_test_basis


@pytest.fixture(scope="module")
def basis2d():
    b = make_test_basis("uniform", {"a": -1.0, "b": 1.0}, None, "constant", 4, 800)
    return ChaosBasis(total_degree_set(2, 4), (b, b))


def _expansion(basis, assignments):
    c = np.zeros(basis.size)
    for alpha, value in assignments.items():
        c[basis.truncation.indices.index(alpha)] = value
    return ChaosExpansion(basis, c)


@pytest.fixture(scope="module")
def fitted_toy2():
    """A gradient-enhanced fit of a 2-d bump model, shared across checks."""
    model = toy_model(2)
    b = make_test_basis("uniform", {"a": -1.0, "b": 1.0}, None, "constant", 6, 1000)
    cb = ChaosBasis(total_degree_set(2, 6), (b, b))
    X = model.input_measure.sample(150, 42)
    fit = fit_combined(cb, DesignData(X, model.eval(X), model.grad(X)))
    return model, ChaosExpansion(cb, fit.coefficients)


def test_single_term_indices(basis2d):
    ex = _expansion(basis2d, {(1, 0): 2.0})
    assert np.allclose(total_sobol(ex), [1.0, 0.0])
    assert np.allclose(first_sobol(ex), [1.0, 0.0])

    ex = _expansion(basis2d, {(1, 0): 1.0, (0, 1): 1.0})
    assert np.allclose(total_sobol(ex), [0.5, 0.5])
    assert np.allclose(first_sobol(ex), total_sobol(ex))  # additive


def test_pure_interaction(basis2d):
    ex = _expansion(basis2d, {(1, 1): 3.0})
    assert np.allclose(total_sobol(ex), [1.0, 1.0])
    assert np.allclose(first_sobol(ex), [0.0, 0.0])


def test_dgsm_values(basis2d):
    ex = _expansion(basis2d, {(0, 0): 7.0})
    assert np.allclose(dgsm(ex), [0.0, 0.0])

    b1 = make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 3, 800)
    one_d = ChaosBasis(total_degree_set(1, 3), (b1,))
    ex = _expansion(one_d, {(1,): 1.0})
    assert dgsm(ex)[0] == pytest.approx(np.pi**2, rel=1e-3)


def test_bound_tight_iff_first_mode(basis2d):
    tight = _expansion(basis2d, {(1, 0): 1.5})
    report = make_report(tight)
    holds, margins = sobol_dgsm_bound(report)
    assert holds.all()
    assert margins[0] == pytest.approx(0.0, abs=1e-10)  # alpha_k = 1: bound is exact

    loose = _expansion(basis2d, {(2, 0): 1.5})
    holds, margins = sobol_dgsm_bound(make_report(loose))
    assert holds.all()
    assert margins[0] > 0.1  # mass on a higher mode opens the gap


def test_margin_grows_with_mode(basis2d):
    margins = []
    for j in (1, 2, 3):
        ex = _expansion(basis2d, {(j, 0): 1.0})
        margins.append(sobol_dgsm_bound(make_report(ex))[1][0])
    assert margins[0] < margins[1] < margins[2]


def test_zero_variance_raises(basis2d):
    ex = _expansion(basis2d, {(0, 0): 2.0})
    with pytest.raises(ZeroVariance):
        total_sobol(ex)
    with pytest.raises(ZeroVariance):
        make_report(ex)


def test_report_fields_and_export(fitted_toy2, tmp_path):
    _, ex = fitted_toy2
    report = make_report(ex)
    assert report.variance > 0
    assert np.all(report.total_sobol >= first_sobol(ex) - 1e-12)
    assert np.sum(report.first_sobol) <= 1 + 1e-10
    holds, _ = sobol_dgsm_bound(report)
    assert holds.all()
    report.to_json(tmp_path / "r.json")
    report.to_csv(tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 variables
    assert lines[0].startswith("variable,total_sobol,first_sobol,dgsm")


def test_indices_against_pick_freeze_oracle(fitted_toy2):
    """Coefficient-based totals of the surrogate match a pick-freeze MC run
    on the surrogate itself."""
    model, ex = fitted_toy2
    surr = BenchmarkModel(
        name="surrogate", input_measure=model.input_measure,
        eval=ex.predict, grad=ex.predict_grad,
        variable_names=model.variable_names,
    )
    mc, se = reference_sobol(surr, 10**5, 77, with_stderr=True)
    exact = total_sobol(ex)
    assert np.all(np.abs(mc - exact) <= 3 * se + 1e-3)


def test_parseval_variance_monte_carlo(fitted_toy2):
    model, ex = fitted_toy2
    X = model.input_measure.sample(10**5, 3)
    vals = ex.predict(X)
    s2 = np.var(vals, ddof=1)
    mu4 = np.mean((vals - vals.mean()) ** 4)
    sigma_s2 = np.sqrt(max(mu4 - s2**2, 0.0) / X.shape[0])
    assert abs(variance(ex) - s2) <= 3 * sigma_s2


def test_dgsm_identity_monte_carlo(fitted_toy2):
    """nu_k from the eigenvalue table equals E[w_k (d surrogate/dx_k)^2]."""
    model, ex = fitted_toy2
    X = model.input_measure.sample(10**5, 4)
    grads = ex.predict_grad(X)
    nu = dgsm(ex)
    for k in range(2):
        w = ex.basis.bases[k].weight(X[:, k])
        sq = w * grads[:, k] ** 2
        se = sq.std(ddof=1) / np.sqrt(X.shape[0])
        assert abs(nu[k] - sq.mean()) <= 3 * se + 1e-12
