"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is known-red on its screening clause: the pick-freeze ground
truth for the bank-height total index is ~0.04 (two independent estimators
agree, under either reading of the Gaussian parameters), so an accurate
surrogate cannot report <= 0.01.  The clause is asserted as stated and
fails honestly; the criterion's other clauses are checked and pass.  The
README carries the full note.
"""

import time

import numpy as np
import pytest
from numpy.polynomial.legendre import Legendre

from poincare_chaos import (
    ChaosBasis,
    ChaosExpansion,
    DesignData,
    ExperimentConfig,
    check_existence,
    build_basis,
    constant_weight,
    dgsm,
    fit_combined,
    fit_deriv_aggregated,
    fit_standard,
    flood_model,
    gram_deriv_matrix,
    gram_matrix,
    make_measure,
    make_report,
    reference_sobol,
    run_experiment,
    sobol_dgsm_bound,
    total_degree_set,
    total_sobol,
    toy_model,
    variance,
    weight_from_grid,
    wlin_compute,
)
from poincare_chaos.cli import build_chaos_basis

from conftest import TEST_MATRIX, make_test_basis, record_criterion

FITTERS = {"standard": fit_standard, "deriv_aggregated": fit_deriv_aggregated,
           "combined": fit_combined}


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_fits():
    """Toy model (d=4, p=8): the three fits per weight setting at ED=200."""
    model = toy_model(4)
    out = {}
    for weight in ("unweighted", "wlin"):
        basis = build_chaos_basis(model, weight, 8, 2000)
        X = model.input_measure.sample(200, 515)
        data = DesignData(X, model.eval(X), model.grad(X))
        fits = {name: fitter(basis, data) for name, fitter in FITTERS.items()}
        out[weight] = (basis, fits)
    return model, out


@pytest.fixture(scope="module")
def flood_fits():
    """Flood model (p=5): six method/weight variants at ED=320 plus the oracle."""
    model = flood_model()
    X = model.input_measure.sample(320, 889)
    data = DesignData(X, model.eval(X), model.grad(X))
    t0 = time.time()
    variants = {}
    failures = []
    for weight in ("unweighted", "wlin"):
        basis = build_chaos_basis(model, weight, 5, 2000)
        for name, fitter in FITTERS.items():
            try:
                variants[(weight, name)] = (basis, fitter(basis, data))
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                failures.append(f"{weight}/{name}: {exc}")
    oracle, oracle_se = reference_sobol(model, 10**6, 2024, with_stderr=True)
    return model, variants, failures, oracle, oracle_se, time.time() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_cosine_oracle():
    """U(0,1), unit weight, mesh 2000: lambda_j = (j pi)^2, psi_j = sqrt2 cos(j pi x)."""
    m = make_measure("uniform", {"a": 0, "b": 1})
    t0 = time.time()
    basis = build_basis(m, constant_weight(1.0), n_modes=10, mesh_size=2000,
                        existence_check=False)
    elapsed = time.time() - t0
    lam_exact = (np.arange(11) * np.pi) ** 2
    lam_err = float(np.max(np.abs(basis.eigenvalues[1:] - lam_exact[1:]) / lam_exact[1:]))
    x = np.linspace(0, 1, 2001)
    sup_err = 0.0
    for j in range(1, 6):
        exact = np.sqrt(2) * np.cos(j * np.pi * x)
        approx = basis.eval(j, x)
        sup_err = max(sup_err, min(np.max(np.abs(approx - exact)),
                                   np.max(np.abs(approx + exact))))
    ok = lam_err < 1e-3 and sup_err <= 1e-3 and elapsed < 5.0
    record_criterion("1 spectral cosine oracle", ok,
                     f"lam {lam_err:.1e}, sup {sup_err:.1e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_legendre_oracle(legendre_basis):
    lam_exact = np.array([j * (j + 1) / 2 for j in range(9)])
    lam_err = float(np.max(np.abs(legendre_basis.eigenvalues[1:] - lam_exact[1:]) / lam_exact[1:]))
    x = np.linspace(-1, 1, 2001)
    sup_err = 0.0
    for j in range(1, 9):
        exact = Legendre.basis(j)(x) * np.sqrt(2 * j + 1)
        approx = legendre_basis.eval(j, x)
        sup_err = max(sup_err, min(np.max(np.abs(approx - exact)),
                                   np.max(np.abs(approx + exact))))
    ok = lam_err < 1e-3 and sup_err <= 1e-3
    record_criterion("2 spectral Legendre oracle", ok, f"lam {lam_err:.1e}, sup {sup_err:.1e}")
    assert ok


def test_criterion_3_wlin_rk4_accuracy():
    u = make_measure("uniform", {"a": 0, "b": 1})
    w = wlin_compute(u, 4000)
    err_u = float(np.max(np.abs(w.values - w.grid * (1 - w.grid) / 2)))

    e = make_measure("truncated_exponential", {"rate": 1}, (0, 20))
    we = wlin_compute(e, 4000)
    mask = we.grid <= 5.0
    err_e = float(np.max(np.abs(we.values[mask] - we.grid[mask])))

    ok = err_u <= 1e-8 and err_e <= 1e-4
    record_criterion("3 w_lin RK4 accuracy", ok, f"uniform {err_u:.1e}, exponential {err_e:.1e}")
    assert ok


def test_criterion_4_orthogonality_suite():
    worst_g, worst_d = 0.0, 0.0
    for family, params, trunc in TEST_MATRIX:
        for wsetting in ("constant", "wlin"):
            basis = make_test_basis(family, params, trunc, wsetting, 8, 2000)
            G = gram_matrix(basis)
            worst_g = max(worst_g, float(np.max(np.abs(G - np.eye(G.shape[0])))))
            Gd = gram_deriv_matrix(basis)
            lam = basis.eigenvalues
            scale = np.maximum.outer(lam[1:], lam[1:])
            worst_d = max(worst_d, float(np.max(np.abs(Gd - np.diag(lam))[1:, 1:] / scale)))
    ok = worst_g < 1e-6 and worst_d < 1e-4
    record_criterion("4 orthogonality suite (10 pairs)", ok,
                     f"gram {worst_g:.1e}, deriv gram {worst_d:.1e}")
    assert ok


def test_criterion_5_dgsm_identity(toy_fits):
    model, per_weight = toy_fits
    ok = True
    details = []
    for weight, (basis, fits) in per_weight.items():
        ex = ChaosExpansion(basis, fits["combined"].coefficients)
        X = model.input_measure.sample(10**6, 37)
        grads = ex.predict_grad(X)
        nu = dgsm(ex)
        for k in range(4):
            wk = basis.bases[k].weight(X[:, k])
            sq = wk * grads[:, k] ** 2
            se = float(sq.std(ddof=1) / np.sqrt(X.shape[0]))
            dev = abs(nu[k] - float(sq.mean()))
            ok &= dev <= 3 * se + 1e-12
        holds, margins = sobol_dgsm_bound(make_report(ex))
        ok &= bool(holds.all()) and float(margins.min()) >= -1e-10
        details.append(f"{weight}: min margin {margins.min():.2e}")
    record_criterion("5 DGSM identity + bound", ok, "; ".join(details))
    assert ok


def test_criterion_6_sparse_recovery():
    b = make_test_basis("uniform", {"a": -1.0, "b": 1.0}, None, "constant", 8, 2000)
    cb = ChaosBasis(total_degree_set(4, 8), (b,) * 4)
    rng = np.random.default_rng(606)
    support = set(int(i) for i in rng.choice(np.arange(1, cb.size), size=10, replace=False))
    c_true = np.zeros(cb.size)
    c_true[list(support)] = rng.uniform(0.5, 2.0, 10) * rng.choice([-1.0, 1.0], 10)
    planted = ChaosExpansion(cb, c_true)
    m = make_measure("uniform", {"a": -1, "b": 1})
    from poincare_chaos import ProductMeasure
    X = ProductMeasure((m,) * 4).sample(200, 607)
    data = DesignData(X, planted.predict(X), planted.predict_grad(X))

    ok = True
    worst = 0.0
    for name, fitter in FITTERS.items():
        res = fitter(cb, data)
        found = {int(i) for i in np.flatnonzero(
            np.abs(res.coefficients) > 1e-6 * np.max(np.abs(c_true)))}
        rel = float(np.max(np.abs(res.coefficients - c_true)) / np.max(np.abs(c_true)))
        worst = max(worst, rel)
        ok &= found == support and rel < 1e-6
    record_criterion("6 sparse recovery (3 fitters)", ok, f"worst rel err {worst:.1e}")
    assert ok


def test_criterion_7_toy_trends(tmp_path_factory):
    t0 = time.time()
    medians = {}
    for weight in ("unweighted", "wlin"):
        cfg = ExperimentConfig(
            model="toy", model_options={"d": 4}, weight=weight, degree=8,
            ed_sizes=[100, 200], n_replications=20, n_bootstrap=0,
            validation_size=20000, mesh_size=2000, seed=808,
            output_dir=str(tmp_path_factory.mktemp(f"toy_{weight}")),
            reference_n_mc=10**4,
        )
        result = run_experiment(cfg)
        assert result.ok
        grouped = {}
        for method, ed, rep, bid, metric, var, value in result.rows:
            if method != "reference" and metric in ("h1_error", "l2_error"):
                grouped.setdefault((method, ed, metric), []).append(value)
        for key, vals in grouped.items():
            assert len(vals) == 20
            medians[(weight,) + key] = float(np.median(vals))
    elapsed = time.time() - t0

    ok = elapsed < 600
    for weight in ("unweighted", "wlin"):
        for ed in (100, 200):
            std = medians[(weight, "standard", ed, "h1_error")]
            ok &= medians[(weight, "combined", ed, "h1_error")] <= std
            ok &= medians[(weight, "deriv_aggregated", ed, "h1_error")] <= std
    l2_at_200 = {(w, m): medians[(w, m, 200, "l2_error")]
                 for w in ("unweighted", "wlin") for m in FITTERS}
    best = min(l2_at_200, key=l2_at_200.get)
    ok &= best == ("wlin", "combined")
    record_criterion("7 toy-model trend reproduction", ok,
                     f"best L2@200 {best}, {elapsed:.0f}s")
    assert ok


def test_criterion_8_flood_trends(flood_fits):
    model, variants, failures, oracle, oracle_se, elapsed = flood_fits
    names = list(model.variable_names)
    q_idx, cb_idx = names.index("Q"), names.index("Cb")

    basis, fit = variants[("wlin", "combined")]
    st = total_sobol(ChaosExpansion(basis, fit.coefficients))

    clause_screen = st[cb_idx] <= 0.01
    clause_q = abs(st[q_idx] - oracle[q_idx]) <= 0.05
    clause_all = len(variants) == 6 and not failures
    runtime_ok = elapsed < 1800

    record_criterion("8a flood: Cb screened below 0.01", clause_screen,
                     f"estimate {st[cb_idx]:.4f}, pick-freeze truth {oracle[cb_idx]:.4f}")
    record_criterion("8b flood: Q within 0.05 of oracle", clause_q,
                     f"estimate {st[q_idx]:.4f} vs {oracle[q_idx]:.4f}")
    record_criterion("8c flood: six variants, no fit failures", clause_all,
                     f"{len(variants)} fits, {elapsed:.0f}s")
    assert clause_q and clause_all and runtime_ok
    # Known-red clause: the ground-truth total index of Cb is ~0.04 (verified
    # with two independent pick-freeze implementations and both parameter
    # conventions for the Gaussian input), so <= 0.01 cannot be met by an
    # accurate estimator.  Asserted as stated.
    assert clause_screen, (
        f"S_tot(Cb) = {st[cb_idx]:.4f} against a threshold of 0.01, while the "
        f"pick-freeze ground truth is {oracle[cb_idx]:.4f} +- {oracle_se[cb_idx]:.4f}; "
        "an accurate estimator cannot pass this clause"
    )


def test_criterion_9_existence_diagnostics():
    m = make_measure("uniform", {"a": -1, "b": 1})
    x = np.linspace(-1, 1, 2001)
    r1 = check_existence(m, constant_weight(1.0))
    r2 = check_existence(m, weight_from_grid(x, 1 - x**2))
    r3 = check_existence(m, weight_from_grid(x, (1 - x**2) ** 2))
    ok = (r1.cond_i.status == "holds"
          and r2.cond_i.status == "diverges" and r2.cond_ii.status == "holds"
          and r3.cond_i.status == "diverges" and r3.cond_ii.status == "diverges")
    record_criterion("9 existence diagnostics", ok,
                     f"w=1: {r1.cond_i.status}; w=1-x^2: {r2.cond_i.status}/{r2.cond_ii.status}; "
                     f"w=(1-x^2)^2: {r3.cond_i.status}/{r3.cond_ii.status}")
    assert ok


def test_criterion_10_parseval(toy_fits, flood_fits):
    toy, toy_per_weight = toy_fits
    flood, variants, *_ = flood_fits
    cases = []
    for weight, (basis, fits) in toy_per_weight.items():
        cases.append((toy, basis, fits["combined"].coefficients, f"toy/{weight}"))
    for weight in ("unweighted", "wlin"):
        basis, fit = variants[(weight, "combined")]
        cases.append((flood, basis, fit.coefficients, f"flood/{weight}"))

    ok = True
    worst = 0.0
    for model, basis, coeffs, label in cases:
        ex = ChaosExpansion(basis, coeffs)
        X = model.input_measure.sample(10**6, 99)
        vals = ex.predict(X)
        s2 = float(np.var(vals, ddof=1))
        mu4 = float(np.mean((vals - vals.mean()) ** 4))
        sigma = np.sqrt(max(mu4 - s2**2, 0.0) / X.shape[0])
        dev = abs(variance(ex) - s2)
        ok &= dev <= 3 * sigma
        worst = max(worst, dev / sigma if sigma else 0.0)
    record_criterion("10 Parseval variance (CI matrix)", ok, f"worst {worst:.2f} sigma")
    assert ok
