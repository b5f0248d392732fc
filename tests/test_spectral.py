import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import Legendre
from scipy.sparse.linalg import ArpackNoConvergence

from poincare_chaos import (
    build_basis,
    constant_weight,
    gram_deriv_matrix,
    gram_matrix,
    make_measure,
    make_mesh,
    weight_from_grid,
    wlin_compute,
)
from poincare_chaos import spectral
from poincare_chaos._quadrature import panel_nodes
from poincare_chaos.errors import ExistenceWarning, MassNotSPD, NotConverged, OutOfSupport

from conftest import all_pairs, make_test_basis, pair_ids


def test_cosine_eigenvalues_and_functions(cosine_basis):
    lam_exact = (np.arange(11) * np.pi) ** 2
    rel = np.abs(cosine_basis.eigenvalues[1:] - lam_exact[1:]) / lam_exact[1:]
    assert rel.max() < 1e-3
    x = np.linspace(0, 1, 1500)
    for j in range(1, 6):
        exact = np.sqrt(2) * np.cos(j * np.pi * x)
        approx = cosine_basis.eval(j, x)
        err = min(np.max(np.abs(approx - exact)), np.max(np.abs(approx + exact)))
        assert err < 1e-3


def test_constant_mode(cosine_basis):
    x = np.linspace(0, 1, 200)
    assert np.max(np.abs(cosine_basis.eval(0, x) - 1.0)) < 1e-6
    assert np.max(np.abs(cosine_basis.eval_deriv(0, x))) < 1e-6
    assert abs(cosine_basis.eigenvalues[0]) <= 1e-8 * cosine_basis.eigenvalues[1]


def test_eval_examples(cosine_basis, legendre_basis):
    # values are fixed up to the deterministic psi_j(b) > 0 sign convention
    assert abs(cosine_basis.eval(1, 0.0)) == pytest.approx(np.sqrt(2), abs=1e-3)
    assert legendre_basis.eval(2, 1.0) == pytest.approx(np.sqrt(5), abs=1e-3)


def test_eval_deriv_examples(cosine_basis):
    assert abs(cosine_basis.eval_deriv(1, 0.5)) == pytest.approx(np.sqrt(2) * np.pi, abs=1e-2)
    qx, qw = panel_nodes(cosine_basis.mesh.nodes)
    d1 = cosine_basis.eval_deriv(1, qx)
    val = np.dot(qw, cosine_basis.weight(qx) * d1**2 * cosine_basis.measure.pdf(qx))
    assert val == pytest.approx(cosine_basis.eigenvalues[1], rel=1e-3)


def test_poincare_constant(cosine_basis):
    assert cosine_basis.poincare_constant() == pytest.approx(1 / np.pi**2, rel=1e-3)
    assert cosine_basis.poincare_constant() > 0


def test_legendre_case(legendre_basis):
    lam_exact = np.array([j * (j + 1) / 2 for j in range(9)])
    rel = np.abs(legendre_basis.eigenvalues[1:] - lam_exact[1:]) / lam_exact[1:]
    assert rel.max() < 1e-3
    x = np.linspace(-1, 1, 1500)
    for j in range(1, 9):
        exact = Legendre.basis(j)(x) * np.sqrt(2 * j + 1)
        approx = legendre_basis.eval(j, x)
        assert np.max(np.abs(approx - exact)) < 1e-3  # P_j(1) > 0 matches the convention


def test_hermite_case():
    """Unit weight is the kernel of the standard normal: lambda_j = j and the
    eigenfunctions match probabilists' Hermite polynomials in the bulk.
    Truncation at +-7 sigma leaves ~3e-12 of parent mass outside."""
    basis = make_test_basis("truncated_gaussian", {"mean": 0.0, "std": 1.0}, (-7.0, 7.0),
                         "constant", 5, 3000)
    lam = basis.eigenvalues[1:]
    assert np.max(np.abs(lam - np.arange(1, 6)) / np.arange(1, 6)) < 1e-3
    from numpy.polynomial.hermite_e import HermiteE
    from math import factorial, sqrt
    x = np.linspace(-3, 3, 800)
    for j in range(1, 6):
        he = HermiteE.basis(j)(x) / sqrt(factorial(j))
        approx = basis.eval(j, x)
        err = min(np.max(np.abs(approx - he)), np.max(np.abs(approx + he)))
        assert err < 1e-3


@pytest.mark.parametrize("family,params,trunc,wsetting", all_pairs(), ids=pair_ids())
def test_orthonormality_matrix(family, params, trunc, wsetting):
    basis = make_test_basis(family, params, trunc, wsetting, 8, 2000)
    G = gram_matrix(basis)
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-6
    Gd = gram_deriv_matrix(basis)
    lam = basis.eigenvalues
    scale = np.maximum.outer(lam[1:], lam[1:])
    assert np.max(np.abs(Gd - np.diag(lam))[1:, 1:] / scale) < 1e-4
    assert np.all(np.diff(lam) > 0)


@pytest.mark.parametrize("family,params,trunc,wsetting", all_pairs(), ids=pair_ids())
def test_oscillation_counts(family, params, trunc, wsetting):
    basis = make_test_basis(family, params, trunc, wsetting, 8, 2000)
    m = basis.measure
    x = np.linspace(m.a, m.b, 4000)[1:-1]
    for j in range(7):
        v = basis.eval(j, x)
        v = v[np.abs(v) > 1e-7 * np.max(np.abs(v))]
        changes = int(np.sum(np.diff(np.sign(v)) != 0))
        assert changes == j


def test_mesh_convergence_rate():
    """P1 eigenvalue errors shrink ~4x when the mesh is halved."""
    m = make_measure("uniform", {"a": 0, "b": 1})
    errs = []
    for n in (250, 500):
        b = build_basis(m, constant_weight(1.0), n_modes=3, mesh_size=n, existence_check=False)
        errs.append(abs(b.eigenvalues[3] - 9 * np.pi**2))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0


def test_derivative_span_captures_smooth_functions():
    """Projecting g' on span{psi_j'} recovers essentially all of its weighted
    energy for a random degree-6 polynomial g.  The derivative span of the
    cosine basis is the sine system, whose coefficients decay fast only for
    functions compatible with the natural boundary data, so g is drawn with
    g'(0) = g'(1) = 0 (otherwise the 99.9% mark needs thousands of modes)."""
    basis = make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 25, 1000)
    rng = np.random.default_rng(5)
    q3 = np.polynomial.Polynomial(rng.uniform(-1, 1, 4))
    gp = np.polynomial.Polynomial([0, 1]) * np.polynomial.Polynomial([1, -1]) * q3
    qx, qw = panel_nodes(basis.mesh.nodes)
    wfac = qw * basis.weight(qx) * basis.measure.pdf(qx)
    total = float(np.dot(wfac, gp(qx) ** 2))
    captured = 0.0
    for j in range(1, 26):
        dj = basis.eval_deriv(j, qx)
        captured += float(np.dot(wfac, gp(qx) * dj)) ** 2 / basis.eigenvalues[j]
    assert captured >= 0.999 * total


def test_out_of_support():
    basis = make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 8, 400)
    with pytest.raises(OutOfSupport):
        basis.eval(1, 1.5)
    with pytest.raises(OutOfSupport):
        basis.eval_deriv(1, np.array([0.2, -0.1]))


def test_sign_convention_deterministic():
    m = make_measure("uniform", {"a": 0, "b": 1})
    b1 = build_basis(m, constant_weight(1.0), n_modes=4, mesh_size=300, existence_check=False)
    b2 = build_basis(m, constant_weight(1.0), n_modes=4, mesh_size=300, existence_check=False)
    x = np.linspace(0, 1, 50)
    for j in range(5):
        assert np.array_equal(b1.eval(j, x), b2.eval(j, x))
        assert b1.eval(j, 1.0) > 0 or b1.eval_deriv(j, 1.0) > 0


def test_existence_warning_attached():
    m = make_measure("uniform", {"a": -1, "b": 1})
    x = np.linspace(-1, 1, 2001)
    bad = weight_from_grid(x, (1 - x**2) ** 2)
    with pytest.warns(ExistenceWarning):
        basis = build_basis(m, bad, n_modes=2, mesh_size=200, existence_check=True)
    assert basis.existence is not None and not basis.existence.any_holds


def test_mesh_validation_and_refinement():
    m = make_measure("triangular", {"a": 0, "c": 0.5, "b": 1})
    with pytest.raises(ValueError):
        make_mesh(m, 10)
    mesh = make_mesh(m, 200)
    sizes = np.diff(mesh.nodes)
    assert sizes[0] < sizes[100]  # refined toward the vanishing-density endpoint
    assert sizes[-1] < sizes[100]
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
    with pytest.raises(ValueError):
        build_basis(m, constant_weight(1.0), n_modes=5, mesh_size=60)


def test_export_files(tmp_path):
    basis = make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 8, 400)
    csv_path = tmp_path / "basis.csv"
    from poincare_chaos import export_basis_csv, export_eigenvalues_json
    export_basis_csv(basis, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("node,psi_0")
    export_basis_csv(basis, csv_path, include_constant=False)
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("node,psi_1")
    jpath = tmp_path / "eig.json"
    export_eigenvalues_json(basis, jpath)
    import json
    data = json.loads(jpath.read_text())
    assert len(data["eigenvalues"]) == 9


def _pencil(family, params, trunc, wsetting, mesh_size=2000):
    m = make_measure(family, params, trunc)
    weight = constant_weight(1.0) if wsetting == "constant" else wlin_compute(m, 4000)
    nodes = make_mesh(m, mesh_size, weight).nodes
    S, M = spectral._assemble_pencil(nodes, m, weight)
    return S, M, nodes


@pytest.mark.parametrize("family,params,trunc,wsetting", all_pairs(), ids=pair_ids())
def test_sparse_eigenpairs_against_dense(family, params, trunc, wsetting):
    """Shift-invert Lanczos on the sparse pencil: small residuals, exact
    M-orthonormality, and the eigenvalues of a dense solve of the same pencil.

    The residual bound sits just above the double-precision floor: the exact
    eigenvector rounded to double already leaves 4e-11 to 7e-11 at j = 1 on
    the uniform pairs, the sparse solve leaves at most 2e-10, and dense
    ``eigh`` 2e-9.  With the constant weight, dense ``eigh`` is itself off by
    up to 3e-7 on the triangular input, hence the wider eigenvalue bound."""
    S, M, nodes = _pencil(family, params, trunc, wsetting)
    assert S.format == "csc" and M.format == "csc"
    lam, V = spectral._smallest_eigenpairs(S, M, 9, nodes)
    MV = M @ V
    resid = np.linalg.norm(S @ V - MV * lam, axis=0) / (lam * np.linalg.norm(MV, axis=0))
    assert resid[1:].max() <= 5e-10
    assert np.max(np.abs(V.T @ MV - np.eye(9))) <= 1e-12
    assert np.all(np.diff(lam) > 0)
    dense = scipy.linalg.eigh(S.toarray(), M.toarray(), subset_by_index=(0, 8),
                              eigvals_only=True)
    rel = np.abs(lam[1:] - dense[1:]) / dense[1:]
    assert rel.max() <= (1e-8 if wsetting == "wlin" else 1e-6)


def test_build_basis_bitwise_repeatable():
    """The fixed Lanczos start vector makes repeated builds bitwise equal,
    also with another solve in between."""
    m = make_measure("truncated_gumbel", {"loc": 1013.0, "scale": 558.0}, (500.0, 3000.0))
    w = wlin_compute(m, 4000)
    first = build_basis(m, w, n_modes=8, mesh_size=2000, existence_check=False)
    make_test_basis("triangular", {"a": 49.0, "c": 50.0, "b": 51.0}, None, "constant", 5, 600)
    second = build_basis(m, w, n_modes=8, mesh_size=2000, existence_check=False)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first._spline.c.tobytes() == second._spline.c.tobytes()


def test_mass_not_spd_raises():
    S, M, nodes = _pencil("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 200)
    M = M.tolil()
    M[100, 100] = -M[100, 100]
    with pytest.raises(MassNotSPD):
        spectral._smallest_eigenpairs(S, M.tocsc(), 4, nodes)


def test_arpack_no_convergence_maps_to_not_converged(monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
    monkeypatch.setattr(spectral, "eigsh", stalled)
    m = make_measure("uniform", {"a": 0.0, "b": 1.0})
    with pytest.raises(NotConverged):
        build_basis(m, constant_weight(1.0), n_modes=3, mesh_size=200, existence_check=False)
