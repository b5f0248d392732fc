"""Univariate basis construction from the weighted spectral problem.

The basis (psi_j, lambda_j) solves the weak eigenproblem

    <f', g'>_w = lambda <f, g>     for all test functions g,

discretized with P1 finite elements on [a, b]: stiffness S_ij = int w rho
phi_i' phi_j' and mass M_ij = int rho phi_i phi_j over hat functions, both
assembled with 8-point Gauss-Legendre per element into sparse tridiagonal
matrices.  The smallest modes come from one shift-invert Lanczos solve
(ARPACK through ``scipy.sparse.linalg.eigsh``) with a fixed start vector,
so repeated builds are bitwise equal.  Neumann conditions are natural in
the weak form, so no boundary rows are touched.

Nodal eigenvectors are upgraded to one cubic spline (not-a-knot ends) with
one column per mode; derivatives come from its derivative.  Each
eigenfunction is renormalized so that the *spline* has unit L2(mu) norm
under the package quadrature rule, and signed so that psi_j(b) > 0 (falling
back to psi_j'(b) > 0 when the endpoint value vanishes).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.linalg import cholesky_banded
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from ._quadrature import panel_nodes
from .errors import ExistenceWarning, MassNotSPD, NotConverged, OutOfSupport
from .measures import Measure1D
from .weights import ExistenceReport, Weight1D, check_existence


@dataclass(frozen=True)
class Mesh1D:
    """Strictly increasing node coordinates x_0 = a < ... < x_n = b."""

    nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size - 1

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


def make_mesh(measure: Measure1D, n: int, weight: Weight1D | None = None) -> Mesh1D:
    """n-element mesh, geometrically refined toward endpoints where the
    Sturm-Liouville coefficient w * rho vanishes.

    Elements in the refinement zone (at most 5% of the mesh, capped at 12
    elements) shrink by a factor 0.7 per element toward the endpoint,
    starting from the uniform spacing; the remaining elements stay uniform
    over the rest of the interval.  Deeper progressions make the smallest
    elements so short that nodal noise blows up the spline derivative.
    """
    if n < 50:
        raise ValueError("mesh needs at least 50 elements")
    a, b = measure.a, measure.b
    coeff = measure.pdf if weight is None else weight.weighted_density(measure)
    scale = float(np.max(coeff(np.linspace(a, b, 33))))
    vanish_left = coeff(np.asarray(a)) < 1e-6 * scale
    vanish_right = coeff(np.asarray(b)) < 1e-6 * scale

    h = (b - a) / n
    zone = min(max(2, round(0.05 * n)), 12)
    graded = h * 0.7 ** np.arange(1, zone + 1)

    left = graded[::-1] if vanish_left else np.empty(0)
    right = graded if vanish_right else np.empty(0)
    n_mid = n - left.size - right.size
    mid_len = (b - a) - left.sum() - right.sum()
    sizes = np.concatenate((left, np.full(n_mid, mid_len / n_mid), right))

    nodes = np.empty(n + 1)
    nodes[0] = a
    np.cumsum(sizes, out=nodes[1:])
    nodes[1:] += a
    nodes[-1] = b
    return Mesh1D(nodes=nodes)


@dataclass(frozen=True)
class PoincareBasis1D:
    """Eigenvalues and spline-evaluable eigenfunctions of one input variable."""

    measure: Measure1D
    weight: Weight1D
    eigenvalues: np.ndarray          # lambda_0 <= ... <= lambda_K
    mesh: Mesh1D
    existence: ExistenceReport | None
    _spline: CubicSpline = field(repr=False)    # all modes, one column each
    _dspline: CubicSpline = field(repr=False)

    @property
    def n_modes(self) -> int:
        """Number of retained nontrivial modes K."""
        return self.eigenvalues.size - 1

    def _check_support(self, x):
        xv = np.asarray(x, dtype=float)
        slack = 1e-12 * (self.measure.b - self.measure.a)
        if np.any(xv < self.measure.a - slack) or np.any(xv > self.measure.b + slack):
            raise OutOfSupport(
                f"evaluation outside [{self.measure.a}, {self.measure.b}]")
        return np.clip(xv, self.measure.a, self.measure.b)

    def eval(self, j: int, x):
        """Value(s) of psi_j at x."""
        out = self._spline(self._check_support(x))[..., j]
        return float(out) if np.isscalar(x) else out

    def eval_deriv(self, j: int, x):
        """Value(s) of psi_j' at x."""
        out = self._dspline(self._check_support(x))[..., j]
        return float(out) if np.isscalar(x) else out

    def eval_all(self, x, n_modes: int | None = None) -> np.ndarray:
        """Table psi_j(x) for j = 0..n_modes, shape (len(x), n_modes+1)."""
        jmax = self.n_modes if n_modes is None else n_modes
        return self._spline(self._check_support(x))[..., :jmax + 1]

    def eval_deriv_all(self, x, n_modes: int | None = None) -> np.ndarray:
        jmax = self.n_modes if n_modes is None else n_modes
        return self._dspline(self._check_support(x))[..., :jmax + 1]

    def poincare_constant(self) -> float:
        """Sharp constant of the weighted Poincare inequality, 1/lambda_1."""
        return 1.0 / float(self.eigenvalues[1])


def _assemble_pencil(nodes: np.ndarray, measure: Measure1D, weight: Weight1D):
    """P1 stiffness S and mass M on ``nodes`` as sparse tridiagonal CSC matrices."""
    n = nodes.size - 1
    h = np.diff(nodes)

    qx, qw = panel_nodes(nodes)
    rho_q = measure.pdf(qx)
    p_q = weight(qx) * rho_q
    qw2 = qw.reshape(n, 8)
    rho2 = rho_q.reshape(n, 8)
    p2 = p_q.reshape(n, 8)

    # local P1 shape functions on each element
    lam_r = (qx.reshape(n, 8) - nodes[:-1, None]) / h[:, None]
    lam_l = 1.0 - lam_r

    s_elem = (qw2 * p2).sum(axis=1) / h**2
    m_ll = (qw2 * rho2 * lam_l * lam_l).sum(axis=1)
    m_lr = (qw2 * rho2 * lam_l * lam_r).sum(axis=1)
    m_rr = (qw2 * rho2 * lam_r * lam_r).sum(axis=1)

    s_diag = np.zeros(n + 1)
    s_diag[:-1] += s_elem
    s_diag[1:] += s_elem
    m_diag = np.zeros(n + 1)
    m_diag[:-1] += m_ll
    m_diag[1:] += m_rr
    S = sparse.diags([-s_elem, s_diag, -s_elem], [-1, 0, 1], format="csc")
    M = sparse.diags([m_lr, m_diag, m_lr], [-1, 0, 1], format="csc")
    return S, M


def _smallest_eigenpairs(S, M, k: int, nodes: np.ndarray):
    """The k smallest eigenpairs of S v = lambda M v, ascending, M-normalized.

    Shift-invert Lanczos about a negative shift (S is singular: constants
    are its kernel).  The shift is -1e-3 times the Rayleigh quotient of the
    node coordinate centred under M, an upper bound on lambda_1, so it sits
    just below the spectrum at the scale of the problem.
    """
    banded = np.zeros((2, M.shape[0]))
    banded[0] = M.diagonal()
    banded[1, :-1] = M.diagonal(-1)
    try:
        cholesky_banded(banded, lower=True)
    except np.linalg.LinAlgError as exc:
        raise MassNotSPD("mass matrix not SPD; refine the mesh") from exc

    ones = np.ones(M.shape[0])
    x = nodes - (ones @ (M @ nodes)) / (ones @ (M @ ones))
    sigma = -1e-3 * (x @ (S @ x)) / (x @ (M @ x))
    try:
        eigvals, vecs = eigsh(S, k, M, sigma=sigma, which="LM", v0=ones)
    except ArpackNoConvergence as exc:
        raise NotConverged(str(exc)) from exc

    order = np.argsort(eigvals)
    eigvals, vecs = eigvals[order], vecs[:, order]
    vecs /= np.sqrt(np.einsum("ij,ij->j", vecs, M @ vecs))
    return eigvals, vecs


def build_basis(
    measure: Measure1D,
    weight: Weight1D,
    n_modes: int,
    mesh_size: int = 2000,
    existence_check: bool = True,
) -> PoincareBasis1D:
    """Assemble and solve the P1 discretization of the weak eigenproblem.

    Returns the K+1 smallest eigenpairs (the trivial constant mode plus
    ``n_modes`` nontrivial ones).

    Raises
    ------
    MassNotSPD
        The mass matrix fails its banded Cholesky factorization (mesh too
        coarse for a near-vanishing density).
    NotConverged
        The shift-invert Lanczos iteration does not converge, or the spline
        Gram is not positive definite.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if mesh_size < max(50, 20 * n_modes):
        raise ValueError(f"mesh_size must be >= {max(50, 20 * n_modes)} for K={n_modes}")

    mesh = make_mesh(measure, mesh_size, weight)
    nodes = mesh.nodes
    S, M = _assemble_pencil(nodes, measure, weight)
    eigvals, vecs = _smallest_eigenpairs(S, M, n_modes + 1, nodes)

    # Upgrade nodal vectors to splines and restore exact L2(mu) orthonormality
    # of the *spline* set:  the FEM vectors are M-orthonormal, but the cubic
    # interpolant differs from the piecewise-linear one at O(h^2), which is
    # visible at the 1e-6 tolerance.  A symmetric (Loewdin) correction with
    # the quadrature Gram removes that while perturbing each mode minimally.
    qx, qw = panel_nodes(nodes)
    spline_at_q = CubicSpline(nodes, vecs, bc_type="not-a-knot")(qx)
    gram = spline_at_q.T @ (spline_at_q * (qw * measure.pdf(qx))[:, None])
    gw, gv = np.linalg.eigh(gram)
    if np.any(gw <= 0):
        raise NotConverged("spline Gram not positive definite")
    values = vecs @ (gv @ np.diag(gw ** -0.5) @ gv.T)

    spline = CubicSpline(nodes, values, bc_type="not-a-knot")
    end = values[-1]
    decided = np.abs(end) >= 1e-8 * np.max(np.abs(values), axis=0)
    flip = np.where(decided, end < 0, spline.derivative()(nodes[-1]) < 0)
    if flip.any():
        values[:, flip] *= -1.0
        spline = CubicSpline(nodes, values, bc_type="not-a-knot")

    existence = None
    if existence_check:
        existence = check_existence(measure, weight)
        if not existence.any_holds:
            warnings.warn(
                "neither sufficient existence condition verified numerically; "
                "the computed basis may not be complete",
                ExistenceWarning,
            )

    return PoincareBasis1D(
        measure=measure,
        weight=weight,
        eigenvalues=eigvals,
        mesh=mesh,
        existence=existence,
        _spline=spline,
        _dspline=spline.derivative(),
    )


def gram_matrix(basis: PoincareBasis1D) -> np.ndarray:
    """<psi_i, psi_j> over all modes, by per-element quadrature."""
    qx, qw = panel_nodes(basis.mesh.nodes)
    table = basis.eval_all(qx)
    return table.T @ (table * (qw * basis.measure.pdf(qx))[:, None])


def gram_deriv_matrix(basis: PoincareBasis1D) -> np.ndarray:
    """<psi_i', psi_j'>_w over all modes; should equal diag(lambda)."""
    qx, qw = panel_nodes(basis.mesh.nodes)
    table = basis.eval_deriv_all(qx)
    wfac = qw * basis.weight(qx) * basis.measure.pdf(qx)
    return table.T @ (table * wfac[:, None])


def export_basis_csv(basis: PoincareBasis1D, path, include_constant: bool = True) -> None:
    """Eigenfunction curves at the mesh nodes: node, psi_*, dpsi_*."""
    first = 0 if include_constant else 1
    cols = list(range(first, basis.n_modes + 1))
    header = "node," + ",".join(f"psi_{j}" for j in cols) + "," + ",".join(f"dpsi_{j}" for j in cols)
    x = basis.mesh.nodes
    vals = basis.eval_all(x)
    dvals = basis.eval_deriv_all(x)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(x.size):
            row = [repr(float(x[i]))]
            row += [repr(float(vals[i, j])) for j in cols]
            row += [repr(float(dvals[i, j])) for j in cols]
            fh.write(",".join(row) + "\n")


def export_eigenvalues_json(basis: PoincareBasis1D, path) -> None:
    with open(path, "w") as fh:
        json.dump({"eigenvalues": [float(v) for v in basis.eigenvalues]}, fh, indent=2)
