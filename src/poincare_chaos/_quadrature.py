"""Composite Gauss-Legendre quadrature, the single integration rule of the package.

Every integral against a density is computed with 8-point Gauss-Legendre
panels.  Fixed grids use one panel per mesh element; free-form integrals
subdivide uniformly and double the panel count until the relative change
drops below ``rel_tol``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# 8-point rule on [-1, 1]: exact for polynomials up to degree 15.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the 8-point rule onto each interval of a partition.

    Parameters
    ----------
    edges : ndarray
        Strictly increasing partition points, shape (n+1,).

    Returns
    -------
    (nodes, weights)
        Flattened quadrature nodes and weights of shape (8*n,).
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def fixed_quad(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    """Integrate ``f`` over the partition defined by ``edges`` (one panel each)."""
    x, w = panel_nodes(edges)
    return float(np.dot(w, f(x)))


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    n_start: int = 8,
    max_doublings: int = 14,
) -> float:
    """Integrate ``f`` on [a, b], doubling the uniform panel count until converged.

    Convergence means the relative change between successive refinements is
    below ``rel_tol`` (absolute change below ``rel_tol`` when the integral is
    near zero).
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    n = n_start
    prev = fixed_quad(f, np.linspace(a, b, n + 1))
    for _ in range(max_doublings):
        n *= 2
        cur = fixed_quad(f, np.linspace(a, b, n + 1))
        scale = max(abs(cur), abs(prev), 1e-300)
        if abs(cur - prev) <= rel_tol * scale or abs(cur - prev) < 1e-300:
            return cur
        prev = cur
    return prev

