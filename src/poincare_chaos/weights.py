"""Weight functions for weighted Poincare inequalities.

Two kinds are supported: the constant weight and the linear-preserving
weight ``w_lin`` (the Stein kernel of the measure), which makes the second
basis eigenfunction linear.  ``w_lin`` solves the initial value problem

    (w rho)'(x) = -(x - m) rho(x),   (w rho)(a) = 0,

with classical RK4 on a uniform grid, then divides the nodal values by the
density.  Grid-backed weights evaluate through a shape-preserving monotone
cubic interpolant, which cannot overshoot into negative values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._quadrature import panel_nodes
from .errors import DivisionBlowup, NonPositive
from .measures import Measure1D


class WeightKind(str, Enum):
    CONSTANT = "constant"
    GRID_BACKED = "grid_backed"


@dataclass(frozen=True)
class Weight1D:
    """A positive weight function on (a, b)."""

    kind: WeightKind
    a: float
    b: float
    constant_value: float | None = None
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)
    _interp: PchipInterpolator | None = field(default=None, repr=False)

    def __call__(self, x):
        if self.kind is WeightKind.CONSTANT:
            xv = np.asarray(x, dtype=float)
            out = np.full(xv.shape, self.constant_value)
            return float(out) if out.ndim == 0 else out
        out = self._interp(np.clip(x, self.a, self.b))
        return float(out) if np.isscalar(x) else out

    def weighted_density(self, measure: Measure1D) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator for the Sturm-Liouville coefficient p = w * rho."""
        return lambda x: self(x) * measure.pdf(x)


def constant_weight(c: float, a: float = -math.inf, b: float = math.inf) -> Weight1D:
    """Constant weight w == c; raises NonPositive unless c > 0."""
    if not c > 0:
        raise NonPositive(f"constant weight must be positive, got {c}")
    return Weight1D(kind=WeightKind.CONSTANT, a=a, b=b, constant_value=float(c))


def wlin_compute(measure: Measure1D, n_steps: int = 4000) -> Weight1D:
    """Linear-preserving weight of a measure, on a uniform grid of n_steps intervals.

    The product u = w * rho is integrated with classical RK4 (the right-hand
    side -(x - m) rho(x) does not depend on u, so RK4 reduces to a
    Simpson-type rule with O(h^4) global error).  Nodal weights are u / rho;
    nodes where the density vanishes below 1e-13 are only allowed at the
    ends of the grid, where the weight is filled by quadratic extrapolation
    from the three nearest valid nodes.

    Raises
    ------
    DivisionBlowup
        If the density vanishes (< 1e-13) at an interior grid node.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    a, b, m = measure.a, measure.b, measure.mean
    x = np.linspace(a, b, n_steps + 1)
    h = (b - a) / n_steps

    rhs = lambda t: -(t - m) * measure.pdf(t)
    k1 = rhs(x[:-1])
    k_mid = rhs(x[:-1] + 0.5 * h)
    k4 = rhs(x[1:])
    increments = (h / 6.0) * (k1 + 4.0 * k_mid + k4)

    u = np.empty(n_steps + 1)
    u[0] = 0.0
    np.cumsum(increments, out=u[1:])

    rho = measure.pdf(x)
    valid = rho >= 1e-13
    if not valid[1:-1].all():
        raise DivisionBlowup("density below 1e-13 at an interior grid node")

    w = np.empty_like(u)
    w[valid] = u[valid] / rho[valid]
    for idx in np.flatnonzero(~valid):  # only the two boundary nodes can land here
        nearest = np.argsort(np.abs(np.flatnonzero(valid) - idx))[:3]
        nodes_fit = np.flatnonzero(valid)[nearest]
        coeffs = np.polyfit(x[nodes_fit], w[nodes_fit], 2)
        w[idx] = max(np.polyval(coeffs, x[idx]), 0.0)

    interp = PchipInterpolator(x, w, extrapolate=False)
    return Weight1D(kind=WeightKind.GRID_BACKED, a=a, b=b, grid=x, values=w, _interp=interp)


def weight_from_grid(x: np.ndarray, values: np.ndarray) -> Weight1D:
    """Wrap explicit (node, value) samples as a grid-backed weight."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values[1:-1] <= 0):
        raise NonPositive("weight must be positive at interior nodes")
    interp = PchipInterpolator(x, values, extrapolate=False)
    return Weight1D(kind=WeightKind.GRID_BACKED, a=float(x[0]), b=float(x[-1]),
                    grid=x, values=values, _interp=interp)


def export_weight_csv(weight: Weight1D, path) -> None:
    """Write a grid-backed weight as CSV with columns x, w."""
    if weight.kind is not WeightKind.GRID_BACKED:
        raise ValueError("only grid-backed weights carry a grid to export")
    with open(path, "w") as fh:
        fh.write("x,w\n")
        for xi, wi in zip(weight.grid, weight.values):
            fh.write(f"{xi!r},{wi!r}\n")


# ---------------------------------------------------------------------------
# Existence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionProbe:
    status: str        # "holds" | "diverges" | "inconclusive"
    estimate: float    # partial integral (finite part probed)


@dataclass(frozen=True)
class ExistenceReport:
    cond_i: ConditionProbe
    cond_ii: ConditionProbe

    @property
    def any_holds(self) -> bool:
        return self.cond_i.status == "holds" or self.cond_ii.status == "holds"


_N_LEVELS = 6          # endpoint refinements
_SHRINK = 10.0         # offset shrink factor per level
_PANELS_PER_SHELL = 16


def _shell_edges(lo: float, hi: float, n_panels: int) -> np.ndarray:
    return np.linspace(lo, hi, n_panels + 1)


def _classify(contribs: list[float], core: float) -> tuple[str, float]:
    """Label an endpoint-refinement sequence.

    ``contribs[k]`` is the integral over the k-th shell (each level moves the
    integration bracket 10x closer to the endpoints).  Decaying shell
    contributions mean the limit is finite; contributions that fail to decay
    (log-type divergence) or grow (power-type, in particular the >10x-per-
    level growth of strong singularities) mean divergence.
    """
    total = core + sum(contribs)
    if not any(c > 0 for c in contribs):
        return "holds", total
    if not math.isfinite(total):
        return "diverges", total
    base = max(abs(core), max(contribs), 1e-300)
    if contribs[-1] <= 1e-12 * base:
        return "holds", total
    ratios = [contribs[k + 1] / contribs[k] for k in range(len(contribs) - 1)
              if contribs[k] > 0 and contribs[k + 1] > 0]
    if not ratios:
        return "inconclusive", total
    rbar = float(np.exp(np.mean(np.log(ratios[-3:]))))
    if rbar <= 0.7:
        # geometric tail extrapolation
        return "holds", total + contribs[-1] * rbar / (1.0 - rbar)
    if rbar >= 0.95:
        return "diverges", total
    return "inconclusive", total


def check_existence(measure: Measure1D, weight: Weight1D) -> ExistenceReport:
    """Numerically probe the two sufficient conditions for basis existence.

    Condition (i): 1/(w rho) is integrable on (a, b).
    Condition (ii): a primitive R of 1/(w rho) is square-integrable w.r.t.
    the measure.

    Both are probed by integrating on brackets [a + delta, b - delta] with
    delta shrinking tenfold over six refinement levels and classifying the
    endpoint-shell contributions (see ``_classify``).  "inconclusive" is a
    valid outcome; the probe never raises.
    """
    a, b = measure.a, measure.b
    delta0 = (b - a) * 1e-2
    deltas = delta0 / _SHRINK ** np.arange(_N_LEVELS + 1)

    def inv_p(x):
        with np.errstate(divide="ignore", over="ignore"):
            val = 1.0 / (weight(x) * measure.pdf(x))
        return np.where(np.isfinite(val), val, 1e300)

    # One global ascending partition of [a + delta_L, b - delta_L]:
    # left shells (deepest first), two core halves split at the midpoint,
    # right shells.  Each group keeps its own label so shell contributions
    # can be read back per refinement level.
    x0 = 0.5 * (a + b)
    groups: list[tuple[np.ndarray, str, int]] = []
    for k in range(_N_LEVELS - 1, -1, -1):
        groups.append((_shell_edges(a + deltas[k + 1], a + deltas[k], _PANELS_PER_SHELL), "shell", k))
    groups.append((_shell_edges(a + delta0, x0, 32), "core", -1))
    groups.append((_shell_edges(x0, b - delta0, 32), "core", -1))
    for k in range(_N_LEVELS):
        groups.append((_shell_edges(b - deltas[k], b - deltas[k + 1], _PANELS_PER_SHELL), "shell", k))

    nodes_list, wq_list, slices = [], [], []
    start = 0
    for edges, _, _ in groups:
        nd, wq = panel_nodes(edges)
        nodes_list.append(nd)
        wq_list.append(wq)
        slices.append(slice(start, start + nd.size))
        start += nd.size
    nodes = np.concatenate(nodes_list)
    wq = np.concatenate(wq_list)
    fvals = inv_p(nodes)
    contrib = wq * fvals

    # --- condition (i) ---
    shells_i = [0.0] * _N_LEVELS
    core_i = 0.0
    for (edges, kind, level), sl in zip(groups, slices):
        val = float(contrib[sl].sum())
        if kind == "core":
            core_i += val
        else:
            shells_i[level] += val
    status_i, est_i = _classify(shells_i, core_i)

    # --- condition (ii): R(x) = int_{x0}^x 1/(w rho), then int R^2 dmu ---
    # Cumulative integral at every quadrature node: full panels before it,
    # plus the within-panel partial sum with a half-weight at the node itself
    # (midpoint-rule accuracy, ample for growth-rate classification).
    per_panel = contrib.reshape(-1, 8)
    before = np.concatenate(([0.0], np.cumsum(per_panel.sum(axis=1))[:-1]))
    within = np.cumsum(per_panel, axis=1) - 0.5 * per_panel
    cumulative = (before[:, None] + within).ravel()
    i_mid = slices[_N_LEVELS].stop  # end of the left core half = midpoint
    c_mid = float(per_panel[: i_mid // 8].sum())
    r_nodes = cumulative - c_mid
    g_contrib = wq * r_nodes ** 2 * measure.pdf(nodes)

    shells_ii = [0.0] * _N_LEVELS
    core_ii = 0.0
    for (edges, kind, level), sl in zip(groups, slices):
        val = float(g_contrib[sl].sum())
        if kind == "core":
            core_ii += val
        else:
            shells_ii[level] += val
    status_ii, est_ii = _classify(shells_ii, core_ii)

    return ExistenceReport(
        cond_i=ConditionProbe(status_i, est_i),
        cond_ii=ConditionProbe(status_ii, est_ii),
    )
