"""Benchmark models with analytic gradients, and an independent Monte Carlo
oracle for reference total Sobol' indices.

The oracle is a Jansen pick-freeze estimator on two independent sample
blocks.  It deliberately shares no machinery with the chaos pipeline, so
chaos-based indices can be validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError
from .measures import ProductMeasure, make_measure

FLOOD_VARIABLES = ("Q", "Ks", "Zv", "Zm", "Hd", "Cb", "L", "B")


@dataclass(frozen=True)
class BenchmarkModel:
    name: str
    input_measure: ProductMeasure
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    variable_names: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.input_measure.dimension


def _toy_eval(s: float, centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.prod(s / (s + (X - centers) ** 2), axis=1)


def _toy_grad(s: float, centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    fx = np.prod(s / (s + (X - centers) ** 2), axis=1)
    return fx[:, None] * (-2.0 * (X - centers) / (s + (X - centers) ** 2))


def toy_model(d: int = 4) -> BenchmarkModel:
    """Product of d bump factors centered at a_k = (-1)^k / (k+1), inputs U(-1,1)^d.

    f(x) = prod_k s / (s + (x_k - a_k)^2) with s = d/4; each factor peaks at
    1, so f(a) = 1 with zero gradient.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    s = d / 4.0
    centers = np.array([(-1.0) ** k / (k + 1.0) for k in range(1, d + 1)])
    u = make_measure("uniform", {"a": -1.0, "b": 1.0})
    return BenchmarkModel(
        name=f"toy{d}",
        input_measure=ProductMeasure((u,) * d),
        eval=partial(_toy_eval, s, centers),
        grad=partial(_toy_grad, s, centers),
        variable_names=tuple(f"x{k}" for k in range(1, d + 1)),
    )


def flood_inputs() -> ProductMeasure:
    """The eight input distributions of the dyke-cost model.

    The Gaussian spec N(30, 64) is read as variance 64 (sigma = 8) and the
    Gumbel G(1013, 558) as location/scale; both conventions are noted in
    the README.
    """
    return ProductMeasure((
        make_measure("truncated_gumbel", {"loc": 1013.0, "scale": 558.0}, (500.0, 3000.0)),
        make_measure("truncated_gaussian", {"mean": 30.0, "var": 64.0}, (15.0, 75.0)),
        make_measure("triangular", {"a": 49.0, "c": 50.0, "b": 51.0}),
        make_measure("triangular", {"a": 54.0, "c": 55.0, "b": 56.0}),
        make_measure("uniform", {"a": 7.0, "b": 9.0}),
        make_measure("triangular", {"a": 55.0, "c": 55.5, "b": 56.0}),
        make_measure("triangular", {"a": 4990.0, "c": 5000.0, "b": 5010.0}),
        make_measure("triangular", {"a": 295.0, "c": 300.0, "b": 305.0}),
    ))


def _flood_overflow(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overflow level S and the water-depth power term W = (Q/(B Ks) sqrt(L/(Zm-Zv)))^(3/5)."""
    Q, Ks, Zv, Zm, Hd, Cb, L, B = (X[:, k] for k in range(8))
    if np.any(Zm <= Zv):
        raise DomainError("upstream level must exceed downstream level")
    W = (Q / (B * Ks) * np.sqrt(L / (Zm - Zv))) ** 0.6
    S = Zv - Hd - Cb + W
    return S, W


def _flood_eval(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    S, _ = _flood_overflow(X)
    Hd = X[:, 4]
    with np.errstate(divide="ignore"):
        penalty = 0.2 + 0.8 * (1.0 - np.exp(-1000.0 / S**4))
    return np.where(S > 0, 1.0, penalty) + 0.05 * np.maximum(Hd, 8.0)


def _flood_grad(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q, Ks, Zv, Zm, Hd, Cb, L, B = (X[:, k] for k in range(8))
    S, W = _flood_overflow(X)

    dS = np.empty_like(X)
    dz = Zm - Zv
    dS[:, 0] = 0.6 * W / Q
    dS[:, 1] = -0.6 * W / Ks
    dS[:, 2] = 1.0 + 0.6 * W / (2.0 * dz)
    dS[:, 3] = -0.6 * W / (2.0 * dz)
    dS[:, 4] = -1.0
    dS[:, 5] = -1.0
    dS[:, 6] = 0.6 * W / (2.0 * L)
    dS[:, 7] = -0.6 * W / B

    with np.errstate(divide="ignore", over="ignore"):
        dC_dS = np.where(S < 0, -3200.0 * np.exp(-1000.0 / S**4) / S**5, 0.0)
    out = dC_dS[:, None] * dS
    out[:, 4] += np.where(Hd >= 8.0, 0.05, 0.0)
    return out


def flood_model() -> BenchmarkModel:
    """Annual dyke maintenance cost with analytic piecewise gradient.

    Cost: 1 if the river overflows (S > 0), a smooth penalty
    0.2 + 0.8 (1 - exp(-1000/S^4)) otherwise, plus Hd-dependent upkeep
    max(Hd, 8)/20.  At the measure-zero kinks S = 0 and Hd = 8 the
    right-sided derivative is used.
    """
    return BenchmarkModel(
        name="flood",
        input_measure=flood_inputs(),
        eval=_flood_eval,
        grad=_flood_grad,
        variable_names=FLOOD_VARIABLES,
    )


_REGISTRY = {"toy": toy_model, "flood": flood_model}


def get_model(name: str, **kwargs) -> BenchmarkModel:
    """Look up a benchmark by name; ``toy`` accepts a ``d`` keyword."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def reference_sobol(
    model: BenchmarkModel,
    n_mc: int,
    seed: int,
    with_stderr: bool = False,
):
    """Jansen pick-freeze estimate of the total Sobol' indices.

    Two independent blocks A and B of n_mc rows are drawn; for each
    variable k the estimator is E[(f(A) - f(A with column k from B))^2]
    divided by twice the pooled output variance.
    """
    if n_mc < 10**4:
        raise ValueError("need n_mc >= 10^4 for a meaningful reference")
    children = np.random.SeedSequence(seed).spawn(2)
    A = model.input_measure.sample(n_mc, children[0].generate_state(1)[0])
    B = model.input_measure.sample(n_mc, children[1].generate_state(1)[0])
    fA = model.eval(A)
    fB = model.eval(B)
    var = float(np.var(np.concatenate([fA, fB]), ddof=1))

    d = model.dimension
    totals = np.empty(d)
    stderr = np.empty(d)
    for k in range(d):
        Ak = A.copy()
        Ak[:, k] = B[:, k]
        sq = (fA - model.eval(Ak)) ** 2
        totals[k] = float(np.mean(sq)) / (2.0 * var)
        stderr[k] = float(np.std(sq, ddof=1)) / (2.0 * var * np.sqrt(n_mc))
    if with_stderr:
        return totals, stderr
    return totals
