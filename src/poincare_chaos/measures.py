"""Continuous 1-D input distributions and their independent products.

Every measure lives on a finite interval [a, b] (unbounded parents are
truncated and renormalized through their closed-form CDF), has a density
that is continuous and positive in the open interval, and exposes vectorized
``pdf`` / ``cdf`` / ``quantile`` evaluators.  A measure is a frozen value of
its family, parameters and interval; the evaluators dispatch on the family
to closed-form parent functions, quantiles included.

Parametrization conventions
---------------------------
* ``gaussian``: ``mean`` plus either ``std`` or ``var``.  A spec such as
  N(30, 64) is read as variance 64, i.e. sigma = 8.
* ``gumbel``: location/scale ``(loc, scale)`` with parent density
  ``(1/scale) * exp(-(z + exp(-z)))``, ``z = (x - loc)/scale``.
* ``exponential``: ``rate``, parent support [0, inf).
* ``uniform`` / ``triangular``: natural finite support; an optional
  truncation interval intersects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from ._quadrature import adaptive_quad
from .errors import InvalidParams, ZeroMass


class Family(str, Enum):
    UNIFORM = "uniform"
    TRIANGULAR = "triangular"
    TRUNCATED_GAUSSIAN = "truncated_gaussian"
    TRUNCATED_GUMBEL = "truncated_gumbel"
    TRUNCATED_EXPONENTIAL = "truncated_exponential"


def _as_same_kind(x, values: np.ndarray):
    """Return array results, or a bare float for scalar input."""
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(values)
    return values


@dataclass(frozen=True)
class Measure1D:
    """A continuous probability measure on a finite interval [a, b].

    A plain value: the parent (un-truncated) family with its parameters,
    the interval, and the normalization constant ``_mass``, the parent mass
    on [a, b].  Measures compare and hash by value and pickle, so equal
    specifications give interchangeable measures.
    """

    a: float
    b: float
    family: Family
    params: tuple[float, ...]
    mean: float
    _mass: float = field(repr=False)
    _cdf_a: float = field(repr=False)

    def pdf(self, x):
        xv = np.asarray(x, dtype=float)
        inside = (xv >= self.a) & (xv <= self.b)
        parent = _PARENT[self.family][0](self.params, np.clip(xv, self.a, self.b))
        out = np.where(inside, parent / self._mass, 0.0)
        return _as_same_kind(x, out)

    def cdf(self, x):
        xv = np.asarray(x, dtype=float)
        parent = _PARENT[self.family][1](self.params, np.clip(xv, self.a, self.b))
        out = np.clip((parent - self._cdf_a) / self._mass, 0.0, 1.0)
        return _as_same_kind(x, out)

    def quantile(self, u):
        """Inverse CDF; endpoints are returned exactly for u in {0, 1}."""
        uv = np.asarray(u, dtype=float)
        if np.any((uv < 0.0) | (uv > 1.0)):
            raise ValueError("quantile argument must lie in [0, 1]")
        q = self._cdf_a + uv * self._mass
        x = _PARENT[self.family][2](self.params, np.minimum(q, 1.0))
        x = np.clip(x, self.a, self.b)
        x = np.where(uv == 0.0, self.a, x)
        x = np.where(uv == 1.0, self.b, x)
        return _as_same_kind(u, x)


@dataclass(frozen=True)
class ProductMeasure:
    """Independent product of 1-D measures."""

    components: tuple[Measure1D, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise InvalidParams("a product measure needs at least one component")

    @property
    def dimension(self) -> int:
        return len(self.components)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n i.i.d. rows by quantile transform of independent uniforms.

        Deterministic: identical (n, seed) gives a bit-identical matrix.
        """
        if n < 1:
            raise ValueError("sample size must be >= 1")
        rng = np.random.default_rng(seed)
        u = rng.random((n, self.dimension))
        x = np.empty_like(u)
        for k, m in enumerate(self.components):
            x[:, k] = m.quantile(u[:, k])
        return x


def _get(params: Mapping[str, float], *names: str) -> float:
    for name in names:
        if name in params:
            return float(params[name])
    raise InvalidParams(f"missing parameter {names[0]!r}")


# ---------------------------------------------------------------------------
# Parent (un-truncated) family functions of (params, x)
# ---------------------------------------------------------------------------

def _uniform_pdf(p, x):
    return np.where((x >= p[0]) & (x <= p[1]), 1.0 / (p[1] - p[0]), 0.0)


def _uniform_cdf(p, x):
    return np.clip((x - p[0]) / (p[1] - p[0]), 0.0, 1.0)


def _uniform_ppf(p, q):
    return p[0] + q * (p[1] - p[0])


def _triangular_pdf(p, x):
    lo, mode, hi = p
    width = hi - lo
    x = np.asarray(x, dtype=float)
    left = 2.0 * (x - lo) / (width * (mode - lo))
    right = 2.0 * (hi - x) / (width * (hi - mode))
    out = np.where(x < mode, left, right)
    return np.where((x >= lo) & (x <= hi), np.maximum(out, 0.0), 0.0)


def _triangular_cdf(p, x):
    lo, mode, hi = p
    width = hi - lo
    x = np.clip(np.asarray(x, dtype=float), lo, hi)
    left = (x - lo) ** 2 / (width * (mode - lo))
    right = 1.0 - (hi - x) ** 2 / (width * (hi - mode))
    return np.where(x < mode, left, right)


def _triangular_ppf(p, q):
    lo, mode, hi = p
    width = hi - lo
    q = np.asarray(q, dtype=float)
    left = lo + np.sqrt(np.maximum(q, 0.0) * width * (mode - lo))
    right = hi - np.sqrt(np.maximum(1.0 - q, 0.0) * width * (hi - mode))
    return np.where(q < (mode - lo) / width, left, right)


def _gaussian_pdf(p, x):
    mu, sigma = p
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def _gaussian_cdf(p, x):
    mu, sigma = p
    return ndtr((x - mu) / sigma)


def _gaussian_ppf(p, q):
    mu, sigma = p
    return mu + sigma * ndtri(np.clip(q, 1e-320, 1.0))


def _gumbel_pdf(p, x):
    eta, beta = p
    z = (np.asarray(x, dtype=float) - eta) / beta
    return np.exp(-(z + np.exp(-z))) / beta


def _gumbel_cdf(p, x):
    eta, beta = p
    z = (np.asarray(x, dtype=float) - eta) / beta
    return np.exp(-np.exp(-z))


def _gumbel_ppf(p, q):
    eta, beta = p
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        return eta - beta * np.log(-np.log(q))


def _exponential_pdf(p, x):
    (rate,) = p
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, rate * np.exp(-rate * x), 0.0)


def _exponential_cdf(p, x):
    (rate,) = p
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, -np.expm1(-rate * np.clip(x, 0.0, None)), 0.0)


def _exponential_ppf(p, q):
    return -np.log1p(-np.asarray(q, dtype=float)) / p[0]


# (pdf, cdf, ppf) of each parent family
_PARENT = {
    Family.UNIFORM: (_uniform_pdf, _uniform_cdf, _uniform_ppf),
    Family.TRIANGULAR: (_triangular_pdf, _triangular_cdf, _triangular_ppf),
    Family.TRUNCATED_GAUSSIAN: (_gaussian_pdf, _gaussian_cdf, _gaussian_ppf),
    Family.TRUNCATED_GUMBEL: (_gumbel_pdf, _gumbel_cdf, _gumbel_ppf),
    Family.TRUNCATED_EXPONENTIAL: (_exponential_pdf, _exponential_cdf, _exponential_ppf),
}


def make_measure(
    family: Family | str,
    params: Mapping[str, float],
    truncation: Sequence[float] | None = None,
) -> Measure1D:
    """Build a normalized measure of the given family.

    ``truncation`` is required for families with unbounded parent support
    and optional for the finite-support ones (it then intersects the
    natural support).  The renormalization constant always comes from the
    closed-form parent CDF.

    Raises
    ------
    InvalidParams
        Malformed parameters or missing/empty truncation interval.
    ZeroMass
        Parent mass below 1e-300 on the truncation interval.
    """
    family = Family(family)
    natural = None

    if family is Family.UNIFORM:
        lo, hi = _get(params, "a"), _get(params, "b")
        if not lo < hi:
            raise InvalidParams("uniform needs a < b")
        natural = ptuple = (lo, hi)

    elif family is Family.TRIANGULAR:
        lo, mode, hi = _get(params, "a"), _get(params, "c"), _get(params, "b")
        if not lo < mode < hi:
            raise InvalidParams("triangular needs a < c < b")
        natural = (lo, hi)
        ptuple = (lo, mode, hi)

    elif family is Family.TRUNCATED_GAUSSIAN:
        mu = _get(params, "mean", "mu", "loc")
        if "std" in params and "var" in params:
            raise InvalidParams("give either std or var, not both")
        if "std" in params or "sigma" in params or "scale" in params:
            sigma = _get(params, "std", "sigma", "scale")
        else:
            sigma = math.sqrt(_get(params, "var"))
        if sigma <= 0:
            raise InvalidParams("gaussian scale must be positive")
        ptuple = (mu, sigma)

    elif family is Family.TRUNCATED_GUMBEL:
        eta = _get(params, "loc", "eta")
        beta = _get(params, "scale", "beta")
        if beta <= 0:
            raise InvalidParams("gumbel scale must be positive")
        ptuple = (eta, beta)

    else:
        rate = _get(params, "rate", "lam")
        if rate <= 0:
            raise InvalidParams("exponential rate must be positive")
        ptuple = (rate,)

    if truncation is None:
        if natural is None:
            raise InvalidParams(f"{family.value} requires a truncation interval")
        a, b = natural
    else:
        a, b = float(truncation[0]), float(truncation[1])
        if not a < b:
            raise InvalidParams("truncation interval must satisfy a < b")
        if natural is not None:
            a, b = max(a, natural[0]), min(b, natural[1])
            if not a < b:
                raise InvalidParams("truncation does not intersect the support")
        if family is Family.TRUNCATED_EXPONENTIAL and a < 0:
            a = 0.0

    parent_cdf = _PARENT[family][1]
    cdf_a = float(parent_cdf(ptuple, np.asarray(a)))
    mass = float(parent_cdf(ptuple, np.asarray(b))) - cdf_a
    if mass < 1e-300:
        raise ZeroMass(f"parent mass {mass:g} on [{a}, {b}]")

    mean = _truncated_mean(family, ptuple, a, b, mass)
    return Measure1D(a=a, b=b, family=family, params=ptuple, mean=mean,
                     _mass=mass, _cdf_a=cdf_a)


def _truncated_mean(family, params, a, b, mass) -> float:
    """Closed-form truncated mean where the family allows it, quadrature otherwise."""
    if family is Family.UNIFORM:
        return 0.5 * (a + b)
    if family is Family.TRIANGULAR and (a, b) == (params[0], params[2]):
        return (params[0] + params[1] + params[2]) / 3.0
    if family is Family.TRUNCATED_GAUSSIAN:
        mu, sigma = params
        alpha, beta_ = (a - mu) / sigma, (b - mu) / sigma
        phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return mu + sigma * (phi(alpha) - phi(beta_)) / mass
    if family is Family.TRUNCATED_EXPONENTIAL:
        (rate,) = params
        num = (a + 1.0 / rate) * math.exp(-rate * a) - (b + 1.0 / rate) * math.exp(-rate * b)
        return num / (math.exp(-rate * a) - math.exp(-rate * b))
    parent_pdf = _PARENT[family][0]
    return adaptive_quad(lambda x: x * parent_pdf(params, x) / mass, a, b, rel_tol=1e-13)
