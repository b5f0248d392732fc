"""Shared fixtures: univariate bases for named configurations, plus a
terminal hook that prints one line per acceptance criterion."""

import pytest

from poincare_chaos import build_basis, constant_weight, make_measure, wlin_compute

CRITERION_LINES: list[str] = []


def record_criterion(name: str, ok: bool, detail: str = "") -> bool:
    line = f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
    CRITERION_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def make_test_basis(family, params, truncation, weight_setting, n_modes, mesh_size,
                    existence_check=False):
    """Build a univariate basis for a named configuration."""
    measure = make_measure(family, params, truncation)
    if weight_setting == "constant":
        weight = constant_weight(1.0)
    elif weight_setting == "wlin":
        weight = wlin_compute(measure, 4000)
    else:
        raise ValueError(weight_setting)
    return build_basis(measure, weight, n_modes=n_modes, mesh_size=mesh_size,
                       existence_check=existence_check)


@pytest.fixture(scope="session")
def cosine_basis():
    """U(0,1) with unit weight at the production mesh: psi_j = +-sqrt2 cos(j pi x)."""
    return make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 10, 2000)


@pytest.fixture(scope="session")
def cosine_basis_small():
    """Same spectrum on a coarse mesh for cheap structural tests."""
    return make_test_basis("uniform", {"a": 0.0, "b": 1.0}, None, "constant", 8, 400)


@pytest.fixture(scope="session")
def legendre_basis():
    """U(-1,1) with the linear-preserving weight: normalized Legendre polynomials."""
    return make_test_basis("uniform", {"a": -1.0, "b": 1.0}, None, "wlin", 8, 2000)


# The (measure, weight) test matrix: the five input families used by the
# benchmark studies, each under both weight settings.
TEST_MATRIX = [
    ("uniform", {"a": 7.0, "b": 9.0}, None),
    ("triangular", {"a": 49.0, "c": 50.0, "b": 51.0}, None),
    ("truncated_gaussian", {"mean": 30.0, "var": 64.0}, (15.0, 75.0)),
    ("truncated_gumbel", {"loc": 1013.0, "scale": 558.0}, (500.0, 3000.0)),
    ("truncated_exponential", {"rate": 1.0}, (0.0, 3.0)),
]


def pair_ids():
    return [f"{fam}-{w}" for fam, _, _ in TEST_MATRIX for w in ("constant", "wlin")]


def all_pairs():
    return [(fam, params, trunc, w)
            for fam, params, trunc in TEST_MATRIX
            for w in ("constant", "wlin")]
