import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_chaos import ProductMeasure, make_measure, toy_model
from poincare_chaos._quadrature import adaptive_quad
from poincare_chaos.cli import build_chaos_basis
from poincare_chaos.errors import InvalidParams, ZeroMass

TABLE1 = [
    ("truncated_gumbel", {"loc": 1013.0, "scale": 558.0}, (500.0, 3000.0)),
    ("truncated_gaussian", {"mean": 30.0, "var": 64.0}, (15.0, 75.0)),
    ("triangular", {"a": 49.0, "c": 50.0, "b": 51.0}, None),
    ("triangular", {"a": 54.0, "c": 55.0, "b": 56.0}, None),
    ("uniform", {"a": 7.0, "b": 9.0}, None),
    ("triangular", {"a": 55.0, "c": 55.5, "b": 56.0}, None),
    ("triangular", {"a": 4990.0, "c": 5000.0, "b": 5010.0}, None),
    ("triangular", {"a": 295.0, "c": 300.0, "b": 305.0}, None),
]


def test_uniform_density_is_flat():
    m = make_measure("uniform", {"a": 7, "b": 9})
    assert m.pdf(8.0) == pytest.approx(0.5, abs=1e-15)
    assert m.pdf(7.0) == pytest.approx(0.5, abs=1e-15)


def test_triangular_symmetric_mean():
    m = make_measure("triangular", {"a": 49, "c": 50, "b": 51})
    assert m.mean == pytest.approx(50.0, abs=1e-12)


def test_gumbel_renormalization_against_trapezoid():
    """Truncation constant vs 10^6-point trapezoid quadrature of the parent pdf."""
    m = make_measure("truncated_gumbel", {"loc": 1013, "scale": 558}, (500, 3000))
    x = np.linspace(500, 3000, 10**6 + 1)
    z = (x - 1013) / 558
    parent = np.exp(-(z + np.exp(-z))) / 558
    mass_trap = np.trapezoid(parent, x)
    assert m._mass == pytest.approx(mass_trap, rel=1e-10)
    assert adaptive_quad(m.pdf, 500, 3000) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("family,params,trunc", TABLE1)
def test_density_normalized_and_mean_consistent(family, params, trunc):
    m = make_measure(family, params, trunc)
    assert adaptive_quad(m.pdf, m.a, m.b) == pytest.approx(1.0, abs=1e-10)
    assert adaptive_quad(lambda x: x * m.pdf(x), m.a, m.b) == pytest.approx(m.mean, abs=1e-8 * max(1, abs(m.mean)))


@pytest.mark.parametrize("family,params,trunc", TABLE1)
def test_cdf_quantile_roundtrip(family, params, trunc):
    m = make_measure(family, params, trunc)
    u = np.linspace(0, 1, 101)
    assert np.max(np.abs(m.cdf(m.quantile(u)) - u)) < 1e-10
    assert m.cdf(m.a) == 0.0
    assert m.cdf(m.b) == 1.0
    x = np.linspace(m.a, m.b, 401)[1:-1]
    assert np.all(np.diff(m.cdf(x)) > 0)
    assert np.all(m.pdf(x) > 0)


def test_quantile_examples():
    assert make_measure("uniform", {"a": 7, "b": 9}).quantile(0.5) == pytest.approx(8.0)
    assert make_measure("triangular", {"a": 54, "c": 55, "b": 56}).quantile(0.5) == pytest.approx(55.0)
    e = make_measure("truncated_exponential", {"rate": 1}, (0, 3))
    closed = -np.log1p(-0.5 * (1 - np.exp(-3.0)))
    assert e.quantile(0.5) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("family,params,trunc", TABLE1)
def test_equal_specifications_give_equal_measures(family, params, trunc):
    m1 = make_measure(family, params, trunc)
    m2 = make_measure(family, params, trunc)
    assert m1 == m2
    assert hash(m1) == hash(m2)


@pytest.mark.parametrize("family,params,trunc", TABLE1)
def test_pickle_roundtrip_is_bitwise(family, params, trunc):
    m = make_measure(family, params, trunc)
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m
    x = np.linspace(m.a, m.b, 257)
    u = np.linspace(0.0, 1.0, 257)
    for name, arg in (("pdf", x), ("cdf", x), ("quantile", u)):
        assert getattr(copy, name)(arg).tobytes() == getattr(m, name)(arg).tobytes()


def test_iid_inputs_share_one_basis():
    basis = build_chaos_basis(toy_model(4), "unweighted", degree=2, mesh_size=100)
    assert all(b is basis.bases[0] for b in basis.bases)


def test_basis_builds_do_not_share_state_across_calls():
    first = build_chaos_basis(toy_model(2), "unweighted", degree=2, mesh_size=100)
    second = build_chaos_basis(toy_model(2), "unweighted", degree=2, mesh_size=100)
    assert second.bases[0] is not first.bases[0]
    assert np.array_equal(second.bases[0].eigenvalues, first.bases[0].eigenvalues)


def test_sampling_determinism_and_support():
    pm = ProductMeasure(tuple(make_measure(f, p, t) for f, p, t in TABLE1[:3]))
    with pytest.raises(ValueError):
        pm.sample(0, 1)
    x1 = pm.sample(1, 42)
    assert x1.shape == (1, 3)
    for k, m in enumerate(pm.components):
        assert m.a <= x1[0, k] <= m.b
    big = pm.sample(500, 7)
    assert np.array_equal(big, pm.sample(500, 7))


def test_sample_mean_clt_bound():
    pm = ProductMeasure((make_measure("uniform", {"a": -1, "b": 1}),))
    x = pm.sample(10**6, 3)
    # sd of the mean is (1/sqrt(3))/1000 ~ 5.8e-4; 3 sigma plus slack
    assert abs(x.mean()) < 3e-3


@pytest.mark.parametrize("family,params,trunc", TABLE1)
def test_kolmogorov_smirnov_each_family(family, params, trunc):
    m = make_measure(family, params, trunc)
    pm = ProductMeasure((m,))
    x = np.sort(pm.sample(10**5, 17)[:, 0])
    n = x.size
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    cdf = m.cdf(x)
    ks = max(np.max(np.abs(ecdf_hi - cdf)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks < 0.01


def test_zero_mass_truncation_rejected():
    with pytest.raises(ZeroMass):
        make_measure("truncated_gumbel", {"loc": 1013, "scale": 558}, (10**6, 10**6 + 1))


def test_invalid_params():
    with pytest.raises(InvalidParams):
        make_measure("triangular", {"a": 1, "c": 5, "b": 3})
    with pytest.raises(InvalidParams):
        make_measure("truncated_gaussian", {"mean": 0, "std": 1, "var": 1}, (-1, 1))
    with pytest.raises(InvalidParams):
        make_measure("truncated_gumbel", {"loc": 0, "scale": 1})  # no truncation
    with pytest.raises(InvalidParams):
        make_measure("uniform", {"a": 2, "b": 2})


@given(
    a=st.floats(-50, 50),
    width=st.floats(0.1, 100),
    mode_frac=st.floats(0.05, 0.95),
    u=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_quantile_cdf_roundtrip_property(a, width, mode_frac, u):
    m = make_measure("triangular", {"a": a, "c": a + mode_frac * width, "b": a + width})
    assert abs(m.cdf(m.quantile(u)) - u) < 1e-9
