import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from georadon.numerics import (RadialProfile, endpoint_derivative,
                               gauss_legendre, integrate_gl,
                               quad_log_singular, sphere_rule, zonal_rule)


def test_gl_two_point_rule():
    nodes, weights = gauss_legendre(2)
    assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert weights == pytest.approx([1.0, 1.0])
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_gl_degree_exactness():
    nodes, weights = gauss_legendre(3)
    assert float(weights @ nodes ** 4) == pytest.approx(2 / 5, abs=1e-12)


@given(st.integers(min_value=1, max_value=64))
def test_gl_weight_sum_and_symmetry(n):
    nodes, weights = gauss_legendre(n)
    assert abs(weights.sum() - 2.0) < 1e-13
    assert np.allclose(nodes, -nodes[::-1])
    # exact on monomials up to degree 2n-1
    for deg in (2 * n - 2, 2 * n - 1):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert float(weights @ nodes ** deg) == pytest.approx(
            exact, abs=1e-12)


def test_gl_out_of_range():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(1000)


def test_truncated_gaussian_integral():
    got = integrate_gl(lambda t: np.exp(-t * t), 0.0, 8.0, n=64, panels=2)
    assert got == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)


def test_log_singular_at_left_endpoint():
    assert quad_log_singular(np.log, 0.0, 1.0, s=0.0) == pytest.approx(
        -1.0, abs=1e-10)


def test_log_singular_interior():
    s = 0.3
    expect = s * math.log(s) + (1 - s) * math.log(1 - s) - 1.0
    got = quad_log_singular(lambda v: np.log(np.abs(v - s)), 0.0, 1.0, s=s)
    assert got == pytest.approx(expect, abs=1e-10)


def test_log_singular_with_sqrt_weight():
    got = quad_log_singular(
        lambda x: np.sqrt(np.maximum(0.0, 1 - x * x)) * np.log(np.abs(x)),
        -1.0, 1.0, s=0.0)
    # -pi/2 (log 2 + 1/2), the circular-weight log moment
    assert got == pytest.approx(-math.pi / 2 * (math.log(2) + 0.5), abs=1e-10)


def _counting(f):
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)
    return counted, calls


@pytest.mark.parametrize("omega,nodes", [(1.0, 48), (150.0, 96)])
def test_log_singular_sums_each_half_in_one_call(omega, nodes):
    # two halves per level, three levels at most: the finer oscillation
    # takes the 96-node level
    f, calls = _counting(lambda x: np.cos(omega * x) * np.log(np.abs(x - 0.2)))
    stats = {}
    quad_log_singular(f, -1.0, 1.0, s=0.2, stats=stats)
    assert len(calls) == (4 if nodes == 48 else 6)
    assert stats["nodes"] == nodes
    assert 0.0 <= stats["delta"] <= 1e-11


def test_log_singular_failure_makes_at_most_six_calls():
    f, calls = _counting(lambda x: np.cos(300.0 * x) * np.log(np.abs(x - 0.2)))
    with pytest.raises(ValueError, match="did not converge"):
        quad_log_singular(f, -1.0, 1.0, s=0.2)
    assert len(calls) == 6


def test_log_singular_endpoint_skips_the_empty_half():
    f, calls = _counting(np.log)
    stats = {}
    assert quad_log_singular(f, 0.0, 1.0, s=0.0, stats=stats) == \
        pytest.approx(-1.0, abs=1e-10)
    assert len(calls) == 2
    assert stats["nodes"] == 48


def test_log_singular_rejects_outside_point():
    with pytest.raises(ValueError):
        quad_log_singular(np.log, 0.0, 1.0, s=2.0)


def test_endpoint_derivative_cubic():
    grid = np.linspace(0.0, 1.0, 11)
    val, res = endpoint_derivative(RadialProfile(grid, grid ** 3), 3, 4)
    assert val == pytest.approx(6.0, abs=1e-10)
    assert res < 1e-12


def test_endpoint_derivative_gaussian_profile():
    grid = 0.02 * np.arange(25)
    val, _ = endpoint_derivative(RadialProfile(grid, np.exp(-grid ** 2)), 2, 10)
    assert val == pytest.approx(-2.0, abs=1e-6)


def test_endpoint_derivative_sin():
    grid = 0.02 * np.arange(25)
    val, _ = endpoint_derivative(RadialProfile(grid, np.sin(grid)), 1, 8)
    assert val == pytest.approx(1.0, abs=1e-8)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
def test_endpoint_derivative_exact_on_polynomials(order, extra):
    rng = np.random.default_rng(order * 10 + extra)
    degree = order + 1 + extra % 3
    coefs = rng.uniform(-2, 2, size=degree + 1)
    grid = np.linspace(0.0, 1.5, degree + 8)
    vals = np.polynomial.polynomial.polyval(grid, coefs)
    got, res = endpoint_derivative(RadialProfile(grid, vals), order, degree)
    # reading high-order coefficients from a one-sided design loses a digit
    tol = 1e-10 if order <= 3 else 1e-8
    assert got == pytest.approx(math.factorial(order) * coefs[order],
                                rel=tol, abs=tol)
    assert res < 1e-10


def test_endpoint_derivative_parity_basis():
    grid = 0.05 * np.arange(20)
    vals = 1.0 + 3.0 * grid ** 2 + 0.5 * grid ** 4
    val, _ = endpoint_derivative(RadialProfile(grid, vals), 2, 4, parity="even")
    assert val == pytest.approx(6.0, abs=1e-10)
    with pytest.raises(ValueError):
        endpoint_derivative(RadialProfile(grid, vals), 1, 4, parity="even")


def test_endpoint_derivative_validation():
    grid = np.linspace(0.0, 1.0, 6)
    prof = RadialProfile(grid, grid)
    with pytest.raises(ValueError):
        endpoint_derivative(prof, 2, 2)  # degree < order + 1
    with pytest.raises(ValueError):
        endpoint_derivative(prof, 1, 4)  # too few points


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_sphere_rule_surface_area(m):
    from georadon.constants import sphere_area
    _, w = sphere_rule(m, 32)
    assert w.sum() == pytest.approx(sphere_area(m), rel=1e-12)


def test_sphere_rule_polynomial_moment():
    # int_{S^2} z^2 = 4 pi / 3
    pts, w = sphere_rule(2, 32)
    assert float(w @ pts[:, 2] ** 2) == pytest.approx(4 * math.pi / 3, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_zonal_rule_moments(m):
    # E u^(2j) = prod_{i<j} (2i + 1) / (m + 1 + 2i) for the first coordinate
    # u of a uniform point of S^m; 7 nodes are exact through degree 13
    u, w = zonal_rule(m, 7)
    assert float(w.sum()) == pytest.approx(1.0, rel=0.0, abs=1e-15)
    want = 1.0
    for j in range(7):
        assert float(w @ u ** (2 * j)) == pytest.approx(want, rel=1e-14)
        assert float(w @ u ** (2 * j + 1)) == pytest.approx(0.0, abs=1e-15)
        want *= (2 * j + 1) / (m + 1 + 2 * j)


def test_zonal_rule_matches_sphere_rule_axis_law():
    # the same mean of a non-polynomial zonal function on S^2
    pts, w = sphere_rule(2, 64)
    u, wz = zonal_rule(2, 16)
    want = float(w @ np.exp(3.0 * pts[:, 0])) / float(w.sum())
    assert float(wz @ np.exp(3.0 * u)) == pytest.approx(want, rel=1e-14)


def test_zonal_rule_chebyshev_and_validation():
    # m = 1 is Gauss-Chebyshev: cos((2j - 1) pi / 2p), equal weights
    p = 9
    u, w = zonal_rule(1, p)
    want = np.sort(np.cos((2 * np.arange(1, p + 1) - 1) * np.pi / (2 * p)))
    assert u == pytest.approx(want, rel=0.0, abs=1e-14)
    assert w == pytest.approx(np.full(p, 1.0 / p), rel=1e-13)
    assert zonal_rule(5, 1)[0].tolist() == [0.0]
    with pytest.raises(ValueError):
        zonal_rule(0, 8)
    with pytest.raises(ValueError):
        zonal_rule(2, 0)
    with pytest.raises(ValueError, match=r"\[1, 512\]"):
        zonal_rule(1, 513)


def test_quadrature_determinism():
    a = quad_log_singular(np.log, 0.0, 1.0, s=0.0)
    b = quad_log_singular(np.log, 0.0, 1.0, s=0.0)
    assert a == b
