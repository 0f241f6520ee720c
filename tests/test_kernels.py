import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from georadon.constants import c_k_value
from georadon.kernels import (KernelParams, generalized_binomial,
                              lambda_coeffs, mu_alpha, phi_at_one,
                              phi_closed, phi_oracle, poly_coeffs,
                              psi_k_closed, psi_k_params, psi_poly_coeffs,
                              psi_sign, theta_alpha)


def test_params_validation():
    KernelParams(0.5, 1)
    KernelParams(-0.5, -1)
    with pytest.raises(ValueError):
        KernelParams(2.5, 1)  # alpha outside (-1, m+1)
    with pytest.raises(ValueError):
        KernelParams(1.0 + 1e-9, 2)  # too close to an integer
    with pytest.raises(ValueError):
        KernelParams(0.5, -2)


def test_lambda_coeffs_forced_values():
    assert lambda_coeffs(KernelParams(0.5, 1)) == pytest.approx([0.0, 0.5],
                                                                abs=1e-12)
    assert lambda_coeffs(KernelParams(0.5, 0)) == pytest.approx([1.0])


@given(st.integers(min_value=0, max_value=4),
       st.floats(min_value=-0.9, max_value=0.9))
def test_lambda_top_coefficient(m, frac):
    alpha = m / 2.0 + 0.3 * frac + 0.05  # stays inside (-1, m+1), non-integer
    if abs(alpha - round(alpha)) < 1e-3:
        alpha += 0.01
    lam = lambda_coeffs(KernelParams(alpha, m))
    assert lam[-1] == pytest.approx(1.0 / (m + 1), abs=1e-12)


def test_symmetric_parameters_kill_odd_coefficients():
    for m in (1, 3):
        lam = lambda_coeffs(KernelParams(m / 2.0, m))
        assert np.max(np.abs(lam[::2])) < 1e-10  # lambda_1, lambda_3, ...


def test_generalized_binomial():
    assert generalized_binomial(0.5, 0) == 1.0
    assert generalized_binomial(0.5, 1) == 0.5
    assert generalized_binomial(0.5, 2) == pytest.approx(-0.125)
    assert generalized_binomial(3.0, 2) == pytest.approx(3.0)


def test_mu_alpha_values():
    p = KernelParams(0.5, 1)
    assert mu_alpha(p, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert mu_alpha(p, 2.0) == pytest.approx(-math.pi)
    assert mu_alpha(KernelParams(0.5, 2), 2.0) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        mu_alpha(p, 1.0)


def test_theta_alpha_values():
    p = KernelParams(0.5, 1)
    assert theta_alpha(p, 1.0) == 0.0
    # int_1^2 sqrt(xi^2-1) dxi
    expect = math.sqrt(3) - 0.5 * math.log(2 + math.sqrt(3))
    assert theta_alpha(p, 2.0) == pytest.approx(expect, abs=1e-11)
    p0 = KernelParams(0.5, 0)
    ref = quad(lambda x: np.sqrt(1 + x), 1, 2,
               weight="alg", wvar=(-0.5, 0.0))[0]
    assert theta_alpha(p0, 2.0) == pytest.approx(ref, abs=1e-10)
    with pytest.raises(ValueError):
        theta_alpha(p, 0.5)


def test_phi_closed_matches_oracle_spot():
    p = KernelParams(0.5, 1)
    assert phi_closed(p, 0.5) == pytest.approx(phi_oracle(p, 0.5), abs=1e-8)
    base = phi_closed(p, 1e-6)
    for u in (0.2, 0.5, 0.9):
        assert phi_closed(p, u) - base == pytest.approx(
            math.pi * u * u / 2, abs=1e-8)


@settings(max_examples=20)
@given(st.integers(min_value=-1, max_value=3), st.data())
def test_phi_closed_matches_oracle_random(m, data):
    alpha = data.draw(st.floats(min_value=-0.93, max_value=m + 0.93))
    if abs(alpha - round(alpha)) < 0.05:
        alpha += 0.07
    u = data.draw(st.one_of(st.floats(min_value=0.06, max_value=0.92),
                            st.floats(min_value=1.08, max_value=3.9)))
    p = KernelParams(alpha, m)
    assert phi_closed(p, u) == pytest.approx(phi_oracle(p, u), abs=1e-7)


@pytest.mark.parametrize("alpha,m,u", [(3.900390625, 3, 3.5), (3.93, 3, 3.9),
                                       (2.93, 2, 3.9)])
def test_phi_closed_near_singular_weight(alpha, m, u):
    # beta = m - alpha near -1: the Gauss-Jacobi weights must stay accurate
    p = KernelParams(alpha, m)
    assert phi_closed(p, u) == pytest.approx(phi_oracle(p, u), abs=1e-7)


def test_phi_continuity_at_one():
    p = KernelParams(0.3, 2)
    jumps = [abs(phi_closed(p, 1 + eps) - phi_closed(p, 1 - eps))
             for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert jumps == sorted(jumps, reverse=True)  # linear trend toward 0
    assert jumps[-1] < 1e-4
    # the one-sided limits themselves agree far below the trend
    assert abs(phi_closed(p, 1 + 1e-8) - phi_closed(p, 1 - 1e-8)) < 1e-6


def test_phi_asymptotic_log_growth():
    # phi(u)/log(u) -> integral of the weight as u -> infinity
    p = KernelParams(0.5, 1)
    u = 1e3
    assert phi_closed(p, u) / math.log(u) == pytest.approx(
        math.pi / 2, rel=1e-3)


def test_phi_even_polynomial_on_unit_interval():
    # symmetric weight: on (0,1) phi is an even polynomial of degree m+1
    p = KernelParams(1.5, 3)
    us = np.linspace(0.05, 0.9, 12)
    vals = np.array([phi_closed(p, float(u)) for u in us])
    coef = np.polynomial.polynomial.polyfit(us, vals, 4)
    assert abs(coef[1]) < 1e-8 and abs(coef[3]) < 1e-8


def test_phi_at_one_matches_oracle_limit():
    p = KernelParams(0.3, 1)
    assert phi_at_one(p) == pytest.approx(phi_oracle(p, 1.0 + 1e-9), abs=1e-6)


def test_fold_identity():
    # the symmetric-weight phi equals the half-interval log kernel
    k = 3
    p = psi_k_params(k)
    u = 0.3
    ref = quad(lambda v: np.sqrt(1 - v * v) * np.log(np.abs(u * u - v * v)),
               0, 1, points=[u], limit=300)[0]
    assert phi_closed(p, u) == pytest.approx(ref, abs=1e-8)
    assert psi_k_closed(k, u) == pytest.approx(ref, abs=1e-8)


def test_psi_1_classical_values():
    assert psi_k_closed(1, 0.5) == pytest.approx(-math.pi * math.log(2),
                                                 abs=1e-8)
    assert psi_k_closed(1, 2.0) == pytest.approx(
        math.pi * math.log((2 + math.sqrt(3)) / 2), abs=1e-8)
    with pytest.raises(ValueError):
        psi_k_closed(2, 0.5)


def test_psi_k_structure():
    # psi_k minus its polynomial part vanishes below 1 and equals the signed
    # incomplete integral above 1
    from georadon.constants import theta_k
    for k in (1, 3):
        pcoef = psi_poly_coeffs(k)
        sign = 1.0 if ((k - 1) // 2) % 2 == 0 else -1.0
        for u in (0.3, 0.8):
            poly = float(np.polynomial.polynomial.polyval(u, pcoef))
            assert psi_k_closed(k, u) == pytest.approx(poly, abs=1e-9)
        for u in (1.5, 2.5):
            poly = float(np.polynomial.polynomial.polyval(u, pcoef))
            assert psi_k_closed(k, u) - poly == pytest.approx(
                math.pi * sign * theta_k(u, k), abs=1e-9)


def test_psi_sign_values():
    assert psi_sign(2, 0.25) == pytest.approx(0.5)
    assert psi_sign(2, 3.0) == pytest.approx(-1.0)
    assert psi_sign(2, 1.0 - 1e-12) == pytest.approx(-1.0, abs=1e-9)
    assert psi_sign(2, 1.0 + 1e-12) == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        psi_sign(3, 0.5)


@settings(max_examples=20)
@given(st.sampled_from([2, 4, 6]),
       st.floats(min_value=0.05, max_value=3.5))
def test_psi_sign_matches_sgn_quadrature(k, u):
    ref = quad(lambda v: np.sign(v - u) * (1 - v * v) ** (k / 2 - 1),
               0, 1, points=[u] if u < 1 else None, limit=200)[0]
    assert psi_sign(k, u) == pytest.approx(ref, abs=1e-9)


def test_poly_coeffs_cached_and_consistent():
    p = KernelParams(0.5, 1)
    pc = poly_coeffs(p)
    assert pc.phi_at_one == pytest.approx(phi_at_one(p), abs=1e-12)
    assert float(np.sum(pc.coeffs * 0.0)) == 0.0  # coeffs usable as array
    assert c_k_value(2) == pytest.approx(1.0)
