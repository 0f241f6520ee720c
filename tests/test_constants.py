import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from georadon.constants import (LOG_ODD, SGN_EVEN, SHIFTED_DUAL,
                                c_k_value, classical_log_constant,
                                classical_sgn_constant, gamma_half,
                                inversion_constant, lambda_weight,
                                sphere_area, theta_k, theta_poly_coeffs,
                                theta_sinh)
from georadon.geometry import Space


def test_sphere_area_small_cases():
    assert sphere_area(0) == pytest.approx(2.0)
    assert sphere_area(1) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(2 * math.pi ** 2)


@given(st.integers(min_value=2, max_value=40))
def test_sphere_area_recurrence(m):
    assert sphere_area(m) == pytest.approx(
        2 * math.pi * sphere_area(m - 2) / (m - 1), rel=1e-12)


def test_sphere_area_rejects_negative():
    with pytest.raises(ValueError):
        sphere_area(-1)


@given(st.integers(min_value=1, max_value=30))
def test_gamma_half_exact_arguments(twice):
    x = twice / 2.0
    assert gamma_half(x) == pytest.approx(math.gamma(x), rel=1e-13)


def test_inversion_constants_desk_values():
    eu = Space("euclidean", 3, 2)
    assert inversion_constant(eu, SGN_EVEN).value == pytest.approx(8 * math.pi)
    assert inversion_constant(eu, SHIFTED_DUAL).value == pytest.approx(
        -2 * math.pi)
    sp = Space("sphere", 2, 1)
    assert inversion_constant(sp, LOG_ODD).value == pytest.approx(4 * math.pi)
    sp32 = Space("sphere", 3, 2)
    assert inversion_constant(sp32, SHIFTED_DUAL).value == pytest.approx(
        -4 * math.pi)


def test_sphere_sgn_even_forms():
    sp = Space("sphere", 4, 2)
    resolved = inversion_constant(sp, SGN_EVEN).value
    printed = inversion_constant(sp, SGN_EVEN, printed_form=True).value
    assert resolved == pytest.approx(2.0 * printed)
    assert printed == pytest.approx(
        2 * sphere_area(1) * sphere_area(2) * sphere_area(1) / sphere_area(4))
    # k = 4 fixes the sign as well: 2(-1)^((k+2)/2) = -2
    sp54 = Space("sphere", 5, 4)
    resolved = inversion_constant(sp54, SGN_EVEN).value
    printed = inversion_constant(sp54, SGN_EVEN, printed_form=True).value
    assert resolved == pytest.approx(-2.0 * printed)
    assert resolved == pytest.approx(-256 * math.pi)


def test_inversion_constant_parity_mismatch():
    eu = Space("euclidean", 3, 2)
    with pytest.raises(ValueError):
        inversion_constant(eu, LOG_ODD)
    eu21 = Space("euclidean", 2, 1)
    with pytest.raises(ValueError):
        inversion_constant(eu21, SGN_EVEN)
    with pytest.raises(ValueError):
        inversion_constant(eu21, SHIFTED_DUAL)


def test_lambda_weight():
    assert lambda_weight(Space("euclidean", 3, 2), 0.7) == 1.0
    assert lambda_weight(Space("sphere", 4, 3), 0.6) == pytest.approx(0.64)
    assert lambda_weight(Space("hyperbolic", 2, 1), 5.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lambda_weight(Space("sphere", 4, 3), 1.0)


def test_c_k_values():
    assert c_k_value(2) == pytest.approx(1.0)
    assert c_k_value(1) == pytest.approx(math.pi / 2)
    assert c_k_value(3) == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("k", range(1, 9))
def test_c_k_matches_quadrature(k):
    ref = quad(lambda v: (1 - v * v) ** (k / 2 - 1), 0, 1, limit=200)[0]
    assert c_k_value(k) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("u", [1.1, 2.0, 5.0])
def test_theta_k_matches_quadrature(k, u):
    ref = quad(lambda v: (v * v - 1) ** (k / 2 - 1), 1, u, limit=200)[0]
    assert theta_k(u, k) == pytest.approx(ref, abs=1e-10)


def test_theta_k_examples():
    assert theta_k(3.0, 2) == pytest.approx(2.0)
    assert theta_k(2.0, 1) == pytest.approx(math.acosh(2.0), abs=1e-12)
    for k in (1, 2, 3, 4, 5):
        assert theta_k(1.0, k) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        theta_k(0.5, 2)


def test_theta_k_high_odd_order():
    ref = quad(lambda v: (v * v - 1) ** 1.5, 1, 2.5, limit=200)[0]
    assert theta_k(2.5, 5) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_theta_poly_continues_theta(k):
    def theta_poly(u):
        return float(np.polynomial.polynomial.polyval(u, theta_poly_coeffs(k)))

    for u in (0.2, 0.8, 1.7):
        # signed primitive of the polynomial (v^2-1)^(k/2-1) from 1 to u
        direct = quad(lambda v: (v * v - 1) ** (k // 2 - 1), 1.0, u)[0]
        assert theta_poly(u) == pytest.approx(direct, abs=1e-13)
    assert theta_poly(1.0) == pytest.approx(0.0, abs=1e-14)
    ref = quad(lambda v: (v * v - 1) ** (k // 2 - 1), 1.0, 3.0)[0]
    assert theta_k(3.0, k) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_theta_sinh_matches_quadrature(k):
    ws = np.array([0.0, 0.4, 1.3])
    ref = [quad(lambda y: math.sinh(y) ** (k - 1), 0.0, w)[0] for w in ws]
    assert theta_sinh(k, ws) == pytest.approx(ref, abs=1e-12)
    assert theta_k(math.cosh(1.3), k) == pytest.approx(ref[2], abs=1e-12)


def test_classical_constants():
    assert classical_log_constant(2) == pytest.approx(1 / (2 * math.pi))
    # sign resolved by the direct n=3 Gaussian computation
    assert classical_sgn_constant(3) == pytest.approx(1 / (4 * math.pi))
    with pytest.raises(ValueError):
        classical_log_constant(3)
    with pytest.raises(ValueError):
        classical_sgn_constant(2)
