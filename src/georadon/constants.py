"""Closed-form constants: inversion constants, the profile weight, and the
small kernel integrals (c_k, Theta) shared by the reduction formulas. The
sphere areas live in `geometry` and are re-exported here."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Space, check_distance, gamma_half, sphere_area
from .numerics import integrate_gl

__all__ = [
    "SGN_EVEN",
    "LOG_ODD",
    "SHIFTED_DUAL",
    "InversionConstant",
    "gamma_half",
    "sphere_area",
    "inversion_constant",
    "lambda_weight",
    "c_k_value",
    "theta_k",
    "theta_sinh",
    "theta_poly_coeffs",
    "classical_log_constant",
    "classical_sgn_constant",
]

# inversion pipeline identifiers: the sgn-weighted dual (k even), the
# log-weighted dual (k odd), and the weighted shifted-dual route (k even)
SGN_EVEN = "sgn_even"
LOG_ODD = "log_odd"
SHIFTED_DUAL = "shifted_dual"


@dataclass(frozen=True)
class InversionConstant:
    value: float
    kind: str


def _sign(j: int) -> float:
    return 1.0 if j % 2 == 0 else -1.0


def inversion_constant(space: Space, kind: str,
                       printed_form: bool = False) -> InversionConstant:
    """The derivative-to-function constant of the chosen inversion pipeline.

    Every pipeline carries sig_{k-1} (k-1)! Curvature.folds times its sign
    factor: (-1)^(k/2) for the shifted dual, 2(-1)^((k+2)/2) for sgn and
    pi (-1)^((k-1)/2) for log. The sgn/log pipelines add sig_{n-k-1}
    Space.measure_scale, so that on S^n they carry the factor 2 sig_k/sig_n;
    the fold 2 counts f(x) + f(-x), since a great k-sphere near x passes as
    near -x. For the sphere sgn-even case the printed statement omits
    2(-1)^((k+2)/2); the numerical sign experiment (acceptance check 7 on
    S^4 k = 2, and S^5 k = 4 for the sign) confirms the derivation-style
    constant, used by default; printed_form=True selects the printed one.
    """
    n, k = space.n, space.k
    if kind == SGN_EVEN:
        name, parity = "sgn", 0
        factor = 1.0 if printed_form and space.is_sphere \
            else 2.0 * _sign((k + 2) // 2)
    elif kind == LOG_ODD:
        name, parity = "log", 1
        factor = math.pi * _sign((k - 1) // 2)
    elif kind == SHIFTED_DUAL:
        name, parity = "shifted-dual", 0
        factor = _sign(k // 2)
    else:
        raise ValueError(f"unknown inversion kind {kind!r}")
    if k % 2 != parity:
        raise ValueError(f"the {name} pipeline requires "
                         f"{('even', 'odd')[parity]} k")
    value = factor
    if kind != SHIFTED_DUAL:
        value *= sphere_area(n - k - 1) * space.measure_scale
    value = value * sphere_area(k - 1) * math.factorial(k - 1) \
        * space.curvature.folds
    return InversionConstant(value, kind)


def lambda_weight(space: Space, r):
    """Profile weight cs^(k-1) at sn = r: (1 - kappa r^2)^((k-1)/2), that is
    1, (1-r^2)^((k-1)/2), or (1+r^2)^((k-1)/2)."""
    r = np.asarray(r, dtype=float)
    check_distance(space, r)
    out = (1.0 - space.curvature.kappa * r * r) ** ((space.k - 1) / 2.0)
    return out if out.ndim else float(out)


def c_k_value(k: int) -> float:
    """int_0^1 (1-v^2)^(k/2-1) dv = sqrt(pi) Gamma(k/2) / (2 Gamma((k+1)/2))."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return math.sqrt(math.pi) * gamma_half(k / 2.0) / (2.0 * gamma_half((k + 1) / 2.0))


def theta_poly_coeffs(k: int) -> np.ndarray:
    """Ascending coefficients of the polynomial continuation of
    int_1^u (v^2-1)^(k/2-1) dv for even k.

    The integrand is a polynomial when k is even, so the primitive is a
    degree-(k-1) polynomial valid for every u (the sgn kernel uses it on
    (0, 1))."""
    if k % 2 != 0 or k < 2:
        raise ValueError("theta_poly_coeffs requires even k >= 2")
    p = k // 2 - 1
    out = np.zeros(k)
    for j in range(p + 1):
        coef = math.comb(p, j) * _sign(p - j) / (2 * j + 1)
        out[2 * j + 1] += coef
        out[0] -= coef
    return out


def theta_k(u: float, k: int) -> float:
    """The incomplete integral int_1^u (v^2-1)^(k/2-1) dv for u >= 1.

    Even k evaluates the exact polynomial; odd k is theta_sinh at
    w = acosh(u)."""
    if u < 1.0:
        raise ValueError("theta_k requires u >= 1")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k % 2 == 0:
        return float(np.polynomial.polynomial.polyval(u, theta_poly_coeffs(k)))
    return float(theta_sinh(k, math.acosh(u)))


def theta_sinh(k: int, w):
    """int_0^w sinh^(k-1), that is theta_k at u = cosh(w), vectorized over w.

    Closed forms for k = 1 and 3; other k integrate numerically."""
    w = np.asarray(w, dtype=float)
    if k == 1:
        return w.copy()
    if k == 3:
        return 0.5 * (np.sinh(w) * np.cosh(w) - w)
    out = [integrate_gl(lambda y: np.sinh(y) ** (k - 1), 0.0, float(wi),
                        n=64, panels=2) for wi in w.flat]
    return np.reshape(out, w.shape)


def classical_sgn_constant(n: int) -> float:
    """Constant in front of the n-th t-derivative of the sgn-kernel data (n odd).

    The sign is (-1)^((n+1)/2): the direct Gaussian computation in n = 3 gives
    d^3F/dt^3 = +4 pi for a unit phantom, fixing +1/(4 pi)."""
    if n < 2 or n % 2 != 1:
        raise ValueError("the sgn classical formula applies to odd n >= 3")
    return _sign((n + 1) // 2) / (2.0 * math.factorial(n - 2) * sphere_area(n - 2))


def classical_log_constant(n: int) -> float:
    """Constant in front of the n-th t-derivative of the log-kernel data (n even)."""
    if n < 2 or n % 2 != 0:
        raise ValueError("the log classical formula applies to even n >= 2")
    return _sign((n - 2) // 2) / (math.pi * math.factorial(n - 2) * sphere_area(n - 2))
