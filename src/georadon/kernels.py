"""Closed forms and oracles for the log-kernel integrals.

phi(u) = int_{-1}^{1} (1+xi)^alpha (1-xi)^(m-alpha) log|xi - u| dxi is
assembled from a trigonometric factor, an incomplete weight integral, and a
polynomial whose coefficients come from a Laurent-product expansion. The odd
sgn/log kernels psi_k and psi used by the operator reductions are
specializations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import _sign, c_k_value, theta_poly_coeffs

__all__ = [
    "KernelParams",
    "PolyCoeffs",
    "generalized_binomial",
    "lambda_coeffs",
    "poly_coeffs",
    "mu_alpha",
    "theta_alpha",
    "phi_at_one",
    "phi_closed",
    "phi_oracle",
    "psi_k_params",
    "psi_k_closed",
    "psi_poly_coeffs",
    "psi_sign",
]

_INT_GAP = 1e-6


@dataclass(frozen=True)
class KernelParams:
    """Exponent pair of the weight (1+xi)^alpha (1-xi)^(m-alpha).

    m = -1 is allowed (empty polynomial part); it is what the k = 1 kernel
    psi_1 specializes to."""

    alpha: float
    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < -1:
            raise ValueError("m must be an integer >= -1")
        if not -1.0 < self.alpha < self.m + 1.0:
            raise ValueError("alpha must lie in (-1, m+1)")
        if abs(self.alpha - round(self.alpha)) <= _INT_GAP:
            raise ValueError("alpha must stay clear of the integers")

    @property
    def beta(self) -> float:
        return self.m - self.alpha


@dataclass(frozen=True)
class PolyCoeffs:
    """Laurent coefficients [lambda_1 .. lambda_{m+1}] and phi(1)."""

    coeffs: np.ndarray
    phi_at_one: float


def generalized_binomial(a: float, p: int) -> float:
    """C(a, p) as a falling-factorial product (no Gamma ratios)."""
    out = 1.0
    for i in range(p):
        out *= (a - i) / (i + 1)
    return out


def lambda_coeffs(params: KernelParams) -> np.ndarray:
    """lambda_r = (1/r) sum_{l=0}^{m+1-r} (-1)^l C(m-a, l) C(a, m+1-r-l).

    The sum starts at l = 0: the l = 1 variant misses the p = q = 0 Laurent
    term and breaks the forced quadratic coefficient at (alpha, m) = (1/2, 1).
    """
    m, a = params.m, params.alpha
    out = np.empty(m + 1)
    for r in range(1, m + 2):
        s = 0.0
        for l in range(0, m + 2 - r):
            s += _sign(l) * generalized_binomial(m - a, l) \
                * generalized_binomial(a, m + 1 - r - l)
        out[r - 1] = s / r
    return out


def _csc_factor(params: KernelParams) -> float:
    # (-1)^m pi / sin(alpha pi), the factor of mu_alpha on (1, inf) and of
    # the polynomial part
    return _sign(params.m) * math.pi / math.sin(params.alpha * math.pi)


def _digamma(x: float) -> float:
    # psi(x) for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    # x >= 20, then the asymptotic series through the x^-10 term, whose
    # first omitted term is below 1e-17 there
    acc = 0.0
    while x < 20.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
    return acc + math.log(x) - 0.5 / x - series


def phi_at_one(params: KernelParams) -> float:
    """phi(1) = int (1+xi)^a (1-xi)^b log(1-xi) dxi in closed form.

    1 - xi = 2s turns it into a Beta integral with a digamma factor,
    2^(a+b+1) B(a+1, b+1) [log 2 + psi(b+1) - psi(a+b+2)]
    (Gradshteyn-Ryzhik 4.253.1); a + b = m."""
    a, b, m = params.alpha, params.beta, params.m
    log_beta = math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(m + 2.0)
    return 2.0 ** (m + 1) * math.exp(log_beta) \
        * (math.log(2.0) + _digamma(b + 1.0) - _digamma(m + 2.0))


@lru_cache(maxsize=None)
def poly_coeffs(params: KernelParams) -> PolyCoeffs:
    lam = lambda_coeffs(params)
    lam.flags.writeable = False
    return PolyCoeffs(coeffs=lam, phi_at_one=phi_at_one(params))


def mu_alpha(params: KernelParams, u: float) -> float:
    """-pi cot(a pi) on (0, 1); (-1)^m pi csc(a pi) on (1, inf)."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    if u == 1.0:
        raise ValueError("mu_alpha is two-valued at u = 1")
    if u < 1.0:
        return -math.pi / math.tan(params.alpha * math.pi)
    return _csc_factor(params)


@lru_cache(maxsize=None)
def _jacobi_rule(beta: float, n: int = 64):
    # Gauss-Jacobi rule for the weight (1+x)^beta on (-1, 1) by Golub-Welsch;
    # scipy's roots_jacobi loses eight digits of the weights near beta = -1
    k = np.arange(1, n)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2
    return x, w


def _theta_piece(params: KernelParams, u: float) -> float:
    # unsigned int between 1 and u of (1+xi)^a |1-xi|^(m-a) dxi; the
    # |1-xi|^(m-a) endpoint factor is absorbed by a Gauss-Jacobi rule
    if u == 1.0:
        return 0.0
    a, b = params.alpha, params.beta
    x, w = _jacobi_rule(b)
    if u > 1.0:
        half = 0.5 * (u - 1.0)
        vals = (2.0 + half * (x + 1.0)) ** a
    else:
        half = 0.5 * (1.0 - u)
        vals = (2.0 - half * (x + 1.0)) ** a
    return half ** (b + 1.0) * float(np.dot(w, vals))


def theta_alpha(params: KernelParams, u: float) -> float:
    """int_1^u (1+xi)^a (xi-1)^(m-a) dxi for u >= 1."""
    if u < 1.0:
        raise ValueError("theta_alpha requires u >= 1")
    return _theta_piece(params, u)


def _poly_eval(params: KernelParams, u: float) -> float:
    pc = poly_coeffs(params)
    csc = _csc_factor(params)
    q = 0.0
    for r, lam in enumerate(pc.coeffs, start=1):
        q += float(lam) * (u ** r - 1.0)
    return pc.phi_at_one - csc * q


def phi_closed(params: KernelParams, u: float) -> float:
    """Closed-form phi(u) = mu_alpha(u) Theta_alpha(u) + P_{m+1}(u), u != 1.

    On (0, 1) the incomplete integral runs from u up to 1 (taken with the
    positive orientation), pairing with the cotangent factor; this is the
    branch the oracle sweep pins down."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    if u == 1.0:
        raise ValueError("phi_closed is defined away from u = 1")
    return mu_alpha(params, u) * _theta_piece(params, u) + _poly_eval(params, u)


def phi_oracle(params: KernelParams, u: float) -> float:
    """Adaptive-quadrature evaluation of the defining integral.

    Splits at xi = u; endpoint weights (1+xi)^a, (1-xi)^(m-a) and the log
    factor are handed to the weighted QUADPACK routines piecewise. scipy is
    imported here, and only here: it is the `oracle` extra, not a runtime
    dependency."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    try:
        from scipy.integrate import quad
    except ImportError as exc:
        raise ImportError(
            "the QUADPACK oracle needs scipy: install the oracle extra "
            "(pip install 'georadon[oracle]')") from exc
    a, b = params.alpha, params.beta
    opts = dict(limit=400, epsabs=1e-12, epsrel=1e-12)

    def wfun(x):
        return (1.0 + x) ** a * (1.0 - x) ** b

    pieces = []
    if u < 1.0:
        m1 = 0.5 * (u - 1.0)
        m2 = 0.5 * (u + 1.0)
        pieces.append(quad(lambda x: (1.0 - x) ** b * np.log(u - x), -1.0, m1,
                           weight="alg", wvar=(a, 0.0), **opts)[0])
        pieces.append(quad(wfun, m1, u, weight="alg-logb", wvar=(0.0, 0.0),
                           **opts)[0])
        pieces.append(quad(wfun, u, m2, weight="alg-loga", wvar=(0.0, 0.0),
                           **opts)[0])
        pieces.append(quad(lambda x: (1.0 + x) ** a * np.log(x - u), m2, 1.0,
                           weight="alg", wvar=(0.0, b), **opts)[0])
    else:
        pieces.append(quad(lambda x: (1.0 - x) ** b * np.log(u - x), -1.0, 0.0,
                           weight="alg", wvar=(a, 0.0), **opts)[0])
        pieces.append(quad(lambda x: (1.0 + x) ** a * np.log(u - x), 0.0, 1.0,
                           weight="alg", wvar=(0.0, b), **opts)[0])
    return float(sum(pieces))


def psi_k_params(k: int) -> KernelParams:
    if k < 1 or k % 2 != 1:
        raise ValueError("psi_k requires odd positive k")
    return KernelParams(alpha=k / 2.0 - 1.0, m=k - 2)


def psi_k_closed(k: int, u: float) -> float:
    """int_0^1 (1-v^2)^(k/2-1) log|u^2 - v^2| dv for odd k, via the folded
    symmetric-weight case alpha = m - alpha = k/2 - 1."""
    return phi_closed(psi_k_params(k), u)


def psi_poly_coeffs(k: int) -> np.ndarray:
    """Ascending coefficients of the even degree-(k-1) polynomial part of psi_k."""
    params = psi_k_params(k)
    pc = poly_coeffs(params)
    csc = _csc_factor(params)
    out = np.zeros(k)
    out[0] = pc.phi_at_one + csc * float(np.sum(pc.coeffs))
    for r, lam in enumerate(pc.coeffs, start=1):
        out[r] -= csc * lam
    return out


def psi_sign(k: int, u: float) -> float:
    """int_0^1 sgn(v - u) (1-v^2)^(k/2-1) dv for even k.

    Equals -c_k + 2(-1)^(k/2) Theta(u) on (0, 1) with Theta the polynomial
    continuation, and -c_k for u >= 1 (continuous across u = 1)."""
    if k < 2 or k % 2 != 0:
        raise ValueError("psi_sign requires even positive k")
    if u <= 0.0:
        raise ValueError("u must be positive")
    ck = c_k_value(k)
    if u >= 1.0:
        return -ck
    theta = np.polynomial.polynomial.polyval(u, theta_poly_coeffs(k))
    return -ck + 2.0 * _sign(k // 2) * float(theta)
