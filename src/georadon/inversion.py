"""Reconstruction pipelines: the generalized sgn/log dual-operator formulas,
the weighted shifted-dual formula, and the classical 1927 hyperplane pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import (LOG_ODD, SGN_EVEN, SHIFTED_DUAL, InversionConstant,
                        classical_log_constant, classical_sgn_constant,
                        inversion_constant, lambda_weight, sphere_area)
from .dual_ops import (DualConfig, dual_shifted_mean, l_star_profile,
                       l_tilde_star_profile)
from .fields import ScalarField
from .geometry import Point, Space
from .numerics import RadialProfile, endpoint_derivative, gl_nodes, \
    quad_log_singular
from .transforms import bounded_sphere_rule

__all__ = [
    "GridSpec",
    "InversionReport",
    "invert_mader",
    "invert_shifted_dual",
    "mader_radial_average",
    "mader_classical",
]

# a parity-restricted fit is trusted only when it reproduces the profile to
# well below the quadrature noise floor
_PARITY_RESIDUAL_TOL = 1e-6
# the classical pipeline's s-integrals stop at |s| = S_CAP
S_CAP = 8.0


@dataclass
class GridSpec:
    """Derivative-at-zero grid: r_j = j h, j = 0..j_max, fitted by least squares."""

    h: float = 0.02
    j_max: int = 24


@dataclass
class InversionReport:
    estimate: float
    truth: float | None
    profile: RadialProfile
    derivative_order: int
    constant_used: InversionConstant
    conditioning: float

    @property
    def rel_error(self) -> float | None:
        if self.truth is None or self.truth == 0.0:
            return None
        return abs(self.estimate - self.truth) / abs(self.truth)


def _fit(profile: RadialProfile, order: int, degree: int, preferred: str):
    # a parity-restricted basis halves the dof, so give it extra powers and
    # escalate until the residual hits the quadrature noise floor; fall back
    # to the plain basis when the parity structure does not fit the data
    cap = profile.grid.size - 4
    best = None
    for bump in (4, 6, 8, 10):
        d = degree + bump
        if d > cap:
            break
        value, res = endpoint_derivative(profile, order, d, preferred)
        if best is None or res < best[1]:
            best = (value, res)
        if res < 1e-9:
            break
    if best is not None and best[1] < _PARITY_RESIDUAL_TOL:
        return best
    return endpoint_derivative(profile, order, min(degree + 4, cap), None)


def _reconstruct(grid, values, order: int, degree: int, basis: str,
                 const: InversionConstant, truth: float | None) -> InversionReport:
    """Fit the profile sampled on grid, take its order-th derivative at 0 and
    divide it by the pipeline's constant."""
    profile = RadialProfile(grid, values)
    deriv, res = _fit(profile, order, degree, basis)
    return InversionReport(estimate=deriv / const.value, truth=truth,
                           profile=profile, derivative_order=order,
                           constant_used=const, conditioning=res)


def invert_mader(space: Space, f: ScalarField, x: Point,
                 cfg: DualConfig | None = None,
                 grid: GridSpec | None = None) -> InversionReport:
    """Recover f(x) from the (k+1)-st r-derivative of the sgn/log operator.

    Even k uses the sgn-weighted operator (profile is constant-plus-odd in r);
    odd k uses the log-weighted operator (profile is even in r). The parity
    structure is exploited only when the fit residual confirms it.
    """
    cfg = cfg or DualConfig()
    grid = grid or GridSpec()
    k = space.k
    even = k % 2 == 0
    const = inversion_constant(space, SGN_EVEN if even else LOG_ODD)
    operator = l_star_profile if even else l_tilde_star_profile
    rs = grid.h * np.arange(grid.j_max + 1)
    return _reconstruct(rs, operator(space, f, x, rs, cfg), k + 1, k + 3,
                        "odd_const" if even else "even", const, f.at(x))


def invert_shifted_dual(space: Space, f: ScalarField, x: Point,
                        cfg: DualConfig | None = None,
                        grid: GridSpec | None = None) -> InversionReport:
    """Recover f(x) from the k-th r-derivative of lambda(r) R*_r(Rf) (k even)."""
    cfg = cfg or DualConfig()
    grid = grid or GridSpec()
    k = space.k
    const = inversion_constant(space, SHIFTED_DUAL)
    rs = grid.h * np.arange(grid.j_max + 1)
    vals = np.array([dual_shifted_mean(space, f, x, float(r), cfg) for r in rs])
    return _reconstruct(rs, vals * lambda_weight(space, rs), k, k + 2, "even",
                        const, f.at(x))


def mader_radial_average(n: int, g, x: np.ndarray, s, polar_nodes: int = 64):
    """Direction average G(x, s) of hyperplane data g(theta, s + x . theta).

    g must broadcast over a trailing stack of directions: it is called as
    g(dirs, svals) with dirs of shape (N, n) and svals of shape (..., N).
    Vectorized over a 1-d array of s values.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    scalar_in = np.ndim(s) == 0
    x = np.asarray(x, dtype=float)
    dirs, w = bounded_sphere_rule(n - 1, polar_nodes, s_arr.size, "s-values",
                                  1, "polar_nodes")
    shifted = s_arr[:, None] + dirs @ x
    vals = g(dirs[None, :, :], shifted) @ w / sphere_area(n - 1)
    return float(vals[0]) if scalar_in else vals


def mader_classical(n: int, g, x: np.ndarray,
                    grid: GridSpec | None = None,
                    truth: float | None = None,
                    quad_nodes: int = 96,
                    polar_nodes: int = 64) -> InversionReport:
    """The classical hyperplane inversion via n-fold differentiation at t = 0.

    Even n pairs the log kernel with an even profile; odd n pairs the sgn
    kernel with an odd profile. The s-integrals truncate at |s| = 8.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    grid = grid or GridSpec()

    def big_g(svals):
        return mader_radial_average(n, g, x, svals, polar_nodes)

    if n % 2 == 0:
        const = InversionConstant(1.0 / classical_log_constant(n),
                                  "classical_log")
        basis = "even"

        def transform(t):
            return quad_log_singular(
                lambda s: big_g(s) * np.log(np.abs(s - t)), -S_CAP, S_CAP,
                s=t)
    else:
        const = InversionConstant(1.0 / classical_sgn_constant(n),
                                  "classical_sgn")
        basis = "odd"

        def transform(t):
            lo, wlo = gl_nodes(-S_CAP, t, quad_nodes, panels=2)
            hi, whi = gl_nodes(t, S_CAP, quad_nodes, panels=2)
            return float(np.dot(whi, big_g(hi)) - np.dot(wlo, big_g(lo)))

    ts = grid.h * np.arange(-grid.j_max, grid.j_max + 1)
    return _reconstruct(ts, [transform(float(t)) for t in ts], n, n + 3,
                        basis, const, truth)
