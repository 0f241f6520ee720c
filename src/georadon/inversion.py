"""Reconstruction pipelines: the generalized sgn/log dual-operator formulas,
the weighted shifted-dual formula, and the classical 1927 hyperplane pair."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

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
    "tabulate_radial_average",
    "ChebyshevTable",
    "mader_classical",
]

# a parity-restricted fit is trusted only when it reproduces the profile to
# well below the quadrature noise floor
_PARITY_RESIDUAL_TOL = 1e-6
# the classical pipeline's s-integrals stop at |s| = S_CAP
S_CAP = 8.0
# the classical pair tabulates its direction average at this many Chebyshev
# points of [-S_CAP, S_CAP], each size's points containing the last's
_CHEB_SIZES = (65, 129, 257, 513)
# a tabulation is accepted once its trailing quarter of Chebyshev
# coefficients lies below this fraction of its largest value
_CHEB_TOL = 1e-14
# one direction-average call of the tabulation covers at most this many
# bytes of data values (s-values x directions)
_AVERAGE_BLOCK_BYTES = 1 << 23


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
    # rule sizes and error estimates of the stages, kept out of the results
    diagnostics: dict = field(default_factory=dict)

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
                 const: InversionConstant, truth: float | None,
                 diagnostics: dict | None = None) -> InversionReport:
    """Fit the profile sampled on grid, take its order-th derivative at 0 and
    divide it by the pipeline's constant."""
    profile = RadialProfile(grid, values)
    deriv, res = _fit(profile, order, degree, basis)
    return InversionReport(estimate=deriv / const.value, truth=truth,
                           profile=profile, derivative_order=order,
                           constant_used=const, conditioning=res,
                           diagnostics=diagnostics or {})


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
    rs = grid.h * np.arange(grid.j_max + 1)
    stats = {}
    if even:
        values = l_star_profile(space, f, x, rs, cfg)
    else:
        values = l_tilde_star_profile(space, f, x, rs, cfg, log_stats=stats)
    return _reconstruct(rs, values, k + 1, k + 3,
                        "odd_const" if even else "even", const, f.at(x),
                        {"log_" + key: v for key, v in stats.items()})


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


@dataclass(frozen=True)
class ChebyshevTable:
    """A function on [-S_CAP, S_CAP] tabulated at `points` Chebyshev points:
    its Chebyshev coefficients down to roundoff, and the tail estimate that
    accepted them (the largest trailing coefficient over the largest value).
    """

    points: int
    coeffs: np.ndarray
    tail: float

    def __call__(self, s):
        return chebyshev.chebval(np.asarray(s) / S_CAP, self.coeffs)


def _chebyshev_coeffs(vals: np.ndarray) -> np.ndarray:
    # values at cos(pi j / m), j = 0..m, to Chebyshev coefficients: one real
    # FFT of the even extension (a type-I cosine transform)
    m = vals.size - 1
    c = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / m
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def tabulate_radial_average(n: int, g, x: np.ndarray,
                            polar_nodes: int = 64) -> ChebyshevTable:
    """`mader_radial_average` of g as a Chebyshev interpolant in s on
    [-S_CAP, S_CAP].

    G is evaluated at 65, 129, 257, then 513 Chebyshev points, each size
    reusing the values of the last, until the trailing quarter of its
    coefficients falls below 1e-14 of its largest value. The points go to
    `mader_radial_average` in blocks of at most 8 MiB of data values, so
    memory stays bounded in any n the product rule's guard admits. Raises
    ValueError when 513 points do not resolve G.
    """
    n_dirs = 2 * polar_nodes ** (n - 1)
    rows = max(1, _AVERAGE_BLOCK_BYTES // (8 * n_dirs))
    vals = None
    for size in _CHEB_SIZES:
        m = size - 1
        fresh = np.arange(size) if vals is None else np.arange(1, m, 2)
        s = S_CAP * np.cos(np.pi * fresh / m)
        new = np.concatenate([
            mader_radial_average(n, g, x, s[i:i + rows], polar_nodes)
            for i in range(0, s.size, rows)])
        # the last size's points are this size's even-indexed ones
        vals = new if vals is None else \
            np.insert(vals, np.arange(1, vals.size), new)
        coeffs = _chebyshev_coeffs(vals)
        scale = float(np.max(np.abs(vals)))
        tail = float(np.max(np.abs(coeffs[-(m // 4):])))
        tail = tail / scale if scale > 0.0 else 0.0
        if tail <= _CHEB_TOL:
            # the trailing coefficients below roundoff of the values go
            return ChebyshevTable(size, chebyshev.chebtrim(
                coeffs, np.finfo(float).eps * scale), tail)
    raise ValueError(
        f"the direction average is not resolved by {_CHEB_SIZES[-1]} "
        f"Chebyshev points on [-{S_CAP:g}, {S_CAP:g}]: its trailing "
        f"coefficients are {tail:.2e} of its largest value, over "
        f"{_CHEB_TOL:g}; the hyperplane data vary too fast in s")


def mader_classical(n: int, g, x: np.ndarray,
                    grid: GridSpec | None = None,
                    truth: float | None = None,
                    quad_nodes: int = 96,
                    polar_nodes: int = 64) -> InversionReport:
    """The classical hyperplane inversion via n-fold differentiation at t = 0.

    Even n pairs the log kernel with an even profile; odd n pairs the sgn
    kernel with an odd profile. The s-integrals truncate at |s| = 8 and
    integrate the `tabulate_radial_average` interpolant of the direction
    average, whose size and tail estimate the report's diagnostics hold
    (with, on even n, the finest `quad_log_singular` level over t).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    grid = grid or GridSpec()
    big_g = tabulate_radial_average(n, g, x, polar_nodes)
    diagnostics = {"chebyshev_points": big_g.points,
                   "chebyshev_tail": big_g.tail}
    ts = grid.h * np.arange(-grid.j_max, grid.j_max + 1)

    if n % 2 == 0:
        const = InversionConstant(1.0 / classical_log_constant(n),
                                  "classical_log")
        basis = "even"
        stats = [{} for _ in ts]
        values = [quad_log_singular(
            lambda s: big_g(s) * np.log(np.abs(s - t)), -S_CAP, S_CAP, s=t,
            stats=st) for t, st in zip(ts.tolist(), stats)]
        diagnostics.update(log_nodes=max(st["nodes"] for st in stats),
                           log_delta=max(st["delta"] for st in stats))
    else:
        const = InversionConstant(1.0 / classical_sgn_constant(n),
                                  "classical_sgn")
        basis = "odd"
        lo, wlo = zip(*(gl_nodes(-S_CAP, t, quad_nodes, panels=2)
                        for t in ts))
        hi, whi = zip(*(gl_nodes(t, S_CAP, quad_nodes, panels=2)
                        for t in ts))
        values = (np.sum(np.array(whi) * big_g(np.array(hi)), axis=1)
                  - np.sum(np.array(wlo) * big_g(np.array(lo)), axis=1))

    return _reconstruct(ts, values, n, n + 3, basis, const, truth,
                        diagnostics)
