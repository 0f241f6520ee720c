"""Quadrature rules, log-singular integration, and endpoint differentiation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "RadialProfile",
    "gauss_legendre",
    "gl_nodes",
    "integrate_gl",
    "quad_log_singular",
    "endpoint_derivative",
    "sphere_rule",
    "zonal_rule",
]


@dataclass
class RadialProfile:
    """Sampled map r -> value on an increasing grid (starting at 0 or symmetric)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if self.grid.size >= 2 and np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("profile grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")


# the highest order of the rules built from a dense eigenproblem:
# gauss_legendre and zonal_rule
RULE_MAX_ORDER = 512


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Standard n-point Gauss-Legendre rule on (-1, 1), symmetry enforced.

    Returns read-only (nodes, weights)."""
    if not 1 <= n <= RULE_MAX_ORDER:
        raise ValueError(f"gauss_legendre order must be in "
                         f"[1, {RULE_MAX_ORDER}], got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    # symmetrize against roundoff so that x[i] == -x[n-1-i] exactly
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_nodes(a: float, b: float, n: int = 64, panels: int = 1):
    """Nodes and weights of a composite n-point GL rule on [a, b]."""
    nodes, weights = gauss_legendre(n)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


def integrate_gl(f, a: float, b: float, n: int = 64, panels: int = 1) -> float:
    """Composite Gauss-Legendre integral of a vectorized integrand on [a, b]."""
    if b <= a:
        return 0.0
    x, w = gl_nodes(a, b, n, panels)
    return float(np.dot(w, f(x)))


# most panels in each geometric grading of quad_log_singular
_GRADING_LEVELS = 60
# largest change between successive refinements quad_log_singular accepts
_LOG_TOL = 1e-11


def _panel_sum(f, s: float, edges, n: int) -> float:
    # the nodes of every panel go to f in one call
    nodes, weights = gauss_legendre(n)
    lo, hi = np.array(edges).T
    half = 0.5 * (hi - lo)
    wn = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    vals = f(s + (wn * wn).ravel()).reshape(wn.shape)
    return sum((half * ((2.0 * wn * vals) @ weights)).tolist())


def _graded_half(f, s: float, length: float, n: int) -> float:
    # integral over x in (s, s+length) with x = s + w^2; panels graded
    # geometrically toward w = 0 (log taming) and toward the outer endpoint
    # (integrable endpoint weights like sqrt(1-x^2))
    if length <= 0.0:
        return 0.0
    wmax = math.sqrt(length)
    # stop the inner grading once s + w^2 would round to s
    floor = math.sqrt(1e-13 * max(1.0, abs(s)))
    wmid = wmax / math.sqrt(2.0)
    edges = []
    hi = wmid
    for _ in range(_GRADING_LEVELS):
        if hi <= floor:
            break
        edges.append((0.5 * hi, hi))
        hi = 0.5 * hi
    gap = wmax - wmid
    lo = wmid
    for j in range(_GRADING_LEVELS):
        step = gap * 2.0 ** -(j + 1)
        edges.append((lo, lo + step))
        lo += step
        if wmax - lo < 1e-14 * wmax:
            break
    return _panel_sum(f, s, edges, n)


def quad_log_singular(f, a: float, b: float, s: float,
                      stats: dict | None = None) -> float:
    """Integrate f over [a, b] when f has at worst a log singularity at s.

    Splits at s and substitutes distance = w^2 on each side; panels are
    graded geometrically toward the singular point, and f is called once
    per side with the nodes of all its panels. Accepted only after two
    successive refinements (24, 48, then 96 nodes per panel) agree within
    1e-11. A `stats` dict receives the accepted node count per panel
    ("nodes") and its change from the level before ("delta").
    """
    if not a <= s <= b:
        raise ValueError(f"singular point {s} outside [{a}, {b}]")

    def attempt(order):
        return (_graded_half(f, s, b - s, order)
                + _graded_half(lambda x: f(2.0 * s - x), s, s - a, order))

    previous, order, value = attempt(24), 48, attempt(48)
    if abs(value - previous) > _LOG_TOL:
        previous, order, value = value, 96, attempt(96)
        if abs(value - previous) > _LOG_TOL:
            raise ValueError(
                "quad_log_singular did not converge; integrand is likely "
                f"worse than logarithmic at {s} (last delta "
                f"{abs(value - previous):.3e})")
    if stats is not None:
        stats.update(nodes=order, delta=abs(value - previous))
    return value


_PARITY_POWERS = {
    None: lambda d: list(range(d + 1)),
    "even": lambda d: list(range(0, d + 1, 2)),
    "odd": lambda d: list(range(1, d + 1, 2)),
    "odd_const": lambda d: [0] + list(range(1, d + 1, 2)),
}


def endpoint_derivative(profile: RadialProfile, order: int, fit_degree: int,
                        parity: str | None = None):
    """Least-squares polynomial fit of a profile; returns (d^order at 0, residual).

    The grid is rescaled to [-1, 1] before fitting and the system is solved
    by orthogonal decomposition (never normal equations). The residual is the
    rms misfit normalized by the rms of the data, a conditioning diagnostic.
    """
    if fit_degree < order + 1:
        raise ValueError("fit_degree must be at least order + 1")
    if profile.grid.size < fit_degree + 4:
        raise ValueError("grid must contain at least fit_degree + 4 points")
    try:
        powers = _PARITY_POWERS[parity](fit_degree)
    except KeyError:
        raise ValueError(f"unknown parity {parity!r}") from None
    if order not in powers:
        raise ValueError(f"order {order} not representable in parity {parity!r} basis")

    scale = float(np.max(np.abs(profile.grid)))
    if scale == 0.0:
        raise ValueError("degenerate grid")
    x = profile.grid / scale
    design = np.column_stack([x ** p for p in powers])
    coef, _, rank, _ = np.linalg.lstsq(design, profile.values, rcond=None)
    if rank < len(powers):
        raise ValueError("rank-deficient fit design (duplicate grid points?)")
    misfit = profile.values - design @ coef
    norm = max(1.0, float(np.linalg.norm(profile.values)))
    residual = float(np.linalg.norm(misfit)) / norm
    c = coef[powers.index(order)]
    value = math.factorial(order) * c / scale ** order
    return float(value), residual


@lru_cache(maxsize=None)
def sphere_rule(m: int, polar_nodes: int = 64):
    """Product quadrature on the unit sphere S^m in R^(m+1).

    Returns (points, weights) with points of shape (N, m+1), N = 2 p^m for
    m >= 1; the weights sum to the surface area sigma_m. Built recursively:
    2p trapezoid nodes in the final azimuth (spectrally accurate for periodic
    integrands), p Gauss-Legendre nodes in each polar angle against the
    sin^(m-1) factor.
    """
    if m < 0:
        raise ValueError("sphere dimension must be nonnegative")
    azimuth_nodes = 2 * polar_nodes
    if m == 0:
        pts = np.array([[1.0], [-1.0]])
        wts = np.array([1.0, 1.0])
    elif m == 1:
        ang = 2.0 * np.pi * np.arange(azimuth_nodes) / azimuth_nodes
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        wts = np.full(azimuth_nodes, 2.0 * np.pi / azimuth_nodes)
    else:
        sub_pts, sub_wts = sphere_rule(m - 1, polar_nodes)
        phi, wphi = gl_nodes(0.0, np.pi, polar_nodes)
        sin_phi = np.sin(phi)
        pts = np.concatenate(
            [sin_phi[:, None, None] * sub_pts[None, :, :],
             np.broadcast_to(np.cos(phi)[:, None, None],
                             (phi.size, sub_pts.shape[0], 1))],
            axis=2).reshape(-1, m + 1)
        wts = (wphi * sin_phi ** (m - 1))[:, None] * sub_wts[None, :]
        wts = wts.reshape(-1)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


@lru_cache(maxsize=None)
def zonal_rule(m: int, polar_nodes: int = 64):
    """Gauss-Gegenbauer rule for the cosine u to a fixed axis on S^m, m >= 1.

    Returns (nodes, weights) of the p-node Gauss rule on (-1, 1) for the
    weight (1 - u^2)^((m-2)/2), the law of u under the normalised measure of
    S^m; the weights sum to 1. By the Funk-Hecke formula the mean of a zonal
    function h(u) over S^m is sum_j w_j h(u_j), exact for polynomials of
    degree below 2p. Built by Golub-Welsch from the Gegenbauer recurrence;
    m = 1 is Gauss-Chebyshev, whose first coefficient 1/2 the general formula
    leaves as 0/0.
    """
    if m < 1:
        raise ValueError("zonal rule needs a sphere of dimension >= 1")
    # the Jacobi matrix is dense: cap it where gauss_legendre caps its order
    if not 1 <= polar_nodes <= RULE_MAX_ORDER:
        raise ValueError(f"zonal rule order must be in [1, {RULE_MAX_ORDER}],"
                         f" got {polar_nodes}")
    j = np.arange(1.0, polar_nodes)
    if m == 1:
        b = np.full(j.size, 0.25)
        b[:1] = 0.5
    else:
        a2 = m - 2.0
        b = j * (j + a2) / ((2.0 * j + a2) ** 2 - 1.0)
    off = np.sqrt(b)
    x, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    # symmetrize against roundoff so that odd moments vanish exactly
    x = 0.5 * (x - x[::-1])
    w = vecs[0] ** 2
    w = w + w[::-1]
    w /= w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
