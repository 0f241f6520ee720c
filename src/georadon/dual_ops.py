"""Shifted dual transforms, the weighted-dual identity, the sgn/log-weighted
dual operators, and the endpoint helper integral.

The operator values are assembled from the one-dimensional reductions through
spherical means: a polynomial-in-r part built from fixed moment integrals of
the mean line, plus a cusp integral over (0, r), plus (odd k) an r-independent
log moment. This matches the pointwise kernel quadrature but is far better
conditioned near r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constants import _sign, c_k_value, theta_poly_coeffs, theta_sinh
from .fields import ScalarField
from .geometry import (Geodesic, Point, Space, _distances_rho,
                       _embed_stabilizer, _haar_from_normals, _rowdot,
                       center_distance, check_distance, g_theta,
                       geodesics_at_distance, haar_orthogonal, haar_stabilizer,
                       point, sphere_area, transport_to)
from .kernels import psi_poly_coeffs
from .numerics import gl_nodes, quad_log_singular
from .transforms import _zonal_forwards, spherical_mean, tilde_mean

__all__ = [
    "DualConfig",
    "McEstimate",
    "BothSides",
    "dual_shifted_mc",
    "dual_shifted_mean",
    "weighted_dual_both_sides",
    "l_star_profile",
    "l_tilde_star_profile",
    "Lambda_r",
    "z_score",
]


@dataclass
class DualConfig:
    """Numeric settings for the dual-transform machinery.

    mean_polar is the node count p of `spherical_mean`: the mean of a
    field's profile over p Gauss-Gegenbauer nodes, in any dimension.
    """

    mc_samples: int = 4000
    quad_nodes: int = 96
    truncation: float | None = None  # upper limit replacing infinity
    seed: int = 0
    mean_polar: int = 64
    forward_nodes: int = 64

    def __post_init__(self):
        if self.mc_samples < 100:
            raise ValueError("mc_samples must be at least 100")
        if self.quad_nodes < 8:
            raise ValueError("quad_nodes must be at least 8")


class McEstimate(NamedTuple):
    value: float
    stderr: float


class BothSides(NamedTuple):
    lhs: float
    lhs_stderr: float
    rhs: float


# Monte Carlo draws are built this many at a time, so their rotation stacks,
# geodesics and the weighted dual's point stacks (MC_BLOCK x 3 forward_nodes
# rows) take bounded memory at any sample count; consecutive blocks consume
# the generator's stream as one stack of all the draws would. 512, not 4096:
# 4096-draw point stacks raised the mc_dual benchmark's peak RSS from
# 113.9 MB to 127.7 MB.
MC_BLOCK = 512


def _blocks(total: int):
    for start in range(0, total, MC_BLOCK):
        yield min(MC_BLOCK, total - start)


def _mc_estimate(vals, count: int) -> McEstimate:
    """Mean and standard error of `count` Monte Carlo values from an
    iterable."""
    vals = np.fromiter(vals, dtype=float, count=count)
    return McEstimate(float(vals.mean()),
                      float(vals.std(ddof=1) / math.sqrt(vals.size)))


def z_score(value: float, stderr: float, reference: float):
    """(z, passed) of a Monte Carlo value against its reference: |z| < 3, or,
    when the stderr is roundoff (all draws equal), agreement to 1e-10."""
    if stderr <= 1e-12 * max(1.0, abs(value)):
        return 0.0, abs(value - reference) <= 1e-10 * max(1.0, abs(reference))
    z = (value - reference) / stderr
    return z, abs(z) < 3.0


def _radial_cap(space: Space, f: ScalarField, x: Point, cfg: DualConfig) -> float:
    """Geodesic radius around x beyond which the means of f are negligible,
    at most the diameter of the space (pi on the sphere)."""
    model = space.curvature
    diameter = model.folds * model.rho_max
    if cfg.truncation is not None:
        return min(cfg.truncation, diameter)
    if math.isfinite(f.decay_scale):
        return min(f.decay_scale
                   + center_distance(space, x.coords, f.zonal[0]) + 0.25,
                   diameter)
    if math.isfinite(diameter):
        return diameter
    raise ValueError("field without decay needs an explicit truncation")


def dual_shifted_mean(space: Space, f: ScalarField, x: Point, r: float,
                      cfg: DualConfig | None = None) -> float:
    """R*_r applied to the forward transform of f, via the mean reduction.

    Every geodesic at distance theta = asn(r) from x meets the perpendicular
    from x at a foot point; its points at distance v from the foot lie at
    the hypotenuse distance of the right triangle (theta, v) from x, so
    R*_r = sig_{k-1} int M(hypot_t(theta, v)) sn(v)^(k-1) dv. On R^n this is
    the substitution t = sqrt(r^2 + v^2) of the t-integral; on S^n v runs
    over the whole great k-sphere, (0, pi).
    """
    cfg = cfg or DualConfig()
    check_distance(space, r)
    model = space.curvature
    k = space.k
    theta = float(model.asn(r))
    v_hi = model.leg(_radial_cap(space, f, x, cfg), theta)
    if v_hi == 0.0:
        return 0.0
    v, wv = gl_nodes(0.0, v_hi, cfg.quad_nodes, panels=2)
    vals = spherical_mean(space, f, x, model.hypot_t(theta, v), cfg.mean_polar) \
        * model.sn(v) ** (k - 1)
    return sphere_area(k - 1) * float(np.dot(wv, vals))


def dual_shifted_mc(space: Space, phi: Callable[[Geodesic], float], x: Point,
                    r: float, cfg: DualConfig | None = None) -> McEstimate:
    """Monte Carlo average of phi over geodesics at distance value r from x:
    the stabilizer rotations are drawn as stacks of up to MC_BLOCK."""
    cfg = cfg or DualConfig()
    check_distance(space, r)
    rng = np.random.default_rng(cfg.seed)
    return _mc_estimate(
        (phi(xi) for count in _blocks(cfg.mc_samples)
         for xi in geodesics_at_distance(
             space, x, r, haar_stabilizer(space, rng, count).matrix)),
        cfg.mc_samples)


class _Reduction:
    """Shared moment integrals of the mean line for the operator reductions.

    moments[j] = int_0^hi M(mean_t(rho)) sn(rho)^(k-j) d rho, the integral of
    mtilde(t) t^(k-j) dt in the distance value t = sn(rho). On S^n the radii
    stop at pi/2, and the prefactor counts the far hemisphere as a copy of
    the near one, which holds for even f.
    """

    def __init__(self, space: Space, f: ScalarField, x: Point, cfg: DualConfig,
                 need_log_moment: bool, log_stats: dict | None = None):
        self.cfg = cfg
        k = space.k
        self.k = k
        model = space.curvature
        self.pref = model.folds * space.measure_scale \
            * sphere_area(space.n - k - 1) * sphere_area(k - 1)

        def mt(ts):
            return spherical_mean(space, f, x, ts, cfg.mean_polar)

        hi = min(_radial_cap(space, f, x, cfg), model.rho_max)
        rho, wq = gl_nodes(0.0, hi, cfg.quad_nodes, panels=4)
        mvals = mt(model.mean_t(rho))
        sn = model.sn(rho)
        self.moments = np.array(
            [float(np.dot(wq, mvals * sn ** (k - j))) for j in range(k)])
        self.tilde = lambda ts: tilde_mean(space, f, x, ts, cfg.mean_polar)
        self.log_moment = None
        if need_log_moment:
            def integrand(rho):
                sn = model.sn(rho)
                return mt(model.mean_t(rho)) * sn ** k * np.log(sn)
            self.log_moment = quad_log_singular(integrand, 0.0, hi, s=0.0,
                                                stats=log_stats)

    def cusp_even(self, r: float, coeffs: np.ndarray) -> float:
        # int_0^r mtilde(t) t^k ThetaPoly(r/t) dt; substituting t = r tau turns
        # each u^j kernel term into r^(k+1) int mtilde(r tau) tau^(k-j) dtau
        if r == 0.0:
            return 0.0
        k = self.k
        tau, wt = gl_nodes(0.0, 1.0, self.cfg.quad_nodes, panels=1)
        mv = self.tilde(r * tau)
        out = 0.0
        for j, cj in enumerate(coeffs):
            if cj != 0.0:
                out += cj * float(np.dot(wt, mv * tau ** (k - j)))
        return r ** (k + 1) * out

    @cached_property
    def _odd_nodes(self):
        # the w-rule of cusp_odd and its r-independent factors, built once
        # per reconstruction: theta_sinh integrates numerically at k >= 5
        w, ww = gl_nodes(0.0, 18.0, self.cfg.quad_nodes, panels=3)
        ch = np.cosh(w)
        return ww, ch, theta_sinh(self.k, w), np.sinh(w), ch ** (self.k + 2)

    def cusp_odd(self, r: float) -> float:
        # int_0^r mtilde(t) t^k Theta(r/t) dt via t = r / cosh(w)
        if r == 0.0:
            return 0.0
        ww, ch, theta, sh, ch_pow = self._odd_nodes
        vals = self.tilde(r / ch) * theta * sh / ch_pow
        return r ** (self.k + 1) * float(np.dot(ww, vals))


def l_star_profile(space: Space, f: ScalarField, x: Point, rs,
                   cfg: DualConfig | None = None) -> np.ndarray:
    """Values of the sgn-weighted dual operator on a grid of r (k even)."""
    cfg = cfg or DualConfig()
    k = space.k
    if k % 2 != 0:
        raise ValueError("the sgn operator requires even k")
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    check_distance(space, rs)
    red = _Reduction(space, f, x, cfg, need_log_moment=False)
    theta_c = theta_poly_coeffs(k)
    sign = _sign(k // 2)
    ck = c_k_value(k)
    out = np.empty(rs.size)
    for i, r in enumerate(rs):
        poly = -ck * red.moments[0]
        for j in range(k):
            poly += 2.0 * sign * theta_c[j] * r ** j * red.moments[j]
        out[i] = red.pref * (poly - 2.0 * sign * red.cusp_even(r, theta_c))
    return out


def l_tilde_star_profile(space: Space, f: ScalarField, x: Point, rs,
                         cfg: DualConfig | None = None,
                         log_stats: dict | None = None) -> np.ndarray:
    """Values of the log-weighted dual operator on a grid of r (k odd).

    A `log_stats` dict receives the `quad_log_singular` stats of the log
    moment."""
    cfg = cfg or DualConfig()
    k = space.k
    if k % 2 != 1:
        raise ValueError("the log operator requires odd k")
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    check_distance(space, rs)
    red = _Reduction(space, f, x, cfg, need_log_moment=True,
                     log_stats=log_stats)
    pcoef = psi_poly_coeffs(k)
    a_term = 2.0 * c_k_value(k) * red.log_moment
    sign = _sign((k - 1) // 2)
    out = np.empty(rs.size)
    for i, r in enumerate(rs):
        b_term = 0.0
        for j in range(k):
            b_term += pcoef[j] * r ** j * red.moments[j]
        b_term += math.pi * sign * red.cusp_odd(r)
        out[i] = red.pref * (a_term + b_term)
    return out


def Lambda_r(space: Space, f: ScalarField, x: Point, r: float, k: int,
             cfg: DualConfig | None = None) -> float:
    """int_0^r mtilde_t(x) (r^2 - t^2)^(k/2-1) t dt, via t = r sin(omega)."""
    cfg = cfg or DualConfig()
    check_distance(space, r)
    if r == 0.0:
        return 0.0
    om, wo = gl_nodes(0.0, 0.5 * math.pi, cfg.quad_nodes, panels=1)
    vals = tilde_mean(space, f, x, r * np.sin(om), cfg.mean_polar) \
        * np.cos(om) ** (k - 1) * np.sin(om)
    return r ** k * float(np.dot(wo, vals))


# spread of the Gaussian offset proposal of the Euclidean sampler
_PROPOSAL_STD = 2.5


def _euclidean_draws(space: Space):
    # product-measure sampler: Haar subspace x Gaussian offset, weighted by
    # the inverse proposal density; each row of normals holds one draw's
    # Haar block followed by its offset
    n, k = space.n, space.k
    d = n - k
    log_norm = -0.5 * d * math.log(2.0 * math.pi * _PROPOSAL_STD ** 2)

    def draws(rng, count):
        normals = rng.standard_normal((count, n * n + d))
        qs = _haar_from_normals(normals[:, :n * n].reshape(count, n, n))
        zs = _PROPOSAL_STD * normals[:, n * n:]
        log_w = 0.5 * _rowdot(zs, zs) / _PROPOSAL_STD ** 2 - log_norm
        return (qs[..., :k], (qs[..., k:] @ zs[..., None])[..., 0],
                np.array([math.exp(v) for v in log_w.tolist()]))
    return draws


def _sphere_draws(space: Space):
    # normalized invariant measure on the compact submanifold space
    def draws(rng, count):
        return (haar_orthogonal(space.n + 1, rng, count)[..., :space.k + 1],
                None, np.ones(count))
    return draws


def _hyperbolic_draws(space: Space, x: Point, theta_max: float):
    # invariant measure written around a fixed auxiliary point z != x, with
    # the rapidity density as importance weight; independent of the
    # distance-to-x disintegration under test. Each draw takes its rapidity
    # before the normals of its rotation from one stream, so the draws stay
    # sequential; the QR and the frames of `_geodesic_frames` about z are
    # then built for the whole stack.
    n, k = space.n, space.k
    # the anchor lies at distance 0.8 from the base point, or 1.3 if x is there
    for anchor_dist in (0.8, 1.3):
        z = np.zeros(n + 1)
        z[0], z[-1] = math.sinh(anchor_dist), math.cosh(anchor_dist)
        if not np.allclose(z, x.coords, atol=1e-6):
            break
    transport = transport_to(space, point(space, z))
    sig = sphere_area(n - k - 1)

    def draws(rng, count):
        normals = np.empty((count, n, n))
        boosts = np.empty((count, n + 1, n + 1))
        weights = np.empty(count)
        for i in range(count):
            th = theta_max * rng.random()
            normals[i] = rng.standard_normal((n, n))
            boosts[i] = g_theta(space, -th)
            nu = math.sinh(th) ** (n - k - 1) * math.cosh(th) ** k
            weights[i] = sig * theta_max * nu
        g = _embed_stabilizer(space, _haar_from_normals(normals))
        return (transport @ g @ boosts)[..., n - k:], None, weights
    return draws


def weighted_dual_both_sides(space: Space, f: ScalarField, a, x: Point,
                             cfg: DualConfig | None = None,
                             a_breaks: Sequence[float] = ()) -> BothSides:
    """Both sides of the weighted-dual identity for a radial weight a(rho).

    Left side: Monte Carlo over the submanifold space with an independent
    sampler (never the distance-to-x disintegration). The draws come in
    blocks of up to MC_BLOCK; each block's geodesics are (bases, offsets)
    stacks, whose forward transforms take one `transforms._zonal_forwards`
    call and whose distances to x one stacked product. Only the weight a is
    called per draw, with a Python float. Right side: quadrature
    over the distance theta from x to the geodesic of
    sn^(n-k-1) cs^k a(sn) R*_sn, with sn, cs at theta. `a_breaks` lists
    discontinuities of a (as distance values) for the quadrature split.
    """
    cfg = cfg or DualConfig()
    n, k = space.n, space.k
    model = space.curvature
    hi = min(_radial_cap(space, f, x, cfg) + 1.0, model.rho_max)
    # each sampler draws (bases, offsets, weights) stacks from the invariant
    # measure
    if space.is_euclidean:
        submanifold = _euclidean_draws(space)
    elif space.is_sphere:
        submanifold = _sphere_draws(space)
    else:
        submanifold = _hyperbolic_draws(space, x, hi)
    rng = np.random.default_rng(cfg.seed + 1)

    def block(count):
        bases, offsets, weights = submanifold(rng, count)
        rho = _distances_rho(space, x, bases, offsets)
        return weights \
            * _zonal_forwards(space, f, bases, offsets, cfg.forward_nodes) \
            * np.array([a(r) for r in rho.tolist()])
    lhs = _mc_estimate(
        np.concatenate([block(count) for count in _blocks(cfg.mc_samples)]),
        cfg.mc_samples)
    edges = sorted({0.0, hi, *(float(model.asn(b)) for b in a_breaks
                               if 0.0 < b < model.sn(hi))})
    rhs = 0.0
    for lo, up in zip(edges[:-1], edges[1:]):
        th, wt = gl_nodes(lo, up, cfg.quad_nodes, panels=2)
        vals = [s ** (n - k - 1) * c ** k * a(s)
                * dual_shifted_mean(space, f, x, s, cfg)
                for s, c in zip(model.sn(th), model.cs(th))]
        rhs += float(np.dot(wt, vals))
    rhs *= space.measure_scale * sphere_area(n - k - 1)
    return BothSides(lhs.value, lhs.stderr, rhs)
