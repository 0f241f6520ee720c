"""Forward geodesic Radon transforms and the spherical-mean families."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import ScalarField
from .geometry import (Geodesic, Point, Space, _rowdot, check_distance,
                       sphere_area)
from .numerics import gl_nodes, zonal_rule

__all__ = [
    "radon_forward",
    "spherical_mean",
    "tilde_mean",
]


def spherical_mean(space: Space, f: ScalarField, x: Point, t,
                   polar_nodes: int = 64):
    """Normalized mean of f over the geodesic sphere / planar section at t.

    Euclidean: average of f(x + t theta) over directions (t >= 0).
    Sphere: mean over the section {x . y = t}, -1 < t <= 1.
    Hyperbolic: mean over {[x, y] = t}, t >= 1. The t = 1 (sphere/hyperbolic)
    endpoint is the degenerate section {x}, where the mean is f(x).
    Vectorized over a 1-d array of t values. On the section at t the profile
    variable is q = alpha + beta u, affine in the cosine u of the angle to
    the axis, so the mean is that of h over the polar_nodes-node `zonal_rule`
    (Funk-Hecke).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    scalar_in = np.ndim(t) == 0
    if space.is_euclidean and np.any(t_arr < 0.0):
        raise ValueError("euclidean mean requires t >= 0")
    if space.is_sphere and (np.any(t_arr <= -1.0) or np.any(t_arr > 1.0)):
        raise ValueError("sphere mean requires -1 < t <= 1")
    if space.is_hyperbolic and np.any(t_arr < 1.0):
        raise ValueError("hyperbolic mean requires t >= 1")
    axis, h = f.zonal
    u, w = zonal_rule(space.n - 1, polar_nodes)
    model = space.curvature
    if space.is_euclidean:
        d = float(np.linalg.norm(x.coords - axis))
        alpha, beta = d * d + t_arr * t_arr, 2.0 * d * t_arr
    else:
        # the section at t is the geodesic sphere of radius sn with cs = t
        c = model.form(x.coords, axis)
        alpha = t_arr * c
        beta = np.sqrt(np.maximum(0.0, model.kappa * (1.0 - t_arr * t_arr))) \
            * math.sqrt(max(0.0, model.kappa * (1.0 - c * c)))
    vals = h(alpha[:, None] + beta[:, None] * u[None, :]) @ w
    return float(vals[0]) if scalar_in else vals


def tilde_mean(space: Space, f: ScalarField, x: Point, t,
               polar_nodes: int = 64):
    """Means reparameterized by the distance value t = sn(rho) and divided
    by cs(rho), with t -> 0 limit f(x) in all three spaces."""
    t = np.asarray(t, dtype=float)
    check_distance(space, t)
    model = space.curvature
    rho = model.asn(t)
    return spherical_mean(space, f, x, model.mean_t(rho), polar_nodes) \
        / model.cs(rho)


def radon_forward(space: Space, f: ScalarField, xi: Geodesic,
                  nodes: int = 96) -> float:
    """Integral of f over the geodesic submanifold with its canonical measure:
    Lebesgue on the k-plane, Lebesgue on the great k-sphere, invariant
    (hyperbolic volume) measure on the geodesic H^k.

    f = h(q) about the axis a is constant on every geodesic sphere of the
    submanifold about the point nearest a, so it is integrated in one
    dimension, evaluating f along one curve: `_zonal_ray_forward` on R^n and
    H^n, `_zonal_sphere_forward` on S^n.
    """
    if space.is_sphere:
        return _zonal_sphere_forward(space, f, xi, nodes)
    if not math.isfinite(f.decay_scale):
        raise ValueError("non-integrable field: no finite decay radius")
    return _zonal_ray_forward(space, f, xi, nodes)


@lru_cache(maxsize=None)
def _unit_radial_rule(nodes: int):
    # the 3-panel nodes-point Gauss-Legendre rule on [0, 1], scaled to each
    # zonal forward transform's radial interval
    x, w = gl_nodes(0.0, 1.0, nodes, panels=3)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _zonal_ray_forward(space: Space, f: ScalarField, xi: Geodesic,
                       nodes: int) -> float:
    """radon_forward on R^n or H^n.

    f is constant on every sphere of the submanifold about the foot p of a,
    so in geodesic polar coordinates about p the integral is
    sigma_(k-1) int f(cs(delta) p + sn(delta) t) sn(delta)^(k-1) d delta
    along one unit tangent t at p, up to the radius decay_scale + d0 + 0.5
    for the distance d0 from a to p.
    """
    k, model = space.k, space.curvature
    axis, b = f.zonal[0], xi.basis
    if space.is_euclidean:
        v = axis - xi.offset
        perp = v - b @ (b.T @ v)
        p, t, d0 = axis - perp, b[:, 0], math.sqrt(float(perp @ perp))
    else:
        # the components c = [b_j, a] along xi's basis (timelike last)
        # combine into the projection of a onto xi, whose Lorentz norm is
        # the cosh of the distance from a to its foot p
        form = model.form
        c = form(b.T, axis)
        proj = b[:, k] * c[k] - b[:, :k] @ c[:k]
        q = float(form(proj, proj))
        if q < 1.0 - 1e-10:
            raise ValueError(
                "degenerate projection onto the geodesic subspace")
        cosh_d0 = math.sqrt(max(1.0, q))
        p = proj / cosh_d0
        # b_0 less its component [b_0, p] = c_0 / cosh d0 along p has
        # Lorentz norm sqrt(1 + [b_0, p]^2)
        s = c[0] / cosh_d0
        t = (b[:, 0] - s * p) / math.sqrt(1.0 + s * s)
        d0 = math.acosh(cosh_d0)
    length = f.decay_scale + d0 + 0.5
    x, wx = _unit_radial_rule(nodes)
    deltas = length * x
    sn = model.sn(deltas)
    ray = np.multiply.outer(sn, t)
    ray += np.multiply.outer(model.cs(deltas), p)
    vals = f(ray)
    # f must be negligible on the outermost sphere of the radial rule
    if sphere_area(k - 1) * sn[-1] ** (k - 1) * abs(vals[-1]) > 1e-8:
        raise ValueError("truncation tail too large; field decays too slowly")
    return sphere_area(k - 1) * length * float((wx * sn ** (k - 1)) @ vals)


@lru_cache(maxsize=None)
def _meridian_rule(m: int, nodes: int):
    # `zonal_rule(m, nodes)` as the points (u_j, sqrt(1 - u_j^2)) of a
    # half circle, with its weights
    u, w = zonal_rule(m, nodes)
    pts = np.column_stack([u, np.sqrt(1.0 - u * u)])
    pts.flags.writeable = False
    return pts, w


def _zonal_sphere_forward(space: Space, f: ScalarField, xi: Geodesic,
                          nodes: int) -> float:
    """radon_forward on S^n.

    With c = B^T a, f(B omega) = h(c . omega) on the great k-sphere depends
    only on the cosine u of omega to c, so by Funk-Hecke the integral is
    sigma_k sum_j w_j f(B omega_j) over the nodes-node `zonal_rule(k, nodes)`,
    with omega_j the point of cosine u_j on one meridian from c.
    """
    b = xi.basis
    c = b.T @ f.zonal[0]
    norm = math.sqrt(float(c @ c))
    pole = c / norm if norm > 0.0 else np.eye(c.size)[0]
    # the coordinate axis least aligned with the pole, less its component
    # along the pole, normalized
    i = int(np.argmin(np.abs(pole)))
    side = -pole[i] * pole
    side[i] += 1.0
    side /= math.sqrt(1.0 - pole[i] * pole[i])
    half_circle, w = _meridian_rule(space.k, nodes)
    pts = half_circle @ (np.stack([pole, side]) @ b.T)
    return sphere_area(space.k) * float(w @ f(pts))


def _zonal_forwards(space: Space, f: ScalarField, bases: np.ndarray,
                    offsets: np.ndarray | None, nodes: int) -> np.ndarray:
    """`radon_forward` over a stack of geodesics: bases (N, dim, cols) and,
    on R^n, offsets (N, dim); None on S^n and H^n.

    The same one-dimensional integrals and refusals as `_zonal_ray_forward`
    and `_zonal_sphere_forward`, row by row, with f evaluated once: on the
    (N, 3 nodes, dim) stack of rays, or the (N, nodes, dim) stack of
    meridians on S^n. A stack holding one refused geodesic is refused.
    """
    axis = f.zonal[0]
    bt = np.swapaxes(bases, -1, -2)
    k, model = space.k, space.curvature
    if space.is_sphere:
        c = bt @ axis
        norm = np.sqrt(_rowdot(c, c))
        pole = c / np.where(norm > 0.0, norm, 1.0)[:, None]
        pole[norm == 0.0] = np.eye(c.shape[-1])[0]
        rows = np.arange(pole.shape[0])
        i = np.argmin(np.abs(pole), axis=-1)
        pole_i = pole[rows, i]
        side = -pole_i[:, None] * pole
        side[rows, i] += 1.0
        side /= np.sqrt(1.0 - pole_i * pole_i)[:, None]
        half_circle, w = _meridian_rule(k, nodes)
        pts = half_circle @ (np.stack([pole, side], axis=1) @ bt)
        return sphere_area(k) * _rowdot(f(pts), w)
    if not math.isfinite(f.decay_scale):
        raise ValueError("non-integrable field: no finite decay radius")
    if space.is_euclidean:
        v = axis - offsets
        perp = v - (bases @ (bt @ v[..., None]))[..., 0]
        p, t, d0 = axis - perp, bases[..., 0], np.sqrt(_rowdot(perp, perp))
    else:
        c = model.form(bt, axis)
        proj = bases[..., k] * c[:, k, None] \
            - (bases[..., :k] @ c[:, :k, None])[..., 0]
        q = _rowdot(proj, model.signature(proj.shape[-1]) * proj)
        if np.any(q < 1.0 - 1e-10):
            raise ValueError(
                "degenerate projection onto the geodesic subspace")
        cosh_d0 = np.sqrt(np.maximum(1.0, q))
        p = proj / cosh_d0[:, None]
        s = c[:, 0] / cosh_d0
        t = (bases[..., 0] - s[:, None] * p) / np.sqrt(1.0 + s * s)[:, None]
        # math.acosh, as in `_zonal_ray_forward`: np.arccosh can differ by
        # an ulp
        d0 = np.array([math.acosh(v) for v in cosh_d0.tolist()])
    length = f.decay_scale + d0 + 0.5
    x, wx = _unit_radial_rule(nodes)
    deltas = length[:, None] * x
    sn = model.sn(deltas)
    ray = sn[..., None] * t[:, None, :]
    ray += model.cs(deltas)[..., None] * p[:, None, :]
    vals = f(ray)
    if np.any(sphere_area(k - 1) * sn[:, -1] ** (k - 1) * np.abs(vals[:, -1])
              > 1e-8):
        raise ValueError("truncation tail too large; field decays too slowly")
    return sphere_area(k - 1) * length * _rowdot(wx * sn ** (k - 1), vals)
