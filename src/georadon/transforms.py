"""Forward geodesic Radon transforms and the spherical-mean families."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import ScalarField
from .geometry import (Geodesic, Point, Space, base_point, check_distance,
                       sphere_area, transport_to)
from .numerics import RULE_MAX_ORDER, gl_nodes, sphere_rule, zonal_rule

__all__ = [
    "radon_forward",
    "spherical_mean",
    "tilde_mean",
]

# refuse a product-rule request whose `sphere_rule`, or whose block of
# float64 points or values over it, would exceed this many bytes
MEAN_BLOCK_BYTES = 1 << 30


def bounded_sphere_rule(m: int, polar_nodes: int, rows: int, unit: str,
                        cols: int, knob: str):
    """`sphere_rule(m, polar_nodes)`, refused before it is built when it or a
    block of rows x its directions x cols float64 exceeds MEAN_BLOCK_BYTES."""
    n_dirs = 2 * polar_nodes ** m
    nbytes = 8 * n_dirs * max(rows * cols, m + 2)
    if nbytes > MEAN_BLOCK_BYTES:
        raise ValueError(
            f"{rows} {unit} x {n_dirs} directions x {cols} coordinates need "
            f"{nbytes / 2 ** 30:.2f} GiB, over {MEAN_BLOCK_BYTES / 2 ** 30:.2f}"
            f" GiB; use a smaller {knob} than {polar_nodes}")
    return sphere_rule(m, polar_nodes)


def _on_spheres(f: ScalarField, frame: np.ndarray, polar_nodes: int,
                center: np.ndarray, a: np.ndarray, b: np.ndarray, unit: str,
                knob: str):
    # f(a_i center + b_i frame theta) as a (radii i, directions theta) array
    # over the `sphere_rule` of the sphere of frame's columns, and its weights
    dirs, w = bounded_sphere_rule(frame.shape[1] - 1, polar_nodes, b.size,
                                  unit, center.size, knob)
    pts = (a[:, None, None] * center[None, None, :]
           + b[:, None, None] * (dirs @ frame.T)[None, :, :])
    return f(pts), w


def spherical_mean(space: Space, f: ScalarField, x: Point, t,
                   polar_nodes: int = 64):
    """Normalized mean of f over the geodesic sphere / planar section at t.

    Euclidean: average of f(x + t theta) over directions (t >= 0).
    Sphere: mean over the section {x . y = t}, -1 < t <= 1.
    Hyperbolic: mean over {[x, y] = t}, t >= 1. The t = 1 (sphere/hyperbolic)
    endpoint is the degenerate section {x}, where the mean is f(x).
    Vectorized over a 1-d array of t values. A field with a zonal profile is
    averaged over the polar_nodes-node `zonal_rule`; any other field over the
    2 polar_nodes^(n-1) directions of `sphere_rule`.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    scalar_in = np.ndim(t) == 0
    if space.is_euclidean and np.any(t_arr < 0.0):
        raise ValueError("euclidean mean requires t >= 0")
    if space.is_sphere and (np.any(t_arr <= -1.0) or np.any(t_arr > 1.0)):
        raise ValueError("sphere mean requires -1 < t <= 1")
    if space.is_hyperbolic and np.any(t_arr < 1.0):
        raise ValueError("hyperbolic mean requires t >= 1")
    mean = _product_mean if f.zonal is None else _zonal_mean
    vals = mean(space, f, x, t_arr, polar_nodes)
    return float(vals[0]) if scalar_in else vals


def _section_radius(space: Space, t_arr: np.ndarray) -> np.ndarray:
    # the curved section at t is the geodesic sphere of radius sn with cs = t
    kappa = space.curvature.kappa
    return np.sqrt(np.maximum(0.0, kappa * (1.0 - t_arr * t_arr)))


def _zonal_mean(space: Space, f: ScalarField, x: Point, t_arr: np.ndarray,
                polar_nodes: int) -> np.ndarray:
    # on the section at t the profile variable is q = alpha + beta u, affine
    # in the cosine u of the angle to the axis (Funk-Hecke)
    axis, h = f.zonal
    u, w = zonal_rule(space.n - 1, polar_nodes)
    model = space.curvature
    if space.is_euclidean:
        d = float(np.linalg.norm(x.coords - axis))
        alpha, beta = d * d + t_arr * t_arr, 2.0 * d * t_arr
    else:
        c = model.form(x.coords, axis)
        alpha = t_arr * c
        beta = _section_radius(space, t_arr) \
            * math.sqrt(max(0.0, model.kappa * (1.0 - c * c)))
    return h(alpha[:, None] + beta[:, None] * u[None, :]) @ w


def _product_mean(space: Space, f: ScalarField, x: Point, t_arr: np.ndarray,
                  polar_nodes: int) -> np.ndarray:
    if space.is_euclidean:
        frame, a, b = np.eye(space.n), np.ones_like(t_arr), t_arr
    else:
        frame = transport_to(space, x)[:, :space.n]
        a, b = t_arr, _section_radius(space, t_arr)
    vals, w = _on_spheres(f, frame, polar_nodes, x.coords, a, b, "t-values",
                          "mean_polar")
    return vals @ w / sphere_area(space.n - 1)


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


def _hyperbolic_foot(space: Space, xi: Geodesic, anchor: np.ndarray):
    # the point p of xi nearest to `anchor`, the cosh of its distance from
    # anchor, and the components c = [b_j, anchor] along xi's basis
    # (timelike last), whose signed combination projects anchor onto xi
    b = xi.basis
    k = space.k
    form = space.curvature.form
    c = form(b.T, anchor)
    proj = b[:, k] * c[k] - b[:, :k] @ c[:k]
    q = float(form(proj, proj))
    if q < 1.0 - 1e-10:
        raise ValueError("degenerate projection onto the geodesic subspace")
    cosh_d0 = math.sqrt(max(1.0, q))
    return proj / cosh_d0, cosh_d0, c


def _hyperbolic_frame(space: Space, xi: Geodesic, anchor: np.ndarray):
    # re-anchor the stored basis at the point of xi nearest to `anchor`:
    # a timelike unit vector plus k spacelike ones, Lorentz-orthogonal
    b = xi.basis
    form = space.curvature.form
    p, cosh_d0, _ = _hyperbolic_foot(space, xi, anchor)
    vs = []
    for i in range(space.k):
        v = b[:, i] - form(b[:, i], p) * p
        for prev in vs:
            v = v + form(v, prev) * prev
        norm = math.sqrt(max(0.0, -form(v, v)))
        vs.append(v / norm)
    return p, np.column_stack(vs), math.acosh(cosh_d0)


def radon_forward(space: Space, f: ScalarField, xi: Geodesic,
                  nodes: int = 96) -> float:
    """Integral of f over the geodesic submanifold with its canonical measure:
    Lebesgue on the k-plane, Lebesgue on the great k-sphere, invariant
    (hyperbolic volume) measure on the geodesic H^k.

    A field with a zonal profile (a, h) is constant on every geodesic sphere
    of the submanifold about the point nearest a, so it is integrated in one
    dimension, evaluating f along one curve: `_zonal_ray_forward` on R^n and
    H^n, `_zonal_sphere_forward` on S^n. Any other field, or on S^n a zonal
    one past the zonal rule's order, takes the product rule of the great
    k-sphere on S^n, and on R^n and H^n polar coordinates about the foot of
    its center over `sphere_rule(k - 1, nodes)`.
    """
    zonal = f.zonal is not None
    if space.is_sphere:
        if zonal and nodes <= RULE_MAX_ORDER:
            return _zonal_sphere_forward(space, f, xi, nodes)
        # the great k-sphere takes the cached product rule over its basis
        z, w = bounded_sphere_rule(space.k, nodes, 1, "sphere",
                                   space.ambient_dim, "node count")
        return float(np.dot(w, f(z @ xi.basis.T)))
    if not math.isfinite(f.decay_scale):
        raise ValueError("non-integrable field: no finite decay radius")
    if zonal:
        return _zonal_ray_forward(space, f, xi, nodes)
    k, model = space.k, space.curvature
    anchor = f.center if f.center is not None else base_point(space).coords
    if space.is_euclidean:
        b, u = xi.basis, xi.offset
        p = u + b @ (b.T @ (anchor - u))
        frame, d0 = b, float(np.linalg.norm(anchor - p))
    else:
        p, frame, d0 = _hyperbolic_frame(space, xi, anchor)
    # polar coordinates y = cs(delta) p + sn(delta) theta about the foot p of
    # the center, at distance d0 from it, with volume sn(delta)^(k-1)
    deltas, wd = gl_nodes(0.0, f.decay_scale + d0 + 0.5, nodes, panels=3)
    sn = model.sn(deltas)
    vals, wo = _on_spheres(f, frame, nodes, p, model.cs(deltas), sn, "radii",
                           "node count")
    _check_tail(k, sn[-1], np.max(np.abs(vals[-1])))
    radial = wd * sn ** (k - 1)
    return float(radial @ vals @ wo)


def _check_tail(k: int, sn_last: float, peak: float) -> None:
    # f must be negligible on the outermost ring of the radial rule
    if sphere_area(k - 1) * sn_last ** (k - 1) * peak > 1e-8:
        raise ValueError("truncation tail too large; field decays too slowly")


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
    """radon_forward on R^n or H^n of a field with a zonal profile (a, h).

    f is constant on every sphere of the submanifold about the foot p of a,
    so the polar integral is sigma_(k-1) int f(cs(delta) p + sn(delta) t)
    sn(delta)^(k-1) d delta along one unit tangent t at p, over the radii
    of the polar integrator.
    """
    k, model = space.k, space.curvature
    axis, b = f.zonal[0], xi.basis
    if space.is_euclidean:
        v = axis - xi.offset
        perp = v - b @ (b.T @ v)
        p, t, d0 = axis - perp, b[:, 0], math.sqrt(float(perp @ perp))
    else:
        p, cosh_d0, c = _hyperbolic_foot(space, xi, axis)
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
    _check_tail(k, sn[-1], abs(vals[-1]))
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
    """radon_forward on S^n of a field with a zonal profile (a, h).

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
