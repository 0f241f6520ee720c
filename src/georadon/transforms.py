"""Forward geodesic Radon transforms and the spherical-mean families."""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField
from .geometry import (Geodesic, Point, Space, base_point, check_distance,
                       sphere_area, transport_to)
from .numerics import gl_nodes, sphere_rule, zonal_rule

__all__ = [
    "radon_forward",
    "spherical_mean",
    "tilde_mean",
]

# refuse a spherical-mean request whose (t, direction, coordinate) block of
# float64 points would exceed this many bytes
MEAN_BLOCK_BYTES = 1 << 30


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
    dirs, w = sphere_rule(space.n - 1, polar_nodes)
    n_dirs = dirs.shape[0]
    nbytes = 8 * t_arr.size * n_dirs * space.ambient_dim
    if nbytes > MEAN_BLOCK_BYTES:
        raise ValueError(
            f"spherical mean of {t_arr.size} t-values x {n_dirs} directions x "
            f"{space.ambient_dim} coordinates needs {nbytes / 2 ** 30:.2f} GiB, "
            f"over {MEAN_BLOCK_BYTES / 2 ** 30:.2f} GiB; use a smaller "
            f"mean_polar than {polar_nodes}")
    area = sphere_area(space.n - 1)
    if space.is_euclidean:
        pts = x.coords[None, None, :] + t_arr[:, None, None] * dirs[None, :, :]
    else:
        s = _section_radius(space, t_arr)
        local = np.empty((t_arr.size, dirs.shape[0], space.n + 1))
        local[:, :, :space.n] = s[:, None, None] * dirs[None, :, :]
        local[:, :, space.n] = t_arr[:, None]
        pts = local @ transport_to(space, x).T
    return f(pts) @ w / area


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


def _euclidean_forward(space: Space, f: ScalarField, xi: Geodesic,
                       nodes: int) -> float:
    if not math.isfinite(f.decay_scale):
        raise ValueError("non-integrable field: no finite decay radius")
    b, u = xi.basis, xi.offset
    k = space.k
    center = f.center if f.center is not None else np.zeros(space.n)
    s0 = b.T @ (center - u)
    half = f.decay_scale + 0.5
    grids = []
    wgts = []
    for i in range(k):
        xs, ws = gl_nodes(s0[i] - half, s0[i] + half, nodes, panels=2)
        grids.append(xs)
        wgts.append(ws)
    mesh = np.meshgrid(*grids, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    pts = u[None, :] + coords @ b.T
    vals = f(pts)
    wmesh = np.meshgrid(*wgts, indexing="ij")
    wprod = np.ones_like(wmesh[0])
    for wm in wmesh:
        wprod = wprod * wm
    # truncation-tail estimate: the integrand on the box boundary must be
    # negligible or the decay assumption is violated
    shape = tuple(g.size for g in grids)
    grid_vals = vals.reshape(shape)
    boundary = 0.0
    for axis in range(k):
        boundary = max(boundary,
                       float(np.max(np.abs(np.take(grid_vals, 0, axis=axis)))),
                       float(np.max(np.abs(np.take(grid_vals, -1, axis=axis)))))
    if boundary * (2.0 * half) ** max(k - 1, 0) * 2 * k > 1e-8:
        raise ValueError("truncation tail too large; field decays too slowly")
    return float(np.dot(wprod.ravel(), vals))


def _sphere_forward(space: Space, f: ScalarField, xi: Geodesic,
                    nodes: int) -> float:
    z, w = sphere_rule(space.k, nodes)
    return float(np.dot(w, f(z @ xi.basis.T)))


def _hyperbolic_frame(space: Space, xi: Geodesic, anchor: np.ndarray):
    # re-anchor the stored basis at the point of xi nearest to `anchor`:
    # a timelike unit vector plus k spacelike ones, Lorentz-orthogonal
    b = xi.basis
    k = space.k
    form = space.curvature.form
    comp = form(b.T, anchor)
    proj = b[:, k] * comp[k] - b[:, :k] @ comp[:k]
    q = float(form(proj, proj))
    if q < 1.0 - 1e-10:
        raise ValueError("degenerate projection onto the geodesic subspace")
    p = proj / math.sqrt(max(1.0, q))
    d0 = math.acosh(max(1.0, math.sqrt(max(1.0, q))))
    vs = []
    for i in range(k):
        v = b[:, i] - form(b[:, i], p) * p
        for prev in vs:
            v = v + form(v, prev) * prev
        norm = math.sqrt(max(0.0, -form(v, v)))
        vs.append(v / norm)
    return p, np.column_stack(vs), d0


def _hyperbolic_forward(space: Space, f: ScalarField, xi: Geodesic,
                        nodes: int) -> float:
    if not math.isfinite(f.decay_scale):
        raise ValueError("non-integrable field: no finite decay radius")
    k = space.k
    anchor = f.center if f.center is not None else base_point(space).coords
    p, vs, d0 = _hyperbolic_frame(space, xi, anchor)
    dmax = f.decay_scale + d0 + 0.5
    deltas, wd = gl_nodes(0.0, dmax, nodes, panels=3)
    dirs, wo = sphere_rule(k - 1, nodes)
    # y = cosh(delta) p + sinh(delta) (dirs . vs), volume sinh^(k-1)
    pts = (np.cosh(deltas)[:, None, None] * p[None, None, :]
           + np.sinh(deltas)[:, None, None] * (dirs @ vs.T)[None, :, :])
    vals = f(pts)
    radial = wd * np.sinh(deltas) ** (k - 1)
    return float(radial @ vals @ wo)


def radon_forward(space: Space, f: ScalarField, xi: Geodesic,
                  nodes: int = 96) -> float:
    """Integral of f over the geodesic submanifold with its canonical measure:
    Lebesgue on the k-plane, Lebesgue on the great k-sphere, invariant
    (hyperbolic volume) measure on the geodesic H^k."""
    if space.is_euclidean:
        return _euclidean_forward(space, f, xi, nodes)
    if space.is_sphere:
        return _sphere_forward(space, f, xi, nodes)
    return _hyperbolic_forward(space, f, xi, nodes)
