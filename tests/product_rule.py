"""The product-rule oracle of the zonal paths.

`spherical_mean` and `radon_forward` integrate a field's profile h in one
dimension (Funk-Hecke). The integrators here read the field only through
its values, f(y) at the points of the product rule `sphere_rule`, and so
check the one-dimensional paths in low dimension: 2 p^m directions on S^m
against p nodes.
"""

from __future__ import annotations

import math

import numpy as np

from georadon.geometry import sphere_area, transport_to
from georadon.numerics import gl_nodes, sphere_rule


def _on_spheres(f, frame: np.ndarray, polar_nodes: int, center: np.ndarray,
                a: np.ndarray, b: np.ndarray):
    # f(a_i center + b_i frame theta) as a (radii i, directions theta) array
    # over the `sphere_rule` of the sphere of frame's columns, and its weights
    dirs, w = sphere_rule(frame.shape[1] - 1, polar_nodes)
    pts = (a[:, None, None] * center[None, None, :]
           + b[:, None, None] * (dirs @ frame.T)[None, :, :])
    return f(pts), w


def product_mean(space, f, x, t, polar_nodes: int = 64) -> np.ndarray:
    """`spherical_mean` of f at a 1-d array of t-values, averaging f over
    the 2 polar_nodes^(n-1) directions of the product rule on each section:
    the sphere of radius t about x on R^n, and on S^n and H^n the geodesic
    sphere with cs = t, of radius sn = sqrt(kappa (1 - t^2))."""
    t_arr = np.asarray(t, dtype=float)
    if space.is_euclidean:
        frame, a, b = np.eye(space.n), np.ones_like(t_arr), t_arr
    else:
        frame = transport_to(space, x)[:, :space.n]
        a = t_arr
        b = np.sqrt(np.maximum(0.0, space.curvature.kappa
                               * (1.0 - t_arr * t_arr)))
    vals, w = _on_spheres(f, frame, polar_nodes, x.coords, a, b)
    return vals @ w / sphere_area(space.n - 1)


def _hyperbolic_frame(space, xi, anchor: np.ndarray):
    # the point p of xi nearest to `anchor`, k spacelike unit vectors that
    # complete it to a Lorentz-orthonormal frame of xi, and the distance
    # from anchor to p
    b, k = xi.basis, space.k
    form = space.curvature.form
    c = form(b.T, anchor)
    proj = b[:, k] * c[k] - b[:, :k] @ c[:k]
    cosh_d0 = math.sqrt(max(1.0, float(form(proj, proj))))
    p = proj / cosh_d0
    vs = []
    for i in range(k):
        v = b[:, i] - form(b[:, i], p) * p
        for prev in vs:
            v = v + form(v, prev) * prev
        vs.append(v / math.sqrt(max(0.0, -form(v, v))))
    return p, np.column_stack(vs), math.acosh(cosh_d0)


def polar_forward(space, f, xi, nodes: int = 96) -> float:
    """`radon_forward` of f from its values alone.

    On S^n: the product rule `sphere_rule(k, nodes)` of the great k-sphere
    over the geodesic's basis. On R^n and H^n: geodesic polar coordinates
    y = cs(delta) p + sn(delta) theta about the foot p of f's axis, at
    distance d0 from it, with 3 x nodes Gauss-Legendre radii up to
    decay_scale + d0 + 0.5, the directions of `sphere_rule(k - 1, nodes)` and
    the volume sn(delta)^(k-1).
    """
    if space.is_sphere:
        z, w = sphere_rule(space.k, nodes)
        return float(np.dot(w, f(z @ xi.basis.T)))
    k, model = space.k, space.curvature
    anchor = f.zonal[0]
    if space.is_euclidean:
        b, u = xi.basis, xi.offset
        p = u + b @ (b.T @ (anchor - u))
        frame, d0 = b, float(np.linalg.norm(anchor - p))
    else:
        p, frame, d0 = _hyperbolic_frame(space, xi, anchor)
    deltas, wd = gl_nodes(0.0, f.decay_scale + d0 + 0.5, nodes, panels=3)
    sn = model.sn(deltas)
    vals, wo = _on_spheres(f, frame, nodes, p, model.cs(deltas), sn)
    # f must be negligible on the outermost ring of the radial rule
    if sphere_area(k - 1) * sn[-1] ** (k - 1) * np.max(np.abs(vals[-1])) \
            > 1e-8:
        raise ValueError("truncation tail too large; field decays too slowly")
    return float((wd * sn ** (k - 1)) @ vals @ wo)
