"""Evaluatable test functions on the three spaces, with a phantom registry."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import EUCLIDEAN, HYPERBOLIC, SPHERE, Point, Space, base_point

__all__ = ["ScalarField", "PHANTOMS", "make_phantom", "rotate_field",
           "zonal_field"]


@dataclass
class ScalarField:
    """A smooth test function f with its zonal profile (a, h).

    f(y) = h(q(y)) for q(y) = |y - a|^2 on R^n, y . a on S^n and [y, a] on
    H^n; `spherical_mean` and `radon_forward` integrate h in one dimension.
    evaluator maps an (..., dim) array of ambient coordinates to values.
    decay_scale is the (geodesic) radius around the axis a beyond which
    |f| < 1e-14; infinite for fields without decay. `zonal_field` builds
    every field.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    decay_scale: float
    zonal: tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]
    name: str = ""

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(pts, dtype=float))

    def at(self, x: Point) -> float:
        return float(self.evaluator(x.coords[None, :])[0])


def zonal_field(space: Space, a, h: Callable[[np.ndarray], np.ndarray],
                decay_scale: float, name: str) -> ScalarField:
    """The field f(y) = h(q(y)) with its zonal profile (a, h):
    q(y) = |y - a|^2 on R^n and `Curvature.form`(y, a) on S^n and H^n."""
    a = np.array(a, dtype=float)
    if a.shape != (space.ambient_dim,):
        raise ValueError(f"{name} axis has the wrong dimension")
    if space.is_euclidean:
        def q(pts):
            d = pts - a
            # np.sum's own reduction, without its Python-level dispatch
            return np.add.reduce(d * d, axis=-1)
    else:
        form = space.curvature.form

        def q(pts):
            return form(pts, a)
    return ScalarField(lambda pts: h(q(pts)), decay_scale, (a, h), name)


def _gaussian(space: Space, center=None) -> ScalarField:
    if space.kind != EUCLIDEAN:
        raise ValueError("the gaussian phantom lives on euclidean space")
    c = np.zeros(space.n) if center is None else center
    return zonal_field(space, c, lambda q: np.exp(-q), 6.0, "gaussian")


def _constant(space: Space) -> ScalarField:
    model = space.curvature
    return zonal_field(space, base_point(space).coords, np.ones_like,
                       model.folds * model.rho_max, "constant-even")


def _radial_hyperbolic(space: Space, power: int = 6) -> ScalarField:
    if space.kind != HYPERBOLIC:
        raise ValueError("the radial-hyperbolic phantom lives on H^n")
    if power < 3:
        raise ValueError("power must be >= 3 for integrable transforms")
    # [y, base point] is the cosh of the distance to the base point
    return zonal_field(space, base_point(space).coords,
                       lambda q: q ** float(-power),
                       math.acosh(10.0 ** (14.0 / power)), "radial-hyperbolic")


def _even_poly(space: Space) -> ScalarField:
    if space.kind != SPHERE:
        raise ValueError("the even-poly phantom lives on the sphere")
    return zonal_field(space, np.eye(space.ambient_dim)[0],
                       lambda q: 1.0 + q * q, math.pi, "even-poly")


PHANTOMS = {
    "gaussian": _gaussian,
    "constant-even": _constant,
    "radial-hyperbolic": _radial_hyperbolic,
    "even-poly": _even_poly,
}


def make_phantom(space: Space, name: str, **params) -> ScalarField:
    try:
        factory = PHANTOMS[name]
    except KeyError:
        raise ValueError(
            f"unknown phantom {name!r}; available: {sorted(PHANTOMS)}") from None
    return factory(space, **params)


def rotate_field(space: Space, f: ScalarField, matrix: np.ndarray) -> ScalarField:
    """The pullback f o R by an isometry R of the model: an orthogonal matrix
    on R^n and S^n, a Lorentz one that keeps the upper sheet on H^n. Then
    q(R y) about a is q(y) about R^-1 a, so the result is the zonal field of
    the same h about R^-1 a. Any other matrix is refused."""
    m = np.asarray(matrix, dtype=float)
    dim = space.ambient_dim
    if m.shape != (dim, dim):
        raise ValueError(
            f"rotation has shape {m.shape}, expected ({dim}, {dim})")
    form = np.eye(dim) if space.is_euclidean else \
        np.diag(space.curvature.signature(dim))
    err = float(np.max(np.abs(m.T @ form @ m - form)))
    if err > 1e-8 * max(1.0, float(np.max(np.abs(m)))) ** 2 or \
            (space.is_hyperbolic and m[-1, -1] <= 0.0):
        raise ValueError("rotate_field needs an isometry of the model (R^T J R"
                         " = J, and on H^n R keeps the upper sheet); "
                         f"|R^T J R - J| reaches {err:.3e}")
    axis, h = f.zonal
    return zonal_field(space, np.linalg.solve(m, axis), h, f.decay_scale,
                       f.name + "|rot")
