"""The three constant-curvature models: points, totally geodesic submanifolds,
distances, and rotation-based constructions.

Euclidean R^n uses ambient dimension n; the sphere S^n and hyperbolic H^n live
in R^(n+1), the latter as the upper hyperboloid sheet of the Lorentz form
[x, y] = -x_1 y_1 - ... - x_n y_n + x_{n+1} y_{n+1}. `Curvature.form` is the
one encoding of both bilinear forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "EUCLIDEAN",
    "SPHERE",
    "HYPERBOLIC",
    "gamma_half",
    "sphere_area",
    "Curvature",
    "Space",
    "Point",
    "Geodesic",
    "Rotation",
    "point",
    "geodesic",
    "base_point",
    "distance_rho",
    "check_distance",
    "center_distance",
    "haar_orthogonal",
    "haar_rotation",
    "haar_stabilizer",
    "g_theta",
    "transport_to",
    "geodesic_at_distance",
    "geodesics_at_distance",
    "rotate_point",
    "rotate_geodesic",
]

EUCLIDEAN = "euclidean"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
_KINDS = (EUCLIDEAN, SPHERE, HYPERBOLIC)

# inputs violating a model constraint beyond this are rejected, not renormalized
_VALIDATE_TOL = 1e-8


def gamma_half(x: float) -> float:
    """Gamma(x), exact for integer and half-integer arguments.

    Gamma(p) = (p-1)! and Gamma(p + 1/2) = (2p)! sqrt(pi) / (4^p p!); other
    arguments fall back to math.gamma (relative error a few ulp).
    """
    two_x = 2.0 * x
    if two_x == int(two_x) and x > 0.0:
        m = int(two_x)
        if m % 2 == 0:
            return float(math.factorial(m // 2 - 1))
        p = (m - 1) // 2
        return math.factorial(2 * p) * math.sqrt(math.pi) / (4.0 ** p * math.factorial(p))
    return math.gamma(x)


@lru_cache(maxsize=None)
def sphere_area(m: int) -> float:
    """Surface area sigma_m of the unit sphere S^m: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    if m < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / gamma_half((m + 1) / 2.0)


@lru_cache(maxsize=None)
def _signature(kappa: float, size: int) -> np.ndarray:
    j = np.full(size, kappa)
    j[-1] = 1.0
    j.flags.writeable = False
    return j


@dataclass(frozen=True)
class Curvature:
    """One model of R^n, S^n and H^n: curvature kappa = 0, +1 or -1.

    sn(rho) is rho, sin rho or sinh rho and cs(rho) is 1, cos rho or cosh rho,
    so cs^2 + kappa sn^2 = 1. sn maps a geodesic radius to the distance
    function value r, and asn inverts it on [0, rho_max]. mean_t maps a radius
    to the parameter t of `spherical_mean`: rho, cos rho or cosh rho. On the
    sphere rho_max = pi/2 and sn takes each value at two radii, rho and
    pi - rho, of the diameter pi.
    """

    kappa: float
    sn: Callable
    cs: Callable
    asn: Callable
    mean_t: Callable
    rho_max: float
    folds: int  # radii in (0, folds * rho_max) that share one value of sn

    def signature(self, size: int) -> np.ndarray:
        """The diagonal (kappa, ..., kappa, 1) of the form, of length size;
        cached and read-only."""
        return _signature(self.kappa, size)

    def form(self, x: np.ndarray, y: np.ndarray):
        """The bilinear form diag(kappa, ..., kappa, 1) of the curved models:
        x . y on S^n and the Lorentz form [x, y] on H^n. y is a vector; x is
        a vector or a stack (..., size) of them."""
        return x @ (self.signature(y.shape[-1]) * y)

    def hypot_t(self, theta, v):
        """mean_t of the hypotenuse of a right triangle with legs theta, v."""
        if self.kappa == 0.0:
            return np.sqrt(theta * theta + v * v)
        return self.cs(theta) * self.cs(v)

    def leg(self, hyp: float, theta: float) -> float:
        """The second leg of a right triangle with leg theta and hypotenuse
        hyp; on the sphere the diameter pi when hyp is out of reach."""
        if self.kappa == 0.0:
            return math.sqrt(max(hyp * hyp - theta * theta, 0.0))
        ratio = float(self.cs(hyp) / self.cs(theta))
        if self.kappa > 0.0:
            return math.acos(max(-1.0, min(1.0, ratio)))
        return math.acosh(max(1.0, ratio))


def _identity(rho):
    return rho


_CURVATURE = {
    EUCLIDEAN: Curvature(0.0, _identity, np.ones_like, _identity, _identity,
                         math.inf, 1),
    SPHERE: Curvature(1.0, np.sin, np.cos, np.arcsin, np.cos, 0.5 * math.pi, 2),
    HYPERBOLIC: Curvature(-1.0, np.sinh, np.cosh, np.arcsinh, np.cosh,
                          math.inf, 1),
}


@dataclass(frozen=True)
class Space:
    """Constant-curvature model: curvature sign, ambient n, submanifold dim k."""

    kind: str
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("ambient dimension n must be >= 2")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError("submanifold dimension k must satisfy 1 <= k <= n-1")

    @property
    def ambient_dim(self) -> int:
        return self.n if self.kind == EUCLIDEAN else self.n + 1

    @property
    def curvature(self) -> Curvature:
        return _CURVATURE[self.kind]

    @property
    def measure_scale(self) -> float:
        """sigma_k / sigma_n on the sphere, whose invariant measure on great
        k-spheres has mass 1; 1 on R^n and H^n."""
        return sphere_area(self.k) / sphere_area(self.n) if self.is_sphere \
            else 1.0

    @property
    def is_euclidean(self) -> bool:
        return self.kind == EUCLIDEAN

    @property
    def is_sphere(self) -> bool:
        return self.kind == SPHERE

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == HYPERBOLIC


@dataclass(frozen=True)
class Point:
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


@dataclass(frozen=True)
class Geodesic:
    """A totally geodesic k-submanifold.

    Euclidean: `basis` holds k orthonormal columns spanning the direction
    subspace and `offset` is the foot point in its orthogonal complement.
    Sphere: k+1 orthonormal columns spanning the cutting linear subspace.
    Hyperbolic: k+1 columns, pseudo-orthonormal for the Lorentz form with the
    timelike column last (Gram = diag(-1, ..., -1, +1)).
    """

    basis: np.ndarray
    offset: np.ndarray | None = None


@dataclass(frozen=True)
class Rotation:
    matrix: np.ndarray


def point(space: Space, coords) -> Point:
    """Validated point of the model (rejects off-model input beyond 1e-8)."""
    c = np.asarray(coords, dtype=float)
    if c.shape != (space.ambient_dim,):
        raise ValueError(
            f"point has dimension {c.shape}, expected ({space.ambient_dim},)")
    if space.is_sphere:
        err = abs(float(space.curvature.form(c, c)) - 1.0)
        if err > _VALIDATE_TOL:
            raise ValueError(f"not a unit vector: |x|^2 - 1 = {err:.3e}")
    elif space.is_hyperbolic:
        q = float(space.curvature.form(c, c))
        scale = max(1.0, float(np.max(np.abs(c))) ** 2)
        if abs(q - 1.0) > _VALIDATE_TOL * scale:
            raise ValueError(f"not on the hyperboloid: [x,x] - 1 = {q - 1.0:.3e}")
        if c[-1] <= 0.0:
            raise ValueError("hyperboloid point must lie on the upper sheet")
    return Point(c)


def base_point(space: Space) -> Point:
    """Origin of the model (0 for R^n, the last coordinate axis otherwise)."""
    c = np.zeros(space.ambient_dim)
    if not space.is_euclidean:
        c[-1] = 1.0
    return Point(c)


def _check_gram(gram: np.ndarray, target: np.ndarray, what: str):
    err = float(np.max(np.abs(gram - target)))
    if err > _VALIDATE_TOL:
        raise ValueError(f"{what} basis fails its Gram constraint by {err:.3e}")


def geodesic(space: Space, basis, offset=None) -> Geodesic:
    """Validated geodesic submanifold from a basis (columns) and offset."""
    b = np.asarray(basis, dtype=float)
    dim = space.ambient_dim
    cols = space.k if space.is_euclidean else space.k + 1
    if b.shape != (dim, cols):
        raise ValueError(f"basis has shape {b.shape}, expected ({dim}, {cols})")
    if space.is_euclidean:
        _check_gram(b.T @ b, np.eye(cols), "euclidean")
        if offset is None:
            raise ValueError("euclidean geodesic requires an offset")
        u = np.asarray(offset, dtype=float)
        if u.shape != (dim,):
            raise ValueError("offset dimension mismatch")
        if float(np.max(np.abs(b.T @ u), initial=0.0)) > _VALIDATE_TOL * max(
                1.0, float(np.linalg.norm(u))):
            raise ValueError("offset is not orthogonal to the direction subspace")
        return Geodesic(b, u)
    model = space.curvature
    gram = np.column_stack([model.form(b.T, b[:, j]) for j in range(cols)])
    _check_gram(gram, np.diag(model.signature(cols)), space.kind)
    return Geodesic(b, None)


def distance_rho(space: Space, x: Point, xi: Geodesic) -> float:
    """Distance function: d, sin d, or sinh d of the geodesic distance to xi."""
    c = x.coords
    if c.shape != (space.ambient_dim,):
        raise ValueError("point dimension does not match the space")
    b = xi.basis
    cols = space.k if space.is_euclidean else space.k + 1
    if b.shape != (space.ambient_dim, cols):
        raise ValueError("geodesic dimension does not match the space")
    if space.is_euclidean:
        perp = c - b @ (b.T @ c)
        return float(np.linalg.norm(perp - xi.offset))
    # cs(d)^2 is the squared norm of the projection onto the span of xi's
    # orthonormal columns (timelike last on H^n); sn^2 = (1 - cs^2) / kappa
    model = space.curvature
    comp = model.form(b.T, c)
    q = float(model.form(comp, comp))
    return math.sqrt(max(0.0, (1.0 - q) / model.kappa))


def center_distance(space: Space, x, y) -> float:
    """Geodesic distance between two points given by their coordinates."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if space.is_euclidean:
        return float(np.linalg.norm(x - y))
    c = float(space.curvature.form(x, y))
    if space.is_sphere:
        return float(np.arccos(np.clip(c, -1.0, 1.0)))
    return math.acosh(max(1.0, c))


def haar_orthogonal(dim: int, rng: np.random.Generator,
                    count: int | None = None) -> np.ndarray:
    """Haar-distributed SO(dim) matrix, or a (count, dim, dim) stack of them
    drawn from the same normals as count single draws."""
    shape = (dim, dim) if count is None else (count, dim, dim)
    return _haar_from_normals(rng.standard_normal(shape))


def _haar_from_normals(a: np.ndarray) -> np.ndarray:
    """The SO(d) matrices of a stack (..., d, d) of standard normal matrices:
    Q of the QR factorization with R's diagonal made positive, then the last
    column flipped where det Q < 0 (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    flip = np.linalg.det(q) < 0.0
    q[..., -1] = np.where(flip[..., None], -q[..., -1], q[..., -1])
    return q


def haar_rotation(space: Space, seed: int) -> Rotation:
    """Haar rotation on SO(n), deterministic per seed.

    For sphere/hyperbolic the SO(n) block acts on the first n coordinates
    (the stabilizer of the base point), embedded in the ambient dimension.
    """
    return haar_stabilizer(space, np.random.default_rng(seed))


def haar_stabilizer(space: Space, rng: np.random.Generator,
                    count: int | None = None) -> Rotation:
    """Haar rotation of the stabilizer of the base point, drawn from rng; with
    count, its matrix is a stack of count rotations."""
    n = space.n
    q = haar_orthogonal(n, rng, count)
    if space.is_euclidean:
        return Rotation(q)
    m = np.zeros(q.shape[:-2] + (n + 1, n + 1))
    m[..., :n, :n] = q
    m[..., n, n] = 1.0
    return Rotation(m)


def g_theta(space: Space, theta: float) -> np.ndarray:
    """The standard one-parameter family moving the base point off xi_0.

    Sphere: rotation in the (e_{k+1}, e_{n+1}) plane with matrix rows
    (sin, cos; -cos, sin). Hyperbolic: the boost in (e_1, e_{n+1}).
    """
    n = space.n
    m = np.eye(n + 1)
    if space.is_sphere:
        i = space.k
        m[i, i] = math.sin(theta)
        m[i, n] = math.cos(theta)
        m[n, i] = -math.cos(theta)
        m[n, n] = math.sin(theta)
    elif space.is_hyperbolic:
        m[0, 0] = math.cosh(theta)
        m[0, n] = math.sinh(theta)
        m[n, 0] = math.sinh(theta)
        m[n, n] = math.cosh(theta)
    else:
        raise ValueError("g_theta is defined for sphere and hyperbolic only")
    return m


def transport_to(space: Space, x: Point) -> np.ndarray:
    """Minimal isometry carrying the base point e_{n+1} to x (sphere/hyperbolic).

    Householder-style: acts only in the plane spanned by e_{n+1} and x, which
    fixes a deterministic choice among all isometries with r_x e_{n+1} = x.
    """
    kappa = space.curvature.kappa
    if kappa == 0.0:
        raise ValueError("transport_to is defined for sphere and hyperbolic only")
    n = space.n
    c = float(x.coords[n])
    w = x.coords[:n]
    s = float(np.linalg.norm(w))
    m = np.eye(n + 1)
    if s < 1e-14:
        if c < 0.0:
            # antipode on the sphere: rotate by pi in the (e_1, e_{n+1}) plane
            m[0, 0] = -1.0
            m[n, n] = -1.0
        return m
    # I + (c-1)(w w^T + e e^T) + s(w e^T - kappa e w^T) for the unit vector w
    # of x's first n coordinates and e = e_{n+1}
    wh = w / s
    m[:n, :n] += (c - 1.0) * np.outer(wh, wh)
    m[n, n] += c - 1.0
    m[:n, n] = s * wh
    m[n, :n] = -kappa * s * wh
    return m


def check_distance(space: Space, r) -> None:
    """Reject distance values r (scalar or array) outside [0, sup sn)."""
    lo, hi = (r, r) if isinstance(r, float) else \
        (np.min(r, initial=0.0), np.max(r, initial=0.0))
    if lo < 0.0:
        raise ValueError("r must be nonnegative")
    if space.is_sphere and hi >= 1.0:
        raise ValueError("sphere requires r = sin(distance) < 1")


def geodesic_at_distance(space: Space, x: Point, r: float, g: Rotation) -> Geodesic:
    """Geodesic submanifold at prescribed distance value r from x.

    r is the distance function value (sin/sinh of the geodesic distance on the
    curved models). The rotation g selects the member of the distance sphere.
    """
    return geodesics_at_distance(space, x, r, np.asarray(g.matrix)[None])[0]


def geodesics_at_distance(space: Space, x: Point, r: float,
                          g: np.ndarray) -> list[Geodesic]:
    """`geodesic_at_distance` for each rotation of a stack g (count, dim, dim),
    built with one stacked product."""
    check_distance(space, r)
    theta = r if space.is_euclidean else \
        math.asin(r) if space.is_sphere else math.asinh(r)
    bases, offsets = _geodesic_frames(space, x, theta, g)
    if offsets is None:
        return [Geodesic(b, None) for b in bases]
    return [Geodesic(b, u) for b, u in zip(bases, offsets)]


def _geodesic_frames(space: Space, x: Point, theta: float, g: np.ndarray):
    """(bases, offsets) of the geodesics at geodesic distance theta from x
    selected by g, one ambient rotation (dim, dim) or a stack of them; the
    offsets are None on the curved models.

    R^n: the k-plane through x + theta g e_n spanned by g's first k columns.
    S^n and H^n: the columns of transport_to(x) g g_theta that carry
    xi_0 = span(e_1..e_(k+1)) on S^n, span(e_(n-k+1)..e_(n+1)) on H^n.
    """
    n, k = space.n, space.k
    if space.is_euclidean:
        b = g[..., :k]
        p = x.coords + theta * g[..., n - 1]
        return b, p - (b @ (np.swapaxes(b, -1, -2) @ p[..., None]))[..., 0]
    if space.is_sphere:
        m = transport_to(space, x) @ g @ g_theta(space, theta).T
        return m[..., :k + 1], None
    m = transport_to(space, x) @ g @ g_theta(space, -theta)
    return m[..., n - k:], None


def rotate_point(space: Space, m: np.ndarray, x: Point) -> Point:
    return Point(m @ x.coords)


def rotate_geodesic(space: Space, m: np.ndarray, xi: Geodesic) -> Geodesic:
    offset = None if xi.offset is None else m @ xi.offset
    return Geodesic(m @ xi.basis, offset)
