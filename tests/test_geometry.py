import math

import numpy as np
import pytest

from conftest import haar_single, random_point
from georadon.geometry import (Point, Rotation, Space, base_point,
                               center_distance, distance_rho, g_theta, geodesic,
                               geodesic_at_distance, geodesics_at_distance,
                               haar_orthogonal, haar_rotation, haar_stabilizer,
                               point, rotate_geodesic, rotate_point,
                               transport_to)

EU = Space("euclidean", 2, 1)
SP = Space("sphere", 2, 1)
HY = Space("hyperbolic", 2, 1)


def test_space_validation():
    with pytest.raises(ValueError):
        Space("euclidean", 1, 1)
    with pytest.raises(ValueError):
        Space("euclidean", 3, 3)
    with pytest.raises(ValueError):
        Space("flat", 3, 1)


def test_point_validation():
    point(SP, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        point(SP, [0.0, 0.0, 1.1])
    with pytest.raises(ValueError):
        point(HY, [0.0, 0.0, -1.0])
    with pytest.raises(ValueError):
        point(HY, [1.0, 0.0, 1.0])
    point(HY, [math.sinh(2.0), 0.0, math.cosh(2.0)])


def test_geodesic_validation():
    geodesic(EU, np.array([[1.0], [0.0]]), offset=[0.0, 3.0])
    with pytest.raises(ValueError):
        geodesic(EU, np.array([[1.0], [0.0]]), offset=[0.5, 3.0])
    with pytest.raises(ValueError):
        geodesic(SP, np.array([[1.0, 0.1], [0.0, 1.0], [0.0, 0.0]]))
    bad = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])  # two spacelike cols
    with pytest.raises(ValueError):
        geodesic(HY, bad)


def test_distance_point_line():
    line = geodesic(EU, np.array([[1.0], [0.0]]), offset=[0.0, 3.0])
    assert distance_rho(EU, Point(np.zeros(2)), line) == pytest.approx(3.0)


def test_distance_pole_equator():
    equator = geodesic(SP, np.eye(3)[:, :2])
    north = point(SP, [0.0, 0.0, 1.0])
    assert distance_rho(SP, north, equator) == pytest.approx(1.0)


def test_distance_hyperbolic_boosted_point():
    xi0 = geodesic(HY, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    x = point(HY, g_theta(HY, 0.7) @ base_point(HY).coords)
    assert distance_rho(HY, x, xi0) == pytest.approx(math.sinh(0.7),
                                                     abs=1e-12)


def test_distance_dimension_mismatch():
    line = geodesic(EU, np.array([[1.0], [0.0]]), offset=[0.0, 3.0])
    with pytest.raises(ValueError):
        distance_rho(EU, Point(np.zeros(3)), line)


def test_haar_determinism_and_membership():
    a = haar_rotation(Space("euclidean", 3, 1), 42).matrix
    b = haar_rotation(Space("euclidean", 3, 1), 42).matrix
    assert np.array_equal(a, b)
    assert np.max(np.abs(a.T @ a - np.eye(3))) < 1e-10
    assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-10)


def test_haar_stabilizer_embedding():
    m = haar_rotation(SP, 3).matrix
    assert m[2, 2] == 1.0 and np.all(m[2, :2] == 0.0) and np.all(m[:2, 2] == 0.0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_haar_stack_matches_single_draws(dim):
    count = 400
    stack = haar_orthogonal(dim, np.random.default_rng(dim), count)
    rng = np.random.default_rng(dim)
    single = np.array([haar_single(dim, rng) for _ in range(count)])
    assert stack.shape == (count, dim, dim)
    assert np.array_equal(stack, single)
    assert np.all(np.linalg.det(stack) > 0.0)
    assert np.max(np.abs(np.linalg.det(stack) - 1.0)) < 1e-12
    one = haar_orthogonal(dim, np.random.default_rng(dim))
    assert np.array_equal(one, single[0])


@pytest.mark.parametrize("space", [Space("euclidean", 3, 2),
                                   Space("sphere", 3, 2),
                                   Space("hyperbolic", 4, 2)])
def test_geodesic_stack_matches_single_geodesics(space, rng):
    x = random_point(space, rng)
    g = haar_stabilizer(space, np.random.default_rng(8), 50).matrix
    stack = geodesics_at_distance(space, x, 0.45, g)
    for m, xi in zip(g, stack):
        one = geodesic_at_distance(space, x, 0.45, Rotation(m))
        assert np.array_equal(xi.basis, one.basis)
        assert (xi.offset is None) == (one.offset is None)
        if one.offset is not None:
            assert np.array_equal(xi.offset, one.offset)
        assert distance_rho(space, x, xi) == pytest.approx(0.45, abs=1e-12)


def test_haar_zero_mean():
    acc = np.zeros((3, 3))
    n_samples = 10000
    for s in range(n_samples):
        acc += haar_rotation(Space("euclidean", 3, 1), s).matrix
    assert np.max(np.abs(acc / n_samples)) < 0.05


def test_plane_at_distance_example():
    space = Space("euclidean", 3, 2)
    xi = geodesic_at_distance(space, Point(np.zeros(3)), 2.0,
                              Rotation(np.eye(3)))
    assert xi.offset == pytest.approx([0.0, 0.0, 2.0])
    assert distance_rho(space, Point(np.zeros(3)), xi) == pytest.approx(2.0)


def test_geodesic_at_distance_zero():
    xi = geodesic_at_distance(EU, Point(np.zeros(2)), 0.0, haar_rotation(EU, 1))
    assert distance_rho(EU, Point(np.zeros(2)), xi) == pytest.approx(0.0,
                                                                     abs=1e-14)


def test_sphere_r_domain():
    with pytest.raises(ValueError):
        geodesic_at_distance(SP, point(SP, [0, 0, 1.0]), 1.0,
                             haar_rotation(SP, 0))


@pytest.mark.parametrize("space", [
    Space("euclidean", 2, 1), Space("euclidean", 3, 2), Space("euclidean", 4, 2),
    Space("sphere", 2, 1), Space("sphere", 3, 2), Space("sphere", 4, 2),
    Space("hyperbolic", 2, 1), Space("hyperbolic", 3, 2),
    Space("hyperbolic", 4, 1),
])
def test_round_trip_distance(space, rng):
    for trial in range(100):
        x = random_point(space, rng)
        r = float(rng.uniform(0.0, 0.97 if space.kind == "sphere" else 3.0))
        g = haar_rotation(space, 1000 + trial)
        xi = geodesic_at_distance(space, x, r, g)
        assert distance_rho(space, x, xi) == pytest.approx(r, abs=1e-9)


@pytest.mark.parametrize("space", [
    Space("euclidean", 3, 1), Space("sphere", 3, 2), Space("hyperbolic", 3, 2),
])
def test_isometry_invariance(space, rng):
    for trial in range(20):
        x = random_point(space, rng)
        r = float(rng.uniform(0.0, 0.9 if space.kind == "sphere" else 2.0))
        xi = geodesic_at_distance(space, x, r, haar_rotation(space, trial))
        m = haar_rotation(space, 500 + trial).matrix
        if space.kind == "hyperbolic":
            m = m @ g_theta(space, 0.6)
        d0 = distance_rho(space, x, xi)
        d1 = distance_rho(space, rotate_point(space, m, x),
                          rotate_geodesic(space, m, xi))
        assert d1 == pytest.approx(d0, abs=1e-10)


def test_boost_preserves_hyperboloid():
    x = base_point(HY)
    form = HY.curvature.form
    for theta in np.linspace(0.0, 3.0, 13):
        y = g_theta(HY, float(theta)) @ x.coords
        assert form(y, y) == pytest.approx(1.0, abs=1e-12)
    # far out the constraint only holds relative to cosh^2(theta)
    for theta in (5.0, 8.0):
        y = g_theta(HY, theta) @ x.coords
        scale = float(np.max(np.abs(y))) ** 2
        assert abs(form(y, y) - 1.0) < 1e-14 * scale


@pytest.mark.parametrize("kind", ["sphere", "hyperbolic"])
def test_curvature_form(kind):
    # x . y on S^n and x_{n+1} y_{n+1} - sum_i x_i y_i on H^n, for one
    # vector x and for a stack of them against one vector y
    model = Space(kind, 3, 1).curvature
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((2, 5, 4))
    y = rng.standard_normal(4)
    if kind == "sphere":
        want = np.einsum("...i,i->...", xs, y)
    else:
        want = xs[..., 3] * y[3] - np.einsum("...i,i->...", xs[..., :3], y[:3])
    assert model.signature(4).tolist() == [model.kappa] * 3 + [1.0]
    assert model.form(xs[0, 0], y) == pytest.approx(want[0, 0], rel=1e-14)
    got = model.form(xs, y)
    assert got.shape == (2, 5)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_transport_carries_base_point():
    for space in (SP, HY):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = random_point(space, rng)
            m = transport_to(space, x)
            assert m @ base_point(space).coords == pytest.approx(
                x.coords, abs=1e-12)


def test_transport_antipode():
    south = point(SP, [0.0, 0.0, -1.0])
    m = transport_to(SP, south)
    assert m @ np.array([0.0, 0.0, 1.0]) == pytest.approx(south.coords)
    assert np.linalg.det(m) == pytest.approx(1.0)


KINDS = ["euclidean", "sphere", "hyperbolic"]


@pytest.mark.parametrize("kind", KINDS)
def test_curvature_model_identities(kind):
    model = Space(kind, 3, 1).curvature
    rho = np.linspace(0.0, 1.5, 16)
    assert model.cs(rho) ** 2 + model.kappa * model.sn(rho) ** 2 == \
        pytest.approx(np.ones_like(rho), abs=1e-14)
    assert model.asn(model.sn(rho)) == pytest.approx(rho, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_mean_t_at_center_distance(kind, rng):
    # the parameter t of spherical_mean: |x - y|, x . y and [x, y]
    space = Space(kind, 3, 1)
    inner = {"euclidean": lambda x, y: float(np.linalg.norm(x - y)),
             "sphere": lambda x, y: float(x @ y),
             "hyperbolic": lambda x, y: float(x[-1] * y[-1] - x[:-1] @ y[:-1])
             }[kind]
    for _ in range(20):
        x = random_point(space, rng).coords
        y = random_point(space, rng).coords
        t = space.curvature.mean_t(center_distance(space, x, y))
        assert t == pytest.approx(inner(x, y), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_right_triangle(kind):
    # foot at distance theta from the base point x, y at distance v from the
    # foot along a direction orthogonal to both
    space = Space(kind, 3, 1)
    model = space.curvature
    x = base_point(space).coords
    e1, e2 = np.eye(space.ambient_dim)[:2]
    for theta in (0.0, 0.3, 1.2):
        for v in (0.2, 1.1, 2.5):
            foot = model.cs(theta) * x + model.sn(theta) * e1
            y = model.cs(v) * foot + model.sn(v) * e2
            hyp = center_distance(space, x, y)
            assert model.hypot_t(theta, v) == pytest.approx(
                model.mean_t(hyp), abs=1e-12)
            assert model.leg(hyp, theta) == pytest.approx(v, abs=1e-7)
