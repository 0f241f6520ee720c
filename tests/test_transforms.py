import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import georadon.cli as cli
from conftest import random_point
from georadon.constants import sphere_area
from georadon.fields import make_phantom, rotate_field, zonal_field
from georadon.geometry import (Geodesic, Point, Rotation, Space, base_point,
                               g_theta,
                               geodesic, geodesic_at_distance, haar_rotation,
                               point, rotate_geodesic)
import georadon.inversion as inversion
from georadon.inversion import mader_radial_average
from georadon.numerics import gl_nodes
from georadon.transforms import radon_forward, spherical_mean, tilde_mean
from product_rule import polar_forward, product_mean

EU3 = Space("euclidean", 3, 2)
EU2 = Space("euclidean", 2, 1)
SP2 = Space("sphere", 2, 1)
HY2 = Space("hyperbolic", 2, 1)


def test_forward_gaussian_plane():
    f = make_phantom(EU3, "gaussian")
    for d in (0.0, 2.0):
        xi = geodesic_at_distance(EU3, Point(np.zeros(3)), d,
                                  Rotation(np.eye(3)))
        assert radon_forward(EU3, f, xi) == pytest.approx(
            math.pi * math.exp(-d * d), rel=1e-10)


def test_forward_constant_great_circle():
    f = make_phantom(SP2, "constant-even")
    xi = geodesic(SP2, np.eye(3)[:, :2])
    assert radon_forward(SP2, f, xi) == pytest.approx(2 * math.pi, rel=1e-12)


def test_forward_hyperbolic_geodesic():
    f = make_phantom(HY2, "radial-hyperbolic", power=4)
    xi0 = geodesic(HY2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert radon_forward(HY2, f, xi0) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_forward_rejects_non_integrable():
    f = make_phantom(EU3, "constant-even")
    xi = geodesic_at_distance(EU3, Point(np.zeros(3)), 0.0,
                              Rotation(np.eye(3)))
    with pytest.raises(ValueError):
        radon_forward(EU3, f, xi)


# closed forms at an off-centre geodesic: the Gaussian's plane integral,
# the even polynomial's great-sphere integral and the radial profile's
# one-dimensional integral along the geodesic H^k


def _gaussian_closed(space, xi, c):
    v = (c - xi.offset) - xi.basis @ (xi.basis.T @ (c - xi.offset))
    return math.pi ** (space.k / 2.0) * math.exp(-float(v @ v))


def _even_poly_closed(space, xi):
    a = xi.basis[0, :]
    return sphere_area(space.k) * (1.0 + float(a @ a) / (space.k + 1))


def _cosh_base_distance(xi):
    # [e, b_j] is the last coordinate of b_j for the base point e, so the
    # Lorentz norm of e's projection onto xi is cosh of its distance
    last = xi.basis[-1, :]
    return math.sqrt(last[-1] ** 2 - float(last[:-1] @ last[:-1]))


def _radial_hyperbolic_closed(space, xi, power, upper=60.0):
    cosh_d0 = _cosh_base_distance(xi)
    val, _ = quad(lambda s: (cosh_d0 * math.cosh(s)) ** (-power)
                  * math.sinh(s) ** (space.k - 1), 0.0, upper,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return sphere_area(space.k - 1) * val


@pytest.mark.parametrize("kind,n,k", [
    ("euclidean", 2, 1), ("euclidean", 3, 2), ("euclidean", 4, 3),
    ("sphere", 2, 1), ("sphere", 3, 2),
    ("hyperbolic", 2, 1), ("hyperbolic", 3, 2), ("hyperbolic", 4, 3),
])
def test_forward_off_centre_closed_form(kind, n, k):
    space = Space(kind, n, k)
    x = _off_axis_point(space)
    for seed, r in ((5, 0.3), (6, 0.7)):
        xi = geodesic_at_distance(space, x, r, haar_rotation(space, seed))
        if space.is_euclidean:
            c = np.linspace(0.3, -0.4, n)
            f = make_phantom(space, "gaussian", center=c)
            want = _gaussian_closed(space, xi, c)
        elif space.is_sphere:
            f = make_phantom(space, "even-poly")
            want = _even_poly_closed(space, xi)
        else:
            f = make_phantom(space, "radial-hyperbolic", power=6)
            want = _radial_hyperbolic_closed(space, xi, 6)
        got = radon_forward(space, f, xi, nodes=48)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_forward_refuses_understated_decay():
    # a Gaussian declared to vanish beyond radius 1 is still e^-2.25 at the
    # outermost radius 1.5 of the radial rule
    f = make_phantom(EU3, "gaussian")
    short = zonal_field(EU3, f.zonal[0], f.zonal[1], 1.0, "short")
    xi = geodesic_at_distance(EU3, Point(np.zeros(3)), 0.0,
                              Rotation(np.eye(3)))
    assert radon_forward(EU3, f, xi) == pytest.approx(math.pi, rel=1e-12)
    with pytest.raises(ValueError, match="truncation tail too large"):
        radon_forward(EU3, short, xi)


def test_forward_refuses_slow_decay_against_volume_growth():
    # on H^4 k=3 the volume grows like e^(2 delta): power 3 leaves the
    # integrand at e^-delta where the decay radius of its profile is reached
    space = Space("hyperbolic", 4, 3)
    xi = geodesic_at_distance(space, _off_axis_point(space), 0.4,
                              haar_rotation(space, 2))
    f6 = make_phantom(space, "radial-hyperbolic", power=6)
    assert radon_forward(space, f6, xi, nodes=48) == pytest.approx(
        _radial_hyperbolic_closed(space, xi, 6), rel=1e-10)
    f3 = make_phantom(space, "radial-hyperbolic", power=3)
    with pytest.raises(ValueError, match="truncation tail too large"):
        radon_forward(space, f3, xi, nodes=48)


@pytest.mark.parametrize("space,phantom,kwargs", [
    (EU2, "gaussian", {}),
    (SP2, "even-poly", {}),
    (HY2, "radial-hyperbolic", {"power": 6}),
])
def test_forward_rotation_invariance(space, phantom, kwargs, rng):
    f = make_phantom(space, phantom, **kwargs)
    x = random_point(space, rng)
    for trial in range(10):
        xi = geodesic_at_distance(space, x, float(rng.uniform(0.1, 0.8)),
                                  haar_rotation(space, trial))
        m = haar_rotation(space, 900 + trial).matrix
        if space.kind == "hyperbolic":
            m = m @ g_theta(space, 0.4)
        lhs = radon_forward(space, f, rotate_geodesic(space, m, xi))
        rhs = radon_forward(space, rotate_field(space, f, m), xi)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_mean_gaussian_radial():
    f = make_phantom(EU3, "gaussian")
    assert spherical_mean(EU3, f, Point(np.zeros(3)), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12)


def test_mean_constant_is_constant():
    fc_s = make_phantom(SP2, "constant-even")
    assert spherical_mean(SP2, fc_s, point(SP2, [0, 0, 1.0]), 0.5) == \
        pytest.approx(1.0, abs=1e-9)
    fc_h = make_phantom(HY2, "constant-even")
    assert spherical_mean(HY2, fc_h, base_point(HY2), 2.0) == pytest.approx(
        1.0, abs=1e-9)
    fc_e = make_phantom(EU3, "constant-even")
    assert spherical_mean(EU3, fc_e, Point(np.zeros(3)), 1.3) == \
        pytest.approx(1.0, abs=1e-9)


def test_mean_hyperbolic_radial_profile():
    f = make_phantom(HY2, "radial-hyperbolic", power=6)
    assert spherical_mean(HY2, f, base_point(HY2), 2.0) == pytest.approx(
        2.0 ** -6, rel=1e-12)


def test_mean_domain_checks():
    f = make_phantom(SP2, "constant-even")
    with pytest.raises(ValueError):
        spherical_mean(SP2, f, point(SP2, [0, 0, 1.0]), 1.5)
    fh = make_phantom(HY2, "constant-even")
    with pytest.raises(ValueError):
        spherical_mean(HY2, fh, base_point(HY2), 0.5)
    fe = make_phantom(EU2, "gaussian")
    with pytest.raises(ValueError):
        spherical_mean(EU2, fe, Point(np.zeros(2)), -0.1)


def test_tilde_mean_values():
    fc = make_phantom(SP2, "constant-even")
    assert tilde_mean(SP2, fc, point(SP2, [0, 0, 1.0]), 0.6) == pytest.approx(
        1.25, rel=1e-12)
    fh = make_phantom(HY2, "radial-hyperbolic", power=6)
    assert tilde_mean(HY2, fh, base_point(HY2), 0.0) == pytest.approx(1.0)
    f = make_phantom(EU2, "gaussian")
    x = Point(np.array([0.4, 0.1]))
    for t in (0.2, 0.7, 1.4):
        assert tilde_mean(EU2, f, x, t) == spherical_mean(EU2, f, x, t)


def test_tilde_mean_domain():
    f = make_phantom(SP2, "even-poly")
    x = point(SP2, [0.6, 0.0, 0.8])
    with pytest.raises(ValueError, match="nonnegative"):
        tilde_mean(SP2, f, x, [0.2, -0.1])
    for t in (1.0, [0.5, 1.2]):
        with pytest.raises(ValueError, match="< 1"):
            tilde_mean(SP2, f, x, t)
    fh = make_phantom(HY2, "radial-hyperbolic")
    with pytest.raises(ValueError, match="nonnegative"):
        tilde_mean(HY2, fh, base_point(HY2), -0.5)
    assert tilde_mean(HY2, fh, base_point(HY2), 1.5) > 0.0


def test_tilde_mean_limit():
    f = make_phantom(SP2, "even-poly")
    x = point(SP2, [0.6, 0.0, 0.8])
    fx = f.at(x)
    errs = [abs(tilde_mean(SP2, f, x, t) - fx) for t in (1e-1, 1e-2, 1e-3)]
    assert errs[0] < 0.5 * 1e-1
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


def test_mean_profile_gaussian():
    f = make_phantom(EU3, "gaussian")
    vals = spherical_mean(EU3, f, Point(np.zeros(3)), [0.0, 0.5, 1.0])
    assert vals == pytest.approx(
        [1.0, math.exp(-0.25), math.exp(-1.0)], rel=1e-12)
    empty = spherical_mean(EU3, f, Point(np.zeros(3)), [])
    assert empty.size == 0


def test_mean_profile_tilde_constant():
    fc = make_phantom(SP2, "constant-even")
    vals = tilde_mean(SP2, fc, point(SP2, [0, 0, 1.0]), [0.0, 0.6])
    assert vals == pytest.approx([1.0, 1.25], rel=1e-12)


def _off_axis_point(space: Space):
    if space.is_euclidean:
        return Point(np.linspace(0.5, -0.3, space.n))
    if space.is_sphere:
        v = np.linspace(0.2, 1.0, space.n + 1)
        return point(space, v / np.linalg.norm(v))
    w = np.linspace(0.4, -0.3, space.n)
    r = float(np.linalg.norm(w))
    return point(space, np.append(math.sinh(r) * w / r, math.cosh(r)))


def _rule_never_built(m, polar_nodes):
    raise AssertionError(f"sphere_rule({m}, {polar_nodes}) built past its guard")


def _radial_average_of(s):
    g = lambda th, svals: np.exp(-svals * svals)
    return lambda: mader_radial_average(3, g, np.zeros(3), s, polar_nodes=4)


# a direction average, its largest float64 array in bytes (block or rule),
# and the sizes its refusal names
GUARD_CASES = [
    # 5 s-values x 2*4^2 directions, one shifted s each
    (_radial_average_of(np.linspace(0.0, 1.0, 5)), 1280,
     r"the rule of 32 directions needs 0\.00 GiB and its block of 5 "
     r"s-values 0\.00 GiB"),
    # one s-value: the rule, 32 directions x (3 coordinates + weight), is
    # the larger array
    (_radial_average_of(0.5), 1024,
     r"the rule of 32 directions.*block of 1 s-values.*"
     r"polar_nodes than 4"),
]


@pytest.mark.parametrize("call,nbytes,message", GUARD_CASES, ids=[
    "radial-average-block", "radial-average-rule"])
def test_product_rule_guard(monkeypatch, call, nbytes, message):
    monkeypatch.setattr(inversion, "MEAN_BLOCK_BYTES", nbytes)
    ok = call()
    assert np.all(np.isfinite(ok))
    monkeypatch.setattr(inversion, "MEAN_BLOCK_BYTES", nbytes - 1)
    monkeypatch.setattr(inversion, "sphere_rule", _rule_never_built)
    with pytest.raises(ValueError, match=message):
        call()


# space, phantom, t-range spanning the mean's domain (R^n and H^n: to where
# the phantom has decayed or, for the constant, well beyond the unit scale)
ZONAL_CASES = [
    (kind, n, name, t_range)
    for n in (2, 3)
    for kind, names, t_range in [
        ("euclidean", ("gaussian", "constant-even"), (0.0, 6.0)),
        ("sphere", ("even-poly", "constant-even"), (-0.999, 1.0)),
        ("hyperbolic", ("radial-hyperbolic", "constant-even"), (1.0, 200.0)),
    ]
    for name in names
]


@pytest.mark.parametrize("kind,n,name,t_range", ZONAL_CASES)
def test_zonal_mean_matches_product_rule(kind, n, name, t_range):
    space = Space(kind, n, 1)
    kwargs = {"center": np.linspace(-0.2, 0.3, n)} if name == "gaussian" else {}
    f = make_phantom(space, name, **kwargs)
    assert f.zonal is not None
    x = _off_axis_point(space)
    ts = np.linspace(*t_range, 41)
    oracle = product_mean(space, f, x, ts, 128)
    for p in (16, 64):
        assert spherical_mean(space, f, x, ts, p) == pytest.approx(
            oracle, rel=0.0, abs=1e-12)


def test_zonal_even_poly_closed_form():
    # E u^2 = 1/n for the cosine u to an axis in the n-dimensional tangent
    # space, and 1 + q^2 has degree 2, so two nodes are exact
    space = Space("sphere", 3, 1)
    f = make_phantom(space, "even-poly")
    x = _off_axis_point(space)
    x0 = x.coords[0]
    ts = np.linspace(-0.99, 1.0, 23)
    want = 1.0 + ts * ts * x0 * x0 + (1.0 - ts * ts) * (1.0 - x0 * x0) / 3.0
    assert spherical_mean(space, f, x, ts, 2) == pytest.approx(
        want, rel=0.0, abs=1e-14)


def test_rotated_field_keeps_its_zonal_profile(rng):
    # the pullback by an isometry R is the same profile about R^-1 a
    cases = [(EU3, make_phantom(EU3, "gaussian", center=[0.1, 0.0, 0.2]),
              haar_rotation(EU3, 4).matrix, np.linspace(0.0, 3.0, 9)),
             (SP2, make_phantom(SP2, "even-poly"),
              haar_rotation(SP2, 5).matrix, np.linspace(-0.9, 1.0, 9)),
             (HY2, make_phantom(HY2, "radial-hyperbolic"),
              haar_rotation(HY2, 6).matrix @ g_theta(HY2, 0.4),
              np.linspace(1.0, 4.0, 9))]
    for space, f, m, ts in cases:
        g = rotate_field(space, f, m)
        assert np.allclose(m @ g.zonal[0], f.zonal[0], rtol=0.0, atol=1e-14)
        ys = np.array([random_point(space, rng).coords for _ in range(20)])
        assert g(ys) == pytest.approx(f(ys @ m.T), rel=0.0, abs=1e-12)
        x = random_point(space, rng)
        assert spherical_mean(space, g, x, ts) == pytest.approx(
            spherical_mean(space, f, Point(m @ x.coords), ts), rel=0.0,
            abs=1e-12)
        with pytest.raises(ValueError, match="isometry"):
            rotate_field(space, f, np.diag([2.0, 1.0, 1.0]))
    # a Lorentz matrix that swaps the sheets of the hyperboloid
    with pytest.raises(ValueError, match="upper sheet"):
        rotate_field(HY2, make_phantom(HY2, "radial-hyperbolic"),
                     np.diag([1.0, 1.0, -1.0]))


def test_euclidean_polar_consistency():
    # integrating the means against the polar weight recovers the full integral
    f = make_phantom(EU2, "gaussian")
    ts, ws = gl_nodes(0.0, 7.0, 96, panels=2)
    means = spherical_mean(EU2, f, Point(np.zeros(2)), ts)
    total = sphere_area(1) * float(np.dot(ws, means * ts))
    assert total == pytest.approx(math.pi, abs=1e-6)


def test_sphere_field_parity():
    f = make_phantom(SP2, "even-poly")
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert f(v[None, :])[0] == pytest.approx(f(-v[None, :])[0], abs=1e-12)


# the spaces of the off-centre closed-form test; H^n at power 6
FORWARD_SPACES = [
    ("euclidean", 2, 1), ("euclidean", 3, 2), ("euclidean", 4, 3),
    ("sphere", 2, 1), ("sphere", 3, 2),
    ("hyperbolic", 2, 1), ("hyperbolic", 3, 2), ("hyperbolic", 4, 3),
]


def _phantom_for(space: Space):
    if space.is_euclidean:
        return make_phantom(space, "gaussian",
                            center=np.linspace(0.3, -0.4, space.n))
    if space.is_sphere:
        return make_phantom(space, "even-poly")
    return make_phantom(space, "radial-hyperbolic", power=6)


@pytest.mark.parametrize("kind,n,k", FORWARD_SPACES)
def test_zonal_forward_matches_polar_integrator(kind, n, k):
    # the one-dimensional path against the product rule on the same evaluator
    space = Space(kind, n, k)
    f = _phantom_for(space)
    x = _off_axis_point(space)
    for seed, r in ((11, 0.25), (12, 0.6)):
        xi = geodesic_at_distance(space, x, r, haar_rotation(space, seed))
        want = polar_forward(space, f, xi, nodes=48)
        got = radon_forward(space, f, xi, nodes=48)
        assert abs(got - want) <= 1e-12 * abs(want)


def _cli_forward(capsys, space, *args):
    # `georadon forward` through cli.main, and the geodesic it integrates over
    argv = ["forward", "--space", space.kind, "--n", str(space.n), "--k",
            str(space.k), *args]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    xi = geodesic_at_distance(space, base_point(space), out["distance"],
                              haar_rotation(space, out["seed"]))
    return out["value"], xi


def test_zonal_forward_k4_euclidean(capsys):
    # the plane integral of e^-|y|^2 over 4-planes at distance 0 and 0.8
    # from 0, and `forward --space euclidean --n 5 --k 4` at its defaults
    space = Space("euclidean", 5, 4)
    f = make_phantom(space, "gaussian")
    zero = np.zeros(5)
    for seed, d in ((1, 0.0), (2, 0.8)):
        xi = geodesic_at_distance(space, Point(zero), d,
                                  haar_rotation(space, seed))
        want = _gaussian_closed(space, xi, zero)
        assert want == pytest.approx(math.pi ** 2 * math.exp(-d * d))
        assert abs(radon_forward(space, f, xi) - want) <= 1e-10 * want
    got, xi = _cli_forward(capsys, space)
    want = _gaussian_closed(space, xi, zero)
    assert abs(got - want) <= 1e-10 * want


def test_zonal_forward_k4_sphere(capsys):
    # the even polynomial over great 4-spheres at two distances from an
    # off-axis point, and `forward --space sphere --n 5 --k 4` at defaults
    space = Space("sphere", 5, 4)
    f = make_phantom(space, "even-poly")
    x = _off_axis_point(space)
    for seed, r in ((1, 0.0), (2, 0.5)):
        xi = geodesic_at_distance(space, x, r, haar_rotation(space, seed))
        want = _even_poly_closed(space, xi)
        assert abs(radon_forward(space, f, xi) - want) <= 1e-10 * want
    got, xi = _cli_forward(capsys, space, "--phantom", "even-poly")
    want = _even_poly_closed(space, xi)
    assert abs(got - want) <= 1e-10 * want


def test_zonal_forward_k4_hyperbolic():
    # the radial rule stops at the phantom's decay radius + d0 + 0.5, which
    # at power 8 leaves up to 2e-10 of the sinh^3 volume's tail uncounted;
    # up to that radius the rule matches QUADPACK to roundoff
    space = Space("hyperbolic", 5, 4)
    f = make_phantom(space, "radial-hyperbolic", power=8)
    x = _off_axis_point(space)
    for seed, r in ((1, 0.0), (2, 0.5)):
        xi = geodesic_at_distance(space, x, r, haar_rotation(space, seed))
        got = radon_forward(space, f, xi)
        want = _radial_hyperbolic_closed(space, xi, 8)
        assert abs(got - want) <= 1e-9 * want
        d0 = math.acosh(_cosh_base_distance(xi))
        head = _radial_hyperbolic_closed(space, xi, 8,
                                         upper=f.decay_scale + d0 + 0.5)
        assert abs(got - head) <= 1e-12 * head


def test_sphere_forward_refuses_nodes_past_zonal_rule(capsys):
    # the zonal rule stops at order 512 on S^n, as the radial rule does on
    # R^n and H^n: `forward --quad-nodes 600` exits 1 and names the cap
    space = Space("sphere", 3, 2)
    f = make_phantom(space, "even-poly")
    xi = geodesic(space, np.eye(space.n + 1)[:, :space.k + 1])
    assert radon_forward(space, f, xi, nodes=512) == pytest.approx(
        _even_poly_closed(space, xi), rel=1e-12)
    with pytest.raises(ValueError, match=r"zonal rule order must be in "
                                         r"\[1, 512\], got 513"):
        radon_forward(space, f, xi, nodes=513)
    argv = ["forward", "--space", "sphere", "--n", "2", "--k", "1",
            "--phantom", "even-poly", "--quad-nodes", "600"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == \
        "error: zonal rule order must be in [1, 512], got 600\n"


def _stack(geodesics):
    # one stacked Geodesic of the given ones, and its rows each as a
    # geodesic of its own: a basis's memory layout can move the last bit of
    # a matrix product, so the reference reads the same rows
    bases = np.stack([xi.basis for xi in geodesics])
    offsets = None if geodesics[0].offset is None else \
        np.stack([xi.offset for xi in geodesics])
    rows = [Geodesic(b, None if offsets is None else offsets[i])
            for i, b in enumerate(bases)]
    return Geodesic(bases, offsets), rows


def _degenerate_geodesic(space: Space, f):
    # R^n: a coordinate k-plane through the axis, so d0 = 0; S^n: a great
    # k-sphere orthogonal to the axis e_0, so c = 0 and the pole is e_0
    n, k = space.n, space.k
    if space.is_euclidean:
        offset = f.zonal[0].copy()
        offset[:k] = 0.0
        return Geodesic(np.eye(n)[:, :k], offset)
    return Geodesic(np.eye(n + 1)[:, 1:k + 2], None)


@pytest.mark.parametrize("kind", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (5, 4)])
def test_zonal_forwards_match_per_geodesic(kind, n, k):
    # radon_forward on a stack of geodesics against each row alone, which
    # it takes as a stack of one: bit for bit
    space = Space(kind, n, k)
    f = _phantom_for(space) if not (space.is_hyperbolic and k == 4) else \
        make_phantom(space, "radial-hyperbolic", power=8)
    x = _off_axis_point(space)
    geodesics = [geodesic_at_distance(space, x, r, haar_rotation(space, seed))
                 for seed, r in ((1, 0.0), (2, 0.25), (3, 0.5), (4, 0.8))]
    if not space.is_hyperbolic:
        geodesics.append(_degenerate_geodesic(space, f))
    stack, rows = _stack(geodesics)
    got = radon_forward(space, f, stack, nodes=24)
    assert got.shape == (len(rows),)
    assert got.tolist() == [radon_forward(space, f, xi, nodes=24)
                            for xi in rows]


def _refusal_case(name):
    # a (space, field, geodesic) triple that radon_forward refuses
    plane = geodesic_at_distance(EU3, Point(np.zeros(3)), 0.0,
                                 Rotation(np.eye(3)))
    if name == "understated-decay":
        g = make_phantom(EU3, "gaussian")
        return EU3, zonal_field(EU3, *g.zonal, 1.0, "short"), plane
    if name == "no-decay":
        return EU3, make_phantom(EU3, "constant-even"), plane
    if name == "power-3-on-H^3":
        space = Space("hyperbolic", 4, 3)
        xi = geodesic_at_distance(space, _off_axis_point(space), 0.4,
                                  haar_rotation(space, 2))
        return space, make_phantom(space, "radial-hyperbolic", power=3), xi
    # two spacelike columns: the base point projects to 0
    return HY2, make_phantom(HY2, "radial-hyperbolic"), \
        Geodesic(np.eye(3)[:, :2], None)


@pytest.mark.parametrize("name", ["understated-decay", "no-decay",
                                  "power-3-on-H^3", "degenerate-projection"])
def test_zonal_forwards_refuse_as_radon_forward(name):
    # a stack that holds the refused geodesic among accepted ones is refused
    # with the same message as the geodesic alone
    space, f, xi = _refusal_case(name)
    with pytest.raises(ValueError) as single:
        radon_forward(space, f, xi, nodes=48)
    accepted = geodesic_at_distance(space, base_point(space), 0.3,
                                    haar_rotation(space, 1))
    stack, _ = _stack([accepted, xi, accepted])
    with pytest.raises(ValueError) as stacked:
        radon_forward(space, f, stack, nodes=48)
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("space,basis", [
    # a line on R^3 with k = 2, whose integral would be the plane's pi, and
    # a great circle on S^3 with k = 2
    (EU3, np.eye(3)[:, :1]),
    (Space("sphere", 3, 2), np.eye(4)[:, :2]),
])
def test_forward_refuses_a_geodesic_of_the_wrong_shape(space, basis):
    f = _phantom_for(space)
    offset = np.zeros(space.ambient_dim) if space.is_euclidean else None
    for xi in (Geodesic(basis, offset),
               Geodesic(basis[None], None if offset is None else offset[None])):
        with pytest.raises(ValueError, match="geodesic dimension does not "
                                             "match the space"):
            radon_forward(space, f, xi)
