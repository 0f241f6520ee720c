import math

import numpy as np
import pytest
from scipy.integrate import quad

import georadon.dual_ops as dual_ops
import georadon.kernels as kernels
from conftest import haar_single
from georadon.constants import theta_sinh
from georadon.dual_ops import (DualConfig, Lambda_r, dual_shifted_mc,
                               dual_shifted_mean, l_star_profile,
                               l_tilde_star_profile, weighted_dual_both_sides,
                               z_score)
from georadon.fields import ScalarField, make_phantom, zonal_field
from georadon.geometry import (Geodesic, Point, Space, _geodesic_frames,
                               base_point, distance_rho, g_theta,
                               haar_stabilizer, point, sphere_area,
                               transport_to)
from georadon.numerics import gl_nodes
from georadon.transforms import radon_forward

EU3 = Space("euclidean", 3, 2)
EU2 = Space("euclidean", 2, 1)
SP2 = Space("sphere", 2, 1)
HY3 = Space("hyperbolic", 3, 2)

CFG = DualConfig(mc_samples=1500, seed=5, forward_nodes=48, quad_nodes=64)


def test_config_validation():
    with pytest.raises(ValueError):
        DualConfig(mc_samples=10)


def test_dual_mean_euclidean_gaussian():
    f = make_phantom(EU3, "gaussian")
    x = Point(np.zeros(3))
    assert dual_shifted_mean(EU3, f, x, 0.5, CFG) == pytest.approx(
        math.pi * math.exp(-0.25), rel=1e-10)


def test_dual_mean_sphere_constant():
    f = make_phantom(SP2, "constant-even")
    x = point(SP2, [0, 0, 1.0])
    assert dual_shifted_mean(SP2, f, x, 0.0, CFG) == pytest.approx(
        2 * math.pi, rel=1e-10)
    # finite right at the domain edge
    val = dual_shifted_mean(SP2, f, x, 1.0 - 1e-9, CFG)
    assert np.isfinite(val)


def test_dual_mean_hyperbolic_radial():
    f = make_phantom(HY3, "radial-hyperbolic", power=6)
    x = base_point(HY3)
    for r in (0.0, 0.4):
        assert dual_shifted_mean(HY3, f, x, r, CFG) == pytest.approx(
            (2 * math.pi / 5) * (1 + r * r) ** -3.0, rel=1e-9)


def test_dual_mc_constant_phi():
    mc = dual_shifted_mc(EU2, lambda xi: 1.0, Point(np.zeros(2)), 0.7, CFG)
    assert mc.value == pytest.approx(1.0)
    assert mc.stderr == 0.0


def test_dual_mc_sphere_constant_data():
    f = make_phantom(SP2, "constant-even")
    phi = lambda xi: radon_forward(SP2, f, xi, nodes=32)
    mc = dual_shifted_mc(SP2, phi, point(SP2, [0, 0, 1.0]), 0.0, CFG)
    assert mc.value == pytest.approx(2 * math.pi, rel=1e-9)


def test_dual_mc_matches_mean_reduction():
    f = make_phantom(EU2, "gaussian")
    x = Point(np.array([0.3, -0.2]))
    phi = lambda xi: radon_forward(EU2, f, xi, nodes=48)
    mc = dual_shifted_mc(EU2, phi, x, 0.6, CFG)
    mean = dual_shifted_mean(EU2, f, x, 0.6, CFG)
    assert abs(mc.value - mean) < 4.0 * mc.stderr


def test_dual_mc_rotationally_degenerate_case():
    # centered gaussian: every plane at distance r carries the same integral,
    # so the MC average hits the closed value with (near) zero spread
    f = make_phantom(EU3, "gaussian")
    phi = lambda xi: radon_forward(EU3, f, xi, nodes=48)
    mc = dual_shifted_mc(EU3, phi, Point(np.zeros(3)), 0.5,
                         DualConfig(mc_samples=200, seed=2, quad_nodes=48))
    assert mc.value == pytest.approx(math.pi * math.exp(-0.25), abs=1e-9)
    assert mc.stderr < 1e-9


def test_z_score_rule():
    assert z_score(1.4, 0.1, 1.0) == (pytest.approx(4.0), False)
    assert z_score(1.1, 0.1, 1.0) == (pytest.approx(1.0), True)
    # a roundoff stderr: every draw equal, so the values must agree instead
    assert z_score(2.0, 1e-17, 2.0 + 1e-12) == (0.0, True)
    assert z_score(2.0, 1e-17, 2.0 + 1e-9) == (0.0, False)
    assert z_score(0.0, 0.0, 0.0) == (0.0, True)


def test_dual_mean_sphere_non_even_field():
    # the reduction integrates over the whole great circle, so a field with
    # no antipodal symmetry matches the Monte Carlo average:
    # exp(-4|p - c|^2) = h(p . c) with h(q) = exp(8q - 8) on S^2
    c = np.array([0.6, 0.0, 0.8])
    f = zonal_field(SP2, c, lambda q: np.exp(8.0 * q - 8.0), math.pi, "bump")
    x = point(SP2, [0.0, 0.6, 0.8])
    cfg = DualConfig(mc_samples=4000, seed=3, forward_nodes=48, quad_nodes=64)
    mc = dual_shifted_mc(SP2, lambda xi: radon_forward(SP2, f, xi, nodes=48),
                         x, 0.5, cfg)
    z = (mc.value - dual_shifted_mean(SP2, f, x, 0.5, cfg)) / mc.stderr
    assert abs(z) < 3.0


def test_dual_mc_hands_phi_one_stack_per_block():
    # phi sees each block of draws as one stacked Geodesic of at most
    # MC_BLOCK rows, and returns their values as one array
    shapes = []

    def phi(xi):
        shapes.append(xi.basis.shape)
        return np.zeros(xi.basis.shape[0])
    cfg = DualConfig(mc_samples=2 * dual_ops.MC_BLOCK + 100, seed=4)
    mc = dual_shifted_mc(EU3, phi, Point(np.zeros(3)), 0.5, cfg)
    assert shapes == [(dual_ops.MC_BLOCK, 3, 2)] * 2 + [(100, 3, 2)]
    assert tuple(mc) == (0.0, 0.0)


@pytest.mark.parametrize("space,phantom,coords", [
    (EU2, "gaussian", [0.2, 0.1]),
    (SP2, "even-poly", [0.6, 0.0, 0.8]),
    (Space("hyperbolic", 2, 1), "radial-hyperbolic",
     [math.sinh(0.4), 0.0, math.cosh(0.4)]),
])
def test_dual_mc_forward_evaluates_one_block_at_a_time(space, phantom, coords):
    # with radon_forward as phi, f takes one call per block of draws and
    # never sees more than MC_BLOCK rays of 3 nodes points, the memory bound
    # of the weighted side
    g = make_phantom(space, phantom)
    rows = []

    def evaluator(pts):
        rows.append(pts.size // pts.shape[-1])
        return g.evaluator(pts)
    f = ScalarField(evaluator, g.decay_scale, g.zonal, g.name)
    nodes = 16
    cfg = DualConfig(mc_samples=2 * dual_ops.MC_BLOCK + 100, seed=4)
    dual_shifted_mc(space, lambda xi: radon_forward(space, f, xi, nodes=nodes),
                    point(space, coords), 0.5, cfg)
    assert len(rows) == 3
    assert max(rows) <= dual_ops.MC_BLOCK * 3 * nodes


def test_dual_mc_sphere_domain():
    with pytest.raises(ValueError):
        dual_shifted_mc(SP2, lambda xi: 1.0, point(SP2, [0, 0, 1.0]), 1.0, CFG)


def test_l_star_euclidean_closed_chain():
    f = make_phantom(EU3, "gaussian")
    x = Point(np.zeros(3))
    total = quad(lambda t: math.exp(-t * t) * t * t, 0, 12)[0]
    for r in (0.1, 0.5, 1.0):
        head = quad(lambda t: math.exp(-t * t) * t * t, 0, r)[0]
        expect = 4 * math.pi * (total - 2 * head - r * math.exp(-r * r))
        assert l_star_profile(EU3, f, x, r, CFG)[0] == pytest.approx(
            expect, abs=1e-8)


def test_l_star_r_zero_finite():
    f = make_phantom(EU3, "gaussian")
    val = l_star_profile(EU3, f, Point(np.zeros(3)), 0.0, CFG)[0]
    total = quad(lambda t: math.exp(-t * t) * t * t, 0, 12)[0]
    assert val == pytest.approx(4 * math.pi * total, abs=1e-9)


def test_l_star_parity_requirements():
    f = make_phantom(EU3, "gaussian")
    with pytest.raises(ValueError):
        l_tilde_star_profile(EU3, f, Point(np.zeros(3)), 0.2, CFG)[0]
    f2 = make_phantom(EU2, "gaussian")
    with pytest.raises(ValueError):
        l_star_profile(EU2, f2, Point(np.zeros(2)), 0.2, CFG)[0]


def test_l_tilde_two_routes_agree():
    # structural decomposition vs pointwise kernel quadrature
    f = make_phantom(EU2, "gaussian")
    x = Point(np.zeros(2))
    ck = math.pi / 2

    def mt(t):
        return math.exp(-t * t)

    for r in (0.2, 0.45):
        a_term = 2 * ck * quad(lambda t: mt(t) * t * math.log(t), 0, 10,
                               points=[0], limit=200)[0]
        b_term = quad(lambda t: mt(t) * t * kernels.psi_k_closed(1, r / t),
                      0, r, limit=300)[0]
        b_term += quad(lambda t: mt(t) * t * kernels.psi_k_closed(1, r / t),
                       r, 10, limit=300)[0]
        expect = 4.0 * (a_term + b_term)
        assert l_tilde_star_profile(EU2, f, x, r, CFG)[0] == pytest.approx(
            expect, abs=1e-7)


def test_l_operators_linear_in_f():
    f = make_phantom(EU2, "gaussian")
    axis, h = f.zonal
    doubled = zonal_field(EU2, axis, lambda q: 2.0 * h(q), f.decay_scale,
                          "2g")
    x = Point(np.zeros(2))
    for r in (0.0, 0.3):
        assert l_tilde_star_profile(EU2, doubled, x, r, CFG)[0] == \
            pytest.approx(2 * l_tilde_star_profile(EU2, f, x, r, CFG)[0],
                          rel=1e-10)
    f3 = make_phantom(EU3, "gaussian")
    axis3, h3 = f3.zonal
    tripled = zonal_field(EU3, axis3, lambda q: 3.0 * h3(q), f3.decay_scale,
                          "3g")
    origin = Point(np.zeros(3))
    assert l_star_profile(EU3, tripled, origin, 0.4, CFG)[0] == pytest.approx(
        3 * l_star_profile(EU3, f3, origin, 0.4, CFG)[0], rel=1e-10)


def test_profiles_match_single_values():
    f = make_phantom(EU3, "gaussian")
    x = Point(np.zeros(3))
    rs = np.array([0.0, 0.2, 0.4])
    prof = l_star_profile(EU3, f, x, rs, CFG)
    for r, v in zip(rs, prof):
        assert l_star_profile(EU3, f, x, float(r), CFG)[0] == \
            pytest.approx(float(v))
    f2 = make_phantom(EU2, "gaussian")
    prof2 = l_tilde_star_profile(EU2, f2, Point(np.zeros(2)), rs, CFG)
    assert np.all(np.isfinite(prof2))


@pytest.mark.parametrize("k", [5, 7])
@pytest.mark.parametrize("kind,phantom", [("euclidean", "gaussian"),
                                          ("sphere", "even-poly"),
                                          ("hyperbolic", "radial-hyperbolic")])
def test_cusp_odd_reuses_w_rule_bit_for_bit(kind, phantom, k):
    # the w-rule factors are built once per reduction; each r must give the
    # bits of the per-r formula that rebuilt theta_sinh(k, w) every call
    space = Space(kind, k + 1, k)
    f = make_phantom(space, phantom)
    red = dual_ops._Reduction(space, f, base_point(space), CFG,
                              need_log_moment=False)
    w, ww = gl_nodes(0.0, 18.0, CFG.quad_nodes, panels=3)
    ch = np.cosh(w)
    for r in (0.05, 0.2, 0.45):
        vals = red.tilde(r / ch) * theta_sinh(k, w) * np.sinh(w) \
            / ch ** (k + 2)
        assert red.cusp_odd(r) == r ** (k + 1) * float(np.dot(ww, vals))


def test_dual_mean_sphere_matches_literal_reduction():
    # the angle-substituted implementation vs the literal tilde-mean integral
    f = make_phantom(SP2, "constant-even")
    x = point(SP2, [0, 0, 1.0])
    for r in (0.3, 0.8):
        ref = 4.0 * quad(lambda t: t / np.sqrt((1 - t * t) * (t * t - r * r)),
                         r, 1, points=[r, 1], limit=300)[0]
        got = dual_shifted_mean(SP2, f, x, r, CFG)
        assert got == pytest.approx(ref, abs=1e-9)


def test_l_tilde_sphere_two_routes_agree():
    f = make_phantom(SP2, "constant-even")
    x = point(SP2, [0, 0, 1.0])
    ck = math.pi / 2
    a_term = 2 * ck * quad(lambda t: (1 - t * t) ** -0.5 * t * math.log(t),
                           0, 1, points=[0, 1], limit=300)[0]
    pref = 2.0 * 2.0 * 2 * math.pi * 2.0 / (4 * math.pi)
    for r in (0.2, 0.4):
        b_term = quad(lambda t: (1 - t * t) ** -0.5 * t
                      * kernels.psi_k_closed(1, r / t), 0, r, limit=300)[0]
        b_term += quad(lambda t: (1 - t * t) ** -0.5 * t
                       * kernels.psi_k_closed(1, r / t), r, 1, points=[1],
                       limit=300)[0]
        got = l_tilde_star_profile(SP2, f, x, r, CFG)[0]
        assert got == pytest.approx(pref * (a_term + b_term), abs=1e-7)


def test_lambda_r_closed_form():
    f = make_phantom(EU3, "gaussian")
    x = Point(np.zeros(3))
    assert Lambda_r(EU3, f, x, 0.0, 2, CFG) == 0.0
    for r in (0.4, 1.0):
        assert Lambda_r(EU3, f, x, r, 2, CFG) == pytest.approx(
            (1 - math.exp(-r * r)) / 2, abs=1e-12)


def test_weighted_dual_zero_weight():
    f = make_phantom(EU2, "gaussian")
    bs = weighted_dual_both_sides(EU2, f, lambda rho: 0.0,
                                  Point(np.zeros(2)), CFG)
    assert bs.lhs == 0.0 and bs.rhs == 0.0


def test_weighted_dual_exp_weight_euclidean():
    f = make_phantom(EU2, "gaussian")
    bs = weighted_dual_both_sides(EU2, f, lambda rho: math.exp(-rho * rho),
                                  Point(np.array([0.2, 0.1])), CFG)
    assert abs(bs.lhs - bs.rhs) < 4.0 * bs.lhs_stderr


def test_weighted_dual_sgn_kernel_sphere():
    f = make_phantom(SP2, "even-poly")
    a = lambda rho: math.copysign(1.0, rho * rho - 0.25)
    bs = weighted_dual_both_sides(SP2, f, a, point(SP2, [0.6, 0, 0.8]), CFG,
                                  a_breaks=(0.5,))
    assert abs(bs.lhs - bs.rhs) < 4.0 * bs.lhs_stderr


def _geodesic_single(space, x, r, rng):
    # one geodesic at distance value r from x, built from one Haar draw
    n, k = space.n, space.k
    q = haar_single(n, rng)
    if space.is_euclidean:
        b = q[:, :k]
        p = x.coords + r * q[:, n - 1]
        return Geodesic(b, p - b @ (b.T @ p))
    m = np.eye(n + 1)
    m[:n, :n] = q
    if space.is_sphere:
        m = transport_to(space, x) @ m @ g_theta(space, math.asin(r)).T
        return Geodesic(m[:, :k + 1], None)
    m = transport_to(space, x) @ m @ g_theta(space, -math.asinh(r))
    return Geodesic(m[:, n - k:], None)


def _mean_stderr(vals):
    vals = np.array(vals)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


# a block above every sample count here, so one stack holds all the draws as
# at the default MC_BLOCK, and a block that splits the draws into many stacks
# with a shorter last one
BLOCKS = [4096, 7]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("space,coords,other,r", [
    (Space("euclidean", 3, 2), [0.2, 0.1, -0.3], [-0.4, 0.3, 0.1], 0.5),
    (Space("sphere", 3, 2), [0.0, 0.6, 0.0, 0.8], [0.6, 0.0, 0.8, 0.0], 0.3),
    (Space("hyperbolic", 2, 1), [math.sinh(0.4), 0.0, math.cosh(0.4)],
     [0.0, math.sinh(0.3), math.cosh(0.3)], 0.7),
])
def test_dual_mc_matches_per_draw_loop(space, coords, other, r, block,
                                       monkeypatch):
    # the stacked draws against one rotation and one geodesic at a time, with
    # phi the distance of the geodesic to a fixed point
    monkeypatch.setattr(dual_ops, "MC_BLOCK", block)
    x = point(space, coords)
    y = point(space, other)
    phi = lambda xi: distance_rho(space, y, xi)
    cfg = DualConfig(mc_samples=300, seed=17)
    rng = np.random.default_rng(cfg.seed)
    want = _mean_stderr([phi(_geodesic_single(space, x, r, rng))
                         for _ in range(cfg.mc_samples)])
    assert tuple(dual_shifted_mc(space, phi, x, r, cfg)) == want


@pytest.mark.parametrize("block", BLOCKS)
def test_weighted_samplers_match_per_draw_loops(block, monkeypatch):
    # R^n: a Haar subspace and a Gaussian offset per draw, weighted by the
    # inverse proposal density; S^n: a Haar great sphere per draw; H^n: a
    # uniform rapidity th, then a Haar rotation, per draw, for the geodesic at
    # distance th from the anchor 0.8 from the base point, weighted by the
    # rapidity density
    monkeypatch.setattr(dual_ops, "MC_BLOCK", block)
    cfg = DualConfig(mc_samples=200, seed=9, forward_nodes=16, quad_nodes=16)
    a = lambda rho: math.exp(-rho * rho)
    for space, phantom, coords in [
            (EU3, "gaussian", [0.2, 0.1, 0.0]),
            (SP2, "even-poly", [0.6, 0.0, 0.8]),
            (Space("hyperbolic", 3, 1), "radial-hyperbolic",
             [math.sinh(0.4), 0.0, 0.0, math.cosh(0.4)])]:
        f = make_phantom(space, phantom)
        x = point(space, coords)
        n, k = space.n, space.k
        rng = np.random.default_rng(cfg.seed + 1)
        if space.is_hyperbolic:
            th_max = dual_ops._radial_cap(space, f, x, cfg) + 1.0
            anchor = point(space, [math.sinh(0.8), 0.0, 0.0, math.cosh(0.8)])
        vals = []
        for _ in range(cfg.mc_samples):
            if space.is_euclidean:
                q = haar_single(n, rng)
                z = 2.5 * rng.standard_normal(n - k)
                xi = Geodesic(q[:, :k], q[:, k:] @ z)
                weight = math.exp(0.5 * float(z @ z) / 2.5 ** 2 + 0.5 * (n - k)
                                  * math.log(2.0 * math.pi * 2.5 ** 2))
            elif space.is_sphere:
                xi = Geodesic(haar_single(n + 1, rng)[:, :k + 1], None)
                weight = 1.0
            else:
                th = th_max * rng.random()
                basis, _ = _geodesic_frames(space, anchor, th,
                                            haar_stabilizer(space, rng).matrix)
                xi = Geodesic(basis, None)
                weight = sphere_area(n - k - 1) * th_max \
                    * math.sinh(th) ** (n - k - 1) * math.cosh(th) ** k
            vals.append(weight * radon_forward(space, f, xi, nodes=16)
                        * a(distance_rho(space, x, xi)))
        bs = weighted_dual_both_sides(space, f, a, x, cfg)
        assert (bs.lhs, bs.lhs_stderr) == _mean_stderr(vals)


@pytest.mark.parametrize("space,phantom,coords", [
    (EU2, "gaussian", [0.2, 0.1]),
    (SP2, "even-poly", [0.6, 0.0, 0.8]),
    (Space("hyperbolic", 2, 1), "radial-hyperbolic",
     [math.sinh(0.4), 0.0, math.cosh(0.4)]),
])
def test_weighted_dual_evaluates_one_block_at_a_time(space, phantom, coords,
                                                     monkeypatch):
    # the left side takes one call of f and one stacked QR per block of
    # draws, and f never sees more than MC_BLOCK rays of 3 forward_nodes
    # points: the memory bound of any sample count
    g = make_phantom(space, phantom)
    rows = []

    def evaluator(pts):
        rows.append(pts.size // pts.shape[-1])
        return g.evaluator(pts)
    f = ScalarField(evaluator, g.decay_scale, g.zonal, g.name)
    qr_calls = []
    qr = np.linalg.qr

    def counted_qr(a, *args, **kwargs):
        qr_calls.append(a.shape)
        return qr(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    cfg = DualConfig(mc_samples=2 * dual_ops.MC_BLOCK + 100, seed=4,
                     forward_nodes=16, quad_nodes=16)
    weighted_dual_both_sides(space, f, lambda rho: math.exp(-rho * rho),
                             point(space, coords), cfg)
    assert len(rows) == len(qr_calls) == 3
    assert max(rows) <= dual_ops.MC_BLOCK * 3 * cfg.forward_nodes
