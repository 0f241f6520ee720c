import math

import numpy as np
import pytest

from georadon.dual_ops import DualConfig
from georadon.fields import make_phantom
from georadon.geometry import Point, Space, base_point, point
import georadon.inversion as inversion
from georadon.inversion import (GridSpec, invert_mader, invert_shifted_dual,
                                mader_classical, mader_radial_average,
                                tabulate_radial_average)

CFG = DualConfig(quad_nodes=96)


def test_euclidean_sgn_pipeline():
    space = Space("euclidean", 3, 2)
    f = make_phantom(space, "gaussian")
    rep = invert_mader(space, f, Point(np.zeros(3)), CFG)
    assert rep.derivative_order == 3
    assert rep.estimate == pytest.approx(1.0, abs=1e-3)
    deriv = rep.estimate * rep.constant_used.value
    assert deriv == pytest.approx(8 * math.pi, rel=1e-3)


def test_euclidean_log_pipeline_offcenter():
    space = Space("euclidean", 2, 1)
    f = make_phantom(space, "gaussian")
    rep = invert_mader(space, f, Point(np.array([0.5, 0.0])), CFG)
    assert rep.truth == pytest.approx(math.exp(-0.25))
    assert rep.rel_error < 1e-3


def test_shifted_dual_requires_even_k():
    space = Space("euclidean", 2, 1)
    f = make_phantom(space, "gaussian")
    with pytest.raises(ValueError):
        invert_shifted_dual(space, f, Point(np.zeros(2)), CFG)


def test_shifted_dual_euclidean():
    space = Space("euclidean", 3, 2)
    f = make_phantom(space, "gaussian")
    rep = invert_shifted_dual(space, f, Point(np.zeros(3)), CFG)
    assert rep.estimate == pytest.approx(1.0, abs=1e-3)
    assert rep.constant_used.value == pytest.approx(-2 * math.pi)
    assert rep.derivative_order == 2


def test_pipelines_agree_on_same_case():
    space = Space("euclidean", 3, 2)
    f = make_phantom(space, "gaussian")
    x = Point(np.zeros(3))
    r1 = invert_mader(space, f, x, CFG)
    r2 = invert_shifted_dual(space, f, x, CFG)
    assert abs(r1.estimate - r2.estimate) / abs(r2.estimate) < 2e-3


def test_sphere_even_k_pipeline():
    space = Space("sphere", 3, 2)
    f = make_phantom(space, "constant-even")
    rep = invert_shifted_dual(space, f, point(space, [0, 0, 0, 1.0]), CFG)
    assert rep.estimate == pytest.approx(1.0, abs=5e-3)


def test_sphere_sgn_pipeline_small_case():
    # the smallest even-k sphere case; the resolved constant makes it +1
    space = Space("sphere", 3, 2)
    f = make_phantom(space, "constant-even")
    rep = invert_mader(space, f, point(space, [0, 0, 0, 1.0]), CFG)
    assert rep.estimate == pytest.approx(1.0, abs=5e-3)


def test_hyperbolic_radial_reconstruction():
    space = Space("hyperbolic", 2, 1)
    f = make_phantom(space, "radial-hyperbolic", power=6)
    rep = invert_mader(space, f, base_point(space), CFG)
    assert rep.estimate == pytest.approx(1.0, abs=5e-3)


def test_sphere_nonconstant_phantom():
    # non-radial even data through the whole shifted-dual chain
    space = Space("sphere", 3, 2)
    f = make_phantom(space, "even-poly")
    x = point(space, [0.6, 0.0, 0.0, 0.8])
    rep = invert_shifted_dual(space, f, x, CFG)
    assert rep.truth == pytest.approx(1.36)
    assert rep.rel_error < 1e-3


def test_hyperbolic_off_base_point():
    space = Space("hyperbolic", 2, 1)
    f = make_phantom(space, "radial-hyperbolic", power=6)
    x = point(space, [math.sinh(0.5), 0.0, math.cosh(0.5)])
    rep = invert_mader(space, f, x, CFG)
    assert rep.truth == pytest.approx(math.cosh(0.5) ** -6)
    assert rep.rel_error < 5e-3


def test_hyperbolic_sgn_pipeline():
    # even-k sgn operator on the hyperboloid, the remaining branch
    space = Space("hyperbolic", 3, 2)
    f = make_phantom(space, "radial-hyperbolic", power=6)
    rep = invert_mader(space, f, base_point(space), CFG)
    assert rep.estimate == pytest.approx(1.0, abs=5e-3)
    assert rep.constant_used.value == pytest.approx(8 * math.pi)


def test_sphere_sign_factor_negative_branch():
    # k = 4: the resolved constant is negative, 2(-1)^3 times the printed one
    space = Space("sphere", 5, 4)
    f = make_phantom(space, "constant-even")
    cfg = DualConfig(mean_polar=8, quad_nodes=64)
    rep = invert_mader(space, f, point(space, [0, 0, 0, 0, 0, 1.0]), cfg)
    assert rep.constant_used.value == pytest.approx(-256 * math.pi)
    assert rep.estimate == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
def test_truncation_reconstructs_constant(kind):
    # a constant field never decays: only DualConfig.truncation bounds the
    # radial integrals, and without it the pipeline refuses
    space = Space(kind, 2, 1)
    f = make_phantom(space, "constant-even")
    x = base_point(space)
    rep = invert_mader(space, f, x, DualConfig(truncation=3.0))
    assert rep.rel_error < 1e-4
    with pytest.raises(ValueError, match="truncation"):
        invert_mader(space, f, x)


def test_translation_equivariance():
    # the shifted gaussian reconstructed at its own center matches the
    # centered reconstruction
    space = Space("euclidean", 2, 1)
    rep0 = invert_mader(space, make_phantom(space, "gaussian"),
                        Point(np.zeros(2)), CFG)
    shifted = make_phantom(space, "gaussian", center=[0.7, -0.3])
    rep1 = invert_mader(space, shifted, Point(np.array([0.7, -0.3])), CFG)
    assert rep1.estimate == pytest.approx(rep0.estimate, abs=1e-3)


def test_radial_average_direction_independent():
    g = lambda th, s: math.sqrt(math.pi) * np.exp(-s * s)
    got = mader_radial_average(2, g, np.zeros(2), 0.7)
    assert got == pytest.approx(math.sqrt(math.pi) * math.exp(-0.49),
                                rel=1e-12)


def test_radial_average_linear_data():
    g = lambda th, s: np.broadcast_to(s, np.broadcast_shapes(s.shape))
    got = mader_radial_average(2, lambda th, s: s, np.zeros(2), 1.3)
    assert got == pytest.approx(1.3, abs=1e-12)


def test_radial_average_shift_covariance():
    g = lambda th, s: math.sqrt(math.pi) * np.exp(-s * s)
    x = np.array([1.0, 0.0])
    direct = mader_radial_average(2, g, x, 0.4)
    shifted = mader_radial_average(
        2, lambda th, s: g(th, s + th[..., 0] * 1.0), np.zeros(2), 0.4)
    assert direct == pytest.approx(shifted, rel=1e-12)


def test_classical_even_n():
    g = lambda th, s: math.sqrt(math.pi) * np.exp(-s * s)
    rep = mader_classical(2, g, np.zeros(2), truth=1.0)
    assert rep.rel_error < 1e-3
    assert rep.derivative_order == 2


def test_classical_odd_n():
    g = lambda th, s: math.pi * np.exp(-s * s)
    rep = mader_classical(3, g, np.zeros(3), truth=1.0)
    assert rep.rel_error < 1e-3


def test_classical_linearity():
    g = lambda th, s: math.sqrt(math.pi) * np.exp(-s * s)
    g2 = lambda th, s: 2.0 * math.sqrt(math.pi) * np.exp(-s * s)
    r1 = mader_classical(2, g, np.zeros(2), grid=GridSpec(j_max=12))
    r2 = mader_classical(2, g2, np.zeros(2), grid=GridSpec(j_max=12))
    assert r2.estimate == pytest.approx(2.0 * r1.estimate, rel=1e-9)


def _gaussian_data(n, center):
    # the hyperplane transform of exp(-|y - c|^2)
    amp = math.pi ** ((n - 1) / 2.0)
    return lambda dirs, s: amp * np.exp(-(s - dirs @ center) ** 2)


@pytest.mark.parametrize("n", [2, 3])
def test_tabulated_radial_average_matches_direct(n):
    rng = np.random.default_rng(11)
    g = _gaussian_data(n, rng.uniform(-0.5, 0.5, n))
    x = rng.uniform(-0.3, 0.3, n)
    table = tabulate_radial_average(n, g, x)
    assert table.points == 129
    assert table.tail <= 1e-14
    s = rng.uniform(-inversion.S_CAP, inversion.S_CAP, 200)
    direct = mader_radial_average(n, g, x, s)
    scale = np.max(np.abs(mader_radial_average(
        n, g, x, np.linspace(-inversion.S_CAP, inversion.S_CAP, 401))))
    assert np.max(np.abs(table(s) - direct)) <= 1e-13 * scale


def test_tabulation_refuses_unresolved_data():
    # a 0.01-wide bump on [-8, 8] needs far more than 513 Chebyshev points
    g = lambda th, s: np.exp(-(s / 0.01) ** 2)
    with pytest.raises(ValueError, match=r"not resolved by 513 Chebyshev "
                                         r"points.*trailing coefficients are"):
        tabulate_radial_average(2, g, np.zeros(2))
    with pytest.raises(ValueError, match="not resolved by 513"):
        mader_classical(2, g, np.zeros(2))


@pytest.mark.parametrize("n", [2, 3])
def test_classical_averages_directions_once(monkeypatch, n):
    seen = []

    def counted(*args, **kwargs):
        seen.append(np.size(args[3]))
        return mader_radial_average(*args, **kwargs)
    monkeypatch.setattr(inversion, "mader_radial_average", counted)
    c, x = np.linspace(0.2, -0.1, n), np.linspace(0.1, 0.0, n)
    rep = mader_classical(n, _gaussian_data(n, c), x,
                          truth=math.exp(-float((x - c) @ (x - c))))
    assert rep.rel_error < 1e-5
    # 65 points, then the 64 new points of the 129-point level
    assert seen == [65, 64]
    assert rep.diagnostics["chebyshev_points"] == 129
    assert rep.diagnostics["chebyshev_tail"] <= 1e-14
    if n % 2 == 0:
        assert rep.diagnostics["log_nodes"] in (48, 96)
        assert rep.diagnostics["log_delta"] <= 1e-11
    else:
        assert "log_nodes" not in rep.diagnostics


def test_classical_r4_default_settings_in_row_blocks(monkeypatch):
    # 2 * 64^3 directions per s-value: the tabulation takes the Chebyshev
    # points a few rows at a time
    n, rows = 4, []

    def counted(*args, **kwargs):
        rows.append(np.size(args[3]))
        return mader_radial_average(*args, **kwargs)
    monkeypatch.setattr(inversion, "mader_radial_average", counted)
    x = np.array([0.2, 0.1, 0.0, 0.0])
    rep = mader_classical(n, _gaussian_data(n, np.zeros(n)), x,
                          truth=math.exp(-0.05))
    assert rep.rel_error < 1e-5
    assert sum(rows) == rep.diagnostics["chebyshev_points"]
    assert 8 * 2 * 64 ** 3 * max(rows) <= inversion._AVERAGE_BLOCK_BYTES


def test_classical_r5_refused_by_memory_guard():
    # one s-value over 2 * 64^4 directions is refused before allocation
    with pytest.raises(ValueError, match="smaller polar_nodes"):
        mader_classical(5, _gaussian_data(5, np.zeros(5)), np.zeros(5))


def test_log_pipeline_records_quadrature_level():
    space = Space("euclidean", 2, 1)
    rep = invert_mader(space, make_phantom(space, "gaussian"),
                       Point(np.array([0.3, 0.1])), CFG)
    assert rep.diagnostics["log_nodes"] in (48, 96)
    assert rep.diagnostics["log_delta"] <= 1e-11
    sgn = invert_mader(Space("euclidean", 3, 2),
                       make_phantom(Space("euclidean", 3, 2), "gaussian"),
                       Point(np.zeros(3)), CFG)
    assert sgn.diagnostics == {}


def test_report_fields():
    space = Space("euclidean", 2, 1)
    f = make_phantom(space, "gaussian")
    rep = invert_mader(space, f, Point(np.zeros(2)), CFG,
                       GridSpec(h=0.03, j_max=16))
    assert rep.profile.grid.size == 17
    assert rep.conditioning < 1e-6
    assert rep.constant_used.kind == "log_odd"


def _high_dim_case(space: Space):
    # an off-centre point and the space's non-constant phantom
    n = space.n
    w = np.zeros(n)
    w[:2] = 0.3, 0.2
    if space.is_euclidean:
        return (make_phantom(space, "gaussian", center=np.eye(n)[0] * 0.1),
                Point(w))
    if space.is_sphere:
        v = np.append(w, 0.0)
        v[-1] = math.sqrt(1.0 - v @ v)
        return make_phantom(space, "even-poly"), point(space, v)
    r = float(np.linalg.norm(w))
    return (make_phantom(space, "radial-hyperbolic"),
            point(space, np.append(math.sinh(r) * w / r, math.cosh(r))))


# n >= 4 at the default DualConfig and GridSpec: every phantom has a zonal
# profile, so its means never build the 2 p^(n-1)-direction product rule
HIGH_DIM_CASES = [
    ("euclidean", 4, 2, "mader"), ("euclidean", 4, 2, "shifted"),
    ("euclidean", 5, 1, "mader"),
    ("sphere", 4, 2, "mader"), ("sphere", 4, 2, "shifted"),
    ("sphere", 5, 3, "mader"),
    ("hyperbolic", 4, 2, "mader"), ("hyperbolic", 4, 2, "shifted"),
]


@pytest.mark.parametrize("kind,n,k,pipeline", HIGH_DIM_CASES)
def test_high_dimension_reconstructions(kind, n, k, pipeline):
    space = Space(kind, n, k)
    f, x = _high_dim_case(space)
    invert = invert_mader if pipeline == "mader" else invert_shifted_dual
    rep = invert(space, f, x)
    assert rep.rel_error < (1e-3 if space.is_euclidean else 5e-3)
