"""The acceptance suite: every advertised tolerance as a programmatic check.

Each check returns a CheckResult with pass/fail and the measured numbers;
the CLI `report` command and the test suite both run this registry.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import SGN_EVEN, inversion_constant
from .dual_ops import (DualConfig, Lambda_r, dual_shifted_mc,
                       dual_shifted_mean, weighted_dual_both_sides, z_score)
from .fields import make_phantom
from .geometry import Point, Space, base_point, point
from .inversion import invert_mader, invert_shifted_dual, mader_classical
from .kernels import KernelParams, lambda_coeffs, phi_closed, phi_oracle, \
    psi_k_closed
from .numerics import RadialProfile, endpoint_derivative
from .transforms import radon_forward

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks"]


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.index:2d} {self.name}"


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_kernel_lemma() -> CheckResult:
    rng = np.random.default_rng(20240613)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(0, 4))
        while True:
            alpha = float(rng.uniform(-0.95, m + 0.95))
            if abs(alpha - round(alpha)) > 0.05:
                break
        u = float(rng.uniform(0.05, 0.93)) if rng.random() < 0.5 \
            else float(rng.uniform(1.07, 4.0))
        p = KernelParams(alpha, m)
        worst = max(worst, abs(phi_closed(p, u) - phi_oracle(p, u)))
    psi_half = abs(psi_k_closed(1, 0.5) + math.pi * math.log(2.0))
    psi_two = abs(psi_k_closed(1, 2.0)
                  - math.pi * math.log((2.0 + math.sqrt(3.0)) / 2.0))
    jump = 0.0
    for alpha, m in [(0.3, 1), (0.7, 2), (-0.4, 0), (1.6, 3)]:
        p = KernelParams(alpha, m)
        jump = max(jump, abs(phi_closed(p, 1.0 + 1e-8) - phi_closed(p, 1.0 - 1e-8)))
    ok = worst < 1e-7 and psi_half < 1e-8 and psi_two < 1e-8 and jump < 1e-6
    return CheckResult(1, "log-kernel closed form vs oracle", ok,
                       dict(worst_abs_err=worst, psi1_half_err=psi_half,
                            psi1_two_err=psi_two, one_sided_jump=jump))


def check_lambda_resolution() -> CheckResult:
    lam = lambda_coeffs(KernelParams(0.5, 1))
    err = float(max(abs(lam[0] - 0.0), abs(lam[1] - 0.5)))
    return CheckResult(
        2, "Laurent coefficients at the forced quadratic case", err < 1e-10,
        dict(coeffs=[float(v) for v in lam], abs_err=err,
             note="sum starts at l = 0; the printed l = 1 variant gives "
                  "lambda_2 = 0 here, contradicting the Hilbert-transform value"))


def check_euclid_sgn_even() -> CheckResult:
    space = Space("euclidean", 3, 2)
    f = make_phantom(space, "gaussian")
    rep = invert_mader(space, f, Point(np.zeros(3)))
    deriv = rep.estimate * rep.constant_used.value
    d_err = _rel(deriv, 8.0 * math.pi)
    e_err = _rel(rep.estimate, 1.0)
    ok = d_err < 1e-3 and e_err < 1e-3
    return CheckResult(3, "euclidean sgn pipeline, n=3 k=2 gaussian", ok,
                       dict(derivative=deriv, derivative_rel_err=d_err,
                            estimate=rep.estimate, estimate_rel_err=e_err,
                            residual=rep.conditioning))


def check_euclid_log_odd() -> CheckResult:
    space = Space("euclidean", 2, 1)
    f = make_phantom(space, "gaussian")
    rep0 = invert_mader(space, f, Point(np.zeros(2)))
    rep1 = invert_mader(space, f, Point(np.array([0.5, 0.0])))
    const_est = rep0.estimate * rep0.constant_used.value / rep0.truth
    ok = (rep0.rel_error < 1e-3 and rep1.rel_error < 1e-3
          and _rel(const_est, 4.0 * math.pi) < 1e-3)
    return CheckResult(4, "euclidean log pipeline, n=2 k=1 gaussian", ok,
                       dict(estimate_origin=rep0.estimate,
                            estimate_offcenter=rep1.estimate,
                            rel_err_origin=rep0.rel_error,
                            rel_err_offcenter=rep1.rel_error,
                            recovered_constant=const_est,
                            expected_constant=4.0 * math.pi))


def check_shifted_dual_euclidean() -> CheckResult:
    space = Space("euclidean", 3, 2)
    f = make_phantom(space, "gaussian")
    x = Point(np.zeros(3))
    cfg = DualConfig()
    rs = 0.02 * np.arange(10)
    prof_err = max(abs(dual_shifted_mean(space, f, x, float(r), cfg)
                       - math.pi * math.exp(-r * r)) for r in rs)
    rep = invert_shifted_dual(space, f, x, cfg)
    deriv = rep.estimate * rep.constant_used.value
    ok = (prof_err < 1e-8 and _rel(deriv, -2.0 * math.pi) < 1e-3
          and rep.rel_error < 1e-3)
    return CheckResult(5, "shifted-dual pipeline, n=3 k=2 gaussian", ok,
                       dict(profile_max_abs_err=float(prof_err),
                            derivative=deriv, estimate=rep.estimate,
                            rel_err=rep.rel_error))


def check_sphere_pipelines() -> CheckResult:
    sp1 = Space("sphere", 2, 1)
    rep1 = invert_mader(sp1, make_phantom(sp1, "constant-even"),
                        point(sp1, [0.0, 0.0, 1.0]))
    sp2 = Space("sphere", 3, 2)
    rep2 = invert_shifted_dual(sp2, make_phantom(sp2, "constant-even"),
                               point(sp2, [0.0, 0.0, 0.0, 1.0]))
    c_x = rep2.constant_used.value
    ok = (rep1.rel_error < 5e-3 and rep2.rel_error < 5e-3
          and abs(c_x + 4.0 * math.pi) < 1e-12)
    return CheckResult(6, "sphere pipelines, n=2 k=1 and n=3 k=2", ok,
                       dict(log_estimate=rep1.estimate,
                            shifted_dual_estimate=rep2.estimate,
                            shifted_dual_constant=c_x))


def check_sphere_sign_experiment() -> CheckResult:
    space = Space("sphere", 4, 2)
    f = make_phantom(space, "constant-even")
    cfg = DualConfig(mean_polar=16, quad_nodes=64)
    rep = invert_mader(space, f, point(space, [0, 0, 0, 0, 1.0]), cfg)
    printed = inversion_constant(space, SGN_EVEN, printed_form=True).value
    resolved = rep.constant_used.value
    est_with_printed = rep.estimate * resolved / printed
    ok = abs(abs(rep.estimate) - 1.0) < 5e-3
    sign = "+" if rep.estimate > 0 else "-"
    return CheckResult(
        7, "sphere sign experiment, n=4 k=2", ok,
        dict(estimate=rep.estimate, resolved_constant=resolved,
             printed_constant=printed, estimate_with_printed=est_with_printed,
             resolved_sign=sign,
             note="the derivation-style constant 2(-1)^((k+2)/2) x printed "
                  "is confirmed; the printed value alone is off by 2"))


def check_hyperbolic_pipelines() -> CheckResult:
    sp1 = Space("hyperbolic", 2, 1)
    rep1 = invert_mader(sp1, make_phantom(sp1, "radial-hyperbolic", power=6),
                        base_point(sp1))
    sp2 = Space("hyperbolic", 3, 2)
    rep2 = invert_shifted_dual(
        sp2, make_phantom(sp2, "radial-hyperbolic", power=6), base_point(sp2))
    ok = rep1.rel_error < 5e-3 and rep2.rel_error < 5e-3
    return CheckResult(8, "hyperbolic pipelines, n=2 k=1 and n=3 k=2", ok,
                       dict(log_estimate=rep1.estimate,
                            shifted_dual_estimate=rep2.estimate))


def _mc_case(space, phantom_name, coords, r, seed, power=None):
    kwargs = {"power": power} if power else {}
    f = make_phantom(space, phantom_name, **kwargs)
    x = point(space, coords)
    cfg = DualConfig(mc_samples=10000, seed=seed, quad_nodes=64)

    def phi(xi):
        return radon_forward(space, f, xi, nodes=32)

    mc = dual_shifted_mc(space, phi, x, r, cfg)
    mean = dual_shifted_mean(space, f, x, r, cfg)
    z, passed = z_score(mc.value, mc.stderr, mean)
    return passed, dict(space=space.kind, n=space.n, k=space.k,
                        phantom=phantom_name, r=r, mc=mc.value,
                        stderr=mc.stderr, mean=mean, z=float(z))


def check_dual_identities() -> CheckResult:
    passes, cases = zip(*[
        _mc_case(Space("euclidean", 2, 1), "gaussian", [0.3, -0.2], 0.6, 101),
        # off-center point: at the origin every plane at distance r sees the
        # same integral and the MC variance degenerates
        _mc_case(Space("euclidean", 3, 2), "gaussian", [0.2, 0.1, -0.3], 0.5, 102),
        _mc_case(Space("sphere", 2, 1), "even-poly", [0.6, 0.0, 0.8], 0.5, 103),
        _mc_case(Space("sphere", 3, 2), "even-poly", [0.0, 0.0, 0.0, 1.0], 0.3, 104),
        _mc_case(Space("hyperbolic", 2, 1), "radial-hyperbolic",
                 [math.sinh(0.4), 0.0, math.cosh(0.4)], 0.7, 105, power=6),
    ])
    ok = all(passes)
    weighted = []
    for space, phantom_name, coords, seed, power in [
            (Space("euclidean", 2, 1), "gaussian", [0.2, 0.1], 201, None),
            (Space("sphere", 2, 1), "even-poly", [0.6, 0.0, 0.8], 202, None),
            (Space("hyperbolic", 2, 1), "radial-hyperbolic",
             [math.sinh(0.4), 0.0, math.cosh(0.4)], 203, 6)]:
        kwargs = {"power": power} if power else {}
        f = make_phantom(space, phantom_name, **kwargs)
        x = point(space, coords)
        cfg = DualConfig(mc_samples=4000, seed=seed, forward_nodes=48,
                         quad_nodes=64)
        n, k = space.n, space.k
        for wname, a, brk in [
                ("exp", lambda rho: math.exp(-rho * rho), ()),
                ("zero", lambda rho: 0.0, ()),
                ("sgn-kernel",
                 lambda rho: rho ** (k + 1 - n)
                 * math.copysign(1.0, rho * rho - 0.25), (0.5,))]:
            bs = weighted_dual_both_sides(space, f, a, x, cfg, a_breaks=brk)
            z, passed = z_score(bs.lhs, bs.lhs_stderr, bs.rhs)
            ok = ok and passed
            weighted.append(dict(space=space.kind, weight=wname, lhs=bs.lhs,
                                 stderr=bs.lhs_stderr, rhs=bs.rhs, z=float(z)))
    return CheckResult(9, "dual-transform identities (MC vs reductions)", ok,
                       dict(mc_cases=list(cases), weighted=weighted,
                            worst_mc_z=max(abs(c["z"]) for c in cases),
                            worst_weighted_z=max(abs(w["z"]) for w in weighted)))


def check_lambda_limit() -> CheckResult:
    space = Space("euclidean", 3, 2)
    f = make_phantom(space, "gaussian")
    x = Point(np.zeros(3))
    cfg = DualConfig()
    rs = 0.02 * np.arange(1, 25)
    details = {}
    ok = True
    for k in (1, 2, 3):
        vals = np.array([Lambda_r(space, f, x, float(r), k, cfg) for r in rs])
        prof = RadialProfile(rs, vals)
        parity = "even" if k % 2 == 0 else "odd"
        deriv, _ = endpoint_derivative(prof, k, k + 6, parity)
        rel = _rel(deriv, math.factorial(k - 1))
        details[f"k{k}_deriv"] = deriv
        details[f"k{k}_rel_err"] = rel
        ok = ok and rel < 1e-3
        if k == 2:
            closed = 0.5 * (1.0 - np.exp(-rs * rs))
            perr = float(np.max(np.abs(vals - closed)))
            details["k2_profile_err"] = perr
            ok = ok and perr < 1e-8
    return CheckResult(10, "endpoint limit of the cap integral", ok, details)


def check_classical() -> CheckResult:
    g2 = lambda th, s: math.sqrt(math.pi) * np.exp(-s * s)
    rep2 = mader_classical(2, g2, np.zeros(2), truth=1.0)
    g3 = lambda th, s: math.pi * np.exp(-s * s)
    rep3 = mader_classical(3, g3, np.zeros(3), truth=1.0)
    space = Space("euclidean", 2, 1)
    f = make_phantom(space, "gaussian")
    rep_op = invert_mader(space, f, Point(np.zeros(2)))
    agree = _rel(rep2.estimate, rep_op.estimate)
    ok = (rep2.rel_error < 1e-3 and rep3.rel_error < 1e-3 and agree < 2e-3)
    return CheckResult(11, "classical hyperplane formulas, n=2 and n=3", ok,
                       dict(estimate_n2=rep2.estimate, estimate_n3=rep3.estimate,
                            agreement_with_operator_pipeline=agree))


def check_determinism() -> CheckResult:
    def run_twice(cmd):
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        return a, b

    base = [sys.executable, "-m", "georadon.cli"]
    out1, out2 = run_twice(base + [
        "invert", "--space", "euclidean", "--n", "2", "--k", "1", "--theorem",
        "1", "--phantom", "gaussian", "--point", "0,0", "--grid-j", "12",
        "--seed", "7"])
    outa, outb = run_twice(base + ["constants", "--space", "sphere", "--n",
                                   "4", "--k", "2"])
    outc, outd = run_twice(base + ["report", "--only", "2"])
    ok = out1 == out2 and outa == outb and outc == outd and len(out1) > 0
    return CheckResult(12, "byte-identical JSON under fixed seeds", ok,
                       dict(invert_bytes=len(out1), constants_bytes=len(outa),
                            report_bytes=len(outc)))


ALL_CHECKS = [
    check_kernel_lemma,
    check_lambda_resolution,
    check_euclid_sgn_even,
    check_euclid_log_odd,
    check_shifted_dual_euclidean,
    check_sphere_pipelines,
    check_sphere_sign_experiment,
    check_hyperbolic_pipelines,
    check_dual_identities,
    check_lambda_limit,
    check_classical,
    check_determinism,
]


def run_checks(indices=None, stream=None) -> list[CheckResult]:
    """Run the acceptance checks (all by default), printing one line each."""
    results = []
    for i, fn in enumerate(ALL_CHECKS, start=1):
        if indices is not None and i not in indices:
            continue
        res = fn()
        results.append(res)
        if stream is not None:
            print(res.line(), file=stream)
    return results


def results_to_json(results) -> str:
    payload = {
        "passed": all(r.passed for r in results),
        "checks": [dict(index=r.index, name=r.name, passed=r.passed,
                        details=r.details) for r in results],
    }
    return json.dumps(payload, sort_keys=True, indent=2)
