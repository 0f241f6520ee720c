"""Command-line surface: reproducible experiments and verification reports.

Exit codes: 0 success, 1 usage error, 2 tolerance failure in a verification
command. JSON output is deterministic (sorted keys, repr floats) so identical
configurations and seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .constants import (LOG_ODD, SGN_EVEN, SHIFTED_DUAL, c_k_value,
                        classical_log_constant, classical_sgn_constant,
                        inversion_constant, sphere_area)
from .dual_ops import (DualConfig, dual_shifted_mc, dual_shifted_mean,
                       weighted_dual_both_sides, z_score)
from .fields import make_phantom
from .geometry import (EUCLIDEAN, Point, Space, base_point, haar_rotation,
                       geodesic_at_distance, point)
from .inversion import S_CAP, GridSpec, invert_mader, invert_shifted_dual, \
    mader_classical
from .kernels import KernelParams, phi_closed, phi_oracle, psi_k_closed, \
    psi_sign
from .report import results_to_json, run_checks
from .transforms import radon_forward, spherical_mean, tilde_mean

_OUT_ENV = "GEORADON_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _write_artifact(args, name: str, text: str) -> None:
    outdir = args.out or os.environ.get(_OUT_ENV)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)


def _emit(args, name: str, text: str) -> None:
    """Print text, ending it with one newline, and write it as artifact name."""
    print(text, end="" if text.endswith("\n") else "\n")
    _write_artifact(args, name, text)


def _profile_csv(grid, values) -> str:
    lines = ["r,value"]
    lines += [f"{float(r)!r},{float(v)!r}" for r, v in zip(grid, values)]
    return "\n".join(lines) + "\n"


def _space_from(args) -> Space:
    return Space(args.space, args.n, args.k)


def _point_from(space: Space, text: str) -> Point:
    coords = np.array([float(tok) for tok in text.split(",")])
    try:
        return point(space, coords)
    except ValueError as exc:
        raise ValueError(f"point: {exc}") from None


def _phantom_from(space: Space, args):
    kwargs = {}
    if args.phantom == "radial-hyperbolic":
        kwargs["power"] = args.power
    if args.phantom == "gaussian" and args.center:
        kwargs["center"] = [float(t) for t in args.center.split(",")]
    return make_phantom(space, args.phantom, **kwargs)


def _dual_config(args, **extra) -> DualConfig:
    if args.quad_nodes is not None:
        extra["quad_nodes"] = args.quad_nodes
    return DualConfig(truncation=args.truncation, seed=args.seed,
                      mean_polar=args.mean_polar, **extra)


def cmd_constants(args) -> int:
    space = _space_from(args)
    n, k = space.n, space.k
    payload = {
        "space": space.kind, "n": n, "k": k,
        "sphere_areas": {f"sigma_{m}": sphere_area(m)
                         for m in sorted({k - 1, k, n - k - 1, n - 1, n})},
        "c_k": c_k_value(k),
        "constants": {},
    }
    if k % 2 == 0:
        payload["constants"]["sgn_even"] = inversion_constant(space, SGN_EVEN).value
        payload["constants"]["shifted_dual"] = \
            inversion_constant(space, SHIFTED_DUAL).value
        if space.kind == "sphere":
            payload["constants"]["sgn_even_printed"] = \
                inversion_constant(space, SGN_EVEN, printed_form=True).value
    else:
        payload["constants"]["log_odd"] = inversion_constant(space, LOG_ODD).value
    if space.kind == EUCLIDEAN and k == n - 1:
        if n % 2 == 0:
            payload["constants"]["classical_log"] = classical_log_constant(n)
        else:
            payload["constants"]["classical_sgn"] = classical_sgn_constant(n)
    _emit(args, "constants.json", _dump_json(payload))
    return 0


def cmd_lemma_verify(args) -> int:
    params = KernelParams(args.alpha, args.m)
    us = [u for u in np.linspace(0.05, 3.95, args.num)
          if abs(u - 1.0) > 0.05]
    rows = ["u,closed,oracle,abs_err"]
    worst = 0.0
    for u in us:
        c = float(phi_closed(params, float(u)))
        o = float(phi_oracle(params, float(u)))
        err = abs(c - o)
        worst = max(worst, err)
        rows.append(f"{float(u)!r},{c!r},{o!r},{err!r}")
    _emit(args, "lemma_verify.csv", "\n".join(rows) + "\n")
    _emit(args, "lemma_verify.json",
          _dump_json({"alpha": args.alpha, "m": args.m, "points": len(us),
                      "worst_abs_err": worst, "tolerance": args.tol,
                      "passed": worst < args.tol}))
    return 0 if worst < args.tol else 2


def cmd_psi(args) -> int:
    us = np.linspace(args.u_min, args.u_max, args.num)
    us = us[np.abs(us - 1.0) > 1e-9]
    rows = ["u,value"]
    for u in us:
        v = psi_k_closed(args.k, float(u)) if args.k % 2 else \
            psi_sign(args.k, float(u))
        rows.append(f"{float(u)!r},{v!r}")
    _emit(args, "psi.csv", "\n".join(rows) + "\n")
    return 0


def cmd_forward(args) -> int:
    space = _space_from(args)
    f = _phantom_from(space, args)
    x = _point_from(space, args.point) if args.point else base_point(space)
    xi = geodesic_at_distance(space, x, args.distance,
                              haar_rotation(space, args.seed))
    value = radon_forward(space, f, xi, nodes=args.quad_nodes)
    payload = {"space": space.kind, "n": space.n, "k": space.k,
               "phantom": f.name, "distance": args.distance,
               "seed": args.seed, "value": value}
    _emit(args, "forward.json", _dump_json(payload))
    return 0


def cmd_means(args) -> int:
    space = _space_from(args)
    f = _phantom_from(space, args)
    x = _point_from(space, args.point) if args.point else base_point(space)
    grid = np.linspace(args.t_min, args.t_max, args.num)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    mean = tilde_mean if args.variant == "tilde" else spherical_mean
    _emit(args, "means.csv", _profile_csv(grid, mean(space, f, x, grid)))
    return 0


def cmd_invert(args) -> int:
    space = _space_from(args)
    f = _phantom_from(space, args)
    x = _point_from(space, args.point) if args.point else base_point(space)
    cfg = _dual_config(args)
    grid = GridSpec(h=args.grid_h, j_max=args.grid_j)
    if args.theorem == "mader":
        n = space.n
        if space.kind != EUCLIDEAN or args.phantom != "gaussian":
            raise ValueError("the classical pipeline is wired for the "
                             "euclidean gaussian phantom")
        if args.truncation is not None:
            raise ValueError(
                "--truncation does not apply to --theorem mader, whose "
                f"s-integrals stop at the fixed cut |s| = {S_CAP:g}")
        if n % 2 == 0 and args.quad_nodes is not None:
            raise ValueError(
                "--quad-nodes does not apply to --theorem mader on even n, "
                "whose log-kernel integrals use a fixed 24/48/96-node ladder")
        amp = math.pi ** ((n - 1) / 2.0)
        center = f.zonal[0]

        def g(dirs, s):
            return amp * np.exp(-(s - dirs @ center) ** 2)

        rep = mader_classical(n, g, x.coords, grid=grid, truth=f.at(x),
                              quad_nodes=cfg.quad_nodes,
                              polar_nodes=cfg.mean_polar)
    elif args.theorem == "1":
        rep = invert_mader(space, f, x, cfg, grid)
    else:
        rep = invert_shifted_dual(space, f, x, cfg, grid)
    payload = {
        "estimate": rep.estimate,
        "truth": rep.truth,
        "rel_error": rep.rel_error,
        "constant": rep.constant_used.value,
        "constant_kind": rep.constant_used.kind,
        "derivative_order": rep.derivative_order,
        "residual": rep.conditioning,
        "seed": args.seed,
    }
    _emit(args, "invert.json", _dump_json(payload))
    _write_artifact(args, "invert_profile.csv",
                    _profile_csv(rep.profile.grid, rep.profile.values))
    return 0


def cmd_crosscheck(args) -> int:
    space = _space_from(args)
    f = _phantom_from(space, args)
    x = _point_from(space, args.point) if args.point else base_point(space)
    cfg = _dual_config(args, mc_samples=args.mc_samples)

    def phi(xi):
        return radon_forward(space, f, xi, nodes=cfg.quad_nodes)

    mc = dual_shifted_mc(space, phi, x, args.distance, cfg)
    mean = dual_shifted_mean(space, f, x, args.distance, cfg)
    z_mc, ok_mc = z_score(mc.value, mc.stderr, mean)
    bs = weighted_dual_both_sides(space, f,
                                  lambda rho: math.exp(-rho * rho), x, cfg)
    z_w, ok_w = z_score(bs.lhs, bs.lhs_stderr, bs.rhs)
    passed = ok_mc and ok_w
    payload = {"mc_value": mc.value, "mc_stderr": mc.stderr,
               "mean_reduction": mean, "z_mc": z_mc,
               "weighted_lhs": bs.lhs, "weighted_lhs_stderr": bs.lhs_stderr,
               "weighted_rhs": bs.rhs, "z_weighted": z_w,
               "seed": args.seed, "passed": passed}
    _emit(args, "crosscheck.json", _dump_json(payload))
    return 0 if passed else 2


def cmd_report(args) -> int:
    indices = set(args.only) if args.only else None
    results = run_checks(indices=indices, stream=sys.stdout)
    text = results_to_json(results)
    _write_artifact(args, "report.json", text)
    if args.out is None and os.environ.get(_OUT_ENV) is None:
        print(text)
    return 0 if all(r.passed for r in results) else 2


def _add_space_args(p):
    p.add_argument("--space", required=True,
                   choices=["euclidean", "sphere", "hyperbolic"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)


def _add_phantom_args(p):
    p.add_argument("--phantom", default="gaussian")
    p.add_argument("--power", type=int, default=6,
                   help="decay power of the radial-hyperbolic phantom")
    p.add_argument("--center", default=None,
                   help="comma-separated gaussian center")
    p.add_argument("--point", default=None,
                   help="comma-separated ambient coordinates")


def _add_numeric_args(p):
    p.add_argument("--quad-nodes", type=int, default=None,
                   help="quadrature nodes per panel (default 96)")
    p.add_argument("--mean-polar", type=int, default=64)
    p.add_argument("--truncation", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="georadon",
                     description="Geodesic Radon transforms and inversion on "
                                 "constant-curvature spaces")
    parser.add_argument("--out", default=None,
                        help=f"output directory (or ${_OUT_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="closed-form constants as JSON")
    _add_space_args(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("lemma-verify",
                       help="closed form vs oracle sweep of the log kernel")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--num", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(fn=cmd_lemma_verify)

    p = sub.add_parser("psi", help="tabulate the sgn/log reduction kernels")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u-min", type=float, default=0.05)
    p.add_argument("--u-max", type=float, default=3.0)
    p.add_argument("--num", type=int, default=60)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("forward", help="forward transform over one geodesic")
    _add_space_args(p)
    _add_phantom_args(p)
    p.add_argument("--distance", type=float, default=0.0)
    p.add_argument("--quad-nodes", type=int, default=96)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("means", help="spherical-mean profile as CSV")
    _add_space_args(p)
    _add_phantom_args(p)
    p.add_argument("--variant", choices=["plain", "tilde"], default="plain")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--num", type=int, default=25)
    p.set_defaults(fn=cmd_means)

    p = sub.add_parser("invert", help="run a reconstruction pipeline")
    _add_space_args(p)
    _add_phantom_args(p)
    p.add_argument("--theorem", choices=["1", "2", "mader"], required=True)
    p.add_argument("--grid-h", type=float, default=0.02)
    p.add_argument("--grid-j", type=int, default=24)
    _add_numeric_args(p)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("crosscheck", help="dual-transform identity checks")
    _add_space_args(p)
    _add_phantom_args(p)
    p.add_argument("--distance", type=float, default=0.5)
    p.add_argument("--mc-samples", type=int, default=4000)
    _add_numeric_args(p)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("report", help="run the full acceptance suite")
    p.add_argument("--only", type=int, nargs="*", default=None,
                   help="subset of check indices")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ImportError) as exc:
        # ImportError: the QUADPACK oracle without the scipy extra
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
