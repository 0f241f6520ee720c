"""georadon benchmark: one workload run, with its result as the last stdout line.

    python3 bench/run.py --workload recon_desk --seed 1 --seconds 10 --trace 0

Workloads: recon_desk (every inversion pipeline at default settings),
mc_dual (Monte Carlo dual identities) and cli_cold (one fresh CLI process
per command). The run sets up, then repeats whole rounds until --seconds
have passed (at least one round). A round is the workload's operations
with probe passes over the other workloads' lightest operations spread
through it. Every output is checked against values computed apart from
georadon. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs an untraced and a traced phase and prints the per-layer
metrics and the tracing overhead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# fresh processes timed for setup_s, and pairs timed for cli.import_s
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

RECON_GROUPS = ("recon_euclidean", "recon_sphere", "recon_hyperbolic",
                "recon_classical")
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "recon_s": "s",
    "recon_euclidean_s": "s", "recon_sphere_s": "s", "recon_hyperbolic_s": "s",
    "recon_classical_s": "s", "mc_shifted_s": "s", "mc_weighted_s": "s",
    "cli_p50_s": "s", "cli_s": "s",
}
PER_LAYER = [
    "fields.eval_points", "fields.eval_s",
    "transforms.spherical_mean.calls", "transforms.spherical_mean.self_s",
    "transforms.radon_forward.calls", "transforms.radon_forward.self_s",
    "numerics.sphere_rule.calls", "numerics.sphere_rule.misses",
    "numerics.gl_nodes.calls", "numerics.gl_nodes.self_s",
    "numerics.quad_log_singular.calls", "numerics.quad_log_singular.self_s",
    "numerics.endpoint_derivative.calls", "numerics.endpoint_derivative.self_s",
    "geometry.haar_orthogonal.calls", "geometry.haar_orthogonal.self_s",
    "geometry.geodesic_at_distance.calls", "geometry.geodesic_at_distance.self_s",
    "geometry.distance_rho.calls",
    "dual_ops.dual_shifted_mean.calls", "dual_ops.dual_shifted_mean.self_s",
    "dual_ops.l_star_profile.self_s", "dual_ops.l_tilde_star_profile.self_s",
    "dual_ops.dual_shifted_mc.self_s", "dual_ops.weighted_dual_both_sides.self_s",
    "kernels.phi_closed.calls", "kernels.phi_oracle.calls",
    "kernels.phi_oracle.self_s", "kernels.psi_poly_coeffs.self_s",
    "constants.inversion_constant.calls",
    "inversion.invert_mader.self_s", "inversion.invert_shifted_dual.self_s",
    "inversion.mader_classical.self_s", "inversion.mader_radial_average.calls",
    "cli.import_s", "cli.main_s",
    "trace.untraced_s", "trace.traced_s", "trace.overhead_s",
]


def import_program():
    """Put the checkout's src first on sys.path and import georadon from it."""
    if not os.path.isfile(os.path.join(SRC, "georadon", "__init__.py")):
        raise SystemExit(f"error: no georadon package under {SRC}")
    sys.path.insert(0, SRC)
    import georadon
    if os.path.dirname(os.path.dirname(os.path.realpath(georadon.__file__))) \
            != os.path.realpath(SRC):
        raise SystemExit(f"error: georadon imported from {georadon.__file__}, "
                         f"not from {SRC}")


def prepare(workload: str, seed: int, tiny: bool):
    """Set-up: input generation, plan construction and warm-up."""
    import plans
    runner = plans.CliRunner()
    plan = plans.build_plan(workload, seed, runner, tiny)
    for warm in plan.warmups:
        warm()
    return plan, runner


def measure_setup(args) -> float:
    """Median spawn-to-ready time of fresh processes doing this run's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or line.strip() != b"setup-done":
            raise RuntimeError(f"set-up process failed with code {code}")
        times.append(elapsed)
    return statistics.median(times)


class Tally:
    """Outcome counts and the timed samples of every operation in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.category: dict[str, str] = {}

    def run_pass(self, ops, tracer=None) -> float:
        """One pass over `ops`; returns the seconds its operations took."""
        spent = 0.0
        for op in ops:
            self.attempted += 1
            row = None
            if tracer is not None:
                tracer.op_id += 1
                row = tracer.begin(f"bench.{op.category}")
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # count the failure and keep measuring
                self.failed += 1
                print(f"FAILED {op.label}: {exc!r}", file=sys.stderr)
                continue
            finally:
                if row is not None:
                    tracer.end(row)
            elapsed = time.perf_counter() - t0
            spent += elapsed
            self.samples[op.label].append(elapsed)
            self.category[op.label] = op.category
            msg = op.check(out)
            if msg:
                self.wrong.append(f"{op.label}: {msg}")
                print(f"WRONG {op.label}: {msg}", file=sys.stderr)
        return spent

    def rounds(self, ops, seconds: float, tracer=None) -> list[float]:
        """Whole passes over `ops` until `seconds` have passed (at least one)."""
        spent = []
        t0 = time.perf_counter()
        while True:
            spent.append(self.run_pass(ops, tracer))
            if time.perf_counter() - t0 >= seconds:
                return spent

    def post_checks(self, plan) -> None:
        for check in plan.post_checks:
            msg = check()
            if msg:
                self.wrong.append(msg)
                print(f"WRONG {msg}", file=sys.stderr)

    def group_seconds(self, groups) -> float:
        """Sum over the groups' operations of each one's median time."""
        return sum(statistics.median(times)
                   for label, times in self.samples.items()
                   if self.category[label] in groups)


def end_to_end(tally: Tally, runner, workload: str, setup_s: float):
    cli_times = [t for label, times in tally.samples.items()
                 if tally.category[label] == "cli" for t in times]
    values = {
        "setup_s": setup_s,
        "recon_s": tally.group_seconds(RECON_GROUPS),
        "mc_shifted_s": tally.group_seconds(("mc_shifted",)),
        "mc_weighted_s": tally.group_seconds(("mc_weighted",)),
        "cli_p50_s": statistics.median(cli_times) if cli_times else math.nan,
        "cli_s": tally.group_seconds(("cli",)),
    }
    for g in RECON_GROUPS:
        values[f"{g}_s"] = tally.group_seconds((g,))
    if workload == "cli_cold":
        values["peak_rss_mb"] = runner.max_rss_kb / 1024.0
    else:
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def cli_import_seconds(env) -> float:
    """Fresh-interpreter import of georadon.cli minus a bare start (medians)."""
    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, bucket in (("pass", bare), ("import georadon.cli", loaded)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True, timeout=CHILD_TIMEOUT_S)
            bucket.append(time.perf_counter() - t0)
    return statistics.median(loaded) - statistics.median(bare)


def per_layer(tracer, untraced_s: float, traced_s: float, import_s: float):
    totals = tracer.totals()
    empty = {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    values = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            values[name] = totals.get(span, empty)[stat]
    fields = totals.get("fields.eval", empty)
    mains = totals.get("cli.main", empty)["durations"]
    rule = tracer.originals["numerics.sphere_rule"]
    values.update({
        "fields.eval_points": float(tracer.eval_points),
        "fields.eval_s": fields["total_s"],
        "numerics.sphere_rule.misses": float(rule.cache_info().misses),
        "cli.import_s": import_s,
        "cli.main_s": float(statistics.median(mains)) if len(mains) else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    units = {"calls": "count", "eval_points": "count", "misses": "count"}
    return {name: {"value": values[name],
                   "unit": units.get(name.rpartition(".")[2], "s")}
            for name in PER_LAYER}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="georadon benchmark, one run")
    p.add_argument("--workload", required=True,
                   choices=["recon_desk", "mc_dual", "cli_cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="light settings and cases, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'setup-done' and exit (times setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_only:
        prepare(args.workload, args.seed, args.tiny)
        print("setup-done", flush=True)
        return 0

    setup_s = measure_setup(args) if not args.trace else 0.0
    plan, runner = prepare(args.workload, args.seed, args.tiny)
    tally = Tally()

    if not args.trace:
        tally.rounds(plan.ops, args.seconds)
        tally.post_checks(plan)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in sorted(end_to_end(
                       tally, runner, args.workload, setup_s).items())}
    else:
        from tracer import Tracer
        untraced = tally.rounds(plan.ops, args.seconds)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            traced = tally.rounds(plan.ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
            runner.tracer = None
        tally.post_checks(plan)
        import_s = cli_import_seconds(runner.env)
        import plans
        os.makedirs(plans.OUT, exist_ok=True)
        tracer.save(os.path.join(
            plans.OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
        metrics = per_layer(
            tracer,
            statistics.mean(untraced), statistics.mean(traced),
            import_s)

    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
