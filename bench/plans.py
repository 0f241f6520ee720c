"""Inputs and operations of the three workloads.

Every input is drawn from the workload seed: each case has its own stream,
keyed by the seed and the case label, so a case gets the same inputs in
whichever workload it runs. The program only ever sees the drawn inputs.
Operations call georadon through module attribute lookups at call time, so
the tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import georadon as G

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
CLI_CHILD = os.path.join(ROOT, "bench", "cli_child.py")

# a CLI child that has not exited by then is killed and counted as failed
CLI_TIMEOUT_S = 120.0

RADIAL_POWER = 6


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `check` is not."""

    category: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    # one round: the workload's operations with the probe passes spread in
    ops: list[Op]
    warmups: list[Callable[[], object]] = field(default_factory=list)
    # untimed checks run once after the timed phase
    post_checks: list[Callable[[], str | None]] = field(default_factory=list)


def case_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _unit(rng, m: int) -> np.ndarray:
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _euclid_inputs(rng, n: int):
    """Gaussian centre in [-0.3, 0.3]^n, point 0.2-0.6 away from it."""
    c = rng.uniform(-0.3, 0.3, n)
    x = c + rng.uniform(0.2, 0.6) * _unit(rng, n)
    return c, x


def _sphere_point(rng, n: int) -> np.ndarray:
    """Point of S^n at angle 0.3-1.2 rad from the base point e_(n+1)."""
    a = rng.uniform(0.3, 1.2)
    x = np.empty(n + 1)
    x[:n] = math.sin(a) * _unit(rng, n)
    x[n] = math.cos(a)
    return x


def _hyperbolic_point(rng, n: int):
    """Point of H^n at distance 0.2-0.6 from the base point, and the distance."""
    d = rng.uniform(0.2, 0.6)
    x = np.empty(n + 1)
    x[:n] = math.sinh(d) * _unit(rng, n)
    x[n] = math.cosh(d)
    return x, d


def _fmt(v) -> str:
    return ",".join(repr(float(t)) for t in np.atleast_1d(v))


# ----------------------------------------------------------- recon_desk

def _gaussian_hyperplane_data(n: int, center: np.ndarray):
    """g(theta, s): the hyperplane transform of exp(-|y - c|^2)."""
    amp = math.pi ** ((n - 1) / 2.0)

    def g(dirs, s):
        return amp * np.exp(-(s - dirs @ center) ** 2)

    return g


# label, space kind, n, k, pipeline; pipeline "log"/"sgn" is invert_mader
RECON_CASES = [
    ("R2k1-log", "euclidean", 2, 1, "log"),
    ("R3k1-log", "euclidean", 3, 1, "log"),
    ("R3k2-sgn", "euclidean", 3, 2, "sgn"),
    ("R3k2-shifted", "euclidean", 3, 2, "shifted"),
    ("R2-classical", "euclidean", 2, 1, "classical"),
    ("R3-classical", "euclidean", 3, 2, "classical"),
    ("S2k1-log", "sphere", 2, 1, "log"),
    ("S3k2-sgn", "sphere", 3, 2, "sgn"),
    ("S3k2-shifted", "sphere", 3, 2, "shifted"),
    ("H2k1-log", "hyperbolic", 2, 1, "log"),
    ("H3k2-sgn", "hyperbolic", 3, 2, "sgn"),
    ("H3k2-shifted", "hyperbolic", 3, 2, "shifted"),
]

# the cheapest desk cases, one per metric group, for other workloads' probes
RECON_PROBE_LABELS = ("R2k1-log", "R2-classical", "S2k1-log", "H2k1-log")


def recon_op(seed: int, label: str, kind: str, n: int, k: int, pipeline: str,
             tiny: bool):
    rng = case_rng(seed, label)
    space = G.Space(kind, n, k)
    cfg = G.DualConfig(mean_polar=8, quad_nodes=32) if tiny else G.DualConfig()
    grid = G.GridSpec()
    if kind == "euclidean":
        c, xc = _euclid_inputs(rng, n)
        f = G.make_phantom(space, "gaussian", center=c)
        x = G.Point(xc)
        truth = checks.gaussian_value(xc, c)
        probe_t = 0.3
    elif kind == "sphere":
        xc = _sphere_point(rng, n)
        f = G.make_phantom(space, "even-poly")
        x = G.point(space, xc)
        truth = checks.even_poly_value(xc)
        probe_t = 0.5
    else:
        xc, d = _hyperbolic_point(rng, n)
        f = G.make_phantom(space, "radial-hyperbolic", power=RADIAL_POWER)
        x = G.point(space, xc)
        truth = checks.radial_hyperbolic_value(d, RADIAL_POWER)
        probe_t = 1.5
    family = "classical" if pipeline == "classical" else kind

    if pipeline == "classical":
        g = _gaussian_hyperplane_data(n, c)
        polar = 16 if tiny else 64
        quad_nodes = 32 if tiny else 96

        def run():
            return G.mader_classical(n, g, xc, grid=grid, quad_nodes=quad_nodes,
                                     polar_nodes=polar).estimate

        def warm():
            return G.mader_radial_average(n, g, xc, 0.0, polar)
    else:
        invert = "invert_shifted_dual" if pipeline == "shifted" \
            else "invert_mader"

        def run():
            return getattr(G, invert)(space, f, x, cfg, grid).estimate

        def warm():
            return G.spherical_mean(space, f, x, probe_t, cfg.mean_polar)

    def check(estimate):
        return checks.check_recon(estimate, truth, family)

    return Op(f"recon_{family}", label, run, check), warm


def recon_ops(seed: int, tiny: bool, labels=None):
    ops, warms = [], []
    for case in RECON_CASES:
        if labels is not None and case[0] not in labels:
            continue
        op, warm = recon_op(seed, *case, tiny=tiny)
        ops.append(op)
        warms.append(warm)
    return ops, warms


# -------------------------------------------------------------- mc_dual

# label, space kind, n, k: the shifted-dual cases of acceptance check 9
SHIFTED_CASES = [
    ("shifted-R2k1", "euclidean", 2, 1),
    ("shifted-R3k2", "euclidean", 3, 2),
    ("shifted-S2k1", "sphere", 2, 1),
    ("shifted-S3k2", "sphere", 3, 2),
    ("shifted-H2k1", "hyperbolic", 2, 1),
]
WEIGHTED_CASES = [
    ("weighted-R2", "euclidean", 2, 1),
    ("weighted-S2", "sphere", 2, 1),
    ("weighted-H2", "hyperbolic", 2, 1),
]
SHIFTED_SAMPLES = 10000
SHIFTED_FORWARD_NODES = 32
WEIGHTED_SAMPLES = 4000
WEIGHTED_FORWARD_NODES = 48
MC_QUAD_NODES = 64
# how many of each shifted case's geodesics get an independent forward check
FORWARD_CHECK_SAMPLES = 8
# Monte Carlo samples of the light cases other workloads run as probes
PROBE_SAMPLES = 1000
TINY_SAMPLES = 200


def _mc_field(rng, kind: str, n: int, k: int):
    """Phantom, point and a forward-transform reference for one MC case."""
    space = G.Space(kind, n, k)
    if kind == "euclidean":
        c, xc = _euclid_inputs(rng, n)
        f = G.make_phantom(space, "gaussian", center=c)

        def reference(xi):
            return checks.gaussian_forward(
                k, checks.plane_distance(c, xi.basis, xi.offset))
        return space, f, G.Point(xc), reference
    if kind == "sphere":
        f = G.make_phantom(space, "even-poly")

        def reference(xi):
            return checks.even_poly_forward(xi.basis)
        return space, f, G.point(space, _sphere_point(rng, n)), reference
    f = G.make_phantom(space, "radial-hyperbolic", power=RADIAL_POWER)

    def reference(xi):
        return checks.radial_hyperbolic_forward(
            k, RADIAL_POWER, checks.hyperboloid_cosh_distance(xi.basis))
    return space, f, G.point(space, _hyperbolic_point(rng, n)[0]), reference


def _embed(space, q: np.ndarray):
    """Rotation acting as q on the stabiliser of the base point."""
    if space.kind == "euclidean":
        return G.Rotation(q)
    m = np.eye(space.n + 1)
    m[:space.n, :space.n] = q
    return G.Rotation(m)


def shifted_op(seed: int, label: str, kind: str, n: int, k: int, samples: int):
    rng = case_rng(seed, label)
    space, f, x, reference = _mc_field(rng, kind, n, k)
    r = float(rng.uniform(0.2, 0.6) if kind == "sphere" else rng.uniform(0.3, 0.7))
    mc_seed = int(rng.integers(0, 2 ** 31))
    cfg = G.DualConfig(mc_samples=samples, seed=mc_seed,
                       forward_nodes=SHIFTED_FORWARD_NODES,
                       quad_nodes=MC_QUAD_NODES)

    def phi(xi):
        return G.radon_forward(space, f, xi, nodes=SHIFTED_FORWARD_NODES)

    def run():
        mc = G.dual_shifted_mc(space, phi, x, r, cfg)
        return mc.value, mc.stderr, G.dual_shifted_mean(space, f, x, r, cfg)

    def check(out):
        return checks.check_z(*out, what=f"{label} shifted dual")

    def forward_check():
        # the first geodesics of the Monte Carlo draw, by the same recipe
        draw = np.random.default_rng(mc_seed)
        for i in range(FORWARD_CHECK_SAMPLES):
            rot = _embed(space, G.geometry.haar_orthogonal(space.n, draw))
            xi = G.geodesic_at_distance(space, x, r, rot)
            msg = checks.check_forward(phi(xi), reference(xi),
                                       f"{label} geodesic {i}")
            if msg:
                return msg
        return None

    def warm():
        rot = _embed(space, np.eye(space.n))
        return phi(G.geodesic_at_distance(space, x, r, rot))

    return Op("mc_shifted", label, run, check), warm, forward_check


def weighted_op(seed: int, label: str, kind: str, n: int, k: int, samples: int):
    rng = case_rng(seed, label)
    space, f, x, _ = _mc_field(rng, kind, n, k)
    cfg = G.DualConfig(mc_samples=samples,
                       seed=int(rng.integers(0, 2 ** 31)),
                       forward_nodes=WEIGHTED_FORWARD_NODES,
                       quad_nodes=MC_QUAD_NODES)

    def weight(rho):
        return math.exp(-rho * rho)

    def run():
        bs = G.weighted_dual_both_sides(space, f, weight, x, cfg)
        return bs.lhs, bs.lhs_stderr, bs.rhs

    def check(out):
        return checks.check_z(*out, what=f"{label} weighted dual")

    return Op("mc_weighted", label, run, check)


def mc_ops(seed: int, tiny: bool, probe: bool = False):
    """The mc_dual operations; `probe` keeps one light case of each kind."""
    ops, warms, post = [], [], []
    shifted = SHIFTED_CASES[:1] if probe else SHIFTED_CASES
    weighted = WEIGHTED_CASES[:1] if probe else WEIGHTED_CASES
    for case in shifted:
        samples = TINY_SAMPLES if tiny else PROBE_SAMPLES if probe \
            else SHIFTED_SAMPLES
        op, warm, fwd = shifted_op(seed, *case, samples=samples)
        ops.append(op)
        warms.append(warm)
        post.append(fwd)
    for case in weighted:
        samples = TINY_SAMPLES if tiny else PROBE_SAMPLES if probe \
            else WEIGHTED_SAMPLES
        ops.append(weighted_op(seed, *case, samples=samples))
    return ops, warms, post


# ------------------------------------------------------------- cli_cold

@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class CliRunner:
    """Spawns one georadon CLI process per call, from the checkout's src.

    With `tracer` set, the child runs under bench/cli_child.py, which
    wraps the same functions and writes its spans for the parent to merge.
    """

    def __init__(self):
        self.tracer = None
        self.max_rss_kb = 0
        env = dict(os.environ)
        env.pop("GEORADON_OUTDIR", None)
        env["PYTHONPATH"] = SRC
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env = env

    def __call__(self, argv: list[str]) -> CliResult:
        os.makedirs(OUT, exist_ok=True)
        env = self.env
        if self.tracer is None:
            cmd = [sys.executable, "-m", "georadon.cli", *argv]
        else:
            cmd = [sys.executable, CLI_CHILD, *argv]
            env = dict(env, GEORADON_BENCH_SPANS=os.path.join(OUT, "child_spans.npz"))
        err_path = os.path.join(OUT, "cli_stderr.txt")
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode(errors="replace")
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.merge_file(env["GEORADON_BENCH_SPANS"])
        return CliResult(proc.returncode, out.decode(), err_text)


def _cli_check(label: str, inner, last: dict):
    """Exit code 0, `inner` accepts stdout, and stdout is byte-identical to
    the previous run of the same command in this process."""
    def check(res: CliResult):
        previous = last.get(label)
        last[label] = res.stdout
        if res.returncode != 0:
            return (f"exit code {res.returncode}: "
                    f"{res.stderr.strip().splitlines()[-1:]}")
        if previous is not None and previous != res.stdout:
            return f"{label}: stdout differs from its previous run"
        try:
            return inner(res.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc!r}"
    return check


def _forward_euclidean(seed: int):
    rng = case_rng(seed, "cli-forward-euclidean")
    n, k = 3, 2
    c, xc = _euclid_inputs(rng, n)
    d = float(rng.uniform(0.2, 0.8))
    rot_seed = int(rng.integers(0, 10 ** 6))
    space = G.Space("euclidean", n, k)
    xi = G.geodesic_at_distance(space, G.Point(xc), d,
                                G.haar_rotation(space, rot_seed))
    ref = checks.gaussian_forward(k, checks.plane_distance(c, xi.basis, xi.offset))
    argv = ["forward", "--space", "euclidean", "--n", str(n), "--k", str(k),
            "--phantom", "gaussian", f"--center={_fmt(c)}", f"--point={_fmt(xc)}",
            "--distance", repr(d), "--seed", str(rot_seed)]
    return argv, ref


def _forward_hyperbolic(seed: int):
    rng = case_rng(seed, "cli-forward-hyperbolic")
    n, k = 3, 2
    xc, _ = _hyperbolic_point(rng, n)
    r = float(rng.uniform(0.2, 0.8))
    rot_seed = int(rng.integers(0, 10 ** 6))
    space = G.Space("hyperbolic", n, k)
    xi = G.geodesic_at_distance(space, G.point(space, xc), r,
                                G.haar_rotation(space, rot_seed))
    ref = checks.radial_hyperbolic_forward(
        k, RADIAL_POWER, checks.hyperboloid_cosh_distance(xi.basis))
    argv = ["forward", "--space", "hyperbolic", "--n", str(n), "--k", str(k),
            "--phantom", "radial-hyperbolic", "--power", str(RADIAL_POWER),
            f"--point={_fmt(xc)}", "--distance", repr(r),
            "--seed", str(rot_seed)]
    return argv, ref


LEMMA_ALPHA, LEMMA_M = 0.3, 2
# crosscheck exits 2 when |z| >= 3, which a correct program does for about
# 0.5% of seeds, so its inputs are fixed rather than drawn
CROSSCHECK_ARGV = ["crosscheck", "--space", "euclidean", "--n", "2", "--k", "1",
                   "--phantom", "gaussian", "--point=0.3,-0.2",
                   "--distance", "0.5", "--mc-samples", "1000", "--seed", "0"]


def cli_commands(seed: int):
    """(label, argv, check on stdout) for the cli_cold command list."""
    cmds = []
    for kind, n, k in (("euclidean", 3, 2), ("sphere", 4, 2),
                       ("hyperbolic", 3, 1)):
        cmds.append((f"constants-{kind}",
                     ["constants", "--space", kind, "--n", str(n), "--k", str(k)],
                     lambda out, k=k: checks.check_cli_constants(out, k)))
    for k in (3, 4):
        cmds.append((f"psi-k{k}", ["psi", "--k", str(k)],
                     lambda out, k=k: checks.check_cli_psi(out, k)))
    for label, (argv, ref) in (("forward-euclidean", _forward_euclidean(seed)),
                               ("forward-hyperbolic", _forward_hyperbolic(seed))):
        cmds.append((label, argv,
                     lambda out, ref=ref, label=label: checks.check_cli_value(
                         out, "value", ref, checks.FORWARD_REL_TOL, label)))

    rng = case_rng(seed, "cli-means")
    xs = _sphere_point(rng, 3)
    t_lo = float(rng.uniform(-0.5, 0.0))
    t_hi = float(rng.uniform(0.5, 0.95))
    cmds.append(("means-sphere",
                 ["means", "--space", "sphere", "--n", "3", "--k", "1",
                  "--phantom", "even-poly", f"--point={_fmt(xs)}",
                  "--t-min", repr(t_lo), "--t-max", repr(t_hi)],
                 lambda out: checks.check_cli_means(out, float(xs[0]), 3)))
    cmds.append(("lemma-verify",
                 ["lemma-verify", "--alpha", repr(LEMMA_ALPHA), "--m", str(LEMMA_M)],
                 lambda out: checks.check_cli_lemma(out, LEMMA_ALPHA, LEMMA_M)))

    rng = case_rng(seed, "cli-invert")
    c, xc = _euclid_inputs(rng, 2)
    truth = checks.gaussian_value(xc, c)
    cmds.append(("invert-log",
                 ["invert", "--space", "euclidean", "--n", "2", "--k", "1",
                  "--theorem", "1", "--phantom", "gaussian",
                  f"--center={_fmt(c)}", f"--point={_fmt(xc)}", "--grid-j", "12"],
                 lambda out: checks.check_cli_value(
                     out, "estimate", truth, checks.RECON_REL_TOL["euclidean"],
                     "invert-log")))
    # centred phantom: with --theorem mader the CLI ignores --center
    xm = float(rng.uniform(0.2, 0.6)) * _unit(rng, 2)
    truth_m = checks.gaussian_value(xm, np.zeros(2))
    cmds.append(("invert-mader",
                 ["invert", "--space", "euclidean", "--n", "2", "--k", "1",
                  "--theorem", "mader", "--phantom", "gaussian",
                  f"--point={_fmt(xm)}"],
                 lambda out: checks.check_cli_value(
                     out, "estimate", truth_m, checks.RECON_REL_TOL["classical"],
                     "invert-mader")))
    cmds.append(("crosscheck", list(CROSSCHECK_ARGV), checks.check_cli_crosscheck))
    return cmds


# the command run twice in each round, so that every round checks that a
# repeated command prints the same bytes
REPEATED = "forward-euclidean"
CLI_PROBE_LABELS = ("constants-euclidean",)


def cli_ops(seed: int, runner: CliRunner, labels=None):
    cmds = cli_commands(seed)
    if labels is None:
        cmds.append(next(c for c in cmds if c[0] == REPEATED))
    else:
        cmds = [c for c in cmds if c[0] in labels]
    last = {}
    return [Op("cli", label, lambda argv=argv: runner(argv),
               _cli_check(label, inner, last))
            for label, argv, inner in cmds]


# ---------------------------------------------------------------- plans

WORKLOADS = ("recon_desk", "mc_dual", "cli_cold")


# probe passes per round, spread evenly through it. Within a pass each
# probe runs back to back several times, so that most of its samples, and
# so its median, come after the first run has warmed the caches; the
# shortest probes run most often.
PROBE_PASSES = 3
PROBE_REPEATS = {"R2-classical": 3, "weighted-R2": 3, "constants-euclidean": 1}
PROBE_REPEATS_DEFAULT = 6
# operations run twice per round, before and after the rest, so that each
# is sampled at two moments; the rest run once
TWICE = {"mc_dual": tuple(c[0] for c in WEIGHTED_CASES)}
# allocated and freed once in set-up: glibc then serves temporaries below
# this size from memory it keeps, as it does after the program's first
# large temporary, instead of faulting in fresh pages for the first ones
ALLOCATOR_WARMUP_BYTES = 30 * 2 ** 20


def _round(workload: str, ops, probes, passes: int):
    """The workload's operations with the probe passes at evenly spaced
    points; see TWICE and PROBE_REPEATS."""
    twice = [op for op in ops if op.label in TWICE.get(workload, ())]
    once = [op for op in ops if op.label not in TWICE.get(workload, ())]
    main = twice + once + twice
    probe_pass = [op for op in probes for _ in range(
        PROBE_REPEATS.get(op.label, PROBE_REPEATS_DEFAULT))]
    out = []
    for i in range(passes):
        lo, hi = i * len(main) // passes, (i + 1) * len(main) // passes
        out += probe_pass + main[lo:hi]
    return out


def _warm_allocator():
    return np.ones(ALLOCATOR_WARMUP_BYTES // 8).sum()


def build_plan(workload: str, seed: int, runner: CliRunner,
               tiny: bool = False) -> Plan:
    """One round of a workload, with its warm-ups and post-checks.

    Probes give every run a value for every end-to-end metric: the
    lightest operations of the other two workloads, spread through the
    round (see README).
    """
    passes = 1 if tiny else PROBE_PASSES
    if workload == "recon_desk":
        ops, warms = recon_ops(seed, tiny, RECON_PROBE_LABELS if tiny else None)
        mc, mc_warms, post = mc_ops(seed, tiny, probe=True)
        probes = mc + cli_ops(seed, runner, CLI_PROBE_LABELS)
        warms += mc_warms
    elif workload == "mc_dual":
        ops, warms, post = mc_ops(seed, tiny)
        if tiny:
            ops = ops[:1] + ops[-1:]
        recon, recon_warms = recon_ops(seed, tiny, RECON_PROBE_LABELS)
        probes = recon + cli_ops(seed, runner, CLI_PROBE_LABELS)
        warms += recon_warms
    elif workload == "cli_cold":
        ops = cli_ops(seed, runner, CLI_PROBE_LABELS if tiny else None)
        recon, warms = recon_ops(seed, tiny, RECON_PROBE_LABELS)
        mc, mc_warms, post = mc_ops(seed, tiny, probe=True)
        probes = recon + mc
        warms += mc_warms
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(_round(workload, ops, probes, passes),
                warmups=[_warm_allocator] + warms, post_checks=post)
