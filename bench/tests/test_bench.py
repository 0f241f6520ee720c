"""Tests of the benchmark itself: tiny end-to-end runs, and every check
rejecting a wrong answer.

    python3 -m pytest bench/tests -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import plans  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(plans.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_workload_runs_end_to_end_tiny(workload):
    res = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                    "--tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] > 0.0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = run_bench("--workload", "cli_cold", "--seed", "5", "--seconds", "0",
                    "--trace", "1", "--tiny")
    assert res["correct"] is True and res["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    got = {k: v["value"] for k, v in res["metrics"].items()}
    assert got["cli.main_s"] > 0.0 and got["cli.import_s"] > 0.0
    assert got["transforms.spherical_mean.calls"] > 0
    assert got["fields.eval_points"] > got["transforms.radon_forward.calls"]
    assert os.path.isfile(os.path.join(BENCH, "out",
                                       "trace-cli_cold-seed5.npz"))


def test_missing_program_fails_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "mc_dual", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------ checks reject wrong answers

@pytest.fixture(scope="module")
def runner():
    return plans.CliRunner()


def test_recon_checks_reject_scaled_estimate(runner):
    ops, _ = plans.recon_ops(5, tiny=True, labels=plans.RECON_PROBE_LABELS)
    for op in ops:
        estimate = op.run()
        assert op.check(estimate) is None, op.label
        assert op.check(estimate * 1.01) is not None, op.label
        assert op.check(float("nan")) is not None, op.label


def test_mc_checks_reject_shifted_mean():
    ops, _, post = plans.mc_ops(5, tiny=True, probe=True)
    for op in ops:
        value, stderr, reference = op.run()
        assert op.check((value, stderr, reference)) is None, op.label
        assert op.check((value + 10.0 * stderr, stderr, reference)) is not None
        assert op.check((value - 10.0 * stderr, stderr, reference)) is not None
        assert op.check((value, 0.0, reference)) is not None
    assert all(check() is None for check in post)


def test_forward_reference_rejects_scaled_value():
    space = plans.G.Space("hyperbolic", 3, 2)
    f = plans.G.make_phantom(space, "radial-hyperbolic", power=6)
    xi = plans.G.geodesic_at_distance(space, plans.G.base_point(space), 0.4,
                                      plans.G.haar_rotation(space, 3))
    ref = checks.radial_hyperbolic_forward(
        2, 6, checks.hyperboloid_cosh_distance(xi.basis))
    value = plans.G.radon_forward(space, f, xi)
    assert checks.check_forward(value, ref, "h") is None
    assert checks.check_forward(value * 1.01, ref, "h") is not None


_NUM = r"-?\d+\.\d+(?:e-?\d+)?"


def _scale_json(stdout, key, factor):
    def sub(m):
        return f'{m.group(1)}{float(m.group(2)) * factor!r}'
    out, count = re.subn(rf'("{key}": )({_NUM})', sub, stdout, count=1)
    assert count == 1, key
    return out


def _scale_csv_value(stdout, factor):
    lines = stdout.split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("u,")
                  or line.startswith("r,"))
    cols = lines[header + 2].split(",")
    cols[1] = repr(float(cols[1]) * factor)
    lines[header + 2] = ",".join(cols)
    return "\n".join(lines)


def _shift_mc(stdout):
    data = checks.parse_json(stdout)
    return _scale_json(stdout, "mc_value",
                       1.0 + 10.0 * data["mc_stderr"] / data["mc_value"])


PERTURB = {
    "constants-euclidean": lambda s: _scale_json(s, "c_k", 1.01),
    "constants-sphere": lambda s: _scale_json(s, "sigma_4", 1.01),
    "constants-hyperbolic": lambda s: _scale_json(s, "c_k", 1.01),
    "psi-k3": lambda s: _scale_csv_value(s, 1.01),
    "psi-k4": lambda s: _scale_csv_value(s, 1.01),
    "forward-euclidean": lambda s: _scale_json(s, "value", 1.01),
    "forward-hyperbolic": lambda s: _scale_json(s, "value", 1.01),
    "means-sphere": lambda s: _scale_csv_value(s, 1.01),
    "lemma-verify": lambda s: _scale_csv_value(s, 1.01),
    "invert-log": lambda s: _scale_json(s, "estimate", 1.01),
    "invert-mader": lambda s: _scale_json(s, "estimate", 1.01),
    "crosscheck": _shift_mc,
}


def test_cli_checks_reject_perturbed_output(runner):
    ops = plans.cli_ops(5, runner)
    assert {op.label for op in ops} == set(PERTURB)
    results = {}
    for op in ops:
        res = op.run()
        assert op.check(res) is None, (op.label, res.stderr)
        results[op.label] = res

    def fresh_check(label):
        # a new op has not seen an earlier run of its command
        return plans.cli_ops(5, runner, labels=(label,))[0].check

    for label, res in results.items():
        bad = plans.CliResult(0, PERTURB[label](res.stdout), res.stderr)
        assert fresh_check(label)(bad) is not None, label
        failed = plans.CliResult(2, res.stdout, "error: x\n")
        assert fresh_check(label)(failed) is not None, label
        # a repeated command must print the same bytes as its previous run
        check = fresh_check(label)
        assert check(res) is None and check(res) is None, label
        changed = plans.CliResult(0, res.stdout + " ", res.stderr)
        assert check(changed) is not None, label
