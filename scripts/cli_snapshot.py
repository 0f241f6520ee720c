"""Record the stdout, stderr and exit code of a fixed set of CLI commands.

Usage: python scripts/cli_snapshot.py OUTDIR

Runs each command below as a fresh `python -m georadon.cli` process against
the `src` tree next to this script, and writes NN.stdout, NN.stderr and
NN.exit into OUTDIR (NN is the command's number, from 01). Two snapshots, for
example of two commits, compare with `diff -r`. No command writes artifacts:
GEORADON_OUTDIR is removed from the environment of every process.

Each command carries the exit code it is expected to end with. After every
file is written the script exits 1, naming the commands whose exit code
differs, if any does; otherwise 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HYPERBOLIC_POINT = "0.4107523258028155,0,1.081072371838455"

COMMANDS = [
    (0, "constants --space euclidean --n 3 --k 2"),
    (0, "constants --space sphere --n 4 --k 2"),
    (0, "constants --space hyperbolic --n 3 --k 1"),
    (0, "lemma-verify --alpha 0.5 --m 1 --num 12"),
    (0, "psi --k 1 --num 8"),
    (0, "psi --k 2 --num 8"),
    (0, "forward --space euclidean --n 3 --k 2 --phantom gaussian --center 0.1,0,0 "
     "--distance 0.4 --seed 3"),
    (0, "forward --space sphere --n 2 --k 1 --phantom even-poly --distance 0.3 "
     "--seed 1"),
    (0, "forward --space hyperbolic --n 3 --k 2 --phantom radial-hyperbolic "
     "--distance 0.5 --seed 2"),
    (0, "means --space euclidean --n 3 --k 2 --phantom gaussian --point 0.2,0,0 "
     "--t-min 0 --t-max 1 --num 5"),
    (0, "means --space sphere --n 2 --k 1 --phantom even-poly --point 0.6,0,0.8 "
     "--t-min -0.5 --t-max 1 --num 5"),
    (0, "means --space hyperbolic --n 2 --k 1 --phantom radial-hyperbolic "
     "--t-min 1 --t-max 3 --num 5"),
    (0, "means --space sphere --n 2 --k 1 --phantom even-poly --point 0.6,0,0.8 "
     "--variant tilde --t-min 0 --t-max 0.9 --num 5"),
    (0, "means --space hyperbolic --n 3 --k 2 --phantom radial-hyperbolic "
     "--variant tilde --t-min 0 --t-max 2 --num 5"),
    (1, "means --space euclidean --n 2 --k 1 --phantom gaussian --t-min 1 "
     "--t-max 0 --num 3"),
    (0, "invert --space euclidean --n 2 --k 1 --theorem 1 --phantom gaussian "
     "--point 0.3,0"),
    (0, "invert --space euclidean --n 3 --k 2 --theorem 1 --phantom gaussian "
     "--point 0.1,0.2,0"),
    (0, "invert --space euclidean --n 3 --k 2 --theorem 2 --phantom gaussian "
     "--point 0.1,0.2,0"),
    (0, "invert --space sphere --n 2 --k 1 --theorem 1 --phantom even-poly "
     "--point 0.6,0,0.8"),
    (0, "invert --space sphere --n 3 --k 2 --theorem 2 --phantom constant-even "
     "--point 0,0,0,1"),
    (0, "invert --space sphere --n 3 --k 2 --theorem 1 --phantom even-poly "
     "--point 0,0.6,0,0.8 --mean-polar 16"),
    (0, "invert --space hyperbolic --n 2 --k 1 --theorem 1 "
     "--phantom radial-hyperbolic"),
    (0, "invert --space hyperbolic --n 3 --k 2 --theorem 2 "
     "--phantom radial-hyperbolic"),
    (0, "invert --space hyperbolic --n 3 --k 2 --theorem 1 "
     "--phantom radial-hyperbolic --mean-polar 16"),
    (0, "invert --space euclidean --n 2 --k 1 --theorem mader --phantom gaussian "
     "--point 0.3,0"),
    (0, "invert --space euclidean --n 2 --k 1 --theorem mader --phantom gaussian "
     "--point 0.3,0 --center 0.3,0"),
    (0, "invert --space euclidean --n 3 --k 2 --theorem mader --phantom gaussian "
     "--point 0.1,0,0 --center 0.2,0,0.1"),
    (0, "crosscheck --space euclidean --n 2 --k 1 --phantom gaussian "
     "--point 0.3,-0.2 --distance 0.6 --mc-samples 1000 --seed 11 "
     "--quad-nodes 48"),
    (0, "crosscheck --space sphere --n 2 --k 1 --phantom even-poly "
     "--point 0.6,0,0.8 --distance 0.5 --mc-samples 500 --quad-nodes 48"),
    (0, "crosscheck --space hyperbolic --n 2 --k 1 --phantom radial-hyperbolic "
     f"--point {HYPERBOLIC_POINT} --distance 0.7 --mc-samples 500 "
     "--quad-nodes 48"),
    (0, "crosscheck --space euclidean --n 2 --k 1 --mc-samples 500"),
    (0, "report --only 2"),
    (1, "invert --space euclidean --n 2 --k 1 --theorem 2 --phantom gaussian "
     "--point 0,0"),
    (0, "invert --space euclidean --n 2 --k 1 --theorem 1 --phantom gaussian "
     "--point 0,0 --grid-j 12 --seed 3"),
    (0, "invert --space euclidean --n 3 --k 2 --theorem mader --phantom gaussian "
     "--point 0.1,0,0"),
    (0, "invert --space euclidean --n 3 --k 2 --theorem mader --phantom gaussian "
     "--point 0.1,0,0 --mean-polar 16 --quad-nodes 48"),
    (0, "invert --space euclidean --n 2 --k 1 --theorem mader --phantom gaussian "
     "--point 0.3,0 --mean-polar 16"),
    (0, "invert --space sphere --n 4 --k 2 --theorem 1 --phantom constant-even "
     "--point 0,0,0,0,1 --mean-polar 16 --quad-nodes 64"),
]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_snapshot.py OUTDIR", file=sys.stderr)
        return 1
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = {key: val for key, val in os.environ.items()
           if key != "GEORADON_OUTDIR"}
    env["PYTHONPATH"] = str(SRC)
    mismatched = []
    for i, (expected, command) in enumerate(COMMANDS, start=1):
        proc = subprocess.run(
            [sys.executable, "-m", "georadon.cli", *command.split()],
            capture_output=True, text=True, env=env)
        stem = outdir / f"{i:02d}"
        stem.with_suffix(".stdout").write_text(proc.stdout)
        stem.with_suffix(".stderr").write_text(proc.stderr)
        stem.with_suffix(".exit").write_text(f"{proc.returncode}\n")
        if proc.returncode != expected:
            mismatched.append(f"#{i:02d} exited {proc.returncode}, expected "
                              f"{expected}: {command}")
    for line in mismatched:
        print(line, file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
