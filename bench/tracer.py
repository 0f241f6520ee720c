"""In-memory span tracing of georadon's public functions.

`Tracer.install` replaces each traced function by a wrapper wherever the
package looks the name up: in the module that defines it and in every
georadon module (the package namespace included) that imported it by name.
Phantom evaluation is traced by wrapping `ScalarField.__call__` and
`ScalarField.at`, which also count the points evaluated.

A span is (name, start, end, parent span, operation id); spans of one
benchmark operation share its id. Self time is a span's duration minus the
durations of its direct children, which never overlap in one thread.
Spans stay in memory and are written out once, by `save`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# module -> public functions traced in it
TRACED = {
    "geometry": ("haar_orthogonal", "geodesic_at_distance", "distance_rho"),
    "numerics": ("sphere_rule", "gl_nodes", "quad_log_singular",
                 "endpoint_derivative"),
    "kernels": ("phi_closed", "phi_oracle", "psi_poly_coeffs"),
    "constants": ("inversion_constant",),
    "transforms": ("spherical_mean", "radon_forward"),
    "dual_ops": ("dual_shifted_mean", "dual_shifted_mc",
                 "weighted_dual_both_sides", "l_star_profile",
                 "l_tilde_star_profile"),
    "inversion": ("invert_mader", "invert_shifted_dual", "mader_classical",
                  "mader_radial_average"),
}
FIELD_SPAN = "fields.eval"
CLI_MAIN_SPAN = "cli.main"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "georadon" or name.startswith("georadon."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # rows of [name index, start, end, parent row, operation id]
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.eval_points = 0
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # ------------------------------------------------------------ spans
    def _name(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        row = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([self._name(name), time.perf_counter(), 0.0, parent,
                          self.op_id])
        self._stack.append(row)
        return row

    def end(self, row: int) -> None:
        self.rows[row][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(row)
        return traced

    # ---------------------------------------------------------- patching
    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"georadon.{mod_name}")
            for fname in funcs:
                orig = getattr(mod, fname)
                self.originals[f"{mod_name}.{fname}"] = orig
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for pkg_mod in _package_modules():
                    for attr, value in list(vars(pkg_mod).items()):
                        if value is orig:
                            self._patch(pkg_mod, attr, wrapped)
        fields = importlib.import_module("georadon.fields")
        cls = fields.ScalarField
        call, at = cls.__call__, cls.at

        def traced_call(field, pts):
            arr = np.asarray(pts)
            self.eval_points += arr.size // arr.shape[-1] if arr.ndim else 1
            row = self.begin(FIELD_SPAN)
            try:
                return call(field, pts)
            finally:
                self.end(row)

        def traced_at(field, x):
            self.eval_points += 1
            row = self.begin(FIELD_SPAN)
            try:
                return at(field, x)
            finally:
                self.end(row)

        self._patch(cls, "__call__", traced_call)
        self._patch(cls, "at", traced_at)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # --------------------------------------------------------- exchange
    def arrays(self) -> dict:
        rows = np.array(self.rows, dtype=float).reshape(-1, 5)
        return {"names": np.array(self.names, dtype=object),
                "name": rows[:, 0].astype(np.int64), "start": rows[:, 1],
                "end": rows[:, 2], "parent": rows[:, 3].astype(np.int64),
                "op": rows[:, 4].astype(np.int64),
                "eval_points": np.array(self.eval_points)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def merge_file(self, path: str) -> None:
        """Adopt a child process's spans under the current span."""
        with np.load(path, allow_pickle=True) as data:
            child = {key: data[key] for key in data.files}
        index = [self._name(str(s)) for s in child["names"]]
        base = len(self.rows)
        under = self._stack[-1] if self._stack else -1
        parents = np.where(child["parent"] >= 0, child["parent"] + base, under)
        self.rows.extend(
            [index[i], t0, t1, p, self.op_id]
            for i, t0, t1, p in zip(child["name"].tolist(),
                                    child["start"].tolist(),
                                    child["end"].tolist(), parents.tolist()))
        self.eval_points += int(child["eval_points"])

    # ------------------------------------------------------------ totals
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        if not self.rows:
            return {}
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_s = dur - covered
        out = {}
        for i, name in enumerate(self.names):
            sel = a["name"] == i
            out[name] = {"calls": float(np.count_nonzero(sel)),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum()),
                         "durations": dur[sel]}
        return out
