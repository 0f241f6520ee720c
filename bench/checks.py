"""Reference values computed apart from georadon, and the checks built on them.

Nothing in this module imports georadon: every reference is a closed form,
a `math.gamma` expression or a scipy quadrature of a defining integral. Each
check returns None when the output is right and a one-line message when it
is wrong.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad

# acceptance floors of the reconstruction desk (relative error)
RECON_REL_TOL = {"euclidean": 1e-3, "classical": 1e-3,
                 "sphere": 5e-3, "hyperbolic": 5e-3}

# |z| bound on Monte Carlo against its reduction; see README "z bound"
Z_BOUND = 5.0

# relative tolerance of a forward transform against its closed form
FORWARD_REL_TOL = 1e-7

_QUAD = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def sphere_area(m: int) -> float:
    """Surface area of the unit sphere S^m in R^(m+1)."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# ---------------------------------------------------------------- phantoms

def gaussian_value(x, center) -> float:
    d = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    return math.exp(-float(d @ d))


def even_poly_value(x) -> float:
    return 1.0 + float(x[0]) ** 2


def radial_hyperbolic_value(dist: float, power: int) -> float:
    return math.cosh(dist) ** (-power)


# ------------------------------------------------------- forward transforms

def plane_distance(x, basis, offset) -> float:
    """Euclidean distance from x to the k-plane offset + span(basis)."""
    v = np.asarray(x, dtype=float) - offset
    v = v - basis @ (basis.T @ v)
    return float(np.sqrt(v @ v))


def gaussian_forward(k: int, dist: float) -> float:
    """Integral of exp(-|y - c|^2) over a k-plane at distance dist from c."""
    return math.pi ** (k / 2.0) * math.exp(-dist * dist)


def even_poly_forward(basis) -> float:
    """Integral of 1 + y_0^2 over the great k-sphere spanned by `basis`.

    With a = basis^T e_0, the integral of (a . z)^2 over S^k is
    |a|^2 sigma_k / (k + 1).
    """
    k = basis.shape[1] - 1
    a2 = float(np.sum(basis[0, :] ** 2))
    return sphere_area(k) * (1.0 + a2 / (k + 1))


def hyperboloid_cosh_distance(basis) -> float:
    """cosh of the distance from the base point e_(n+1) to span(basis) on H^n.

    Projects e_(n+1) onto the column span in the Lorentz form
    diag(-1, ..., -1, +1) and takes the Lorentz norm of the projection.
    """
    j = -np.ones(basis.shape[0])
    j[-1] = 1.0
    gram = basis.T @ (j[:, None] * basis)
    coef = np.linalg.solve(gram, basis[-1, :])
    proj = basis @ coef
    q = proj[-1] ** 2 - float(np.sum(proj[:-1] ** 2))
    return math.sqrt(max(1.0, q))


def radial_hyperbolic_forward(k: int, power: int, cosh_d0: float) -> float:
    """sigma_(k-1) int_0^inf (cosh d0 cosh s)^(-q) sinh^(k-1) s ds.

    The integrand is at most cosh(s)^(k-1-q) <= 2^(q-k+1) e^(-(q-k+1) s),
    so the tail cut at s = 60 is below 1e-100 for q = 6 and k <= 3.
    """
    val, _ = quad(lambda s: (cosh_d0 * math.cosh(s)) ** (-power)
                  * math.sinh(s) ** (k - 1), 0.0, 60.0, **_QUAD)
    return sphere_area(k - 1) * val


# ------------------------------------------------------------ kernel values

def c_k_integral(k: int) -> float:
    """int_0^1 (1 - v^2)^(k/2 - 1) dv by weighted quadrature."""
    a = k / 2.0 - 1.0
    val, _ = quad(lambda v: (1.0 + v) ** a, 0.0, 1.0, weight="alg",
                  wvar=(0.0, a), **_QUAD)
    return val


def psi_integral(k: int, u: float) -> float:
    """The reduction kernel psi_k(u) from its defining integral.

    Odd k: int_0^1 (1 - v^2)^(k/2-1) log|u^2 - v^2| dv.
    Even k: int_0^1 sgn(v - u) (1 - v^2)^(k/2-1) dv.
    """
    a = k / 2.0 - 1.0

    def w(v):
        return (1.0 - v * v) ** a

    if k % 2 == 0:
        if u >= 1.0:
            return -quad(w, 0.0, 1.0, **_QUAD)[0]
        return quad(w, u, 1.0, **_QUAD)[0] - quad(w, 0.0, u, **_QUAD)[0]
    if u >= 1.0:
        return quad(lambda v: (1.0 + v) ** a * math.log(u * u - v * v),
                    0.0, 1.0, weight="alg", wvar=(0.0, a), **_QUAD)[0]
    # log|u - v| singular at v = u: weights carry it on both sides
    left = (quad(w, 0.0, u, weight="alg-logb", wvar=(0.0, 0.0), **_QUAD)[0]
            + quad(lambda v: w(v) * math.log(u + v), 0.0, u, **_QUAD)[0])
    right = (quad(lambda v: (1.0 + v) ** a, u, 1.0, weight="alg-loga",
                  wvar=(0.0, a), **_QUAD)[0]
             + quad(lambda v: (1.0 + v) ** a * math.log(u + v), u, 1.0,
                    weight="alg", wvar=(0.0, a), **_QUAD)[0])
    return left + right


def phi_integral(alpha: float, m: int, u: float) -> float:
    """int_(-1)^1 (1+xi)^alpha (1-xi)^(m-alpha) log|xi - u| dxi."""
    beta = m - alpha
    if u > 1.0:
        return quad(lambda s: math.log(u - s), -1.0, 1.0, weight="alg",
                    wvar=(alpha, beta), **_QUAD)[0]
    left = quad(lambda s: (1.0 - s) ** beta, -1.0, u, weight="alg-logb",
                wvar=(alpha, 0.0), **_QUAD)[0]
    right = quad(lambda s: (1.0 + s) ** alpha, u, 1.0, weight="alg-loga",
                 wvar=(0.0, beta), **_QUAD)[0]
    return left + right


def sphere_even_poly_mean(x0: float, n: int, t: float) -> float:
    """Mean of 1 + y_0^2 over {y in S^n : x . y = t}, given x_0.

    y = t x + s theta with theta uniform on the unit sphere of x-perp, so
    the mean is 1 + t^2 x_0^2 + (1 - t^2)(1 - x_0^2)/n; at x_0 = 0 this is
    1 + (1 - t^2)/n.
    """
    return 1.0 + t * t * x0 * x0 + (1.0 - t * t) * (1.0 - x0 * x0) / n


# ------------------------------------------------------------------ checks

def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_close(value, ref: float, tol: float, what: str):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"{what}: not a finite number: {value!r}"
    rel = _rel(float(value), ref)
    if not rel < tol:
        return f"{what}: {value!r} against {ref!r}, rel {rel:.3e} >= {tol:g}"
    return None


def check_recon(estimate, truth: float, family: str):
    return check_close(estimate, truth, RECON_REL_TOL[family],
                       f"reconstruction ({family})")


def check_z(mc_value: float, stderr: float, reference: float, what: str):
    z = (mc_value - reference) / stderr \
        if stderr > 0.0 and math.isfinite(stderr) else math.inf
    if not abs(z) < Z_BOUND:
        return (f"{what}: Monte Carlo {mc_value!r} +- {stderr!r} against "
                f"{reference!r}, |z| = {abs(z):.3g} >= {Z_BOUND:g}")
    return None


def check_forward(value, reference: float, what: str):
    return check_close(value, reference, FORWARD_REL_TOL, f"forward ({what})")


# ---------------------------------------------------------- CLI outputs

def parse_json(stdout: str) -> dict:
    """The JSON object a CLI command prints last (after any CSV rows)."""
    start = stdout.index("{")
    return json.loads(stdout[start:])


def parse_csv(stdout: str, header: str) -> list[list[float]]:
    lines = stdout.splitlines()
    i = lines.index(header)
    rows = []
    for line in lines[i + 1:]:
        if not line or line.startswith("{"):
            break
        rows.append([float(tok) for tok in line.split(",")])
    return rows


def check_cli_constants(stdout: str, k: int):
    data = parse_json(stdout)
    for key, value in sorted(data["sphere_areas"].items()):
        m = int(key.split("_")[1])
        msg = check_close(value, sphere_area(m), 1e-12, f"constants {key}")
        if msg:
            return msg
    msg = check_close(data["c_k"], c_k_integral(k), 1e-10, "constants c_k")
    if msg:
        return msg
    if not data["constants"]:
        return "constants: no inversion constants printed"
    for key, value in data["constants"].items():
        if not (isinstance(value, float) and math.isfinite(value) and value):
            return f"constants {key}: {value!r} is not a finite nonzero number"
    return None


def _check_rows(rows, reference, tol: float, what: str):
    """Each CSV row's second column against reference(first column)."""
    if not rows:
        return f"{what}: no rows"
    for x, value, *_ in rows:
        msg = check_close(value, reference(x), tol, f"{what} at {x!r}")
        if msg:
            return msg
    return None


def check_cli_psi(stdout: str, k: int):
    return _check_rows(parse_csv(stdout, "u,value"),
                       lambda u: psi_integral(k, u), 1e-8, f"psi k={k}")


def check_cli_lemma(stdout: str, alpha: float, m: int):
    rows = parse_csv(stdout, "u,closed,oracle,abs_err")
    summary = parse_json(stdout)
    if not summary["passed"] or summary["points"] != len(rows):
        return f"lemma-verify: summary {summary!r} over {len(rows)} rows"
    return _check_rows(rows, lambda u: phi_integral(alpha, m, u), 1e-8,
                       "lemma-verify closed form")


def check_cli_value(stdout: str, key: str, ref: float, tol: float, what: str):
    return check_close(parse_json(stdout)[key], ref, tol, what)


def check_cli_means(stdout: str, x0: float, n: int):
    return _check_rows(parse_csv(stdout, "r,value"),
                       lambda t: sphere_even_poly_mean(x0, n, t), 1e-10,
                       "means")


def check_cli_crosscheck(stdout: str):
    data = parse_json(stdout)
    msg = check_z(data["mc_value"], data["mc_stderr"], data["mean_reduction"],
                  "crosscheck shifted dual")
    if msg:
        return msg
    return check_z(data["weighted_lhs"], data["weighted_lhs_stderr"],
                   data["weighted_rhs"], "crosscheck weighted dual")
