"""Independent checker for the four artifacts of one ``beamsparse run``.

It reads ``weights.csv``, ``beampattern.csv``, ``trace.csv`` and
``summary.json`` from one output directory and recomputes what they claim
with numpy alone; it imports nothing from ``beamsparse``. The steering phase,
template, entropy and w-step are written out here from their definitions:

* P_k = |sum_n w_n exp(-j 2 pi delta n sin theta_k)|^2;
* d_k is the lobe level inside a mainlobe interval (endpoints inclusive),
  the sidelobe level elsewhere;
* objective = lam * sum_k (P_k - alpha d_k)^2 + H(p), H(p) = -sum p log p;
* matching error = sum (P - alpha d)^2 / sum (alpha d)^2.

``check_run`` returns a dict mapping each failed check's name to a message;
an empty dict means every check passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Names of every check, in the order they run.
CHECKS = (
    "weights_unit_norm",
    "trace_consistency",
    "beampattern",
    "objective",
    "cardinality",
    "matching_error",
    "alpha_nonneg",
    "converged_status",
    "fixed_point",
)

#: Clamp floor of the entropy log, as documented for the majorizer.
POWER_FLOOR = 1e-12

#: Bound on the fixed-point gap of a converged solve, in units of eta. The reference
#: configs give gaps of 1 to 7 eta (eta = 1e-8); a corrupted weight gives far more.
FIXED_POINT_ETA_FACTOR = 100.0


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)


def load_artifacts(directory: str | Path) -> dict:
    """Parse the four artifacts of one run into plain arrays and dicts."""
    directory = Path(directory)
    _, weights = _read_csv(directory / "weights.csv")
    _, pattern = _read_csv(directory / "beampattern.csv")
    trace_header, trace = _read_csv(directory / "trace.csv")
    summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    return {
        "w": weights[:, 1] + 1j * weights[:, 2],
        "theta_deg": pattern[:, 0],
        "power": pattern[:, 1],
        "desired_scaled": pattern[:, 3],
        "trace": {name: trace[:, i] for i, name in enumerate(trace_header)},
        "summary": summary,
    }


def steering_matrix(spacing_ratio: float, n_elements: int, theta_deg: np.ndarray) -> np.ndarray:
    """(K, N) matrix whose row k holds exp(j 2 pi delta n sin theta_k)."""
    phase = 2.0 * math.pi * spacing_ratio * np.sin(np.deg2rad(theta_deg))
    return np.exp(1j * phase[:, None] * np.arange(n_elements)[None, :])


def template_values(cfg: dict, theta_deg: np.ndarray) -> np.ndarray:
    d = np.full(theta_deg.shape, float(cfg["sidelobe_level"]))
    for lobe in cfg["mainlobes"]:
        d[(theta_deg >= lobe["start_deg"]) & (theta_deg <= lobe["end_deg"])] = lobe["level"]
    return d


def entropy_of(p: np.ndarray) -> float:
    q = p[p > 0]
    return float(-(q * np.log(q)).sum())


def matching_ratio(power: np.ndarray, alpha: float, d: np.ndarray) -> float:
    scaled = alpha * d
    residual = power - scaled
    return float(residual @ residual) / float(scaled @ scaled)


def fixed_point_gap(a: np.ndarray, w: np.ndarray, alpha: float, d: np.ndarray, cfg: dict) -> float:
    """Distance ||step(w) - w|| of one dense w-step taken at v = w.

    At a fixed point v = w, and the v-block optimality condition
    (lam G(w) + rho/2) v = lam alpha b(w) + rho/2 (w + u) gives the scaled
    dual u = (2/rho) (lam G(w) w - lam alpha b(w)), with
    G(x) = sum_k |a_k^H x|^2 a_k a_k^H and b(x) = sum_k d_k (a_k^H x) a_k.
    The w-step then solves
    (lam G(w) + diag(m) + rho/2) x = lam alpha b(w) + rho/2 (w - u),
    m = -log max(p, floor) - 1 the entropy tangent at w, and projects x
    onto the unit sphere.
    """
    lam, rho = float(cfg["lambda"]), float(cfg["rho"])
    c = a.conj() @ w
    gram = (a.T * np.abs(c) ** 2) @ a.conj()
    b = a.T @ (d * c)
    u = (2.0 / rho) * (lam * (gram @ w) - lam * alpha * b)
    m = -np.log(np.maximum(np.abs(w) ** 2, POWER_FLOOR)) - 1.0
    matrix = lam * gram + np.diag(m + rho / 2.0)
    rhs = lam * alpha * b + (rho / 2.0) * (w - u)
    x = np.linalg.solve(matrix, rhs)
    return float(np.linalg.norm(x / np.linalg.norm(x) - w))


def check_run(directory: str | Path, reported_converged: bool) -> dict[str, str]:
    """Check one run's artifacts; returns {check name: message} for each failure.

    ``reported_converged`` is the convergence status the program reported
    for this run.
    """
    art = load_artifacts(directory)
    summary, trace = art["summary"], art["trace"]
    cfg = summary["config"]
    w = art["w"]
    theta = art["theta_deg"]
    failures: dict[str, str] = {}

    p = np.abs(w) ** 2
    power_sum = float(p.sum())
    if not (np.all(np.isfinite(w)) and abs(power_sum - 1.0) <= 1e-12):
        failures["weights_unit_norm"] = f"sum |w|^2 = {power_sum!r}"

    iters = trace["iter"]
    alpha = float(trace["alpha"][-1])
    if not (
        len(w) == cfg["n_elements"]
        and np.array_equal(iters, np.arange(len(iters)))
        and summary["iterations"] == len(iters) - 1
        and summary["final_alpha"] == alpha
    ):
        failures["trace_consistency"] = (
            f"{len(iters)} trace rows, summary iterations {summary['iterations']}, "
            f"summary alpha {summary['final_alpha']!r} vs trace alpha {alpha!r}"
        )

    count = int(math.floor((cfg["grid_stop_deg"] - cfg["grid_start_deg"]) / cfg["grid_step_deg"] + 1e-9)) + 1
    grid = cfg["grid_start_deg"] + cfg["grid_step_deg"] * np.arange(count)
    if theta.shape != grid.shape or np.max(np.abs(theta - grid)) > 1e-9:
        failures["beampattern"] = "angle column does not match the configured grid"
        return failures
    a = steering_matrix(cfg["spacing_ratio"], len(w), theta)
    power = np.abs(a.conj() @ w) ** 2
    d = template_values(cfg, theta)
    pattern_err = float(np.max(np.abs(art["power"] - power)))
    scaled_err = float(np.max(np.abs(art["desired_scaled"] - alpha * d)))
    if not (pattern_err <= 1e-9 * power.max() and scaled_err <= 1e-12 * max(abs(alpha) * d.max(), 1e-300)):
        failures["beampattern"] = f"pattern off by {pattern_err:.3e}, scaled template by {scaled_err:.3e}"

    residual = power - alpha * d
    objective = float(cfg["lambda"]) * float(residual @ residual) + entropy_of(p)
    if not abs(trace["objective"][-1] - objective) <= 1e-9 * max(abs(objective), 1.0):
        failures["objective"] = f"trace says {trace['objective'][-1]!r}, recomputed {objective!r}"

    selected = int(np.count_nonzero(p > cfg["cardinality_threshold"] * p.max()))
    if summary["cardinality"] != selected:
        failures["cardinality"] = f"summary says {summary['cardinality']}, recomputed {selected}"

    ratio = matching_ratio(power, alpha, d)
    ratio_db = max(10.0 * math.log10(max(ratio, 1e-30)), -300.0)
    if not abs(summary["matching_error_db"] - ratio_db) <= 1e-9:
        failures["matching_error"] = f"summary says {summary['matching_error_db']!r} dB, recomputed {ratio_db!r}"

    if not summary["final_alpha"] >= 0.0:
        failures["alpha_nonneg"] = f"returned template scale alpha = {summary['final_alpha']!r}"

    changes = trace["w_change"][1:]
    eta = float(cfg["eta"])
    below = changes <= eta
    converged = bool(len(changes) and below[-1])
    # the loop stops at the first sweep whose change is within eta, or at the budget
    stops_right = (converged or len(changes) == cfg["max_iters"]) and not below[:-1].any()
    if reported_converged != converged or not stops_right:
        failures["converged_status"] = (
            f"reported converged={reported_converged}, {len(changes)} sweeps, "
            f"last w_change {changes[-1] if len(changes) else None!r}, eta {eta!r}"
        )

    if reported_converged:
        gap = fixed_point_gap(a, w, alpha, d, cfg)
        if not gap <= FIXED_POINT_ETA_FACTOR * eta:
            failures["fixed_point"] = f"one w-step moves w by {gap:.3e} > {FIXED_POINT_ETA_FACTOR:g} * eta"
    return failures

