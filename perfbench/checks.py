"""Output checks of each workload against independent references and exact
properties.  Each check function takes the workload's ops and their output
texts and returns a list of failure messages (empty when all is well).

No check compares with a stored copy of earlier output: every expected value
is computed here, by `reference`, from the same seeded inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

import numpy as np

import reference as ref

# lzi's own table error, measured against DOP853 at rtol 1e-11, reaches 2.9e-8
# (DO n=3); doubling the step budget theta moves it past 1e-7 there.
REFERENCE_TABLE_TOL = 1e-7
COLUMN_SUM_TOL = 1e-7  # 10 x the CLI's default propagation rtol
FLOW_REL_TOL = 1e-9
TOTAL_TOL = 1e-9
# |cf_sloped - oracle sloped|: each closed-form amplitude carries a relative
# error of at most `tolerance`, so a population ratio carries at most 4 x;
# the oracle's finite start adds `reference.start_bound`.
EVOLVE_DELTA_FACTOR = 4.0
OMEGA_REL_TOL = 1e-9
VERIFY_TOLS = {
    "integrals": {"gaudin": (1e-12, 1e-12), "ado": (1e-13, 1e-12)},
    "ekz": {"max_commutator_defect": 1e-13, "max_curvature_residual": 1e-12,
            "max_ode_residual": 1e-6},
}
CONTROL_MIN_DEFECT = 1e-4


def _rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _model_matrices(op):
    params = op.meta["params"]
    if op.meta["model"] == "ado":
        return ref.ado_matrices(params["gamma"], params["a"])
    if op.meta["model"] == "do":
        return ref.do_matrices(params["gamma"], params["epsilon"])
    return ref.bow_tie_matrices(params["gamma"], params["epsilon"], params["r"])


def _exact_survivals(op) -> dict:
    """{level: exact infinite-time P_kk} where the model has a closed form."""
    params = op.meta["params"]
    if op.meta["model"] == "ado":
        return {2: ref.lz_survival_ado(params["gamma"])}
    if op.meta["model"] == "do":
        p00, pkk = ref.do_survivals(params["gamma"], params["epsilon"])
        return {0: p00, **{k + 1: p for k, p in enumerate(pkk)}}
    return {}


def check_transition(op, text: str) -> list:
    errors = []
    rows = _rows(text)
    dim = len(op.meta["params"]["gamma"])
    if len(rows) != dim * dim:
        return [f"{op.name}: {len(rows)} rows, expected {dim * dim}"]
    tables = {key: np.zeros((dim, dim)) for key in ("p_at_T", "p_at_2T", "p_extrapolated")}
    for row in rows:
        i, f = int(row["initial"]), int(row["final"])
        for key, table in tables.items():
            table[f, i] = float(row[key])
    for key in ("p_at_T", "p_at_2T"):
        worst = float(np.abs(tables[key].sum(axis=0) - 1.0).max())
        if worst > COLUMN_SUM_TOL:
            errors.append(f"{op.name}: {key} columns sum to 1 +- {worst:.2e}")
    ext = tables["p_extrapolated"]
    if ext.min() < 0.0 or ext.max() > 1.0:
        errors.append(f"{op.name}: p_extrapolated outside [0, 1]")
    amat, dmat = _model_matrices(op)
    for level, exact in _exact_survivals(op).items():
        bound = ref.horizon_bound(amat, dmat, level, 2.0 * float(op.config["T"]))
        delta = abs(tables["p_at_2T"][level, level] - exact)
        if delta > bound:
            errors.append(f"{op.name}: |P{level}{level}(2T) - exact| = {delta:.2e} > bound {bound:.2e}")
    if op.meta.get("reference"):
        horizon = float(op.config["T"])
        for key, window in (("p_at_T", horizon), ("p_at_2T", 2.0 * horizon)):
            delta = float(np.abs(ref.transition_table(amat, dmat, window) - tables[key]).max())
            op.meta[f"reference_delta_{key}"] = delta
            if delta > REFERENCE_TABLE_TOL:
                errors.append(f"{op.name}: {key} differs from the DOP853 table by {delta:.2e}")
    return errors


def check_t_grid(op, text: str) -> list:
    rows = _rows(text)
    if len(rows) != op.config["t_grid"]["num"]:
        return [f"{op.name}: {len(rows)} rows"]
    errors = []
    params = op.meta["params"]
    for row in rows:
        amp = np.array([complex(float(row["re_0"]), float(row["im_0"])),
                        complex(float(row["re_1"]), float(row["im_1"]))])
        err = float(row["error_estimate"])
        if not (np.all(np.isfinite(amp)) and math.isfinite(err)):
            errors.append(f"{op.name}: non-finite row at t={row['t']}")
            continue
        if op.meta["branch"] == -1:
            exact = ref.trivial_branch_amplitude(params["gamma"], params["a"], float(row["t"]))
            delta = float(np.abs(amp - exact).max())
            if delta > err:
                errors.append(f"{op.name}: t={row['t']} off the Fresnel transform by "
                              f"{delta:.2e} > error_estimate {err:.2e}")
    return errors


def check_omega_grid(op, text: str) -> list:
    rows = _rows(text)
    params = op.meta["params"]
    errors = []
    omegas = np.array([float(r["omega"]) for r in rows])
    mods = np.array([float(r["modulus"]) for r in rows])
    worst = 0.0
    for row, omega in zip(rows, omegas):
        amp = np.array([complex(float(row["re_0"]), float(row["im_0"])),
                        complex(float(row["re_1"]), float(row["im_1"]))])
        exact = ref.frequency_solution(params["gamma"], params["a"], op.meta["branch"], float(omega))
        worst = max(worst, float(np.abs(amp - exact).max() / np.abs(exact).max()))
    if worst > OMEGA_REL_TOL:
        errors.append(f"{op.name}: Phi(omega) off the closed form by {worst:.2e} (relative)")
    if op.meta["branch"] == -1:
        spread = float(mods.max() - mods.min()) / float(mods.max())
        if spread > OMEGA_REL_TOL:
            errors.append(f"{op.name}: m=-1 modulus not flat (relative spread {spread:.2e})")
        return errors
    steps = ref.modulus_steps(params["gamma"], params["a"])
    for k in range(len(omegas) - 1):
        crossed = [s for a, s in zip(params["a"], steps) if omegas[k] < a < omegas[k + 1]]
        expected = float(np.prod(crossed)) if crossed else 1.0
        ratio = mods[k] / mods[k + 1]
        if abs(ratio / expected - 1.0) > OMEGA_REL_TOL:
            errors.append(f"{op.name}: modulus step {ratio!r} between omega={omegas[k]!r} and "
                          f"{omegas[k + 1]!r}, expected {expected!r}")
            break
    return errors


def check_evolve_both(op, text: str) -> list:
    rows = _rows(text)
    if len(rows) != op.config["grid"]["num"]:
        return [f"{op.name}: {len(rows)} rows"]
    errors = []
    total = max(abs(float(r["total"]) - 1.0) for r in rows)
    if total > TOTAL_TOL:
        errors.append(f"{op.name}: total population off 1 by {total:.2e}")
    params = op.config["params"]
    amat, dmat = ref.ado_matrices(params["gamma"], params["a"])
    bound = (EVOLVE_DELTA_FACTOR * op.config["quadrature"]["tolerance"]
             + ref.start_bound(amat, dmat, (0, 1), float(op.config["grid"]["start"])))
    delta = max(float(r["abs_delta"]) for r in rows)
    op.meta["max_abs_delta"] = delta
    if delta > bound:
        errors.append(f"{op.name}: max abs_delta {delta:.2e} > {bound:.2e}")
    return errors


def check_flow(op, text: str) -> list:
    rows = _rows(text)
    params = op.meta["params"]
    eps = sorted(params["epsilon"])
    nb = len(eps)
    if len(rows) != op.config["grid"]["num"]:
        return [f"{op.name}: {len(rows)} rows"]
    worst = 0.0
    for row in rows:
        t = float(row["t"])
        roots = sorted(float(row[f"x_{m}"]) for m in range(nb))
        energies = np.sort([float(row[f"E_{m}"]) for m in range(nb)])
        exact = np.linalg.eigvalsh(ref.arrowhead(params["gamma"], params["epsilon"], t))
        worst = max(worst, float(np.abs(energies - exact).max() / np.abs(exact).max()))
        # one root in each gap between poles, the last one outside on the side of sign(t)
        inner = roots[:-1] if t > 0 else roots[1:]
        outer = roots[-1] if t > 0 else roots[0]
        interlaced = all(lo < x < hi for x, lo, hi in zip(inner, eps, eps[1:]))
        if not interlaced or (outer <= eps[-1] if t > 0 else outer >= eps[0]):
            return [f"{op.name}: roots do not interlace the poles at t={t!r}: {roots}"]
    if worst > FLOW_REL_TOL:
        return [f"{op.name}: energies off eigvalsh(arrowhead) by {worst:.2e} (relative)"]
    return []


def check_verify(op, text: str) -> list:
    report = json.loads(text)
    name = op.name.split("/")[1]
    if name == "broken-parallelism":
        defect = report["sections"]["ado"]["max_commutator_defect"]
        if report["pass"] or defect <= CONTROL_MIN_DEFECT:
            return [f"{op.name}: negative control not caught (defect {defect:.2e})"]
        return []
    if not report["pass"]:
        return [f"{op.name}: report does not pass"]
    errors = []
    if name == "integrals":
        for section, (comm_tol, curv_tol) in VERIFY_TOLS["integrals"].items():
            sec = report["sections"][section]
            if not (sec["max_commutator_defect"] < comm_tol and sec["max_curvature_residual"] < curv_tol):
                errors.append(f"{op.name}: {section} defects {sec} above tolerance")
    else:
        for key, tol in VERIFY_TOLS["ekz"].items():
            if not report[key] < tol:
                errors.append(f"{op.name}: {key} = {report[key]:.2e} >= {tol:.0e}")
    return errors


def check_op(op, text: str) -> list:
    if op.command == "transition-matrix":
        return check_transition(op, text)
    if op.command == "closed-form":
        return check_t_grid(op, text) if "t_grid" in op.config else check_omega_grid(op, text)
    if op.command == "evolve":
        return check_evolve_both(op, text)
    if op.command == "spectral-flow":
        return check_flow(op, text)
    return check_verify(op, text)


def check_determinism(cli, workdir, seed: int) -> list:
    """An lz-probability sweep is byte-identical for LZI_THREADS=1 and 2 and
    across invocations (short horizon: the check is on bytes, not accuracy)."""
    rng = random.Random(f"determinism:{seed}")
    points = [[round(rng.uniform(0.2, 0.7), 6) for _ in range(3)] for _ in range(3)]
    cfg = workdir / "determinism.json"
    cfg.write_text(json.dumps({"schema_version": 1, "sweep": {"points": points}, "a2": 0.0,
                               "T": 10.0, "propagation": {"theta": 0.25}}), encoding="utf-8")
    outputs = []
    saved = os.environ.get("LZI_THREADS")
    try:
        for threads in ("1", "2", "1"):
            os.environ["LZI_THREADS"] = threads
            out = workdir / f"determinism-{len(outputs)}.csv"
            rc = cli.main(["lz-probability", "--config", str(cfg), "--out", str(out)])
            if rc != 0:
                return [f"determinism: lz-probability exited {rc}"]
            outputs.append(out.read_bytes())
    finally:
        os.environ["LZI_THREADS"] = saved if saved is not None else "1"
    if len(set(outputs)) != 1:
        return ["determinism: lz-probability output differs across LZI_THREADS / invocations"]
    return []
