"""JSON-configured command line front end.

Subcommands: verify-integrals, verify-ekz, spectral-flow, evolve,
transition-matrix, lz-probability, closed-form.  Every command reads a JSON
config (with a schema_version field), writes CSV or JSON to --out/stdout with
all doubles printed to 17 significant digits, and is byte-deterministic for a
fixed config and seed.

Exit codes: 0 success, 1 verification failure, 2 numerical/engine error,
3 config error.  The env var LZI_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ado, demkov_osherov as do, gaudin, propagator, spin
from ._util import fmt17
from .errors import ConfigError, LziError

SCHEMA_VERSION = 1


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _write_text(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt17(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _grid(block: dict, name: str) -> np.ndarray:
    for key in ("start", "stop", "num"):
        if key not in block:
            raise ConfigError(f"{name} grid needs start/stop/num")
    if block["num"] < 2 or block["stop"] <= block["start"]:
        raise ConfigError(f"{name} grid must be increasing with num >= 2")
    return np.linspace(float(block["start"]), float(block["stop"]), int(block["num"]))


def _do_params(params: dict) -> do.DOParams:
    return do.DOParams(gamma=_require(params, "gamma"), epsilon=_require(params, "epsilon"))


def _ado_params(params: dict) -> ado.ADOParams:
    return ado.ADOParams(gamma=_require(params, "gamma"), a=_require(params, "a"))


def _sweep_model(cfg: dict):
    """(AffineHamiltonian, level count n+1) from a model config block."""
    model = _require(cfg, "model")
    params = _require(cfg, "params")
    if model == "do":
        p = _do_params(params)
        return do.do_sweep(do.entries_from_gamma(p)), p.n + 1
    if model == "bow-tie":
        p = _do_params(params)
        r = np.asarray(_require(params, "r"), dtype=float)
        return do.bow_tie_sweep(r, do.entries_from_gamma(p)), p.n + 1
    if model == "ado":
        p = _ado_params(params)
        return ado.ado_sweep(p), p.n + 1
    raise ConfigError(f"unknown model {model!r} (expected do, bow-tie or ado)")


def _propagation_spec(cfg: dict, t0: float, t1: float) -> propagator.PropagationSpec:
    block = cfg.get("propagation", {})
    return propagator.PropagationSpec(
        t0=t0,
        t1=t1,
        rtol=float(block.get("rtol", 1e-8)),
        method=block.get("method", "cf4-fixed"),
        base_step=float(block.get("base_step", 0.01)),
        theta=float(block.get("theta", 0.1)),
        verify=bool(block.get("verify", False)),
    )


def _quadrature_spec(cfg: dict) -> ado.QuadratureSpec:
    block = cfg.get("quadrature", {})
    return ado.QuadratureSpec(
        tolerance=float(block.get("tolerance", 1e-4)),
        initial_window=float(block.get("initial_window", 32.0)),
        max_doublings=int(block.get("max_doublings", 6)),
        taper_fraction=float(block.get("taper_fraction", 0.1)),
    )


def _max_workers() -> int:
    raw = os.environ.get("LZI_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"LZI_THREADS must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# verify-integrals / verify-ekz


def _tolerance(block: dict, key: str, default: float, override: float | None) -> float:
    """The config's tolerance, unless --tolerance (already validated) overrides it."""
    return float(block.get(key, default)) if override is None else override


def _gaudin_suite(block: dict, rng: np.random.Generator, tol_override: float | None):
    sites = int(block.get("sites", 4))
    if sites < 2:
        raise ConfigError("gaudin suite needs at least two sites")
    s = float(block.get("spin", 0.5))
    draws = int(block.get("draws", 20))
    lambdas = [float(x) for x in block.get("lambda_values", [0.0, 0.5, 2.0])]
    level_shift = float(block.get("level_shift", 3.0))
    commutator_tol = _tolerance(block, "tolerance", 1e-12, tol_override)
    curvature_tol = _tolerance(block, "curvature_tolerance", 1e-12, tol_override)
    system = spin.SiteSystem.uniform(sites, s)
    max_comm = 0.0
    max_curv = 0.0
    for _ in range(draws):
        w = np.sort(rng.uniform(-2.0, 2.0, sites))
        while np.min(np.diff(w)) < 0.1:
            w = np.sort(rng.uniform(-2.0, 2.0, sites))
        for lam in lambdas:
            cfg = gaudin.SpectralConfig(w=tuple(w), lam=lam, level_shift=level_shift)
            ops = [gaudin.richardson_integral(l, cfg, system) for l in range(sites)]
            max_comm = max(max_comm, gaudin.verify_commuting(ops, commutator_tol).max_defect)
            for la, lb in itertools.combinations(range(sites), 2):
                max_curv = max(max_curv, gaudin.kz_flatness_residual(cfg, system, la, lb))
    return {
        "max_commutator_defect": max_comm,
        "max_curvature_residual": max_curv,
        "pass": bool(max_comm < commutator_tol and max_curv < curvature_tol),
    }


def _ado_suite(block: dict, rng: np.random.Generator, tol_override: float | None):
    n_values = [int(x) for x in block.get("n_values", [2, 3, 4, 5, 6])]
    draws = int(block.get("draws", 20))
    breakage = float(block.get("break_parallelism", 0.0))
    commutator_tol = _tolerance(block, "tolerance", 1e-13, tol_override)
    curvature_tol = _tolerance(block, "curvature_tolerance", 1e-12, tol_override)
    max_comm = 0.0
    max_curv = 0.0
    for n in n_values:
        for _ in range(draws):
            g = rng.uniform(0.3, 1.0, n + 1)
            a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            while a.size >= 2 and np.min(np.diff(a)) < 0.2:
                a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            p = ado.ADOParams(gamma=g, a=a)
            v = ado.coupling_matrix(p)
            if breakage:
                v = v.copy()
                v[0, 1] += breakage
                v[1, 0] += breakage
            b = ado.b_vectors(p, v)
            omega = float(rng.uniform(2.5, 4.0))
            ops = [ado.ekz_hamiltonian_h1(b, omega)] + [
                ado.ekz_hamiltonian_hk(b, k, omega) for k in range(2, n + 1)
            ]
            max_comm = max(max_comm, gaudin.verify_commuting(ops, commutator_tol).max_defect)
            labels = [0] + list(range(2, n + 1))
            for i, j in itertools.combinations(labels, 2):
                max_curv = max(max_curv, ado.zero_curvature_residual(b, i, j, omega))
    return {
        "max_commutator_defect": max_comm,
        "max_curvature_residual": max_curv,
        "pass": bool(max_comm < commutator_tol and max_curv < curvature_tol),
    }


def cmd_verify_integrals(cfg: dict, out: str | None, seed: int, tol: float | None) -> int:
    rng = np.random.default_rng(seed)
    sections = {}
    if "gaudin" in cfg:
        sections["gaudin"] = _gaudin_suite(cfg["gaudin"], rng, tol)
    if "ado" in cfg:
        sections["ado"] = _ado_suite(cfg["ado"], rng, tol)
    if not sections:
        raise ConfigError("verify-integrals config needs a 'gaudin' and/or 'ado' block")
    report = {
        "schema_version": SCHEMA_VERSION,
        "max_commutator_defect": max(s["max_commutator_defect"] for s in sections.values()),
        "max_curvature_residual": max(s["max_curvature_residual"] for s in sections.values()),
        "pass": all(s["pass"] for s in sections.values()),
        "sections": sections,
    }
    _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["pass"] else 1


def cmd_verify_ekz(cfg: dict, out: str | None, seed: int, tol: float | None) -> int:
    params = _require(cfg, "params")
    p = _ado_params(params)
    draws = int(cfg.get("draws", 50))
    h = float(cfg.get("residual_step", 1e-4))
    tols = cfg.get("tolerances", {})
    comm_tol = _tolerance(tols, "commutator", 1e-13, tol)
    curv_tol = _tolerance(tols, "curvature", 1e-12, tol)
    ode_tol = _tolerance(tols, "ode_residual", 1e-6, tol)
    rng = np.random.default_rng(seed)
    b = ado.b_vectors(p)
    labels = [0] + list(range(2, p.n + 1))
    max_comm = 0.0
    max_curv = 0.0
    max_ode = 0.0
    sols = [ado.closed_form_solution(p, m) for m in (+1, -1)]
    for _ in range(draws):
        omega = float(rng.uniform(-2.5, 2.5))
        if p.a.size and np.abs(omega - p.a).min() <= 0.5:
            continue
        ops = [ado.ekz_hamiltonian_h1(b, omega)] + [
            ado.ekz_hamiltonian_hk(b, k, omega) for k in range(2, p.n + 1)
        ]
        max_comm = max(max_comm, gaudin.verify_commuting(ops, comm_tol).max_defect)
        for i, j in itertools.combinations(labels, 2):
            max_curv = max(max_curv, ado.zero_curvature_residual(b, i, j, omega))
        for sol in sols:
            r_omega, r_a = ado.ekz_residual_check(sol, omega, h=h)
            max_ode = max(max_ode, r_omega, float(r_a.max(initial=0.0)))
    report = {
        "schema_version": SCHEMA_VERSION,
        "max_commutator_defect": max_comm,
        "max_curvature_residual": max_curv,
        "max_ode_residual": max_ode,
        "pass": bool(max_comm < comm_tol and max_curv < curv_tol and max_ode < ode_tol),
    }
    _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# spectral-flow


def cmd_spectral_flow(cfg: dict, out: str | None) -> int:
    params = _require(cfg, "params")
    p = _do_params(params)
    grid = _grid(_require(cfg, "grid"), "time")
    flow = do.track_spectral_flow(p, grid)
    nb = flow.branches.shape[1]
    header = ["t"] + [f"x_{m}" for m in range(nb)] + [f"E_{m}" for m in range(nb)]
    rows = [
        [float(t)] + [float(x) for x in flow.branches[k]] + [float(e) for e in flow.energies[k]]
        for k, t in enumerate(flow.t_grid)
    ]
    _write_text(out, _csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(cfg: dict, out: str | None) -> int:
    engine = cfg.get("engine", "oracle")
    if engine not in ("oracle", "closed-form", "both"):
        raise ConfigError(f"unknown engine {engine!r}")
    grid = _grid(_require(cfg, "grid"), "time")
    if engine in ("closed-form", "both") and _require(cfg, "model") != "ado":
        raise ConfigError("closed-form engine requires the ado model")

    rows = None
    header = None
    if engine in ("oracle", "both"):
        sweep, dim = _sweep_model(cfg)
        spec = _propagation_spec(cfg, grid[0], grid[-1])
        if engine == "both":
            p = _ado_params(_require(cfg, "params"))
            xi_plus, _ = ado.spinor_eigenbasis(ado.b_vectors(p).unit_n)
            psi0 = np.zeros(dim, dtype=complex)
            psi0[:2] = xi_plus
        else:
            init = cfg.get("initial_state", 0)
            if isinstance(init, bool) or not isinstance(init, int) or not 0 <= init < dim:
                raise ConfigError(f"initial_state must be an integer in 0..{dim - 1}, got {init!r}")
            psi0 = np.zeros(dim, dtype=complex)
            psi0[init] = 1.0
        frame = propagator.interaction_picture(sweep)
        traj = propagator.population_trajectory(
            frame, frame.to_interaction(psi0, grid[0]), spec, grid
        )
        pops = np.abs(traj) ** 2
        header = ["t", "total"] + [f"p_{j}" for j in range(dim)]
        rows = [
            [float(t), float(pops[k].sum())] + [float(x) for x in pops[k]]
            for k, t in enumerate(grid)
        ]

    if engine in ("closed-form", "both"):
        p = _ado_params(_require(cfg, "params"))
        sol = ado.closed_form_solution(p, int(cfg.get("branch", 1)))
        qspec = _quadrature_spec(cfg)
        if engine == "closed-form":
            header = ["t", "cf_p_0", "cf_p_1", "cf_total"]
            rows = []
            for t in grid:
                amp = ado.time_domain_wavefunction(sol, float(t), qspec).amplitudes
                mods = np.abs(amp) ** 2
                rows.append([float(t), float(mods[0]), float(mods[1]), float(mods.sum())])
        else:
            # reversed-time sloped-channel population, normalized at the grid start
            norms = np.array(
                [
                    np.linalg.norm(
                        ado.time_domain_wavefunction(sol, -float(t), qspec).amplitudes
                    )
                    ** 2
                    for t in grid
                ]
            )
            cf_pop = norms / norms[0]
            header = header + ["cf_sloped", "abs_delta"]
            for k in range(len(rows)):
                oracle_sloped = rows[k][2] + rows[k][3]  # p_0 + p_1
                rows[k] = rows[k] + [float(cf_pop[k]), float(abs(oracle_sloped - cf_pop[k]))]

    _write_text(out, _csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# transition-matrix


def cmd_transition_matrix(cfg: dict, out: str | None) -> int:
    sweep, dim = _sweep_model(cfg)
    horizon = float(cfg.get("T", 200.0))
    spec = _propagation_spec(cfg, -horizon, horizon)
    result = propagator.transition_matrix(sweep, horizon, spec)
    header = ["T_used", "initial", "final", "p_at_T", "p_at_2T", "p_extrapolated"]
    rows = []
    for initial in range(dim):
        for final in range(dim):
            rows.append(
                [
                    float(result.T_used),
                    initial,
                    final,
                    float(result.matrix_at_T[final, initial]),
                    float(result.matrix_at_2T[final, initial]),
                    float(result.matrix[final, initial]),
                ]
            )
    _write_text(out, _csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# lz-probability


def _sweep_points(cfg: dict) -> list:
    sweep = _require(cfg, "sweep")
    if "points" in sweep:
        pts = [tuple(float(g) for g in row) for row in sweep["points"]]
    else:
        for key in ("gamma0", "gamma1", "gamma2"):
            if key not in sweep:
                raise ConfigError("sweep needs 'points' or gamma0/gamma1/gamma2 lists")
        pts = [
            (float(g0), float(g1), float(g2))
            for g0 in sweep["gamma0"]
            for g1 in sweep["gamma1"]
            for g2 in sweep["gamma2"]
        ]
    if any(len(p) != 3 for p in pts):
        raise ConfigError("each sweep point must have three couplings")
    return pts


def cmd_lz_probability(cfg: dict, out: str | None) -> int:
    points = _sweep_points(cfg)
    a2 = float(cfg.get("a2", 0.0))
    horizon = float(cfg.get("T", 200.0))
    run_oracle = bool(cfg.get("oracle", True))
    spec = _propagation_spec(cfg, -horizon, horizon)

    def one(point):
        g0, g1, g2 = point
        formula = ado.lz_probability(g0, g1, g2)
        if not run_oracle:
            return (g0, g1, g2, formula, float("nan"), float("nan"))
        if g2 == 0.0:
            return (g0, g1, g2, formula, 1.0, abs(formula - 1.0))
        p = ado.ADOParams(gamma=[g0, g1, g2], a=[a2])
        result = propagator.transition_matrix(ado.ado_sweep(p), horizon, spec)
        oracle = float(result.matrix[2, 2])
        return (g0, g1, g2, formula, oracle, abs(formula - oracle))

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, points))
    else:
        results = [one(pt) for pt in points]
    header = ["gamma_0", "gamma_1", "gamma_2", "P_formula", "P_oracle", "abs_delta"]
    rows = [[float(x) for x in row] for row in results]
    _write_text(out, _csv(header, rows))
    return 0


# ---------------------------------------------------------------------------
# closed-form


def cmd_closed_form(cfg: dict, out: str | None) -> int:
    p = _ado_params(_require(cfg, "params"))
    sol = ado.closed_form_solution(p, int(cfg.get("branch", 1)))
    if "omega_grid" in cfg:
        grid = _grid(cfg["omega_grid"], "omega")
        header = ["omega", "re_0", "im_0", "re_1", "im_1", "modulus"]
        rows = []
        for omega in grid:
            amp = sol(float(omega))
            rows.append(
                [float(omega), float(amp[0].real), float(amp[0].imag),
                 float(amp[1].real), float(amp[1].imag), float(np.linalg.norm(amp))]
            )
    elif "t_grid" in cfg:
        grid = _grid(cfg["t_grid"], "time")
        qspec = _quadrature_spec(cfg)
        header = ["t", "re_0", "im_0", "re_1", "im_1", "modulus", "error_estimate"]
        rows = []
        for t in grid:
            res = ado.time_domain_wavefunction(sol, float(t), qspec)
            amp = res.amplitudes
            rows.append(
                [float(t), float(amp[0].real), float(amp[0].imag),
                 float(amp[1].real), float(amp[1].imag),
                 float(np.linalg.norm(amp)), float(res.error_estimate)]
            )
    else:
        raise ConfigError("closed-form config needs omega_grid or t_grid")
    _write_text(out, _csv(header, rows))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzi", description="Multi-level Landau-Zener dynamics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "verify-integrals",
        "verify-ekz",
        "spectral-flow",
        "evolve",
        "transition-matrix",
        "lz-probability",
        "closed-form",
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
        cmd.add_argument(
            "--tolerance", type=float, default=None, help="override verification tolerances"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.tolerance is not None and not 0.0 < args.tolerance < np.inf:
            raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance!r}")
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if args.command == "verify-integrals":
            return cmd_verify_integrals(cfg, args.out, seed, args.tolerance)
        if args.command == "verify-ekz":
            return cmd_verify_ekz(cfg, args.out, seed, args.tolerance)
        if args.command == "spectral-flow":
            return cmd_spectral_flow(cfg, args.out)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.out)
        if args.command == "transition-matrix":
            return cmd_transition_matrix(cfg, args.out)
        if args.command == "lz-probability":
            return cmd_lz_probability(cfg, args.out)
        if args.command == "closed-form":
            return cmd_closed_form(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except LziError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
