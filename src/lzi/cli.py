"""JSON-configured command line front end.

Subcommands: verify-integrals, verify-ekz, spectral-flow, evolve,
transition-matrix, lz-probability, closed-form.  Every command reads a JSON
config (with a schema_version field), writes CSV or JSON to --out/stdout with
all doubles printed to 17 significant digits, and is byte-deterministic for a
fixed config and seed.

Exit codes: 0 success, 1 verification failure, 2 numerical/engine error,
3 config error (including any config value the library rejects).  The env
var LZI_THREADS caps sweep parallelism.
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


def _block(cfg: dict, key: str, required: bool = False) -> dict:
    """The JSON object under `key`; an absent optional block reads as {}."""
    block = _require(cfg, key) if required else cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {block!r}")
    return block


def _integer(value, name: str) -> int:
    """A JSON integer (true/false excluded), never a truncated float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


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


def _grid(cfg: dict, key: str) -> np.ndarray:
    block = _block(cfg, key, required=True)
    for name in ("start", "stop", "num"):
        if name not in block:
            raise ConfigError(f"{key} needs start/stop/num")
    start, stop = float(block["start"]), float(block["stop"])
    num = _integer(block["num"], f"{key}.num")
    if num < 2 or not start < stop:
        raise ConfigError(f"{key} must be increasing with num >= 2")
    return np.linspace(start, stop, num)


def _do_params(cfg: dict) -> do.DOParams:
    params = _block(cfg, "params", required=True)
    return do.DOParams(gamma=_require(params, "gamma"), epsilon=_require(params, "epsilon"))


def _ado_params(cfg: dict) -> ado.ADOParams:
    params = _block(cfg, "params", required=True)
    return ado.ADOParams(gamma=_require(params, "gamma"), a=_require(params, "a"))


def _sweep_model(cfg: dict):
    """(AffineHamiltonian, level count n+1) from a model config block."""
    model = _require(cfg, "model")
    if model == "do":
        p = _do_params(cfg)
        return do.do_sweep(do.entries_from_gamma(p)), p.n + 1
    if model == "bow-tie":
        p = _do_params(cfg)
        r = np.asarray(_require(cfg["params"], "r"), dtype=float)
        return do.bow_tie_sweep(r, do.entries_from_gamma(p)), p.n + 1
    if model == "ado":
        p = _ado_params(cfg)
        return ado.ado_sweep(p), p.n + 1
    raise ConfigError(f"unknown model {model!r} (expected do, bow-tie or ado)")


def _propagation_spec(cfg: dict, t0: float, t1: float) -> propagator.PropagationSpec:
    block = _block(cfg, "propagation")
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
    block = _block(cfg, "quadrature")
    return ado.QuadratureSpec(
        tolerance=float(block.get("tolerance", 1e-4)),
        initial_window=float(block.get("initial_window", 32.0)),
        max_doublings=_integer(block.get("max_doublings", 6), "max_doublings"),
        taper_fraction=float(block.get("taper_fraction", 0.1)),
    )


def _branch_solution(cfg: dict) -> ado.EKZSolution:
    return ado.closed_form_solution(_ado_params(cfg), _integer(cfg.get("branch", 1), "branch"))


def _max_workers() -> int:
    raw = os.environ.get("LZI_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"LZI_THREADS must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# verify-integrals / verify-ekz

COMM, CURV, ODE = "max_commutator_defect", "max_curvature_residual", "max_ode_residual"


def _tolerance(block: dict, key: str, default: float, override: float | None) -> float:
    """The config's tolerance, unless --tolerance (already validated) overrides it."""
    return float(block.get(key, default)) if override is None else override


def _verdict(samples, tols: dict, suite: str) -> dict:
    """Each defect's largest value over the sampled points, and a pass flag
    that needs every defect below its tolerance.  A suite that sampled no
    point is a config error, never a vacuous pass."""
    defects = dict.fromkeys(tols, 0.0)
    points = 0
    for points, sample in enumerate(samples, 1):
        for key, value in sample.items():
            defects[key] = max(defects[key], value)
    if points == 0:
        raise ConfigError(f"{suite} checked no point")
    return dict(defects, **{"pass": all(defects[k] < tols[k] for k in tols)})


def _json_report(report: dict):
    text = json.dumps(dict(report, schema_version=SCHEMA_VERSION), indent=2, sort_keys=True)
    return text + "\n", 0 if report["pass"] else 1


def _ekz_sample(b, n: int, omega: float, commutator_tol: float) -> dict:
    """Commutator defect and zero-curvature residual of the EKZ family at one omega."""
    ops = [ado.ekz_hamiltonian_h1(b, omega)] + [
        ado.ekz_hamiltonian_hk(b, k, omega) for k in range(2, n + 1)
    ]
    pairs = itertools.combinations([0] + list(range(2, n + 1)), 2)
    return {
        COMM: gaudin.verify_commuting(ops, commutator_tol).max_defect,
        CURV: max(ado.zero_curvature_residual(b, i, j, omega) for i, j in pairs),
    }


def _gaudin_samples(block: dict, rng: np.random.Generator, commutator_tol: float):
    sites = _integer(block.get("sites", 4), "sites")
    if sites < 2:
        raise ConfigError("gaudin suite needs at least two sites")
    s = float(block.get("spin", 0.5))
    draws = _integer(block.get("draws", 20), "draws")
    lambdas = [float(x) for x in block.get("lambda_values", [0.0, 0.5, 2.0])]
    level_shift = float(block.get("level_shift", 3.0))
    system = spin.SiteSystem.uniform(sites, s)
    for _ in range(draws):
        w = np.sort(rng.uniform(-2.0, 2.0, sites))
        while np.min(np.diff(w)) < 0.1:
            w = np.sort(rng.uniform(-2.0, 2.0, sites))
        for lam in lambdas:
            cfg = gaudin.SpectralConfig(w=tuple(w), lam=lam, level_shift=level_shift)
            ops = [gaudin.richardson_integral(l, cfg, system) for l in range(sites)]
            pairs = itertools.combinations(range(sites), 2)
            yield {
                COMM: gaudin.verify_commuting(ops, commutator_tol).max_defect,
                CURV: max(gaudin.kz_flatness_residual(cfg, system, la, lb) for la, lb in pairs),
            }


def _ado_samples(block: dict, rng: np.random.Generator, commutator_tol: float):
    n_values = [_integer(x, "n_values entry") for x in block.get("n_values", [2, 3, 4, 5, 6])]
    draws = _integer(block.get("draws", 20), "draws")
    breakage = float(block.get("break_parallelism", 0.0))
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
            omega = float(rng.uniform(2.5, 4.0))
            yield _ekz_sample(ado.b_vectors(p, v), n, omega, commutator_tol)


# block name -> (sample generator, default commutator tolerance), run in this order
_INTEGRAL_SUITES = {"gaudin": (_gaudin_samples, 1e-12), "ado": (_ado_samples, 1e-13)}


def cmd_verify_integrals(cfg: dict, seed: int, tol: float | None):
    rng = np.random.default_rng(seed)
    sections = {}
    for name, (samples, comm_default) in _INTEGRAL_SUITES.items():
        if name in cfg:
            block = _block(cfg, name)
            tols = {
                COMM: _tolerance(block, "tolerance", comm_default, tol),
                CURV: _tolerance(block, "curvature_tolerance", 1e-12, tol),
            }
            sections[name] = _verdict(samples(block, rng, tols[COMM]), tols, f"{name} suite")
    if not sections:
        raise ConfigError("verify-integrals config needs a 'gaudin' and/or 'ado' block")
    return _json_report(
        {
            COMM: max(s[COMM] for s in sections.values()),
            CURV: max(s[CURV] for s in sections.values()),
            "pass": all(s["pass"] for s in sections.values()),
            "sections": sections,
        }
    )


def _ekz_samples(p: ado.ADOParams, draws: int, h: float, rng, commutator_tol: float):
    b = ado.b_vectors(p)
    sols = [ado.closed_form_solution(p, m) for m in (+1, -1)]
    for _ in range(draws):
        omega = float(rng.uniform(-2.5, 2.5))
        if p.a.size and np.abs(omega - p.a).min() <= 0.5:
            continue
        sample = _ekz_sample(b, p.n, omega, commutator_tol)
        residuals = [ado.ekz_residual_check(sol, omega, h=h) for sol in sols]
        sample[ODE] = max(max(r, float(r_a.max(initial=0.0))) for r, r_a in residuals)
        yield sample


def cmd_verify_ekz(cfg: dict, seed: int, tol: float | None):
    p = _ado_params(cfg)
    draws = _integer(cfg.get("draws", 50), "draws")
    h = float(cfg.get("residual_step", 1e-4))
    block = _block(cfg, "tolerances")
    tols = {
        COMM: _tolerance(block, "commutator", 1e-13, tol),
        CURV: _tolerance(block, "curvature", 1e-12, tol),
        ODE: _tolerance(block, "ode_residual", 1e-6, tol),
    }
    samples = _ekz_samples(p, draws, h, np.random.default_rng(seed), tols[COMM])
    suite = "verify-ekz (it skips omega draws within 0.5 of a flat level)"
    return _json_report(_verdict(samples, tols, suite))


# ---------------------------------------------------------------------------
# spectral-flow / evolve


def cmd_spectral_flow(cfg: dict, seed: int, tol: float | None):
    flow = do.track_spectral_flow(_do_params(cfg), _grid(cfg, "grid"))
    nb = flow.branches.shape[1]
    header = ["t"] + [f"x_{m}" for m in range(nb)] + [f"E_{m}" for m in range(nb)]
    rows = [
        [float(t)] + [float(x) for x in flow.branches[k]] + [float(e) for e in flow.energies[k]]
        for k, t in enumerate(flow.t_grid)
    ]
    return _csv(header, rows), 0


def cmd_evolve(cfg: dict, seed: int, tol: float | None):
    engine = cfg.get("engine", "oracle")
    if engine not in ("oracle", "closed-form", "both"):
        raise ConfigError(f"unknown engine {engine!r}")
    grid = _grid(cfg, "grid")
    if engine in ("closed-form", "both") and _require(cfg, "model") != "ado":
        raise ConfigError("closed-form engine requires the ado model")

    if engine in ("oracle", "both"):
        sweep, dim = _sweep_model(cfg)
        spec = _propagation_spec(cfg, grid[0], grid[-1])
        psi0 = np.zeros(dim, dtype=complex)
        if engine == "both":
            xi_plus, _ = ado.spinor_eigenbasis(ado.b_vectors(_ado_params(cfg)).unit_n)
            psi0[:2] = xi_plus
        else:
            init = _integer(cfg.get("initial_state", 0), "initial_state")
            if not 0 <= init < dim:
                raise ConfigError(f"initial_state must be an integer in 0..{dim - 1}, got {init!r}")
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
        sol = _branch_solution(cfg)
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
            amps = [ado.time_domain_wavefunction(sol, -float(t), qspec).amplitudes for t in grid]
            norms = np.array([np.linalg.norm(amp) ** 2 for amp in amps])
            cf_pop = norms / norms[0]
            header = header + ["cf_sloped", "abs_delta"]
            for k in range(len(rows)):
                oracle_sloped = rows[k][2] + rows[k][3]  # p_0 + p_1
                rows[k] = rows[k] + [float(cf_pop[k]), float(abs(oracle_sloped - cf_pop[k]))]

    return _csv(header, rows), 0


# ---------------------------------------------------------------------------
# transition-matrix / lz-probability


def cmd_transition_matrix(cfg: dict, seed: int, tol: float | None):
    sweep, dim = _sweep_model(cfg)
    horizon = float(cfg.get("T", 200.0))
    spec = _propagation_spec(cfg, -horizon, horizon)
    result = propagator.transition_matrix(sweep, horizon, spec)
    header = ["T_used", "initial", "final", "p_at_T", "p_at_2T", "p_extrapolated"]
    rows = [
        [float(result.T_used), i, f, float(result.matrix_at_T[f, i]),
         float(result.matrix_at_2T[f, i]), float(result.matrix[f, i])]
        for i in range(dim)
        for f in range(dim)
    ]
    return _csv(header, rows), 0


def _sweep_points(cfg: dict) -> list:
    sweep = _block(cfg, "sweep", required=True)
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


def cmd_lz_probability(cfg: dict, seed: int, tol: float | None):
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

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        results = list(pool.map(one, points))
    header = ["gamma_0", "gamma_1", "gamma_2", "P_formula", "P_oracle", "abs_delta"]
    return _csv(header, [[float(x) for x in row] for row in results]), 0


# ---------------------------------------------------------------------------
# closed-form


def _amplitude_row(x: float, amp: np.ndarray) -> list:
    """x, then re/im of both sloped amplitudes, then their modulus."""
    return [float(x), float(amp[0].real), float(amp[0].imag), float(amp[1].real),
            float(amp[1].imag), float(np.linalg.norm(amp))]


def cmd_closed_form(cfg: dict, seed: int, tol: float | None):
    sol = _branch_solution(cfg)
    columns = ["re_0", "im_0", "re_1", "im_1", "modulus"]
    if "omega_grid" in cfg:
        header = ["omega"] + columns
        rows = [_amplitude_row(omega, sol(float(omega))) for omega in _grid(cfg, "omega_grid")]
    elif "t_grid" in cfg:
        grid = _grid(cfg, "t_grid")
        qspec = _quadrature_spec(cfg)
        header = ["t"] + columns + ["error_estimate"]
        rows = []
        for t in grid:
            res = ado.time_domain_wavefunction(sol, float(t), qspec)
            rows.append(_amplitude_row(t, res.amplitudes) + [float(res.error_estimate)])
    else:
        raise ConfigError("closed-form config needs omega_grid or t_grid")
    return _csv(header, rows), 0


# ---------------------------------------------------------------------------

# every handler takes (cfg, seed, tolerance override) and returns (text, exit code)
COMMANDS = {
    "verify-integrals": cmd_verify_integrals,
    "verify-ekz": cmd_verify_ekz,
    "spectral-flow": cmd_spectral_flow,
    "evolve": cmd_evolve,
    "transition-matrix": cmd_transition_matrix,
    "lz-probability": cmd_lz_probability,
    "closed-form": cmd_closed_form,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lzi", description="Multi-level Landau-Zener dynamics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
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
        seed = args.seed if args.seed is not None else _integer(cfg.get("seed", 0), "seed")
        text, code = COMMANDS[args.command](cfg, seed, args.tolerance)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except LziError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        # the library raises these only for bad arguments, and every argument here
        # comes from the config
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    _write_text(args.out, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
