"""JSON-configured command line front end.

Subcommands: verify-integrals, verify-ekz, spectral-flow, evolve,
transition-matrix, lz-probability, closed-form.  Every command reads a JSON
config (with a schema_version field), writes CSV or JSON to --out/stdout with
all doubles printed to 17 significant digits, and is byte-deterministic for a
fixed config.  The two verify commands draw their sample points from a `seed`
config key (a non-negative integer, default 0), which `--seed` overrides; no
other command takes one.

Each `COMMANDS` entry pairs a handler with the JSON type and default of every
config key it takes.  `_read` checks a config against them before the handler
runs: an unknown key, a missing required key or a value of the wrong JSON type
(a string or boolean for a number, a string for a boolean) is a config error,
and so is a number that is not finite (NaN, Infinity, or one that overflows).

Exit codes: 0 success, 1 verification failure, 2 numerical/engine error,
3 config error (including any config value the library rejects, and any
malformed command line).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import ado, demkov_osherov as do, gaudin, propagator, spin
from ._util import fmt17
from .errors import ConfigError, LziError, NumericalError

SCHEMA_VERSION = 1

# A declaration maps each key to (kind, default).  A kind is float (any JSON
# number, read as a float), int, bool or str; [kind], a JSON array of that
# kind; a tuple, one of these exact values; or a declaration, for a nested JSON
# object.  An absent key takes its default: REQUIRED is a config error, None
# stays None (an optional block or list whose presence matters), and any other
# default is read as if it had been given.
REQUIRED = object()
_JSON_TYPES = {float: "number", int: "integer", bool: "boolean", str: "string"}


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, +-Infinity and overflowing literals are config errors."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return value


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _read(value, kind, where: str):
    """`value` checked against its declared kind, with the defaults of every
    block filled in; anything else is a config error naming the key."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON array, got {value!r}")
        return [_read(item, kind[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, tuple):
        if not any(type(value) is type(choice) and value == choice for choice in kind):
            raise ConfigError(f"{where} must be one of {', '.join(map(repr, kind))}, got {value!r}")
        return value
    if not isinstance(kind, dict):
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ConfigError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {value!r}")
        try:
            return float(value) if kind is float else value
        except OverflowError:  # a JSON integer beyond the largest double
            raise ConfigError(f"{where} is an integer too large for a float") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {value!r}")
    prefix = f"{where}." if where else ""
    for key in value:
        if key not in kind:
            raise ConfigError(f"unknown key {prefix + key!r} (allowed: {', '.join(kind)})")
    block = {}
    for key, (sub, default) in kind.items():
        if sub is _MODEL_PARAMS:
            sub = sub[block["model"]]
        if key in value:
            block[key] = _read(value[key], sub, prefix + key)
        elif default is REQUIRED:
            raise ConfigError(f"config is missing required key {prefix + key!r}")
        else:
            block[key] = None if default is None else _read(default, sub, prefix + key)
    return block


def _spec_keys(spec, *names) -> dict:
    """Block keys typed and defaulted by the fields (all, or those named) of a library spec."""
    fields = dataclasses.fields(spec)
    return {f.name: (type(f.default), f.default) for f in fields if not names or f.name in names}


_GRID = {"start": (float, REQUIRED), "stop": (float, REQUIRED), "num": (int, REQUIRED)}
_DO_PARAMS = {"gamma": ([float], REQUIRED), "epsilon": ([float], REQUIRED)}
_ADO_PARAMS = {"gamma": ([float], REQUIRED), "a": ([float], REQUIRED)}
# the `params` of a command with a `model` key, declared per model and read after it
_MODEL_PARAMS = {"do": _DO_PARAMS, "bow-tie": dict(_DO_PARAMS, r=([float], REQUIRED)), "ado": _ADO_PARAMS}
_MODEL = {"model": (tuple(_MODEL_PARAMS), REQUIRED), "params": (_MODEL_PARAMS, REQUIRED)}
_PROPAGATION = _spec_keys(propagator.PropagationSpec, "rtol", "base_step", "theta", "verify")
_QUADRATURE = _spec_keys(ado.QuadratureSpec)
_BRANCH = ((1, -1), 1)  # the spinor branch m of the closed form


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
    if block["num"] < 2 or not block["start"] < block["stop"]:
        raise ConfigError(f"{name} must be increasing with num >= 2")
    return np.linspace(block["start"], block["stop"], block["num"])


def _sweep_model(cfg: dict):
    """(AffineHamiltonian, level count n+1) of the config's model and params."""
    p = cfg["params"]
    if cfg["model"] == "ado":
        params = ado.ADOParams(**p)
        return ado.ado_sweep(params), params.n + 1
    params = do.DOParams(gamma=p["gamma"], epsilon=p["epsilon"])
    entries = do.entries_from_gamma(params)
    sweep = do.do_sweep(entries) if cfg["model"] == "do" else do.bow_tie_sweep(p["r"], entries)
    return sweep, params.n + 1


# ---------------------------------------------------------------------------
# verify-integrals / verify-ekz

COMM, CURV, ODE = "max_commutator_defect", "max_curvature_residual", "max_ode_residual"


def _verdict(defects: dict, tols: dict, suite: str) -> dict:
    """Each defect's largest value over the sampled points (defects[key][k]
    holds its values at point k, in draw order), and a pass flag that needs
    every defect below its tolerance.  No point sampled is a config error, a
    defect that is not finite a numerical error naming the first point where
    it is."""
    # each point's largest value; np.max keeps a NaN, which max() can drop
    worst = {key: np.max(values, axis=tuple(range(1, np.ndim(values))))
             for key, values in defects.items()}
    finite = np.isfinite(np.array(list(worst.values())))
    if not finite.all():
        point = np.flatnonzero(~finite.all(axis=0))[0]
        key = next(key for key, row in zip(worst, finite) if not row[point])
        raise NumericalError(f"{suite}: {key} is {float(worst[key][point])} at sample {point + 1}")
    if finite.shape[1] == 0:
        raise ConfigError(f"{suite} checked no point")
    report = {key: float(values.max()) for key, values in worst.items()}
    return dict(report, **{"pass": all(report[k] < tols[k] for k in tols)})


def _json_report(report: dict):
    text = json.dumps(dict(report, schema_version=SCHEMA_VERSION), indent=2, sort_keys=True)
    return text + "\n", 0 if report["pass"] else 1


def _gaudin_defects(block: dict, rng: np.random.Generator) -> dict:
    sites = block["sites"]
    if sites < 2:
        raise ConfigError("gaudin suite needs at least two sites")
    system = spin.SiteSystem.uniform(sites, block["spin"])
    cfgs = []
    for _ in range(block["draws"]):
        w = np.sort(rng.uniform(-2.0, 2.0, sites))
        while np.min(np.diff(w)) < 0.1:
            w = np.sort(rng.uniform(-2.0, 2.0, sites))
        cfgs += [gaudin.SpectralConfig(w=tuple(w), lam=lam, level_shift=block["level_shift"])
                 for lam in block["lambda_values"]]
    comm = gaudin.verify_commuting(gaudin.richardson_integral(range(sites), cfgs, system))
    # = kz_flatness_residual bit for bit: real w keep every [R_a, R_b] real
    return {COMM: comm, CURV: comm / abs(block["level_shift"])}


def _ado_defects(block: dict, rng: np.random.Generator) -> dict:
    """Each sample's largest commutator defect, which is also its largest
    zero-curvature residual (see `ado.zero_curvature_residual`)."""
    breakage = block["break_parallelism"]
    worst = []
    for n in block["n_values"]:
        params, tables, omegas = [], [], []
        for _ in range(block["draws"]):
            g = rng.uniform(0.3, 1.0, n + 1)
            a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            while a.size >= 2 and np.min(np.diff(a)) < 0.2:
                a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            p = ado.ADOParams(gamma=g, a=a)
            v = ado.coupling_matrix(p)
            v[0, 1] += breakage  # + 0.0 leaves the rank-one table as it is
            v[1, 0] += breakage
            params.append(p)
            tables.append(v)
            omegas.append(float(rng.uniform(2.5, 4.0)))
        if params:
            ops = ado.ekz_operators(ado.b_vector_stack(params, tables), np.array(omegas))
            worst += list(gaudin.verify_commuting(ops).max(axis=-1))
    return {COMM: np.array(worst), CURV: np.array(worst)}


# invalid values surface as a NaN defect that _verdict names; overflow is muted
# by choice, also where the defects it feeds stay finite
@np.errstate(over="ignore", invalid="ignore")
def cmd_verify_integrals(cfg: dict):
    rng = np.random.default_rng(cfg["seed"])
    sections = {}
    for name, defects in (("gaudin", _gaudin_defects), ("ado", _ado_defects)):
        block = cfg[name]
        if block is not None:
            tols = {COMM: block["tolerance"], CURV: block["curvature_tolerance"]}
            sections[name] = _verdict(defects(block, rng), tols, f"{name} suite")
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


def _ekz_defects(p: ado.ADOParams, draws: int, h: float, rng) -> dict:
    """Commutator defects of the EKZ family at each kept omega, which are also
    its zero-curvature residuals, and the residuals of both closed-form
    branches there; one operator stack serves both."""
    sols = [ado.closed_form_solution(p, m) for m in (+1, -1)]
    omegas = []
    for _ in range(draws):
        omega = float(rng.uniform(-2.5, 2.5))
        if not (p.a.size and np.abs(omega - p.a).min() <= 0.5):
            omegas.append(omega)
    # both branches carry the four-vectors of the same params
    ops = ado.ekz_operators(sols[0].b, np.array(omegas))
    comm = gaudin.verify_commuting(ops)
    ode = []
    for s, omega in enumerate(omegas):
        residuals = [ado.ekz_residual_check(sol, omega, h, ops[:, s]) for sol in sols]
        ode.append([x for r, r_a in residuals for x in (r, *r_a)])
    return {COMM: comm, CURV: comm, ODE: np.array(ode)}


@np.errstate(over="ignore", invalid="ignore")
def cmd_verify_ekz(cfg: dict):
    block = cfg["tolerances"]
    tols = {COMM: block["commutator"], CURV: block["curvature"], ODE: block["ode_residual"]}
    p = ado.ADOParams(**cfg["params"])
    defects = _ekz_defects(p, cfg["draws"], cfg["residual_step"], np.random.default_rng(cfg["seed"]))
    suite = "verify-ekz (it skips omega draws within 0.5 of a flat level)"
    return _json_report(_verdict(defects, tols, suite))


# ---------------------------------------------------------------------------
# spectral-flow / evolve


def cmd_spectral_flow(cfg: dict):
    flow = do.track_spectral_flow(do.DOParams(**cfg["params"]), _grid(cfg["grid"], "grid"))
    nb = flow.branches.shape[1]
    header = ["t"] + [f"x_{m}" for m in range(nb)] + [f"E_{m}" for m in range(nb)]
    rows = [
        [float(t)] + [float(x) for x in flow.branches[k]] + [float(e) for e in flow.energies[k]]
        for k, t in enumerate(flow.t_grid)
    ]
    return _csv(header, rows), 0


def cmd_evolve(cfg: dict):
    engine, grid = cfg["engine"], _grid(cfg["grid"], "grid")
    if engine == "both" and cfg["model"] != "ado":
        raise ConfigError("engine 'both' requires the ado model")
    # the closed form's keys are checked also when only the oracle runs
    sweep, dim = _sweep_model(cfg)
    spec = propagator.PropagationSpec(**cfg["propagation"])
    qspec = ado.QuadratureSpec(**cfg["quadrature"])
    init = cfg["initial_state"]
    if not 0 <= init < dim:
        raise ConfigError(f"initial_state must be an integer in 0..{dim - 1}, got {init!r}")

    psi0 = np.zeros(dim, dtype=complex)
    if engine == "both":
        sol = ado.closed_form_solution(ado.ADOParams(**cfg["params"]), cfg["branch"])
        psi0[:2] = sol.xi  # the oracle starts in the spinor of the branch it is compared with
    else:
        psi0[init] = 1.0
    traj = propagator.population_trajectory(propagator.InteractionPicture(sweep), psi0, grid, spec)
    pops = np.abs(traj) ** 2
    header = ["t", "total"] + [f"p_{j}" for j in range(dim)]
    rows = [
        [float(t), float(pops[k].sum())] + [float(x) for x in pops[k]]
        for k, t in enumerate(grid)
    ]

    if engine == "both":
        # the closed form's time is the oracle's -t; its sloped-channel
        # population is normalized at the grid start
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


def cmd_transition_matrix(cfg: dict):
    sweep, dim = _sweep_model(cfg)
    result = propagator.transition_matrix(sweep, cfg["T"], propagator.PropagationSpec(**cfg["propagation"]))
    header = ["T_used", "initial", "final", "p_at_T", "p_at_2T", "p_extrapolated"]
    rows = [
        [cfg["T"], i, f, float(result.matrix_at_T[f, i]),
         float(result.matrix_at_2T[f, i]), float(result.matrix[f, i])]
        for i in range(dim)
        for f in range(dim)
    ]
    return _csv(header, rows), 0


def cmd_lz_probability(cfg: dict):
    points = cfg["sweep"]["points"]
    if any(len(point) != 3 for point in points):
        raise ConfigError("each sweep point must have three couplings")
    spec = propagator.PropagationSpec(**cfg["propagation"])
    rows = []
    for point in points:
        sweep = ado.ado_sweep(ado.ADOParams(gamma=point, a=[cfg["a2"]]))
        formula = ado.lz_probability(*point)
        # a flat level that nothing couples (gamma_2 = 0) propagates as an exact phase
        oracle = float(propagator.transition_matrix(sweep, cfg["T"], spec).matrix[2, 2])
        rows.append(point + [formula, oracle, abs(formula - oracle)])
    header = ["gamma_0", "gamma_1", "gamma_2", "P_formula", "P_oracle", "abs_delta"]
    return _csv(header, rows), 0


# ---------------------------------------------------------------------------
# closed-form


def _amplitude_row(x: float, amp: np.ndarray) -> list:
    """x, then re/im of both sloped amplitudes, then their modulus."""
    return [float(x), float(amp[0].real), float(amp[0].imag), float(amp[1].real),
            float(amp[1].imag), float(np.linalg.norm(amp))]


# a huge coupling overflows the four-vectors before the closed form rejects it, and a
# row that is still not finite (a backstop) is named below; neither is warned about
@np.errstate(over="ignore", invalid="ignore")
def cmd_closed_form(cfg: dict):
    sol = ado.closed_form_solution(ado.ADOParams(**cfg["params"]), cfg["branch"])
    columns = ["re_0", "im_0", "re_1", "im_1", "modulus"]
    if (cfg["omega_grid"] is None) == (cfg["t_grid"] is None):
        raise ConfigError("closed-form config needs exactly one of 'omega_grid' and 't_grid'")
    if cfg["omega_grid"] is not None:
        header = ["omega"] + columns
        rows = [_amplitude_row(w, sol(float(w))) for w in _grid(cfg["omega_grid"], "omega_grid")]
    else:
        qspec = ado.QuadratureSpec(**cfg["quadrature"])
        header = ["t"] + columns + ["error_estimate"]
        rows = []
        for t in _grid(cfg["t_grid"], "t_grid"):
            res = ado.time_domain_wavefunction(sol, float(t), qspec)
            rows.append(_amplitude_row(t, res.amplitudes) + [float(res.error_estimate)])
    bad = next((row[0] for row in rows if not np.isfinite(row).all()), None)
    if bad is not None:
        raise NumericalError(f"closed-form: the row at {header[0]} = {fmt17(bad)} is not finite")
    return _csv(header, rows), 0


# ---------------------------------------------------------------------------


def _command(handler, **keys):
    """A COMMANDS entry: the handler and the declaration of its config keys."""
    return handler, {"schema_version": ((SCHEMA_VERSION,), REQUIRED), **keys}


# every handler takes the read config and returns (text, exit code); only the
# verify commands draw random samples, so only they declare a `seed`
COMMANDS = {
    "verify-integrals": _command(
        cmd_verify_integrals, seed=(int, 0),
        gaudin=({"sites": (int, 4), "spin": (float, 0.5), "draws": (int, 20),
                 "lambda_values": ([float], [0.0, 0.5, 2.0]), "level_shift": (float, 3.0),
                 "tolerance": (float, 1e-12), "curvature_tolerance": (float, 1e-12)}, None),
        ado=({"n_values": ([int], [2, 3, 4, 5, 6]), "draws": (int, 20),
              "tolerance": (float, 1e-13), "curvature_tolerance": (float, 1e-12),
              "break_parallelism": (float, 0.0)}, None),
    ),
    "verify-ekz": _command(
        cmd_verify_ekz, seed=(int, 0), params=(_ADO_PARAMS, REQUIRED), draws=(int, 50),
        residual_step=(float, 1e-4),
        tolerances=({"commutator": (float, 1e-13), "curvature": (float, 1e-12),
                     "ode_residual": (float, 1e-6)}, {}),
    ),
    "spectral-flow": _command(
        cmd_spectral_flow, model=(("do",), "do"), params=(_DO_PARAMS, REQUIRED), grid=(_GRID, REQUIRED)
    ),
    "evolve": _command(
        cmd_evolve, **_MODEL, engine=(("oracle", "both"), "oracle"),
        grid=(_GRID, REQUIRED), initial_state=(int, 0), branch=_BRANCH,
        propagation=(_PROPAGATION, {}), quadrature=(_QUADRATURE, {}),
    ),
    "transition-matrix": _command(
        cmd_transition_matrix, **_MODEL, T=(float, 200.0), propagation=(_PROPAGATION, {})
    ),
    "lz-probability": _command(
        cmd_lz_probability,
        sweep=({"points": ([[float]], REQUIRED)}, REQUIRED),
        a2=(float, 0.0), T=(float, 200.0), propagation=(_PROPAGATION, {}),
    ),
    "closed-form": _command(
        cmd_closed_form, params=(_ADO_PARAMS, REQUIRED), branch=_BRANCH,
        omega_grid=(_GRID, None), t_grid=(_GRID, None), quadrature=(_QUADRATURE, {}),
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 3), not exit 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag has one spelling, not every prefix of it
    parser = _Parser(prog="lzi", description="Multi-level Landau-Zener dynamics toolkit",
                     allow_abbrev=False)
    parser.set_defaults(seed=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, declaration) in COMMANDS.items():
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        if "seed" in declaration:
            cmd.add_argument("--seed", type=int, help="seed of the sample draws (overrides the config's)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, declaration = COMMANDS[args.command]
        cfg = _read(_load_config(args.config), declaration, "")
        if args.seed is not None:
            cfg["seed"] = args.seed
        if cfg.get("seed", 0) < 0:  # only the verify commands declare a seed
            raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']}")
        text, code = handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except LziError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OverflowError) as exc:
        # the library raises these only for bad arguments, and every argument here
        # comes from the config
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    _write_text(args.out, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
