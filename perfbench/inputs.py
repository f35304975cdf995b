"""Seeded inputs of the three workloads, as lzi CLI configs.

Every workload is a fixed list of CLI calls; the seed only draws parameter
values inside ranges chosen so that each call does nearly the same amount of
work on every seed (same sizes, same horizons, same grid lengths).

Run as a script (``python3 perfbench/inputs.py <workload> <seed>``) it
imports lzi, builds the inputs into a scratch directory and exits; the
benchmark times that in fresh interpreters to measure ``setup_s``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("oracle-transition", "closed-form-time", "spectral-algebra")

HORIZON = 50.0
THETA = 0.25
CF_QUADRATURE = {"tolerance": 1e-3, "initial_window": 48.0}
_INV = 1.0 / math.sqrt(4.0 * math.pi)
# the four coupling sets of acceptance criterion 1 (flat level at a = 0)
CRITERION_1 = ((0.3, 0.4, 0.5), (0.5, 0.5, 0.3), (0.2, 0.7, 0.4), (_INV, _INV, 1.0))
README_ADO = {"gamma": [0.3, 0.4, 0.5], "a": [0.0]}
README_INTEGRALS = {
    "schema_version": 1,
    "gaudin": {"sites": 4, "spin": 0.5, "draws": 20, "lambda_values": [0.0, 0.5, 2.0],
               "level_shift": 3.0, "tolerance": 1e-12, "curvature_tolerance": 1e-12},
    "ado": {"n_values": [2, 3, 4, 5, 6], "draws": 20, "tolerance": 1e-13,
            "curvature_tolerance": 1e-12, "break_parallelism": 0.0},
}
README_EKZ = {"schema_version": 1, "params": {"gamma": [0.3, 0.4, 0.5, 0.2], "a": [1.0, 2.5]},
              "draws": 50, "residual_step": 1e-4}


@dataclass
class Op:
    """One CLI call: `lzi <command> --config <name>.json --out <name>.out`."""

    name: str
    command: str
    config: dict
    expect_rc: int = 0
    cli_seed: int | None = None
    points: int = 0  # real-time or spectral-flow grid points the call computes
    meta: dict = field(default_factory=dict)

    @property
    def stem(self) -> str:
        return self.name.replace("/", "_")

    def argv(self, workdir: Path) -> list:
        out = ["--config", str(workdir / f"{self.stem}.json"), "--out", str(workdir / f"{self.stem}.out")]
        if self.cli_seed is not None:
            out += ["--seed", str(self.cli_seed)]
        return [self.command] + out


def _distinct(rng: random.Random, k: int, lo: float, hi: float, gap: float) -> list:
    while True:
        vals = sorted(rng.uniform(lo, hi) for _ in range(k))
        if all(b - a >= gap for a, b in zip(vals, vals[1:])):
            return vals


def _do_params(rng: random.Random, n: int) -> dict:
    """gamma_0 = 1, |gamma_k| in [0.3, 0.6]; epsilon_0 = 0 and 1 <= |epsilon_k| <= 3,
    so every raw coupling stays below 0.6 and every flat level within [-1, 1]."""
    eps = [0.0]
    while len(eps) < n + 1:
        cand = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0)
        if all(abs(cand - e) >= 0.5 for e in eps):
            eps.append(cand)
    gamma = [1.0] + [rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6) for _ in range(n)]
    return {"gamma": gamma, "epsilon": eps}


def _transition(name: str, model: str, params: dict) -> Op:
    cfg = {"schema_version": 1, "model": model, "params": params, "T": HORIZON,
           "propagation": {"theta": THETA}}
    return Op(name, "transition-matrix", cfg, points=len(params["gamma"]) ** 2,
              meta={"model": model, "params": params})


def oracle_transition(rng: random.Random) -> list:
    ops = [
        _transition(f"transition/criterion1-{k}", "ado", {"gamma": list(g), "a": [0.0]})
        for k, g in enumerate(CRITERION_1)
    ]
    for k in range(2):
        g = [rng.uniform(0.2, 0.7) for _ in range(3)]
        ops.append(_transition(f"transition/ado-{k}", "ado", {"gamma": g, "a": [rng.uniform(-1.0, 1.0)]}))
    ops.append(_transition("transition/do-3", "do", _do_params(rng, 3)))
    bow = _do_params(rng, 2)
    u = rng.uniform(0.3, 0.7)
    bow["r"] = [-u, 1.0 - u]  # slopes 1, 1-u, 2-u: the same spread on every seed
    ops.append(_transition("transition/bow-tie-2", "bow-tie", bow))
    # one model per run is also integrated by the reference (about 5 s)
    ops[rng.randrange(len(ops))].meta["reference"] = True
    return ops


def _grid_avoiding(start: float, stop: float, num: int, avoid: list, gap: float) -> dict:
    """linspace(start, stop, num), num raised until no point sits within gap of `avoid`."""
    while True:
        step = (stop - start) / (num - 1)
        pts = [start + i * step for i in range(num)]
        if all(abs(p - x) > gap for p in pts for x in avoid):
            return {"start": start, "stop": stop, "num": num}
        num += 1


def closed_form_time(rng: random.Random) -> list:
    gamma = [rng.uniform(0.2, 0.5) for _ in range(4)]
    a = _distinct(rng, 2, -1.5, 1.5, 0.8)
    params = {"gamma": gamma, "a": a}
    meta = {"params": params}
    t_grid = {"start": -6.0 + rng.uniform(-0.5, 0.5), "stop": 6.0 + rng.uniform(-0.5, 0.5), "num": 2}
    omega_grid = _grid_avoiding(-4.0 - rng.uniform(0.0, 0.5), 4.0 + rng.uniform(0.0, 0.5), 4000, a, 1e-6)
    ops = []
    for m, tag in ((1, "plus"), (-1, "minus")):
        cfg = {"schema_version": 1, "params": params, "branch": m, "t_grid": t_grid,
               "quadrature": CF_QUADRATURE}
        ops.append(Op(f"closed-form/t-{tag}", "closed-form", cfg, points=t_grid["num"],
                      meta=dict(meta, branch=m)))
    for m, tag in ((1, "plus"), (-1, "minus")):
        cfg = {"schema_version": 1, "params": params, "branch": m, "omega_grid": omega_grid}
        ops.append(Op(f"closed-form/omega-{tag}", "closed-form", cfg, meta=dict(meta, branch=m)))
    grid = {"start": -20.0 + rng.uniform(-0.5, 0.5), "stop": 20.0 + rng.uniform(-0.5, 0.5), "num": 4}
    cfg = {"schema_version": 1, "model": "ado", "params": README_ADO, "engine": "both",
           "grid": grid, "propagation": {"theta": THETA}, "quadrature": CF_QUADRATURE}
    ops.append(Op("evolve/both", "evolve", cfg, points=grid["num"], meta={"params": README_ADO}))
    return ops


def spectral_algebra(rng: random.Random, seed: int) -> list:
    eps = _distinct(rng, 7, -3.0, 3.0, 0.3)
    rng.shuffle(eps)  # epsilon_0, the sloped level's pole, lands anywhere in the spectrum
    gamma = [rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0) for _ in range(7)]
    params = {"gamma": gamma, "epsilon": eps}
    # an even point count on a window around 0 keeps t = 0 off the grid
    grid = _grid_avoiding(-8.0 - rng.uniform(0.0, 1.0), 8.0 + rng.uniform(0.0, 1.0), 3000, [0.0], 1e-3)
    control = {"schema_version": 1, "ado": dict(README_INTEGRALS["ado"], break_parallelism=0.1)}
    return [
        Op("spectral-flow/do-6", "spectral-flow",
           {"schema_version": 1, "model": "do", "params": params, "grid": grid},
           points=grid["num"], meta={"params": params}),
        Op("verify/integrals", "verify-integrals", README_INTEGRALS, cli_seed=seed),
        Op("verify/ekz", "verify-ekz", README_EKZ, cli_seed=seed),
        Op("verify/broken-parallelism", "verify-integrals", control, expect_rc=1, cli_seed=seed),
    ]


def make_ops(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-transition":
        return oracle_transition(rng)
    if workload == "closed-form-time":
        return closed_form_time(rng)
    if workload == "spectral-algebra":
        return spectral_algebra(rng, seed)
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")


def write_configs(ops: list, workdir: Path) -> None:
    for op in ops:
        (workdir / f"{op.stem}.json").write_text(json.dumps(op.config), encoding="utf-8")


def import_lzi():
    """Import lzi from this checkout's sources (never from an installed copy)."""
    src = ROOT / "src"
    if not (src / "lzi" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lzi sources under {src}")
    sys.path.insert(0, str(src))
    import lzi.cli

    return lzi.cli


def prepare(workload: str, seed: int, workdir: Path):
    """Set-up as timed by setup_s: import lzi, draw the inputs, write the configs."""
    cli = import_lzi()
    ops = make_ops(workload, seed)
    write_configs(ops, workdir)
    return cli, ops


if __name__ == "__main__":
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR))
    try:
        prepare(sys.argv[1], int(sys.argv[2]), scratch)
    finally:
        shutil.rmtree(scratch)
