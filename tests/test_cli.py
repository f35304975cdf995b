import collections
import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lzi
from lzi import ado, cli, gaudin, spin
from lzi import demkov_osherov as do
from lzi.cli import main
from lzi.errors import NumericalError

DATA = Path(__file__).parent / "data"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _run(args):
    return main(args)


# ---------------------------------------------------------------------------
# spectral-flow


def test_spectral_flow_matches_golden_file(tmp_path):
    out = tmp_path / "flow.csv"
    code = _run(["spectral-flow", "--config", str(DATA / "spectral_flow_n1.json"), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "spectral_flow_n1_golden.csv").read_bytes()


def test_spectral_flow_with_a_decoupled_level_matches_golden_file(tmp_path):
    # level 1 decouples inside the coupled hull; the grid runs from t < 0 through t = 0
    out = tmp_path / "flow.csv"
    code = _run(["spectral-flow", "--config", str(DATA / "spectral_flow_decoupled.json"), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "spectral_flow_decoupled_golden.csv").read_bytes()


def test_spectral_flow_deterministic(tmp_path):
    cfg = _write(
        tmp_path,
        "flow.json",
        {
            "schema_version": 1,
            "model": "do",
            "params": {"gamma": [0.9, 0.5, 0.7], "epsilon": [0.0, 1.0, 2.0]},
            "grid": {"start": -3.0, "stop": 3.5, "num": 21},
        },
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["spectral-flow", "--config", cfg, "--out", str(out1)]) == 0
    assert _run(["spectral-flow", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_spectral_flow_header_names(tmp_path):
    out = tmp_path / "flow.csv"
    _run(["spectral-flow", "--config", str(DATA / "spectral_flow_n1.json"), "--out", str(out)])
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["t", "x_0", "x_1", "E_0", "E_1"]


def test_spectral_flow_degenerate_params_exit_two(tmp_path):
    cfg = _write(
        tmp_path,
        "bad.json",
        {
            "schema_version": 1,
            "model": "do",
            "params": {"gamma": [1.0, 1.0], "epsilon": [1.0, 1.0]},
            "grid": {"start": 0.0, "stop": 1.0, "num": 3},
        },
    )
    assert _run(["spectral-flow", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# verify-integrals / verify-ekz


def _verify_config(break_parallelism=0.0):
    return {
        "schema_version": 1,
        "gaudin": {"sites": 3, "draws": 2, "lambda_values": [0.0, 0.5]},
        "ado": {
            "n_values": [2, 3],
            "draws": 3,
            "break_parallelism": break_parallelism,
        },
    }


def test_verify_integrals_passes(tmp_path):
    cfg = _write(tmp_path, "vi.json", _verify_config())
    out = tmp_path / "report.json"
    assert _run(["verify-integrals", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["max_commutator_defect"] < 1e-12
    assert report["max_curvature_residual"] < 1e-12


def test_verify_integrals_negative_control(tmp_path):
    cfg = _write(tmp_path, "vi.json", _verify_config(break_parallelism=0.1))
    out = tmp_path / "report.json"
    assert _run(["verify-integrals", "--config", cfg, "--seed", "7", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["sections"]["ado"]["max_commutator_defect"] > 1e-4


@pytest.mark.parametrize(
    "suite, block, expected",
    [
        ("ado", {"n_values": [2, 3], "draws": 3, "break_parallelism": 0.1}, 1),
        ("gaudin", {"sites": 3, "draws": 2, "lambda_values": [0.0, 0.5]}, 0),
    ],
)
def test_verify_integrals_runs_only_the_suite_given(tmp_path, suite, block, expected):
    # an absent suite block skips that suite; it is never run on its defaults
    cfg = _write(tmp_path, "vi.json", {"schema_version": 1, suite: block})
    out = tmp_path / "report.json"
    assert _run(["verify-integrals", "--config", cfg, "--seed", "7", "--out", str(out)]) == expected
    report = json.loads(out.read_text())
    assert list(report["sections"]) == [suite]
    assert report["pass"] is (expected == 0)


def test_gaudin_curvature_residual_keeps_its_size_under_a_negative_level_shift(tmp_path):
    # kz_flatness_residual divides inside max_abs, so the sign of level_shift drops out;
    # the R_l do not depend on it, so both runs check the same operators
    residuals = []
    for shift in (0.5, -0.5):
        block = {"sites": 3, "draws": 2, "lambda_values": [0.0, 0.5], "level_shift": shift}
        cfg = _write(tmp_path, "vi.json", {"schema_version": 1, "gaudin": block})
        out = tmp_path / "report.json"
        assert _run(["verify-integrals", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        residuals.append(json.loads(out.read_text())[cli.CURV])
    assert residuals[0] == residuals[1] > 0.0


def test_verify_integrals_deterministic_with_seed(tmp_path):
    cfg = _write(tmp_path, "vi.json", _verify_config())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    _run(["verify-integrals", "--config", cfg, "--seed", "3", "--out", str(out1)])
    _run(["verify-integrals", "--config", cfg, "--seed", "3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "break_parallelism, golden, expected",
    [
        (0.0, "verify_integrals_readme_seed0_golden.json", 0),
        (0.1, "verify_integrals_broken_parallelism_seed0_golden.json", 1),
    ],
)
def test_verify_integrals_readme_config_matches_golden_file(tmp_path, break_parallelism, golden, expected):
    config = next(example for heading, example in _readme_examples() if heading == "verify-integrals")
    config["ado"]["break_parallelism"] = break_parallelism
    cfg = _write(tmp_path, "vi.json", config)
    out = tmp_path / "report.json"
    assert _run(["verify-integrals", "--config", cfg, "--seed", "0", "--out", str(out)]) == expected
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_verify_ekz_readme_config_matches_golden_file(tmp_path):
    config = next(example for heading, example in _readme_examples() if heading == "verify-ekz")
    cfg = _write(tmp_path, "ekz.json", config)
    out = tmp_path / "report.json"
    assert _run(["verify-ekz", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "verify_ekz_readme_seed0_golden.json").read_bytes()


@pytest.fixture
def op_counts(monkeypatch):
    """Calls of the operator builders, of spin.commutator, of the secular-root
    solve and of the four-vector builders, through every lzi module that binds
    them."""
    counts = collections.Counter()
    for name, home in (("richardson_integral", gaudin), ("ekz_operators", ado), ("commutator", spin),
                       ("spectral_roots", do), ("b_vectors", ado), ("b_vector_stack", ado),
                       ("BVectorSet", ado), ("ekz_residual_check", ado)):
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (spin, gaudin, ado, do, cli):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def _counts_at_two_draw_counts(tmp_path, op_counts, command, config, blocks):
    """op_counts of one run with `draws` 2 in every block of `blocks`, and of one with 20."""
    runs = []
    for draws in (2, 20):
        for block in blocks:
            block["draws"] = draws
        cfg = _write(tmp_path, "verify.json", config)
        op_counts.clear()
        assert _run([command, "--config", cfg, "--seed", "5", "--out", str(tmp_path / "r.json")]) == 0
        runs.append(dict(op_counts))
    return runs


def test_verify_integrals_builds_each_operator_and_takes_each_commutator_once(tmp_path, op_counts):
    # a suite builds all its operators as one stack (the ado suite one per level count)
    # and takes each pair's commutator as one stacked product, so no count grows with draws
    config = {
        "schema_version": 1,
        "gaudin": {"sites": 4, "lambda_values": [0.0, 1.5]},
        "ado": {"n_values": [2, 3, 4]},
    }
    few, many = _counts_at_two_draw_counts(
        tmp_path, op_counts, "verify-integrals", config, [config["gaudin"], config["ado"]])
    assert few == many
    assert few["richardson_integral"] == 1
    assert few["b_vector_stack"] == few["ekz_operators"] == 3
    assert few["commutator"] == math.comb(4, 2) + sum(math.comb(n, 2) for n in (2, 3, 4))


def test_eigenpairs_and_spectral_flow_solve_the_roots_once_per_time(op_counts):
    p = lzi.DOParams(gamma=[1.0, 0.0, 0.4, 0.7], epsilon=[0.0, 1.0, 2.0, -1.5])
    lzi.eigenpairs(p, 0.3)
    assert op_counts["spectral_roots"] == 1
    lzi.track_spectral_flow(p, np.linspace(-2.0, 2.0, 9))
    assert op_counts["spectral_roots"] == 1 + 9


def test_verify_ekz_builds_four_vectors_only_for_its_solutions(tmp_path, op_counts):
    config = {"schema_version": 1, "params": {"gamma": [0.3, 0.4, 0.5, 0.2], "a": [1.0, 2.5]}}
    few, many = _counts_at_two_draw_counts(tmp_path, op_counts, "verify-ekz", config, [config])
    # one four-vector set per closed-form branch, each from b_vectors; none per residual check
    assert few["b_vectors"] == 2
    assert (few["b_vectors"], few["BVectorSet"]) == (many["b_vectors"], many["BVectorSet"])


def test_verify_ekz_builds_each_operator_and_takes_each_commutator_once(tmp_path, op_counts):
    # one H_1..H_n stack over every kept omega serves the commutators and both
    # branches' residual checks; each pair's commutator is one stacked product
    config = {"schema_version": 1, "params": {"gamma": [0.3, 0.4, 0.5, 0.2, 0.6], "a": [-1.0, 1.0, 2.5]}}
    few, many = _counts_at_two_draw_counts(tmp_path, op_counts, "verify-ekz", config, [config])
    assert many["ekz_residual_check"] > few["ekz_residual_check"] > 0
    assert {k: v for k, v in few.items() if k != "ekz_residual_check"} == {
        k: v for k, v in many.items() if k != "ekz_residual_check"}
    assert few["ekz_operators"] == 1
    assert few["commutator"] == math.comb(4, 2)


def _verify_integrals_definitions(config: dict, seed: int) -> dict:
    """Each suite's largest commutator defect and curvature residual, recomputed
    with the library's definitions on the points the CLI draws (same rng order)."""
    rng = np.random.default_rng(seed)
    g_block, a_block = config["gaudin"], config["ado"]
    system = lzi.SiteSystem.uniform(g_block["sites"], g_block["spin"])
    comm, curv = [], []
    for _ in range(g_block["draws"]):
        w = np.sort(rng.uniform(-2.0, 2.0, g_block["sites"]))
        while np.min(np.diff(w)) < 0.1:
            w = np.sort(rng.uniform(-2.0, 2.0, g_block["sites"]))
        for lam in g_block["lambda_values"]:
            spec = lzi.SpectralConfig(w=tuple(w), lam=lam, level_shift=g_block["level_shift"])
            ops = lzi.richardson_integral(range(g_block["sites"]), [spec], system)[:, 0]
            comm.append(lzi.verify_commuting(ops))
            curv += [lzi.kz_flatness_residual(spec, system, la, lb)
                     for la, lb in itertools.combinations(range(g_block["sites"]), 2)]
    out = {"gaudin": {cli.COMM: float(np.max(comm)), cli.CURV: float(np.max(curv))}}
    comm, curv = [], []
    for n in a_block["n_values"]:
        for _ in range(a_block["draws"]):
            g = rng.uniform(0.3, 1.0, n + 1)
            a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            while a.size >= 2 and np.min(np.diff(a)) < 0.2:
                a = np.sort(rng.uniform(-2.0, 2.0, n - 1))
            p = lzi.ADOParams(gamma=g, a=a)
            v = lzi.coupling_matrix(p)
            v[0, 1] += a_block["break_parallelism"]
            v[1, 0] += a_block["break_parallelism"]
            b = lzi.b_vector_stack([p], [v])
            omega = float(rng.uniform(2.5, 4.0))
            comm.append(_ekz_commutator_defect(b, omega))
            curv += [lzi.zero_curvature_residual(b, i, j, omega)
                     for i, j in itertools.combinations([0] + list(range(2, n + 1)), 2)]
    out["ado"] = {cli.COMM: float(np.max(comm)), cli.CURV: float(np.max(curv))}
    return out


def _ekz_commutator_defect(b, omega: float) -> float:
    return np.max(lzi.verify_commuting(lzi.ekz_operators(b, omega)))


def _verify_ekz_definitions(config: dict, seed: int) -> dict:
    """The verify-ekz report's numbers from the library's one-point definitions."""
    rng = np.random.default_rng(seed)
    p = lzi.ADOParams(**config["params"])
    sols = [lzi.closed_form_solution(p, m) for m in (+1, -1)]
    b, labels = sols[0].b, [0] + list(range(2, p.n + 1))
    comm, curv, ode = [], [], []
    for _ in range(config["draws"]):
        omega = float(rng.uniform(-2.5, 2.5))
        if np.abs(omega - p.a).min() <= 0.5:
            continue
        comm.append(_ekz_commutator_defect(b, omega))
        curv += [lzi.zero_curvature_residual(b, i, j, omega)
                 for i, j in itertools.combinations(labels, 2)]
        for sol in sols:
            r, r_a = lzi.ekz_residual_check(sol, omega, h=config["residual_step"])
            ode += [r, *r_a]
    return {cli.COMM: float(np.max(comm)), cli.CURV: float(np.max(curv)), cli.ODE: float(np.max(ode))}


@pytest.mark.parametrize(
    "case, seed",
    [pytest.param("readme", seed, id=str(seed)) for seed in (1, 2, 3)]
    + [pytest.param(case, seed, id=f"{case}-{seed}")
       for case in ("broken-parallelism", "verify-ekz") for seed in (1, 2, 3)],
)
def test_verify_integrals_reports_the_library_definitions(tmp_path, case, seed):
    # the CLI evaluates stacks and reads both curvature residuals from the commutators
    # it takes once; every number must equal the library's one-point definitions
    command = "verify-ekz" if case == "verify-ekz" else "verify-integrals"
    config = next(example for heading, example in _readme_examples() if heading == command)
    if case == "broken-parallelism":
        config["ado"]["break_parallelism"] = 0.1
    cfg = _write(tmp_path, "verify.json", config)
    out = tmp_path / "report.json"
    expected_code = 1 if case == "broken-parallelism" else 0
    assert _run([command, "--config", cfg, "--seed", str(seed), "--out", str(out)]) == expected_code
    report = json.loads(out.read_text())
    if command == "verify-ekz":
        expected = _verify_ekz_definitions(config, seed)
        assert {key: report[key] for key in expected} == expected
    else:
        for suite, expected in _verify_integrals_definitions(config, seed).items():
            assert {key: report["sections"][suite][key] for key in expected} == expected


def test_verify_ekz_non_finite_defect_exits_2(tmp_path, capsys):
    # gamma_0 = 1e60 has finite squares, but the EKZ four-vectors overflow, so every defect
    # is NaN, and max(0.0, nan) would report 0.0
    config = {"schema_version": 1, "params": {"gamma": [1e60, 0.4, 0.5, 0.2], "a": [1.0, 2.5]}}
    cfg = _write(tmp_path, "ekz.json", config)
    out = tmp_path / "report.json"
    assert _run(["verify-ekz", "--config", cfg, "--out", str(out)]) == 2
    # the overflow itself prints nothing: the report names the first defect that is not finite
    assert capsys.readouterr().err == (
        "numerical error: verify-ekz (it skips omega draws within 0.5 of a flat level): "
        "max_commutator_defect is nan at sample 1\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, first", [
    # a t_grid at this gamma writes zeros, so only the omega grid reaches the row check
    ({"omega_grid": {"start": 0.1, "stop": 0.2, "num": 2}}, "omega = 0.10000000000000001"),
], ids=["omega-grid"])
def test_closed_form_non_finite_row_exits_2_naming_its_grid_value(tmp_path, capsys, grid, first):
    # gamma_0 = 1e60 has finite squares, but every amplitude is NaN; no row is written
    # and no numpy warning printed
    config = {"schema_version": 1, "params": {"gamma": [1e60, 0.4, 0.5, 0.2], "a": [1.0, 2.5]},
              "branch": 1, **grid}
    cfg = _write(tmp_path, "cf.json", config)
    out = tmp_path / "amplitudes.csv"
    assert _run(["closed-form", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numerical error: closed-form: the row at {first} is not finite\n"
    assert not out.exists()


def test_verify_integrals_with_an_overflowing_breakage_reports_quietly(tmp_path, capsys):
    # a coupling of 1e300 overflows the norm inside the four-vector build; the defects stay finite
    config = {"schema_version": 1, "ado": {"n_values": [2, 3], "draws": 3, "break_parallelism": 1e300}}
    cfg = _write(tmp_path, "vi.json", config)
    out = tmp_path / "report.json"
    assert _run(["verify-integrals", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    assert not json.loads(out.read_text())["pass"]


def test_verdict_keeps_a_nan_behind_a_larger_value():
    # defects[key][k] holds a key's values at sample k, counted from 1 in draw order
    nan = float("nan")
    for defects in ({cli.COMM: np.array([[1e-14, 1e-14], [1e-3, nan]])},
                    {cli.COMM: np.array([[1e-14, 0.0], [nan, 1e-3], [1e-2, 0.0]]),
                     cli.CURV: np.array([1e-14, 1e-3, nan])}):
        with pytest.raises(NumericalError, match="max_commutator_defect is nan at sample 2"):
            cli._verdict(defects, {cli.COMM: 1e-12, cli.CURV: 1e-12}, "suite")


@pytest.mark.parametrize("command", ["verify-integrals", "verify-ekz"])
def test_seed_flag_overrides_the_config_seed(tmp_path, command):
    def report(config_seed, *flag):
        config = _VALID[command] if config_seed is None else dict(_VALID[command], seed=config_seed)
        cfg = _write(tmp_path, "verify.json", config)
        out = tmp_path / "report.json"
        assert _run([command, "--config", cfg, *flag, "--out", str(out)]) == 0
        return out.read_bytes()

    assert report(7) == report(None, "--seed", "7") == report(3, "--seed", "7")
    assert report(3) != report(7)  # the seed reaches the draws


@pytest.mark.parametrize("how", ["config key", "flag"])
@pytest.mark.parametrize("command", ["verify-integrals", "verify-ekz"])
def test_negative_seed_exits_three_naming_the_key(tmp_path, capsys, command, how):
    config = dict(_VALID[command], seed=-1) if how == "config key" else _VALID[command]
    cfg = _write(tmp_path, "verify.json", config)
    flag = ["--seed", "-1"] if how == "flag" else []
    assert _run([command, "--config", cfg, *flag, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "config error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_verify_ekz_passes(tmp_path):
    cfg = _write(
        tmp_path,
        "ekz.json",
        {
            "schema_version": 1,
            "params": {"gamma": [0.3, 0.4, 0.5, 0.2], "a": [1.0, 2.5]},
            "draws": 10,
        },
    )
    out = tmp_path / "report.json"
    assert _run(["verify-ekz", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["max_ode_residual"] < 1e-6


# ---------------------------------------------------------------------------
# evolve


def test_evolve_decoupled_level_constant_populations(tmp_path):
    cfg = _write(
        tmp_path,
        "ev.json",
        {
            "schema_version": 1,
            "model": "do",
            "params": {"gamma": [1.0, 0.0], "epsilon": [0.0, 1.0]},
            "engine": "oracle",
            "initial_state": 1,
            "grid": {"start": -4.0, "stop": 4.0, "num": 9},
        },
    )
    out = tmp_path / "ev.csv"
    assert _run(["evolve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "total", "p_0", "p_1"]  # 2 + (n+1) columns
    for line in lines[1:]:
        _, total, p0, p1 = (float(x) for x in line.split(","))
        assert abs(p0) < 1e-10 and abs(p1 - 1.0) < 1e-10 and abs(total - 1.0) < 1e-10


def test_evolve_both_engines_columns_and_delta(tmp_path):
    cfg = _write(
        tmp_path,
        "both.json",
        {
            "schema_version": 1,
            "model": "ado",
            "params": {"gamma": [0.3, 0.4, 0.5], "a": [0.0]},
            "engine": "both",
            "grid": {"start": -20.0, "stop": 20.0, "num": 5},
            "propagation": {"theta": 0.25},
            "quadrature": {"tolerance": 0.001, "initial_window": 48.0},
        },
    )
    out = tmp_path / "both.csv"
    assert _run(["evolve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "total", "p_0", "p_1", "p_2", "cf_sloped", "abs_delta"]
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    # both sloped-channel populations start at 1 and end near the closed form
    assert abs(first[5] - 1.0) < 1e-12 and first[6] < 1e-6
    assert last[6] < 0.06


def test_evolve_both_engines_start_in_the_configured_branch(tmp_path):
    # on the trivial branch the sloped channel keeps its population, and so must
    # the oracle started in that branch's spinor
    config = {"schema_version": 1, "model": "ado", "params": {"gamma": [0.3, 0.4, 0.5], "a": [0.0]},
              "engine": "both", "branch": -1, "grid": {"start": -20.0, "stop": 20.0, "num": 5},
              "propagation": {"theta": 0.25}, "quadrature": {"tolerance": 0.001, "initial_window": 48.0}}
    out = tmp_path / "both.csv"
    assert _run(["evolve", "--config", _write(tmp_path, "both.json", config), "--out", str(out)]) == 0
    deltas = [float(line.split(",")[-1]) for line in out.read_text().strip().splitlines()[1:]]
    assert max(deltas) < 1e-6


@pytest.mark.parametrize("command", ["evolve", "transition-matrix"])
def test_verify_runs_the_step_halving_check_in_every_propagating_command(tmp_path, capsys, command):
    coarse = {"theta": 2.0, "base_step": 1.0, "verify": True, "rtol": 1e-14}
    cfg = {"schema_version": 1, "model": "ado", "params": {"gamma": [0.3, 0.4, 0.5], "a": [0.0]},
           "propagation": coarse}
    if command == "evolve":
        cfg["grid"] = {"start": -10.0, "stop": 10.0, "num": 5}
    else:
        cfg["T"] = 10.0
    path = _write(tmp_path, "coarse.json", cfg)
    assert _run([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "step-halving estimate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, model, params", [
    ("transition-matrix", "do", {"gamma": [1.0, 0.5, 0.4, 0.3], "epsilon": [0.0, 1.0, -2.0, 3.0]}),
    ("evolve", "ado", {"gamma": [0.3, 0.4, 0.5], "a": [0.0]}),
], ids=["do-transition-matrix", "ado-evolve"])
def test_verify_checks_without_changing_the_output(tmp_path, command, model, params):
    # the step-halving rerun only checks the result; what is written is the run itself
    cfg = {"schema_version": 1, "model": model, "params": params}
    if command == "evolve":
        cfg["grid"] = {"start": -10.0, "stop": 10.0, "num": 5}
    else:
        cfg["T"] = 10.0
    written = []
    for verify in (False, True):
        cfg["propagation"] = {"theta": 0.25, "rtol": 1e-6, "verify": verify}
        out = tmp_path / f"verify_{verify}.csv"
        assert _run([command, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_propagation_block_is_the_spec_without_its_step_cap():
    # each setting has one default, the spec's; max_steps is the library's own guard
    fields = dataclasses.fields(lzi.PropagationSpec)
    spec = {f.name: (type(f.default), f.default) for f in fields if f.name != "max_steps"}
    for command in ("evolve", "transition-matrix", "lz-probability"):
        assert cli.COMMANDS[command][1]["propagation"] == (spec, {})


# ---------------------------------------------------------------------------
# transition-matrix / lz-probability / closed-form


def test_transition_matrix_csv(tmp_path):
    cfg = _write(
        tmp_path,
        "tm.json",
        {
            "schema_version": 1,
            "model": "do",
            "params": {"gamma": [1.0, 0.4], "epsilon": [0.0, 1.0]},
            "T": 20.0,
            "propagation": {"theta": 0.25},
        },
    )
    out = tmp_path / "tm.csv"
    assert _run(["transition-matrix", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["T_used", "initial", "final", "p_at_T", "p_at_2T", "p_extrapolated"]
    assert len(lines) == 1 + 4  # 2x2 model, long form
    for line in lines[1:]:
        vals = line.split(",")
        assert float(vals[0]) == 20.0
        assert 0.0 <= float(vals[5]) <= 1.0


def test_evolve_bow_tie_model(tmp_path):
    cfg = _write(
        tmp_path,
        "bt.json",
        {
            "schema_version": 1,
            "model": "bow-tie",
            "params": {"gamma": [1.0, 0.5], "epsilon": [0.0, 1.0], "r": [-0.5]},
            "engine": "oracle",
            "initial_state": 0,
            "grid": {"start": -6.0, "stop": 6.0, "num": 7},
            "propagation": {"theta": 0.25},
        },
    )
    out = tmp_path / "bt.csv"
    assert _run(["evolve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "total", "p_0", "p_1"]
    for line in lines[1:]:
        total = float(line.split(",")[1])
        assert abs(total - 1.0) < 1e-8


def test_lz_probability_sweep(tmp_path):
    cfg = _write(
        tmp_path,
        "lzp.json",
        {
            "schema_version": 1,
            "sweep": {"points": [[0.3, 0.4, 0.5], [0.4, 0.9, 0.0]]},
            "T": 60.0,
            "propagation": {"theta": 0.25},
        },
    )
    out = tmp_path / "lzp.csv"
    assert _run(["lz-probability", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["gamma_0", "gamma_1", "gamma_2", "P_formula", "P_oracle", "abs_delta"]
    row1 = [float(x) for x in lines[1].split(",")]
    assert abs(row1[3] - 0.6752319066557773) < 1e-15
    assert row1[5] < 0.05  # T = 60 keeps the test quick; the tight check runs at T = 200
    row2 = [float(x) for x in lines[2].split(",")]
    assert row2[3] == 1.0 and row2[4] == 1.0 and row2[5] == 0.0


def test_lz_probability_is_deterministic(tmp_path):
    cfg = _write(
        tmp_path,
        "lzp.json",
        {
            "schema_version": 1,
            "sweep": {"gamma0": [0.3], "gamma1": [0.4], "gamma2": [0.0, 0.2]},
            "T": 30.0,
            "propagation": {"theta": 0.3},
        },
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["lz-probability", "--config", cfg, "--out", str(out1)]) == 0
    assert _run(["lz-probability", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_closed_form_frequency_table(tmp_path):
    cfg = _write(
        tmp_path,
        "cf.json",
        {
            "schema_version": 1,
            "params": {"gamma": [0.3, 0.4, 0.5], "a": [0.0]},
            "branch": 1,
            "omega_grid": {"start": 0.25, "stop": 4.0, "num": 10},
        },
    )
    out = tmp_path / "cf.csv"
    assert _run(["closed-form", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["omega", "re_0", "im_0", "re_1", "im_1", "modulus"]
    assert len(lines) == 11


def test_closed_form_time_table_on_the_trivial_branch_has_flat_modulus(tmp_path):
    cfg = _write(
        tmp_path,
        "cf.json",
        {
            "schema_version": 1,
            "params": {"gamma": [0.3, 0.4, 0.5], "a": [0.0]},
            "branch": -1,
            "t_grid": {"start": -5.0, "stop": 5.0, "num": 3},
            "quadrature": {"tolerance": 0.001},
        },
    )
    out = tmp_path / "cf.csv"
    assert _run(["closed-form", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[-1] == "error_estimate"
    moduli = [float(line.split(",")[5]) for line in lines[1:]]
    assert len(moduli) == 3 and max(moduli) / min(moduli) - 1.0 < 1e-2


def test_closed_form_omega_on_a_flat_level_names_it_as_a_float(tmp_path, capsys):
    config = {"schema_version": 1, "params": {"gamma": [0.3, 0.4, 0.5, 0.2], "a": [1.0, 2.5]},
              "omega_grid": {"start": 0.0, "stop": 2.0, "num": 3}}
    cfg = _write(tmp_path, "cf.json", config)
    assert _run(["closed-form", "--config", cfg, "--out", str(tmp_path / "cf.csv")]) == 2
    assert capsys.readouterr().err == "numerical error: omega = a_2 = 1.0\n"


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_exits_three(tmp_path):
    assert _run(["spectral-flow", "--config", str(tmp_path / "nope.json")]) == 3


def test_malformed_json_exits_three(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert _run(["spectral-flow", "--config", str(path)]) == 3


def test_wrong_schema_version_exits_three(tmp_path):
    cfg = _write(tmp_path, "v2.json", {"schema_version": 2})
    assert _run(["spectral-flow", "--config", cfg]) == 3


def test_missing_block_exits_three(tmp_path):
    cfg = _write(tmp_path, "nb.json", {"schema_version": 1, "model": "do", "params": {}})
    assert _run(["spectral-flow", "--config", cfg]) == 3


@pytest.mark.parametrize("args, message", [
    pytest.param([], "the following arguments are required: command", id="no-command"),
    pytest.param(["spectral-flow"], "the following arguments are required: --config", id="no-config"),
    pytest.param(["spectral-flow", "--config", "flow.json", "--bogus"], "unrecognized arguments: --bogus",
                 id="unknown-flag"),
    pytest.param(["verify-ekz", "--config", "ekz.json", "--seed", "abc"],
                 "argument --seed: invalid int value: 'abc'", id="seed-not-an-integer"),
    # the tolerances are config keys only
    pytest.param(["verify-integrals", "--config", "vi.json", "--tolerance", "1e-3"],
                 "unrecognized arguments: --tolerance 1e-3", id="tolerance-flag"),
    # a flag has one spelling: argparse would otherwise take any unique prefix of it
    pytest.param(["verify-ekz", "--conf", "ekz.json"], "the following arguments are required: --config",
                 id="config-abbreviated"),
    pytest.param(["verify-ekz", "--config", "ekz.json", "--se", "5"], "unrecognized arguments: --se 5",
                 id="seed-abbreviated"),
])
def test_usage_error_exits_three(capsys, args, message):
    assert _run(args) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        _run(["spectral-flow", "-h"])
    assert exit_.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("how", ["config key", "flag"])
@pytest.mark.parametrize("command", ["spectral-flow", "evolve", "transition-matrix", "lz-probability", "closed-form"])
def test_seed_exits_three_on_commands_that_draw_nothing(tmp_path, capsys, command, how):
    config = dict(_VALID[command], seed=1) if how == "config key" else _VALID[command]
    cfg = _write(tmp_path, "cfg.json", config)
    flag = ["--seed", "1"] if how == "flag" else []
    assert _run([command, "--config", cfg, *flag, "--out", str(tmp_path / "out")]) == 3
    expected = "unrecognized arguments: --seed 1" if how == "flag" else "unknown key 'seed'"
    assert capsys.readouterr().err.startswith(f"config error: {expected}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1.5, True, "1", None])
def test_evolve_non_integer_initial_state_exits_three(tmp_path, capsys, value):
    cfg = _write(
        tmp_path,
        "ev.json",
        {
            "schema_version": 1,
            "model": "do",
            "params": {"gamma": [1.0, 0.0], "epsilon": [0.0, 1.0]},
            "engine": "oracle",
            "initial_state": value,
            "grid": {"start": -1.0, "stop": 1.0, "num": 3},
        },
    )
    assert _run(["evolve", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# the config-error boundary: small valid configs, one per command

_ADO = {"gamma": [0.3, 0.4, 0.5], "a": [0.0]}
_VALID = {
    "spectral-flow": {
        "schema_version": 1,
        "model": "do",
        "params": {"gamma": [0.9, 0.5, 0.7], "epsilon": [0.0, 1.0, 2.0]},
        "grid": {"start": -3.0, "stop": 3.5, "num": 5},
    },
    "evolve": {
        "schema_version": 1,
        "model": "do",
        "params": {"gamma": [1.0, 0.5], "epsilon": [0.0, 1.0]},
        "engine": "oracle",
        "initial_state": 1,
        "grid": {"start": -2.0, "stop": 2.0, "num": 3},
        "propagation": {"theta": 0.25},
    },
    "transition-matrix": {
        "schema_version": 1,
        "model": "ado",
        "params": _ADO,
        "T": 5.0,
        "propagation": {"theta": 0.25},
    },
    "lz-probability": {
        "schema_version": 1,
        "sweep": {"points": [[0.3, 0.4, 0.5]]},
        "T": 5.0,
        "propagation": {"theta": 0.25},
    },
    "closed-form": {
        "schema_version": 1,
        "params": _ADO,
        "branch": 1,
        "omega_grid": {"start": 0.25, "stop": 4.0, "num": 3},
    },
    "verify-integrals": {
        "schema_version": 1,
        "gaudin": {"sites": 3, "draws": 2, "lambda_values": [0.0, 0.5]},
        "ado": {"n_values": [2, 3], "draws": 2},
    },
    "verify-ekz": {
        "schema_version": 1,
        "params": {"gamma": [0.3, 0.4, 0.5, 0.2], "a": [1.0, 2.5]},
        "draws": 3,
    },
}
_DELETE = object()


def _mutated(command, path, value, base=None):
    """A copy of the command's valid config with the entry at `path` replaced or deleted."""
    cfg = copy.deepcopy(_VALID[command] if base is None else base)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


_CF_TIME = dict(
    _VALID["closed-form"],
    t_grid={"start": -1.0, "stop": 1.0, "num": 2},
    quadrature={"tolerance": 0.01},
)
_CF_TIME.pop("omega_grid")
_EVOLVE_BOTH = dict(_VALID["evolve"], model="ado", params=_ADO, engine="both")
_GAMMA_OVERFLOWS = "gamma is too large: the sum of its squares overflows"

# (command, path, value, base config if not the command's valid one, a fragment of
# the message: the key at fault, or the library's own words where no key is named)
_CONFIG_ERRORS = {
    # values the library's own argument checks reject
    "flow-num-string": ("spectral-flow", ("grid", "num"), "15", None, "grid.num must be a JSON integer"),
    "flow-gamma-string": ("spectral-flow", ("params", "gamma"), "ab", None, "params.gamma must be a JSON array"),
    "flow-gamma-epsilon-lengths": (
        "spectral-flow", ("params", "epsilon"), [0.0, 1.0], None, "gamma and epsilon must have equal length"
    ),
    "tm-negative-T": ("transition-matrix", ("T",), -5, None, "horizon must be positive"),
    "tm-unknown-method": (
        "transition-matrix", ("propagation", "method"), "euler", None, "unknown key 'propagation.method'"
    ),
    "tm-negative-rtol": ("transition-matrix", ("propagation", "rtol"), -1, None, "rtol must be positive"),
    "tm-ado-two-gammas": (
        "transition-matrix", ("params", "gamma"), [0.3, 0.4], None, "need at least gamma_0, gamma_1"
    ),
    "tm-params-number": ("transition-matrix", ("params",), 5, None, "params must be a JSON object"),
    "cf-negative-quadrature-tolerance": (
        "closed-form", ("quadrature", "tolerance"), -1, _CF_TIME, "tolerance must be positive"
    ),
    "cf-branch-two": ("closed-form", ("branch",), 2, None, "branch must be one of 1, -1, got 2"),
    "lzp-points-number": ("lz-probability", ("sweep", "points"), 5, None, "sweep.points must be a JSON array"),
    "vi-ado-one-level": ("verify-integrals", ("ado", "n_values"), [1], None, "need at least gamma_0, gamma_1"),
    "vi-seed-string": ("verify-integrals", ("seed",), "x", None, "seed must be a JSON integer"),
    # a negative step control used to give a silently wrong table
    "tm-negative-theta": ("transition-matrix", ("propagation", "theta"), -1, None, "theta must be positive"),
    "tm-negative-base-step": (
        "transition-matrix", ("propagation", "base_step"), -0.01, None, "base_step must be positive"
    ),
    "tm-zero-theta": ("transition-matrix", ("propagation", "theta"), 0, None, "theta must be positive"),
    # blocks that are not JSON objects
    "tm-propagation-number": ("transition-matrix", ("propagation",), 5, None, "propagation must be a JSON object"),
    "cf-quadrature-string": ("closed-form", ("quadrature",), "x", _CF_TIME, "quadrature must be a JSON object"),
    "vi-gaudin-number": ("verify-integrals", ("gaudin",), 5, None, "gaudin must be a JSON object"),
    "ekz-tolerances-number": ("verify-ekz", ("tolerances",), 3, None, "tolerances must be a JSON object"),
    # integer fields given a non-integer
    "cf-branch-float": ("closed-form", ("branch",), -1.5, None, "branch must be one of 1, -1, got -1.5"),
    "flow-num-float": ("spectral-flow", ("grid", "num"), 2.7, None, "grid.num must be a JSON integer"),
    # json writes 1e400 as Infinity, which the config reader refuses before any key
    "flow-num-huge": ("spectral-flow", ("grid", "num"), 1e400, None, "numbers must be finite, got Infinity"),
    "ekz-draws-huge": ("verify-ekz", ("draws",), 1e400, None, "numbers must be finite, got Infinity"),
    "vi-sites-float": ("verify-integrals", ("gaudin", "sites"), 3.0, None, "gaudin.sites must be a JSON integer"),
    "vi-n-values-float": (
        "verify-integrals", ("ado", "n_values"), [2.5], None, "ado.n_values[0] must be a JSON integer"
    ),
    # verifications that would check no point
    "ekz-no-draws": ("verify-ekz", ("draws",), 0, None, "flat level) checked no point"),
    "ekz-flat-levels-cover-draws": (
        "verify-ekz", ("params",), {"gamma": [0.3] * 7, "a": [-2.0, -1.0, 0.0, 1.0, 2.0]}, None,
        "flat level) checked no point",
    ),
    "ekz-zero-residual-step": ("verify-ekz", ("residual_step",), 0, None, "residual step h must be positive"),
    "vi-gaudin-no-draws": ("verify-integrals", ("gaudin", "draws"), 0, None, "gaudin suite checked no point"),
    "vi-ado-no-n-values": ("verify-integrals", ("ado", "n_values"), [], None, "ado suite checked no point"),
    # keys no command declares, and values of the wrong JSON type
    "tm-propagation-thetta": (
        "transition-matrix", ("propagation", "thetta"), 0.25, None, "unknown key 'propagation.thetta'"
    ),
    "vi-gaudin-k": ("verify-integrals", ("gaudin", "k"), 1, None, "unknown key 'gaudin.k'"),
    "flow-seed-float": ("spectral-flow", ("seed",), 1.5, None, "unknown key 'seed'"),
    "cf-max-doublings-float": (
        "closed-form", ("quadrature", "max_doublings"), 2.5, _CF_TIME, "unknown key 'quadrature.max_doublings'"
    ),
    "lzp-oracle-string-false": ("lz-probability", ("oracle",), "false", None, "oracle must be a JSON boolean"),
    "tm-schema-version-true": (
        "transition-matrix", ("schema_version",), True, None, "schema_version must be one of 1, got True"
    ),
    "flow-model-x": ("spectral-flow", ("model",), "x", None, "model must be one of 'do', got 'x'"),
    "flow-model-ado": ("spectral-flow", ("model",), "ado", None, "model must be one of 'do', got 'ado'"),
    # a retired engine: the real-time closed-form table is the closed-form command's t_grid
    "evolve-engine-closed-form": (
        "evolve", ("engine",), "closed-form", _EVOLVE_BOTH, "engine must be one of 'oracle', 'both'"
    ),
    "tm-T-string": ("transition-matrix", ("T",), "5", None, "T must be a JSON number"),
    "tm-T-integer-too-large-for-a-float": (
        "transition-matrix", ("T",), 10**400, None, "T is an integer too large for a float"
    ),
    # json writes and reads NaN and Infinity, which are not JSON numbers
    "tm-rtol-nan-with-verify": (
        "transition-matrix", ("propagation",),
        {"theta": 0.25, "rtol": float("nan"), "verify": True}, None, "numbers must be finite, got NaN",
    ),
    "tm-T-infinity": ("transition-matrix", ("T",), float("inf"), None, "numbers must be finite, got Infinity"),
    "cf-quadrature-tolerance-nan": (
        "closed-form", ("quadrature", "tolerance"), float("nan"), _CF_TIME, "numbers must be finite, got NaN"
    ),
    # keys of the engine that does not run
    "evolve-oracle-closed-form-keys": (
        "evolve", ("quadrature",), {"tolerance": -1}, dict(_VALID["evolve"], branch=5),
        "branch must be one of 1, -1, got 5",
    ),
    "evolve-oracle-branch-five": ("evolve", ("branch",), 5, None, "branch must be one of 1, -1, got 5"),
    "evolve-oracle-negative-quadrature-tolerance": (
        "evolve", ("quadrature",), {"tolerance": -1}, None, "tolerance must be positive"
    ),
    # the engine that compares with the closed form starts in its branch spinor, not in initial_state
    "evolve-closed-form-oracle-keys": (
        "evolve", ("propagation",), {"theta": -1, "method": "euler"}, dict(_EVOLVE_BOTH, initial_state=7),
        "unknown key 'propagation.method'",
    ),
    "evolve-closed-form-initial-state-seven": (
        "evolve", ("initial_state",), 7, _EVOLVE_BOTH, "initial_state must be an integer in 0..2, got 7"
    ),
    "evolve-closed-form-negative-theta": (
        "evolve", ("propagation", "theta"), -1, _EVOLVE_BOTH, "theta must be positive"
    ),
    "evolve-closed-form-method-euler": (
        "evolve", ("propagation", "method"), "euler", _EVOLVE_BOTH, "unknown key 'propagation.method'"
    ),
    # a coupling whose square overflows: the params reject gamma before any model is built
    "tm-ado-gamma-squared-overflows": (
        "transition-matrix", ("params", "gamma"), [1e160, 0.4, 0.5], None, _GAMMA_OVERFLOWS
    ),
    "tm-do-gamma-squared-overflows": (
        "transition-matrix", ("params",), {"gamma": [1e160, 0.4], "epsilon": [0.0, 1.0]},
        dict(_VALID["transition-matrix"], model="do"), _GAMMA_OVERFLOWS,
    ),
    "evolve-ado-gamma-squared-overflows": (
        "evolve", ("params", "gamma"), [1e160, 0.4, 0.5], dict(_VALID["evolve"], model="ado", params=_ADO),
        _GAMMA_OVERFLOWS,
    ),
    "flow-gamma-squared-overflows": (
        "spectral-flow", ("params", "gamma"), [1e160, 0.5, 0.7], None, _GAMMA_OVERFLOWS
    ),
    "ekz-gamma-squared-overflows": (
        "verify-ekz", ("params", "gamma"), [1e160, 0.4, 0.5, 0.2], None, _GAMMA_OVERFLOWS
    ),
    "cf-omega-grid-gamma-squared-overflows": (
        "closed-form", ("params", "gamma"), [1e160, 0.4, 0.5], None, _GAMMA_OVERFLOWS
    ),
    "cf-t-grid-gamma-squared-overflows": (
        "closed-form", ("params", "gamma"), [1e160, 0.4, 0.5], _CF_TIME, _GAMMA_OVERFLOWS
    ),
    "lzp-oracle-gamma-squared-overflows": (
        "lz-probability", ("sweep", "points"), [[1e160, 0.4, 0.5]], None, _GAMMA_OVERFLOWS
    ),
    "lzp-formula-only-gamma-squared-overflows": (
        "lz-probability", ("sweep", "points"), [[1e160, 0.4, 0.5]],
        dict(_VALID["lz-probability"], oracle=False), _GAMMA_OVERFLOWS,
    ),
    # mutually exclusive keys
    "cf-omega-grid-and-t-grid": (
        "closed-form", ("t_grid",), _CF_TIME["t_grid"], None, "exactly one of 'omega_grid' and 't_grid'"
    ),
    "lzp-points-and-gamma-lists": (
        "lz-probability", ("sweep",),
        {"points": [[0.3, 0.4, 0.5]], "gamma0": [0.3], "gamma1": [0.4], "gamma2": [0.5]}, None,
        "sweep needs 'points' or gamma0/1/2 lists, got points, gamma0",
    ),
}


@pytest.mark.parametrize("case", [
    # an overflowing coupling is rejected by name, with no numpy warning on the way
    pytest.param(case, marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
    if case.endswith("gamma-squared-overflows") else case
    for case in sorted(_CONFIG_ERRORS)
])
def test_rejected_config_exits_three_without_traceback(tmp_path, capsys, case):
    # each case must fail on its own key: the config error prefix alone would pass a
    # case that fails on another key first
    command, path, value, base, fragment = _CONFIG_ERRORS[case]
    cfg = _write(tmp_path, "bad.json", _mutated(command, path, value, base))
    assert _run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert fragment in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("max_doublings", 6), ("taper_fraction", 0.1)])
def test_retired_quadrature_keys_exit_three_naming_the_key(tmp_path, capsys, key, value):
    # the doubling count and the taper are fixed by the library, even at their old defaults
    cfg = _write(tmp_path, "bad.json", _mutated("closed-form", ("quadrature", key), value, _CF_TIME))
    assert _run(["closed-form", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith(f"config error: unknown key 'quadrature.{key}'")


@pytest.mark.parametrize("literal", ["-Infinity", "1e400"])
def test_non_finite_number_literal_exits_three(tmp_path, capsys, literal):
    path = tmp_path / "bad.json"
    text = json.dumps(_VALID["transition-matrix"]).replace('"T": 5.0', f'"T": {literal}')
    path.write_text(text, encoding="utf-8")
    assert _run(["transition-matrix", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"config error: config numbers must be finite, got {literal}\n"


def _entries(obj, prefix=()):
    """Paths of every entry of a JSON value, blocks and list items included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _entries(value, prefix + (key,))


# the default horizon (T = 200) would make one propagation take seconds
_KEEP = {("T",)}
_FUZZ_VALUES = [_DELETE, "x", [1.0], {"k": 1}, None, True, -1, 0, 2.7]
# the boolean keys that the "string boolean" mutation sets to "false" or "true"
_BOOLEAN_KEYS = [("lz-probability", ("oracle",))] + [
    (command, ("propagation", "verify")) for command in _VALID if "propagation" in _VALID[command]
]


def _misspelt(command, path, index):
    """The command's valid config with letter `index` of the key at `path` doubled."""
    value = _VALID[command]
    for key in path:
        value = value[key]
    key = path[-1]
    renamed = path[:-1] + (key[: index + 1] + key[index:],)
    return _mutated(command, renamed, value, base=_mutated(command, path, _DELETE))


@settings(max_examples=180, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_with_a_documented_code(data):
    mutation = data.draw(st.sampled_from(["value", "misspelt key", "string boolean"]))
    if mutation == "string boolean":
        command, path = data.draw(st.sampled_from(_BOOLEAN_KEYS))
        cfg = _mutated(command, path, data.draw(st.sampled_from(["false", "true"])))
    elif mutation == "misspelt key":
        command = data.draw(st.sampled_from(sorted(_VALID)))
        keys = [path for path in _entries(_VALID[command]) if isinstance(path[-1], str)]
        path = data.draw(st.sampled_from(keys))
        cfg = _misspelt(command, path, data.draw(st.integers(0, len(path[-1]) - 1)))
    else:
        command = data.draw(st.sampled_from(sorted(_VALID)))
        path = data.draw(st.sampled_from(list(_entries(_VALID[command]))))
        value = data.draw(st.sampled_from(_FUZZ_VALUES[1:] if path in _KEEP else _FUZZ_VALUES))
        cfg = _mutated(command, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = _write(Path(tmp), "fuzz.json", cfg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = _run([command, "--config", cfg_path, "--out", str(Path(tmp) / "out")])
    # a misspelt key or a string boolean must never run on a default
    assert code in ((0, 1, 2, 3) if mutation == "value" else (3,))
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", ["spectral-flow", "verify-ekz"])
def test_stdout_and_out_file_carry_the_same_bytes(tmp_path, capsys, command):
    cfg = _write(tmp_path, "cfg.json", _VALID[command])
    out = tmp_path / "out"
    assert _run([command, "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _run([command, "--config", cfg]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def _readme_examples():
    """(### heading or None, JSON object) for every example in README's "Command line"."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    heading, decoder = None, json.JSONDecoder()
    for chunk in section.split("```"):
        if chunk.startswith("json\n"):
            body, pos = chunk[len("json"):], 0
            while body[pos:].strip():
                pos += len(body[pos:]) - len(body[pos:].lstrip())
                example, pos = decoder.raw_decode(body, pos)
                yield heading, example
        else:
            headings = [line[4:].strip() for line in chunk.splitlines() if line.startswith("### ")]
            heading = headings[-1] if headings else heading


def _undeclared(example, declaration, prefix=""):
    for key, value in example.items():
        if key not in declaration:
            yield prefix + key
            continue
        kind = declaration[key][0]
        if kind is cli._MODEL_PARAMS:
            kind = kind[example["model"]]
        if isinstance(kind, dict) and isinstance(value, dict):
            yield from _undeclared(value, kind, f"{prefix}{key}.")


def test_readme_examples_use_only_declared_keys():
    examples = list(_readme_examples())
    assert {heading for heading, _ in examples} >= set(cli.COMMANDS)
    for heading, example in examples:
        # the model blocks above the first heading belong to every command that takes that model
        commands = [heading] if heading else [
            name for name, (_, declaration) in cli.COMMANDS.items()
            if "model" in declaration and example["model"] in declaration["model"][0]
        ]
        assert commands, example
        for command in commands:
            assert list(_undeclared(example, cli.COMMANDS[command][1])) == [], (command, example)


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    # the quadrature is imported on first use, so commands that never integrate skip it
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, lzi.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
