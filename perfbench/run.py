"""Closed-loop benchmark of the lzi command line, in process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One caller in one process calls ``lzi.cli.main([...])`` with ``--out`` to a
file and ``LZI_THREADS=1``, one call after the other, and repeats whole
passes over the workload's calls until ``--seconds`` have elapsed.  Every
pass's output is checked: the first pass against independent references
(`checks`, `reference`), later passes for byte equality with the first.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and prints per-module self times and call counts
(`tracer`).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy, with per-call
times and check details, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import inputs
from tracer import Tracer

SETUP_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "key_op_s": "s",
    "points_per_s": "1/s",
}
PER_LAYER = (
    "cli.main.s",
    "propagator.transition_matrix.s",
    "propagator.evolve_operator.s",
    "propagator.evolve_operator.calls",
    "propagator.evolve_operator.at_T.s",
    "propagator.evolve_operator.at_2T.s",
    "propagator.population_trajectory.s",
    "ado.time_domain_wavefunction.s",
    "ado.time_domain_wavefunction.calls",
    "ado.EKZSolution.scalar.s",
    "ado.EKZSolution.scalar.calls",
    "ado.ekz_residual_check.s",
    "ado.zero_curvature_residual.s",
    "demkov_osherov.track_spectral_flow.s",
    "demkov_osherov.spectral_roots.s",
    "demkov_osherov.spectral_roots.calls",
    "gaudin.richardson_integral.s",
    "gaudin.richardson_integral.calls",
    "gaudin.kz_flatness_residual.s",
    "gaudin.verify_commuting.s",
    "spin.dot_coupling.s",
    "spin.dot_coupling.calls",
    "spin.embed.calls",
    "spin.commutator.calls",
    "trace.overhead_s",
)
# the calls whose time is `key_op_s` on each workload
KEY_OPS = {
    "oracle-transition": None,  # median over every transition-matrix call
    "closed-form-time": ("evolve/both",),
    "spectral-algebra": ("verify/integrals", "verify/ekz"),
}


def measure_setup(workload: str, seed: int) -> list:
    """Wall times of fresh interpreters that import lzi and build the inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(inputs.HERE / "inputs.py"), workload, str(seed)],
                       env=dict(os.environ, LZI_THREADS="1"), check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_pass(cli, ops: list, argvs: list, workdir: Path) -> dict:
    times, codes = {}, {}
    start = time.perf_counter()
    for op, argv in zip(ops, argvs):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an operation that raises counts as failed
            code = f"{type(exc).__name__}: {exc}"
        times[op.name] = time.perf_counter() - t0
        codes[op.name] = code
    wall = time.perf_counter() - start
    outputs = {}
    for op in ops:
        path = workdir / f"{op.stem}.out"
        outputs[op.name] = path.read_text(encoding="utf-8") if path.exists() else None
        path.unlink(missing_ok=True)
    return {"wall_s": wall, "times": times, "codes": codes, "outputs": outputs}


def end_to_end(workload: str, ops: list, passes: list, setup: list, rss_mb: float) -> dict:
    key = KEY_OPS[workload]
    if key is None:
        key_op = statistics.median(p["times"][op.name] for p in passes for op in ops)
    else:
        key_op = statistics.median(sum(p["times"][name] for name in key) for p in passes)
    counted = [op for op in ops if op.points]
    rates = [
        sum(op.points for op in counted) / sum(p["times"][op.name] for op in counted)
        for p in passes
    ]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": rss_mb,
        "key_op_s": key_op,
        "points_per_s": statistics.median(rates),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced: list, untraced: list) -> dict:
    out = {}
    for name in PER_LAYER[:-1]:
        if name.endswith(".calls"):
            value, unit = statistics.median_low(p["trace"].get(name, 0) for p in traced), "count"
        else:
            value, unit = statistics.median(p["trace"].get(name, 0.0) for p in traced), "s"
        out[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def check_passes(ops: list, passes: list) -> tuple:
    """(failed calls, check errors) over every pass; a failed call's output is not checked."""
    failures, errors = [], []
    first = {}
    for p in passes:
        for op in ops:
            if p["codes"][op.name] != op.expect_rc:
                failures.append(f"{op.name}: exit {p['codes'][op.name]!r}, expected {op.expect_rc}")
                continue
            text = p["outputs"][op.name]
            if op.name not in first:
                first[op.name] = text
                try:
                    errors.extend(checks.check_op(op, text))
                except Exception as exc:  # malformed output fails its check
                    errors.append(f"{op.name}: output not readable ({type(exc).__name__}: {exc})")
            elif text != first[op.name]:
                errors.append(f"{op.name}: output differs between passes")
    return failures, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (inputs.ROOT / "src" / "lzi" / "__init__.py").is_file():
        print(f"error: no lzi sources under {inputs.ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ["LZI_THREADS"] = "1"
    inputs.OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=inputs.OUT_DIR))
    try:
        cli, ops = inputs.prepare(args.workload, args.seed, workdir)
        argvs = [op.argv(workdir) for op in ops]
        passes, traced = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cli, ops, argvs, workdir))
            if args.trace:
                with Tracer() as tracer:
                    traced.append(run_pass(cli, ops, argvs, workdir))
                traced[-1]["trace"] = tracer.snapshot()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures, errors = check_passes(ops, passes + traced)
        if args.workload == "oracle-transition":
            errors.extend(checks.check_determinism(cli, workdir, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(traced, passes) if args.trace else end_to_end(
        args.workload, ops, passes, setup, rss_mb)
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(passes + traced),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  failures=failures, errors=errors, setup_samples_s=setup,
                  calls={op.name: {"s": [p["times"][op.name] for p in passes],
                                   "meta": {k: v for k, v in op.meta.items() if k != "params"}}
                         for op in ops},
                  passes_s=[p["wall_s"] for p in passes],
                  traced_passes=[dict(wall_s=p["wall_s"], **p["trace"]) for p in traced])
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (inputs.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    for message in failures:
        print(f"CALL FAILED {message}")
    for message in errors:
        print(f"CHECK FAILED {message}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']!r} {metric['unit']}")
    print(f"attempted: {result['attempted']}, failed: {result['failed']}, correct: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
