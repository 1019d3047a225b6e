"""Benchmark of the `cavityfb` CLI, driven in-process from one closed-loop client.

One op is one `cavityfeedback.cli.main` call on a generated `--config` file,
writing its CSV and sidecar into a scratch directory; the next op starts only
after the previous one returned.  Every op's outputs are checked: exit code,
sidecar invariants, the library's closed forms, and byte identity with the
first run of the same config.

    python3 perfbench/run.py --workload strobo-sequence --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the run reports the end-to-end metrics of an untraced run.
With --trace 1 it alternates untraced and traced ops and reports per-layer
metrics from spans recorded around the library's entry points; the spans are
written to .bench_out/traces/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The package is imported from the checkout's `src/`; the benchmark sets no
thread variables, so BLAS runs with whatever the environment gives it.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
CLIENT_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
MIN_TIMED_OPS = 11  # op_s_tail needs ten samples beyond it
TAIL_BEYOND = 10
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "THREADS",
)

# Fresh interpreter -> import cavityfeedback.cli -> first op's config written.
# It prints its perf_counter reading, which shares CLOCK_MONOTONIC with the parent.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import cavityfeedback.cli
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.write(sys.argv[3])
print(time.perf_counter(), cavityfeedback.cli.__file__)
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _import_cli():
    if not (SRC / "cavityfeedback" / "cli.py").is_file():
        raise BenchError(f"no cavityfeedback package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavityfeedback.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"cavityfeedback imported from {cli.__file__}, not from {SRC}")
    return cli


def _closed_forms():
    from cavityfeedback.continuous import (
        ContinuousParams,
        cat_fidelity_analytic,
        fock_fidelity_analytic,
    )
    from cavityfeedback.fock import CatParity
    from cavityfeedback.strobo import p_ee_analytic

    return SimpleNamespace(
        CatParity=CatParity,
        ContinuousParams=ContinuousParams,
        cat_fidelity_analytic=cat_fidelity_analytic,
        fock_fidelity_analytic=fock_fidelity_analytic,
        p_ee_analytic=p_ee_analytic,
    )


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "client_cpus": CLIENT_CPUS,
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
    }


class OpRunner:
    """Runs ops of one pool and checks every output it produces."""

    def __init__(self, cli, pool, workdir: Path):
        self.cli = cli
        self.pool = pool
        self.lib = _closed_forms()
        self.argv, self.outputs = [], []
        for k, op in enumerate(pool):
            cfg_path = workdir / f"op{k}.config.json"
            cfg_path.write_text(json.dumps(op.config), encoding="utf-8")
            out = workdir / f"op{k}.csv"
            self.argv.append([op.command, "--config", str(cfg_path), "--out", str(out)])
            self.outputs.append((out, out.with_suffix(".json")))
        self.reference = [None] * len(pool)
        self.attempted = 0
        self.failed_ops = set()  # sequence numbers of failed ops
        self.problems = []

    def run(self, k: int, call=None):
        """One op; returns (wall seconds, CSV rows, bytes written)."""
        call = call or self.cli.main
        start = perf_counter()
        rc = call(self.argv[k])
        wall = perf_counter() - start
        self.attempted += 1
        if rc != 0:
            self.fail(k, f"exit code {rc}")
            return wall, 0, 0
        csv_path, sidecar_path = self.outputs[k]
        outputs = (csv_path.read_bytes(), sidecar_path.read_bytes())
        if self.reference[k] is None:
            self.reference[k] = outputs
            problems = workloads.check_outputs(self.pool[k], *outputs, self.lib)
            if problems:
                self.fail(k, "; ".join(problems))
        elif outputs != self.reference[k]:
            self.fail(k, "outputs differ from the first run of the same config")
        return wall, outputs[0].count(b"\n") - 1, len(outputs[0]) + len(outputs[1])

    def fail(self, k, why):
        """Mark the op run last, on config k, as failed."""
        self.failed_ops.add(self.attempted)
        self.problems.append(f"op {k} ({self.pool[k].command}): {why}")


def pin_client(turn):
    """Pin the client thread to CPU number `turn` of its allowed set, or free it on None.

    Each vCPU of a shared host runs as fast as its neighbours let it, and a
    single busy thread tends to stay on the vCPU it started on.  Turning the
    client over the allowed CPUs op by op makes every run sample all of them,
    instead of hinging on where the scheduler happened to leave the process.
    Only the calling thread is pinned; BLAS worker threads stay free.
    """
    if not hasattr(os, "sched_setaffinity") or len(CLIENT_CPUS) < 2:
        return
    os.sched_setaffinity(0, CLIENT_CPUS if turn is None else {CLIENT_CPUS[turn % len(CLIENT_CPUS)]})


def measure_setup(workdir: Path, op) -> float:
    """Median time from spawning an interpreter to its first op being ready."""
    samples = []
    for i in range(SETUP_REPEATS):
        cfg_path = workdir / f"setup{i}.config.json"
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(cfg_path), json.dumps(op.config)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        ready, origin = proc.stdout.split()
        if Path(origin).resolve().parent.parent != SRC:
            raise BenchError(f"set-up interpreter imported {origin}")
        samples.append(float(ready) - start)
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: OpRunner, workdir: Path, seconds: float) -> dict:
    setup_s = measure_setup(workdir, runner.pool[0])
    runner.run(0)  # warm-up: lazy imports and first-call set-up finish here
    walls = []
    cpu0 = os.times()
    start = perf_counter()
    cycle = 0
    # whole cycles through the pool, so every run weighs the configs alike
    while perf_counter() - start < seconds or len(walls) < MIN_TIMED_OPS:
        for k in range(len(runner.pool)):
            pin_client(k + cycle)
            walls.append(runner.run(k)[0])
        cycle += 1
    elapsed = perf_counter() - start
    pin_client(None)
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)

    ordered = sorted(walls)
    n = len(ordered)
    tail = ordered[n - TAIL_BEYOND - 1]
    print(
        f"op_s_tail is percentile {100.0 * (n - TAIL_BEYOND) / n:.1f} "
        f"of {n} timed ops ({TAIL_BEYOND} beyond it)"
    )
    return {
        "op_s_p50": _metric(statistics.median(walls), "s"),
        "op_s_tail": _metric(tail, "s"),
        "ops_per_s": _metric(n / elapsed, "1/s"),
        "cpu_s_per_op": _metric(cpu / n, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def per_layer(runner: OpRunner, cli, seconds: float, trace_path: Path, env: dict) -> dict:
    tracer = tracing.Tracer(cli)
    runner.run(0)
    profiles, untraced = [], []
    signature = {}
    start = perf_counter()
    cycle = 0
    # at least two whole cycles, so each config's counts are compared once
    while perf_counter() - start < seconds or cycle < 2:
        for k, op in enumerate(runner.pool):
            pin_client(k + cycle)  # the twins share a CPU
            # the untraced twin runs first on odd cycles and last on even ones
            if cycle % 2:
                untraced.append(runner.run(k)[0])
            first = len(tracer.spans)
            op_id = len(profiles)
            wall, n_rows, n_bytes = runner.run(k, lambda argv: tracer.call(op_id, cli.main, argv))
            prof = tracing.op_profile(tracer.spans, first)
            prof.update(wall=wall, rows=n_rows, bytes=n_bytes, work=workloads.config_work(op))
            profiles.append(prof)
            counts = sorted((key, v) for key, v in prof["counts"].items() if not key.endswith(".s"))
            sig = (prof["spans"], n_rows, n_bytes, counts)
            if signature.setdefault(k, sig) != sig:
                runner.fail(k, "traced work counts differ between repeats of the config")
            if not cycle % 2:
                untraced.append(runner.run(k)[0])
        cycle += 1
    pin_client(None)
    tracer.write(trace_path, {"environment": env, "pool": [vars(op) for op in runner.pool]})

    n = len(profiles)

    def mean(get):
        return sum(get(p) for p in profiles) / n

    def self_s(layer):
        return mean(lambda p: p["self_s"].get(layer, 0.0))

    def busy_s(layer):
        return mean(lambda p: p["busy_s"].get(layer, 0.0))

    def count(key):
        return mean(lambda p: p["counts"].get(key, 0.0))

    def per_unit(total, units, scale):
        return total / units * scale if units else 0.0

    periods = mean(lambda p: p["work"]["strobo.periods"])
    points = mean(lambda p: p["work"]["wigner.grid_points"])
    rk_steps = mean(lambda p: p["work"]["adiabatic.rk_steps"])
    rows_written = mean(lambda p: p["rows"])
    m = {}
    if "fock.validate" not in tracer.missing:
        m["fock.validations"] = _metric(count("fock.validate.calls"), "count/op")
        m["fock.validate_s"] = _metric(count("fock.validate.s"), "s/op")
    m["fock.self_s"] = _metric(self_s("fock"), "s/op")
    m["continuous.busy_s"] = _metric(busy_s("continuous"), "s/op")
    m["continuous.self_s"] = _metric(self_s("continuous"), "s/op")
    if "continuous.expm" not in tracer.missing:
        expm_calls = count("continuous.expm.calls")
        m["continuous.expm_calls"] = _metric(expm_calls, "count/op")
        m["continuous.expm_s"] = _metric(count("continuous.expm.s"), "s/op")
        m["continuous.useful_expm_share"] = _metric(
            per_unit(count("continuous.useful_bands"), expm_calls, 1.0), "frac"
        )
    m["continuous.states_out"] = _metric(count("continuous.states_out"), "count/op")
    m["strobo.busy_s"] = _metric(busy_s("strobo"), "s/op")
    m["strobo.self_s"] = _metric(self_s("strobo"), "s/op")
    m["strobo.periods"] = _metric(periods, "count/op")
    m["strobo.us_per_period"] = _metric(per_unit(busy_s("strobo"), periods, 1e6), "us")
    m["wigner.busy_s"] = _metric(busy_s("wigner"), "s/op")
    m["wigner.self_s"] = _metric(self_s("wigner"), "s/op")
    m["wigner.grid_points"] = _metric(points, "count/op")
    m["wigner.ns_per_point"] = _metric(per_unit(busy_s("wigner"), points, 1e9), "ns")
    m["cli.self_s"] = _metric(self_s("cli"), "s/op")
    m["cli.rows_written"] = _metric(rows_written, "rows/op")
    m["cli.bytes_written"] = _metric(mean(lambda p: p["bytes"]), "B/op")
    m["cli.us_per_row"] = _metric(per_unit(self_s("cli"), rows_written, 1e6), "us")
    m["adiabatic.busy_s"] = _metric(busy_s("adiabatic"), "s/op")
    m["adiabatic.self_s"] = _metric(self_s("adiabatic"), "s/op")
    m["adiabatic.rk_steps"] = _metric(rk_steps, "count/op")
    m["adiabatic.us_per_rk_step"] = _metric(per_unit(busy_s("adiabatic"), rk_steps, 1e6), "us")
    m["trace.overhead_frac"] = _metric(sum(p["wall"] for p in profiles) / sum(untraced) - 1.0, "frac")
    m["trace.op_s"] = _metric(mean(lambda p: p["wall"]), "s/op")

    root = mean(lambda p: p["busy_s"].get("cli", 0.0))
    print(f"traced ops: {n}; self time per layer, share of the cli.main span ({root:.4f} s/op):")
    for layer in tracing.LAYERS:
        print(f"  {layer:<11} {self_s(layer):.6f} s/op  {self_s(layer) / root:7.2%}")
    accounted = sum(self_s(layer) for layer in tracing.LAYERS) / root
    print(f"  {'sum':<11} {accounted:.2%}")
    if abs(accounted - 1.0) > 1e-6:
        runner.problems.append(f"layer self times account for {accounted:.4%} of the op span")
    for name in tracer.missing:
        print(f"hook {name} not found in the library; its metrics are missing")
    return m


def run_workload(args) -> int:
    cli = _import_cli()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    pool = workloads.make_pool(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        runner = OpRunner(cli, pool, workdir)
        if args.trace:
            trace_path = OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics = per_layer(runner, cli, args.seconds, trace_path, env)
        else:
            metrics = end_to_end(runner, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems:
        print(f"FAILED {problem}")
    failed = len(runner.failed_ops)
    print(f"fail_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} ops)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after another."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
