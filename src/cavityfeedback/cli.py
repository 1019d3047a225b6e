"""Batch command-line front end emitting figure-reproduction data files.

Each subcommand resolves its configuration from built-in defaults, an
optional JSON config file and explicit command-line flags (flags win),
runs the requested computation, and writes a CSV data file plus a JSON
sidecar carrying the fully resolved config, the library version and the
pass/fail summary of the numerical self-checks executed during the run.

Outputs are deterministic: no wall clock, no randomness, fixed float
formatting.  Exit codes: 0 success, 2 config validation failure,
3 numerical invariant failure, 4 truncation failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _blas
from .adiabatic import adiabaticity_report, integrate_crossing, standard_pulses
from .continuous import (
    ContinuousParams,
    cat_fidelity_analytic,
    evolve_continuous,
    fidelity_curve,
    fock_fidelity_analytic,
)
from .errors import (
    CavityFeedbackError,
    ConfigError,
    GridTooCoarseError,
    NumericalInvariantError,
    StepTooCoarseError,
    TruncationError,
)
from .fock import (
    CatParity,
    DensityMatrix,
    FockDim,
    cat_state,
    coherent_state,
    fock_superposition,
    parity_expectation,
)
from .qubits import QubitSpec, min_fidelity, optimal_n, threshold_eta
from .strobo import StroboParams, analytic_stationary_state, evolve_strobo, p_ee_analytic, run_sequence
from .wigner import default_cartesian_grid, fringe_visibility, wigner_function

_FIG7_SETS = (
    (np.pi / 6, 0.02),
    (np.pi / 2, 0.02),
    (np.pi / 2, 0.2),
    (np.pi / 6, 0.2),
    (0.0, 0.02),
)

_DEFAULTS = {
    "fidelity-cat": {
        "alpha2": 5.0,
        "parity": "odd",
        "eta": [0.0, 0.25, 0.5, 0.75, 1.0],
        "gamma_t": 2.0,
        "steps": 80,
        "dim": 63,
    },
    "fidelity-fock": {
        "n": 2,
        "m": 4,
        "alpha2": 1.0 / 3.0,
        "eta": [0.0, 0.25, 0.5, 0.75, 1.0],
        "gamma_t": 2.0,
        "steps": 80,
        "dim": 63,
    },
    "wigner": {
        "state": {"kind": "cat-odd", "alpha2": 5.0},
        "evolution": {"kind": "none"},
        "grid_extent": 4.5,
        "grid_points": 121,
        "dim": 63,
    },
    "strobo-pe": {
        "alpha2": 3.3,
        "eta": 1.0,
        "sets": [[float(mu), float(gt)] for mu, gt in _FIG7_SETS],
        "gamma_t": 2.0,
        "dim": 31,
    },
    "qubit-protect": {
        "eta": 0.5,
        "gamma_t": 2.0,
        "steps": 80,
    },
    "adiabatic": {
        "areas": [2.0, 20.0, 50.0, 100.0, 200.0],
        "state": {"kind": "coherent", "alpha2": 3.3},
        "steps": 4000,
        "dim": 31,
        "n_bar": 3.3,
        "gamma": 0.005,
        "gamma_e": 0.05,
    },
}


def _number(key, val) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(key, f"expected a number, got {val!r}")
    return float(val)


def _integer(key, val) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(key, f"expected an integer, got {val!r}")
    return val


def _require(cfg, key, kind, command):
    if key not in cfg:
        raise ConfigError(key, f"missing for {command}")
    return (_number if kind is float else _integer)(key, cfg[key])


def _check(name, value, tolerance):
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(abs(value) <= tolerance),
    }


def _build_state(cfg_state, dim: FockDim) -> DensityMatrix:
    kind = cfg_state.get("kind", "cat-odd")
    if kind == "vacuum":
        return DensityMatrix.from_state(fock_superposition([(0, 1.0)], dim))
    if kind in ("cat-odd", "cat-even"):
        alpha2 = _number("state.alpha2", cfg_state.get("alpha2", 5.0))
        if not alpha2 > 0:
            raise ConfigError("state.alpha2", "must be positive for a cat state")
        parity = CatParity.ODD if kind == "cat-odd" else CatParity.EVEN
        return DensityMatrix.from_state(cat_state(np.sqrt(alpha2), parity, dim))
    if kind == "coherent":
        alpha2 = _number("state.alpha2", cfg_state.get("alpha2", 5.0))
        if not alpha2 >= 0:
            raise ConfigError("state.alpha2", "must be >= 0 for a coherent state")
        return DensityMatrix.from_state(coherent_state(np.sqrt(alpha2), dim))
    if kind == "fock":
        terms = cfg_state.get("terms")
        if not terms or not all(isinstance(t, list) and len(t) == 3 for t in terms):
            raise ConfigError("state.terms", "fock state needs [[n, re, im], ...]")
        pairs = []
        for n, re, im in terms:
            if not 0 <= _integer("state.terms", n) <= dim.n_max:
                raise ConfigError("state.terms", f"Fock index {n} outside [0, {dim.n_max}]")
            pairs.append((n, complex(_number("state.terms", re), _number("state.terms", im))))
        return DensityMatrix.from_state(fock_superposition(pairs, dim))
    raise ConfigError("state.kind", f"unknown state kind {kind!r}")


def _eta_list(cfg, command):
    etas = cfg["eta"]
    if not isinstance(etas, list):
        etas = [etas]
    etas = [_number("eta", e) for e in etas]
    for e in etas:
        if not 0.0 <= e <= 1.0:
            raise ConfigError("eta", f"value {e} outside [0, 1]")
    if not etas:
        raise ConfigError("eta", f"empty list for {command}")
    return etas


def _time_grid(cfg):
    gt_max = _require(cfg, "gamma_t", float, "curve command")
    if gt_max < 0:
        raise ConfigError("gamma_t", "must be >= 0")
    steps = _require(cfg, "steps", int, "curve command")
    if steps < 1:
        raise ConfigError("steps", "must be >= 1")
    if gt_max == 0.0:
        return np.zeros(1)
    return np.linspace(0.0, gt_max, steps + 1)


def cmd_fidelity_cat(cfg):
    """Cat fidelity curves, one column per detector efficiency.

    The `trace_conservation` check reports a margin, not a second gate: the
    band core raises NumericalInvariantError at a trace drift above 1e-10,
    so a run that reaches the check always passes its 1e-9 tolerance.
    """
    alpha2 = _require(cfg, "alpha2", float, "fidelity-cat")
    if alpha2 <= 0:
        raise ConfigError("alpha2", "must be positive")
    parity = cfg.get("parity")
    if not isinstance(parity, str) or parity not in ("odd", "even"):
        raise ConfigError("parity", "must be 'odd' or 'even'")
    parity = CatParity.ODD if parity == "odd" else CatParity.EVEN
    etas = _eta_list(cfg, "fidelity-cat")
    times = _time_grid(cfg)
    dim = FockDim(_require(cfg, "dim", int, "fidelity-cat"))

    rho0 = DensityMatrix.from_state(cat_state(np.sqrt(alpha2), parity, dim))
    columns = {}
    worst_trace = 0.0
    for eta in etas:
        curve = fidelity_curve(rho0, ContinuousParams(1.0, eta), times)
        columns[eta] = curve.fidelity
        worst_trace = max(worst_trace, curve.margins.trace_drift)
    checks = [_check("trace_conservation", worst_trace, 1e-9)]
    if 0.0 in etas:
        dev = max(
            abs(f - cat_fidelity_analytic(alpha2, parity, 1.0, t))
            for f, t in zip(columns[0.0], times)
        )
        checks.append(_check("no_feedback_column_vs_closed_form", dev, 1e-6))
    header = ["gamma_t"] + [f"F_eta={eta:g}" for eta in etas]
    rows = np.column_stack([times] + [columns[eta] for eta in etas])
    return header, rows, checks, {}


def cmd_fidelity_fock(cfg):
    n = _require(cfg, "n", int, "fidelity-fock")
    m = _require(cfg, "m", int, "fidelity-fock")
    if not 0 <= n < m:
        raise ConfigError("n", "need 0 <= n < m")
    alpha2 = _require(cfg, "alpha2", float, "fidelity-fock")
    if not 0.0 < alpha2 < 1.0:
        raise ConfigError("alpha2", "weight of |n> must lie strictly in (0, 1)")
    etas = _eta_list(cfg, "fidelity-fock")
    times = _time_grid(cfg)
    dim = FockDim(_require(cfg, "dim", int, "fidelity-fock"))
    if m > dim.n_max:
        raise ConfigError("m", f"exceeds dim = {dim.n_max}")

    beta2 = 1.0 - alpha2
    state = fock_superposition([(n, np.sqrt(alpha2)), (m, np.sqrt(beta2))], dim)
    rho0 = DensityMatrix.from_state(state)
    header, columns = ["gamma_t"], [times]
    worst_dev = 0.0
    for eta in etas:
        params = ContinuousParams(1.0, eta)
        numeric = fidelity_curve(rho0, params, times).fidelity
        analytic = [fock_fidelity_analytic(alpha2, beta2, n, m, params, t) for t in times]
        worst_dev = max(worst_dev, max(abs(a - b) for a, b in zip(numeric, analytic)))
        header += [f"F_num_eta={eta:g}", f"F_ana_eta={eta:g}"]
        columns += [numeric, analytic]
    checks = [_check("numeric_vs_analytic", worst_dev, 1e-6)]
    return header, np.column_stack(columns), checks, {}


def cmd_wigner(cfg):
    dim = FockDim(_require(cfg, "dim", int, "wigner"))
    state_cfg = cfg.get("state")
    if not isinstance(state_cfg, dict):
        raise ConfigError("state", "must be a mapping with a 'kind'")
    rho = _build_state(state_cfg, dim)

    evo = cfg.get("evolution", {"kind": "none"})
    if not isinstance(evo, dict):
        raise ConfigError("evolution", "must be a mapping with a 'kind'")
    kind = evo.get("kind", "none")
    if kind == "continuous":
        eta = _number("evolution.eta", evo.get("eta", 1.0))
        gt = _number("evolution.gamma_t", evo.get("gamma_t", 0.0))
        if not 0.0 <= gt < np.inf:
            raise ConfigError("evolution.gamma_t", f"must be a finite number >= 0, got {gt!r}")
        rho = evolve_continuous(rho, ContinuousParams(1.0, eta), gt)
    elif kind == "strobo":
        params = StroboParams(
            _number("evolution.eta", evo.get("eta", 1.0)),
            _number("evolution.mu", evo.get("mu", np.pi / 6)),
            _number("evolution.gamma_t_step", evo.get("gamma_t_step", 0.02)),
        )
        steps = _integer("evolution.steps", evo.get("steps", 0))
        if steps < 0:
            raise ConfigError("evolution.steps", "must be >= 0")
        rho = evolve_strobo(rho, params, steps).state
    elif kind != "none":
        raise ConfigError("evolution.kind", f"unknown evolution kind {kind!r}")

    extent = _require(cfg, "grid_extent", float, "wigner")
    points = _require(cfg, "grid_points", int, "wigner")
    if extent <= 0:
        raise ConfigError("grid_extent", "must be positive")
    if points < 2:
        raise ConfigError("grid_points", "must be >= 2")
    wg = wigner_function(rho, default_cartesian_grid(extent, points))

    checks = [_check("quadrature_normalisation", wg.integral - 1.0, 1e-3)]
    extras = {
        "source_digest": wg.source_digest,
        "integral": wg.integral,
    }
    if points % 2 == 1:
        centre = points // 2
        origin = wg.values[centre, centre]
        extras["origin_value"] = origin
        checks.append(
            _check(
                "origin_parity_identity",
                origin - (2.0 / np.pi) * parity_expectation(rho),
                1e-8,
            )
        )
        extras["fringe_visibility"] = fringe_visibility(wg)
    header = ["x", "y", "W"]
    xg, yg = np.meshgrid(wg.axis1, wg.axis2, indexing="ij")
    rows = np.column_stack([xg.ravel(), yg.ravel(), wg.values.ravel()])
    return header, rows, checks, extras


def cmd_strobo_pe(cfg):
    alpha2 = _require(cfg, "alpha2", float, "strobo-pe")
    if alpha2 <= 0:
        raise ConfigError("alpha2", "must be positive")
    eta = _require(cfg, "eta", float, "strobo-pe")
    if not 0.0 <= eta <= 1.0:
        raise ConfigError("eta", "must lie in [0, 1]")
    sets = cfg.get("sets")
    if not isinstance(sets, list) or not sets:
        raise ConfigError("sets", "need a non-empty list of [mu, gamma_T] pairs")
    gt_max = _require(cfg, "gamma_t", float, "strobo-pe")
    if gt_max <= 0:
        raise ConfigError("gamma_t", "must be positive")
    dim = FockDim(_require(cfg, "dim", int, "strobo-pe"))

    rho0 = DensityMatrix.from_state(cat_state(np.sqrt(alpha2), CatParity.ODD, dim))
    runs = []
    stationary = []
    worst_nofb = None
    for entry in sets:
        try:
            mu, gamma_T = float(entry[0]), float(entry[1])
        except (TypeError, ValueError, IndexError):
            raise ConfigError("sets", f"bad entry {entry!r}")
        if gamma_T <= 0:
            raise ConfigError("sets", "gamma_T must be positive")
        params = StroboParams(eta, mu, gamma_T)
        steps = int(round(gt_max / gamma_T)) + 1
        seq = run_sequence(rho0, params, steps)
        runs.append((mu, gamma_T, seq))
        stat = analytic_stationary_state(params, dim)
        stationary.append(float(np.real(stat.elements[1, 1])))
        if mu == 0.0:
            dev = max(
                abs(float(pe) - p_ee_analytic(alpha2, step * gamma_T))
                for step, pe in enumerate(seq.p_e)
            )
            worst_nofb = dev if worst_nofb is None else max(worst_nofb, dev)
    checks = []
    if worst_nofb is not None:
        checks.append(_check("no_feedback_vs_closed_form", worst_nofb, 1e-8))
    prob_dev = max(np.max(np.abs(seq.p_e + seq.p_g - 1.0)) for _, _, seq in runs)
    checks.append(_check("probability_normalisation", prob_dev, 1e-10))

    # the step column is stored as floats ("%.12g" writes them as integers);
    # cells past the end of a shorter set are masked and written blank
    n_rows = max(seq.p_e.size for _, _, seq in runs)
    steps = np.arange(n_rows, dtype=float)
    header = ["step"]
    rows = np.ma.masked_all((n_rows, 1 + 2 * len(runs)))
    rows[:, 0] = steps
    for i, (_, gamma_T, seq) in enumerate(runs):
        header += [f"gt_set{i}", f"pe_set{i}"]
        k = seq.p_e.size
        rows[:k, 2 * i + 1] = steps[:k] * gamma_T
        rows[:k, 2 * i + 2] = seq.p_e
    extras = {
        "sets": [[mu, gt] for mu, gt, _ in runs],
        "stationary_pe": stationary,
        "final_pe": [float(seq.p_e[-1]) for _, _, seq in runs],
    }
    return header, rows, checks, extras


def cmd_qubit_protect(cfg):
    eta = _require(cfg, "eta", float, "qubit-protect")
    if not 0.0 <= eta < 1.0:
        raise ConfigError("eta", "must lie in [0, 1)")
    times = _time_grid(cfg)
    n_opt = optimal_n(eta)
    n = _integer("n", cfg.get("n", n_opt))
    m = _integer("m", cfg.get("m", n_opt + 1))
    if n < 0 or m < 0 or n == m:
        raise ConfigError("n", "need distinct non-negative integers n, m")
    spec = QubitSpec(n, m)
    curve = [min_fidelity(spec, eta, t) for t in times]
    table_etas = [round(0.01 * k, 2) for k in range(100)]
    table = [[e, optimal_n(e)] for e in table_etas]
    thresh = threshold_eta()
    checks = [
        _check("f_min_at_zero", curve[0] - 1.0, 1e-12),
        _check("threshold_vs_closed_form", thresh - 2.0 * (np.sqrt(2.0) - 1.0), 1e-9),
    ]
    extras = {
        "n_opt": n_opt,
        "spec": [spec.n, spec.m],
        "threshold_eta": thresh,
        "n_opt_table": table,
    }
    header = ["gamma_t", "f_min"]
    rows = np.column_stack([times, curve])
    return header, rows, checks, extras


def cmd_adiabatic(cfg):
    areas = cfg.get("areas")
    if not isinstance(areas, list) or not areas:
        raise ConfigError("areas", "need a non-empty list of pulse areas")
    areas = [_number("areas", a) for a in areas]
    if any(a <= 0 for a in areas):
        raise ConfigError("areas", "pulse areas must be positive")
    steps = _require(cfg, "steps", int, "adiabatic")
    if steps < 2:
        raise ConfigError("steps", "must be >= 2")
    dim = FockDim(_require(cfg, "dim", int, "adiabatic"))
    state_cfg = cfg.get("state")
    if not isinstance(state_cfg, dict):
        raise ConfigError("state", "must be a mapping with a 'kind'")
    rho = _build_state(state_cfg, dim)

    rows = []
    for area in areas:
        pulses = standard_pulses(area, area, 1.0)
        _, fid, peak = integrate_crossing(rho, pulses, steps)
        rows.append([area, fid, peak])
    rows = np.array(rows)
    worst_range = max(-rows[:, 1:].min(), rows[:, 1:].max() - 1.0)
    checks = [_check("fidelities_and_populations_in_range", max(worst_range, 0.0), 1e-9)]

    n_bar = _require(cfg, "n_bar", float, "adiabatic")
    gamma = _require(cfg, "gamma", float, "adiabatic")
    gamma_e = _require(cfg, "gamma_e", float, "adiabatic")
    report = adiabaticity_report(standard_pulses(max(areas), max(areas), 1.0), n_bar, gamma, gamma_e)
    extras = {
        "timescale_report": [
            {"name": c.name, "ratio": c.ratio, "factor": c.factor, "status": c.status}
            for c in report.checks
        ],
    }
    header = ["area", "transfer_fidelity", "peak_excited_population"]
    return header, rows, checks, extras


# each command and the flags it reads besides --config and --out; a flag is
# named by the config key it sets, and "sets.mu" sets the mu of every set
_COMMANDS = {
    "fidelity-cat": (cmd_fidelity_cat, ("alpha2", "eta", "gamma_t", "steps", "dim")),
    "fidelity-fock": (cmd_fidelity_fock, ("alpha2", "eta", "gamma_t", "steps", "dim")),
    "wigner": (cmd_wigner, (
        "state.alpha2", "evolution.eta", "evolution.mu", "evolution.gamma_t", "evolution.steps",
        "dim", "grid_extent", "grid_points",
    )),
    "strobo-pe": (cmd_strobo_pe, ("alpha2", "eta", "sets.mu", "gamma_t", "dim")),
    "qubit-protect": (cmd_qubit_protect, ("eta", "gamma_t", "steps")),
    "adiabatic": (cmd_adiabatic, ("state.alpha2", "steps", "dim")),
}
_FLAG_TYPES = {"eta": str, "steps": int, "dim": int, "grid_points": int}  # the rest are floats
_FLAG_HELP = {
    "eta": "one value, or a comma list on fidelity-cat and fidelity-fock",
    "dim": "Fock cutoff n_max",
}
_ETA_LISTS = ("fidelity-cat", "fidelity-fock")


def _csv_text(header, rows) -> str:
    """CSV text of a 2-D float table, every cell "%.12g", masked cells blank.

    A non-finite unmasked cell raises NumericalInvariantError.
    """
    data = np.ma.getdata(rows)
    mask = np.ma.getmaskarray(rows)
    bad = ~np.isfinite(data) & ~mask
    if bad.any():
        raise NumericalInvariantError(f"non-finite value {data[bad][0]!r} in output row")
    cells = list(map("%.12g".__mod__, data.ravel().tolist()))
    for k in np.flatnonzero(mask):
        cells[k] = ""
    lines = [",".join(header)]
    lines += map(",".join, zip(*[iter(cells)] * len(header)))
    return "\n".join(lines) + "\n"


def _write_outputs(out_path: Path, command: str, cfg: dict, header, rows, checks, extras):
    out_path.write_text(_csv_text(header, rows), encoding="utf-8", newline="\n")

    sidecar = {
        "command": command,
        "config": cfg,
        "library_version": __version__,
        "invariant_checks": checks,
        "all_invariants_passed": all(c["passed"] for c in checks),
        "extras": extras,
    }
    sidecar_path = out_path.with_suffix(".json")
    sidecar_path.write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
    return sidecar


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be an object")
    # a previous run's sidecar is itself a valid config carrier
    if "config" in obj and "command" in obj:
        inner = obj["config"]
        if not isinstance(inner, dict):
            raise ConfigError("config", "sidecar 'config' must be an object")
        return inner
    return obj


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Each subcommand accepts only the flags of `_COMMANDS`.  Every build leaves
    argparse reference cycles to the cyclic collector, so a parser built per
    `main` call grows the heap with the number of calls.
    """
    parser = argparse.ArgumentParser(
        prog="cavityfb",
        description="Cavity state protection: figure-reproduction data runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in (key.rpartition(".")[2] for key in keys):
            p.add_argument(
                "--" + flag.replace("_", "-"),
                dest=flag,
                type=_FLAG_TYPES.get(flag, float),
                help=_FLAG_HELP.get(flag),
            )
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, required=True, help="output CSV path")
    return parser


def _resolve(command: str, args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS[command]))  # deep copy of the defaults
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _COMMANDS[command][1]:
        section, _, flag = key.rpartition(".")
        val = getattr(args, flag)
        if val is None:
            continue
        if flag == "eta":
            val = [float(v) for v in val.split(",") if v.strip() != ""]
            if not val:
                raise ConfigError("eta", "empty value")
            if command not in _ETA_LISTS:
                if len(val) > 1:
                    raise ConfigError("eta", f"{command} takes a single value, got {args.eta!r}")
                val = val[0]
        if section == "sets":
            cfg["sets"] = [[val, gt] for _, gt in cfg["sets"]]
        elif section:
            cfg.setdefault(section, {})[flag] = val
        else:
            cfg[flag] = val
    return cfg


def _thread_cap():
    """Context that caps this process's OpenBLAS pools at $THREADS while it is open.

    A malformed or non-positive value is a config error.  Where no OpenBLAS
    pool is found the cap cannot be applied, which is said on stderr; results
    do not depend on it either way.  The continuous band core still runs on
    one thread inside the cap.
    """
    raw = os.environ.get("THREADS")
    if not raw:
        return contextlib.nullcontext()
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError("THREADS", f"expected a positive integer, got {raw!r}")
    if not _blas.pools():
        print(f"THREADS={count} not applied: no OpenBLAS pool was found", file=sys.stderr)
    return _blas.threads(count)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        out_path = Path(args.out)
        if out_path.suffix != ".csv":
            raise ConfigError("out", "output path must end in .csv")
        with _thread_cap():
            header, rows, checks, extras = _COMMANDS[args.command][0](cfg)
        sidecar = _write_outputs(out_path, args.command, cfg, header, rows, checks, extras)
        if not sidecar["all_invariants_passed"]:
            failed = [c["name"] for c in checks if not c["passed"]]
            print(f"invariant check failed: {', '.join(failed)}", file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return 4
    except (GridTooCoarseError, StepTooCoarseError, NumericalInvariantError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CavityFeedbackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
