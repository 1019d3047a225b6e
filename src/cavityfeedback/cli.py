"""Batch command-line front end emitting figure-reproduction data files.

Each subcommand resolves its configuration from built-in defaults, an
optional JSON config file and explicit command-line flags (flags win),
runs the requested computation, and writes a CSV data file plus a JSON
sidecar carrying the config as given, the library version and the
pass/fail summary of the numerical self-checks executed during the run.
Outputs are deterministic: no wall clock, no randomness, fixed float
formatting.  Exit codes: 0 success, 2 config validation failure,
3 numerical invariant failure, 4 truncation failure.  The family of the
error alone decides the code: `main` has one handler each for ValueError
(a config error), NumericalInvariantError and TruncationError, and a
ValueError of the library about an initial state reaches it as a
ConfigError naming the key that chose the state.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, errors  # called as errors.<name>, which perfbench's tracer leaves unwrapped
from .adiabatic import adiabaticity_report, integrate_crossing, standard_pulses
from .continuous import (
    ContinuousParams,
    cat_fidelity_analytic,
    evolve_continuous,
    fidelity_curve,
    fock_fidelity_analytic,
)
from .errors import ConfigError, NumericalInvariantError, TruncationError
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


class _Spec(NamedTuple):
    """The type and range of one config value: a number, an integer, a choice of `of`,
    "numbers" (a non-empty list of `of`, or one number), "rows" (a non-empty list of rows,
    one value per field of `of`; a flag sets the first field of every row) or a "section",
    a mapping whose "kind", the first of `of` by default, picks the keys it may hold."""

    type: str
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    of: object = None


class _Key(NamedTuple):
    spec: _Spec
    default: object = None  # None: required; a _Missing: worked out by the command
    flag: bool = False  # set by the flag of the key's own name


class _Missing(str):
    """The default of a key the command works out, named as the README shows it."""


def _range(spec) -> str:
    """The range or the choices of `spec`, as the help and the README key tables show them."""
    if spec.type == "choice":
        *first, last = map(repr, spec.of)
        return f"{', '.join(first)} or {last}"
    return errors.bounds_text(spec.lo, spec.hi, spec.lo_open, spec.hi_open)


def _value(spec, key, val):
    """`val` typed and in range; anything else raises ConfigError naming `key`."""
    if spec.type == "choice":
        if not isinstance(val, str) or val not in spec.of:
            raise ConfigError(key, f"must be {_range(spec)}")
        return val
    if spec.type == "section":
        if not isinstance(val, dict):
            raise ConfigError(key, "must be a mapping with a 'kind'")
        val = dict(val)
        kind = val.pop("kind", next(iter(spec.of)))
        kind = _value(_Spec("choice", of=tuple(spec.of)), f"{key}.kind", kind)
        return {"kind": kind, **_keys(spec.of[kind], val, f"{key}.", f"for {key} kind {kind!r}")}
    if spec.type == "rows":
        if not (isinstance(val, list) and val and all(isinstance(r, list) and len(r) == len(spec.of)
                                                      for r in val)):
            raise ConfigError(key, f"need a non-empty list of [{', '.join(spec.of)}]")
        return [[_value(k.spec, key, v) for k, v in zip(spec.of.values(), row)] for row in val]
    if spec.type == "numbers":
        val = val if isinstance(val, list) else [val]
        if not val:
            raise ConfigError(key, "need a non-empty list of numbers")
        return [_value(spec.of, key, v) for v in val]
    return errors.check_number(key, val, spec.lo, spec.hi, lo_open=spec.lo_open, hi_open=spec.hi_open,
                               integer=spec.type == "integer")


def _keys(table, cfg, prefix, where) -> dict:
    """The typed value of every key of `table`; a key of `cfg` not in it is an error."""
    for name in cfg:
        if name not in table:
            raise ConfigError(prefix + name, f"not read {where}")
    typed = {}
    for name, k in table.items():  # a required key's default None fails its own check
        missing = name not in cfg and isinstance(k.default, _Missing)
        typed[name] = None if missing else _value(k.spec, prefix + name, cfg.get(name, k.default))
    return typed


# size bounds keep one run finite in time and memory
_MAX_DIM, _MAX_STEPS, _MAX_PERIODS = 127, 1000, 100_000
_UNIT, _NON_NEGATIVE = _Spec("number", 0.0, 1.0), _Spec("number", 0.0)
_POSITIVE, _DIM = _Spec("number", 0.0, lo_open=True), _Spec("integer", 1, _MAX_DIM)
_CURVE = {
    "eta": _Key(_Spec("numbers", of=_UNIT), [0.0, 0.25, 0.5, 0.75, 1.0], True),
    "gamma_t": _Key(_NON_NEGATIVE, 2.0, True),
    "steps": _Key(_Spec("integer", 1, _MAX_STEPS), 80, True),
    "dim": _Key(_DIM, 63, True),
}
_CAT = {"alpha2": _Key(_POSITIVE, 5.0, True)}
_TERMS = {"n": _Key(_Spec("integer", 0)), "re": _Key(_Spec("number")), "im": _Key(_Spec("number"))}
_STATE = _Spec("section", of={
    "cat-odd": _CAT,
    "cat-even": _CAT,
    "coherent": {"alpha2": _Key(_NON_NEGATIVE, 5.0, True)},
    "vacuum": {},
    "fock": {"terms": _Key(_Spec("rows", of=_TERMS))},
})
_EVOLUTION = _Spec("section", of={
    "none": {},
    "continuous": {"eta": _Key(_UNIT, 1.0, True), "gamma_t": _Key(_NON_NEGATIVE, 0.0, True)},
    "strobo": {
        "eta": _Key(_UNIT, 1.0, True),
        "mu": _Key(_NON_NEGATIVE, np.pi / 6, True),
        "gamma_t_step": _Key(_NON_NEGATIVE, 0.02),
        "steps": _Key(_Spec("integer", 0, _MAX_PERIODS), 0, True),
    },
})
_SETS = _Spec("rows", of={"mu": _Key(_NON_NEGATIVE, flag=True), "gamma_T": _Key(_POSITIVE)})
_PHOTONS = _Spec("integer", 0, 10**6)


def _check(name, value, tolerance):
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(abs(value) <= tolerance),
    }


def _build_state(state, dim: FockDim, prefix: str) -> DensityMatrix:
    """The initial state of a run from a `_STATE` section whose keys carry `prefix`.

    A ValueError of the library, such as an odd cat of vanishing amplitude or
    a basis too small for the state, is a config error naming the key.
    """
    kind = state["kind"]
    key = prefix + ("terms" if kind == "fock" else "alpha2")
    try:
        if kind == "vacuum":
            vec = fock_superposition([(0, 1.0)], dim)
        elif kind == "fock":
            vec = fock_superposition([(n, complex(re, im)) for n, re, im in state["terms"]], dim)
        elif kind == "coherent":
            vec = coherent_state(np.sqrt(state["alpha2"]), dim)
        else:
            parity = CatParity.ODD if kind == "cat-odd" else CatParity.EVEN
            vec = cat_state(np.sqrt(state["alpha2"]), parity, dim)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None
    return DensityMatrix.from_state(vec)


def _time_grid(cfg):
    if cfg["gamma_t"] == 0.0:
        return np.zeros(1)
    return np.linspace(0.0, cfg["gamma_t"], cfg["steps"] + 1)


def cmd_fidelity_cat(cfg):
    """Cat fidelity curves, one column per detector efficiency.

    The `trace_conservation` check reports a margin, not a second gate: the
    band core raises NumericalInvariantError at a trace drift above 1e-10,
    so a run that reaches the check always passes its 1e-9 tolerance.
    """
    alpha2, etas = cfg["alpha2"], cfg["eta"]
    parity = CatParity.ODD if cfg["parity"] == "odd" else CatParity.EVEN
    times = _time_grid(cfg)
    dim = FockDim(cfg["dim"])

    rho0 = _build_state({"kind": f"cat-{cfg['parity']}", "alpha2": alpha2}, dim, "")
    curves = {eta: fidelity_curve(rho0, ContinuousParams(1.0, eta), times) for eta in etas}
    checks = [_check("trace_conservation", max(c.margins.trace_drift for c in curves.values()), 1e-9)]
    if 0.0 in curves:
        dev = np.max(np.abs(curves[0.0].fidelity - cat_fidelity_analytic(alpha2, parity, 1.0, times)))
        checks.append(_check("no_feedback_column_vs_closed_form", dev, 1e-6))
    header = ["gamma_t"] + [f"F_eta={eta:g}" for eta in etas]
    rows = np.column_stack([times] + [curves[eta].fidelity for eta in etas])
    return header, rows, checks, {}


def cmd_fidelity_fock(cfg):
    n, m, alpha2 = cfg["n"], cfg["m"], cfg["alpha2"]
    if not n < m:
        raise ConfigError("n", "need 0 <= n < m")
    times = _time_grid(cfg)
    dim = FockDim(cfg["dim"])
    if m > dim.n_max:
        raise ConfigError("m", f"exceeds dim = {dim.n_max}")

    beta2 = 1.0 - alpha2
    terms = [[n, np.sqrt(alpha2), 0], [m, np.sqrt(beta2), 0]]
    rho0 = _build_state({"kind": "fock", "terms": terms}, dim, "")
    header, columns = ["gamma_t"], [times]
    worst_dev = 0.0
    for eta in cfg["eta"]:
        params = ContinuousParams(1.0, eta)
        numeric = fidelity_curve(rho0, params, times).fidelity
        analytic = fock_fidelity_analytic(alpha2, beta2, n, m, params, times)
        worst_dev = max(worst_dev, np.max(np.abs(numeric - analytic)))
        header += [f"F_num_eta={eta:g}", f"F_ana_eta={eta:g}"]
        columns += [numeric, analytic]
    checks = [_check("numeric_vs_analytic", worst_dev, 1e-6)]
    return header, np.column_stack(columns), checks, {}


def cmd_wigner(cfg):
    dim = FockDim(cfg["dim"])
    rho = _build_state(cfg["state"], dim, "state.")
    evo = cfg["evolution"]
    if evo["kind"] == "continuous":
        rho = evolve_continuous(rho, ContinuousParams(1.0, evo["eta"]), evo["gamma_t"])
    elif evo["kind"] == "strobo":
        params = StroboParams(evo["eta"], evo["mu"], evo["gamma_t_step"])
        rho = evolve_strobo(rho, params, evo["steps"]).state

    points = cfg["grid_points"]
    wg = wigner_function(rho, default_cartesian_grid(cfg["grid_extent"], points))

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
    alpha2, gt_max = cfg["alpha2"], cfg["gamma_t"]
    periods = max(gt_max / gamma_T for _, gamma_T in cfg["sets"])
    if not periods < _MAX_PERIODS:
        raise ConfigError("gamma_t", f"gamma_t / gamma_T is {periods:g} in a set, not below {_MAX_PERIODS}")
    dim = FockDim(cfg["dim"])

    rho0 = _build_state({"kind": "cat-odd", "alpha2": alpha2}, dim, "")
    runs = []
    stationary = []
    for mu, gamma_T in cfg["sets"]:
        params = StroboParams(cfg["eta"], mu, gamma_T)
        steps = int(round(gt_max / gamma_T)) + 1
        runs.append((mu, gamma_T, run_sequence(rho0, params, steps)))
        stat = analytic_stationary_state(params, dim)
        stationary.append(float(np.real(stat.elements[1, 1])))
    nofb = [np.max(np.abs(seq.p_e - p_ee_analytic(alpha2, np.arange(seq.p_e.size) * gamma_T)))
            for mu, gamma_T, seq in runs if mu == 0.0]
    checks = [_check("no_feedback_vs_closed_form", max(nofb), 1e-8)] if nofb else []
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
    eta = cfg["eta"]
    times = _time_grid(cfg)
    n_opt = optimal_n(eta)
    n = n_opt if cfg["n"] is None else cfg["n"]
    m = n_opt + 1 if cfg["m"] is None else cfg["m"]
    if n == m:
        raise ConfigError("n", "n and m must differ")
    spec = QubitSpec(n, m)
    curve = min_fidelity(spec, eta, times)
    table = [[e, optimal_n(e)] for e in (round(0.01 * k, 2) for k in range(100))]
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
    areas = cfg["areas"]
    dim = FockDim(cfg["dim"])
    rho = _build_state(cfg["state"], dim, "state.")

    rows = []
    for area in areas:
        pulses = standard_pulses(area, area, 1.0)
        _, fid, peak = integrate_crossing(rho, pulses, cfg["steps"])
        rows.append([area, fid, peak])
    rows = np.array(rows)
    worst_range = max(-rows[:, 1:].min(), rows[:, 1:].max() - 1.0)
    checks = [_check("fidelities_and_populations_in_range", max(worst_range, 0.0), 1e-9)]

    report = adiabaticity_report(
        standard_pulses(max(areas), max(areas), 1.0), cfg["n_bar"], cfg["gamma"], cfg["gamma_e"]
    )
    extras = {"timescale_report": [c._asdict() for c in report]}
    header = ["area", "transfer_fidelity", "peak_excited_population"]
    return header, rows, checks, extras


# each command's function and the table of every config key it reads
_COMMANDS = {
    "fidelity-cat": (cmd_fidelity_cat, {
        "alpha2": _Key(_POSITIVE, 5.0, True),
        "parity": _Key(_Spec("choice", of=("odd", "even")), "odd"),
        **_CURVE,
    }),
    "fidelity-fock": (cmd_fidelity_fock, {
        "n": _Key(_Spec("integer", 0), 2),
        "m": _Key(_Spec("integer", 1), 4),
        "alpha2": _Key(_Spec("number", 0.0, 1.0, True, True), 1.0 / 3.0, True),
        **_CURVE,
    }),
    "wigner": (cmd_wigner, {
        "state": _Key(_STATE, {"kind": "cat-odd", "alpha2": 5.0}),
        "evolution": _Key(_EVOLUTION, {"kind": "none"}),
        "dim": _Key(_DIM, 63, True),
        # |beta| of a state on 128 levels stays below 12
        "grid_extent": _Key(_Spec("number", 0.0, 100.0, lo_open=True), 4.5, True),
        "grid_points": _Key(_Spec("integer", 2, 501), 121, True),
    }),
    "strobo-pe": (cmd_strobo_pe, {
        "alpha2": _Key(_POSITIVE, 3.3, True),
        "eta": _Key(_UNIT, 1.0, True),
        # the five (mu, gamma_T) sets of Fig. 7; --mu sets every mu
        "sets": _Key(_SETS, [[np.pi / 6, 0.02], [np.pi / 2, 0.02], [np.pi / 2, 0.2], [np.pi / 6, 0.2],
                             [0.0, 0.02]]),
        "gamma_t": _Key(_POSITIVE, 2.0, True),
        "dim": _Key(_DIM, 31, True),
    }),
    "qubit-protect": (cmd_qubit_protect, {
        "eta": _Key(_Spec("number", 0.0, 1.0, hi_open=True), 0.5, True),
        **{key: _CURVE[key] for key in ("gamma_t", "steps")},
        "n": _Key(_PHOTONS, _Missing("n_opt")),
        "m": _Key(_PHOTONS, _Missing("n_opt + 1")),
    }),
    "adiabatic": (cmd_adiabatic, {
        "areas": _Key(_Spec("numbers", of=_POSITIVE), [2.0, 20.0, 50.0, 100.0, 200.0]),
        "state": _Key(_STATE, {"kind": "coherent", "alpha2": 3.3}),
        "steps": _Key(_Spec("integer", 2, _MAX_PERIODS), 4000, True),
        "dim": _Key(_DIM, 31, True),
        "n_bar": _Key(_POSITIVE, 3.3),
        "gamma": _Key(_POSITIVE, 0.005),
        "gamma_e": _Key(_POSITIVE, 0.05),
    }),
}


def _csv_text(header, rows) -> str:
    """CSV text of a 2-D float table, every cell "%.12g", masked cells blank.

    Each distinct bit pattern is formatted once, so -0.0 still writes "-0".
    A non-finite unmasked cell raises NumericalInvariantError.
    """
    data = np.asarray(np.ma.getdata(rows), dtype=np.float64)
    mask = np.ma.getmaskarray(rows)
    bad = ~np.isfinite(data) & ~mask
    if bad.any():
        raise NumericalInvariantError(f"non-finite value {data[bad][0]!r} in output row")
    bits, at = np.unique(data.ravel().view(np.int64), return_inverse=True)
    at[mask.ravel()] = len(bits)  # the blank cell, appended below
    texts = np.array([*map("%.12g".__mod__, bits.view(np.float64).tolist()), ""], dtype=object)
    cells = texts[at].tolist()
    lines = [",".join(header)]
    lines += map(",".join, zip(*[iter(cells)] * len(header)))
    return "\n".join(lines) + "\n"


def _write_outputs(out_path: Path, command: str, cfg: dict, header, rows, checks, extras):
    """Write the CSV and its strict-JSON sidecar; a NaN, an infinity or an unwritable path writes neither."""
    csv_text = _csv_text(header, rows)
    sidecar = {
        "command": command,
        "config": cfg,
        "library_version": __version__,
        "invariant_checks": checks,
        "all_invariants_passed": all(c["passed"] for c in checks),
        "extras": extras,
    }
    try:
        sidecar_text = json.dumps(sidecar, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalInvariantError(f"non-finite value in the sidecar: {exc}") from None
    csv_written = False
    try:
        out_path.write_text(csv_text, encoding="utf-8", newline="\n")
        csv_written = True
        out_path.with_suffix(".json").write_text(sidecar_text, encoding="utf-8", newline="\n")
    except OSError as exc:
        if csv_written:  # the CSV without its sidecar
            out_path.unlink()
        raise ConfigError("out", f"cannot write the outputs: {exc}") from None
    return sidecar


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be an object")
    # a previous run's sidecar is itself a valid config carrier
    if "config" in obj and "command" in obj:
        if obj["command"] != command:
            raise ConfigError("config", f"{path} is a sidecar of {obj['command']!r}, not of {command!r}")
        inner = obj["config"]
        if not isinstance(inner, dict):
            raise ConfigError("config", "sidecar 'config' must be an object")
        return inner
    return obj


def _flags(command) -> dict:
    """Flag name -> (dotted config key, spec) of every flag in the command's table."""
    flags = {}
    for key, k in _COMMANDS[command][1].items():
        groups = {"section": k.spec.of, "rows": {"": k.spec.of}}.get(k.spec.type, {})  # of nested keys
        nested = [(f"{key}.{name}", sub) for keys in groups.values() for name, sub in keys.items()]
        for dotted, entry in [(key, k), *nested]:
            if entry.flag:
                flags.setdefault(dotted.rpartition(".")[2], (dotted, entry.spec))
    return flags


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Each subcommand accepts only the flags of its table.  A flag's text is
    read by `_resolve`, so a malformed value is a config error naming the
    flag.  Every build leaves argparse reference cycles to the cyclic
    collector, so a parser built per `main` call grows the heap with the
    number of calls.
    """
    parser = argparse.ArgumentParser(
        prog="cavityfb",
        description="Cavity state protection: figure-reproduction data runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        for flag, (dotted, spec) in _flags(command).items():
            doc = f"{dotted}: {spec.type} {_range(spec)}"
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, help=doc)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, required=True, help="output CSV path")
    return parser


def _resolve(command: str, args) -> dict:
    """The run's config as given, defaults < --config file < flags, not yet checked."""
    table = _COMMANDS[command][1]
    defaults = {key: k.default for key, k in table.items() if not isinstance(k.default, _Missing)}
    cfg = json.loads(json.dumps(defaults))  # a deep copy
    if args.config:
        cfg.update(_load_config_file(args.config, command))
    for flag, (dotted, spec) in _flags(command).items():
        text = getattr(args, flag)
        if text is None:
            continue
        if "," in text and spec.type != "numbers":
            raise ConfigError(flag, f"{command} takes a single value, got {text!r}")
        what = "an integer" if spec.type == "integer" else "a number"
        try:
            value = [float(v) for v in text.split(",") if v.strip()] if spec.type == "numbers" else (
                int(text) if spec.type == "integer" else float(text))
        except ValueError:
            raise ConfigError(flag, f"expected {what}, got {text!r}") from None
        # a section or rows of the wrong shape are left for `_keys` to report
        key, _, name = dotted.partition(".")
        kind, held = table[key].spec.type, cfg[key]
        if not name:
            cfg[key] = value
        elif kind == "section" and isinstance(held, dict):
            held[name] = value
        elif kind == "rows" and isinstance(held, list):
            cfg[key] = [[value, *r[1:]] if isinstance(r, list) else r for r in held]
    return cfg


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        run, table = _COMMANDS[args.command]
        values = _keys(table, cfg, "", f"by {args.command}")
        out_path = Path(args.out)
        if out_path.suffix != ".csv":
            raise ConfigError("out", "output path must end in .csv")
        header, rows, checks, extras = run(values)
        sidecar = _write_outputs(out_path, args.command, cfg, header, rows, checks, extras)
        if not sidecar["all_invariants_passed"]:
            failed = [c["name"] for c in checks if not c["passed"]]
            print(f"invariant check failed: {', '.join(failed)}", file=sys.stderr)
            return 3
        return 0
    except TruncationError as exc:
        print(f"truncation failure: {exc}", file=sys.stderr)
        return 4
    except NumericalInvariantError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
