"""Seeded op pools for the benchmark workloads and the outside-in output checks.

An op is one `cavityfeedback.cli.main` call on a generated config.  Each
workload draws a small pool of configs from its seed and the benchmark cycles
through the pool.  The seed draws only physical parameters; every problem
size is written into the config explicitly at today's CLI default, so the
shape of the work stays fixed when a seed or a CLI default changes.

The checks read the CSV and sidecar an op wrote and compare them with the
library's closed forms, or with closed forms written out here.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1  # perfbench/README.md names the held-out seed

_CURVE_SIZE = {"gamma_t": 2.0, "steps": 80, "dim": 63}
_STROBO_SIZE = {"gamma_t": 2.0, "dim": 31}
_STROBO_GAMMA_T = (0.02, 0.02, 0.2, 0.2, 0.02)  # the last set carries mu = 0
_WIGNER_SIZE = {"grid_extent": 4.5, "grid_points": 121, "dim": 63}
_ADIABATIC_SIZE = {"steps": 4000, "dim": 31, "n_bar": 3.3, "gamma": 0.005, "gamma_e": 0.05}


@dataclass(frozen=True)
class Op:
    command: str
    config: dict


def _continuous_fidelity(rng: random.Random) -> list:
    # expm is cheaper at large eta, so each pool takes one eta from each
    # quarter of [0.1, 1]; the pool then costs about the same for every seed
    strata = [0.1 + 0.225 * i for i in range(4)]
    rng.shuffle(strata)
    ops = []
    for i, low in enumerate(strata):
        etas = [0.0, rng.uniform(low, low + 0.225)]
        if i % 2 == 0:
            cfg = {"alpha2": rng.uniform(2.0, 6.0), "parity": rng.choice(["odd", "even"])}
            command = "fidelity-cat"
        else:
            cfg = {"n": 2, "m": 4, "alpha2": rng.uniform(0.2, 0.8)}
            command = "fidelity-fock"
        ops.append(Op(command, {**cfg, "eta": etas, **_CURVE_SIZE}))
    return ops


def _strobo_sequence(rng: random.Random) -> list:
    ops = []
    for _ in range(4):
        mus = [rng.uniform(0.2, math.pi / 2) for _ in _STROBO_GAMMA_T[:-1]] + [0.0]
        cfg = {
            "alpha2": rng.uniform(2.0, 4.0),
            "eta": rng.uniform(0.5, 1.0),
            "sets": [[mu, gt] for mu, gt in zip(mus, _STROBO_GAMMA_T)],
        }
        ops.append(Op("strobo-pe", {**cfg, **_STROBO_SIZE}))
    return ops


def _wigner_export(rng: random.Random) -> list:
    kinds = ["cat-odd", "cat-even", "coherent"]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        cfg = {
            "state": {"kind": kind, "alpha2": rng.uniform(2.0, 5.0)},
            "evolution": {
                "kind": "continuous",
                "eta": rng.uniform(0.0, 1.0),
                "gamma_t": rng.uniform(0.05, 0.3),
            },
        }
        ops.append(Op("wigner", {**cfg, **_WIGNER_SIZE}))
    return ops


def _adiabatic_crossing(rng: random.Random) -> list:
    ops = []
    for _ in range(5):
        cfg = {
            "areas": [rng.uniform(2.0, 200.0)],
            "state": {"kind": "coherent", "alpha2": rng.uniform(2.0, 4.0)},
        }
        ops.append(Op("adiabatic", {**cfg, **_ADIABATIC_SIZE}))
    return ops


WORKLOADS = {
    "continuous-fidelity": _continuous_fidelity,
    "strobo-sequence": _strobo_sequence,
    "wigner-export": _wigner_export,
    "adiabatic-crossing": _adiabatic_crossing,
}


def make_pool(workload: str, seed: int) -> list:
    """The workload's op pool; the same seed gives the same configs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _strobo_steps(cfg: dict) -> list:
    return [int(round(cfg["gamma_t"] / gt)) + 1 for _, gt in cfg["sets"]]


def config_work(op: Op) -> dict:
    """Work counts that follow from the config alone."""
    cfg = op.config
    work = {"strobo.periods": 0, "adiabatic.rk_steps": 0, "wigner.grid_points": 0}
    if op.command == "strobo-pe":
        work["strobo.periods"] = sum(_strobo_steps(cfg))
    elif op.command == "adiabatic":
        # the crossing runs at `steps` and again at 2 * steps for the halving check
        work["adiabatic.rk_steps"] = 3 * cfg["steps"] * len(cfg["areas"])
    elif op.command == "wigner":
        work["wigner.grid_points"] = cfg["grid_points"] ** 2
    return work


def _expected_rows(op: Op) -> int:
    cfg = op.config
    if op.command in ("fidelity-cat", "fidelity-fock"):
        return cfg["steps"] + 1
    if op.command == "strobo-pe":
        return max(_strobo_steps(cfg))
    if op.command == "wigner":
        return cfg["grid_points"] ** 2
    return len(cfg["areas"])


def _column(header, rows, name) -> np.ndarray:
    j = header.index(name)
    return np.array([float(r[j]) for r in rows if r[j] != ""])


def _worst(dev: np.ndarray) -> float:
    return float(np.max(np.abs(dev))) if dev.size else math.inf


def _check_fidelity_cat(op, header, rows, lib):
    cfg = op.config
    parity = lib.CatParity.ODD if cfg["parity"] == "odd" else lib.CatParity.EVEN
    times = _column(header, rows, "gamma_t")
    closed = np.array([lib.cat_fidelity_analytic(cfg["alpha2"], parity, 1.0, t) for t in times])
    dev = _worst(_column(header, rows, "F_eta=0") - closed)
    return [] if dev <= 1e-6 else [f"eta=0 column off cat_fidelity_analytic by {dev:.3e}"]


def _check_fidelity_fock(op, header, rows, lib):
    cfg = op.config
    times = _column(header, rows, "gamma_t")
    a2 = cfg["alpha2"]
    problems = []
    for eta in cfg["eta"]:
        num = _column(header, rows, f"F_num_eta={eta:g}")
        ana = _column(header, rows, f"F_ana_eta={eta:g}")
        params = lib.ContinuousParams(1.0, eta)
        closed = np.array(
            [lib.fock_fidelity_analytic(a2, 1.0 - a2, cfg["n"], cfg["m"], params, t) for t in times]
        )
        if _worst(num - ana) > 1e-6:
            problems.append(f"F_num off F_ana by {_worst(num - ana):.3e} at eta={eta:g}")
        # the analytic column must be the closed form, up to 12-digit formatting
        if _worst(ana - closed) > 1e-10:
            problems.append(f"F_ana off fock_fidelity_analytic at eta={eta:g}")
    return problems


def _check_strobo_pe(op, header, rows, lib):
    cfg = op.config
    problems = []
    for i, (mu, gamma_T) in enumerate(cfg["sets"]):
        pe = _column(header, rows, f"pe_set{i}")
        if pe.size != _strobo_steps(cfg)[i]:
            problems.append(f"set {i} has {pe.size} records")
        if np.any(pe < 0.0) or np.any(pe > 1.0):
            problems.append(f"set {i} has P_e outside [0, 1]")
        if mu == 0.0:
            closed = np.array(
                [lib.p_ee_analytic(cfg["alpha2"], k * gamma_T) for k in range(pe.size)]
            )
            if _worst(pe - closed) > 1e-8:
                problems.append(f"mu=0 set off p_ee_analytic by {_worst(pe - closed):.3e}")
    return problems


def _damped_parity(kind: str, alpha2: float, eta: float, gamma_t: float) -> float:
    """Photon-number parity after the continuous map, in closed form.

    Populations only feel damping at rate (1 - eta) gamma, which thins each
    photon with survival s; the parity is the generating function of the
    initial photon-number distribution evaluated at 1 - 2 s.
    """
    z = 1.0 - 2.0 * math.exp(-(1.0 - eta) * gamma_t)
    if kind == "coherent":
        return math.exp(alpha2 * (z - 1.0))
    if kind == "cat-odd":
        return math.sinh(alpha2 * z) / math.sinh(alpha2)
    return math.cosh(alpha2 * z) / math.cosh(alpha2)


def _check_wigner(op, header, rows, lib):
    cfg = op.config
    points = cfg["grid_points"]
    axis = np.linspace(-cfg["grid_extent"], cfg["grid_extent"], points)
    w = _column(header, rows, "W").reshape(points, points)
    problems = []
    integral = float(np.trapezoid(np.trapezoid(w, axis, axis=1), axis))
    if abs(integral - 1.0) > 1e-3:
        problems.append(f"Wigner integral {integral:.6f} misses 1 by more than 1e-3")
    centre = points // 2
    state, evo = cfg["state"], cfg["evolution"]
    parity = _damped_parity(state["kind"], state["alpha2"], evo["eta"], evo["gamma_t"])
    dev = w[centre, centre] - (2.0 / math.pi) * parity
    if abs(dev) > 1e-8:
        problems.append(f"origin value off (2/pi) parity by {dev:.3e}")
    return problems


def _check_adiabatic(op, header, rows, lib):
    values = np.array([[float(r[1]), float(r[2])] for r in rows])
    if np.any(values < 0.0) or np.any(values > 1.0):
        return ["transfer fidelity or peak population outside [0, 1]"]
    return []


_CHECKS = {
    "fidelity-cat": _check_fidelity_cat,
    "fidelity-fock": _check_fidelity_fock,
    "strobo-pe": _check_strobo_pe,
    "wigner": _check_wigner,
    "adiabatic": _check_adiabatic,
}


def check_outputs(op: Op, csv_bytes: bytes, sidecar_bytes: bytes, lib) -> list:
    """Problems found in one op's outputs; empty when the op is correct.

    `lib` is a namespace holding the library's closed forms and types.
    """
    sidecar = json.loads(sidecar_bytes)
    problems = []
    if sidecar.get("command") != op.command:
        problems.append(f"sidecar names command {sidecar.get('command')!r}")
    if sidecar.get("all_invariants_passed") is not True:
        problems.append("sidecar reports a failed invariant check")
    lines = csv_bytes.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != _expected_rows(op):
        problems.append(f"{len(rows)} CSV rows, expected {_expected_rows(op)}")
        return problems
    try:
        problems += _CHECKS[op.command](op, header, rows, lib)
    except (ValueError, IndexError) as exc:
        problems.append(f"unreadable CSV: {exc}")
    return problems
