"""Byte identity of the CLI's outputs as one command.

Runs a fixed list of `cavityfb` runs and records the sha256 of every CSV and
JSON sidecar they write, with the environment that wrote them, in
tools/digests.json:

    python tools/digests.py            # run the list, rewrite the manifest
    python tools/digests.py --check    # run the list, compare with the manifest

The list holds the six CLI defaults, the README examples, qubit-protect at
six efficiencies, runs at the dimension cap (two of them long enough to step
either map through several chunks), Wigner functions after
stroboscopic evolution and of a complex Fock superposition, runs that
between them set every config key and pass every flag of every command
(adiabatic at several pulse areas and from every kind of initial state among
them), and every op of the four benchmark pools at seeds 1, 2, 3 and 9001,
drawn by the generators of perfbench/workloads.py.

--check names each file that moved.  To say what moved, it runs the moved
runs again on a reference tree, `git archive` of the commit that last wrote
the manifest, on this machine, and names each CSV column
that moved with its cell count and largest change, and each sidecar key
with its change.  Output bits depend on the BLAS build and the CPU's
kernels, so the check fails (exit 1) only where the environment equals the
manifest's; elsewhere it reports and exits 0.  The runs execute in a child
interpreter that imports the package from the tree's `src/`; a run that ends
in a traceback is recorded as exit 1 with the exception's last line, and the
list goes on.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "digests.json"
SEEDS = (1, 2, 3, 9001)
QUBIT_ETAS = ("0", "0.1", "0.3", "0.7", "0.9", "0.99")

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  the benchmark's op pools, read and never edited

# jobs [[stem, command, flags, config or None]] from stdin; prints [[exit code, stderr]], where a
# run that raises is exit 1 with the exception's last line and argparse's exit keeps its code
_CHILD = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from cavityfeedback.cli import main
results = []
for stem, command, flags, config in json.load(sys.stdin):
    if config is not None:
        with open(stem + ".cfg", "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        flags = flags + ["--config", stem + ".cfg"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([command, *flags, "--out", stem + ".csv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = 1
            err.write(traceback.format_exception_only(exc)[-1])
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _strobo_wigner(state: dict, steps: int) -> dict:
    return {"state": state, "evolution": {"kind": "strobo", "eta": 1.0, "steps": steps}}


def _option_runs(fock: dict) -> dict:
    """Runs that between them, with the rest of the list, set every config key and pass every flag."""
    curve = ["--eta", "0,0.5,1", "--gamma-t", "1.5", "--steps", "30", "--dim", "31"]
    runs = {
        "options/fidelity-cat": ["fidelity-cat", ["--alpha2", "2", *curve], None],
        "options/fidelity-fock": ["fidelity-fock", ["--alpha2", "0.5", *curve], {"n": 1, "m": 6}],
        "options/wigner-continuous": ["wigner", ["--alpha2", "2", "--eta", "0.5", "--gamma-t", "0.3", "--dim", "31",
                                                 "--grid-extent", "4", "--grid-points", "41"],
                                      {"state": {"kind": "coherent"}, "evolution": {"kind": "continuous"}}],
        "options/wigner-strobo": ["wigner", ["--mu", "1", "--steps", "10", "--eta", "0.8"],
                                  {"state": {"kind": "cat-even", "alpha2": 3.0},
                                   "evolution": {"kind": "strobo", "gamma_t_step": 0.05}}],
        "options/wigner-vacuum": ["wigner", [], {"state": {"kind": "vacuum"}, "evolution": {"kind": "none"}}],
        "options/strobo-pe": ["strobo-pe", ["--alpha2", "2", "--mu", "0.7", "--gamma-t", "0.5"], None],
        "options/qubit-protect": ["qubit-protect", ["--eta", "0.6", "--gamma-t", "1.5", "--steps", "40"],
                                  {"n": 3, "m": 5}],
        "options/qubit-protect-config": ["qubit-protect", [], {"gamma_t": 3.0, "steps": 30, "n": 2, "m": 7}],
    }
    # pulse areas, each initial state, and an unstable coarse run whose one-line exit-3 message is pinned
    for name, flags, cfg in [
        ("areas-5-150", [], {"areas": [5.0, 150.0]}),
        ("area-800-steps-1000", ["--steps", "1000"], {"areas": [800.0]}),
        ("cat-odd", ["--alpha2", "2", "--steps", "2000"], {"state": {"kind": "cat-odd"}, "areas": [50.0]}),
        ("cat-even", [], {"state": {"kind": "cat-even", "alpha2": 1.5}, "areas": [100.0]}),
        ("fock", [], {"state": fock, "areas": [20.0]}),
        ("vacuum", [], {"state": {"kind": "vacuum"}, "areas": [200.0], "dim": 15}),
    ]:
        runs[f"options/adiabatic-{name}"] = ["adiabatic", flags, cfg]
    return runs


def run_list() -> dict:
    """Every run of the manifest, {name: [command, flags, config or None]}."""
    runs = {f"default/{c}": [c, [], None]
            for c in ("fidelity-cat", "fidelity-fock", "wigner", "strobo-pe", "qubit-protect", "adiabatic")}
    evolved = {"evolution": {"kind": "continuous", "eta": 1.0, "gamma_t": 0.2}}  # the README's evo.json
    runs["readme/wigner-evolved"] = ["wigner", [], evolved]
    runs["readme/strobo-pe-eta0.4"] = ["strobo-pe", ["--eta", "0.4"], None]
    runs.update({f"qubit-protect/eta={eta}": ["qubit-protect", ["--eta", eta], None] for eta in QUBIT_ETAS})
    runs["cap/strobo-pe-dim127"] = ["strobo-pe", ["--dim", "127", "--gamma-t", "0.1"], None]
    runs["cap/adiabatic-dim127"] = ["adiabatic", ["--dim", "127"], None]
    # runs that step either map through several chunks of the band core
    runs["cap/fidelity-cat-dim127"] = ["fidelity-cat", ["--dim", "127", "--steps", "1000", "--eta", "0,0.5"], None]
    runs["cap/strobo-pe-dim127-long"] = ["strobo-pe", ["--dim", "127", "--gamma-t", "2"], None]
    coherent, cat = {"kind": "coherent", "alpha2": 2.0}, {"kind": "cat-odd", "alpha2": 5.0}
    real, imag = [[0, 0.6, 0], [1, -0.8, 0]], [[0, 0.6, 0], [1, 0, 0.8]]
    for name, state, steps in [("coherent", coherent, 5), ("coherent", coherent, 20), ("cat", cat, 20),
                               ("fock-real", {"kind": "fock", "terms": real}, 5),
                               ("fock-complex", {"kind": "fock", "terms": imag}, 30)]:
        runs[f"wigner-strobo/{name}-{steps}"] = ["wigner", [], _strobo_wigner(state, steps)]
    complex_fock = {"kind": "fock", "terms": [[1, 0.6, 0], [3, 0, 0.8]]}
    runs["wigner/fock-complex"] = ["wigner", [], {"state": complex_fock}]
    runs.update(_option_runs(complex_fock))
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.make_pool(workload, seed)):
                runs[f"pool/{workload}/seed={seed}/{i}"] = [op.command, [], op.config]
    return runs


def environment() -> dict:
    """What the output bits depend on besides the code: interpreter, libraries, BLAS, SIMD."""
    config = np.show_config(mode="dicts")

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return dep.get("openblas configuration") or f"{dep['name']} {dep['version']}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(config), "scipy": blas(scipy.show_config(mode="dicts"))},
        "machine": platform.machine(),
        "simd": sorted(config["SIMD Extensions"]["baseline"] + config["SIMD Extensions"]["found"]),
    }


def _file(out: Path, name: str, suffix: str) -> Path:
    """A run's output file; a name may hold a dot, so the suffix is appended, never swapped in."""
    return out / (name.replace("/", "_") + suffix)


def execute(src: Path, runs: dict, out: Path) -> dict:
    """Run `runs` with the package under `src`, writing into `out`; {name: [exit code, stderr]}."""
    jobs = [[str(_file(out, name, "")), *spec] for name, spec in runs.items()]
    child = subprocess.run([sys.executable, "-c", _CHILD, str(src)], input=json.dumps(jobs),
                           capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"the runs of {src} stopped: {child.stderr.strip()}")
    return dict(zip(runs, json.loads(child.stdout)))


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def digests(src: Path, runs: dict, out: Path) -> dict:
    """{name: {"exit", "csv", "sidecar"[, "stderr"]}}, each file by its sha256."""
    table = {}
    for name, (code, err) in execute(src, runs, out).items():
        csv, sidecar = _sha(_file(out, name, ".csv")), _sha(_file(out, name, ".json"))
        table[name] = {"exit": code, "csv": csv, "sidecar": sidecar, **({"stderr": err} if err else {})}
    return table


def _cells(path: Path) -> tuple:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _change(a, b) -> float:
    try:
        return abs(float(a) - float(b))
    except (TypeError, ValueError):
        return math.inf


def csv_moves(ref: Path, new: Path) -> list:
    """One line per moved column: its cell count and largest change."""
    (head_a, rows_a), (head_b, rows_b) = _cells(ref), _cells(new)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"header or row count: {len(head_a)} x {len(rows_a)} -> {len(head_b)} x {len(rows_b)}"]
    lines = []
    for j, column in enumerate(head_a):
        moved = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b) if ra[j] != rb[j]]
        if moved:
            worst = max(_change(a, b) for a, b in moved)
            lines.append(f"column {column}: {len(moved)} of {len(rows_a)} cells, largest change {worst:.3g}")
    return lines


def _leaves(obj, prefix="") -> dict:
    if isinstance(obj, dict):
        return {k: v for key, sub in obj.items() for k, v in _leaves(sub, f"{prefix}{key}.").items()}
    if isinstance(obj, list):
        return {k: v for i, sub in enumerate(obj) for k, v in _leaves(sub, f"{prefix}{i}.").items()}
    return {prefix[:-1]: obj}


def sidecar_moves(ref: Path, new: Path) -> list:
    """One line per moved sidecar key, with its change where both values are numbers."""
    a, b = _leaves(json.loads(ref.read_text())), _leaves(json.loads(new.read_text()))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            change = _change(a.get(key), b.get(key))
            lines.append(f"key {key}: " + (f"change {change:.3g}" if math.isfinite(change)
                                           else f"{a.get(key)!r} -> {b.get(key)!r}"))
    return lines


def _manifest_commit() -> str | None:
    log = subprocess.run(["git", "-C", str(ROOT), "log", "-1", "--format=%H", "--", str(MANIFEST)],
                         capture_output=True, text=True)
    return log.stdout.strip() or None


def _reference_run(rev: str | None, runs: dict, tmp: Path) -> Path | None:
    """The outputs of `runs` on `src/` of commit `rev`, run here; None when that tree cannot be had."""
    if rev is None:
        print("no reference run: the manifest is in no commit")
        return None
    try:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
            archive.extractall(tmp, filter="data")
        (tmp / "out").mkdir()
        execute(tmp / "src", runs, tmp / "out")
    except (subprocess.CalledProcessError, RuntimeError, OSError, tarfile.TarError) as exc:
        print(f"no reference run of {rev}: {exc}")
        return None
    return tmp / "out"


def check(runs: dict, table: dict, out: Path) -> int:
    """Report every moved file; 1 when one moved and the environment is the manifest's."""
    manifest, here = json.loads(MANIFEST.read_text(encoding="utf-8")), environment()
    moved = {}
    for name in sorted(manifest["runs"].keys() | table.keys()):
        want, got = manifest["runs"].get(name, {}), table.get(name, {})
        parts = [part for part in ("exit", "csv", "sidecar", "stderr") if want.get(part) != got.get(part)]
        if parts:
            moved[name] = parts
    files = 2 * len(table)
    same = files - sum(("csv" in moved.get(name, ())) + ("sidecar" in moved.get(name, ())) for name in table)
    print(f"{len(table)} runs, {files} files: {same} byte-identical to {MANIFEST.name}")
    rev = _manifest_commit()
    again = {name: runs[name] for name in moved if name in runs}
    with tempfile.TemporaryDirectory() as tmp:
        ref_out = _reference_run(rev, again, Path(tmp)) if again else None
        _report(moved, table, out, ref_out, rev)
    for key, value in here.items():
        if manifest["environment"].get(key) != value:
            print(f"environment {key}: {manifest['environment'].get(key)} in the manifest, {value} here")
    gated = manifest["environment"] == here
    if moved and not gated:
        print("the environment differs from the manifest's, so the moves above are reported only")
    return 1 if moved and gated else 0


def _report(moved: dict, table: dict, out: Path, ref_out: Path | None, rev: str | None) -> None:
    diffs = {"csv": (".csv", csv_moves), "sidecar": (".json", sidecar_moves)}
    for name, parts in moved.items():
        if name not in table:
            print(f"moved: {name} is no longer in the run list")
            continue
        for part in parts:
            if part not in diffs:  # the exit code or the standard error
                print(f"moved: {name} {part}: {table[name].get(part)!r}")
                continue
            print(f"moved: {name} {part}")
            suffix, diff = diffs[part]
            ref, new = ref_out and _file(ref_out, name, suffix), _file(out, name, suffix)
            if ref and ref.exists() and new.exists():
                lines = diff(ref, new) or [f"identical to {rev[:12]}'s output here: the code did not move it"]
                print(*(f"  {line}" for line in lines), sep="\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the manifest, do not write it")
    args = parser.parse_args(argv)
    runs = run_list()
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(ROOT / "src", runs, Path(tmp))
        if args.check:
            return check(runs, table, Path(tmp))
    manifest = {"environment": environment(), "runs": table}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} runs, {2 * len(table)} files written to {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
