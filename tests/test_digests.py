"""The byte-identity tool: its run list, its file names and its reports of what moved."""
import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
_SPEC = importlib.util.spec_from_file_location("digests", _TOOL)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_the_run_list_covers_the_defaults_the_efficiencies_and_every_pool_op():
    runs = digests.run_list()
    defaults = {spec[0] for name, spec in runs.items() if name.startswith("default/")}
    assert defaults == {"fidelity-cat", "fidelity-fock", "wigner", "strobo-pe", "qubit-protect", "adiabatic"}
    etas = [spec[1] for name, spec in runs.items() if name.startswith("qubit-protect/")]
    assert etas == [["--eta", eta] for eta in digests.QUBIT_ETAS]
    pools = digests.workloads.WORKLOADS
    ops = sum(len(digests.workloads.make_pool(w, seed)) for w in pools for seed in digests.SEEDS)
    assert sum(name.startswith("pool/") for name in runs) == ops == 64
    assert len({digests._file(Path(), name, ".csv") for name in runs}) == len(runs)


def test_names_that_differ_after_a_dot_keep_their_own_files(tmp_path):
    # a suffix swapped in by with_suffix once gave eta=0.1 and eta=0.3 the files of eta=0
    runs = {f"q/eta={eta}": ["qubit-protect", ["--eta", eta], None] for eta in ("0", "0.1", "0.3")}
    table = digests.digests(digests.ROOT / "src", runs, tmp_path)
    assert [row["exit"] for row in table.values()] == [0, 0, 0]
    assert len({row["csv"] for row in table.values()}) == len({row["sidecar"] for row in table.values()}) == 3
    assert not any("stderr" in row for row in table.values())


def test_a_moved_csv_column_is_named_with_its_cells_and_largest_change(tmp_path):
    ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
    ref.write_text("t,F,G\n0,1,2\n1,0.5,3\n2,0.25,4\n")
    new.write_text("t,F,G\n0,1,2\n1,0.5000001,3\n2,0.2,4\n")
    assert digests.csv_moves(ref, new) == ["column F: 2 of 3 cells, largest change 0.05"]
    new.write_text("t,F,G\n0,1,2\n")
    assert digests.csv_moves(ref, new) == ["header or row count: 3 x 3 -> 3 x 1"]


def test_a_moved_sidecar_key_is_named_with_its_change(tmp_path):
    ref, new = tmp_path / "ref.json", tmp_path / "new.json"
    ref.write_text(json.dumps({"command": "wigner", "extras": {"x": 1.0, "y": [1, 2]}}))
    new.write_text(json.dumps({"command": "strobo-pe", "extras": {"x": 1.5, "y": [1, 3]}}))
    assert digests.sidecar_moves(ref, new) == [
        "key command: 'wigner' -> 'strobo-pe'",
        "key extras.x: change 0.5",
        "key extras.y.1: change 1",
    ]


@pytest.mark.parametrize(
    "csv, environment, code",
    [("a", "same", 0), ("c", "same", 1), ("c", "other", 0)],
    ids=["identical", "moved", "moved-elsewhere"],
)
def test_a_move_fails_the_check_only_in_the_manifests_environment(
    tmp_path, monkeypatch, capsys, csv, environment, code
):
    env = digests.environment()
    if environment == "other":
        env["numpy"] = "0.0"
    manifest = tmp_path / "digests.json"
    runs = {"r": {"exit": 0, "csv": csv, "sidecar": "b"}}
    manifest.write_text(json.dumps({"environment": env, "runs": runs}))
    monkeypatch.setattr(digests, "MANIFEST", manifest)
    assert digests.check({}, {"r": {"exit": 0, "csv": "a", "sidecar": "b"}}, tmp_path) == code
    out = capsys.readouterr().out
    assert out.startswith(f"1 runs, 2 files: {2 if csv == 'a' else 1} byte-identical to digests.json")
    assert ("moved: r csv" in out) == (csv != "a")
    assert ("environment numpy: 0.0 in the manifest" in out) == (environment == "other")
