"""The byte-identity tool: its run list, its file names and its reports of what moved."""
import importlib.util
import json
from pathlib import Path

import pytest

from cavityfeedback import cli

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


_FAKE_CLI = """
def main(argv):
    out = argv[argv.index("--out") + 1]
    if argv[0] == "raises":
        raise ValueError("a fault of the run")
    if argv[0] == "usage":
        raise SystemExit(2)
    for path in (out, out[:-4] + ".json"):
        with open(path, "w") as fh:
            fh.write(argv[0])
    return 0
"""


def test_a_run_that_raises_is_exit_1_and_the_list_goes_on(tmp_path):
    # one traceback once stopped the child, and no run of the list was digested
    package = tmp_path / "src" / "cavityfeedback"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(_FAKE_CLI)
    (tmp_path / "out").mkdir()
    runs = {name: [name, [], None] for name in ("first", "raises", "usage", "last")}
    table = digests.digests(tmp_path / "src", runs, tmp_path / "out")
    assert table["raises"] == {"exit": 1, "csv": None, "sidecar": None, "stderr": "ValueError: a fault of the run\n"}
    assert table["usage"] == {"exit": 2, "csv": None, "sidecar": None}
    for name in ("first", "last"):
        assert table[name]["exit"] == 0 and None not in (table[name]["csv"], table[name]["sidecar"])


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


def _table_keys(table) -> set:
    """Every key a command's table reads: top level, each kind and key of a section, each rows field."""
    keys = set()
    for key, k in table.items():
        keys.add(key)
        if k.spec.type == "section":
            keys |= {f"{key}.{kind}" for kind in k.spec.of}
            keys |= {f"{key}.{kind}.{name}" for kind, sub in k.spec.of.items() for name in sub}
        elif k.spec.type == "rows":
            keys |= {f"{key}.{name}" for name in k.spec.of}
    return keys


def _keys_set(table, flags, config, flag_keys) -> set:
    """The keys of `table` one run sets by its config or its flags, named as `_table_keys` names them."""
    config = config or {}
    keys = set()

    def kind_of(key):
        section = config.get(key, table[key].default)
        return section.get("kind", next(iter(table[key].spec.of)))

    for key, value in config.items():
        keys.add(key)
        if table[key].spec.type == "section":
            keys.add(f"{key}.{kind_of(key)}")
            keys |= {f"{key}.{kind_of(key)}.{name}" for name in value if name != "kind"}
        elif table[key].spec.type == "rows":
            keys |= {f"{key}.{name}" for name in table[key].spec.of}
    for flag in flags[::2]:
        dotted = flag_keys[flag[2:].replace("-", "_")][0]
        key, _, name = dotted.partition(".")
        keys.add(key)
        if name and table[key].spec.type == "section":
            keys |= {f"{key}.{kind_of(key)}", f"{key}.{kind_of(key)}.{name}"}
        elif name:
            keys.add(dotted)
    return keys


def test_the_run_list_sets_every_config_key_and_passes_every_flag():
    unset, unpassed = {}, {}
    for command, (_, table) in cli._COMMANDS.items():
        flag_keys = cli._flags(command)
        runs = [spec for spec in digests.run_list().values() if spec[0] == command]
        assert all(len(flags) % 2 == 0 for _, flags, _ in runs)  # every flag takes one value
        keys = set().union(*(_keys_set(table, flags, config, flag_keys) for _, flags, config in runs))
        passed = {flag[2:].replace("-", "_") for _, flags, _ in runs for flag in flags[::2]}
        unset[command] = sorted(_table_keys(table) - keys)
        unpassed[command] = sorted(flag_keys.keys() - passed)
    assert unset == {command: [] for command in cli._COMMANDS}
    assert unpassed == {command: [] for command in cli._COMMANDS}
