import ast
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cavityfeedback
import cavityfeedback.cli as cli
import cavityfeedback.continuous as continuous
import cavityfeedback.errors as errors
import cavityfeedback.strobo as strobo
from cavityfeedback import ConfigError, NumericalInvariantError, TruncationError
from cavityfeedback.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_sidecar(csv_path):
    return json.loads(csv_path.with_suffix(".json").read_text())


class TestFidelityCat:
    def test_default_run(self, tmp_path):
        out = tmp_path / "cat.csv"
        assert run_cli(["fidelity-cat", "--steps", 20, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header[0] == "gamma_t"
        assert len(header) == 6
        assert len(rows) == 21
        assert all(float(v) == 1.0 for v in rows[0][1:])
        side = read_sidecar(out)
        assert side["all_invariants_passed"]
        names = {c["name"]: c for c in side["invariant_checks"]}
        assert names["no_feedback_column_vs_closed_form"]["value"] < 1e-6

    def test_eta_flag_overrides(self, tmp_path):
        out = tmp_path / "cat.csv"
        assert run_cli(["fidelity-cat", "--eta", "0,1", "--steps", 5, "--out", out]) == 0
        header, _ = read_csv(out)
        assert header == ["gamma_t", "F_eta=0", "F_eta=1"]

    def test_zero_time_grid(self, tmp_path):
        out = tmp_path / "cat.csv"
        assert run_cli(["fidelity-cat", "--gamma-t", 0, "--steps", 5, "--out", out]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert all(float(v) == 1.0 for v in rows[0][1:])

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha2": 3.3, "steps": 4, "eta": [0.5]}))
        out = tmp_path / "cat.csv"
        assert run_cli(["fidelity-cat", "--config", cfg, "--steps", 6, "--out", out]) == 0
        side = read_sidecar(out)
        assert side["config"]["alpha2"] == 3.3
        assert side["config"]["steps"] == 6  # flag wins over file
        assert side["config"]["eta"] == [0.5]

    def test_invalid_eta_exits_2(self, tmp_path):
        out = tmp_path / "cat.csv"
        assert run_cli(["fidelity-cat", "--eta", "1.5", "--out", out]) == 2

    def test_bad_out_suffix_exits_2(self, tmp_path):
        assert run_cli(["fidelity-cat", "--out", tmp_path / "cat.txt"]) == 2


class TestFidelityFock:
    def test_default_run(self, tmp_path):
        out = tmp_path / "fock.csv"
        assert run_cli(["fidelity-fock", "--steps", 10, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header[1] == "F_num_eta=0"
        assert header[2] == "F_ana_eta=0"
        side = read_sidecar(out)
        assert side["all_invariants_passed"]
        names = {c["name"]: c for c in side["invariant_checks"]}
        assert names["numeric_vs_analytic"]["value"] < 1e-6

    def test_analytic_column_matches_numeric(self, tmp_path):
        out = tmp_path / "fock.csv"
        run_cli(["fidelity-fock", "--eta", "0.5", "--steps", 8, "--out", out])
        _, rows = read_csv(out)
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) < 1e-6


class TestWigner:
    def test_default_cat_grid(self, tmp_path):
        out = tmp_path / "wig.csv"
        assert run_cli(["wigner", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "W"]
        assert len(rows) == 121 * 121
        side = read_sidecar(out)
        assert side["all_invariants_passed"]
        assert abs(side["extras"]["origin_value"] + 2.0 / np.pi) < 1e-8
        assert side["extras"]["fringe_visibility"] > 1.0

    def test_feedback_preserves_fringes_end_to_end(self, tmp_path):
        base = tmp_path / "w0.csv"
        kept = tmp_path / "w1.csv"
        lost = tmp_path / "w2.csv"
        run_cli(["wigner", "--out", base])
        cfg_kept = {"evolution": {"kind": "continuous", "eta": 1.0, "gamma_t": 0.2}}
        cfg_lost = {"evolution": {"kind": "continuous", "eta": 0.0, "gamma_t": 0.2}}
        (tmp_path / "kept.json").write_text(json.dumps(cfg_kept))
        (tmp_path / "lost.json").write_text(json.dumps(cfg_lost))
        assert run_cli(["wigner", "--config", tmp_path / "kept.json", "--out", kept]) == 0
        assert run_cli(["wigner", "--config", tmp_path / "lost.json", "--out", lost]) == 0
        v0 = read_sidecar(base)["extras"]["fringe_visibility"]
        v_kept = read_sidecar(kept)["extras"]["fringe_visibility"]
        v_lost = read_sidecar(lost)["extras"]["fringe_visibility"]
        assert abs(v_kept - v0) / v0 <= 0.10
        assert v_lost < 0.20 * v0

    def test_strobo_evolution_path(self, tmp_path):
        cfg = {
            "state": {"kind": "cat-odd", "alpha2": 3.3},
            "evolution": {
                "kind": "strobo",
                "eta": 0.4,
                "mu": float(np.pi / 6),
                "gamma_t_step": 0.02,
                "steps": 22,
            },
            "dim": 31,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "wig.csv"
        assert run_cli(["wigner", "--config", tmp_path / "cfg.json", "--out", out]) == 0
        assert read_sidecar(out)["all_invariants_passed"]

    def test_coarse_grid_exits_3(self, tmp_path):
        out = tmp_path / "wig.csv"
        code = run_cli(
            ["wigner", "--grid-extent", 0.5, "--grid-points", 5, "--out", out]
        )
        assert code == 3

    def test_truncation_exits_4(self, tmp_path):
        cfg = {"state": {"kind": "coherent", "alpha2": 4.0}, "dim": 16}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "wig.csv"
        assert run_cli(["wigner", "--config", tmp_path / "cfg.json", "--out", out]) == 4

    @pytest.mark.parametrize(
        "state, evolution",
        [
            ({"kind": "fock", "terms": [[15, 1, 0]]}, {"kind": "continuous", "eta": 0.5, "gamma_t": 0.1}),
            ({"kind": "fock", "terms": [[14, 1, 0]]}, {"kind": "strobo", "eta": 1.0, "steps": 3}),
        ],
        ids=["continuous", "strobo"],
    )
    def test_a_filled_top_level_exits_4(self, state, evolution, tmp_path, capsys):
        cfg = {"state": state, "evolution": evolution, "dim": state["terms"][0][0]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert run_cli(["wigner", "--config", tmp_path / "cfg.json", "--out", tmp_path / "wig.csv"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("truncation failure: population 1.000e+00 on the top Fock level ")

    def test_a_repeated_fock_index_is_normed_as_its_sum(self, tmp_path, capsys):
        # the two terms build sqrt(2) |2>, of norm 2
        terms = [[2, 0.7071067811865476, 0], [2, 0.7071067811865476, 0]]
        (tmp_path / "cfg.json").write_text(json.dumps({"state": {"kind": "fock", "terms": terms}}))
        assert run_cli(["wigner", "--config", tmp_path / "cfg.json", "--out", tmp_path / "wig.csv"]) == 2
        assert capsys.readouterr().err.startswith("config error: state.terms: coefficient norm 2.0")

    def test_vacuum_state(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"state": {"kind": "vacuum"}}))
        out = tmp_path / "wig.csv"
        assert run_cli(["wigner", "--config", tmp_path / "cfg.json", "--out", out]) == 0
        side = read_sidecar(out)
        assert side["all_invariants_passed"]
        assert side["extras"]["origin_value"] == pytest.approx(2.0 / np.pi, abs=1e-12)


class TestStroboPe:
    def test_default_family(self, tmp_path):
        out = tmp_path / "pe.csv"
        assert run_cli(["strobo-pe", "--gamma-t", 1.0, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header[0] == "step"
        side = read_sidecar(out)
        assert side["all_invariants_passed"]
        names = {c["name"]: c for c in side["invariant_checks"]}
        assert names["no_feedback_vs_closed_form"]["value"] < 1e-8

    def test_mu_flag_overrides_all_sets(self, tmp_path):
        out = tmp_path / "pe.csv"
        assert run_cli(["strobo-pe", "--mu", 0.0, "--gamma-t", 0.5, "--out", out]) == 0
        side = read_sidecar(out)
        assert all(mu == 0.0 for mu, _ in side["extras"]["sets"])
        names = {c["name"] for c in side["invariant_checks"]}
        assert "no_feedback_vs_closed_form" in names

    def test_long_run_tail_matches_stationary(self, tmp_path):
        cfg = {"sets": [[float(np.pi / 2), 0.02]], "gamma_t": 60.0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "pe.csv"
        assert run_cli(["strobo-pe", "--config", tmp_path / "cfg.json", "--out", out]) == 0
        extras = read_sidecar(out)["extras"]
        assert abs(extras["final_pe"][0] - extras["stationary_pe"][0]) < 1e-3

    @pytest.mark.filterwarnings("error")
    def test_long_interval_runs_without_a_warning(self, tmp_path, capsys):
        # exp(gamma_T) overflows above gamma_T ~ 709, where the stationary
        # one-photon weight is exactly 0
        cfg = {"sets": [[0.5, 1000.0]], "gamma_t": 2000.0, "dim": 23, "alpha2": 2.0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "pe.csv"
        assert run_cli(["strobo-pe", "--config", tmp_path / "cfg.json", "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert read_sidecar(out)["extras"]["stationary_pe"] == [0.0]


class TestQubitProtect:
    def test_default_run(self, tmp_path):
        out = tmp_path / "qb.csv"
        assert run_cli(["qubit-protect", "--eta", "0.9", "--steps", 10, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["gamma_t", "f_min"]
        assert float(rows[0][1]) == 1.0
        extras = read_sidecar(out)["extras"]
        assert extras["n_opt"] == 1
        table = dict((round(e, 2), n) for e, n in extras["n_opt_table"])
        assert table[0.82] == 0 and table[0.83] == 1
        assert abs(extras["threshold_eta"] - 2.0 / (1.0 + np.sqrt(2.0))) < 1e-9

    def test_no_feedback_slope(self, tmp_path):
        out = tmp_path / "qb.csv"
        run_cli(["qubit-protect", "--eta", "0", "--gamma-t", 0.01, "--steps", 10, "--out", out])
        _, rows = read_csv(out)
        extras = read_sidecar(out)["extras"]
        assert extras["spec"] == [0, 1]
        for row in rows:
            gt, f = float(row[0]), float(row[1])
            assert abs(f - (1.0 - gt)) < gt**2 + 1e-12

    def test_equal_photon_numbers_exit_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"n": 3, "m": 3}))
        args = ["qubit-protect", "--config", tmp_path / "cfg.json", "--out", tmp_path / "qb.csv"]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == "config error: n: n and m must differ\n"
        assert not (tmp_path / "qb.csv").exists()


class TestAdiabatic:
    def test_default_sweep(self, tmp_path):
        out = tmp_path / "ad.csv"
        assert run_cli(["adiabatic", "--steps", 3000, "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["area", "transfer_fidelity", "peak_excited_population"]
        fids = [float(r[1]) for r in rows]
        areas = [float(r[0]) for r in rows]
        assert fids[areas.index(2.0)] < 0.9
        adiabatic = [f for a, f in zip(areas, fids) if a >= 20.0]
        assert all(x <= y for x, y in zip(adiabatic, adiabatic[1:]))
        extras = read_sidecar(out)["extras"]
        assert all(c["status"] == "pass" for c in extras["timescale_report"])


    @pytest.mark.parametrize(
        "state",
        [
            {"kind": "vacuum"},
            {"kind": "coherent", "alpha2": 3.3},
            {"kind": "cat-even", "alpha2": 2.0},
            {"kind": "cat-odd", "alpha2": 2.0},
            {"kind": "fock", "terms": [[0, 0.6, 0.0], [2, 0.0, 0.48], [5, -0.64, 0.0]]},
        ],
        ids=["vacuum", "coherent", "cat-even", "cat-odd", "fock-complex"],
    )
    def test_each_state_kind_runs_the_library_crossing(self, state, tmp_path):
        cfg = {"areas": [100.0], "state": state}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "ad.csv"
        assert run_cli(["adiabatic", "--config", tmp_path / "cfg.json", "--steps", 3000, "--out", out]) == 0
        _, rows = read_csv(out)
        rho = cli._build_state(state, cavityfeedback.FockDim(31), "state.")
        _, fid, peak = cavityfeedback.integrate_crossing(rho, cavityfeedback.standard_pulses(100.0, 100.0, 1.0), 3000)
        assert rows == [[f"{x:.12g}" for x in (100.0, fid, peak)]]
        assert fid >= 0.999
        assert read_sidecar(out)["all_invariants_passed"]


class TestDeterminismAndEcho:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fidelity-cat", "--steps", 8, "--dim", 31, "--alpha2", 3.3]
        assert run_cli(args + ["--out", out1]) == 0
        assert run_cli(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        s1 = json.loads(out1.with_suffix(".json").read_text())
        s2 = json.loads(out2.with_suffix(".json").read_text())
        assert s1 == s2

    @pytest.mark.parametrize(
        "args, cfg",
        [
            (["fidelity-cat", "--eta", "0,0.5", "--steps", 4, "--dim", 31], None),
            (["fidelity-fock", "--alpha2", 0.4, "--eta", "0.5", "--steps", 4], None),
            (
                ["wigner", "--alpha2", 2, "--eta", 0.5, "--gamma-t", 0.1, "--grid-points", 41, "--dim", 31],
                {"evolution": {"kind": "continuous"}},
            ),
            (
                ["wigner", "--alpha2", 2, "--eta", 0.5, "--mu", 0.8, "--steps", 5, "--grid-points", 41, "--dim", 31],
                {"evolution": {"kind": "strobo"}},
            ),
            (["strobo-pe", "--gamma-t", 0.4], None),
            (["qubit-protect", "--eta", 0.6, "--steps", 10], None),
            # one pulse area keeps the run short
            (["adiabatic", "--alpha2", 2, "--steps", 1500, "--dim", 21], {"areas": [20.0]}),
        ],
        ids=["fidelity-cat", "fidelity-fock", "wigner", "wigner-strobo", "strobo-pe", "qubit-protect", "adiabatic"],
    )
    def test_sidecar_echo_reproduces_run(self, args, cfg, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        if cfg is not None:  # the flags then write into this config
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = args + ["--config", tmp_path / "cfg.json"]
        assert run_cli(args + ["--out", out1]) == 0
        # feed the sidecar back in as the config file
        assert run_cli([args[0], "--config", out1.with_suffix(".json"), "--out", out2]) == 0
        for suffix in (".csv", ".json"):
            assert out1.with_suffix(suffix).read_bytes() == out2.with_suffix(suffix).read_bytes()

    def test_sidecar_of_another_command_exits_2(self, tmp_path, capsys):
        # a fidelity-fock sidecar once ran fidelity-cat at the Fock weight
        assert run_cli(["fidelity-fock", "--steps", 3, "--out", tmp_path / "fock.csv"]) == 0
        capsys.readouterr()
        args = ["fidelity-cat", "--config", tmp_path / "fock.json", "--out", tmp_path / "cat.csv"]
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("config error: config: ")
        assert not (tmp_path / "cat.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read "),
            ("{", "invalid JSON in "),
            ("[1, 2]", "top level must be an object"),
            ('{"command": "fidelity-cat", "config": [1, 2]}', "sidecar 'config' must be an object"),
        ],
        ids=["missing", "invalid-json", "not-an-object", "sidecar-config-not-an-object"],
    )
    def test_a_faulty_config_file_exits_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert run_cli(["fidelity-cat", "--config", path, "--out", tmp_path / "cat.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: {message}")
        assert not (tmp_path / "cat.csv").exists()


# the three error types of the library, one per family, and the exit code of each
_FAMILIES = {ConfigError: 2, NumericalInvariantError: 3, TruncationError: 4}


def test_errors_fall_in_one_family():
    # the family alone picks the exit code, so no library error can reach
    # `main` outside its three handlers and end in a traceback (exit 1)
    defined = {c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__}
    assert defined == set(_FAMILIES)
    assert issubclass(ConfigError, ValueError)
    assert not issubclass(NumericalInvariantError, (ValueError, TruncationError))
    assert not issubclass(TruncationError, ValueError)


def _raises(tree):
    """(enclosing function, or "__main__" for the main guard; raised name) of each raise."""
    where = {tree: None}
    for node in ast.walk(tree):  # breadth first: a node's scope is known before its children's
        scope = where[node]
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            scope = "__main__"
        for child in ast.iter_child_nodes(node):
            where[child] = scope
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield where[node], None if exc is None else ast.unparse(exc)


def test_every_raise_is_in_a_family():
    # a raise outside the three families would reach `main` unhandled; the
    # only others are check_density's caller-chosen family and the exit itself
    allowed = {"ValueError", "ConfigError", "NumericalInvariantError", "TruncationError"}
    stray = [
        (path.name, scope, name)
        for path in sorted(Path(cavityfeedback.__file__).parent.glob("*.py"))
        for scope, name in _raises(ast.parse(path.read_text()))
        if name not in allowed and (scope, name) not in {("check_density", "error"), ("__main__", "SystemExit")}
    ]
    assert stray == []


class TestFailureClasses:
    # what each command's map is built from; the test scales it by 1.01
    MAP_INPUTS = {"strobo-pe": (strobo, "_kraus_table")}

    @pytest.mark.parametrize("cls", list(_FAMILIES), ids=lambda cls: cls.__name__)
    def test_each_error_exits_by_its_family(self, cls, tmp_path, monkeypatch, capsys):
        def fails(cfg):
            raise cls("qubit-protect", "raised") if cls is ConfigError else cls("raised")

        monkeypatch.setitem(cli._COMMANDS, "qubit-protect", (fails, cli._COMMANDS["qubit-protect"][1]))
        expected = _FAMILIES[cls]
        assert run_cli(["qubit-protect", "--out", tmp_path / "q.csv"]) == expected
        prefix = {2: "config error", 3: "numerical failure", 4: "truncation failure"}[expected]
        assert capsys.readouterr().err.startswith(f"{prefix}: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["fidelity-cat", "--steps", 4],
            ["fidelity-fock", "--steps", 4],
            ["wigner", "--gamma-t", 0.2, "--grid-points", 11],
            ["strobo-pe", "--gamma-t", 0.1],
        ],
    )
    def test_fault_after_the_continuous_map_exits_3(self, args, tmp_path, monkeypatch, capsys):
        # a propagator or Kraus table 1% too large breaks trace conservation
        # after the map; that is a numerical failure, not a config error
        module, name = self.MAP_INPUTS.get(args[0], (continuous, "expm"))
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: 1.01 * real(*a))
        if args[0] == "wigner":
            cfg = {"evolution": {"kind": "continuous", "eta": 0.5}}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = args + ["--config", tmp_path / "cfg.json"]
        assert run_cli(args + ["--out", tmp_path / "out.csv"]) == 3
        assert "numerical failure: trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["fidelity-cat", "--steps", 4],
            ["fidelity-fock", "--steps", 4],
            ["wigner", "--gamma-t", 0.2, "--grid-points", 11],
        ],
    )
    def test_non_finite_map_output_exits_3(self, args, tmp_path, monkeypatch, capsys):
        # a NaN propagator is a fault of the map: it must fail the invariant
        # check before any eigensolver sees it, not as a LinAlgError (exit 2)
        monkeypatch.setattr(continuous, "expm", lambda gen: np.full(gen.shape, np.nan))
        if args[0] == "wigner":
            cfg = {"evolution": {"kind": "continuous", "eta": 0.5}}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = args + ["--config", tmp_path / "cfg.json"]
        assert run_cli(args + ["--out", tmp_path / "out.csv"]) == 3
        assert "numerical failure: matrix is not Hermitian" in capsys.readouterr().err

    def test_an_under_resolved_crossing_exits_3_naming_its_steps(self, tmp_path, capsys):
        (tmp_path / "area.json").write_text(json.dumps({"areas": [100.0]}))
        args = ["adiabatic", "--config", tmp_path / "area.json", "--steps", 300, "--out", tmp_path / "a.csv"]
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: trace deviates from 1 by 8.605e-09")
        assert "steps = 300" in err and "raise steps" in err
        assert not (tmp_path / "a.csv").exists()

    def test_an_unstable_coarse_run_exits_3_at_the_halving_check(self, tmp_path, capsys):
        # the coarse run overflows; the unstable run is blamed, in one line and no warning
        (tmp_path / "area.json").write_text(json.dumps({"areas": [800.0]}))
        args = ["adiabatic", "--config", tmp_path / "area.json", "--steps", 1000, "--out", tmp_path / "a.csv"]
        assert run_cli(args) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: transfer fidelity moved by nan under step halving\n"
        assert not (tmp_path / "a.csv").exists()

    def test_a_failed_sidecar_check_exits_3_and_still_writes_both_files(self, tmp_path, monkeypatch, capsys):
        real = cli.cat_fidelity_analytic
        monkeypatch.setattr(cli, "cat_fidelity_analytic", lambda *a: real(*a) + 1e-3)
        out = tmp_path / "cat.csv"
        assert run_cli(["fidelity-cat", "--steps", 4, "--out", out]) == 3
        assert capsys.readouterr().err == "invariant check failed: no_feedback_column_vs_closed_form\n"
        assert out.exists()
        side = read_sidecar(out)
        assert side["all_invariants_passed"] is False
        failed = [c["name"] for c in side["invariant_checks"] if not c["passed"]]
        assert failed == ["no_feedback_column_vs_closed_form"]

    def test_detection_probabilities_that_miss_one_exit_3(self, tmp_path, monkeypatch, capsys):
        real = strobo.evolve_strobo

        def off_by_1e9(rho0, params, steps):
            run = real(rho0, params, steps)
            return run._replace(populations=run.populations * (1.0 + 1e-9))

        monkeypatch.setattr(strobo, "evolve_strobo", off_by_1e9)
        assert run_cli(["strobo-pe", "--gamma-t", 0.1, "--out", tmp_path / "out.csv"]) == 3
        assert "numerical failure: P_e + P_g" in capsys.readouterr().err

    def test_step_matrix_beyond_unit_radius_exits_3(self, tmp_path, monkeypatch, capsys):
        real = strobo._padded_bands

        def band_2_grows(params, c, ps):
            block = real(params, c, ps)
            block[ps == 2] = 1.5 * np.eye(block.shape[-1])
            return block

        monkeypatch.setattr(strobo, "_padded_bands", band_2_grows)
        assert run_cli(["strobo-pe", "--gamma-t", 0.1, "--out", tmp_path / "out.csv"]) == 3
        assert "numerical failure: spectral radius 1.5 of band 2" in capsys.readouterr().err


class TestConfigTypes:
    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            ("fidelity-cat", {"eta": [None]}, "eta: expected a number, got None"),
            (
                "wigner",
                {"state": {"kind": "cat-odd", "alpha2": "x"}},
                "state.alpha2: expected a number, got 'x'",
            ),
            (
                "wigner",
                {"evolution": {"kind": "continuous", "eta": None}},
                "evolution.eta: expected a number, got None",
            ),
            (
                "wigner",
                {"evolution": {"kind": "continuous", "gamma_t": float("nan")}},
                "evolution.gamma_t: must be a finite number >= 0, got nan",
            ),
            (
                "wigner",
                {"evolution": {"kind": "strobo", "mu": None}},
                "evolution.mu: expected a number, got None",
            ),
            (
                "wigner",
                {"evolution": {"kind": "strobo", "steps": 2.5}},
                "evolution.steps: expected an integer, got 2.5",
            ),
            (
                "wigner",
                {"state": {"kind": "fock", "terms": [[1, None, 0.0]]}},
                "state.terms: expected a number, got None",
            ),
            (
                "wigner",
                {"state": {"kind": "fock", "terms": [[99, 1.0, 0.0]]}},
                "state.terms: Fock index 99 outside [0, 63]",
            ),
            ("adiabatic", {"areas": [None]}, "areas: expected a number, got None"),
            ("adiabatic", {"areas": [True]}, "areas: expected a number, got True"),
            ("fidelity-cat", {"parity": ["odd"]}, "parity: must be 'odd' or 'even'"),
            ("qubit-protect", {"n": True}, "n: expected an integer, got True"),
        ],
    )
    def test_wrong_typed_value_exits_2(self, command, cfg, message, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = [command, "--config", tmp_path / "cfg.json", "--out", tmp_path / "out.csv"]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def reference_csv(header, rows) -> str:
    """The per-cell writer the vectorised one replaced, kept as its oracle.

    Cells are ints (written with str), "" (blank) or floats (written "%.12g").
    """
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if v == "":
                cells.append("")
                continue
            if not isinstance(v, int) and not np.isfinite(v):
                raise NumericalInvariantError(f"non-finite value {v!r} in output row")
            cells.append(str(v) if isinstance(v, int) else format(float(v), ".12g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# edge cases: signed zero, the smallest subnormal, huge magnitudes, integer-valued
# floats up to 1e11, and values with more than 12 significant digits
_EDGE_CELLS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e11, -1e11, 123456789012.5,
               0.1234567890123456, 1.0000000000005, 2.0 / 3.0, 99999999999.99]
cell_values = st.one_of(
    st.sampled_from(_EDGE_CELLS),
    st.integers(-10**11, 10**11).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def masked_tables(draw):
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 6)))
    data = draw(hnp.arrays(np.float64, shape, elements=cell_values))
    mask = draw(hnp.arrays(np.bool_, shape))
    return np.ma.array(data, mask=mask)


class TestCsvWriter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table=masked_tables())
    def test_bytes_match_the_per_cell_writer(self, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        rows = [
            ["" if m else v for v, m in zip(data_row, mask_row)]
            for data_row, mask_row in zip(table.data.tolist(), table.mask.tolist())
        ]
        assert cli._csv_text(header, table) == reference_csv(header, rows)
        assert cli._csv_text(header, table.data) == reference_csv(header, table.data.tolist())

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(k=st.integers(0, 10**12 - 1))
    def test_float_step_column_writes_as_int(self, k):
        assert "%.12g" % float(k) == str(k)

    def test_signed_zeros_and_a_blank_share_no_cell_text(self):
        # -0.0 == 0.0 as floats, yet "%.12g" writes "-0" and "0"
        table = np.ma.array([[-0.0, 0.0, 1.0], [0.0, -0.0, -0.0]], mask=[[0, 0, 0], [0, 0, 1]])
        assert cli._csv_text(["a", "b", "c"], table) == "a,b,c\n-0,0,1\n0,-0,\n"

    def test_strobo_step_column_matches_int_cells(self):
        steps = np.arange(3.0)
        table = np.ma.masked_all((3, 2))
        table[:, 0] = steps
        table[:2, 1] = [0.5, 0.25]
        expected = reference_csv(["step", "pe"], [[0, 0.5], [1, 0.25], [2, ""]])
        assert cli._csv_text(["step", "pe"], table) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_raises(self, bad):
        table = np.ma.array([[0.0, 1.0], [2.0, bad]])
        with pytest.raises(NumericalInvariantError, match="non-finite"):
            cli._csv_text(["a", "b"], table)
        table[1, 1] = np.ma.masked  # a blank cell is never checked
        assert cli._csv_text(["a", "b"], table) == "a,b\n0,1\n2,\n"

    def test_non_finite_output_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "min_fidelity", lambda spec, eta, t: np.full(np.shape(t), np.nan))
        out = tmp_path / "qb.csv"
        assert run_cli(["qubit-protect", "--steps", 3, "--out", out]) == 3
        assert "numerical failure: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sidecar_value_exits_3(self, tmp_path, monkeypatch, capsys):
        # the sidecar is strict JSON: a NaN in it writes neither file
        monkeypatch.setattr(cli, "fringe_visibility", lambda wg: float("nan"))
        out = tmp_path / "w.csv"
        assert run_cli(["wigner", "--grid-points", 41, "--dim", 31, "--alpha2", 2, "--out", out]) == 3
        assert "numerical failure: non-finite value in the sidecar" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()


# the flags each command reads, as the README lists them
_ACCEPTED = {
    "fidelity-cat": {"--alpha2", "--eta", "--gamma-t", "--steps", "--dim"},
    "fidelity-fock": {"--alpha2", "--eta", "--gamma-t", "--steps", "--dim"},
    "wigner": {
        "--alpha2", "--eta", "--mu", "--gamma-t", "--steps", "--dim", "--grid-extent", "--grid-points",
    },
    "strobo-pe": {"--alpha2", "--eta", "--mu", "--gamma-t", "--dim"},
    "qubit-protect": {"--eta", "--gamma-t", "--steps"},
    "adiabatic": {"--alpha2", "--steps", "--dim"},
}
_VALUE_FLAGS = sorted(set().union(*_ACCEPTED.values()))


class TestParser:
    def test_built_once_per_process(self, tmp_path):
        cli._parser.cache_clear()
        try:
            assert run_cli(["qubit-protect", "--steps", 3, "--out", tmp_path / "a.csv"]) == 0
            assert run_cli(["fidelity-fock", "--steps", 3, "--out", tmp_path / "b.csv"]) == 0
            assert run_cli(["strobo-pe", "--gamma-t", 0.1, "--out", tmp_path / "c.csv"]) == 0
            built = cli._parser.cache_info().misses
        finally:
            cli._parser.cache_clear()
        assert built == 1

    @pytest.mark.parametrize("command", sorted(_ACCEPTED))
    def test_command_accepts_only_the_flags_it_reads(self, command, capsys):
        assert sum(len(flags) + 2 for flags in _ACCEPTED.values()) == 41  # with --config, --out
        for flag in _VALUE_FLAGS:
            argv = [command, flag, "1", "--out", "x.csv"]
            if flag in _ACCEPTED[command]:
                assert getattr(cli._parser().parse_args(argv), flag[2:].replace("-", "_")) is not None
                continue
            with pytest.raises(SystemExit) as exit_info:
                cli._parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wigner", "adiabatic"])
    def test_alpha2_sets_only_the_state(self, command):
        args = cli._parser().parse_args([command, "--alpha2", "3", "--out", "x.csv"])
        cfg = cli._resolve(command, args)
        assert "alpha2" not in cfg
        assert cfg["state"]["alpha2"] == 3.0

    @pytest.mark.parametrize("command", ["strobo-pe", "qubit-protect", "wigner"])
    def test_eta_list_on_a_single_eta_command_exits_2(self, command, tmp_path, capsys):
        assert run_cli([command, "--eta", "0.3,0.9", "--out", tmp_path / "out.csv"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: eta: {command} takes a single value, got '0.3,0.9'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_no_flag_state_leaks_between_calls(self, tmp_path):
        flagged = ["qubit-protect", "--eta", "0.3", "--steps", 10]
        assert run_cli(flagged + ["--out", tmp_path / "a.csv"]) == 0
        assert run_cli(["qubit-protect", "--out", tmp_path / "b.csv"]) == 0
        src = str(Path(cavityfeedback.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        fresh = [sys.executable, "-m", "cavityfeedback.cli", "qubit-protect"]
        assert subprocess.run(fresh + ["--out", str(tmp_path / "c.csv")], env=env).returncode == 0
        for suffix in (".csv", ".json"):
            in_process = (tmp_path / "b").with_suffix(suffix).read_bytes()
            assert in_process == (tmp_path / "c").with_suffix(suffix).read_bytes()


class TestUndersizedBasis:
    def test_is_a_config_error(self, tmp_path, capsys):
        # the user chose a basis too small for the requested state
        assert run_cli(["wigner", "--alpha2", 20, "--dim", 63, "--out", tmp_path / "w.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: state.alpha2: ") and "enlarge the basis" in err
        assert run_cli(["fidelity-cat", "--alpha2", 20, "--dim", 63, "--out", tmp_path / "c.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: alpha2: ") and "enlarge the basis" in err


def run_captured(args):
    """Exit code and stderr of one in-process run; argparse's exit is an exit code too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def names_key(err, name):
    """Whether the message names `name` as a whole key (`eta` in `evolution.eta` counts)."""
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err) is not None


# small configs that exit 0, one per command and evolution kind
_BASES = {
    "fidelity-cat": (
        "fidelity-cat",
        {"alpha2": 2.0, "parity": "odd", "eta": [0.0, 0.5], "gamma_t": 0.5, "steps": 3, "dim": 23},
    ),
    "fidelity-fock": (
        "fidelity-fock",
        {"n": 1, "m": 3, "alpha2": 0.5, "eta": [0.5], "gamma_t": 0.5, "steps": 3, "dim": 15},
    ),
    "wigner": (
        "wigner",
        {
            "state": {"kind": "coherent", "alpha2": 0.5},
            "evolution": {"kind": "continuous", "eta": 0.5, "gamma_t": 0.1},
            "grid_extent": 3.0,
            "grid_points": 11,
            "dim": 23,
        },
    ),
    "wigner-strobo": (
        "wigner",
        {
            "state": {"kind": "coherent", "alpha2": 0.5},
            "evolution": {"kind": "strobo", "eta": 0.5, "mu": 0.5, "gamma_t_step": 0.02, "steps": 3},
            "grid_extent": 2.8,
            "grid_points": 11,
            "dim": 23,
        },
    ),
    "strobo-pe": (
        "strobo-pe",
        {"alpha2": 2.0, "eta": 0.8, "sets": [[0.5, 0.2], [0.0, 0.2]], "gamma_t": 0.4, "dim": 23},
    ),
    "qubit-protect": ("qubit-protect", {"eta": 0.5, "gamma_t": 1.0, "steps": 3, "n": 0, "m": 1}),
    "adiabatic": (
        "adiabatic",
        {
            "areas": [20.0],
            "state": {"kind": "coherent", "alpha2": 1.0},
            "steps": 1500,
            "dim": 31,
            "n_bar": 3.3,
            "gamma": 0.005,
            "gamma_e": 0.05,
        },
    ),
}
_ODD_VALUES = [
    None, True, False, "", "0.5", "nan", "x", [], [[0.5]], {},
    math.nan, math.inf, -math.inf, 10**30, -10**30, 1e300, -1e300, -1, 0,
]
# the undersized-basis message names alpha2, also when dim is the value that changed
_BASIS_KEYS = {"alpha2", "state.alpha2", "dim"}


def _file_targets(base):
    """Every key, nested key, first list entry and section of `base`, plus unknown keys."""
    targets = [("bogus",)]
    for key, val in base.items():
        targets.append((key,))
        if isinstance(val, dict):
            targets += [(key, sub) for sub in val] + [(key, "bogus")]
        if isinstance(val, list):
            targets.append((key, 0))
            if isinstance(val[0], list):
                targets += [(key, 0, j) for j in range(len(val[0]))]
    return targets


@st.composite
def one_replacement(draw):
    """A base config, one place in it (file key or flag) and the value put there."""
    name = draw(st.sampled_from(sorted(_BASES)))
    command, base = _BASES[name]
    targets = [("file", t) for t in _file_targets(base)]
    targets += [("flag", flag) for flag in sorted(_ACCEPTED[command])]
    where, target = draw(st.sampled_from(targets))
    return command, base, where, target, draw(st.sampled_from(_ODD_VALUES))


def _apply(tmp, command, base, where, target, value):
    """Run the command on `base` with one thing replaced.

    Returns the exit code, stderr, the names an exit-2 message may give, and
    the replaced keys.
    """
    cfg = copy.deepcopy(base)
    args = [command]
    if where == "file":
        node = cfg
        for step in target[:-1]:
            node = node[step]
        node[target[-1]] = value
        dotted = ".".join(t for t in target if isinstance(t, str))
        names = [dotted]
        keys = {dotted}
    else:
        text = value if isinstance(value, str) else json.dumps(value)
        args.append(f"{target}={text}")  # "=" keeps a leading "-" a value
        flag = target[2:].replace("-", "_")
        names = [flag] + (["sets"] if flag == "mu" and command == "strobo-pe" else [])
        keys = {flag, f"state.{flag}"}
    cfg_path = Path(tmp) / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, err = run_captured(args + ["--config", cfg_path, "--out", Path(tmp) / "out.csv"])
    return code, err, names, keys


class TestConfigTable:
    # extreme values overflow inside numpy on the way to an exit 0 or 3
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(case=one_replacement())
    def test_no_config_ends_in_a_traceback(self, case, tmp_path_factory):
        command, base, where, target, value = case
        code, err, names, keys = _apply(tmp_path_factory.mktemp("c"), command, base, where, target, value)
        assert code in (0, 2, 3, 4), err
        if code == 2:
            basis = "enlarge the basis" in err and keys & _BASIS_KEYS
            assert basis or any(names_key(err, name) for name in names), err

    @pytest.mark.parametrize("name", sorted(_BASES))
    def test_bases_exit_0(self, name, tmp_path):
        command, base = _BASES[name]
        (tmp_path / "cfg.json").write_text(json.dumps(base))
        code, err = run_captured([command, "--config", tmp_path / "cfg.json", "--out", tmp_path / "o.csv"])
        assert code == 0, err

    @pytest.mark.parametrize(
        "command, cfg, flags, key",
        [
            ("strobo-pe", {"sets": [[True, 0.2], ["0.5", 0.2], [0.3, 0.2, 9]]}, [], "sets"),
            ("strobo-pe", {"sets": [[True, 0.2], ["0.5", 0.2]]}, [], "sets"),
            ("strobo-pe", {"sets": [["0.5", 0.2]]}, [], "sets"),
            ("wigner", {"state": 3}, ["--alpha2", 2], "state"),
            ("wigner", {"evolution": "x"}, ["--eta", 0.5], "evolution"),
            ("strobo-pe", {"sets": 5}, ["--mu", 0.3], "sets"),
            ("qubit-protect", {"n": 10**30}, [], "n"),
            ("adiabatic", {"steps": 10**30}, [], "steps"),
            ("wigner", {"evolution": {"kind": "strobo", "steps": 3}}, ["--gamma-t", 0.5], "evolution.gamma_t"),
            ("wigner", {}, ["--eta", 0.3, "--mu", 9, "--steps", 4], "evolution.eta"),
            ("wigner", {}, ["--mu", 9], "evolution.mu"),
            ("wigner", {}, ["--steps", 4], "evolution.steps"),
            ("wigner", {"bogus": 7}, [], "bogus"),
            ("qubit-protect", {}, ["--gamma-t", "nan"], "gamma_t"),
            ("fidelity-cat", {}, ["--alpha2", "nan"], "alpha2"),
            ("strobo-pe", {"sets": [[0.1, "nan"]]}, [], "sets"),
            ("fidelity-cat", {}, ["--eta", "abc"], "eta"),
            ("adiabatic", {"n_bar": math.nan}, [], "n_bar"),
            # an odd cat of vanishing amplitude is a bad config, not a numerical failure
            ("fidelity-cat", {}, ["--alpha2", 1e-20], "alpha2"),
            ("strobo-pe", {}, ["--alpha2", 1e-20], "alpha2"),
            ("wigner", {}, ["--alpha2", 1e-20], "state.alpha2"),
            ("adiabatic", {"state": {"kind": "cat-odd", "alpha2": 1e-20}}, [], "state.alpha2"),
        ],
    )
    def test_reproduced_case_exits_2_naming_its_key(self, command, cfg, flags, key, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = [command, "--config", tmp_path / "cfg.json", *flags, "--out", tmp_path / "out.csv"]
        code, err = run_captured(args)
        assert code == 2
        assert err.startswith(f"config error: {key}: "), err
        assert not (tmp_path / "out.csv").exists()

    def test_readme_key_tables_are_the_rendered_tables(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("<!-- key tables: begin -->\n")[1].split("<!-- key tables: end -->")[0]
        assert block == key_tables()


def _describe(spec):
    """The type and range columns of one spec."""
    if spec.type == "numbers":
        return "number or list of numbers", f"non-empty, each {cli._range(spec.of)}"
    if spec.type == "rows":
        ranges = ", ".join(f"{name} {cli._range(k.spec) or 'finite'}" for name, k in spec.of.items())
        return f"list of [{', '.join(spec.of)}]", ranges
    if spec.type == "section":
        return "mapping by `kind`", "the keys of its kind, below"
    return "string" if spec.type == "choice" else spec.type, cli._range(spec) or "finite"


def _table_row(dotted, k, kinds=""):
    flags = []
    if k.flag:
        flags.append(f"`--{dotted.rpartition('.')[2].replace('_', '-')}`")
        flags[0] += " (comma list)" if k.spec.type == "numbers" else ""
    if k.spec.type == "rows":
        flags += [f"`--{name}` (every `{name}`)" for name, field in k.spec.of.items() if field.flag]
    default = "required" if k.default is None else k.default if isinstance(k.default, cli._Missing) else (
        f"`{json.dumps(k.default)}`")
    what, ranges = _describe(k.spec)
    return f"| `{dotted}`{kinds} | {what} | {ranges} | {default} | {', '.join(flags)} |"


def key_tables() -> str:
    """The key tables of the README, rendered from the CLI's command tables."""
    lines = []
    for command, (_, table) in cli._COMMANDS.items():
        lines += [f"`{command}`", "", "| key | type | range | default | flag |", "| --- | --- | --- | --- | --- |"]
        for key, k in table.items():
            lines.append(_table_row(key, k))
            if k.spec.type != "section":
                continue
            kinds = tuple(k.spec.of)
            lines.append(_table_row(f"{key}.kind", cli._Key(cli._Spec("choice", of=kinds), kinds[0])))
            groups = []  # [name, key, kinds] of a key that reads the same in several kinds
            for kind, keys in k.spec.of.items():
                for name, sub in keys.items():
                    match = next((g for g in groups if g[:2] == [name, sub]), None)
                    if match:
                        match[2].append(kind)
                    else:
                        groups.append([name, sub, [kind]])
            lines += [_table_row(f"{key}.{name}", sub, f" ({', '.join(ks)})") for name, sub, ks in groups]
        lines.append("")
    return "\n".join(lines)
