import json
import sys
import types

import numpy as np
import pytest

import cavityfeedback.continuous as continuous
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

    def test_sidecar_echo_reproduces_run(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["strobo-pe", "--gamma-t", 0.4, "--out", out1]) == 0
        # feed the sidecar back in as the config file
        assert run_cli(["strobo-pe", "--config", out1.with_suffix(".json"), "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFailureClasses:
    @pytest.mark.parametrize(
        "args",
        [
            ["fidelity-cat", "--steps", 4],
            ["fidelity-fock", "--steps", 4],
            ["wigner", "--gamma-t", 0.2, "--grid-points", 11],
        ],
    )
    def test_fault_after_the_continuous_map_exits_3(self, args, tmp_path, monkeypatch, capsys):
        # a propagator 1% too large breaks trace conservation after the map;
        # that is a numerical failure, not a config error
        real_expm = continuous.expm
        monkeypatch.setattr(continuous, "expm", lambda a: 1.01 * real_expm(a))
        if args[0] == "wigner":
            cfg = {"evolution": {"kind": "continuous", "eta": 0.5}}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = args + ["--config", tmp_path / "cfg.json"]
        assert run_cli(args + ["--out", tmp_path / "out.csv"]) == 3
        assert "numerical failure: trace" in capsys.readouterr().err


class TestThreads:
    ARGS = ["fidelity-fock", "--steps", 3, "--eta", "0.5"]

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5"])
    def test_bad_value_exits_2(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("THREADS", value)
        assert run_cli(self.ARGS + ["--out", tmp_path / "f.csv"]) == 2
        assert "config error: THREADS" in capsys.readouterr().err

    def test_cap_without_threadpoolctl_is_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("THREADS", raising=False)
        assert run_cli(self.ARGS + ["--out", tmp_path / "a.csv"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("THREADS", "2")
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
        assert run_cli(self.ARGS + ["--out", tmp_path / "b.csv"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["THREADS=2 not applied: threadpoolctl is not installed"]
        for suffix in (".csv", ".json"):
            a = (tmp_path / "a").with_suffix(suffix).read_bytes()
            assert a == (tmp_path / "b").with_suffix(suffix).read_bytes()

    def test_cap_applied_and_released(self, tmp_path, monkeypatch, capsys):
        events = []

        class Limiter:
            def unregister(self):
                events.append("released")

        def threadpool_limits(limits):
            events.append(limits)
            return Limiter()

        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = threadpool_limits
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        monkeypatch.setenv("THREADS", "3")
        assert run_cli(self.ARGS + ["--out", tmp_path / "f.csv"]) == 0
        assert events == [3, "released"]
        assert capsys.readouterr().err == ""
