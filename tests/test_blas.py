import contextlib
import json

import numpy as np
import pytest

import cavityfeedback._blas as _blas
import cavityfeedback.continuous as continuous
import cavityfeedback.fock as fock
from cavityfeedback import CatParity, ContinuousParams, DensityMatrix, FockDim, cat_state
from cavityfeedback.cli import main
from conftest import fake_pool


def counts():
    return [pool.get() for pool in _blas.pools()]


@pytest.fixture
def rho0():
    return DensityMatrix.from_state(cat_state(np.sqrt(3.0), CatParity.ODD, FockDim(31)))


def test_finds_the_pools_of_numpy_and_scipy():
    # numpy and scipy wheels each load their own OpenBLAS; every test below
    # that reads the real pools relies on them being found
    assert len(_blas.pools()) >= 1
    assert all(n >= 1 for n in counts())
    assert _blas.pools() is _blas.pools()  # found once per process


class TestScope:
    @pytest.fixture(params=["openblas", "fake"])
    def log(self, request, monkeypatch):
        """Set-calls of the fake pool; None for the real pools, which are not logged."""
        if request.param == "openblas":
            return None
        events = []
        found = (fake_pool(3, events),)
        monkeypatch.setattr(_blas, "pools", lambda: found)
        return events

    def test_restored_after_normal_exit(self, log):
        before = counts()
        with _blas.threads(1):
            assert counts() == [1] * len(before)
        assert counts() == before
        assert log in (None, [1, 3])

    def test_restored_after_an_exception(self, log):
        before = counts()
        with pytest.raises(RuntimeError, match="inside"):
            with _blas.threads(1):
                raise RuntimeError("inside the block")
        assert counts() == before
        assert log in (None, [1, 3])

    def test_nested_scopes_restore(self, log):
        before = counts()
        with _blas.threads(2):
            with _blas.threads(1):
                assert counts() == [1] * len(before)
            assert counts() == [2] * len(before)
        assert counts() == before
        assert log in (None, [2, 1, 2, 3])


def test_band_core_runs_on_one_thread(rho0, monkeypatch):
    seen = []
    real = continuous.expm

    def spy(gen):
        seen.append(counts())
        return real(gen)

    monkeypatch.setattr(continuous, "expm", spy)
    before = counts()
    with _blas.threads(2):  # as OPENBLAS_NUM_THREADS=2 would set the pools
        continuous.fidelity_curve(rho0, ContinuousParams(1.0, 0.5), np.linspace(0.0, 1.0, 6))
        assert counts() == [2] * len(before)
    assert counts() == before
    assert seen and all(c == [1] * len(before) for c in seen)


def test_validation_keeps_the_callers_threads(rho0, monkeypatch):
    # only the band loop is capped; the stack check after it runs at the
    # count the caller set
    seen = []
    real = fock.check_density

    def spy(stack, error):
        seen.append(counts())
        return real(stack, error)

    monkeypatch.setattr(continuous, "check_density", spy)
    with _blas.threads(2):
        continuous.fidelity_curve(rho0, ContinuousParams(1.0, 0.5), np.linspace(0.0, 1.0, 6))
    assert seen == [[2] * len(_blas.pools())] * 2  # the state at t = 0, then the chunk of stepped states


def test_no_pool_is_a_no_op(monkeypatch):
    real = _blas.pools()
    before = [pool.get() for pool in real]
    monkeypatch.setattr(_blas, "pools", lambda: ())
    ran = []
    with _blas.threads(1):
        ran.append([pool.get() for pool in real])
    assert ran == [before]
    assert [pool.get() for pool in real] == before


@pytest.mark.parametrize(
    "args, cfg",
    [
        (["fidelity-cat", "--steps", 20], None),
        (["fidelity-fock", "--steps", 20], None),
        (
            ["wigner", "--grid-points", 41],
            {"evolution": {"kind": "continuous", "eta": 0.5, "gamma_t": 0.2}},
        ),
    ],
)
def test_outputs_identical_across_thread_caps(args, cfg, tmp_path):
    if cfg is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = args + ["--config", tmp_path / "cfg.json"]
    outputs = {}
    for threads in (None, 1, 2):
        out = tmp_path / f"out_{threads}.csv"
        with contextlib.nullcontext() if threads is None else _blas.threads(threads):
            assert main([str(a) for a in args + ["--out", out]]) == 0
        outputs[threads] = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    assert outputs[1] == outputs[None]
    assert outputs[2] == outputs[None]
