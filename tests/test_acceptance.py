"""End-to-end acceptance criteria, one test per criterion.

Every test pins the tolerance it asserts and prints a single summary line,
so `pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
"""
import numpy as np
import pytest

import cavityfeedback as cf
from cavityfeedback.cli import main as cli_main
from cavityfeedback.strobo import _step_matrices
from conftest import random_density, random_parity_density, stationary_state
from test_strobo import dense_step


def report(number, description, worst, tolerance, passed=None):
    ok = bool(worst <= tolerance) if passed is None else bool(passed)
    label = "PASS" if ok else "FAIL"
    print(f"acceptance {number:02d} [{label}] {description}: {worst:.3e} (tol {tolerance:.0e})")
    assert ok, f"criterion {number}: {worst} exceeds {tolerance}"


def odd_cat(alpha2, dim):
    return cf.DensityMatrix.from_state(cf.cat_state(np.sqrt(alpha2), cf.CatParity.ODD, dim))


def test_01_cat_fidelity_analytic_vs_numeric(dim63):
    rho0 = odd_cat(5.0, dim63)
    params = cf.ContinuousParams(1.0, 0.0)
    worst = 0.0
    for gt in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
        numeric = cf.fidelity(rho0, cf.evolve_continuous(rho0, params, gt))
        analytic = cf.cat_fidelity_analytic(5.0, cf.CatParity.ODD, 1.0, gt)
        worst = max(worst, abs(numeric - analytic))
    report(1, "odd-cat no-feedback fidelity vs closed form", worst, 1e-6)


def test_02_ideal_feedback_decay_law():
    worst = 0.0
    for seed in (0, 1, 2):
        rho0 = random_density(31, 26, seed)
        evolved = cf.evolve_continuous(rho0, cf.ContinuousParams(1.0, 1.0), 0.8)
        oracle = cf.ideal_offdiagonal_decay(rho0, 1.0, 0.8)
        worst = max(worst, float(np.max(np.abs(evolved.elements - oracle.elements))))
        worst = max(
            worst, float(np.max(np.abs(np.diag(evolved.elements) - np.diag(rho0.elements))))
        )
    report(2, "ideal-detection evolution vs sqrt decay law", worst, 1e-9)


def test_03_dominance_inequality():
    n = np.arange(64, dtype=float)
    gap_sq = (np.sqrt(n)[:, None] - np.sqrt(n)[None, :]) ** 2
    gap_std = (n[:, None] - n[None, :]) ** 2
    algebra_ok = bool(np.all(gap_std >= gap_sq))
    elementwise_ok = True
    for seed in (3, 4):
        rho0 = random_density(63, 50, seed)
        slow = cf.ideal_offdiagonal_decay(rho0, 1.0, 0.7)
        fast = cf.standard_phase_diffusion(rho0, 1.0, 0.7)
        elementwise_ok &= bool(np.all(np.abs(slow.elements) >= np.abs(fast.elements) - 1e-15))
    report(
        3,
        "sqrt phase diffusion dominates the standard one",
        0.0,
        0.0,
        passed=algebra_ok and elementwise_ok,
    )


def test_04_fock_superposition_fidelity_family(dim63):
    rho0 = cf.DensityMatrix.from_state(
        cf.fock_superposition([(2, 1 / np.sqrt(3)), (4, np.sqrt(2.0 / 3.0))], dim63)
    )
    worst = 0.0
    times = np.linspace(0.0, 2.0, 11)
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        params = cf.ContinuousParams(1.0, eta)
        curve = cf.fidelity_curve(rho0, params, times)
        for t, numeric in zip(times, curve.fidelity):
            analytic = cf.fock_fidelity_analytic(1 / 3, 2 / 3, 2, 4, params, t)
            worst = max(worst, abs(numeric - analytic))
    report(4, "two-level Fock superposition fidelity family", worst, 1e-6)


def test_05_qubit_threshold_location():
    found = cf.threshold_eta()
    exact = 2.0 * (np.sqrt(2.0) - 1.0)
    jump_ok = cf.optimal_n(found - 1e-9) == 0 and cf.optimal_n(found + 1e-9) == 1
    report(5, "optimal photon number jump location", abs(found - exact), 1e-10, passed=(abs(found - exact) <= 1e-10 and jump_ok))


def test_06_stroboscopic_fixed_point(dim31):
    cases = [
        (cf.StroboParams(1.0, np.pi / 2, 0.02), 3000),
        (cf.StroboParams(0.4, np.pi / 6, 0.2), 800),
        (cf.StroboParams(0.4, np.pi / 2, 0.02), 3000),
    ]
    worst = 0.0
    eig_ok = True
    for params, steps in cases:
        rho = cf.evolve_strobo(odd_cat(3.3, dim31), params, steps).state
        target = cf.analytic_stationary_state(params, dim31)
        worst = max(worst, cf.trace_distance(rho, target))
        eigvec_state = stationary_state(params, dim31)
        worst = max(worst, cf.trace_distance(eigvec_state, target))
    first = cf.analytic_stationary_state(cf.StroboParams(1.0, np.pi / 2, 0.02), dim31)
    pe_ok = abs(first.elements[1, 1].real - np.exp(-0.02)) < 1e-12
    report(6, "iterated map and step-matrix fixed points", worst, 1e-8, passed=(worst <= 1e-8 and eig_ok and pe_ok))


def test_07_no_feedback_sequence_consistency(dim31):
    gt = 0.1
    seq = cf.run_sequence(odd_cat(3.3, dim31), cf.StroboParams(0.4, 0.0, gt), steps=15)
    worst = max(abs(p_e - cf.p_ee_analytic(3.3, step * gt)) for step, p_e in enumerate(seq.p_e))
    worst = max(worst, abs(seq.p_e[0] - 1.0))
    report(7, "no-feedback sequence vs closed-form detection curve", worst, 1e-8)


def test_08_band_matrix_equivalence(dim31):
    params = cf.StroboParams(0.55, np.pi / 5, 0.04)
    rho = random_parity_density(31, 26, seed=5)
    mats = {p: m.real for p, m in _step_matrices(params, dim31).items()}  # the even bands
    bands = {p: np.diagonal(rho.elements, offset=p).copy() for p in mats}  # rho has no odd band
    direct = rho.elements
    for _ in range(50):
        direct = dense_step(direct, params)
        bands = {p: mats[p] @ v for p, v in bands.items()}
    rebuilt = np.zeros((32, 32), dtype=complex)
    for p in mats:
        idx = np.arange(32 - p)
        rebuilt[idx, idx + p] = bands[p]
        if p:
            rebuilt[idx + p, idx] = np.conj(bands[p])
    worst = float(np.max(np.abs(rebuilt - direct)))
    radius_ok = True
    for m in mats.values():
        radius_ok &= bool(np.max(np.abs(np.linalg.eigvals(m))) <= 1.0 + 1e-10)
    unit = np.abs(np.linalg.eigvals(mats[0]) - 1.0) < 1e-10
    report(
        8,
        "fifty steps by band matrices vs the dense Kraus map",
        worst,
        1e-10,
        passed=(worst <= 1e-10 and radius_ok and int(np.sum(unit)) == 1),
    )


def test_09_parity_sector_closure(dim31):
    rho = odd_cat(3.3, dim31)
    params = cf.StroboParams(0.4, np.pi / 6, 0.02)
    worst = 0.0
    n = np.arange(32)
    odd_band = ((n[:, None] + n[None, :]) % 2 == 1)
    for _ in range(100):
        rho = cf.evolve_strobo(rho, params, 1).state
        worst = max(worst, float(np.max(np.abs(rho.elements[odd_band]))))
    report(9, "odd off-diagonal bands stay empty over 100 steps", worst, 1e-13)


def test_10_wigner_diagnostics(dim63):
    grid = cf.default_cartesian_grid()
    centre = 60
    vac = cf.DensityMatrix.from_state(cf.fock_superposition([(0, 1.0)], dim63))
    dev_vac = abs(cf.wigner_function(vac, grid).values[centre, centre] - 2.0 / np.pi)

    dev_parity = 0.0
    for seed in (6, 7):
        rho = random_density(31, 13, seed)
        small = cf.default_cartesian_grid(extent=6.5, points=131)
        wg = cf.wigner_function(rho, small)
        dev_parity = max(
            dev_parity,
            abs(wg.values[65, 65] - (2.0 / np.pi) * cf.parity_expectation(rho)),
        )

    coh = cf.DensityMatrix.from_state(cf.coherent_state(2.0, dim63))
    wg = cf.wigner_function(coh, grid)
    xg, yg = np.meshgrid(grid.x, grid.y, indexing="ij")
    gauss = (2.0 / np.pi) * np.exp(-2.0 * ((xg - 2.0) ** 2 + yg**2))
    dev_gauss = float(np.max(np.abs(wg.values - gauss)))

    cat = odd_cat(5.0, dim63)
    v0 = cf.fringe_visibility(cf.wigner_function(cat, grid))
    kept = cf.evolve_continuous(cat, cf.ContinuousParams(1.0, 1.0), 0.2)
    lost = cf.evolve_continuous(cat, cf.ContinuousParams(1.0, 0.0), 0.2)
    v_kept = cf.fringe_visibility(cf.wigner_function(kept, grid))
    v_lost = cf.fringe_visibility(cf.wigner_function(lost, grid))
    fringe_ok = (abs(v_kept - v0) / v0 <= 0.10) and (v_lost < 0.20 * v0)

    passed = dev_vac <= 1e-10 and dev_parity <= 1e-8 and dev_gauss <= 1e-6 and fringe_ok
    report(
        10,
        "Wigner origin, parity identity, Gaussian and fringe contrast",
        dev_vac,
        1e-10,
        passed=passed,
    )


def test_11_semiclassical_diffusion_scaling():
    errors = []
    for nbar, n_max in ((4.0, 63), (9.0, 63), (16.0, 95), (25.0, 127)):
        dim = cf.FockDim(n_max)
        rho = cf.DensityMatrix.from_state(cf.coherent_state(np.sqrt(nbar), dim))
        grid = cf.default_polar_grid(np.sqrt(nbar) + 3.0, n_r=61, n_theta=512)
        gen = cf.sqrt_diffusion_generator_wigner(rho, grid)
        w = cf.wigner_function(rho, grid)
        vals = w.values[:, :-1]
        dth = grid.theta[1] - grid.theta[0]
        second = (np.roll(vals, -1, axis=1) - 2 * vals + np.roll(vals, 1, axis=1)) / dth**2
        semi = second / (4.0 * nbar)
        gv = gen.values[:, :-1]
        weight = np.sqrt(grid.r)[:, None]
        errors.append(
            float(np.linalg.norm((gv - semi) * weight) / np.linalg.norm(gv * weight))
        )
    monotone = all(a > b for a, b in zip(errors, errors[1:]))

    nbar = 25.0
    rho = cf.DensityMatrix.from_state(cf.coherent_state(np.sqrt(nbar), cf.FockDim(127)))
    amp_dev = 0.0
    for gt in (0.25, 0.5, 1.0):
        exact = cf.mean_amplitude_ideal(rho, 1.0, gt)
        semi = np.exp(-gt / (8.0 * nbar)) * np.sqrt(nbar)
        amp_dev = max(amp_dev, abs(exact - semi) / abs(semi))
    report(
        11,
        "semiclassical diffusion trend and slow amplitude decay",
        amp_dev,
        5e-2,
        passed=(monotone and amp_dev <= 0.05),
    )


def test_12_adiabatic_transfer(dim31):
    pulses = cf.standard_pulses(100.0, 100.0, 1.0)
    steps = 3000
    inputs = [
        cf.DensityMatrix.from_state(cf.fock_superposition([(0, 1.0)], dim31)),
        cf.DensityMatrix.from_state(
            cf.fock_superposition([(0, 1 / np.sqrt(2)), (1, 1 / np.sqrt(2))], dim31)
        ),
        cf.DensityMatrix.from_state(cf.coherent_state(np.sqrt(3.3), dim31)),
    ]
    worst_fid = 1.0
    worst_peak = 0.0
    for rho in inputs:
        _, fid, peak = cf.integrate_crossing(rho, pulses, steps)
        worst_fid = min(worst_fid, fid)
        worst_peak = max(worst_peak, peak)
    rough = cf.standard_pulses(2.0, 2.0, 1.0)
    _, fid_rough, _ = cf.integrate_crossing(inputs[2], rough, steps)
    passed = worst_fid >= 0.999 and worst_peak < 1e-2 and fid_rough < 0.9
    report(
        12,
        "adiabatic transfer quality and non-adiabatic contrast",
        1.0 - worst_fid,
        1e-3,
        passed=passed,
    )


def test_13_sequence_orderings(dim31):
    rho0 = odd_cat(3.3, dim31)
    sets = [(np.pi / 6, 0.02), (np.pi / 2, 0.02), (np.pi / 2, 0.2), (np.pi / 6, 0.2)]

    def curve(eta, mu, gamma_t):
        steps = int(round(2.0 / gamma_t)) + 1
        seq = cf.run_sequence(rho0, cf.StroboParams(eta, mu, gamma_t), steps)
        return {round(step * gamma_t, 10): p_e for step, p_e in enumerate(seq.p_e)}

    fams = {(eta, mu, gt): curve(eta, mu, gt) for eta in (1.0, 0.4) for mu, gt in sets}
    common = [round(0.2 * k, 10) for k in range(11)]
    ok_interval = all(
        fams[(eta, mu, 0.02)][t] >= fams[(eta, mu, 0.2)][t] - 1e-12
        for eta in (1.0, 0.4)
        for mu in (np.pi / 6, np.pi / 2)
        for t in common
    )
    ok_eta = all(
        fams[(1.0, mu, gt)][t] >= fams[(0.4, mu, gt)][t] - 1e-12
        for mu, gt in sets
        for t in fams[(1.0, mu, gt)]
    )
    ok_feedback = all(
        pe >= cf.p_ee_analytic(3.3, t) - 1e-12
        for eta in (1.0, 0.4)
        for mu, gt in sets
        for t, pe in fams[(eta, mu, gt)].items()
        if t <= 1.0
    )
    report(
        13,
        "detection-probability curve orderings",
        0.0,
        0.0,
        passed=ok_interval and ok_eta and ok_feedback,
    )


def test_14_cli_determinism(tmp_path):
    args = [
        "fidelity-cat",
        "--alpha2",
        "3.3",
        "--dim",
        "31",
        "--steps",
        "8",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same_csv = out1.read_bytes() == out2.read_bytes()
    same_sidecar = (
        out1.with_suffix(".json").read_text() == out2.with_suffix(".json").read_text()
    )
    wout1, wout2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    wargs = ["wigner", "--grid-points", "41", "--grid-extent", "4.5", "--dim", "31", "--alpha2", "3.3"]
    assert cli_main(wargs + ["--out", str(wout1)]) == 0
    assert cli_main(wargs + ["--out", str(wout2)]) == 0
    same_wigner = wout1.read_bytes() == wout2.read_bytes()
    report(
        14,
        "identical configs give byte-identical outputs",
        0.0,
        0.0,
        passed=same_csv and same_sidecar and same_wigner,
    )
