import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityfeedback import (
    DensityMatrix,
    FockDim,
    NumericalInvariantError,
    PulsePair,
    adiabaticity_report,
    coherent_state,
    dark_state,
    fidelity,
    fock_superposition,
    integrate_crossing,
    minimum_dark_overlap,
    standard_pulses,
)
from cavityfeedback.adiabatic import _BLOCK, _CHUNK, _integrate

AREA = 100.0
STEPS = 3000


def reference_states(pulses, roots, steps):
    """Per-step RK4 loop from |g1> in every sector: the oracle for the blocked stepper.

    Returns the states after each step, shape (steps, sectors, 3).
    """
    y = np.zeros((len(roots), 3))
    y[:, 0] = 1.0
    h = pulses.t_cross / steps
    t_nodes = np.arange(steps) * h
    g_a, om_a = pulses.values(t_nodes)
    g_b, om_b = pulses.values(t_nodes + h / 2.0)
    g_c, om_c = pulses.values(t_nodes + h)

    def deriv(state, g, om):
        gv = g * roots
        return np.stack(
            (-om * state[:, 1], om * state[:, 0] - gv * state[:, 2], gv * state[:, 1]),
            axis=1,
        )

    states = []
    for i in range(steps):
        k1 = deriv(y, g_a[i], om_a[i])
        k2 = deriv(y + 0.5 * h * k1, g_b[i], om_b[i])
        k3 = deriv(y + 0.5 * h * k2, g_b[i], om_b[i])
        k4 = deriv(y + h * k3, g_c[i], om_c[i])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


def vacuum(dim):
    return DensityMatrix.from_state(fock_superposition([(0, 1.0)], dim))


class TestDarkState:
    def test_cavity_coupling_only(self):
        assert np.array_equal(dark_state(3, 1.0, 0.0), [1.0, 0.0, 0.0])

    def test_classical_field_only(self):
        assert np.array_equal(dark_state(3, 0.0, 2.0), [0.0, 0.0, 1.0])

    def test_balanced_couplings_ground_sector(self):
        got = dark_state(0, 1.3, 1.3)
        assert np.allclose(got, [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])

    def test_no_excited_component(self):
        for n in (0, 2, 7):
            assert dark_state(n, 0.7, 1.9)[1] == 0.0

    def test_degenerate_couplings_rejected(self):
        with pytest.raises(ValueError, match="dark state undefined"):
            dark_state(2, 0.0, 0.0)


class TestPulsePair:
    def test_counterintuitive_ordering(self):
        pulses = standard_pulses(10.0, 10.0, 1.0)
        g_early, om_early = pulses.values(0.2)
        assert g_early > om_early
        g_late, om_late = pulses.values(0.8)
        assert om_late > g_late

    def test_default_geometry(self):
        pulses = standard_pulses(10.0, 12.0, 2.0)
        assert pulses.delay == 0.5
        assert pulses.width == pytest.approx(2.0 / 6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PulsePair(10.0, 10.0, 1.0, -0.1, 0.2)
        with pytest.raises(ValueError):
            PulsePair(0.0, 10.0, 1.0, 0.25, 0.2)


class TestIntegrateCrossing:
    def test_vacuum_gains_one_photon(self, dim31):
        pulses = standard_pulses(AREA, AREA, 1.0)
        final, fid, peak = integrate_crossing(vacuum(dim31), pulses, STEPS)
        assert fid >= 0.999
        assert final.elements[1, 1].real >= 0.999
        assert peak < 1e-2

    def test_coherent_field_shift(self, dim31):
        pulses = standard_pulses(AREA, AREA, 1.0)
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim31))
        final, fid, peak = integrate_crossing(rho, pulses, STEPS)
        assert fid >= 0.999
        assert peak < 1e-2
        assert abs(final.mean_photon_number() - (3.3 + 1.0)) < 0.01

    def test_superposition_coherence_preserved(self, dim31):
        pulses = standard_pulses(AREA, AREA, 1.0)
        rho = DensityMatrix.from_state(
            fock_superposition([(0, 1 / np.sqrt(2)), (1, 1 / np.sqrt(2))], dim31)
        )
        final, fid, _ = integrate_crossing(rho, pulses, STEPS)
        target = DensityMatrix.from_state(
            fock_superposition([(1, 1 / np.sqrt(2)), (2, 1 / np.sqrt(2))], dim31)
        )
        assert fid >= 0.999
        assert fidelity(final, target) >= 0.999

    def test_non_adiabatic_crossing_fails(self, dim31):
        pulses = standard_pulses(2.0, 2.0, 1.0)
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim31))
        _, fid, _ = integrate_crossing(rho, pulses, STEPS)
        assert fid < 0.9

    def test_excited_population_shrinks_with_area(self, dim31):
        rho = vacuum(dim31)
        peaks = []
        for area in (20.0, 50.0, 100.0, 200.0):
            pulses = standard_pulses(area, area, 1.0)
            _, _, peak = integrate_crossing(rho, pulses, STEPS)
            peaks.append(peak)
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_step_halving_guard(self, dim31):
        pulses = standard_pulses(AREA, AREA, 1.0)
        with pytest.raises(NumericalInvariantError, match="under step halving"):
            integrate_crossing(vacuum(dim31), pulses, steps=30)

    def test_top_level_population_rejected(self):
        dim = FockDim(3)
        rho = DensityMatrix.from_state(fock_superposition([(3, 1.0)], dim))
        with pytest.raises(Exception) as err:
            integrate_crossing(rho, standard_pulses(AREA, AREA, 1.0), STEPS)
        assert "top Fock level" in str(err.value)

    def test_fault_in_the_stepper_is_numerical(self, dim31, monkeypatch):
        import cavityfeedback.adiabatic as adiabatic

        real = adiabatic._integrate

        def scaled(*args):
            final, peak_e = real(*args)
            return 1.01 * final, peak_e

        monkeypatch.setattr(adiabatic, "_integrate", scaled)
        with pytest.raises(NumericalInvariantError, match="trace"):
            integrate_crossing(vacuum(dim31), standard_pulses(AREA, AREA, 1.0), STEPS)

    def test_unitarity_norm_drift(self):
        pulses = standard_pulses(AREA, AREA, 1.0)
        final = _integrate(pulses, 32, 2 * STEPS, np.zeros(32))[0]
        assert np.max(np.abs(np.sum(final**2, axis=1) - 1.0)) < 1e-9

    def test_adiabatic_amplitudes_concentrate_on_transfer(self):
        pulses = standard_pulses(AREA, AREA, 1.0)
        final = _integrate(pulses, 8, STEPS, np.zeros(8))[0]
        assert np.min(final[:, 2] ** 2) > 0.999


class TestDarkStateTracking:
    def test_overlap_stays_high_in_deep_adiabatic_regime(self):
        pulses = standard_pulses(300.0, 300.0, 1.0)
        for n in (0, 1, 4, 7):
            assert minimum_dark_overlap(pulses, n, STEPS) >= 0.999

    def test_dark_states_along_a_pulse(self):
        pulses = standard_pulses(AREA, AREA, 1.0)
        g, om = pulses.values(np.linspace(0.0, 1.0, 7))
        along = dark_state(2, g, om)
        for i in range(7):
            assert np.array_equal(along[:, i], dark_state(2, float(g[i]), float(om[i])))
        with pytest.raises(ValueError, match="dark state undefined"):
            dark_state(2, np.array([1.0, 0.0]), np.array([1.0, 0.0]))


@st.composite
def crossings(draw):
    """Pulse area, sector count and a step count at which classical RK4 is stable.

    The sector generators have eigenvalues up to area sqrt(1 + n_sectors) in
    magnitude; RK4 is stable on the imaginary axis up to 2 sqrt(2) per step.
    """
    area = draw(st.floats(1.0, 300.0))
    n_sectors = draw(st.integers(1, 40))
    fewest = int(np.ceil(area * np.sqrt(1.0 + n_sectors) / 2.0))
    steps = draw(st.integers(max(fewest, 2), fewest + 2 * _CHUNK))
    return area, n_sectors, steps


class TestBlockedStepper:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(crossing=crossings(), seed=st.integers(0, 2**32 - 1))
    @example(crossing=(1.0, 1, 2), seed=0)  # fewer steps than one block
    @example(crossing=(20.0, 3, _CHUNK - 1), seed=1)  # just under one chunk
    @example(crossing=(300.0, 40, 7 * _CHUNK + _BLOCK + 5), seed=2)  # ragged last chunk
    def test_matches_per_step_loop(self, crossing, seed):
        area, n_sectors, steps = crossing
        rng = np.random.default_rng(seed)
        weights = rng.random(n_sectors)
        weights /= weights.sum()
        n = int(rng.integers(n_sectors))
        pulses = standard_pulses(area, area, 1.0)
        roots = np.sqrt(np.arange(1, n_sectors + 1, dtype=float))
        ref = reference_states(pulses, roots, steps)
        final, peak_e = _integrate(pulses, n_sectors, steps, weights)
        assert np.max(np.abs(final - ref[-1])) <= 1e-12
        assert abs(peak_e - np.max(ref[:, :, 1] ** 2 @ weights)) <= 1e-12
        # dark-state overlap of sector n after each step, at the pulses of the step's end
        h = pulses.t_cross / steps
        g, om = pulses.values(np.arange(steps) * h + h)
        big_g = g * roots[n]
        dark = np.stack((big_g, 0.0 * big_g, om), axis=1) / np.sqrt(big_g**2 + om**2)[:, None]
        y = ref[:, n]
        worst = min(1.0, np.min(np.sum(dark * y, axis=1) ** 2 / np.sum(y * y, axis=1)))
        assert abs(minimum_dark_overlap(pulses, n, steps) - worst) <= 1e-12

    def test_step_count_validation(self):
        pulses = standard_pulses(AREA, AREA, 1.0)
        with pytest.raises(ValueError):
            minimum_dark_overlap(pulses, 0, 0)
        with pytest.raises(ValueError):
            minimum_dark_overlap(pulses, -1, 10)


class TestAdiabaticityReport:
    def test_separated_scales_pass(self):
        pulses = standard_pulses(100.0, 100.0, 1.0)
        checks = adiabaticity_report(pulses, n_bar=3.3, gamma=0.001, gamma_e=0.01)
        assert [c.status for c in checks] == ["pass"] * 4

    def test_weak_drive_fails(self):
        pulses = standard_pulses(5.0, 100.0, 1.0)
        checks = adiabaticity_report(pulses, n_bar=1.0, gamma=0.001, gamma_e=0.01)
        by_name = {c.name: c for c in checks}
        assert by_name["g_max vs crossing rate"].status == "fail"
        assert [c.status for c in checks].count("pass") == 3

    def test_exact_equality_is_marginal(self):
        pulses = standard_pulses(10.0, 100.0, 1.0)
        checks = adiabaticity_report(pulses, n_bar=1.0, gamma=0.001, gamma_e=0.01)
        by_name = {c.name: c for c in checks}
        assert by_name["g_max vs crossing rate"].ratio == 10.0
        assert by_name["g_max vs crossing rate"].status == "marginal"
        assert [c.status for c in checks].count("pass") == 3

    @pytest.mark.parametrize("rates", [(np.nan, 0.001, 0.01), (3.3, np.nan, 0.01), (3.3, 0.001, np.nan)])
    def test_nan_rate_raises(self, rates):
        pulses = standard_pulses(100.0, 100.0, 1.0)
        with pytest.raises(ValueError, match="must be a finite number > 0, got nan"):
            adiabaticity_report(pulses, *rates)
