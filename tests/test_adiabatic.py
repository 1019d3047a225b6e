import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityfeedback import (
    CatParity,
    DensityMatrix,
    FockDim,
    NumericalInvariantError,
    PulsePair,
    adiabaticity_report,
    cat_state,
    coherent_state,
    fidelity,
    fock_superposition,
    integrate_crossing,
    standard_pulses,
)
from cavityfeedback.adiabatic import _CHUNK_BYTES, _block, _crossing, _step_polynomials

AREA = 100.0
STEPS = 3000


def reference_states(pulses, roots, steps, start=None):
    """Per-step RK4 loop from |g1> in every sector: the oracle for the blocked stepper.

    `start`, shape (sectors, 3), replaces |g1> as the initial states.
    Returns the states after each step, shape (steps, sectors, 3).
    """
    y = np.zeros((len(roots), 3))
    y[:, 0] = 1.0
    if start is not None:
        y = np.array(start, dtype=float)
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


def one_photon_up(rho):
    """The ideal crossing's output: every element rho_nm moved to rho_{n+1,m+1}."""
    shifted = np.zeros_like(rho.elements)
    shifted[1:, 1:] = rho.elements[:-1, :-1]
    return DensityMatrix.from_map(shifted[None], rho.dim)


_DIM31 = FockDim(31)
_FIELDS = {
    "vacuum": lambda: vacuum(_DIM31),
    "fock-3": lambda: DensityMatrix.from_state(fock_superposition([(3, 1.0)], _DIM31)),
    "coherent": lambda: DensityMatrix.from_state(coherent_state(np.sqrt(3.3), _DIM31)),
    "cat-even": lambda: DensityMatrix.from_state(cat_state(np.sqrt(3.3), CatParity.EVEN, _DIM31)),
    "cat-odd": lambda: DensityMatrix.from_state(cat_state(np.sqrt(3.3), CatParity.ODD, _DIM31)),
    "complex-superposition": lambda: DensityMatrix.from_state(
        fock_superposition([(0, 0.6), (2, 0.48j), (5, -0.64)], _DIM31)
    ),
    "mixed": lambda: DensityMatrix.from_map(
        (
            0.5 * vacuum(_DIM31).elements
            + 0.5 * DensityMatrix.from_state(coherent_state(1.5j, _DIM31)).elements
        )[None],
        _DIM31,
    ),
}


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

    def test_an_unstable_coarse_run_fails_the_halving_check(self, dim31):
        # at area 800 the coarse run of 1000 RK4 steps overflows: its NaN fidelity
        # must fail the halving check, without a numpy warning on the way
        pulses = standard_pulses(800.0, 800.0, 1.0)
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim31))
        message = r"^transfer fidelity moved by nan under step halving$"
        with pytest.raises(NumericalInvariantError, match=message):
            integrate_crossing(rho, pulses, 1000)

    @pytest.mark.parametrize("steps", [300, 500])
    def test_a_stable_under_resolved_crossing_asks_for_more_steps(self, dim31, steps):
        # RK4 is stable here, so step halving moves the fidelity by less than 1e-6,
        # but the finer run's norm drifts past the trace tolerance of a state
        pulses = standard_pulses(AREA, AREA, 1.0)
        message = rf"^trace deviates from 1 by .* after the crossing: steps = {steps} .* raise steps$"
        with pytest.raises(NumericalInvariantError, match=message):
            integrate_crossing(vacuum(dim31), pulses, steps)

    def test_top_level_population_rejected(self):
        dim = FockDim(3)
        rho = DensityMatrix.from_state(fock_superposition([(3, 1.0)], dim))
        with pytest.raises(Exception) as err:
            integrate_crossing(rho, standard_pulses(AREA, AREA, 1.0), STEPS)
        assert "top Fock level" in str(err.value)

    def test_fault_in_the_stepper_is_numerical(self, dim31, monkeypatch):
        import cavityfeedback.adiabatic as adiabatic

        real = adiabatic._crossing

        def scaled(*args):  # both runs of the halving check see the fault
            final, peak_e = real(*args)
            return 1.01 * final, peak_e

        monkeypatch.setattr(adiabatic, "_crossing", scaled)
        with pytest.raises(NumericalInvariantError, match="trace"):
            integrate_crossing(vacuum(dim31), standard_pulses(AREA, AREA, 1.0), STEPS)

    @pytest.mark.parametrize("field", sorted(_FIELDS))
    def test_every_field_state_moves_up_by_one_photon(self, field):
        # the scheme's promise: the atom hands the field exactly one photon and
        # keeps its coherences, for pure, mixed and complex states alike
        rho = _FIELDS[field]()
        final, fid, peak = integrate_crossing(rho, standard_pulses(AREA, AREA, 1.0), STEPS)
        target = one_photon_up(rho)
        # both fidelities are the overlap Tr(rho_out rho_target), at most the purity
        purity = np.sum(np.abs(rho.elements) ** 2)
        assert fid >= 0.999 * purity
        assert fidelity(final, target) >= 0.999 * purity
        assert peak < 1e-2
        assert np.max(np.abs(final.elements - target.elements)) < 1e-3
        assert abs(final.mean_photon_number() - rho.mean_photon_number() - 1.0) < 1e-3

    def test_the_finer_run_is_returned(self, dim31):
        pulses = standard_pulses(AREA, AREA, 1.0)
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim31))
        final, fid, peak = integrate_crossing(rho, pulses, STEPS)
        populations = np.real(np.diag(rho.elements))

        def joint_map(amplitudes):  # rho_nm b_n b_m + rho_nm c_n c_m, plus the shifted rho_nm a_n a_m
            b, c, a = amplitudes.T
            out = rho.elements * np.outer(b, b) + rho.elements * np.outer(c, c)
            out[1:, 1:] += (rho.elements * np.outer(a, a))[:-1, :-1]
            return out

        fine, fine_peak = _crossing(pulses, dim31.size, 2 * STEPS, populations)
        coarse, _ = _crossing(pulses, dim31.size, STEPS)
        assert peak == fine_peak
        assert fid == pytest.approx(fine[:, 2] @ np.abs(rho.elements) ** 2 @ fine[:, 2], abs=1e-15)
        assert np.max(np.abs(final.elements - joint_map(fine))) <= 1e-15
        assert np.max(np.abs(final.elements - joint_map(coarse))) > 1e-12

    def test_the_halving_check_makes_one_coarse_and_one_weighted_call(self, dim31, monkeypatch):
        import cavityfeedback.adiabatic as adiabatic

        real, calls = adiabatic._crossing, []

        def spy(pulses, n_sectors, steps, weights=None):
            calls.append((n_sectors, steps, weights))
            return real(pulses, n_sectors, steps, weights)

        monkeypatch.setattr(adiabatic, "_crossing", spy)
        rho = DensityMatrix.from_state(coherent_state(np.sqrt(3.3), dim31))
        integrate_crossing(rho, standard_pulses(AREA, AREA, 1.0), STEPS)
        assert [(n, steps) for n, steps, _ in calls] == [(dim31.size, STEPS), (dim31.size, 2 * STEPS)]
        assert calls[0][2] is None
        assert np.array_equal(calls[1][2], np.real(np.diag(rho.elements)))

    def test_unitarity_norm_drift(self):
        pulses = standard_pulses(AREA, AREA, 1.0)
        final = _crossing(pulses, 32, 2 * STEPS, np.zeros(32))[0]
        assert np.max(np.abs(np.sum(final**2, axis=1) - 1.0)) < 1e-9

    def test_adiabatic_amplitudes_concentrate_on_transfer(self):
        pulses = standard_pulses(AREA, AREA, 1.0)
        final = _crossing(pulses, 8, STEPS, np.zeros(8))[0]
        assert np.min(final[:, 2] ** 2) > 0.999


class TestDarkStateFollowing:
    """In sector n the dark state cos|g1, n+1> - sin|g2, n> has no excited part.

    A crossing that follows it keeps |e> empty and ends in |g2>: the
    photon-number sectors of the field are followed one by one.
    """

    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_deep_adiabatic_sector_keeps_the_excited_state_empty(self, n):
        weights = np.zeros(8)
        weights[n] = 1.0
        final, peak_e = _crossing(standard_pulses(300.0, 300.0, 1.0), 8, STEPS, weights)
        assert peak_e < 1e-3
        assert final[n, 2] ** 2 > 0.9999

    @pytest.mark.parametrize("g_max, omega_max", [(100.0, 300.0), (300.0, 100.0), (200.0, 100.0)])
    def test_unequal_peak_couplings_still_transfer(self, g_max, omega_max):
        final, peak_e = _crossing(standard_pulses(g_max, omega_max, 1.0), 8, STEPS, np.full(8, 1.0 / 8))
        assert peak_e < 1e-2
        assert np.min(final[:, 2] ** 2) > 0.995


@st.composite
def crossings(draw):
    """Pulse area, sector count and a step count at which classical RK4 is stable.

    The sector generators have eigenvalues up to area sqrt(1 + n_sectors) in
    magnitude; RK4 is stable on the imaginary axis up to 2 sqrt(2) per step.
    """
    area = draw(st.floats(1.0, 300.0))
    n_sectors = draw(st.integers(1, 40))
    fewest = int(np.ceil(area * np.sqrt(1.0 + n_sectors) / 2.0))
    steps = draw(st.integers(max(fewest, 2), fewest + 2 * _block(n_sectors) ** 2))
    return area, n_sectors, steps


class TestBlockedStepper:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(crossing=crossings(), seed=st.integers(0, 2**32 - 1))
    @example(crossing=(1.0, 1, 2), seed=0)  # fewer steps than one block
    @example(crossing=(20.0, 3, _block(3) ** 2 - 1), seed=1)  # just under one chunk
    @example(crossing=(300.0, 40, 7 * _block(40) ** 2 + _block(40) + 5), seed=2)  # ragged last chunk
    def test_matches_per_step_loop(self, crossing, seed):
        area, n_sectors, steps = crossing
        rng = np.random.default_rng(seed)
        weights = rng.random(n_sectors)
        weights /= weights.sum()
        pulses = standard_pulses(area, area, 1.0)
        roots = np.sqrt(np.arange(1, n_sectors + 1, dtype=float))
        ref = reference_states(pulses, roots, steps)
        final, peak_e = _crossing(pulses, n_sectors, steps, weights)
        assert np.max(np.abs(final - ref[-1])) <= 1e-12
        assert abs(peak_e - np.max(ref[:, :, 1] ** 2 @ weights)) <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        g_max=st.floats(1.0, 300.0),
        omega_max=st.floats(1.0, 300.0),
        t_cross=st.floats(0.5, 2.0),
        delay=st.floats(0.0, 1.0),
        width=st.floats(0.25, 1.0),
        n_sectors=st.integers(1, 40),
        extra=st.integers(0, 200),
    )
    def test_step_matrices_match_one_reference_step(
        self, g_max, omega_max, t_cross, delay, width, n_sectors, extra
    ):
        # delay and width as fractions of t_cross keep both pulses well above 0 at t = 0
        pulses = PulsePair(g_max, omega_max, t_cross, delay * t_cross + 1e-3, width * t_cross)
        steps = int(np.ceil(max(g_max, omega_max) * t_cross * np.sqrt(1.0 + n_sectors))) + extra
        h = t_cross / steps
        sectors = np.arange(1.0, n_sectors + 1)
        coef = _step_polynomials(pulses, np.zeros(1), np.full(1, h))[..., 0]
        got = np.einsum("sp,pij->sij", sectors[:, None] ** np.arange(3), coef)
        scale = np.ones((n_sectors, 3))
        scale[:, 2] = np.sqrt(sectors)
        got = got * scale[:, :, None] / scale[:, None, :]  # back from u = (y0, y1, y2 / sqrt(s))
        # the first reference step applied to the identity: sector s, column j at row 3 s + j
        roots = np.repeat(np.sqrt(sectors), 3)
        ref = reference_states(pulses, roots, steps, np.tile(np.eye(3), (n_sectors, 1)))
        want = ref[0].reshape(n_sectors, 3, 3).transpose(0, 2, 1)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize(
        "area, n_sectors, steps",
        [
            (2.0, 1, _block(1) - 1),  # fewer steps than one block
            (2.0, 40, _block(40) - 1),
            (100.0, 1, 3 * _block(1) ** 2 + _block(1) + 5),  # ragged last chunk
            (300.0, 40, 7 * _block(40) ** 2 + _block(40) + 5),
        ],
    )
    def test_final_state_path_matches_per_step_loop(self, area, n_sectors, steps):
        pulses = standard_pulses(area, area, 1.0)
        final, peak_e = _crossing(pulses, n_sectors, steps)
        ref = reference_states(pulses, np.sqrt(np.arange(1.0, n_sectors + 1)), steps)
        assert final.shape == (n_sectors, 3)
        assert peak_e is None
        assert np.max(np.abs(final - ref[-1])) <= 1e-12

    @pytest.mark.parametrize("n_sectors", [32, 128])
    def test_chunks_stay_within_the_byte_budget(self, n_sectors, monkeypatch):
        import cavityfeedback.adiabatic as adiabatic

        real, held = adiabatic._step_polynomials, []

        def spy(pulses, t, h):
            coef = real(pulses, t, h)
            # the chunk's step matrices, 72 bytes per step and sector, and the
            # RK4 build's ten coefficient arrays
            held.append(72 * n_sectors * t.size + 10 * coef.nbytes)
            return coef

        monkeypatch.setattr(adiabatic, "_step_polynomials", spy)
        pulses = standard_pulses(AREA, AREA, 1.0)
        _crossing(pulses, n_sectors, STEPS, np.zeros(n_sectors))
        assert len(held) > 1
        assert max(held) <= _CHUNK_BYTES


    @pytest.mark.parametrize(
        "area, n_sectors, steps",
        [(100.0, 1, STEPS), (100.0, 32, STEPS), (300.0, 128, 2 * STEPS), (20.0, 7, 777)],
    )
    def test_the_coarse_run_ends_where_the_weighted_run_ends(self, area, n_sectors, steps):
        # without weights only each chunk's last state is built, by another product order
        pulses = standard_pulses(area, area, 1.0)
        coarse, no_peak = _crossing(pulses, n_sectors, steps)
        weighted, peak_e = _crossing(pulses, n_sectors, steps, np.full(n_sectors, 1.0 / n_sectors))
        assert no_peak is None
        assert 0.0 < peak_e < 1.0
        assert np.max(np.abs(coarse - weighted)) <= 1e-13

    @pytest.mark.parametrize("budget", [2**10, 2**14, 2**17])
    def test_the_chunk_size_does_not_move_the_result(self, budget, monkeypatch):
        import cavityfeedback.adiabatic as adiabatic

        pulses, weights = standard_pulses(AREA, AREA, 1.0), np.full(16, 1.0 / 16)
        final, peak_e = _crossing(pulses, 16, 1200, weights)
        block = _block(16)
        monkeypatch.setattr(adiabatic, "_CHUNK_BYTES", budget)
        assert _block(16) < block
        small_final, small_peak = _crossing(pulses, 16, 1200, weights)
        small_coarse, _ = _crossing(pulses, 16, 1200)
        assert np.max(np.abs(small_final - final)) <= 1e-13
        assert np.max(np.abs(small_coarse - final)) <= 1e-13
        assert abs(small_peak - peak_e) <= 1e-15

    @pytest.mark.parametrize("t_cross", [0.5, 2.0, 4.0])
    def test_only_the_pulse_areas_matter(self, t_cross):
        # g_max t_cross and omega_max t_cross fix the crossing in units of t / t_cross
        weights = np.full(16, 1.0 / 16)
        final, peak_e = _crossing(standard_pulses(AREA, AREA, 1.0), 16, 1200, weights)
        scaled = standard_pulses(AREA / t_cross, AREA / t_cross, t_cross)
        scaled_final, scaled_peak = _crossing(scaled, 16, 1200, weights)
        assert np.max(np.abs(scaled_final - final)) <= 1e-12
        assert abs(scaled_peak - peak_e) <= 1e-12

    def test_step_count_validation(self, dim31):
        pulses = standard_pulses(AREA, AREA, 1.0)
        for steps in (0, 1, -10):
            with pytest.raises(ValueError, match=rf"^steps: must be an integer >= 2, got {steps}$"):
                integrate_crossing(vacuum(dim31), pulses, steps)


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
