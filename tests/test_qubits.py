import numpy as np
import pytest

from cavityfeedback import (
    QubitSpec,
    UnboundedError,
    approx_n_opt,
    evolve_operator,
    min_fidelity,
    optimal_n,
    threshold_eta,
)


_BLOCH_AZIMUTHAL = 32
_BLOCH_POLAR = 17


def _bloch_grid():
    phis = np.linspace(0.0, 2.0 * np.pi, _BLOCH_AZIMUTHAL, endpoint=False)
    thetas = np.linspace(0.0, np.pi, _BLOCH_POLAR)
    return phis, thetas


def numeric_two_mode_check(spec: QubitSpec, eta: float, gamma_t: float) -> float:
    """Worst-case fidelity from explicit two-mode evolution on a Bloch grid.

    The oracle of `min_fidelity`.  Each polarised mode is evolved
    independently; the two-mode state is the tensor product of the evolved
    single-mode operators.  A brute-force cross-check of the closed form, not
    a precision tool.
    """
    n, m = spec.n, spec.m
    size = max(n, m) + 1  # population only flows downward, so this basis is exact
    ket_n = np.zeros(size)
    ket_n[n] = 1.0
    ket_m = np.zeros(size)
    ket_m[m] = 1.0
    ops = {
        (n, n): np.outer(ket_n, ket_n).astype(complex),
        (m, m): np.outer(ket_m, ket_m).astype(complex),
        (n, m): np.outer(ket_n, ket_m).astype(complex),
        (m, n): np.outer(ket_m, ket_n).astype(complex),
    }
    evolved = {key: evolve_operator(op, eta, gamma_t) for key, op in ops.items()}

    labels = ((n, m), (m, n))
    # Tr over both modes factorises into single-mode traces; the Bloch
    # amplitudes only reweight these fixed overlaps
    overlap = {}
    for ket in labels:
        for bra in labels:
            for ket2 in labels:
                for bra2 in labels:
                    t1 = np.trace(ops[(bra[0], ket[0])] @ evolved[(ket2[0], bra2[0])])
                    t2 = np.trace(ops[(bra[1], ket[1])] @ evolved[(ket2[1], bra2[1])])
                    overlap[(ket, bra, ket2, bra2)] = t1 * t2

    phis, thetas = _bloch_grid()
    worst = np.inf
    for th in thetas:
        a = np.cos(th / 2.0)
        for ph in phis:
            b = np.sin(th / 2.0) * np.exp(1j * ph)
            # two-mode density matrix terms: |a|^2 |n,m><n,m| + a b* |n,m><m,n| + ...
            weights = {
                (labels[0], labels[0]): abs(a) ** 2,
                (labels[0], labels[1]): a * np.conj(b),
                (labels[1], labels[0]): np.conj(a) * b,
                (labels[1], labels[1]): abs(b) ** 2,
            }
            fid = 0.0
            for (ket, bra), w0 in weights.items():
                for (ket2, bra2), wt in weights.items():
                    fid += np.real(np.conj(w0) * wt * overlap[(ket, bra, ket2, bra2)])
            worst = min(worst, fid)
    return float(worst)


def brute_force_n_opt(eta: float, n_hi: int = 10_000) -> int:
    s = lambda n: (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2
    objective = lambda n: 1.0 / s(n) + (1.0 - eta) * s(n)
    best = min(range(n_hi + 1), key=lambda n: (objective(n), n))
    return best


def pair_objective(n, p, eta):
    s = (np.sqrt(n + p) + np.sqrt(n)) ** 2
    return p**2 / s + (1.0 - eta) * s


class TestMinFidelity:
    def test_unity_at_zero_time(self):
        assert min_fidelity(QubitSpec(0, 1), 0.7, 0.0) == pytest.approx(1.0)

    def test_no_feedback_single_photon(self):
        # worst case decays like the bare photon-loss factor
        for gt in (1e-4, 1e-3, 1e-2):
            f = min_fidelity(QubitSpec(0, 1), 0.0, gt)
            assert abs(f - np.exp(-gt)) < 1e-14
            assert abs(f - (1.0 - gt)) < gt**2

    def test_ideal_detection_single_photon(self):
        for gt in (0.1, 0.9):
            f = min_fidelity(QubitSpec(0, 1), 1.0, gt)
            assert abs(f - 0.5 * (1.0 + np.exp(-gt))) < 1e-14

    def test_symmetric_in_n_m(self):
        assert min_fidelity(QubitSpec(2, 5), 0.6, 0.3) == min_fidelity(
            QubitSpec(5, 2), 0.6, 0.3
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QubitSpec(3, 3)
        with pytest.raises(ValueError):
            QubitSpec(-1, 2)


class TestOptimalN:
    def test_below_threshold(self):
        assert optimal_n(0.5) == 0

    def test_above_threshold_matches_brute_force(self):
        assert optimal_n(0.9) == brute_force_n_opt(0.9) == 1

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.83, 0.9, 0.96, 0.99, 0.999])
    def test_matches_brute_force(self, eta):
        assert optimal_n(eta) == brute_force_n_opt(eta)

    def test_unbounded_at_unit_efficiency(self):
        with pytest.raises(UnboundedError):
            optimal_n(1.0)

    def test_monotone_in_eta(self):
        etas = np.arange(0.0, 0.991, 0.01)
        values = [optimal_n(float(e)) for e in etas]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_threshold_location(self):
        found = threshold_eta(tol=1e-12)
        assert abs(found - 2.0 * (np.sqrt(2.0) - 1.0)) < 1e-10
        assert abs(found - 2.0 / (1.0 + np.sqrt(2.0))) < 1e-10

    def test_pair_distance_one_is_optimal(self):
        # the optimisation over (n, m) reduces to adjacent photon numbers
        for eta in (0.3, 0.83, 0.95, 0.99):
            best = min(
                ((n, p) for n in range(101) for p in range(1, 6)),
                key=lambda np_: pair_objective(np_[0], np_[1], eta),
            )
            assert best[1] == 1


class TestApproxNOpt:
    def test_zero_efficiency(self):
        assert approx_n_opt(0.0) == 0.0

    def test_against_bisection(self):
        eta = 0.99
        target = (1.0 - eta) ** -0.5
        s = lambda n: (np.sqrt(n + 1.0) + np.sqrt(n)) ** 2
        lo, hi = 0.0, 1e6
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if s(mid) < target:
                lo = mid
            else:
                hi = mid
        assert abs(approx_n_opt(eta) - lo) < 1e-9
        assert abs(approx_n_opt(eta) - 2.025) < 1e-12

    @pytest.mark.parametrize("eta", [0.9, 0.96, 0.99])
    def test_rounding_close_to_exact(self, eta):
        assert abs(round(approx_n_opt(eta)) - optimal_n(eta)) <= 1


class TestNumericTwoModeCheck:
    def test_no_feedback_single_photon(self):
        got = numeric_two_mode_check(QubitSpec(0, 1), 0.0, 0.1)
        assert abs(got - np.exp(-0.1)) < 1e-6

    def test_partial_feedback(self):
        spec = QubitSpec(1, 2)
        got = numeric_two_mode_check(spec, 0.75, 0.05)
        assert abs(got - min_fidelity(spec, 0.75, 0.05)) < 1e-5

    def test_unity_at_zero_time(self):
        for spec in (QubitSpec(0, 1), QubitSpec(2, 4)):
            assert numeric_two_mode_check(spec, 0.6, 0.0) == pytest.approx(1.0)

    def test_minimum_at_balanced_superposition(self):
        # scan the Bloch weights explicitly at the analytic minimiser
        spec = QubitSpec(0, 2)
        eta, gt = 0.5, 0.2
        n, m = spec.n, spec.m
        damped = np.exp(-(1.0 - eta) * gt * (n + m))
        coherence = np.exp(-gt * (n + m - 2.0 * eta * np.sqrt(n * m)))
        weights = np.linspace(0.0, 1.0, 33)
        values = [
            (w**2 + (1 - w) ** 2) * damped + 2.0 * w * (1 - w) * coherence
            for w in weights
        ]
        assert np.argmin(values) == 16  # w = 1/2
        assert abs(values[16] - min_fidelity(spec, eta, gt)) < 1e-14


class TestSmallTimeLaws:
    @pytest.mark.parametrize("eta", [0.95, 0.97, 0.99])
    def test_small_time_decay_bound(self, eta):
        # the sqrt(1-eta) small-time law is the high-efficiency asymptote;
        # just above the threshold the discrete optimum still beats it by
        # tens of percent, so the 10%-slack bound is checked where the
        # asymptote applies
        n = optimal_n(eta)
        spec = QubitSpec(n, n + 1)
        for gt in (0.001, 0.005, 0.01):
            f = min_fidelity(spec, eta, gt)
            assert 1.0 - f <= gt * np.sqrt(1.0 - eta) * 1.1

    def test_decay_never_beats_the_asymptote(self):
        # in the other direction the asymptote is a true lower bound on the
        # decay for every efficiency above the threshold
        for eta in (0.85, 0.9, 0.95, 0.99):
            n = optimal_n(eta)
            f = min_fidelity(QubitSpec(n, n + 1), eta, 0.01)
            assert 1.0 - f >= 0.01 * np.sqrt(1.0 - eta) * 0.99

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_ideal_detection_adjacent_pair(self, n):
        spec = QubitSpec(n, n + 1)
        for gt in (0.5, 2.0):
            f = min_fidelity(spec, 1.0, gt)
            rate = 2 * n + 1 - 2 * np.sqrt(n * (n + 1))
            assert abs(f - 0.5 * (1.0 + np.exp(-gt * rate))) < 1e-14
            assert f >= 0.5 * (1.0 + np.exp(-gt / (4.0 * n)))

