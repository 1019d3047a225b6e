"""Feedback protection of cavity field states.

Continuous photodetection feedback for optical cavities, stroboscopic
parity-measurement feedback for microwave cavities, Wigner-function
diagnostics, polarisation-qubit protection analysis and adiabatic
photon-transfer verification, all on a truncated Fock basis.
"""

__version__ = "0.1.0"

from .adiabatic import (
    AdiabaticityReport,
    ManifoldState,
    PulsePair,
    adiabaticity_report,
    crossing_amplitudes,
    dark_state,
    integrate_crossing,
    minimum_dark_overlap,
    standard_pulses,
)
from .continuous import (
    ContinuousParams,
    FidelityCurve,
    cat_fidelity_analytic,
    evolve_continuous,
    evolve_continuous_grid,
    evolve_operator,
    fidelity_curve,
    fock_fidelity_analytic,
    ideal_offdiagonal_decay,
    mean_amplitude_ideal,
    standard_phase_diffusion,
)
from .errors import (
    CavityFeedbackError,
    ConfigError,
    DegenerateCatError,
    DegenerateError,
    DimMismatchError,
    GridTooCoarseError,
    NonUniqueFixedPointError,
    NumericalInvariantError,
    StepTooCoarseError,
    TruncationError,
    UnboundedError,
)
from .fock import (
    CatParity,
    DensityMatrix,
    FockDim,
    StateVector,
    cat_state,
    coherent_state,
    fidelity,
    fock_superposition,
    mean_amplitude,
    parity_expectation,
    trace_distance,
)
from .qubits import (
    QubitSpec,
    approx_n_opt,
    min_fidelity,
    optimal_n,
    threshold_eta,
)
from .strobo import (
    BandMatrix,
    DetectionSequence,
    StroboParams,
    StroboRun,
    analytic_stationary_state,
    build_band_matrix,
    evolve_strobo,
    feedback_superop,
    p_ee_analytic,
    resonance_angle,
    run_sequence,
    stationary_state,
    strobo_step,
)
from .wigner import (
    CartesianGrid,
    PolarGrid,
    WignerGrid,
    default_cartesian_grid,
    default_polar_grid,
    fringe_visibility,
    sqrt_diffusion_generator_wigner,
    wigner_function,
)
