"""Feedback protection of cavity field states.

Continuous photodetection feedback for optical cavities, stroboscopic
parity-measurement feedback for microwave cavities, Wigner-function
diagnostics, polarisation-qubit protection analysis and adiabatic
photon-transfer verification, all on a truncated Fock basis.
"""

__version__ = "0.1.0"

from .adiabatic import (
    PulsePair,
    adiabaticity_report,
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
    DetectionSequence,
    StroboParams,
    StroboRun,
    analytic_stationary_state,
    evolve_strobo,
    p_ee_analytic,
    resonance_angle,
    run_sequence,
    stationary_state,
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
