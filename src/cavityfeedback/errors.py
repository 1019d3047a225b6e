"""Exception types shared across the library.

Every library error falls in one of three families, and the family alone
decides the CLI exit code:

- a `ValueError` (exit 2): a bad argument or configuration, such as an odd
  cat of vanishing amplitude or operands of different dimension;
- a `NumericalInvariantError` (exit 3): a self-check of the library's own
  computation failed, such as the trace of a map's output or a quadrature;
- a `TruncationError` (exit 4): the truncated Fock basis would silently lose
  weight.
"""


class CavityFeedbackError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(CavityFeedbackError, ValueError):
    """Invalid experiment configuration."""

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"{param}: {message}")


class DegenerateCatError(CavityFeedbackError, ValueError):
    """Odd cat state requested with a vanishing coherent amplitude."""


class DegenerateError(CavityFeedbackError, ValueError):
    """Both couplings vanish; the dark state is undefined."""


class DimMismatchError(CavityFeedbackError, ValueError):
    """Operands live in Fock bases of different dimension."""


class UnboundedError(CavityFeedbackError, ValueError):
    """The requested optimisation has no finite solution."""


class NumericalInvariantError(CavityFeedbackError):
    """A runtime self-check (trace, positivity, quadrature) failed."""


class GridTooCoarseError(NumericalInvariantError):
    """Phase-space quadrature on the given grid misses the known integral."""


class StepTooCoarseError(NumericalInvariantError):
    """Halving the integrator step changed the result beyond tolerance."""


class NonUniqueFixedPointError(NumericalInvariantError):
    """More than one eigenvalue of the step matrix sits at 1."""


class TruncationError(CavityFeedbackError):
    """The truncated Fock basis cannot represent the requested state or map."""
