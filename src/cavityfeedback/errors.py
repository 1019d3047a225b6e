"""Exception types shared across the library.

Every library error falls in one of three families, and the family alone
decides the CLI exit code:

- a `ValueError` (exit 2): a bad argument or configuration, such as an odd
  cat of vanishing amplitude or operands of different dimension;
  `ConfigError` is the one that names the configuration key at fault;
- a `NumericalInvariantError` (exit 3): a self-check of the library's own
  computation failed, such as the trace of a map's output, a quadrature, the
  step-halving check of the crossing or the uniqueness of a fixed point;
- a `TruncationError` (exit 4): the truncated Fock basis would silently lose
  weight.
"""


class ConfigError(ValueError):
    """Invalid experiment configuration, naming the key at fault."""

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"{param}: {message}")


class NumericalInvariantError(Exception):
    """A runtime self-check (trace, positivity, quadrature) failed."""


class TruncationError(Exception):
    """The truncated Fock basis cannot represent the requested state or map."""
