"""Exception types shared across the library, and the one check of a numeric argument.

Every library error falls in one of three families, and the family alone
decides the CLI exit code:

- a `ValueError` (exit 2): a bad argument or configuration, such as an odd
  cat of vanishing amplitude or operands of different dimension.  Every
  numeric argument and config number must be a finite number, a count an
  integer, and a bool is neither; `check_number` is the one check of that,
  and its `ConfigError` names the key or argument at fault;
- a `NumericalInvariantError` (exit 3): a self-check of the library's own
  computation failed, such as the trace of a map's output, a quadrature, the
  step-halving check of the crossing or the uniqueness of a fixed point;
- a `TruncationError` (exit 4): the truncated Fock basis would silently lose
  weight.
"""
import math
import numbers


class ConfigError(ValueError):
    """Invalid experiment configuration, naming the key or argument at fault."""

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"{param}: {message}")


class NumericalInvariantError(Exception):
    """A runtime self-check (trace, positivity, quadrature) failed."""


class TruncationError(Exception):
    """The truncated Fock basis cannot represent the requested state or map."""


def bounds_text(lo, hi, lo_open, hi_open) -> str:
    """Range text such as '> 0' or 'in [0, 1)'; empty for any finite number."""
    a, b = (f"{x:g}" if isinstance(x, float) else str(x) for x in (lo, hi))
    if hi == math.inf:
        return "" if lo == -math.inf else f"{'>' if lo_open else '>='} {a}"
    return f"in {'(' if lo_open else '['}{a}, {b}{')' if hi_open else ']'}"


def check_number(name, value, lo=-math.inf, hi=math.inf, *, lo_open=False, hi_open=False, integer=False):
    """`value` (as a float unless `integer`) if it is a number in range, else ConfigError naming `name`.

    A bool is never a number, NaN and +-inf always fail, and numpy scalars pass.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ConfigError(name, f"expected {'an integer' if integer else 'a number'}, got {value!r}")
    # float() of an int past 2**1024 overflows, and so does comparing a numpy float with 2**1024
    x = value if integer else float(value) if not isinstance(value, int) or abs(value) < 2**1024 else math.inf
    above = x > lo if lo_open else x >= lo
    below = x < hi if hi_open else x <= hi
    if not (above and below and (integer or math.isfinite(x))):
        what = "an integer" if integer else "a finite number"
        bounds = bounds_text(lo, hi, lo_open, hi_open)
        raise ConfigError(name, f"must be {what} {bounds}".rstrip() + f", got {value!r}")
    return x
