"""Exception types shared across the library, and the one check of a numeric argument.

Every library error falls in one of three families, and the family alone
decides the CLI exit code:

- a `ValueError` (exit 2): a bad argument or configuration, such as an odd
  cat of vanishing amplitude or operands of different dimension.  Every
  numeric argument and config number must be a finite number, a count an
  integer, and a bool is neither; `check_number` (`check_complex` for a
  complex number, `check_times` for one time or an array of times) is the one
  check of that, naming the key or argument at fault;
- a `NumericalInvariantError` (exit 3): a self-check of the library's own
  computation failed, such as the trace of a map's output, a quadrature, the
  step-halving check of the crossing or the spectral radius of a step matrix;
- a `TruncationError` (exit 4): the truncated Fock basis would silently lose
  weight.
"""
import math
import numbers

import numpy as np


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


def check_complex(name, value) -> complex:
    """`value` as a complex if a number (not a bool) with finite parts, else ConfigError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ConfigError(name, f"expected a number, got {value!r}")
    try:
        return complex(check_number(name, value.real), check_number(name, value.imag))
    except ConfigError:  # name the whole value, not the part at fault
        raise ConfigError(name, f"must be a finite number, got {value!r}") from None


def check_times(name, t):
    """`t` as a float, or an array of times as a float array, if each time is a finite number >= 0.

    An array is checked through its extremes, so a bad time gets the message
    of that one time (NaN anywhere makes both NaN); it must be a non-empty
    array of integers or floats.
    """
    if np.ndim(t) == 0:
        return check_number(name, t, 0)
    times = np.asarray(t)
    if times.size == 0 or times.dtype.kind not in "iuf":
        raise ConfigError(name, f"expected a number or a non-empty array of numbers, got {t!r}")
    check_number(name, times.min().item(), 0)
    check_number(name, times.max().item(), 0)
    return times.astype(float, copy=False)
