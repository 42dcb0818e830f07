"""Exception hierarchy and the one input rule for model numbers.

Three families matter to callers: bad input (ValidationError and
subclasses), physically infeasible configurations, and numeric failures.
The CLI maps them to exit codes 1, 2 and 3 respectively.

One rule reads every number of a model, a public argument or a scenario
file: real takes a finite numbers.Real but a bool (a numpy number through
float()) in the quantity's interval, integer an int but a bool; neither
passes float range. Their ValidationError names the quantity in .field,
which the scenario parser, checking only structure, puts under its path.
"""

import itertools
import math
import numbers
import reprlib
import sys
from collections.abc import Iterable


class QkdLimitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QkdLimitError, ValueError):
    """Input violates a documented precondition; .field names the quantity at fault, if any."""

    def __init__(self, message: str = "", field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class InconsistentQberError(ValidationError):
    """Observed QBER set cannot come from any Pauli channel."""


class UndefinedQberError(ValidationError):
    """QBER is 0/0 for these inputs (no detections at all)."""


class InfeasibleConfigurationError(QkdLimitError):
    """Hardware cannot reach the security threshold at any distance."""


class NumericError(QkdLimitError):
    """A numeric routine failed to converge or lost consistency."""


class BracketError(NumericError):
    """Root-finding interval is degenerate or not evaluable."""


class NonMonotonicModelError(NumericError):
    """Transmissivity model is not monotone on the sampled interval."""


class _ValueRepr(reprlib.Repr):
    """Abbreviates the wrong input value a ValidationError quotes. A value
    within the limits prints as repr prints it, dict key order included."""

    def repr_dict(self, x, level):
        if not x or level <= 0:
            return "{...}" if x else "{}"
        pieces = [
            f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
            for k, v in itertools.islice(x.items(), self.maxdict)
        ]
        if len(x) > self.maxdict:
            pieces.append("...")
        return "{" + ", ".join(pieces) + "}"


VALUE_REPR = _ValueRepr()
VALUE_REPR.maxlevel = 3
VALUE_REPR.maxstring = VALUE_REPR.maxother = 40


def shown(value) -> str:
    """repr(value), abbreviated when it is long."""
    try:
        # A float's repr is short; VALUE_REPR takes about a microsecond.
        return repr(value) if type(value) is float else VALUE_REPR.repr(value)
    except ValueError:  # an int past the int-to-str digit limit
        return f"<int of {value.bit_length()} bits>"


def field_error(name: str, value, problem: str) -> ValidationError:
    """The ValidationError "name=value problem", value abbreviated, with .field = name."""
    return ValidationError(f"{name}={shown(value)} {problem}", name)


def is_number(value) -> bool:
    """Whether value is a numbers.Real but not a bool (a float is tested
    first, as an isinstance test against an ABC is slow)."""
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)


def _end(x: float) -> str:
    """An interval end as an integer (0, 1), a fraction n/d when d is small
    and x below 2 in size (1/2, -3/2), else its repr (10.5, not 21/2)."""
    if math.isinf(x):
        return repr(x)
    n, d = float(x).as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}" if d <= 16 and abs(x) < 2 else repr(x)


def real(value, name: str, lo: float, hi: float = math.inf, ends: str = "[]") -> float:
    """value as a finite float from lo to hi, each end closed ("[", "]")
    or open ("(", ")") as ends says, or a ValidationError naming name."""
    if type(value) is float:
        x = value
    elif not is_number(value):
        raise field_error(name, value, "is not a number")
    else:
        try:
            x = float(value)
        except OverflowError:
            raise field_error(name, value, "is beyond float range") from None
    if lo < x < hi or math.isfinite(x) and (x == lo and ends[0] == "[" or x == hi and ends[1] == "]"):
        return x
    raise field_error(name, value, f"outside {ends[0]}{_end(lo)}, {_end(hi)}{ends[1]}")


def integer(value, name: str, lo: int, hi: float = math.inf) -> int:
    """value, an int (not a bool) in [lo, hi] within float range, or a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise field_error(name, value, f"must be an integer {span}")
    if abs(value) > sys.float_info.max:
        raise field_error(name, value, "is beyond float range")
    return value


def sequence(value, name: str) -> tuple:
    """The items of value, any iterable, as a tuple, or a ValidationError."""
    if type(value) not in (tuple, list) and not isinstance(value, Iterable):
        raise field_error(name, value, "is not a sequence")
    return tuple(value)
