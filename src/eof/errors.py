"""Exception types shared across the library, the one integer rule (behind
D, M, seeds and sizes), the rules for names and positive reals, and the one
finiteness test."""

import numbers

import numpy as np


class EofError(Exception):
    """Base class for all library errors."""


class InvalidPoint(EofError):
    """Input point contains NaN/Inf or lies outside the unit cube in strict mode."""


class InvalidLevel(EofError):
    """A level index is not an integer in 1..1022, or too deep for the kernel's (p, q)."""


class InvalidIndex(EofError):
    """A feature position is not an integer, or even, or out of range for its
    level, or a column is not in the design it is looked up in."""


class DimError(EofError):
    """Dimension mismatch between a point/matrix and the expected D or M."""


def all_finite(a) -> bool:
    """Whether every element of the float array ``a`` is finite (true when it is
    empty), with no mask: NaN propagates through ``min``, and an infinity
    shows in ``min`` or ``max``."""
    if a.size == 0:
        return True
    with np.errstate(invalid="ignore"):
        return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def is_integer(v) -> bool:
    """Whether ``v`` is an integer: numpy's too, but not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether ``v`` is a real number: numpy's too, but not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def check_int(value, what, error, low=1, high=float("inf")):
    """``value``; ``error`` unless an integer (``is_integer``) in ``low..high``:
    the one integer rule, behind D, M, seeds, counts and sizes."""
    if not (is_integer(value) and low <= value <= high):
        raise error(f"{what} must be an integer in {low}..{high}, got {value!r}")
    return value


def check_dim(D):
    """``D``; ``DimError`` unless the dimension D is an integer >= 1."""
    return check_int(D, "D", DimError)


class InvalidM(EofError):
    """Requested feature count is out of the valid range."""


def check_M(M, limit=float("inf")):
    """``M``; ``InvalidM`` unless M is an integer in 1..``limit``."""
    return check_int(M, "M", InvalidM, high=limit)


class InvalidChoice(EofError, ValueError):
    """A kernel kind, scale, task, method or report format that is unknown."""


def check_choice(value, choices, what):
    """``InvalidChoice``, ``unknown {what} {value!r}``, for a value not in choices."""
    if value not in choices:
        raise InvalidChoice(f"unknown {what} {value!r}")


class InvalidData(EofError):
    """Non-finite or unusable data, or a number or seed outside its rule."""


def check_positive(value, what, below=float("inf")):
    """``value``; ``InvalidData`` unless a real number (``is_real``) in (0, below)."""
    if not (is_real(value) and 0 < value < below):
        raise InvalidData(f"{what} must be a number in (0, {below}), got {value!r}")
    return value


def check_seed(seed):
    """``seed``; ``InvalidData`` unless an integer >= 0, as numpy's."""
    return check_int(seed, "seed", InvalidData, low=0)


class ConvergenceError(EofError):
    """Iterative solver failed to reach tolerance.

    Carries the last gradient norm in ``grad_norm`` (for conjugate gradients,
    the relative residual).
    """

    def __init__(self, message, grad_norm=None):
        super().__init__(message)
        self.grad_norm = grad_norm


class ParseError(EofError):
    """CSV parsing failure; carries ``row`` and ``col`` (1-based) when known."""

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class DegenerateData(EofError):
    """Dataset is degenerate (e.g. all points identical) for the requested estimate."""
