"""Exception types shared across the library, and the range rule for M."""


class EofError(Exception):
    """Base class for all library errors."""


class InvalidPoint(EofError):
    """Input point contains NaN/Inf or lies outside the unit cube in strict mode."""


class InvalidLevel(EofError):
    """A level index is zero or negative."""


class InvalidIndex(EofError):
    """A feature position index is even or out of range for its level."""


class DimError(EofError):
    """Dimension mismatch between a point/matrix and the expected D or M."""


class InvalidM(EofError):
    """Requested feature count is out of the valid range."""


def check_M(M, limit=float("inf")):
    """``InvalidM`` unless 1 <= M <= ``limit``."""
    if not 1 <= M <= limit:
        raise InvalidM(f"M={M} outside 1..{limit}")


class InvalidData(EofError):
    """Training data contains non-finite values or unusable labels."""


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
