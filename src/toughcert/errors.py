"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "HypothesisError",
    "SizeLimitError",
    "Graph6ParseError",
    "ConvergenceError",
]


class DomainError(ValueError):
    """Arguments lie outside an operation's mathematical domain."""


class HypothesisError(DomainError):
    """Input violates a hypothesis of the certified statement.

    Raised when a certification routine is handed a graph it makes no
    claim about (disconnected, or order too small for the requested t).
    """


class SizeLimitError(ValueError):
    """An exhaustive computation would exceed its configured size guard."""


class Graph6ParseError(ValueError):
    """Malformed graph6 text.  ``offset`` is the byte index of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class ConvergenceError(ArithmeticError):
    """LAPACK's symmetric eigensolver did not converge."""
