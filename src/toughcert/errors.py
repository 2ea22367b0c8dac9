"""Exception types shared across the package, and the integer check
that raises them."""

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


def _check_int(value, message: str, least: float = 1, error: type = DomainError) -> None:
    """Raise ``error`` unless ``value`` is an ``int`` of at least
    ``least``, with ``message`` formatted with ``least`` (only then).  A
    bool is refused: True == 1 with the same hash would pass for 1, and
    share 1's entry in any memo."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise error(message.format(least))
