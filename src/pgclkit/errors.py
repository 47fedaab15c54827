"""Exception hierarchy shared across the toolkit."""


class PgclError(Exception):
    """Base class for all errors raised by this package."""


class PgclSyntaxError(PgclError):
    """Bad program text.  Carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UsageError(PgclError):
    """A bad command-line argument, or a file that cannot be read: no
    position in program text is at fault."""


class EvalError(PgclError):
    """Expression evaluation failed (division by zero, type mismatch, ...)."""


class SpaceError(PgclError):
    """Malformed variable domain or state space."""


class DistError(PgclError):
    """Malformed weighted distribution or probability literal."""


class WpError(PgclError):
    """Pre-expectation computation failed."""


class UndefinedStateError(WpError):
    """A live execution path is undefined at some initial state."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class VariantError(PgclError):
    """Variant expression is not natural-number-valued where required."""


class BitsExhaustedError(PgclError):
    """A scripted bit source ran out of bits mid-sample."""


class WindowInvariantError(PgclError):
    """Sampler window bookkeeping went inconsistent.  Always a bug."""


class MachineFormatError(PgclError):
    """Unparseable or ill-formed machine description."""


class MachineAnalysisError(PgclError):
    """Machine analysis failed (e.g. absorption is not almost sure)."""
