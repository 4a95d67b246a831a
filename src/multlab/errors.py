"""Shared exception types."""


class DimensionMismatchError(ValueError):
    """Operands live in polynomial rings with different numbers of variables."""


class NotMPrimaryError(ValueError):
    """An operation that needs finite colength got an ideal that is not m-primary."""


class ParseError(ValueError):
    """An ideal expression failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class StabilizationError(RuntimeError):
    """Finite-difference sampling never produced a stable value.

    Carries the escalation history so the failure is reproducible data,
    not a silent wrong answer.
    """

    def __init__(self, message: str, *, bases=None, attempts=None):
        super().__init__(message)
        self.bases = bases or []
        self.attempts = attempts or []


class ImpossibleValueError(StabilizationError, ArithmeticError):
    """A multiplicity came out as a value the theory rules out.

    Raised for a difference table that stabilized on it and for a Newton
    value alike.  It is a StabilizationError, so the CLI exits 3 on it.
    """
