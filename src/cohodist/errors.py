"""Exception types raised across the package."""


class CohodistError(Exception):
    """Base class for all package errors."""


class EmptyInputError(CohodistError):
    pass


class DuplicateVertexInFaceError(CohodistError):
    pass


class DisconnectedComplexError(CohodistError):
    pass


class NotASubcomplexError(CohodistError):
    pass


class NotSimplicialError(CohodistError):
    pass


class UnsupportedRingError(CohodistError):
    pass


class NotAFieldError(CohodistError):
    pass


class ComplexMismatchError(CohodistError):
    pass


class RingMismatchError(CohodistError):
    pass


class PresentationMismatchError(CohodistError):
    pass


class BoundaryNotInCyclesError(CohodistError):
    pass


class BudgetExceededError(CohodistError):
    pass


class InvalidCoverError(CohodistError):
    """A cover's pieces, face lists and names do not fit together."""


class UnsupportedLabelError(CohodistError):
    """A vertex label that is not an int, a str or a tuple of such."""


class UnwritableLabelError(CohodistError):
    """A vertex label or piece name that a file would not read back as itself."""


class ParseError(CohodistError):
    """Input file could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
