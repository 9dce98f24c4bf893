"""Exception types shared across the package."""


class QrealError(Exception):
    """Base class for every error raised by qreal."""


class NotSquareError(QrealError):
    """A square operator was required."""


class NotHermitianError(QrealError):
    """An operator failed the Hermiticity check."""


class NotUnitaryError(QrealError):
    """A coupling matrix failed the unitarity check."""


class DimMismatchError(QrealError):
    """Operands live on spaces of incompatible dimension."""


class EmptyFamilyError(QrealError):
    """A nonempty family of projections was required."""


class UnboundObservableError(QrealError):
    """A formula mentions an observable the environment does not bind."""


class UnmappedEigenvalueError(QrealError):
    """A value map is undefined on some eigenvalue of its operand."""


class NonFiniteLabelError(QrealError):
    """A value map has a NaN or infinite key or value."""


class ParseError(QrealError):
    """First syntax error in a formula; no recovery is attempted.

    Attributes
    ----------
    byte_offset : int
        UTF-8 byte offset of the failure, in [0, len(input encoded) + 1).
    expected : str
        Description of what the parser was looking for.
    found : str
        The offending token text, or "end of input".
    """

    def __init__(self, byte_offset: int, expected: str, found: str):
        self.byte_offset = byte_offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {byte_offset}: expected {expected}, found {found}")
