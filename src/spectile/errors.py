"""Exception hierarchy shared across the library and the CLI.

CLI exit codes map onto these classes: usage and parse problems exit 2,
verification failures exit 1, capacity limits exit 3.
"""


class SpectileError(Exception):
    """Base class for all library errors."""


class ParameterError(SpectileError, ValueError):
    """Invalid argument: bad group parameters, out-of-range values, mismatched groups."""


class ParseError(SpectileError, ValueError):
    """Malformed set file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidInputError(SpectileError):
    """Input fails a verified precondition (not a tile, not spectral, bad pair)."""


class ContradictionError(InvalidInputError):
    """A construction branch matched that is impossible for genuine input.

    Matching one of these branches is positive evidence the input was not
    the tile/spectral set it was claimed to be.
    """

    def __init__(self, message: str, branch: str) -> None:
        self.branch = branch
        super().__init__(message)


class NonSpectralSizeError(InvalidInputError):
    """Cardinality alone rules out a spectrum.

    witness is the SizeClass of kind "mixed" that classify_size gives |A|:
    |A| = m * p^s with 2 <= m <= p-1, read as witness.m and witness.s.
    """

    def __init__(self, message: str, witness) -> None:
        self.witness = witness
        super().__init__(message)


class CapacityError(SpectileError):
    """Requested computation exceeds a configured size cap."""


class MissingPartnerError(CapacityError):
    """A partner set is required but absent, and the group is too large to search."""
