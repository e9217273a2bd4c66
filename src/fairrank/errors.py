"""Exception types shared across the package.

Every error raised by fairrank derives from FairRankError so callers (and the
CLI) can catch validation problems with a single except clause.
"""


class FairRankError(Exception):
    """Base class for all fairrank errors."""


class LengthMismatchError(FairRankError):
    """Sequence lengths disagree (polarity components, W1 sequences, ...)."""


class EmptyScopeError(FairRankError):
    """A metric was evaluated over an empty set of individuals or queries."""


class DomainError(FairRankError):
    """Numeric input outside the valid domain of a bound or sampler."""


class ModeMismatchError(FairRankError):
    """Monte Carlo mode incompatible with the supplied polarities."""


class SpecError(FairRankError):
    """Invalid synthetic-dataset or instance-generator specification."""


class ValidationError(FairRankError):
    """A file or in-memory object violates a declared invariant."""


class ParseError(ValidationError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CoverageError(ValidationError):
    """Queries in a stream do not rank the same set of individuals."""


class StreamOrderError(ValidationError):
    """Query timesteps are not strictly increasing."""
