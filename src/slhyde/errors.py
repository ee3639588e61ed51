"""Exception types shared across the package."""


class SlhydeError(Exception):
    """Base class for all package errors."""


class ValidationError(SlhydeError):
    """An input violates a documented contract."""


class ParseError(SlhydeError):
    """A file or response could not be parsed."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class RecordError(ParseError, ValidationError):
    """A config section or file record lacks a required key, has an unknown
    one or holds a value of the wrong type. Corpus readers document a
    ParseError for this, SFT and triplet readers a ValidationError."""


class TransportError(SlhydeError):
    """A remote call failed; `attempts` is set once retries are exhausted, and
    `retry_after` to the seconds a 429 or 503 response asked to wait for."""

    def __init__(self, message: str, *, attempts: int | None = None, retry_after: float | None = None):
        if attempts is not None:
            message = f"{message} (after {attempts} attempts)"
        super().__init__(message)
        self.attempts = attempts
        self.retry_after = retry_after


class ProtocolError(SlhydeError):
    """A remote endpoint returned a structurally invalid response."""


class DegenerateOutputError(SlhydeError):
    """A generator produced no usable (non-empty) completions."""


class FormatError(SlhydeError):
    """A binary artifact has a bad magic, header, or payload size."""


class RunError(SlhydeError):
    """A pipeline run failed as a whole, e.g. too many per-item errors."""
