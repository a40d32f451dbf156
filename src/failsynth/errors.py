"""Exception hierarchy shared across the pipeline.

The CLI maps these onto distinct exit codes: SchemaError (2), TransportError
(3), ValidationError and its InsufficientTrackingError (4); a missing or
non-file path is 4 too. Any other exception, a bare ValueError included, is a
bug: exit 1 and a traceback.
"""


class FailSynthError(Exception):
    """Base class for all package errors."""


class SchemaError(FailSynthError, ValueError):
    """Malformed record, label, or config content."""


class TransportError(FailSynthError):
    """A remote verifier/judge could not be reached or answered garbage.

    Rollouts hit by this are quarantined, not counted as rejected.
    """


class ValidationError(FailSynthError, ValueError):
    """A precondition or invariant check failed."""


class InsufficientTrackingError(ValidationError):
    """Too few reliably visible tracks to score temporal coherence."""
