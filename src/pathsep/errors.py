"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`PathsepError`, so
callers (notably the CLI) can map failure classes to exit codes without
pattern-matching on messages.
"""


class PathsepError(Exception):
    """Base class for all library errors."""


class GraphFormatError(PathsepError):
    """Malformed graph or path-system input (carries a line number when known)."""


class InvalidSystemError(PathsepError):
    """A path system is inconsistent with its host graph (non-edge, bad id)."""


class UnsupportedGraphError(PathsepError):
    """The requested operation does not apply to this graph class."""


class LimitExceededError(PathsepError):
    """A size limit, or an exact-search path or time budget, was hit."""


class CertificateError(PathsepError):
    """A counting certificate failed, or was requested for a non-separating system."""
