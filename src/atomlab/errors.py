"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated an operation's precondition (bad input, mismatched
    primes, horizon exceeded, malformed text forms)."""


class ResourceError(RuntimeError):
    """An enumeration or construction would exceed a configured cap."""


class InternalConsistencyError(RuntimeError):
    """A runtime self-check failed: the inputs describe a situation the
    algorithm's index arithmetic rules out (e.g. a set posing as a
    p-element orbit that is not one)."""


class CertificateError(ValueError):
    """A certificate is structurally malformed and cannot be checked."""


class WindowExhaustedError(ResourceError):
    """A stream's lookahead window ended before a prefix stabilized; the
    message names the offending coordinate when known."""
