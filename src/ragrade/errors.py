"""Exception types shared across the package: one class per way a caller
reacts to a failure. A failure's message, not its class, says which check
failed."""


class RagradeError(Exception):
    """Base class for all package errors; ``cli.main`` exits 1 on it."""


class TransportError(RagradeError):
    """A request that failed; ``judge`` fails its item, ``cli.main`` exits 2."""


class Timeout(TransportError):
    """A request that timed out; caught as a ``TransportError``, its type names the cause."""


class RateLimited(TransportError):
    """A request answered 429; caught as a ``TransportError``, its type names the cause."""


class BackendUnavailable(RagradeError):
    """The embedding service failed; ``top_k_batch`` fails its query group, ``cli.main`` exits 2."""


class InvalidEmbedding(RagradeError):
    """A non-finite, zero or wrong-width embedding; ``top_k_batch`` fails its query group."""


class ParseError(RagradeError):
    """A reply that breaks its output schema; ``judge`` re-asks relaxed, then fails the item."""


class Stopped(RagradeError):
    """A request not sent as its stop predicate held; ``optimize``'s race leaves its item ungraded."""
