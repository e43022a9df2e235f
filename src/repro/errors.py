"""Exception hierarchy for the IPS reproduction.

Every error raised by the library derives from :class:`IPSError` so callers
can catch the whole family with a single except clause.  Subsystems raise the
most specific subclass that applies; the RPC and client layers translate
transport problems into :class:`RPCError` subclasses so upstream retry logic
can distinguish transient failures from programming errors.
"""

from __future__ import annotations


class IPSError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(IPSError):
    """A configuration value is missing, malformed or inconsistent."""


class TableNotFoundError(IPSError):
    """A request referenced an IPS table that does not exist."""

    def __init__(self, table: str) -> None:
        super().__init__(f"table not found: {table!r}")
        self.table = table


class ProfileNotFoundError(IPSError):
    """A query referenced a profile id with no stored data."""

    def __init__(self, profile_id: int) -> None:
        super().__init__(f"profile not found: {profile_id}")
        self.profile_id = profile_id


class InvalidTimeRangeError(IPSError):
    """A time range is empty, inverted or otherwise unusable."""


class InvalidQueryError(IPSError):
    """A read request combines parameters in an unsupported way."""


class SerializationError(IPSError):
    """Profile data could not be encoded or decoded."""


class CompressionError(IPSError):
    """A compressed block is corrupt or uses an unknown framing."""


class StorageError(IPSError):
    """The persistent key-value store failed an operation."""


class VersionConflictError(StorageError):
    """A versioned ``xset`` lost the race against a newer write.

    This mirrors the version fencing of the paper's Fig. 14: the caller holds
    a stale version and must reload before retrying.
    """

    def __init__(self, key: bytes, held: int, current: int) -> None:
        super().__init__(
            f"stale version for key {key!r}: held {held}, current {current}"
        )
        self.key = key
        self.held = held
        self.current = current


class WALCorruptionError(StorageError):
    """A write-ahead-log record failed its CRC or framing check.

    Raised only by explicit integrity probes; replay never raises it —
    corruption truncates the log at the last valid record instead, because
    a torn tail is the *expected* outcome of a crash mid-append.
    """


class SimulatedCrashError(BaseException):
    """Process death injected by the crash-point harness.

    Deliberately derives from :class:`BaseException`, not
    :class:`IPSError`: a simulated crash must rip through the ``except
    Exception`` handlers that make the serving and flush paths resilient,
    exactly as a real SIGKILL would.  Only the harness itself catches it.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"simulated crash at {site}{suffix}")
        self.site = site


class QuotaExceededError(IPSError):
    """A caller exceeded its server-side QPS quota and was rejected."""

    def __init__(self, caller: str, quota: float) -> None:
        super().__init__(f"caller {caller!r} exceeded quota of {quota:g} qps")
        self.caller = caller
        self.quota = quota


class RetryableError:
    """Marker mixin: retrying the operation (ideally against another
    replica) has a reasonable chance of succeeding.

    The retry taxonomy below is the single source of truth the cluster
    client and the resilience layer share, so both classify errors
    identically.  New exception types opt into retries either by mixing
    this class in or by appearing in :data:`RETRYABLE_ERRORS`.
    """


class RPCError(IPSError):
    """Base class for transport-level failures."""


class RPCTimeoutError(RPCError, RetryableError):
    """The simulated transport did not answer within the deadline."""


class NodeUnavailableError(RPCError, RetryableError):
    """The target IPS instance is down or unreachable."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"node unavailable: {node_id}")
        self.node_id = node_id


class NoHealthyNodeError(RPCError):
    """The client could not find any healthy instance for a key."""


class RegionUnavailableError(RPCError):
    """An entire region is marked failed and cannot serve reads."""

    def __init__(self, region: str) -> None:
        super().__init__(f"region unavailable: {region}")
        self.region = region


class CircuitOpenError(RPCError, RetryableError):
    """A per-node circuit breaker is open and rejected the call locally.

    Retryable in the routing sense: another node may serve the key; the
    broken node itself must not be retried until its breaker half-opens.
    """

    def __init__(self, node_id: str) -> None:
        super().__init__(f"circuit open for node: {node_id}")
        self.node_id = node_id


class DeadlineExceededError(RPCError):
    """The per-request deadline expired before the request completed.

    Deliberately *not* retryable: there is no time budget left, so the
    client surfaces the error instead of burning another attempt.
    """

    def __init__(self, operation: str, budget_ms: float) -> None:
        super().__init__(
            f"deadline exceeded after {budget_ms:g} ms during {operation}"
        )
        self.operation = operation
        self.budget_ms = budget_ms


#: Errors a retry may fix (transient transport / storage hiccups).  Kept in
#: sync with the :class:`RetryableError` mixin; prefer :func:`is_retryable`.
RETRYABLE_ERRORS = (NodeUnavailableError, RPCTimeoutError, StorageError,
                    CircuitOpenError)

#: Errors that fail a whole region for the request (handled by region
#: failover, never by same-region retries).
REGION_FATAL_ERRORS = (RegionUnavailableError, NoHealthyNodeError,
                       QuotaExceededError)


def is_retryable(exc: BaseException) -> bool:
    """Shared retryability test for the client and the resilience layer.

    An exception is retryable when it carries the :class:`RetryableError`
    mixin or is one of the legacy :data:`RETRYABLE_ERRORS` types, and is
    not region-fatal or deadline-related.
    """
    if isinstance(exc, (DeadlineExceededError,) + REGION_FATAL_ERRORS):
        return False
    return isinstance(exc, (RetryableError,) + RETRYABLE_ERRORS)


def is_region_fatal(exc: BaseException) -> bool:
    """True when the error fails the whole region for this request."""
    return isinstance(exc, REGION_FATAL_ERRORS)


class WireCodecError(RPCError):
    """A frame or value could not be encoded or decoded."""


class RemoteError(RPCError):
    """A worker-side failure whose type the client could not reconstruct."""


class RetryableRemoteError(RPCError, RetryableError):
    """Like :class:`RemoteError`, but the original type was retryable."""


# ----------------------------------------------------------------------
# Errors as records: (type name, message, structured args)
# ----------------------------------------------------------------------
#
# How an error crosses a boundary that cannot carry the object: a socket
# response, or one failed key of a multi-get (``BatchKeyResult``).

#: Name → class for every exception type this module defines, plus the
#: message-constructible builtins a worker realistically raises (bad
#: arguments, internal invariants): a record carries the name, and
#: :func:`error_from_wire` rebuilds the most specific type.
_ERROR_TYPES = {
    name: obj
    for name, obj in dict(globals()).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
}
_ERROR_TYPES.update(
    (cls.__name__, cls)
    for cls in (ValueError, TypeError, KeyError, RuntimeError,
                NotImplementedError, AssertionError)
)

#: Exception types with constructors richer than a bare message: the wire
#: carries their structured attributes so the exact type — and its fields
#: (``profile_id``, ``node_id``, …) — survives the process hop.
_RICH_ERRORS: dict[str, tuple] = {
    "TableNotFoundError": (
        lambda e: (e.table,),
        lambda a: TableNotFoundError(a[0]),
    ),
    "ProfileNotFoundError": (
        lambda e: (e.profile_id,),
        lambda a: ProfileNotFoundError(a[0]),
    ),
    "NodeUnavailableError": (
        lambda e: (e.node_id,),
        lambda a: NodeUnavailableError(a[0]),
    ),
    "CircuitOpenError": (
        lambda e: (e.node_id,),
        lambda a: CircuitOpenError(a[0]),
    ),
    "RegionUnavailableError": (
        lambda e: (e.region,),
        lambda a: RegionUnavailableError(a[0]),
    ),
    "QuotaExceededError": (
        lambda e: (e.caller, e.quota),
        lambda a: QuotaExceededError(a[0], a[1]),
    ),
    "DeadlineExceededError": (
        lambda e: (e.operation, e.budget_ms),
        lambda a: DeadlineExceededError(a[0], a[1]),
    ),
    "VersionConflictError": (
        lambda e: (e.key, e.held, e.current),
        lambda a: VersionConflictError(a[0], a[1], a[2]),
    ),
}


def _class_is_retryable(cls: type) -> bool:
    """Class-level mirror of :func:`is_retryable`."""
    if issubclass(cls, (DeadlineExceededError,) + REGION_FATAL_ERRORS):
        return False
    return issubclass(cls, (RetryableError,) + RETRYABLE_ERRORS)


def error_to_wire(exc: BaseException) -> tuple[str, str, tuple]:
    """Collapse an exception into ``(type_name, message, structured_args)``."""
    name = type(exc).__name__
    rich = _RICH_ERRORS.get(name)
    if rich is not None and isinstance(exc, _ERROR_TYPES.get(name, ())):
        try:
            return name, str(exc), rich[0](exc)
        except AttributeError:
            pass  # a look-alike class without the expected fields
    return name, str(exc), ()


def error_from_wire(error_type: str, message: str, args: tuple = ()) -> Exception:
    """Rebuild the most specific client-side exception for a wire error.

    Rich types listed in :data:`_RICH_ERRORS` are rebuilt exactly from
    their structured args; other known :mod:`repro.errors` types are
    rebuilt from the bare message; unknown types degrade to a
    :class:`RemoteError` / :class:`RetryableRemoteError` chosen so the
    client's retry taxonomy keeps working across the process boundary.
    """
    rich = _RICH_ERRORS.get(error_type)
    if rich is not None and args:
        try:
            return rich[1](args)
        except (TypeError, IndexError, ValueError):
            pass  # fall through to the generic paths
    cls = _ERROR_TYPES.get(error_type)
    if cls is not None:
        if error_type not in _RICH_ERRORS:
            try:
                return cls(message)
            except TypeError:
                pass
        wrapper = RetryableRemoteError if _class_is_retryable(cls) else RemoteError
        return wrapper(f"{error_type}: {message}")
    return RemoteError(f"{error_type}: {message}")
