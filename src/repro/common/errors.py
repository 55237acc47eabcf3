"""Exception hierarchy for the whole reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without swallowing programming errors.
"""


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class NotFoundError(ReproError, KeyError):
    """A requested object (file, layer, image, blob) does not exist.

    Also derives from ``KeyError`` because most lookups are mapping-like.
    """

    def __str__(self) -> str:  # KeyError quotes its message; keep it plain.
        return Exception.__str__(self)


class StorageError(ReproError):
    """A storage backend (disk, pool, object store) rejected an operation."""


class TransportError(ReproError):
    """A simulated network transfer failed (unreachable peer, bad frame)."""


class TimeoutError(TransportError):  # noqa: A001 - deliberate shadow
    """A request or response was lost; the client waited out its timer.

    Named after the condition a real client observes: it cannot tell a
    dropped request from a dropped response, only that no answer arrived
    within the timeout.  Retryable.
    """


class UnavailableError(TransportError):
    """The peer refused or stalled the connection (outage window).

    Models a registry that is down or unreachable; attempts during the
    outage fail after paying the connect/stall cost.  Retryable.
    """


class CorruptPayloadError(TransportError):
    """A response payload failed the transport's framing checksum.

    The wire delivered bytes that do not match what the peer sent; the
    transfer itself completed (and was charged), but the payload is
    unusable.  Retryable — a re-fetch gets a fresh copy.
    """


class TierOverloadedError(UnavailableError):
    """A bounded serving tier shed this request (typed 503 backpressure).

    The common shape of every admission-gate shed: the tier is healthy
    but full, so it rejects fast instead of queueing unboundedly.
    Derives from :class:`UnavailableError` so every existing resilience
    path — :class:`~repro.net.resilience.RetryPolicy` backoff, tier
    failover, the degraded Docker-pull fallback — treats overload as the
    transient condition it is.  Crucially, a shed is *deliberate* load
    control, not a health signal: callers back off and retry (or fall
    through to the next tier) but never count it against a circuit
    breaker.
    """


class RegistryOverloadedError(TierOverloadedError):
    """The registry's bounded admission queue shed this request (503).

    Raised by a replica's admission gate when more requests are in
    flight than it will queue.  The registry-specific face of
    :class:`TierOverloadedError`, kept distinct so HA accounting can
    tell replica sheds from shared-cache-tier sheds.
    """


class FetchCancelledError(TransportError):
    """An in-flight transfer was cancelled by its initiator.

    Hedged fetches cancel the losing replica's transfer the moment the
    winner lands; the cancelled flow is charged only the bytes it
    actually moved.  Never retried: the caller already has the payload
    from the winning replica.
    """

    def __init__(self, message: str, *, bytes_transferred: int = 0) -> None:
        super().__init__(message)
        #: Payload bytes the cancelled flow had moved before cancellation.
        self.bytes_transferred = bytes_transferred


class ClientCrash(ReproError):
    """The simulated client process died at an injected crash point.

    Raised by the crash injector (:mod:`repro.net.faults`) at an exact
    virtual instant inside the deployment path.  Whatever durable state
    existed at that instant — pool entries, journal records, index links
    — is left exactly as it was; recovery is the job of
    :func:`repro.gear.recovery.fsck`.
    """

    def __init__(
        self,
        message: str,
        *,
        point: str = "",
        op_index: int = 0,
        at_s: float = 0.0,
    ) -> None:
        super().__init__(message)
        #: Which crash point fired (``CrashPoint.value``).
        self.point = point
        #: Which occurrence of that point fired (0-based).
        self.op_index = op_index
        #: Virtual time of death.
        self.at_s = at_s


class IntegrityError(ReproError):
    """Content failed verification against its digest or fingerprint."""


class ChunkIntegrityError(IntegrityError):
    """A chunk-granular fetch exhausted its refetch budget on bad chunks.

    Raised by the chunk-granular big-file path
    (:mod:`repro.gear.bigfile`) when a downloaded chunk repeatedly fails
    verification against its manifest fingerprint, or when an assembled
    partial file does not hash to the identity it claims.  The poisoned
    chunk is quarantined — it never reaches the partial's present set,
    let alone a committed pool entry.
    """

    def __init__(
        self,
        message: str,
        *,
        identity: str = "",
        chunk_index: int = -1,
    ) -> None:
        super().__init__(message)
        #: The Gear file identity whose chunk fetch failed.
        self.identity = identity
        #: Offending chunk index (-1 for whole-file assembly failures).
        self.chunk_index = chunk_index


class GearError(ReproError):
    """An operation violated the Gear image format or framework contract."""


class VfsError(ReproError):
    """A virtual filesystem operation failed (bad path, wrong node type)."""


class IsADirectoryVfsError(VfsError):
    """Expected a non-directory node but found a directory."""


class NotADirectoryVfsError(VfsError):
    """Expected a directory node on the path but found something else."""


class FileExistsVfsError(VfsError):
    """Attempted to create a node over an existing one without overwrite."""


class SymlinkLoopError(VfsError):
    """Path resolution followed too many symbolic links (ELOOP)."""


class ReadOnlyVfsError(VfsError):
    """Attempted to mutate a read-only filesystem or layer."""
