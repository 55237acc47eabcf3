"""A minimal request/response RPC layer over simulated links.

All Gear components "communicate with each other via HTTP" (§IV).  The
reproduction's equivalent is :class:`RpcTransport`: named endpoints
register handlers; calls pay link costs for the request and the response
payload, then execute the handler synchronously.  This keeps the system
architecture honest (registries are *services*, not in-process objects the
client pokes at) while remaining deterministic.

When the underlying link is a :class:`~repro.net.faults.FaultyLink` the
transport becomes the resilience layer real lazy loaders need: attempts
that time out, hit an outage, or deliver a corrupt payload are retried
under the configured :class:`~repro.net.resilience.RetryPolicy`, with
backoff charged to the virtual clock and every failure accounted in the
endpoint's :class:`RpcStats`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import CorruptPayloadError, TransportError
from repro.net.faults import FaultyLink
from repro.net.link import Link
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricSet

Handler = Callable[..., Tuple[Any, int]]
"""An RPC handler returns ``(result, response_payload_bytes)``."""


@dataclass
class RpcStats(MetricSet):
    """Per-endpoint call accounting.

    ``calls`` counts *successful* calls (the historical meaning);
    ``errors`` counts failed attempts of any kind — transport faults and
    handler exceptions alike — so benchmarks cannot under-report traffic
    by only looking at successes.  ``retries`` counts the re-attempts the
    retry policy issued and ``giveups`` the calls that exhausted it.

    ``metrics()`` comes from :class:`MetricSet`, so the group plugs into
    the :class:`~repro.obs.metrics.MetricsRegistry` snapshot; the counts
    only grow, and :mod:`repro.bench.deploy` reads one deploy's share as
    a before/after delta.
    """

    calls: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    errors: int = 0
    retries: int = 0
    giveups: int = 0


class RpcEndpoint:
    """A named service exposing methods over a link."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._methods: Dict[str, Handler] = {}
        self.stats = RpcStats()

    def register(self, method: str, handler: Handler) -> None:
        """Expose ``handler`` as ``method`` (overwriting is an error)."""
        if method in self._methods:
            raise TransportError(
                f"method {method!r} already registered on {self.name!r}"
            )
        self._methods[method] = handler

    def handle(self, method: str, *args: Any, **kwargs: Any) -> Tuple[Any, int]:
        handler = self._methods.get(method)
        if handler is None:
            raise TransportError(f"{self.name!r} has no method {method!r}")
        return handler(*args, **kwargs)

    def methods(self) -> Tuple[str, ...]:
        return tuple(sorted(self._methods))


class RpcTransport:
    """Routes calls from a client to named endpoints over a link."""

    #: Approximate bytes of request framing (method name, small args).
    REQUEST_FRAME_BYTES = 256

    def __init__(
        self, link: Link, *, retry_policy: Optional[RetryPolicy] = None
    ) -> None:
        self.link = link
        self.retry_policy = retry_policy
        self._endpoints: Dict[str, RpcEndpoint] = {}

    def bind(self, endpoint: RpcEndpoint) -> RpcEndpoint:
        if endpoint.name in self._endpoints:
            raise TransportError(f"endpoint {endpoint.name!r} already bound")
        self._endpoints[endpoint.name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> RpcEndpoint:
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise TransportError(f"no endpoint named {name!r}")
        return endpoint

    def has_endpoint(self, name: str) -> bool:
        """Whether an endpoint named ``name`` is bound to this transport.

        The supported existence probe — callers must not catch
        :class:`~repro.common.errors.TransportError` from
        :meth:`endpoint` to test for presence, since that class also
        covers wire faults.
        """
        return name in self._endpoints

    def call(
        self,
        endpoint_name: str,
        method: str,
        *args: Any,
        request_payload_bytes: int = 0,
        label: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``method`` on the named endpoint, paying link costs.

        ``request_payload_bytes`` covers uploads (e.g. pushing a Gear
        file); the handler's declared response size covers downloads.

        Transport faults (timeouts, outages, corrupt payloads) are
        retried under :attr:`retry_policy`; handler exceptions propagate
        immediately.  Retries re-execute the handler, which is safe
        because every service verb here is idempotent (content-addressed
        stores deduplicate re-uploads, downloads are pure reads).

        The synchronous face of :meth:`call_gen`: a call process parks
        once for the whole call, legs and backoffs included.
        """
        return self.link.clock.drive(self.call_gen(
            endpoint_name, method, *args,
            request_payload_bytes=request_payload_bytes, label=label, **kwargs,
        ))

    def call_gen(
        self,
        endpoint_name: str,
        method: str,
        *args: Any,
        request_payload_bytes: int = 0,
        label: Optional[str] = None,
        **kwargs: Any,
    ):
        """:meth:`call` as a generator: ``yield from`` it in a process."""
        endpoint = self.endpoint(endpoint_name)
        tag = label or f"{endpoint_name}.{method}"
        policy = self.retry_policy
        clock = self.link.clock
        start = clock.now
        attempt = 1
        previous_backoff: Optional[float] = None
        while True:
            try:
                result, response_bytes = yield from self._attempt(
                    endpoint, method, tag, request_payload_bytes, args, kwargs
                )
            except TransportError as error:
                endpoint.stats.errors += 1
                elapsed = clock.now - start
                if policy is None or not policy.should_retry(
                    error, attempt=attempt, elapsed_s=elapsed
                ):
                    if policy is not None and policy.is_retryable(error):
                        endpoint.stats.giveups += 1
                    raise
                backoff = policy.next_backoff(previous_backoff)
                policy.charge(backoff)
                yield from clock.advance_gen(backoff, f"{tag}:backoff")
                endpoint.stats.retries += 1
                previous_backoff = backoff
                attempt += 1
                continue
            except Exception:
                # Handler failure (NotFound, Integrity, …): not a wire
                # problem, never retried, but the traffic still happened.
                endpoint.stats.errors += 1
                raise
            endpoint.stats.calls += 1
            endpoint.stats.request_bytes += request_payload_bytes
            endpoint.stats.response_bytes += response_bytes
            return result

    def _attempt(
        self,
        endpoint: RpcEndpoint,
        method: str,
        tag: str,
        request_payload_bytes: int,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ):
        """One wire round-trip: request, handler, response, checksum."""
        link = self.link
        faulty = link if isinstance(link, FaultyLink) else None
        # This attempt's own view of the wire: a faulty link is told who
        # is being called, for exactly as long as this generator lives.
        wire = link.scoped(endpoint.name)
        # The transfer log keeps the leg labels for the life of the
        # link; interned, every client that fetches the same object
        # over it (or its siblings) keeps the same two strings.
        yield from wire.transfer_gen(
            self.REQUEST_FRAME_BYTES + request_payload_bytes,
            sys.intern(f"{tag}:request"),
        )
        result, response_bytes = endpoint.handle(method, *args, **kwargs)
        if response_bytes:
            yield from wire.transfer_gen(
                response_bytes, sys.intern(f"{tag}:response")
            )
        if faulty is not None:
            verdict = wire.roll_corruption()
            if verdict is not None:
                tampered = (
                    faulty.tamper(result) if verdict == "undetected" else None
                )
                if tampered is None:
                    raise CorruptPayloadError(
                        f"response for {tag!r} failed its framing checksum"
                    )
                result = tampered
        return result, response_bytes
