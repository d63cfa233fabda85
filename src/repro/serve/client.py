"""The client for the ``sized serve`` JSON-lines protocol.

:class:`AsyncServeClient` is the one implementation: it multiplexes any
number of in-flight requests over one connection (a reader task
resolves futures by ``id``) — the shape ``bench_serve.py`` uses to hold
thousands of concurrent requests open.  :class:`ServeClient` is a
blocking facade over it for tests and scripts: it owns a private event
loop and runs one request to completion at a time.  It cannot be called
from inside a running event loop; code that has one uses
:class:`AsyncServeClient`.

Both are *resilient by opt-in*: with a :class:`RetryPolicy` (the
facade builds one from ``retries=``) transient service errors
(``overloaded``, ``shard-unavailable``, ``worker-crash``,
``connection-lost`` — see :data:`repro.serve.protocol.RETRYABLE_ERRORS`)
are retried with capped exponential backoff plus jitter, honouring the
server's ``retry_after`` hint.  Retries are idempotent by construction:
the content-addressed request key means a resent request either joins
the original execution's batch or re-runs to the same answer.  The
jitter RNG is seedable so the chaos harness's retry schedule is part of
its deterministic fault plan.

Failure behaviour without retries: a dead connection *resolves* every
pending request with a structured ``connection-lost`` error response —
nothing ever hangs forever on a silent EOF.  A timed-out request's
waiter is forgotten, so its late answer is dropped by id instead of
being taken for a later request's.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
from typing import Dict, Optional

from repro.serve import protocol

# ops whose responses are pure functions of the request — safe to resend
_IDEMPOTENT_OPS = frozenset({"run", "verify", "ping", "stats"})


class RetryPolicy:
    """Capped exponential backoff with full jitter.

    ``delay(attempt, hint)`` is ``uniform(0, min(cap, base * 2**attempt))``
    floored at the server's ``retry_after`` hint — the server knows how
    long a breaker stays open or a queue needs to clear better than any
    client-side guess does.
    """

    __slots__ = ("retries", "base", "cap", "_rng")

    def __init__(self, retries: int = 4, base: float = 0.05,
                 cap: float = 2.0, seed: Optional[int] = None):
        self.retries = max(int(retries), 0)
        self.base = base
        self.cap = cap
        self._rng = random.Random(seed)

    def delay(self, attempt: int, hint: float = 0.0) -> float:
        backoff = min(self.cap, self.base * (2 ** attempt))
        return max(hint, self._rng.uniform(0.0, backoff))


def _lost(rid, detail: str) -> dict:
    return protocol.error_response(
        rid, protocol.E_CONNECTION_LOST,
        f"serve connection lost: {detail}")


class AsyncServeClient:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, tag: str = "c",
                 retry: Optional[RetryPolicy] = None):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._tag = tag
        self._retry = retry
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._waiters: Dict[str, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._closed = False
        self._closing = False
        # observability (the bench and chaos harness report these)
        self.retries_used = 0
        self.connection_losses = 0
        self.unmatched_responses = 0   # a response no waiter claimed
        self.malformed_lines = 0

    @classmethod
    async def connect(cls, host: str, port: int, tag: str = "c",
                      retry: Optional[RetryPolicy] = None
                      ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE)
        client = cls(reader, writer, tag=tag, retry=retry)
        client._host, client._port = host, port
        return client

    # -- the read loop -------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    self.malformed_lines += 1
                    continue
                if not isinstance(response, dict):
                    self.malformed_lines += 1
                    continue
                waiter = self._waiters.pop(response.get("id"), None)
                if waiter is None:
                    self.unmatched_responses += 1
                elif not waiter.done():
                    waiter.set_result(response)
        except (ConnectionError, asyncio.CancelledError, ValueError,
                OSError):
            pass
        finally:
            self._closed = True
            if self._waiters and not self._closing:
                self.connection_losses += 1
            # resolve (don't except) every pending request with a
            # structured connection-lost error: nothing hangs forever,
            # and the retry layer treats it like any retryable error
            for rid, waiter in list(self._waiters.items()):
                if not waiter.done():
                    waiter.set_result(_lost(rid, "EOF with the request "
                                                 "in flight"))
            self._waiters.clear()

    # -- requests ------------------------------------------------------------

    async def request(self, obj: dict,
                      timeout: Optional[float] = None) -> dict:
        """Send one request and return its response dict.

        With a :class:`RetryPolicy`, retryable error responses (and
        connection loss, when the client knows its host/port) are
        retried under the same ``id``; ``timeout`` applies per attempt
        and is *not* retried — a slow answer is not a transient fault.
        """
        obj = dict(obj)
        rid = obj.setdefault("id", f"{self._tag}-{next(self._ids)}")
        retryable_op = obj.get("op") in _IDEMPOTENT_OPS
        attempts = (self._retry.retries + 1
                    if self._retry is not None and retryable_op else 1)
        response = _lost(rid, "never connected")
        for attempt in range(attempts):
            if attempt:
                self.retries_used += 1
                await asyncio.sleep(self._retry.delay(
                    attempt - 1, protocol.retry_after_hint(response)))
            response = await self._attempt(obj, rid, timeout)
            if not protocol.is_retryable(response):
                return response
            etype = (response.get("error") or {}).get("type")
            if etype == protocol.E_CONNECTION_LOST:
                if not await self._reconnect():
                    return response
        return response

    async def _attempt(self, obj: dict, rid,
                       timeout: Optional[float]) -> dict:
        if self._closed:
            return _lost(rid, "connection closed")
        future = asyncio.get_running_loop().create_future()
        self._waiters[rid] = future
        try:
            self._writer.write(protocol.encode(obj))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._waiters.pop(rid, None)
            return _lost(rid, f"write failed: {exc}")
        # the read loop may have died between the closed-check and the
        # registration; a registered-but-orphaned waiter must not hang
        if self._closed and not future.done():
            self._waiters.pop(rid, None)
            return _lost(rid, "connection closed during send")
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            # forget the waiter: a late response must not look like a
            # duplicate for the *next* request on this id
            self._waiters.pop(rid, None)
            raise

    async def _reconnect(self) -> bool:
        """Re-dial after connection loss (only possible when built via
        :meth:`connect`).  Pending requests of the old connection were
        already resolved with ``connection-lost`` by the read loop."""
        if self._host is None or self._closing:
            return False
        self._reader_task.cancel()
        try:
            self._writer.close()
        except Exception:
            pass
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port, limit=protocol.MAX_LINE)
        except OSError:
            return False
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return True

    async def close(self) -> None:
        self._closing = True
        self._reader_task.cancel()
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass


class ServeClient:
    """Blocking facade over :class:`AsyncServeClient`, one request at a
    time, on a private event loop — so not for use inside a running
    loop (building it or calling :meth:`request` there raises
    ``RuntimeError``).

    ``timeout`` bounds the connect and each request attempt unless the
    call passes its own; a timed-out request raises ``TimeoutError``
    and its late answer is discarded by id (``stale_discarded``).  With
    ``retries > 0`` retryable errors are resent under a
    :class:`RetryPolicy`.  A connection found closed is re-dialled
    before the next request, so after a cut that one request answers
    ``connection-lost`` (without retries) and the next one goes out on
    a fresh connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0,
                 retries: int = 0, retry_base: float = 0.05,
                 retry_cap: float = 2.0, seed: Optional[int] = None):
        self._timeout = timeout
        self._runner = asyncio.Runner(loop_factory=asyncio.new_event_loop)
        retry = (RetryPolicy(retries, retry_base, retry_cap, seed)
                 if retries else None)
        try:
            self._client = self._runner.run(asyncio.wait_for(
                AsyncServeClient.connect(host, port, tag="sync",
                                         retry=retry), timeout))
        except BaseException:
            self._runner.close()
            raise

    @property
    def retries_used(self) -> int:
        return self._client.retries_used

    @property
    def stale_discarded(self) -> int:
        return self._client.unmatched_responses

    def request(self, obj: dict, timeout: Optional[float] = None) -> dict:
        client = self._client
        if client._closed:
            self._runner.run(client._reconnect())
        return self._runner.run(client.request(
            obj, self._timeout if timeout is None else timeout))

    def close(self) -> None:
        if not self._client._closing:
            self._runner.run(self._client.close())
        self._runner.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
