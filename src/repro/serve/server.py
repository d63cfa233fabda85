"""The ``sized serve`` asyncio front-end.

Single event loop, JSON-lines TCP (see :mod:`repro.serve.protocol`);
requests on one connection are served concurrently and responses are
matched by ``id``.  The data path is::

    handle_request → check_job → budget admit → request_key
                   → KeyedBatcher.submit (a new key dispatches at once;
                      a duplicate of one in flight joins it)
                   → _dispatch (shard route, wall-clock timeout,
                      crash/timeout requeue-once) → settle → respond

Every failure mode resolves to a structured response: a worker crash or
wall-clock timeout kills and rebuilds the shard's warm worker, requeues
the batch exactly once, and a second failure returns ``error.type``
``worker-crash``/``timeout`` to every batch member.  Nothing is dropped
and nothing wedges — the contract ``bench_serve.py`` and the CI smoke
gate on.

The resilience layer hardens the degraded paths (chaos-proven by
``sized chaos`` / :mod:`repro.serve.chaos`):

* **Backpressure** — bounded global in-flight jobs (``max_inflight``)
  and bounded per-shard admission queues (``shard_queue_limit``); both
  shed with a retryable ``overloaded`` error plus a ``retry_after``
  hint rather than queueing without bound.  Joining an in-flight batch
  is always admitted (it adds no load), and every shed settles its
  budget reservation.
* **Circuit breakers** — one :class:`~repro.serve.breaker.
  CircuitBreaker` per shard over the kill→rebuild path: repeated
  crash/timeout inside a window opens it, open shards fast-reject with
  ``shard-unavailable``, a half-open probe closes it on success.
* **Drain-on-shutdown** — :meth:`SizedServer.drain` stops accepting,
  waits out in-flight jobs up to ``drain_timeout``, then fails the
  stragglers with ``shutting-down`` (budgets settled, response written).
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import BrokenExecutor
from typing import Optional

from repro.serve import protocol
from repro.serve.batching import KeyedBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.budgets import TenantBudgets
from repro.serve.metrics import Metrics
from repro.serve.workers import ShardPool

#: Backoff hint (seconds) on every ``overloaded`` shed: warm jobs take a
#: few milliseconds, so by then a full queue has made room, and it is
#: ``RetryPolicy``'s default base delay, so client and server agree.
SHED_RETRY_AFTER = 0.05


def _observe(future: asyncio.Future) -> None:
    """Mark a finished future's exception as retrieved."""
    if not future.cancelled():
        future.exception()


class ServeConfig:
    """Knobs for one server instance (all have production-ish defaults;
    the CLI maps flags onto these 1:1).  Dedupe has no knob: a request
    joins an identical one only while it is in flight."""

    __slots__ = ("host", "port", "workers", "default_fuel",
                 "tenant_budget", "request_timeout",
                 "cache_dir", "allow_fault_injection",
                 "max_inflight", "shard_queue_limit", "breaker_threshold",
                 "breaker_window_s", "breaker_open_s", "drain_timeout")

    def __init__(self, host: str = "127.0.0.1", port: int = 8737,
                 workers: Optional[int] = None,
                 default_fuel: Optional[int] = 5_000_000,
                 tenant_budget: Optional[int] = None,
                 request_timeout: float = 60.0,
                 cache_dir: Optional[str] = None,
                 allow_fault_injection: bool = False,
                 max_inflight: int = 4096,
                 shard_queue_limit: int = 64,
                 breaker_threshold: int = 5,
                 breaker_window_s: float = 30.0,
                 breaker_open_s: float = 5.0,
                 drain_timeout: float = 10.0):
        self.host = host
        self.port = port
        self.workers = workers or min(4, max(os.cpu_count() or 1, 1))
        self.default_fuel = default_fuel
        self.tenant_budget = tenant_budget
        self.request_timeout = request_timeout
        self.cache_dir = cache_dir
        self.allow_fault_injection = allow_fault_injection
        self.max_inflight = max_inflight
        self.shard_queue_limit = shard_queue_limit
        self.breaker_threshold = breaker_threshold
        self.breaker_window_s = breaker_window_s
        self.breaker_open_s = breaker_open_s
        self.drain_timeout = drain_timeout

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class SizedServer:
    def __init__(self, config: ServeConfig):
        self.config = config
        self.metrics = Metrics()
        self.budgets = TenantBudgets(config.tenant_budget)
        self.batcher = KeyedBatcher(self._dispatch)
        self.pools = []
        self.breakers = []
        self._shard_load = []           # dispatched batches per shard
        self._inflight_jobs = 0         # admitted run/verify jobs
        self._inflight_tasks = set()    # asyncio tasks serving job ops
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = asyncio.Event()
        self._draining = False
        self._crash_rr = 0  # round-robin shard for un-keyed fault ops
        self._auto_id = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self.pools = [
            ShardPool(i, self.config.cache_dir)
            for i in range(self.config.workers)
        ]
        self.breakers = [
            CircuitBreaker(self.config.breaker_threshold,
                           self.config.breaker_window_s,
                           self.config.breaker_open_s)
            for _ in self.pools
        ]
        self._shard_load = [0] * len(self.pools)
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port,
            limit=protocol.MAX_LINE)

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting connections, let in-flight
        jobs finish within ``timeout`` seconds, then cancel the
        stragglers — each still gets a structured ``shutting-down``
        response (and its budget reservation settled) rather than a
        silently dropped connection."""
        timeout = self.config.drain_timeout if timeout is None else timeout
        self._stopping.set()
        self._draining = True
        self.metrics.drains += 1
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            pending = {t for t in self._inflight_tasks if not t.done()}
            if not pending:
                break
            remaining = deadline - loop.time()
            if remaining <= 0:
                self.metrics.drain_cancelled += len(pending)
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                break
            await asyncio.wait(pending, timeout=remaining)

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for pool in self.pools:
            pool.shutdown()

    # -- connection handling ------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(writer, write_lock,
                                      protocol.error_response(
                                          None, protocol.E_BAD_REQUEST,
                                          "request line too long"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_line(self, line: bytes, writer, write_lock) -> None:
        rid = None
        try:
            request = protocol.decode(line)
            rid = request.get("id")
            if rid is None:
                self._auto_id += 1
                rid = f"auto-{self._auto_id}"
                request["id"] = rid
            response = await self.handle_request(request)
        except asyncio.CancelledError:
            if not self._draining:
                raise
            # drain deadline: the job is being abandoned, but the client
            # still gets a structured answer, not a silent drop
            response = protocol.error_response(
                rid, protocol.E_SHUTDOWN,
                "server shut down before the request completed "
                "(drain deadline exceeded)")
        except Exception as exc:
            response = protocol.error_response(
                rid, protocol.E_BAD_REQUEST,
                f"{type(exc).__name__}: {exc}")
        self.metrics.record_response(response)
        await self._write(writer, write_lock, response)

    @staticmethod
    async def _write(writer, write_lock, response: dict) -> None:
        try:
            async with write_lock:
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    # -- request handling ---------------------------------------------------

    async def handle_request(self, request: dict) -> dict:
        loop = asyncio.get_running_loop()
        started = loop.time()
        rid = request.get("id")
        op = request.get("op")
        self.metrics.record_request(str(op))
        try:
            if op == "ping":
                return {"id": rid, "ok": True, "pong": True}
            if op == "stats":
                return {"id": rid, "ok": True, "stats": self.stats()}
            if op == "shutdown":
                self._stopping.set()
                return {"id": rid, "ok": True, "stopping": True}
            if op in ("run", "verify", "crash", "hang"):
                # drain() tracks (and at the deadline cancels) the tasks
                # doing real work; ping/stats/shutdown stay untracked
                task = asyncio.current_task()
                self._inflight_tasks.add(task)
                try:
                    if op == "crash":
                        return await self._handle_fault(request, "crash")
                    if op == "hang":
                        return await self._handle_fault(request, "hang")
                    return await self._handle_job(request)
                finally:
                    self._inflight_tasks.discard(task)
            return protocol.error_response(
                rid, protocol.E_BAD_REQUEST, f"unknown op {op!r}")
        finally:
            self.metrics.record_latency(loop.time() - started)

    async def _handle_job(self, request: dict) -> dict:
        rid = request.get("id")
        if self._stopping.is_set():
            return protocol.error_response(
                rid, protocol.E_SHUTDOWN, "server is shutting down")
        job, reason = protocol.check_job(request, self.config.default_fuel)
        if job is None:
            return protocol.error_response(rid, protocol.E_BAD_REQUEST,
                                           reason)
        tenant = str(request.get("tenant", "anonymous"))

        args = job["args"]
        # a verify runs no program, so it reserves no fuel
        admitted, effective_fuel, reason = self.budgets.admit(
            tenant, args.get("fuel", 0))
        if not admitted:
            return protocol.error_response(
                rid, protocol.E_BUDGET, reason,
                tenant=tenant, remaining=self.budgets.remaining(tenant))
        if "fuel" in args:
            args["fuel"] = effective_fuel
        key = protocol.request_key(job)

        # -- admission control: shed rather than queue without bound.
        # Both checks run *after* the budget reservation so every shed
        # path settles — reservations must never leak.  Joining an
        # in-flight batch is always admitted: it adds no shard load.
        shard = self._route(key)
        counted = not self.batcher.has(key)
        if counted:
            if self._inflight_jobs >= self.config.max_inflight:
                self.budgets.settle(tenant, effective_fuel, 0)
                self.metrics.shed_overloaded += 1
                return protocol.error_response(
                    rid, protocol.E_OVERLOADED,
                    f"server at max in-flight capacity "
                    f"({self.config.max_inflight}); retry with backoff",
                    retry_after=SHED_RETRY_AFTER)
            if self._shard_load[shard] >= self.config.shard_queue_limit:
                self.budgets.settle(tenant, effective_fuel, 0)
                self.metrics.shed_shard_queue += 1
                return protocol.error_response(
                    rid, protocol.E_OVERLOADED,
                    f"shard {shard} admission queue full "
                    f"({self.config.shard_queue_limit}); retry with "
                    f"backoff",
                    shard=shard, retry_after=SHED_RETRY_AFTER)
            self._shard_load[shard] += 1
        self._inflight_jobs += 1
        try:
            result, batch_size, joined = await self.batcher.submit(key, job)
        except BaseException:
            # settle even on cancellation: reservations must not leak
            self.budgets.settle(tenant, effective_fuel, 0)
            raise
        finally:
            self._inflight_jobs -= 1
            if counted:
                self._shard_load[shard] -= 1
        steps = result.get("steps", 0) if result.get("ok") else 0
        self.budgets.settle(tenant, effective_fuel, steps)
        if not joined:
            # the leader sees the final batch size once the result lands;
            # one record per execution, not per member
            self.metrics.record_batch(batch_size)
            cache = result.get("cache") or {}
            self.metrics.record_cache(cache.get("hits", 0),
                                      cache.get("misses", 0),
                                      cache.get("rejected", 0))
            self.metrics.record_tier(result.get("tier"))
        response = dict(result)
        response["id"] = rid
        response["tenant"] = tenant
        response["batched"] = joined
        response["key"] = key[:16]
        return response

    async def _handle_fault(self, request: dict, kind: str) -> dict:
        rid = request.get("id")
        if not self.config.allow_fault_injection:
            return protocol.error_response(
                rid, protocol.E_FAULTS_OFF,
                "start the server with --allow-fault-injection to use "
                f"op={kind}")
        shard = request.get("shard")
        if not isinstance(shard, int) or not (0 <= shard < len(self.pools)):
            self._crash_rr = (self._crash_rr + 1) % len(self.pools)
            shard = self._crash_rr
        if kind == "hang":
            job = {"op": "hang", "seconds": request.get("seconds", 0.0)}
        else:
            job = {"op": "crash", "once": bool(request.get("once")),
                   "marker": request.get("marker")}
        result = await self._dispatch_to_shard(shard, job)
        response = dict(result)
        response["id"] = rid
        response["shard"] = shard
        return response

    # -- dispatch -----------------------------------------------------------

    def _route(self, key: str) -> int:
        return int(key[:8], 16) % len(self.pools)

    async def _dispatch(self, key: str, job: dict) -> dict:
        return await self._dispatch_to_shard(self._route(key), job)

    async def _dispatch_to_shard(self, shard: int, job: dict) -> dict:
        """Run one job on its shard's warm worker: wall-clock bounded,
        crash/timeout rebuilds the worker and requeues exactly once.
        The shard's circuit breaker is layered over that: while open,
        requests are rejected immediately (``shard-unavailable`` with a
        ``retry_after`` hint) without touching the worker; a half-open
        breaker admits this job as its probe."""
        pool = self.pools[shard]
        breaker = self.breakers[shard]
        last_error = (protocol.E_CRASH, "worker unavailable")
        for attempt in (1, 2):
            allowed, retry_after = breaker.allow()
            if not allowed:
                self.metrics.breaker_rejected += 1
                return protocol.error_response(
                    None, protocol.E_SHARD_UNAVAILABLE,
                    f"shard {shard} circuit breaker is open after "
                    f"repeated worker faults",
                    shard=shard, retry_after=round(retry_after, 3))
            generation = pool.generation
            try:
                future = asyncio.wrap_future(pool.submit(job))
            except Exception as exc:  # racing a crash: executor broken
                self._rebuild(pool, generation)
                self._breaker_failure(breaker)
                last_error = (protocol.E_CRASH,
                              f"worker pool broken: {exc}")
            else:
                try:
                    # shielded: a timeout must not cancel a job still
                    # queued on the executor, which fails it instead when
                    # the rebuild kills the wedged worker
                    result = await asyncio.wait_for(
                        asyncio.shield(future), self.config.request_timeout)
                # NB: TimeoutError must be tried before OSError — since
                # 3.10 asyncio.TimeoutError IS the builtin TimeoutError,
                # an OSError subclass.
                except asyncio.TimeoutError:
                    self.metrics.request_timeouts += 1
                    # the rebuild fails the job; read that failure, or
                    # asyncio reports it as never retrieved
                    future.add_done_callback(_observe)
                    # wedged: the rebuild kills it (a bare kill could hit
                    # the worker another failure already rebuilt)
                    self._rebuild(pool, generation)
                    self._breaker_failure(breaker)
                    last_error = (
                        protocol.E_TIMEOUT,
                        f"request exceeded the "
                        f"{self.config.request_timeout}s wall-clock "
                        f"limit; worker recycled")
                except (BrokenExecutor, OSError) as exc:
                    self.metrics.worker_crashes += 1
                    self._rebuild(pool, generation)
                    self._breaker_failure(breaker)
                    last_error = (protocol.E_CRASH,
                                  f"worker died mid-request: "
                                  f"{type(exc).__name__}: {exc}")
                else:
                    if breaker.record_success():
                        self.metrics.breaker_closed += 1
                    return result
            if attempt == 1:
                self.metrics.requeues += 1
        return protocol.error_response(
            None, last_error[0], last_error[1],
            shard=shard, requeued=True)

    def _breaker_failure(self, breaker: CircuitBreaker) -> None:
        if breaker.record_failure():
            self.metrics.breaker_opened += 1

    def _rebuild(self, pool: ShardPool, generation: int) -> None:
        if pool.rebuild_if(generation):
            self.metrics.rebuilds += 1

    # -- the stats surface --------------------------------------------------

    def stats(self) -> dict:
        snap = self.metrics.snapshot()
        snap["config"] = self.config.snapshot()
        snap["budgets"] = self.budgets.snapshot()
        snap["shards"] = {
            "count": len(self.pools),
            "generations": [p.generation for p in self.pools],
            "queued": list(self._shard_load),
            "breakers": [b.snapshot() for b in self.breakers],
        }
        snap["pending_batches"] = self.batcher.pending()
        snap["inflight"] = self._inflight_jobs
        return snap


async def serve_main(config: ServeConfig, *, announce=print) -> int:
    """Start, announce ``listening on HOST:PORT`` (parsed by
    ``bench_serve.py`` and ``make serve-smoke``), run until a shutdown
    request or cancellation, then drain."""
    server = SizedServer(config)
    await server.start()
    announce(f"sized serve listening on {config.host}:{server.port} "
             f"({config.workers} workers)", flush=True)
    try:
        await server.wait_stopped()
        # grace period: let the shutdown response (and any racing
        # untracked ping/stats responses) flush, then drain: stop
        # accepting, finish in-flight jobs within the deadline, fail
        # the rest with a structured shutting-down error
        await asyncio.sleep(0.1)
        await server.drain()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
    return 0
