"""The serve resilience layer, unit by unit, plus a seeded chaos smoke.

Companion to ``tests/test_serve.py`` (which proves the service's happy
paths and single-fault recovery).  This file pins the degraded paths the
chaos campaign exercises at scale:

* circuit breakers trip, fast-reject, half-open, and close — on an
  injectable clock, no sleeps;
* retry policies back off with capped jitter, deterministically under a
  seed, and honour the server's ``retry_after`` hint;
* a cold :class:`~repro.serve.metrics.Metrics` snapshot is all zeros —
  never ``None``, never a ``ZeroDivisionError``;
* a dead connection resolves (not hangs) pending async requests with a
  structured ``connection-lost`` error;
* a timed-out sync request cannot desynchronise the response stream,
  and a cut one is reported (then re-dialled) or resent;
* load shedding is structured and retryable, and every shed request
  settles its budget reservation;
* budgets are conserved across client disconnects and worker crashes;
* drain answers stragglers with ``shutting-down``;
* a small ``sized chaos`` campaign passes end to end (the smoke gate —
  CI runs this per-PR, the nightly runs the full campaign).
"""

import asyncio
import contextlib
import socket
import threading

import pytest

from repro.serve import (AsyncServeClient, RetryPolicy, ServeConfig,
                         SizedServer, protocol)
from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient
from repro.serve.metrics import Metrics, percentile

QUICK = "(define (f n) (if (zero? n) 42 (f (- n 1))))\n(f 10)\n"


def quick(i):
    return (f"(define (f n) (if (zero? n) {100 + i} (f (- n 1))))\n"
            f"(f 10)\n")


@contextlib.asynccontextmanager
async def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    server = SizedServer(ServeConfig(**kwargs))
    await server.start()
    client = await AsyncServeClient.connect("127.0.0.1", server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.stop()


def run(coro):
    return asyncio.run(coro)


class TestCircuitBreaker:
    def _clocked(self, **kwargs):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0], **kwargs)
        return breaker, now

    def test_trips_after_threshold_in_window(self):
        breaker, _ = self._clocked(failure_threshold=3, window_s=10.0)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()       # third failure trips
        assert breaker.state == "open"
        allowed, retry_after = breaker.allow()
        assert not allowed and retry_after > 0

    def test_old_failures_age_out_of_window(self):
        breaker, now = self._clocked(failure_threshold=3, window_s=5.0)
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 6.0                          # both fall out of the window
        assert not breaker.record_failure()
        assert breaker.state == "closed"

    def test_success_clears_the_window(self):
        breaker, _ = self._clocked(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()   # count restarted
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe_then_closes(self):
        breaker, now = self._clocked(failure_threshold=1, open_s=5.0)
        assert breaker.record_failure()
        now[0] = 5.1
        allowed, _ = breaker.allow()          # the probe
        assert allowed and breaker.state == "half-open"
        also, hint = breaker.allow()          # concurrent request
        assert not also and hint > 0
        assert breaker.record_success()       # probe closes it
        assert breaker.state == "closed"
        assert breaker.snapshot()["closes"] == 1

    def test_probe_failure_reopens(self):
        breaker, now = self._clocked(failure_threshold=1, open_s=5.0)
        breaker.record_failure()
        now[0] = 5.1
        assert breaker.allow()[0]
        assert breaker.record_failure()       # probe died: back to open
        assert breaker.state == "open"
        assert not breaker.allow()[0]
        assert breaker.snapshot()["opens"] == 2


class TestRetryPolicy:
    def test_delay_is_capped_and_non_negative(self):
        policy = RetryPolicy(retries=8, base=0.1, cap=0.5, seed=1)
        for attempt in range(12):
            delay = policy.delay(attempt)
            assert 0.0 <= delay <= 0.5

    def test_server_hint_floors_the_delay(self):
        policy = RetryPolicy(base=0.01, cap=0.02, seed=1)
        assert policy.delay(0, hint=0.75) == 0.75

    def test_seeded_schedule_is_deterministic(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.delay(i) for i in range(6)] == \
            [b.delay(i) for i in range(6)]


class TestMetricsEmptyWindows:
    def test_percentile_of_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([], 0.99) == 0.0

    def test_cold_snapshot_is_all_zeros_not_none(self):
        snap = Metrics().snapshot()
        assert snap["cache"]["hit_rate"] == 0.0
        assert snap["batches"]["mean_size"] == 0.0
        lat = snap["latency_ms"]
        assert (lat["count"], lat["p50"], lat["p99"], lat["max"],
                lat["mean"]) == (0, 0.0, 0.0, 0.0, 0.0)
        assert snap["throughput_rps"] >= 0.0
        for value in snap["resilience"].values():
            assert value == 0


class TestConnectionLoss:
    def test_eof_resolves_pending_requests_structured(self):
        """A server that dies mid-request must *resolve* every pending
        future with a ``connection-lost`` error — never hang them."""

        async def scenario():
            async def handler(reader, writer):
                await reader.readline()       # swallow the request...
                writer.close()                # ...and die without answering

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncServeClient.connect("127.0.0.1", port)
            response = await asyncio.wait_for(
                client.request({"op": "ping"}), timeout=5)
            server.close()
            await client.close()
            return response, client.connection_losses

        response, losses = run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == protocol.E_CONNECTION_LOST
        assert protocol.is_retryable(response)
        assert losses == 1

    def test_retrying_client_reconnects_after_cut(self):
        """connection-lost + a RetryPolicy = re-dial and resend; the
        caller sees only the final answer."""

        async def scenario():
            calls = [0]

            async def handler(reader, writer):
                line = await reader.readline()
                calls[0] += 1
                if calls[0] == 1:
                    writer.close()            # first attempt: cut
                    return
                import json
                rid = json.loads(line)["id"]
                writer.write(protocol.encode(
                    {"id": rid, "ok": True, "kind": "pong"}))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncServeClient.connect(
                "127.0.0.1", port, retry=RetryPolicy(
                    retries=3, base=0.01, cap=0.05, seed=7))
            response = await asyncio.wait_for(
                client.request({"op": "ping"}), timeout=5)
            server.close()
            await client.close()
            return response, client.retries_used

        response, retries = run(scenario())
        assert response.get("ok") and response["kind"] == "pong"
        assert retries >= 1


class TestSyncClientDesync:
    def test_timeout_does_not_poison_the_stream(self):
        """After a per-request timeout, the late response must be
        discarded by id — the *next* call gets its own answer, not the
        stale one (the classic lock-step desync bug)."""
        started = threading.Event()
        stop = threading.Event()
        port_box = []

        def server_thread():
            async def main():
                async def handler(reader, writer):
                    import json
                    try:
                        while line := await reader.readline():
                            req = json.loads(line)
                            if req["op"] == "slow":
                                await asyncio.sleep(0.6)
                            writer.write(protocol.encode(
                                {"id": req["id"], "ok": True,
                                 "kind": req["op"]}))
                            await writer.drain()
                    finally:
                        writer.close()

                server = await asyncio.start_server(
                    handler, "127.0.0.1", 0)
                port_box.append(server.sockets[0].getsockname()[1])
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.05)
                server.close()

            asyncio.run(main())

        thread = threading.Thread(target=server_thread, daemon=True)
        thread.start()
        assert started.wait(5)
        client = ServeClient("127.0.0.1", port_box[0], timeout=5.0)
        try:
            with pytest.raises((TimeoutError, socket.timeout)):
                client.request({"op": "slow"}, timeout=0.15)
            # the late 'slow' response is still in flight; this answer
            # must be 'fast', matched by id, not the stale line
            response = client.request({"op": "fast"}, timeout=5.0)
            assert response["ok"] and response["kind"] == "fast"
            assert client.stale_discarded >= 1
        finally:
            stop.set()
            client.close()
            thread.join(timeout=5)


@contextlib.contextmanager
def cutting_server(cuts):
    """A thread-hosted stub server that closes the connection instead of
    answering its first ``cuts`` requests, then answers each with
    ``pong``; yields its port."""
    started = threading.Event()
    stop = threading.Event()
    port_box = []
    left = [cuts]

    def server_thread():
        async def main():
            async def handler(reader, writer):
                import json
                try:
                    while line := await reader.readline():
                        if left[0]:
                            left[0] -= 1
                            return
                        writer.write(protocol.encode(
                            {"id": json.loads(line)["id"], "ok": True,
                             "kind": "pong"}))
                        await writer.drain()
                finally:
                    writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port_box.append(server.sockets[0].getsockname()[1])
            started.set()
            while not stop.is_set():
                await asyncio.sleep(0.05)
            server.close()

        asyncio.run(main())

    thread = threading.Thread(target=server_thread, daemon=True)
    thread.start()
    assert started.wait(5)
    try:
        yield port_box[0]
    finally:
        stop.set()
        thread.join(timeout=5)


class TestSyncClientReconnect:
    def test_without_retries_a_cut_is_reported_then_redialled(self):
        """``retries=0``: the cut request answers ``connection-lost``,
        and the next request on the same client is answered."""
        with cutting_server(cuts=1) as port, \
                ServeClient("127.0.0.1", port, timeout=5.0) as client:
            lost = client.request({"op": "ping"})
            assert lost["error"]["type"] == protocol.E_CONNECTION_LOST
            assert client.request({"op": "ping"})["kind"] == "pong"
            assert client.retries_used == 0

    def test_with_retries_a_cut_request_is_resent(self):
        with cutting_server(cuts=1) as port, \
                ServeClient("127.0.0.1", port, timeout=5.0, retries=2,
                            seed=0) as client:
            assert client.request({"op": "ping"})["kind"] == "pong"
            assert client.retries_used >= 1


class TestLoadShedding:
    def test_shed_is_structured_and_settles_budget(self):
        """With a one-request in-flight cap, a concurrent burst of
        distinct programs is load-shed with retryable ``overloaded`` +
        ``retry_after`` — and every shed settles its reservation."""

        async def scenario():
            async with serve(tenant_budget=10_000_000,
                             max_inflight=1) as (server, client):
                requests = [
                    client.request({"op": "run", "program": quick(i),
                                    "fuel": 1000, "tenant": "t"},
                                   timeout=30)
                    for i in range(8)
                ]
                responses = await asyncio.gather(*requests)
                snap = server.budgets.snapshot()
                stats = server.metrics.snapshot()
                return responses, snap, stats

        responses, snap, stats = run(scenario())
        shed = [r for r in responses if not r.get("ok")]
        served = [r for r in responses if r.get("ok")]
        assert served, "at least the first request must run"
        assert shed, "a 1-deep server under an 8-burst must shed"
        for r in shed:
            assert r["error"]["type"] == protocol.E_OVERLOADED
            assert r["error"]["retry_after"] == 0.05
            assert protocol.is_retryable(r)
        assert stats["resilience"]["shed_overloaded"] == len(shed)
        # satellite invariant: shed requests settled their reservations
        assert snap["open_reservations"] == 0
        row = snap["tenants"]["t"]
        assert row["spent"] + row["remaining"] == 10_000_000

    def test_retrying_client_rides_out_shedding(self):
        async def scenario():
            async with serve(max_inflight=1) as (server, _):
                client = await AsyncServeClient.connect(
                    "127.0.0.1", server.port,
                    retry=RetryPolicy(retries=8, base=0.02, cap=0.2,
                                      seed=3))
                responses = await asyncio.gather(*[
                    client.request({"op": "run", "program": quick(i),
                                    "fuel": 1000}, timeout=30)
                    for i in range(8)
                ])
                await client.close()
                return responses, client.retries_used

        responses, retries = run(scenario())
        assert all(r.get("ok") for r in responses)
        assert retries >= 1


class TestBudgetConservationUnderFailure:
    def test_disconnect_mid_request_still_settles(self):
        """A client that vanishes mid-request must not leak its
        reservation: the job completes server-side and settles."""

        async def scenario():
            async with serve(tenant_budget=10_000_000) as (server, _):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(protocol.encode(
                    {"op": "run", "id": "gone", "tenant": "t",
                     "program": QUICK, "fuel": 1000}))
                await writer.drain()
                writer.close()                # vanish before the answer
                deadline = asyncio.get_running_loop().time() + 10
                while not (server.metrics.requests.get("run")
                           and server.budgets.open_reservations() == 0):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                return server.budgets.snapshot()

        snap = run(scenario())
        assert snap["open_reservations"] == 0
        row = snap["tenants"]["t"]
        assert row["spent"] > 0
        assert row["spent"] + row["remaining"] == 10_000_000

    def test_worker_crashes_do_not_leak_reservations(self):
        """Runs racing repeated shard kills end in *some* structured
        response — and whatever the outcome, the fuel ledger balances."""

        async def scenario():
            async with serve(tenant_budget=50_000_000,
                             allow_fault_injection=True,
                             breaker_open_s=0.2) as (server, client):
                jobs = [
                    client.request({"op": "run", "program": quick(i),
                                    "fuel": 1000, "tenant": "t"},
                                   timeout=60)
                    for i in range(6)
                ]
                kills = [
                    client.request({"op": "crash", "shard": i % 2},
                                   timeout=60)
                    for i in range(4)
                ]
                responses = await asyncio.gather(*jobs, *kills)
                deadline = asyncio.get_running_loop().time() + 10
                while server.budgets.open_reservations():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                return responses, server.budgets.snapshot()

        responses, snap = run(scenario())
        assert all(isinstance(r, dict) for r in responses)
        assert snap["open_reservations"] == 0
        row = snap["tenants"]["t"]
        assert row["spent"] + row["remaining"] == 50_000_000


class TestDrain:
    def test_drain_completes_quick_inflight_work(self):
        async def scenario():
            async with serve() as (server, client):
                job = asyncio.ensure_future(client.request(
                    {"op": "run", "program": QUICK, "fuel": 100_000},
                    timeout=30))
                await asyncio.sleep(0.05)
                await server.drain(5.0)
                return await job, server.metrics.drains

        response, drains = run(scenario())
        assert response["ok"] and response["value"] == "42"
        assert drains == 1

    def test_drain_deadline_fails_stragglers_structured(self):
        """A wedged in-flight job at the drain deadline is answered
        with ``shutting-down`` — the client is told, not abandoned."""

        async def scenario():
            async with serve(allow_fault_injection=True,
                             request_timeout=30.0) as (server, client):
                job = asyncio.ensure_future(client.request(
                    {"op": "hang", "seconds": 10.0}, timeout=30))
                await asyncio.sleep(0.2)      # let it reach a worker
                await server.drain(0.3)
                response = await asyncio.wait_for(job, timeout=5)
                return response, server.metrics.snapshot()

        response, stats = run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == protocol.E_SHUTDOWN
        assert stats["resilience"]["drain_cancelled"] >= 1


class TestChaosSmoke:
    def test_small_campaign_all_invariants_hold(self):
        """The PR-blocking smoke: a small seeded campaign with every
        fault kind enabled must satisfy all invariants."""
        from repro.serve.chaos import run_campaign

        report, failures = run_campaign(n=30, seed=0)
        assert failures == [], failures
        assert sum(report["injected"].values()) > 0
        assert sum(report["outcomes"].values()) == 30
        names = {i["name"] for i in report["invariants"]}
        assert {"zero-lost", "zero-duplicated", "byte-identity",
                "budgets-conserved", "server-healthy"} <= names

    def test_unknown_fault_kind_is_rejected(self):
        from repro.serve.chaos import run_campaign

        with pytest.raises(ValueError):
            run_campaign(n=1, faults=("no-such-fault",))
