"""``sized serve``: the batched termination-checking service.

Everything here boots a real :class:`~repro.serve.server.SizedServer`
in-process (ephemeral port, real worker processes) and talks to it over
the wire — the same path ``sized serve`` and ``bench_serve.py`` use.
The PR's concurrency contract:

* **Dedupe is real** — N identical concurrent requests cost one
  verification (one cache miss, one batch of N).
* **Crashes are absorbed** — a killed worker is rebuilt and the batch
  requeued exactly once; a second death is a structured
  ``worker-crash`` error, never a dropped request.
* **Budgets are enforced** — an exhausted tenant gets a structured
  ``budget-exhausted`` error while other tenants keep running.
* **Serve is semantics-preserving** — responses are byte-identical to
  a direct ``run_program`` on the whole corpus.
"""

import asyncio
import contextlib
import gc
import json

import pytest

from repro.corpus import all_programs, get_program
from repro.serve import AsyncServeClient, ServeConfig, SizedServer, protocol
from repro.serve.batching import KeyedBatcher

LOOP = "(define (spin n) (spin (+ n 1)))\n(spin 0)\n"
QUICK = "(define (f n) (if (zero? n) 42 (f (- n 1))))\n(f 10)\n"
# QUICK with enough applies of f that it tiers up within one request.
HOT = QUICK.replace("(f 10)", "(f 40)")


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


class TestProtocolBasics:
    def test_ping_stats_and_unknown_op(self):
        async def body():
            async with serve() as (_, c):
                assert (await c.request({"op": "ping"}))["pong"] is True
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["requests"]["ping"] == 1
                bad = await c.request({"op": "frobnicate"})
                assert bad["ok"] is False
                assert bad["error"]["type"] == "bad-request"
        run(body())

    def test_bad_requests_are_structured(self):
        async def body():
            async with serve() as (_, c):
                for req in (
                    {"op": "run"},                        # no program
                    {"op": "run", "program": "   "},      # blank program
                    {"op": "run", "program": QUICK, "fuel": -1},
                    {"op": "run", "program": QUICK, "fuel": True},
                    {"op": "run", "program": QUICK, "mode": "sideways"},
                    {"op": "run", "program": "(((", "fuel": 100},
                ):
                    r = await c.request(req)
                    assert r["ok"] is False, req
                    assert r["error"]["type"] == "bad-request", req
                # the connection (and server) survived all of it
                assert (await c.request({"op": "ping"}))["pong"] is True
        run(body())

    def test_non_json_line_is_answered_not_fatal(self):
        async def body():
            async with serve() as (server, c):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                line = await reader.readline()
                r = json.loads(line)
                assert r["ok"] is False
                assert r["error"]["type"] == "bad-request"
                writer.close()
                await writer.wait_closed()
                assert (await c.request({"op": "ping"}))["pong"] is True
        run(body())


class TestDedupe:
    def test_n_identical_requests_one_verification(self):
        async def body():
            async with serve() as (_, c):
                n = 24
                rs = await asyncio.gather(*[
                    c.request({"op": "run", "program": QUICK})
                    for _ in range(n)])
                assert all(r["ok"] and r["value"] == "42" for r in rs)
                assert all(r["kind"] == "value" and r["exit"] == 0
                           for r in rs)
                # exactly one leader, n-1 joiners
                assert sum(not r["batched"] for r in rs) == 1
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["batches"]["dispatched"] == 1
                assert stats["batches"]["max_size"] == n
                # one verification: a single cache miss for the program
                assert stats["cache"]["misses"] == 1
                assert stats["cache"]["hits"] == 0
        run(body())

    def test_distinct_programs_not_deduped(self):
        async def body():
            async with serve() as (_, c):
                progs = [QUICK,
                         QUICK.replace("42", "43"),
                         QUICK.replace("(f 10)", "(f 3)")]
                rs = await asyncio.gather(*[
                    c.request({"op": "run", "program": p}) for p in progs])
                assert [r["value"] for r in rs] == ["42", "43", "42"]
                assert len({r["key"] for r in rs}) == 3
        run(body())

    def test_fuel_is_part_of_the_key(self):
        async def body():
            async with serve() as (_, c):
                a, b = await asyncio.gather(
                    c.request({"op": "run", "program": QUICK, "fuel": 0}),
                    c.request({"op": "run", "program": QUICK,
                               "fuel": 1_000_000}))
                assert a["kind"] == "timeout" and a["steps"] == 0
                assert a["fuel_exhausted"] is True
                assert b["kind"] == "value" and b["value"] == "42"
        run(body())

    def test_verify_key_ignores_run_fields(self):
        """A verify reads only entry, kinds, result_kinds and mc: verifies
        that differ in machine, mode or fuel share one key and, sent
        together, one execution."""
        base = {"op": "verify", "program": QUICK, "entry": "f",
                "kinds": ["nat"]}
        variants = [base, {**base, "machine": "tree"},
                    {**base, "mode": "full"}, {**base, "fuel": 7}]

        async def body():
            async with serve() as (_, c):
                rs = await asyncio.gather(*[c.request(dict(r))
                                            for r in variants])
                assert all(r["ok"] and r["verified"] for r in rs), rs
                assert len({r["key"] for r in rs}) == 1
                assert sum(not r["batched"] for r in rs) == 1
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["batches"]["dispatched"] == 1
        run(body())

    def test_run_key_covers_result_kinds_not_verify_fields(self):
        def key(**fields):
            job, _ = protocol.check_job({"op": "run", "program": QUICK,
                                         **fields}, None)
            return protocol.request_key(job)

        assert key() == key(entry="f", kinds=["nat"])
        assert key() != key(result_kinds={"f": "nat"})
        ack = get_program("sct-3").source

        async def body():
            async with serve() as (_, c):
                plain, ranged = await asyncio.gather(
                    c.request({"op": "run", "program": ack}),
                    c.request({"op": "run", "program": ack,
                               "result_kinds": {"ack": "nat"}}))
                assert plain["key"] != ranged["key"]
                assert plain["value"] == ranged["value"] == "9"
                assert not plain["discharge"]["complete"]
                assert ranged["discharge"]["complete"]
        run(body())

    def test_warm_cache_hit_on_repeat(self):
        async def body():
            async with serve() as (_, c):
                r1 = await c.request({"op": "run", "program": QUICK})
                r2 = await c.request({"op": "run", "program": QUICK})
                assert r1["cache"]["misses"] == 1
                assert r2["cache"]["hits"] == 1
                assert r2["cache"]["misses"] == 0
                # same key → same shard → warm in-memory certificate
                assert r1["worker"] == r2["worker"]
        run(body())


class _HeldDispatch:
    """A ``KeyedBatcher`` dispatch stub: every call records its key and
    waits on ``release``, then returns a fresh dict or, given ``fail``,
    raises a fresh ``RuntimeError(fail)``."""

    def __init__(self, fail=None):
        self.release = asyncio.Event()
        self.fail = fail
        self.calls = []

    async def __call__(self, key, job):
        self.calls.append(key)
        await self.release.wait()
        if self.fail is not None:
            raise RuntimeError(self.fail)
        return {"key": key, "call": len(self.calls)}


async def _ticks(n=3):
    for _ in range(n):
        await asyncio.sleep(0)


class TestKeyedBatcher:
    """In-flight dedupe without a server: a duplicate joins only while
    its twin's dispatch is in flight, and nothing is remembered after."""

    def test_duplicates_share_one_dispatch(self):
        n = 6

        async def body():
            dispatch = _HeldDispatch()
            batcher = KeyedBatcher(dispatch)
            tasks = [asyncio.create_task(batcher.submit("k", {}))
                     for _ in range(n)]
            await _ticks()
            assert dispatch.calls == ["k"]
            assert batcher.has("k") and batcher.pending() == 1
            dispatch.release.set()
            results = await asyncio.wait_for(asyncio.gather(*tasks), 5)
            assert not batcher.has("k") and batcher.pending() == 0
            return dispatch, results

        dispatch, results = run(body())
        assert len(dispatch.calls) == 1
        joined = [j for _, _, j in results]
        assert joined == [False] + [True] * (n - 1)
        assert all(size == n for _, size, _ in results)
        shared = results[0][0]
        assert shared == {"key": "k", "call": 1}
        assert all(result is shared for result, _, _ in results)

    def test_distinct_keys_dispatch_separately(self):
        async def body():
            dispatch = _HeldDispatch()
            batcher = KeyedBatcher(dispatch)
            tasks = [asyncio.create_task(batcher.submit(k, {}))
                     for k in ("a", "b", "a")]
            await _ticks()
            assert dispatch.calls == ["a", "b"] and batcher.pending() == 2
            dispatch.release.set()
            return await asyncio.wait_for(asyncio.gather(*tasks), 5)

        (ra, _, ja), (rb, _, jb), (ra2, _, ja2) = run(body())
        assert (ja, jb, ja2) == (False, False, True)
        assert ra is ra2 and ra is not rb

    def test_settled_batch_is_not_remembered(self):
        async def body():
            dispatch = _HeldDispatch()
            dispatch.release.set()
            batcher = KeyedBatcher(dispatch)
            first = await batcher.submit("k", {})
            second = await batcher.submit("k", {})
            return dispatch, first, second

        dispatch, first, second = run(body())
        assert dispatch.calls == ["k", "k"]
        assert first == ({"key": "k", "call": 1}, 1, False)
        assert second == ({"key": "k", "call": 2}, 1, False)

    @pytest.mark.parametrize("members", [1, 4])
    @pytest.mark.parametrize("how", ["raise", "cancel"])
    def test_leader_failure_reaches_every_member(self, how, members):
        async def body():
            # a future whose exception nobody retrieved is reported to
            # the loop's exception handler when it is freed
            seen = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _, ctx: seen.append(ctx))
            dispatch = _HeldDispatch(fail="worker gone")
            batcher = KeyedBatcher(dispatch)
            tasks = [asyncio.create_task(batcher.submit("k", {}))
                     for _ in range(members)]
            await _ticks()
            if how == "cancel":
                tasks[0].cancel()
            else:
                dispatch.release.set()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), 5)
            assert not batcher.has("k") and batcher.pending() == 0
            # the errors' tracebacks hold the batch: free them all first
            outcomes = [(type(o), str(o)) for o in outcomes]
            del tasks, batcher
            gc.collect()
            await _ticks()
            return dispatch, outcomes, seen

        dispatch, outcomes, seen = run(body())
        assert len(dispatch.calls) == 1
        expected = ((RuntimeError, "worker gone") if how == "raise"
                    else (asyncio.CancelledError, ""))
        assert outcomes == [expected] * members
        assert seen == []


class TestNativeTier:
    def test_discharged_repeat_traffic_runs_native(self):
        """The warm path the native tier exists for: repeat traffic whose
        termination checks fully discharge must execute native, and the
        stats surface must count it."""
        async def body():
            async with serve() as (_, c):
                for _ in range(3):
                    r = await c.request({"op": "run", "program": HOT})
                    assert r["ok"] and r["value"] == "42"
                    assert r["discharge"]["complete"] is True
                    assert r["tier"] == "native"
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["tiers"].get("native", 0) >= 3
        run(body())

    def test_warm_repeat_reports_what_a_fresh_parse_does(self):
        """History independence: the second request hits the worker's
        parsed-program LRU, whose CLams the first request already tiered
        up, yet reports the same steps, tier and value — and both match a
        direct ``run_program`` on a fresh parse.  This is what lets the
        chaos oracle compare ``steps``.  (``tier`` depends on how hot
        the parse already is; it matches here because ``len`` is applied
        often enough to tier up within the first request.)"""
        from repro.analysis.discharge import (VerificationCache,
                                              discharge_for_run)
        from repro.eval.machine import run_program
        from repro.lang.parser import parse_program
        from repro.sct.monitor import SCMonitor
        from repro.values.values import write_value

        # A proven λ (native) calling an unproven one (it counts up, so
        # plain size-change fails; it stays on the compiled tier).
        src = ("(define (up i n) (if (>= i n) i (up (+ i 1) n)))\n"
               "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
               "(define (go l) (+ (len l) (up 0 (len l))))\n"
               "(go '(1 2 3 4 5 6 7 8 9 10))\n")
        fuel = 1_000_000
        parsed = parse_program(src)
        policy = discharge_for_run(parsed, text=src,
                                   cache=VerificationCache()).policy
        direct = run_program(parsed, mode="contract", monitor=SCMonitor(),
                             fuel=fuel, machine="native", discharge=policy)
        expected = (write_value(direct.value), direct.steps, direct.tier)
        assert expected[0] == "20" and expected[2] == "native"

        async def body():
            async with serve(workers=1) as (_, c):
                req = {"op": "run", "program": src, "fuel": fuel}
                first = await c.request(req)
                second = await c.request(req)
                for r in (first, second):
                    assert r["ok"] and r["kind"] == "value", r
                    assert (r["value"], r["steps"], r["tier"]) == expected
                assert second["cache"]["hits"] == 1
                assert not second["batched"]
        run(body())

    def test_machine_is_selectable_and_keyed(self):
        async def body():
            async with serve() as (_, c):
                a, b = await asyncio.gather(
                    c.request({"op": "run", "program": HOT,
                               "machine": "compiled"}),
                    c.request({"op": "run", "program": HOT,
                               "machine": "native"}))
                assert a["ok"] and a["tier"] == "compiled"
                assert b["ok"] and b["tier"] == "native"
                # different machines must never coalesce into one batch
                assert a["key"] != b["key"]
                assert a["value"] == b["value"] == "42"
                bad = await c.request({"op": "run", "program": QUICK,
                                       "machine": "warp"})
                assert bad["ok"] is False
                assert bad["error"]["type"] == "bad-request"
        run(body())


class TestFaultInjection:
    def test_crash_requires_opt_in(self):
        async def body():
            async with serve() as (_, c):
                r = await c.request({"op": "crash"})
                assert r["ok"] is False
                assert r["error"]["type"] == "fault-injection-disabled"
        run(body())

    def test_crash_now_is_structured_and_survivable(self):
        async def body():
            async with serve(allow_fault_injection=True) as (_, c):
                r = await c.request({"op": "crash"})
                assert r["ok"] is False
                assert r["error"]["type"] == "worker-crash"
                assert r["error"]["requeued"] is True
                # the shard was rebuilt: the server still serves
                ok = await c.request({"op": "run", "program": QUICK})
                assert ok["ok"] and ok["value"] == "42"
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["workers"]["rebuilds"] >= 1
                assert stats["workers"]["crashes"] >= 1
                assert stats["workers"]["requeues"] >= 1
        run(body())

    def test_crash_once_requeue_succeeds(self, tmp_path):
        """The requeue path end-to-end: the first attempt kills the
        worker, the marker file makes the requeued attempt succeed —
        the client sees success, not an error."""
        async def body():
            marker = str(tmp_path / "crash-once")
            async with serve(allow_fault_injection=True) as (_, c):
                r = await c.request({"op": "crash", "once": True,
                                     "marker": marker, "shard": 0})
                assert r["ok"] is True
                assert r["kind"] == "crash-already-injected"
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["workers"]["requeues"] == 1
                assert stats["workers"]["rebuilds"] == 1
        run(body())

    def test_no_request_dropped_under_worker_kill(self):
        """The acceptance bar: fault injection mid-burst, every request
        still gets exactly one response."""
        async def body():
            async with serve(allow_fault_injection=True,
                             workers=2, breaker_open_s=0.3) as (_, c):
                expected = {QUICK.replace("42", str(100 + i)):
                            str(100 + i) for i in range(12)}
                progs = list(expected)
                jobs = [c.request({"op": "run", "program": p})
                        for p in progs]
                jobs.append(c.request({"op": "crash", "shard": 0}))
                jobs.append(c.request({"op": "crash", "shard": 1}))
                rs = await asyncio.gather(*jobs)
                assert len(rs) == len(progs) + 2
                for p, r in zip(progs, rs[:len(progs)]):
                    # a crash racing a batch may consume its requeue
                    # (or trip the shard's breaker); the response must
                    # still be structured, never lost
                    if r["ok"]:
                        assert r["value"] == expected[p]
                    else:
                        assert r["error"]["type"] in (
                            "worker-crash", "timeout", "shard-unavailable")
                # a tripped breaker half-opens after breaker_open_s and
                # the probe closes it — the server recovers on its own
                ok = None
                for _ in range(20):
                    ok = await c.request({"op": "run", "program": QUICK})
                    if ok.get("ok"):
                        break
                    await asyncio.sleep(0.2)
                assert ok["ok"] and ok["value"] == "42"
        run(body())


class TestBudgets:
    def test_tenant_budget_exhaustion_is_structured(self):
        async def body():
            async with serve(tenant_budget=5_000) as (_, c):
                # First request: admitted, clamped to the budget, runs
                # to exhaustion, consumes the full reservation.
                r1 = await c.request({"op": "run", "program": LOOP,
                                      "fuel": 1_000_000, "tenant": "t1"})
                assert r1["ok"] is True and r1["kind"] == "timeout"
                assert r1["steps"] == 5_000
                # Second request: the tenant is dry — structured error.
                r2 = await c.request({"op": "run", "program": QUICK,
                                      "tenant": "t1"})
                assert r2["ok"] is False
                assert r2["error"]["type"] == "budget-exhausted"
                assert r2["error"]["remaining"] == 0
                # Other tenants are unaffected.
                r3 = await c.request({"op": "run", "program": QUICK,
                                      "tenant": "t2"})
                assert r3["ok"] is True and r3["value"] == "42"
        run(body())

    def test_settle_refunds_unspent_fuel(self):
        async def body():
            async with serve(tenant_budget=100_000) as (_, c):
                r = await c.request({"op": "run", "program": QUICK,
                                     "tenant": "t"})
                assert r["ok"] and r["value"] == "42"
                spent = r["steps"]
                assert 0 < spent < 100_000
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["budgets"]["tenants"]["t"]["remaining"] == \
                    100_000 - spent
        run(body())

    def test_ill_typed_request_reserves_no_fuel(self):
        """Every field is checked before the budget admit: a refused
        request leaves no reservation open and takes no fuel."""
        async def body():
            async with serve(tenant_budget=1000) as (server, c):
                for fields in ({"entry": "f", "result_kinds": ["f", "nat"]},
                               {"entry": "f", "kinds": "nat"},
                               {"entry": 7, "kinds": ["nat"]},
                               {"entry": "f", "machine": "warp"}):
                    r = await c.request({"op": "verify", "program": QUICK,
                                         "fuel": 600, "tenant": "t",
                                         **fields})
                    assert r["ok"] is False, fields
                    assert r["error"]["type"] == "bad-request", fields
                    assert server.budgets.open_reservations() == 0, fields
                    assert server.budgets.remaining("t") == 1000, fields
        run(body())

    def test_fuel_zero_is_admitted(self):
        # fuel=0 is a *valid* budget (immediate exhaustion), distinct
        # from budget-exhausted -- same semantics as everywhere else.
        async def body():
            async with serve(tenant_budget=10) as (_, c):
                r = await c.request({"op": "run", "program": QUICK,
                                     "fuel": 0, "tenant": "t"})
                assert r["ok"] is True
                assert r["kind"] == "timeout" and r["steps"] == 0
                assert r["fuel_exhausted"] is True
        run(body())


class TestTimeouts:
    def test_wall_clock_timeout_recycles_worker(self):
        async def body():
            # the timed-out jobs fail when the rebuild kills their
            # worker; nothing may report their exception as unretrieved
            seen = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _, ctx: seen.append(ctx))
            async with serve(request_timeout=1.0, workers=1) as (_, c):
                r = await c.request({"op": "run", "program": LOOP,
                                     "fuel": None})
                assert r["ok"] is False
                assert r["error"]["type"] == "timeout"
                assert "recycled" in r["error"]["message"]
                stats = (await c.request({"op": "stats"}))["stats"]
                assert stats["workers"]["request_timeouts"] >= 2
                assert stats["workers"]["rebuilds"] >= 1
                # the recycled worker serves the next request
                ok = await c.request({"op": "run", "program": QUICK})
                assert ok["ok"] and ok["value"] == "42"
            gc.collect()
            await _ticks()
            return seen

        assert run(body()) == []


class TestSemanticsPreserved:
    def test_serve_matches_direct_run_on_corpus(self):
        """Byte-identical external values and output vs a direct
        ``run_program`` with the same configuration, for every corpus
        program — serve adds plumbing, not semantics."""
        from repro.analysis.discharge import (VerificationCache,
                                              discharge_for_run)
        from repro.eval.machine import Answer, run_program
        from repro.lang.parser import parse_program
        from repro.sct.monitor import SCMonitor
        from repro.values.values import write_value

        programs = all_programs()
        direct = {}
        cache = VerificationCache()
        for p in programs:
            parsed = parse_program(p.source)
            policy = discharge_for_run(parsed, text=p.source,
                                       cache=cache).policy
            a = run_program(parsed, mode="contract", monitor=SCMonitor(),
                            fuel=5_000_000, machine="compiled",
                            discharge=policy)
            assert a.kind == Answer.VALUE, p.name
            direct[p.name] = (write_value(a.value), a.output)

        async def body():
            async with serve(workers=2) as (_, c):
                rs = await asyncio.gather(*[
                    c.request({"op": "run", "program": p.source,
                               "fuel": 5_000_000})
                    for p in programs])
                for p, r in zip(programs, rs):
                    assert r["ok"], (p.name, r)
                    assert r["kind"] == "value", p.name
                    assert (r["value"], r["output"]) == direct[p.name], \
                        p.name
                    assert r["value"] == p.expected, p.name
        run(body())

    def test_verify_op_on_corpus_sample(self):
        async def body():
            async with serve() as (_, c):
                p = all_programs()[0]
                r = await c.request({"op": "verify", "program": p.source})
                assert r["ok"] is True
                assert r["kind"] == "discharge"
                assert isinstance(r["verified"], bool)
                assert r["exit"] in (0, 3)
        run(body())


class TestShutdown:
    def test_shutdown_rejects_new_jobs(self):
        async def body():
            async with serve() as (_, c):
                r = await c.request({"op": "shutdown"})
                assert r["ok"] is True and r["stopping"] is True
                r = await c.request({"op": "run", "program": QUICK})
                assert r["ok"] is False
                assert r["error"]["type"] == "shutting-down"
        run(body())


class TestOnDiskStore:
    def test_certificates_persist_across_servers(self, tmp_path):
        store = str(tmp_path / "certs")

        async def first():
            async with serve(cache_dir=store, workers=1) as (_, c):
                r = await c.request({"op": "run", "program": QUICK})
                assert r["cache"]["misses"] == 1

        async def second():
            async with serve(cache_dir=store, workers=1) as (_, c):
                r = await c.request({"op": "run", "program": QUICK})
                assert r["cache"]["hits"] == 1
                assert r["cache"]["misses"] == 0

        run(first())
        # sharded layout on disk (shard_depth=2 default)
        import os
        subdirs = [d for d in os.listdir(store)
                   if os.path.isdir(os.path.join(store, d))]
        assert subdirs and all(len(d) == 2 for d in subdirs)
        run(second())
