"""``sized chaos`` — a seeded fault-injection campaign against a real
:class:`~repro.serve.server.SizedServer`.

The resilience layer (backpressure, circuit breakers, retrying clients,
drain-on-shutdown) is only trustworthy if every degraded path is
actually exercised, deterministically, in CI.  This module boots an
in-process server with deliberately tight limits (small admission
queues, low breaker threshold, short wall-clock timeout, finite tenant
budgets), drives ``--n`` run/verify requests through seeded retrying
clients, and injects a seeded *fault plan* while the traffic is in
flight:

``crash``
    kill a worker process mid-campaign (``op=crash``);
``slow``
    occupy a worker under the wall-clock limit (``op=hang``) — queued
    requests feel latency, nothing fails;
``hang``
    wedge a worker *past* the wall-clock limit — the front-end kills,
    rebuilds, requeues; a re-wedge surfaces as a structured timeout;
``flap``
    crash one shard repeatedly inside the breaker window so its circuit
    opens, fast-rejects, half-opens, and closes again under traffic;
``corrupt-cache``
    scribble garbage over on-disk certificate-cache entries, then crash
    every shard so rebuilt workers must reread them — the quarantine
    path re-verifies instead of trusting corrupt bytes;
``conn-cut``
    send a request and cut the connection before the response
    (mid-response connection loss from the server's point of view);
``malformed``
    truncated JSON, binary garbage, and half-frames on raw connections,
    plus well-formed frames with ill-typed ``kinds``, ``result_kinds``
    and ``entry`` from a budgeted tenant (refused before any fuel is
    reserved, so ``budgets-conserved`` covers them).

Everything random — program mix, tenants, stagger, fault positions,
client retry jitter — derives from ``--seed``, so a campaign is a
replayable artifact, in the transformation-validation spirit the rest
of the repo applies to its machines.

Invariants (campaign fails loudly if any is violated):

1. **Zero lost** — every tracked request resolves to exactly one final
   response.
2. **Zero duplicated** — no client ever observes a response line it did
   not have a request in flight for.
3. **Byte identity** — every *delivered* ``run`` result (every answer
   record field but ``tier``, and the discharge summary) is identical to
   a direct ``run_request`` with the same fields on the *compiled*
   machine (a different tier than the native-serving workers, so tier
   bugs cannot cancel out); every delivered ``verify`` carries the
   direct discharge summary.  The pool's Ackermann is discharged
   only under the ``result_kinds`` its requests carry.
4. **Budgets conserved** — all reservations settle (no leaks) and for
   every tenant ``spent + remaining == budget``.
5. **Server healthy at end** — ping answers, fresh programs covering
   every shard run to their oracle values, every circuit breaker is
   closed, and a drain completes with nothing left to cancel.
6. **Hang timed out** — an injected ``hang`` made the front-end time
   out a request (``workers.request_timeouts``): kill and rebuild ran.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.corpus import get_program
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, RetryPolicy
from repro.serve.server import ServeConfig, SizedServer

FAULT_KINDS = ("crash", "slow", "hang", "flap", "corrupt-cache",
               "conn-cut", "malformed")

FUEL = 200_000          # explicit per-request fuel: stable request keys
TENANTS = ("t-alpha", "t-beta", "t-gamma")
REQUEST_TIMEOUT = 1.5   # wall-clock per worker attempt (chaos-tight)


# -- the seeded plan ------------------------------------------------------------


def _program(i: int) -> str:
    """Pool program ``i``: distinct text, distinct value, a few produce
    output so byte-identity covers the output channel too."""
    depth = 8 + i % 7
    if i % 4 == 3:
        return (f"(define (f n) (if (zero? n) "
                f"(begin (display {i}) {1000 + i}) (f (- n 1))))\n"
                f"(f {depth})\n")
    return (f"(define (f n) (if (zero? n) {1000 + i} (f (- n 1))))\n"
            f"(f {depth})\n")


# Discharged only under its contract range ack=nat (§4.2).
ACK = get_program("sct-3")
RESULT_KINDS = {ACK.source: ACK.result_kinds}


def _shard_of(op: str, program: str, workers: int) -> int:
    """The shard the server routes a request to: the key covers the job
    exactly as the server checks and defaults it."""
    job, _ = protocol.check_job({"op": op, "program": program,
                                 "fuel": FUEL}, FUEL)
    return int(protocol.request_key(job)[:8], 16) % workers


class FaultPlan:
    """Seeded schedule: which faults fire, at which fraction of the
    campaign's send window, with which parameters."""

    def __init__(self, seed: int, n: int, kinds: Tuple[str, ...],
                 workers: int):
        rng = random.Random(seed ^ 0x5EED)
        self.events: List[dict] = []

        def add(kind, when, **params):
            if kind in kinds:
                self.events.append(
                    {"kind": kind, "when": when, **params})

        for _ in range(max(1, n // 60)):
            add("crash", rng.uniform(0.1, 0.9),
                shard=rng.randrange(workers))
        for _ in range(max(1, n // 60)):
            add("slow", rng.uniform(0.1, 0.9),
                shard=rng.randrange(workers),
                seconds=round(rng.uniform(0.1, 0.3), 3))
        for _ in range(max(1, n // 150)):
            add("hang", rng.uniform(0.2, 0.7),
                shard=rng.randrange(workers),
                seconds=round(REQUEST_TIMEOUT * 2.2, 3))
        when, flap = rng.uniform(0.2, 0.5), rng.randrange(workers)
        add("flap", when, shard=flap)
        for event in self.events:  # flap's open breaker would reject a hang
            if event["kind"] == "hang" and event["shard"] == flap:
                event["shard"] = (flap + 1) % workers
        add("corrupt-cache", rng.uniform(0.35, 0.55),
            limit=5)
        for _ in range(3):
            add("conn-cut", rng.uniform(0.1, 0.9),
                program=_program(rng.randrange(8)))
        for _ in range(3):
            add("malformed", rng.uniform(0.1, 0.9))
        self.events.sort(key=lambda e: e["when"])

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e["kind"]] = out.get(e["kind"], 0) + 1
        return out


# -- the direct-pipeline oracle -------------------------------------------------


def _direct_oracle(programs: List[str]) -> Dict[str, dict]:
    """Every pool program through :func:`~repro.eval.machine.run_request`,
    as a serve worker runs it but on the *compiled* machine: a different
    tier than the workers (native), so a native-tier bug shows up as a
    byte-identity violation instead of cancelling out.  Delivered results
    must equal every :meth:`~repro.eval.machine.Answer.record` field but
    ``tier``, and the discharge summary; ``steps`` counts closure
    applications on every tier."""
    from repro.analysis.discharge import VerificationCache
    from repro.eval.machine import run_request
    from repro.lang.parser import parse_program

    oracle: Dict[str, dict] = {}
    cache = VerificationCache()
    for text in programs:
        answer, result = run_request(
            parse_program(text), text, mode="contract", machine="compiled",
            discharge="try", fuel=FUEL, cache=cache,
            result_kinds=RESULT_KINDS.get(text))
        record = answer.record()
        del record["tier"]
        record["discharge"] = result.summary()
        oracle[text] = record
    return oracle


# -- campaign -------------------------------------------------------------------


class _Check:
    """One named invariant; collects failures instead of raising so the
    report always covers all five."""

    def __init__(self):
        self.items: List[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok),
                           "detail": detail})

    def failures(self) -> List[str]:
        return [f"{i['name']}: {i['detail'] or 'violated'}"
                for i in self.items if not i["ok"]]


async def _raw_send(port: int, payloads: List[bytes],
                    read_reply: bool = False) -> None:
    """Fire raw bytes at the server (malformed frames / connection
    cuts); never raises — the *server's* survival is what is asserted
    later."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for payload in payloads:
            writer.write(payload)
        await writer.drain()
        if read_reply:
            try:
                await asyncio.wait_for(reader.readline(), 0.5)
            except asyncio.TimeoutError:
                pass
        writer.close()
    except (OSError, asyncio.TimeoutError):
        pass


def _corrupt_cache_files(cache_dir: str, rng: random.Random,
                         limit: int) -> int:
    paths = []
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            if name.endswith(".json"):
                paths.append(os.path.join(root, name))
    paths.sort()
    rng.shuffle(paths)
    corrupted = 0
    for path in paths[:limit]:
        try:
            with open(path, "w") as f:
                f.write("{corrupt json" + "\x00garbage")
            corrupted += 1
        except OSError:
            pass
    return corrupted


async def _run_fault(event: dict, server: SizedServer,
                     fault_client: AsyncServeClient, cache_dir: str,
                     rng: random.Random, injected: Dict[str, int]) -> None:
    kind = event["kind"]
    try:
        if kind == "crash":
            await fault_client.request(
                {"op": "crash", "shard": event["shard"]}, timeout=30)
        elif kind in ("slow", "hang"):
            job = {"op": "hang", "shard": event["shard"],
                   "seconds": event["seconds"]}
            timeouts = server.metrics.request_timeouts
            # a breaker another fault opened fast-rejects a hang: resend
            # it, once the breaker admits requests, until one timed out
            for _ in range(20 if kind == "hang" else 1):
                response = await fault_client.request(dict(job), timeout=30)
                error = response.get("error") or {}
                if server.metrics.request_timeouts > timeouts or \
                        error.get("type") != protocol.E_SHARD_UNAVAILABLE:
                    break
                await asyncio.sleep(error.get("retry_after") or 0.05)
        elif kind == "flap":
            # enough consecutive crashes to trip the shard's breaker
            # (each crash op records a failure per requeue attempt)
            for _ in range(server.config.breaker_threshold):
                await fault_client.request(
                    {"op": "crash", "shard": event["shard"]}, timeout=30)
        elif kind == "corrupt-cache":
            injected["files-corrupted"] = _corrupt_cache_files(
                cache_dir, rng, event["limit"])
            # crash every shard: rebuilt workers must reread (and
            # quarantine) the poisoned on-disk entries
            for shard in range(len(server.pools)):
                await fault_client.request(
                    {"op": "crash", "shard": shard}, timeout=30)
        elif kind == "conn-cut":
            await _raw_send(server.port, [protocol.encode(
                {"op": "run", "program": event["program"], "fuel": FUEL,
                 "id": "cut", "tenant": "t-cut"})])
        elif kind == "malformed":
            await _raw_send(server.port, [
                b'{"op": "run", "progr\n',       # truncated JSON
                b"\xff\xfe\x00 binary garbage\n",  # not UTF-8 JSON
                # well-formed frames with ill-typed fields, from a
                # budgeted tenant: refused before any fuel is reserved
                *(protocol.encode({"op": "verify", "program": _program(0),
                                   "fuel": FUEL, "tenant": "t-malformed",
                                   **fields})
                  for fields in ({"entry": "f", "kinds": "nat"},
                                 {"entry": "f", "kinds": [1]},
                                 {"entry": "f", "result_kinds": ["f"]},
                                 {"entry": 7})),
                b'{"op":"run"',                  # half frame, no newline
            ], read_reply=True)
        injected[kind] = injected.get(kind, 0) + 1
    except (ConnectionError, asyncio.TimeoutError, OSError):
        injected[kind + "-undelivered"] = \
            injected.get(kind + "-undelivered", 0) + 1


async def _campaign(n: int, seed: int, kinds: Tuple[str, ...],
                    workers: int, progress) -> Tuple[dict, List[str]]:
    rng = random.Random(seed)
    started = time.monotonic()

    pool = [_program(i) for i in range(max(8, min(n // 8, 48)))]
    pool.append(ACK.source)
    progress(f"chaos: oracle over {len(pool)} pool programs...")
    oracle = _direct_oracle(pool)

    cache_dir = tempfile.mkdtemp(prefix="sized-chaos-")
    budget = FUEL * max(n, 64)
    config = ServeConfig(
        port=0, workers=workers, default_fuel=FUEL, tenant_budget=budget,
        request_timeout=REQUEST_TIMEOUT, cache_dir=cache_dir,
        allow_fault_injection=True,
        max_inflight=max(24, n // 3), shard_queue_limit=16,
        breaker_threshold=3, breaker_window_s=10.0, breaker_open_s=0.4,
        drain_timeout=5.0)
    server = SizedServer(config)
    await server.start()
    plan = FaultPlan(seed, n, kinds, workers)
    progress(f"chaos: server up on :{server.port}, {n} requests, "
             f"fault plan {plan.counts() or 'empty'}")

    clients = [
        await AsyncServeClient.connect(
            "127.0.0.1", server.port, tag=f"chaos{i}",
            retry=RetryPolicy(retries=6, base=0.05, cap=1.0,
                              seed=seed * 31 + i))
        for i in range(3)
    ]
    fault_client = await AsyncServeClient.connect(
        "127.0.0.1", server.port, tag="fault")

    # -- seeded request schedule ----------------------------------------
    spacing = 0.004
    window = n * spacing
    requests = []
    for i in range(n):
        op = "verify" if rng.random() < 0.1 else "run"
        requests.append({
            "op": op,
            "program": pool[rng.randrange(len(pool))],
            "delay": i * spacing,
            "tenant": TENANTS[rng.randrange(len(TENANTS))],
            "client": rng.randrange(len(clients)),
        })

    lost: List[str] = []
    outcomes: Dict[str, int] = {}
    identity_failures: List[str] = []

    async def one_request(idx: int, spec: dict) -> None:
        await asyncio.sleep(spec["delay"])
        req = {"op": spec["op"], "program": spec["program"],
               "fuel": FUEL, "tenant": spec["tenant"],
               "result_kinds": RESULT_KINDS.get(spec["program"])}
        try:
            response = await clients[spec["client"]].request(
                req, timeout=60)
        except (asyncio.TimeoutError, ConnectionError) as exc:
            lost.append(f"request {idx}: {type(exc).__name__}")
            return
        if response.get("ok"):
            label = response.get("kind", "ok")
        else:
            label = "error:" + \
                (response.get("error") or {}).get("type", "unknown")
        outcomes[label] = outcomes.get(label, 0) + 1
        if response.get("ok"):
            want = oracle[spec["program"]]
            if spec["op"] == "verify":  # the program's own discharge
                want = {"discharge": want["discharge"]}
            got = {field: response.get(field) for field in want}
            if got != want:
                identity_failures.append(
                    f"request {idx}: served {got!r} != direct {want!r}")

    injected: Dict[str, int] = {}
    tasks = [asyncio.ensure_future(one_request(i, spec))
             for i, spec in enumerate(requests)]
    fault_tasks = []

    async def one_fault(event):
        await asyncio.sleep(event["when"] * window)
        await _run_fault(event, server, fault_client, cache_dir, rng,
                         injected)

    for event in plan.events:
        fault_tasks.append(asyncio.ensure_future(one_fault(event)))

    await asyncio.gather(*tasks)
    await asyncio.gather(*fault_tasks)
    progress(f"chaos: traffic done — outcomes {dict(sorted(outcomes.items()))}, "
             f"injected {dict(sorted(injected.items()))}")

    # -- settle: reservations must drain to zero ------------------------
    deadline = time.monotonic() + 5.0
    while server.budgets.open_reservations() and \
            time.monotonic() < deadline:
        await asyncio.sleep(0.05)

    check = _Check()
    check.add("zero-lost", not lost,
              f"{len(lost)} lost: {lost[:3]}" if lost else "")
    dup = sum(c.unmatched_responses for c in clients + [fault_client])
    check.add("zero-duplicated", dup == 0,
              f"{dup} unclaimed responses" if dup else "")
    check.add("byte-identity", not identity_failures,
              "; ".join(identity_failures[:3]))

    budgets = server.budgets.snapshot()
    leaks = budgets["open_reservations"]
    drift = [
        t for t, row in budgets["tenants"].items()
        if row["spent"] + row["remaining"] != budget
    ]
    check.add("budgets-conserved", leaks == 0 and not drift,
              f"open={leaks} drift={drift}" if leaks or drift else "")

    # -- end-state health: every shard answers, breakers close ----------
    health_client = await AsyncServeClient.connect(
        "127.0.0.1", server.port, tag="health",
        retry=RetryPolicy(retries=8, base=0.05, cap=1.0, seed=seed + 97))
    healthy = True
    detail = ""
    ping = await health_client.request({"op": "ping"}, timeout=30)
    if not ping.get("ok"):
        healthy, detail = False, "ping failed"
    covered, i = set(), 10_000
    while len(covered) < workers and i < 10_400:
        text = _program(i)
        shard = _shard_of("run", text, workers)
        i += 1
        if shard in covered:
            continue
        covered.add(shard)
        r = await health_client.request(
            {"op": "run", "program": text, "fuel": FUEL}, timeout=60)
        if not (r.get("ok") and r.get("kind") == "value"):
            healthy = False
            detail = f"shard {shard} health run failed: {r}"
            break
    stats = (await health_client.request(
        {"op": "stats"}, timeout=30)).get("stats") or {}
    open_breakers = [
        b for b in (stats.get("shards") or {}).get("breakers", [])
        if b["state"] != "closed"
    ]
    if healthy and open_breakers:
        healthy, detail = False, f"breakers not closed: {open_breakers}"
    check.add("server-healthy", healthy, detail)
    if injected.get("hang"):
        timeouts = (stats.get("workers") or {}).get("request_timeouts", 0)
        check.add("hang-timed-out", timeouts >= 1, "" if timeouts else
                  "hang injected but workers.request_timeouts == 0")
    if "corrupt-cache" in injected and injected.get("files-corrupted"):
        rejected = (stats.get("cache") or {}).get("rejected", 0)
        check.add("corrupt-entries-quarantined", rejected > 0,
                  f"{injected['files-corrupted']} files corrupted but "
                  f"cache.rejected == 0" if not rejected else "")

    retries_used = sum(c.retries_used
                       for c in clients + [health_client])
    await asyncio.gather(*[c.close()
                           for c in clients + [fault_client,
                                               health_client]])
    await server.drain(2.0)
    await server.stop()
    shutil.rmtree(cache_dir, ignore_errors=True)

    report = {
        "n": n,
        "seed": seed,
        "faults": sorted(kinds),
        "pool_programs": len(pool),
        "injected": dict(sorted(injected.items())),
        "outcomes": dict(sorted(outcomes.items())),
        "client_retries": retries_used,
        "invariants": check.items,
        "server_stats": {
            "resilience": stats.get("resilience"),
            "workers": stats.get("workers"),
            "cache": stats.get("cache"),
            "batches": stats.get("batches"),
            "responses": stats.get("responses"),
        },
        "elapsed_s": round(time.monotonic() - started, 3),
    }
    return report, check.failures()


def run_campaign(n: int = 200, seed: int = 0,
                 faults: Optional[Tuple[str, ...]] = None,
                 workers: int = 2,
                 progress=lambda *_: None) -> Tuple[dict, List[str]]:
    """Synchronous entry point: ``(report, failures)``; the campaign
    passed iff ``failures`` is empty."""
    kinds = tuple(faults) if faults else FAULT_KINDS
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        raise ValueError(
            f"unknown fault kinds {unknown}; choose from "
            f"{', '.join(FAULT_KINDS)}")
    return asyncio.run(_campaign(n, seed, kinds, workers, progress))
