"""The serve-mixed workload and the serve probe of the traced runs.

A ``python -m repro serve`` subprocess with ``nproc`` workers is driven
by ``nproc`` connections from this one process, in a closed loop with
one request outstanding per connection.  Set-up is server boot plus one
pass over the repeat set (warm worker LRU, certificates, native code).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Tuple

from calib import SERVE_INTERVAL, Speed, host_sample
from common import ROOT, SRC, WORK, child_pids, clock, nproc, vm_hwm_mb
from inproc import InProcess, Result
from inputs import Item, as_request, corpus_items, mixed_stream
from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.lang.parser import parse_program

LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")
#: Requests of a traced serve-mixed run replayed in process (the first
#: ones, in send order), which bounds the traced run's length.
REPLAYED = 400


class Server:
    """One ``sized serve`` subprocess over a fresh certificate store."""

    def __init__(self, workers: int):
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=WORK)
        self.log_path = os.path.join(self.dir, "server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers),
             "--cache-dir", os.path.join(self.dir, "store")],
            stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.workers: List[int] = []

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                m = LISTEN_RE.search(f.read())
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start (see {self.log_path})")

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its worker processes."""
        self.workers = child_pids(self.proc.pid)
        return vm_hwm_mb(self.proc.pid) + sum(vm_hwm_mb(p)
                                              for p in self.workers)

    def close(self) -> None:
        """Shut down, wait for the server and its workers, clean up."""
        workers = self.workers or child_pids(self.proc.pid)
        if self.proc.poll() is None and self.port is not None:
            try:
                asyncio.run(_one(self.host, self.port, {"op": "shutdown"}))
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10
        for pid in workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, 9)
                    except OSError:
                        pass
                time.sleep(0.01)
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


async def _one(host, port, request: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _roundtrip(reader, writer, request)
    finally:
        writer.close()
        await writer.wait_closed()


async def _roundtrip(reader, writer, request: dict) -> dict:
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def run_request(item: Item, rid: int, spec: dict) -> dict:
    return {"id": rid, "op": "run", "program": item.text,
            "mode": spec["mode"], "machine": spec["machine"],
            "discharge": "try", "fuel": spec["fuel"]}


async def drive(server: Server, items: List[Item], spec: dict,
                connections: int, seconds: Optional[float],
                speed: Optional[Speed] = None) -> Tuple[list, list]:
    """Closed loop: each connection sends its next request once the
    previous answer is in.  With ``speed``, every ``SERVE_INTERVAL`` the
    loop quiesces and samples the host's speed.  Returns ``(index, item,
    response, t0, t1)`` per request in send order, and the pauses."""
    records: List[tuple] = []
    pauses: List[Tuple[float, float]] = []
    nxt = 0
    inflight = 0
    deadline = None if seconds is None else clock() + seconds
    gate = asyncio.Event()
    gate.set()
    idle = asyncio.Event()
    running = connections

    def more() -> bool:
        return nxt < len(items) and (deadline is None or clock() < deadline)

    async def client():
        nonlocal nxt, inflight, running
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        try:
            while True:
                await gate.wait()
                if not more():
                    break
                i = nxt
                nxt += 1
                inflight += 1
                t0 = clock()
                try:
                    response = await _roundtrip(
                        reader, writer, run_request(items[i], i, spec))
                except (OSError, ValueError) as exc:
                    response = {"ok": False, "error": {
                        "type": "client", "message": repr(exc)}}
                records.append((i, items[i], response, t0, clock()))
                inflight -= 1
                if not inflight:
                    idle.set()
        finally:
            running -= 1
            idle.set()
            writer.close()
            await writer.wait_closed()

    async def calibrate():
        while True:
            await asyncio.sleep(SERVE_INTERVAL)
            if not running:
                break
            gate.clear()
            while inflight and running:
                idle.clear()
                await idle.wait()
            p0 = clock()
            speed.samples.append(host_sample())
            pauses.append((p0, clock()))
            gate.set()

    tasks = [client() for _ in range(connections)]
    if speed is not None:
        tasks.append(calibrate())
    await asyncio.gather(*tasks)
    records.sort(key=lambda r: r[0])
    return records, pauses


def check_response(item: Item, response: dict) -> Optional[str]:
    if not response.get("ok"):
        err = response.get("error") or {}
        return f"{item.name}: service error {err.get('type')}: " \
               f"{err.get('message')}"
    return item.check(response.get("kind"), response.get("value"),
                      response.get("output"))


def boot(spec: dict, warm: List[Item], workers: int) -> Tuple[Server, float]:
    """Start a server and warm it on ``warm``; returns it and the
    seconds from process start to the first op being ready."""
    t0 = clock()
    server = Server(workers)
    try:
        server.wait_listening()
        asyncio.run(drive(server, warm, spec, workers, None))
    except BaseException:
        server.close()
        raise
    return server, clock() - t0


def stats(server: Server) -> dict:
    return asyncio.run(_one(server.host, server.port,
                            {"op": "stats"}))["stats"]


def serve_items() -> List[Item]:
    """The repeat set: the corpus programs a serve request can express."""
    return [as_request(i) for i in corpus_items(with_measures=False)]


class WorkerMimic(InProcess):
    """In-process replay of what a serve worker does for one run request
    (parse unless the program is cached, discharge against an in-memory
    certificate cache, run with a plain monitor): the request's time
    with no front end, which serve overhead is measured against."""

    name = "serve-mixed"

    def setup(self) -> None:
        super().setup()
        self.parses = {}
        self.cache = VerificationCache()

    def op(self, item: Item) -> Result:
        t0 = clock()
        program = self.parses.get(item.text)
        cached = program is not None
        if not cached:
            program = self.parses[item.text] = parse_program(item.text)
        t1 = clock()
        before = (self.cache.hits, self.cache.misses, self.cache.rejected)
        result = discharge_for_run(program, text=item.text, cache=self.cache)
        t2 = clock()
        answer, monitor = self.run(program, result.policy, None)
        t3 = clock()
        return Result(answer, monitor, (t0, t1, t2, t3, cached, before),
                      program, result, self.cache)

    def attribute(self, item: Item, res: Result, op: int,
                  client_s: float) -> None:
        lay, tr = self.layers, self.tracer
        t0, t1, t2, t3, cached, before = res.stamps
        lay.add("serve_overhead_s", client_s - (t3 - t0))
        top = tr.add(op, "replay.worker", t0, t3)
        tr.add(op, "lang.parser.parse_program", t0, t1, top)
        tr.add(op, "analysis.discharge.discharge_for_run", t1, t2, top)
        tr.add(op, "eval.machine.run_program", t2, t3, top)
        lay.add("op_latency_s", client_s)
        if not cached:
            lay.add("parse_s", t1 - t0)
            lay.add("op_parse_s", t1 - t0)
        self.record_discharge(res.cache, before, res.discharge, t2 - t1)
        self.record_run(res)
        if res.cache.misses - before[1]:
            r0 = clock()
            self.run(res.program, res.discharge.policy, None)
            lay.add("prepare_s", (t3 - t2) - (clock() - r0))
            self.verify_phases(item, op)
            self.replay_prepare(item, self.cache, op,
                                res.answer.tier == "native")
        else:
            lay.add("execute_s", t3 - t2)
            self.monitor_costs(res.program, res.discharge.policy, None,
                               res.answer.steps, op)


def record_stats(layers, st: dict) -> None:
    tiers = st["tiers"]
    layers.add("serve_server_p50_ms", st["latency_ms"]["p50"])
    layers.add("serve_batch_mean", st["batches"]["mean_size"])
    layers.add("serve_hit_rate", st["cache"]["hit_rate"])
    layers.add("serve_tier_native",
               tiers.get("native", 0) / max(sum(tiers.values()), 1))
    res = st["resilience"]
    layers.add("serve_shed", res["shed_overloaded"] + res["shed_shard_queue"])
    layers.add("serve_requeues", st["workers"]["requeues"])


def probe(spec: dict, items: List[Item], seed: int, layers) -> None:
    """Serve attribution for an in-process workload's traced run: each
    of a sample of its requests is sent twice (first sight, then warm)
    to a fresh server and replayed in process."""
    distinct = {}
    for item in items:
        if item.measures is None:
            distinct.setdefault(item.text, as_request(item))
        if len(distinct) >= spec["trace"]["serve_probe_requests"] // 2:
            break
    sample = [i for i in distinct.values() for _ in range(2)]
    server, _ = boot(spec, [], 1)
    try:
        records, _ = asyncio.run(drive(server, sample, spec, 1, None))
        record_stats(layers, stats(server))
    finally:
        server.close()
    mimic = WorkerMimic(spec, seed, 0)
    mimic.setup()
    for _, item, _, t0, t1 in records:
        stamps = mimic.op(item).stamps
        layers.add("serve_overhead_s", (t1 - t0) - (stamps[3] - stamps[0]))


def run_serve(spec: dict, seed: int, seconds: float, layers, tracer,
              speed: Speed):
    """The serve-mixed workload.  Returns the per-request records, the
    host-sampling pauses, the set-up samples, the peak RSS, and the
    failure messages; ``speed`` gets the host-speed samples of the timed
    phase."""
    workers = nproc()
    cfg = spec["workloads"]["serve-mixed"]
    repeat = serve_items()
    stream = mixed_stream(repeat, seed, int(seconds * 400) + 200,
                          cfg["fuzz_every"])
    runs = spec["setup_repeats"]["serve"] if tracer is None else 1
    setups = []
    for k in range(runs):
        before = host_sample()[1]
        server, took = boot(spec, repeat, workers)
        setups.append(took * speed.factor((before + host_sample()[1]) / 2))
        if k < runs - 1:
            server.close()
    try:
        records, pauses = asyncio.run(drive(server, stream, spec, workers,
                                            seconds, speed))
        st = stats(server)
        rss = server.peak_rss_mb()
    finally:
        server.close()
    failures = [f for f in (check_response(item, resp)
                            for _, item, resp, _, _ in records) if f]
    if tracer is not None:
        record_stats(layers, st)
        mimic = WorkerMimic(spec, seed, seconds, layers, tracer)
        mimic.setup()
        for item in repeat:
            mimic.op(item)
        for i, item, response, t0, t1 in records[:REPLAYED]:
            if i % 2:
                tracer.add(i, "client.request", t0, t1)
                layers.add_op("traced", item, t1 - t0)
                layers.add_op("stage", item, t1 - t0)
            else:
                layers.add_op("untraced", item, t1 - t0)
            mimic.attribute(item, mimic.op(item), i, t1 - t0)
    return records, pauses, setups, rss, failures
