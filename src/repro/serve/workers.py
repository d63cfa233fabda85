"""Warm worker processes for ``sized serve``.

One :class:`ShardPool` per shard, each a ``max_workers=1``
``ProcessPoolExecutor`` whose initializer pre-imports the language
stack, builds the prelude environment once, and opens the worker's own
injectable :class:`~repro.analysis.discharge.VerificationCache` over the
shared on-disk store (the one layout every cache uses, so ``sized run
--discharge-cache`` reads what the workers wrote).  The front-end routes
a request to the shard its request-key prefix selects — the same program
always lands on the same worker, so the worker's *in-memory* certificate
store is hot for repeated traffic, not just the on-disk one.

Worker death is a first-class event: :meth:`ShardPool.rebuild_if` tears
the broken executor down (killing any survivor process) and stands up a
fresh warm worker; a generation counter makes concurrent rebuild
requests idempotent.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

# -- worker-side (child process) ------------------------------------------------

_STATE: dict = {}


def worker_init(cache_dir: Optional[str], worker_id: int) -> None:
    """Process-pool initializer: pay import/prelude/verifier-warmup cost
    once per worker, not once per request."""
    from repro.analysis.discharge import VerificationCache
    from repro.ds.lru import LRU
    from repro.eval.machine import _run_env

    _STATE["worker_id"] = worker_id
    _STATE["cache"] = VerificationCache(cache_dir)
    # Build the process's library environment now: every compiled or
    # native run snapshots it (run_program(env=None)), so no request
    # pays for the prelude.
    _run_env("native")
    # Content-addressed program cache, next to the certificate cache: a
    # repeat request re-uses the parsed AST, so its compiled Code *and*
    # the native code and heat on each CLam stay warm across requests,
    # whatever each request's policy, instead of being rebuilt per job.
    _STATE["programs"] = LRU(64)


def worker_job(job: dict) -> dict:
    """Execute one (deduplicated) job, checked by
    :func:`repro.serve.protocol.check_job`; always returns a response
    dict — the only exceptions that escape are worker-fatal by design
    (``os._exit`` under fault injection)."""
    from repro.analysis.discharge import VerificationCache
    from repro.eval.machine import run_request
    from repro.symbolic.verify import verify_request

    op = job.get("op")
    if op == "crash":
        return _crash_job(job)
    if op == "hang":
        return _hang_job(job)
    if op not in ("run", "verify"):
        return {"ok": False, "error": {
            "type": "bad-request", "message": f"unknown worker op {op!r}"}}
    try:
        program, err = _parse(job["program"])
        if err is not None:
            return err
        cache = _STATE.get("cache") or VerificationCache()
        before = (cache.hits, cache.misses, cache.rejected)
        args = job["args"]
        if op == "run":
            answer, result = run_request(program, job["program"],
                                         cache=cache, **args)
            response = {**answer.record(),
                        "discharge": result and result.summary()}
        else:
            response = verify_request(program, job["program"], cache=cache,
                                      **args).record()
        return {"ok": True, **response,
                "cache": {"hits": cache.hits - before[0],
                          "misses": cache.misses - before[1],
                          "rejected": cache.rejected - before[2]},
                "worker": _STATE.get("worker_id")}
    except Exception as exc:  # defensive: never poison the executor
        return {"ok": False, "error": {
            "type": "worker-error",
            "message": f"{type(exc).__name__}: {exc}"}}


def _hang_job(job: dict) -> dict:
    """Fault injection: occupy the single worker for ``seconds``.  Under
    the wall-clock limit this models a *slow* worker (the response still
    arrives); over it the front-end kills and rebuilds the shard — the
    wedged-worker story the chaos harness drives deterministically."""
    import time

    seconds = job.get("seconds")
    if not isinstance(seconds, (int, float)) or isinstance(seconds, bool) \
            or not (0 <= seconds <= 600):
        return {"ok": False, "error": {
            "type": "bad-request",
            "message": "'seconds' must be a number in [0, 600]"}}
    time.sleep(seconds)
    return {"ok": True, "kind": "hang-done", "seconds": seconds,
            "worker": _STATE.get("worker_id")}


def _crash_job(job: dict) -> dict:
    marker = job.get("marker")
    if job.get("once") and marker:
        if os.path.exists(marker):
            return {"ok": True, "kind": "crash-already-injected",
                    "worker": _STATE.get("worker_id")}
        with open(marker, "w") as f:
            f.write("crashed\n")
    os._exit(17)


def _parse(text: str):
    import hashlib

    from repro.lang.parser import parse_program

    programs = _STATE.get("programs")
    key = None
    if programs is not None:
        key = hashlib.sha256(
            f"<serve>\x00{text}".encode("utf-8", "replace")).hexdigest()
        cached = programs.get(key)
        if cached is not None:
            return cached, None
    try:
        program = parse_program(text, source="<serve>")
    except Exception as exc:
        return None, {"ok": False, "error": {
            "type": "bad-request", "message": f"parse error: {exc}"}}
    if programs is not None:
        programs.put(key, program)
    return program, None


# -- front-end-side (parent process) --------------------------------------------


def _mp_context():
    # fork keeps worker start cheap (inherits the parent's imports);
    # everything worker_init builds is rebuilt per child regardless.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


class ShardPool:
    """One warm single-process executor plus its rebuild machinery."""

    def __init__(self, shard_id: int, cache_dir: Optional[str]):
        self.shard_id = shard_id
        self.cache_dir = cache_dir
        self.generation = 0
        self._ctx = _mp_context()
        self._make()

    def _make(self) -> None:
        self.executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._ctx,
            initializer=worker_init,
            initargs=(self.cache_dir, self.shard_id),
        )

    def submit(self, job: dict):
        return self.executor.submit(worker_job, job)

    def kill(self, executor=None) -> None:
        """Hard-stop the worker process (wall-clock timeout path)."""
        executor = executor if executor is not None else self.executor
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass

    def rebuild_if(self, generation: int) -> bool:
        """Replace a broken executor, but only once per failure: callers
        pass the generation they observed, so concurrent failures of the
        same worker trigger a single rebuild."""
        if generation != self.generation:
            return False
        self.generation += 1
        old = self.executor
        self._make()
        # kill any survivor before shutdown: a wedged worker would
        # otherwise keep its process alive past interpreter exit.  Queued
        # jobs then fail with BrokenProcessPool and are requeued (a
        # cancelled one would strand its client on a CancelledError)
        self.kill(old)
        try:
            old.shutdown(wait=False)
        except Exception:
            pass
        return True

    def shutdown(self) -> None:
        self.kill()
        try:
            self.executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
