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
    from repro.eval.machine import make_env

    _STATE["worker_id"] = worker_id
    _STATE["cache"] = VerificationCache(cache_dir)
    # The native tier shares the compiled closure representation, so one
    # warm environment serves every machine a job may ask for.
    _STATE["env"] = make_env(True, machine="native")
    # Content-addressed program cache, next to the certificate cache: a
    # repeat request re-uses the parsed AST, so its compiled Code *and*
    # the native code and heat on each CLam stay warm across requests,
    # whatever each request's policy, instead of being rebuilt per job.
    _STATE["programs"] = LRU(64)


def worker_job(job: dict) -> dict:
    """Execute one (deduplicated) job; always returns a response dict —
    the only exceptions that escape are worker-fatal by design
    (``os._exit`` under fault injection)."""
    op = job.get("op")
    if op == "crash":
        return _crash_job(job)
    if op == "hang":
        return _hang_job(job)
    try:
        if op == "run":
            return _run_job(job)
        if op == "verify":
            return _verify_job(job)
        return {"ok": False, "error": {
            "type": "bad-request", "message": f"unknown worker op {op!r}"}}
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


def _parse(job: dict):
    import hashlib

    from repro.lang.parser import parse_program

    text = job["program"]
    source = job.get("source", "<serve>")
    programs = _STATE.get("programs")
    key = None
    if programs is not None:
        key = hashlib.sha256(
            f"{source}\x00{text}".encode("utf-8", "replace")).hexdigest()
        cached = programs.get(key)
        if cached is not None:
            return cached, None
    try:
        program = parse_program(text, source=source)
    except Exception as exc:
        return None, {"ok": False, "error": {
            "type": "bad-request", "message": f"parse error: {exc}"}}
    if programs is not None:
        programs.put(key, program)
    return program, None


def _discharge(program, job: dict, cache):
    from repro.analysis.discharge import discharge_for_run

    result = discharge_for_run(program, text=job["program"],
                               mc=bool(job.get("mc")), cache=cache)
    info = {
        "complete": result.complete,
        "skipped": len(result.policy.skip_labels),
        "reasons": result.reasons[:4],
    }
    return result.policy, info


def _evidence_kind(job: dict) -> str:
    """A job's ``mc`` flag picks the evidence of its discharge, its
    residual monitor and its verdict alike."""
    return "mc" if job.get("mc") else "sc"


def _run_job(job: dict) -> dict:
    from repro.analysis.discharge import VerificationCache
    from repro.eval.errors import FuelExhausted
    from repro.eval.machine import EXIT_CODES, MACHINES, Answer, run_program
    from repro.evidence import evidence
    from repro.values.values import write_value

    machine = job.get("machine", "native")
    if machine not in MACHINES:
        return {"ok": False, "error": {
            "type": "bad-request",
            "message": f"unknown machine {machine!r} "
                       f"(want one of {', '.join(MACHINES)})"}}
    program, err = _parse(job)
    if err is not None:
        return err
    cache = _STATE.get("cache") or VerificationCache()
    hits0, miss0, rej0 = cache.hits, cache.misses, cache.rejected
    policy = None
    discharge_info = None
    if job.get("discharge", "try") != "off":
        policy, discharge_info = _discharge(program, job, cache)
    # The warm env is compiled-family (shared by native); a tree job
    # needs its own env — rare enough to pay the prelude cost inline.
    env = _STATE.get("env") if machine != "tree" else None
    answer = run_program(
        program, mode=job.get("mode", "contract"),
        monitor=evidence(_evidence_kind(job)).monitor(),
        fuel=job.get("fuel"),
        machine=machine, discharge=policy, env=env)
    response = {
        "ok": True,
        "kind": answer.kind,
        "exit": EXIT_CODES.get(answer.kind, 1),
        "steps": answer.steps,
        "output": answer.output,
        "tier": answer.tier,
        "discharge": discharge_info,
        "cache": {"hits": cache.hits - hits0,
                  "misses": cache.misses - miss0,
                  "rejected": cache.rejected - rej0},
        "worker": _STATE.get("worker_id"),
    }
    if answer.kind == Answer.VALUE:
        response["value"] = write_value(answer.value)
    elif answer.kind == Answer.SC_ERROR:
        response["violation"] = str(answer.violation)
    elif answer.kind == Answer.TIMEOUT:
        response["fuel_exhausted"] = isinstance(answer.error, FuelExhausted)
        response["message"] = str(answer.error)
    else:
        response["message"] = str(answer.error)
    return response


def _verify_job(job: dict) -> dict:
    from repro.analysis.discharge import VerificationCache

    program, err = _parse(job)
    if err is not None:
        return err
    cache = _STATE.get("cache") or VerificationCache()
    hits0, miss0, rej0 = cache.hits, cache.misses, cache.rejected
    entry = job.get("entry")
    if entry:
        from repro.symbolic.verify import verify_program

        kinds = list(job.get("kinds") or ())
        verdict = verify_program(program, entry, kinds,
                                 result_kinds=job.get("result_kinds"),
                                 evidence=_evidence_kind(job))
        return {
            "ok": True,
            "kind": "verdict",
            "verified": bool(verdict.verified),
            "exit": 0 if verdict.verified else 3,
            "verdict": verdict.to_json(entry=entry, kinds=kinds),
            "worker": _STATE.get("worker_id"),
        }
    _, info = _discharge(program, job, cache)
    return {
        "ok": True,
        "kind": "discharge",
        "verified": bool(info["complete"]),
        "exit": 0 if info["complete"] else 3,
        "discharge": info,
        "cache": {"hits": cache.hits - hits0,
                  "misses": cache.misses - miss0,
                  "rejected": cache.rejected - rej0},
        "worker": _STATE.get("worker_id"),
    }


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
        # otherwise keep its process alive past interpreter exit
        self.kill(old)
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        return True

    def shutdown(self) -> None:
        self.kill()
        try:
            self.executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
