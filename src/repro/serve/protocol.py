"""The ``sized serve`` wire protocol: JSON objects, one per line.

Requests
--------

Every request is a single JSON object terminated by ``\\n``.  Common
fields: ``id`` (echoed verbatim in the response; assigned when absent)
and ``op``.  Ops:

``run``
    ``program`` (string, non-empty source text, required), ``tenant``
    (any JSON value, used as its string; default ``"anonymous"``),
    ``fuel`` (``null`` or an int ≥ 0: the step budget; ``0`` =
    immediate exhaustion, ``null`` = unlimited, absent = the server
    default), ``machine`` (``native|compiled|tree``, default
    ``native``), ``mode`` (``off|contract|full``, default
    ``contract``), ``discharge`` (``off|try``, default ``try``), ``mc``
    (bool, default ``false``: monotonicity-constraint evidence for both
    the discharge and the residual monitor of the run, as ``sized run
    --mc``), ``result_kinds`` (an object mapping function names to kind
    names: trusted contract ranges for the discharge, as ``sized run
    --result-kind``).
``verify``
    Reads only ``entry``, ``kinds``, ``result_kinds`` and ``mc`` (besides
    ``program`` and ``tenant``), and reserves no fuel; the ``run`` fields
    are still checked.  Without an ``entry`` the program itself is the
    entry (its top-level forms are analysed, as ``--discharge`` does);
    an explicit ``entry`` (a non-empty string) takes ``kinds`` (a list of
    kind names, default ``[]``).
``stats``
    The metrics surface: request/response counters, cache hit/miss/
    rejected totals, batch sizes, latency percentiles, worker faults,
    per-tenant fuel spend.
``ping`` / ``shutdown``
    Liveness probe / graceful stop (the listener closes after in-flight
    requests settle).
``crash``
    Fault injection (only when the server was started with
    ``--allow-fault-injection``): the routed worker calls ``os._exit``.
    With ``"once": true`` and a ``marker`` path the worker dies only
    while the marker file does not exist — the requeued attempt
    succeeds, which is how the crash-recovery path is tested end to end.

:func:`check_job` checks the fields of ``run`` and ``verify`` and
applies their defaults before the front end reserves any fuel, so a
``bad-request`` never holds a budget reservation.  The job's ``args``
are exactly the keyword arguments of the op's request function
(``run_request``, ``verify_request``): the worker passes them through
and :func:`request_key` hashes them.

Responses
---------

``{"id": ..., "ok": true, ...}`` for served requests — note a run that
ended in a violation, run-time error, or fuel exhaustion is still
``ok: true``: the *service* did its job.  A run response carries the
answer record (:meth:`repro.eval.machine.Answer.record`: ``kind``, one
of ``value|rt-error|sc-error|timeout``, ``exit``, the CLI's exit code,
and the value or report `sized run` prints) and the discharge summary.
``{"id": ..., "ok": false, "error": {"type": ..., "message":
...}}`` for failures of the service itself; ``error.type`` is one of
``bad-request``, ``budget-exhausted``, ``worker-crash``, ``timeout``,
``overloaded``, ``shard-unavailable``, ``connection-lost``,
``fault-injection-disabled``, ``shutting-down``.

Retryable errors
----------------

A subset of service errors are *transient*: the same request, resent
unchanged, may well succeed (``RETRYABLE_ERRORS``).  ``overloaded``
means an admission queue shed the request (load, not brokenness);
``shard-unavailable`` means the routed shard's circuit breaker is open
after repeated faults; ``worker-crash`` means the requeue budget was
consumed by a genuinely dying worker; ``connection-lost`` is synthesised
client-side when the TCP stream dies under an in-flight request.  All
carry a best-effort ``retry_after`` hint in seconds where the server
can estimate one.  Requests are idempotent by construction — the
content-addressed :func:`request_key` covers everything the answer
depends on, so a retry either joins the original execution's batch or
re-runs to the same answer; ``timeout``, ``budget-exhausted`` and
``bad-request`` are deliberately *not* retryable (retrying cannot
change the outcome).

Responses may be written out of request order (requests on one
connection are served concurrently); match on ``id``.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

# error.type values for service-level failures
E_BAD_REQUEST = "bad-request"
E_BUDGET = "budget-exhausted"
E_CRASH = "worker-crash"
E_TIMEOUT = "timeout"
E_FAULTS_OFF = "fault-injection-disabled"
E_SHUTDOWN = "shutting-down"
E_OVERLOADED = "overloaded"
E_SHARD_UNAVAILABLE = "shard-unavailable"
E_CONNECTION_LOST = "connection-lost"  # synthesised client-side

# Transient failures a client may resend unchanged (requests are
# idempotent by construction: request_key covers everything the answer
# depends on).  timeout/budget-exhausted/bad-request are excluded on
# purpose — retrying cannot change those outcomes.
RETRYABLE_ERRORS = frozenset({
    E_OVERLOADED, E_SHARD_UNAVAILABLE, E_CRASH, E_CONNECTION_LOST,
})


def is_retryable(response: dict) -> bool:
    """True when a response is a service error a retry may fix."""
    if response.get("ok"):
        return False
    return (response.get("error") or {}).get("type") in RETRYABLE_ERRORS


def retry_after_hint(response: dict) -> float:
    """The server's ``retry_after`` suggestion in seconds (0.0 when
    absent or malformed)."""
    hint = (response.get("error") or {}).get("retry_after")
    if isinstance(hint, (int, float)) and not isinstance(hint, bool):
        return max(float(hint), 0.0)
    return 0.0

MAX_LINE = 8 * 1024 * 1024  # one request line; programs are small


def encode(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def decode(line: bytes) -> dict:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    return obj


def error_response(rid, etype: str, message: str, **extra) -> dict:
    err = {"type": etype, "message": message}
    err.update(extra)
    return {"id": rid, "ok": False, "error": err}


# The keyword arguments each op's request function takes from a request.
_ARGS = {"run": ("mode", "machine", "discharge", "evidence", "fuel",
                 "result_kinds"),
         "verify": ("entry", "kinds", "result_kinds", "evidence")}


def check_job(request: dict, default_fuel: Optional[int]
              ) -> Tuple[Optional[dict], Optional[str]]:
    """``(job, None)`` — the ``run``/``verify`` job ``{"op", "program",
    "args"}``, every field checked and defaulted, ``args`` the op's
    :data:`_ARGS` (a ``run``'s ``fuel`` still the requested one) — or
    ``(None, reason)`` for a ``bad-request``."""
    from repro.eval.machine import MACHINES, MODES

    program = request.get("program")
    if not isinstance(program, str) or not program.strip():
        return None, "'program' must be non-empty source text"
    fuel = request.get("fuel", default_fuel)
    if fuel is not None and (isinstance(fuel, bool)
                             or not isinstance(fuel, int) or fuel < 0):
        return None, "'fuel' must be null or an int >= 0"
    field = {"fuel": fuel}
    for name, allowed, default in (("machine", MACHINES, "native"),
                                   ("mode", MODES, "contract"),
                                   ("discharge", ("off", "try"), "try")):
        field[name] = request.get(name, default)
        if field[name] not in allowed:
            return None, f"'{name}' must be one of {'|'.join(allowed)}"
    mc = request.get("mc", False)
    if not isinstance(mc, bool):
        return None, "'mc' must be true or false"
    field["evidence"] = "mc" if mc else "sc"
    entry = request.get("entry")
    if entry is not None and (not isinstance(entry, str) or not entry):
        return None, "'entry' must be a function name"
    field["entry"] = entry
    kinds = request.get("kinds")
    if kinds is None:
        kinds = []
    if not isinstance(kinds, list) or \
            not all(isinstance(k, str) for k in kinds):
        return None, "'kinds' must be a list of kind names"
    field["kinds"] = kinds
    result_kinds = request.get("result_kinds")
    if result_kinds is not None and (
            not isinstance(result_kinds, dict)
            or not all(isinstance(k, str) for k in result_kinds.values())):
        return None, ("'result_kinds' must be an object mapping function "
                      "names to kind names")
    field["result_kinds"] = result_kinds or None
    op = request["op"]
    return {"op": op, "program": program,
            "args": {name: field[name] for name in _ARGS[op]}}, None


def request_key(job: dict) -> str:
    """Content-address one checked job (:func:`check_job`) for
    dedupe/batching and shard routing: its program, op and args (a
    ``run``'s fuel the effective one), not the tenant, the request id or
    a field the op does not read.  Equal keys share one execution."""
    from repro.analysis.discharge import content_key

    return content_key(job["program"], op=job["op"], args=job["args"])
