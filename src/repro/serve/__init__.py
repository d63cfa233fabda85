"""``sized serve`` — termination checking as a batched, multi-tenant
service.

The ROADMAP's "termination-checking as a service" item, concretely: a
stdlib-only asyncio front-end (:mod:`repro.serve.server`) speaking a
JSON-lines TCP protocol (:mod:`repro.serve.protocol`), joining each
request to an identical one already in flight, by content-addressed
cache key (:mod:`repro.serve.batching`), fanning work out to warm
worker processes that each own a shard of the on-disk verification cache
(:mod:`repro.serve.workers`), metering per-tenant fuel budgets
(:mod:`repro.serve.budgets`), and reporting a metrics surface
(:mod:`repro.serve.metrics`) via the ``stats`` request.

Request lifecycle::

    accept → admit (tenant budget) → join in-flight twin or dispatch
           → route to shard worker → verify-or-cache-hit
           → residual run under fuel → settle budget → respond

Faults degrade gracefully: a crashed or wall-clock-timed-out worker is
killed and rebuilt, the affected request is requeued exactly once, and a
second failure yields a structured error response — a misbehaving worker
can neither wedge a batch nor drop a request.

The resilience layer on top (chaos-proven by ``sized chaos`` /
:mod:`repro.serve.chaos`): bounded admission queues with load shedding
and a global in-flight cap (retryable ``overloaded`` errors with
``retry_after`` hints), per-shard circuit breakers
(:mod:`repro.serve.breaker`) that fast-reject ``shard-unavailable``
while a flapping shard recovers, drain-on-shutdown with a deadline, and
retrying clients (:class:`~repro.serve.client.RetryPolicy`) that make
the whole loop self-healing end to end.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.budgets import TenantBudgets
from repro.serve.client import AsyncServeClient, RetryPolicy, ServeClient
from repro.serve.metrics import Metrics
from repro.serve.protocol import RETRYABLE_ERRORS, request_key
from repro.serve.server import ServeConfig, SizedServer, serve_main

__all__ = [
    "AsyncServeClient",
    "CircuitBreaker",
    "Metrics",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "SizedServer",
    "TenantBudgets",
    "request_key",
    "serve_main",
]
