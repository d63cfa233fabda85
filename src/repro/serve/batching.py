"""Key-addressed in-flight dedupe for the serve front-end.

Identical jobs — equal :func:`repro.serve.protocol.request_key`, which
covers program text, libraries, the op and the arguments it reads but
*not* the tenant — are satisfied by a single worker execution.  The first arrival
opens a batch and dispatches at once; anything arriving while that
dispatch is in flight joins it at no cost.  When the shared result
lands, every member gets it; each member still settles its *own* tenant
budget and latency sample.  Once a batch settles its key is forgotten:
a later identical request dispatches again (the worker's warm
certificate cache, not a result memo here, makes that cheap).

A batch's dispatch failure (the structured error dict the dispatcher
returns after its requeue budget is spent) is shared the same way a
result is — a wedged batch is impossible because the future is always
resolved in a ``finally``.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Tuple


class _Batch:
    __slots__ = ("future", "size")

    def __init__(self, future: "asyncio.Future"):
        self.future = future
        self.size = 1


class KeyedBatcher:
    """``submit(key, job)`` → ``(shared result dict, batch_size,
    joined)``."""

    def __init__(self, dispatch: Callable[[str, dict], Awaitable[dict]]):
        self.dispatch = dispatch
        self._pending: Dict[str, _Batch] = {}

    def pending(self) -> int:
        return len(self._pending)

    def has(self, key: str) -> bool:
        """True when a batch for ``key`` is in flight — a new arrival
        would join it for free, so admission control must not shed it
        on shard-queue depth (joining adds no shard load)."""
        return key in self._pending

    async def submit(self, key: str, job: dict) -> Tuple[dict, int, bool]:
        batch = self._pending.get(key)
        if batch is not None:
            batch.size += 1
            result = await asyncio.shield(batch.future)
            return result, batch.size, True

        loop = asyncio.get_running_loop()
        batch = _Batch(loop.create_future())
        self._pending[key] = batch
        try:
            result = await self.dispatch(key, job)
        except BaseException as exc:  # incl. cancellation: never strand waiters
            if not batch.future.done():
                batch.future.set_exception(exc)
            # keep the exception retrievable without "never retrieved"
            # noise when this leader was the only member
            batch.future.exception()
            raise
        else:
            if not batch.future.done():
                batch.future.set_result(result)
            return result, batch.size, False
        finally:
            self._pending.pop(key, None)
