"""The ``@terminating`` decorator: ``terminating/c`` for Python functions.

Implementation notes
--------------------

* The evidence step is the machines' own: each wrapper builds one
  :class:`~repro.sct.monitor.SCMonitor` (an
  :class:`~repro.mc.monitor.MCMonitor` under ``graphs='mc'``) over a
  :class:`~repro.pyterm.order.PySizeOrder` and steps it with
  ``first_entry`` / ``advance``, keyed by a :class:`Callee` record that
  supplies what the monitor reads of a closure (``name``, ``params``,
  ``describe()``).  Graph building, composition, the SCP check, backoff,
  measures and the violation witness are therefore those of ``upd``
  (Fig. 4), packed bitmask engine included.
* The size-change table is **extent-scoped**: one table per thread, entries
  saved on call entry and restored in a ``finally`` — the paper's
  "imperative" strategy (Python has no tail-call optimization to break).
* Sibling recursive calls therefore compare against their *parent's*
  arguments, never against each other (e.g. merge-sort's two half-sorted
  branches), exactly like the λSCT table semantics.
* Keyword arguments and defaults are normalized into full positional
  order via ``signature.bind`` + ``apply_defaults`` — on *every* call
  once the function has defaulted parameters, not just on keyword calls.
  Otherwise a call that leaves a defaulted middle parameter implicit
  would record a shorter argument tuple than one that supplies it, and
  the graph positions (hence the descent evidence) would misalign.
* ``discharge='auto'`` runs the §4 static verifier once, at decoration
  time, on a conservative embedded-language translation of the function
  (:mod:`repro.pyterm.translate`); when the verifier proves termination
  the instrumentation is dropped entirely — the original function is
  returned, stamped ``__sct_discharged__``.  The certificate comes from
  :func:`repro.analysis.discharge.certify`, the same step ``sized run
  --discharge`` takes, so it is cached content-addressed and repeated
  decorations (reloads, subprocesses with a shared on-disk store) skip
  the verifier.  ``discharge='require'`` raises instead of silently
  keeping the monitor.
"""

from __future__ import annotations

import functools
import inspect
import threading
from types import SimpleNamespace
from typing import Callable, Optional, Sequence, Tuple

from repro.evidence import evidence
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import SCMonitor
from repro.pyterm.order import PySizeOrder

# A Python-level size-change violation is the embedded language's one.
SizeChangeError = SizeChangeViolation


class Callee:
    """A Python function as the monitor sees a closure: its ``name``
    (the key of its measure), its ``params`` (for the witness's
    parameter names) and ``describe()`` (the witness's function)."""

    __slots__ = ("name", "params")

    def __init__(self, name: str, param_names: Sequence[str]):
        self.name = name
        self.params = [SimpleNamespace(name=n) for n in param_names]

    def describe(self) -> str:
        return self.name


def make_monitor(order, deep: bool, graphs: str, backoff: bool,
                 measures=None) -> SCMonitor:
    """The monitor behind one ``@terminating`` wrapper or one
    ``monitor_extent``, of the ``graphs`` evidence kind
    (:mod:`repro.evidence`).  MC evidence reads sizes, never ``compare``,
    so it is always built over ``PySizeOrder(deep=deep)`` whatever
    ``order`` says."""
    monitor = evidence(graphs).monitor
    if order is None or graphs == "mc":
        order = PySizeOrder(deep=deep)
    return monitor(order=order, backoff=backoff, measures=measures)


class _ExtentState(threading.local):
    def __init__(self):
        self.table = {}


_STATE = _ExtentState()

_MISSING = object()


def extent_table_depth() -> int:
    """How many functions the current dynamic extent is tracking (useful in
    tests and diagnostics)."""
    return len(_STATE.table)


def terminating(
    fn: Optional[Callable] = None,
    *,
    order=None,
    backoff: bool = False,
    measure: Optional[Callable[[Tuple], Tuple]] = None,
    blame: Optional[str] = None,
    deep: bool = False,
    graphs: str = "sc",
    discharge: Optional[str] = None,
    kinds: Optional[Sequence[str]] = None,
    result_kind: Optional[str] = None,
    cache=None,
):
    """Assert that ``fn`` is size-change terminating, dynamically.

    Every call to the wrapped function is compared with the previous call in
    the same dynamic extent; if the accumulated size-change graphs admit an
    infinite descent-free iteration, :class:`SizeChangeError` is raised and
    ``blame`` (default: the function's qualified name) is charged.

    Options:

    * ``order`` — a custom partial order object with
      ``compare(old, new) -> {0,1,2}``; default :class:`PySizeOrder`.
      Unused under ``graphs="mc"``, whose evidence relates sizes.
    * ``deep`` — use deep (recursive) container sizes instead of ``len``.
    * ``backoff`` — exponential backoff: graphs are built on calls
      1, 2, 4, 8, …, trading detection latency for overhead (§5).
    * ``measure`` — map the argument tuple to a derived tuple before
      comparison (a custom well-founded measure, e.g.
      ``lambda a: (a[1] - a[0],)`` for a counting-up loop).
    * ``blame`` — the party named in violations.
    * ``graphs`` — ``"sc"`` (size-change graphs, the paper's semantics) or
      ``"mc"`` (monotonicity-constraint graphs, the §6.2 extension):
      ``"mc"`` additionally accepts counting-up-to-a-ceiling loops such as
      ``range(lo, hi) → range(lo+1, hi)`` without a ``measure``.
    * ``discharge`` — ``'auto'``: statically verify the function once at
      decoration time (via the embedded-language translation) and, on
      success, return the *original* function — zero instrumentation,
      with ``__sct_discharged__ = True``; on failure keep the monitor
      (the refusal reason lands in ``__sct_discharge_reason__``).
      ``'require'`` raises ``ValueError`` when verification fails.
      Verification honors ``kinds`` (per-parameter entry kinds, e.g.
      ``('nat',)`` — defaults to ``'int'``, which rarely proves descent
      under the ``|·|`` order) and ``result_kind`` (the function's
      contract range, §4.2), and is cached content-addressed across
      decorations.
    * ``cache`` — the :class:`~repro.analysis.discharge.VerificationCache`
      certificates go through (injectable for isolation; default: the
      process-wide fallback of ``default_cache()``).

    Usable bare (``@terminating``) or with options
    (``@terminating(backoff=True)``).
    """
    if fn is None:
        return lambda f: terminating(
            f, order=order, backoff=backoff, measure=measure, blame=blame,
            deep=deep, graphs=graphs, discharge=discharge, kinds=kinds,
            result_kind=result_kind, cache=cache,
        )
    name = getattr(fn, "__qualname__", repr(fn))
    monitor = make_monitor(order, deep, graphs, backoff,
                           {name: measure} if measure is not None else None)
    if discharge not in (None, "off", "auto", "require"):
        raise ValueError(
            f"discharge must be 'off', 'auto' or 'require', got {discharge!r}")

    discharge_reason = None
    if discharge in ("auto", "require"):
        proven, discharge_reason = _discharge_statically(
            fn, graphs, kinds, result_kind, cache)
        if proven:
            fn.__sct_terminating__ = True
            fn.__sct_discharged__ = True
            fn.__sct_discharge_reason__ = None
            return fn
        if discharge == "require":
            raise ValueError(
                f"@terminating(discharge='require'): cannot statically "
                f"verify {getattr(fn, '__qualname__', fn)!r}: "
                f"{discharge_reason}")

    party = blame if blame is not None else name
    try:
        signature = inspect.signature(fn)
        param_names = [
            p.name
            for p in signature.parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
    except (TypeError, ValueError):
        signature = None
        param_names = None
    # A function with defaulted (or keyword-only / var-) parameters must
    # normalize on *every* call: a purely positional call that leaves a
    # defaulted middle parameter implicit would otherwise record a
    # shorter tuple than a call supplying it, shifting graph positions.
    needs_binding = signature is not None and any(
        p.default is not inspect.Parameter.empty
        or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD, p.KEYWORD_ONLY)
        for p in signature.parameters.values()
    )

    def _normalize(args: tuple, kwargs: dict) -> tuple:
        if not kwargs and not needs_binding:
            return args
        if signature is None:
            return args + tuple(kwargs[k] for k in sorted(kwargs))
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())

    callee = Callee(name, param_names or ())
    first_entry = monitor.first_entry
    advance = monitor.advance

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        table = _STATE.table
        prev = table.get(wrapper, _MISSING)
        call_args = _normalize(args, kwargs)
        if prev is _MISSING:
            table[wrapper] = first_entry(callee, call_args)
        else:
            table[wrapper] = advance(prev, callee, call_args, party)
        try:
            return fn(*args, **kwargs)
        finally:
            if prev is _MISSING:
                table.pop(wrapper, None)
            else:
                table[wrapper] = prev

    wrapper.__wrapped__ = fn
    wrapper.__sct_terminating__ = True
    wrapper.__sct_discharged__ = False
    wrapper.__sct_discharge_reason__ = discharge_reason
    return wrapper


def _discharge_statically(fn, graphs: str, kinds, result_kind, cache=None):
    """Translate ``fn`` to the embedded language and certify it under
    ``graphs`` evidence; returns ``(proven, reason_if_not)``.  The
    certificate goes through the injected content-addressed ``cache``
    (default: the process-wide fallback), so re-decorating the same
    source (module reloads, spawned workers with a shared on-disk store)
    skips the verifier."""
    from repro.analysis.discharge import certify
    from repro.lang.parser import parse_program
    from repro.pyterm.translate import Untranslatable, translate_function

    try:
        source, entry, params = translate_function(fn)
    except Untranslatable as exc:
        return False, f"not translatable: {exc}"
    if kinds is None:
        kinds = ("int",) * len(params)
    kinds = tuple(kinds)
    if len(kinds) != len(params):
        return False, (f"{len(params)} parameters but {len(kinds)} kinds "
                       "given")
    program = parse_program(source, source=f"<pyterm:{entry}>")
    certificate, problem = certify(
        program, source, entry, kinds, graphs,
        {entry: result_kind} if result_kind else None, cache)
    if certificate is None:
        return False, problem
    if certificate.complete:
        return True, None
    why = "; ".join(certificate.taint_reasons) or \
        "the collected graphs do not pass the static check"
    return False, f"verification inconclusive: {why}"
