"""Full-extent monitoring: λSCT's *every-application* semantics for Python.

The ``@terminating`` decorator only observes calls to functions that were
explicitly wrapped — the ``λCSCT`` contract semantics.  This module is the
``λSCT`` analogue: inside a :class:`monitor_extent` block **every**
Python-level call is observed through ``sys.setprofile``, so divergence
hiding in *unwrapped* helpers is caught too:

    with monitor_extent():
        main()          # any loop anywhere below main() is monitored

Design notes
------------

* **Keying.**  A profile callback sees frames, not function objects, so
  entries are keyed by the *code object* — all closures of one ``def`` or
  ``lambda`` share an entry.  This is exactly the paper's closure-hashing
  compromise (§5): sound (the table cannot grow without bound), but able
  to produce false positives when distinct closures of the same λ
  alternate.  Use the selective decorator when that precision matters.
* **One evidence step.**  The extent owns one
  :class:`~repro.sct.monitor.SCMonitor` (an
  :class:`~repro.mc.monitor.MCMonitor` under ``graphs='mc'``) and its
  profile hook steps it with the monitor's ``first_entry`` / ``advance``
  on each call, keyed by one :class:`~repro.pyterm.decorator.Callee`
  record per code object, and restores the entry on each return — the
  imperative strategy's ``upd_mut`` / ``restore_mut`` written inline, as
  the decorator does: two call layers fewer per call, which matters
  under backoff, where the hook itself is most of the cost.
  ``calls_seen`` / ``checks_done`` are the monitor's counters.
* **Extent scoping.**  Like the λSCT table, entries are saved on call
  entry and restored on return/unwind, so sibling calls never compare
  against each other.
* **Filtering.**  Standard-library, site-packages and this library's own
  frames are skipped by default; pass ``include`` to monitor exactly the
  code you care about.  Generator and coroutine frames are skipped (their
  resumption protocol is not a size-change call sequence).
* **Scope.**  ``sys.setprofile`` is per-thread; the extent monitors the
  thread that entered it.  On violation the profiler unwinds with the
  :class:`~repro.pyterm.decorator.SizeChangeError`, and ``__exit__``
  restores the previous profile function.
"""

from __future__ import annotations

import inspect
import os
import sys
import sysconfig
import threading
from typing import Callable, Optional

from repro.pyterm.decorator import Callee, SizeChangeError, make_monitor

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STDLIB = sysconfig.get_paths().get("stdlib", "")
_PURELIB = sysconfig.get_paths().get("purelib", "")

_SKIP_FLAGS = (
    inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR
)

# Comprehension frames take a single fresh-iterator argument that no
# well-founded order can relate across calls; any recursion cycle through
# a comprehension also passes through its named enclosing function (a
# comprehension cannot name itself), so skipping them loses no soundness
# — the same argument as the paper's Lemma A.1.
_SKIP_NAMES = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>", "<module>"})

_MISSING = object()


def default_include(code) -> bool:
    """Monitor user code only: skip this library, the standard library,
    installed packages, and synthetic filenames like ``<frozen ...>``."""
    filename = code.co_filename
    if filename.startswith(_REPRO_ROOT):
        return False
    if _STDLIB and filename.startswith(_STDLIB):
        return False
    if _PURELIB and filename.startswith(_PURELIB):
        return False
    if filename.startswith("<frozen"):
        return False
    return True


class monitor_extent:
    """Context manager enforcing size-change termination on every call in
    its dynamic extent (current thread).

    Options:

    * ``include`` — predicate on code objects selecting what to monitor
      (default :func:`default_include`).
    * ``order`` / ``deep`` — the well-founded order on argument values
      (as in :func:`repro.pyterm.terminating`; ``order`` is unused under
      ``graphs="mc"``).
    * ``graphs`` — ``"sc"`` (size-change) or ``"mc"`` (monotonicity
      constraints, accepting bounded count-up loops).
    * ``backoff`` — exponential backoff per code object (§5).
    * ``blame`` — the party named in violations (default: the offending
      function's qualified name).
    """

    def __init__(
        self,
        include: Optional[Callable] = None,
        order=None,
        deep: bool = False,
        graphs: str = "sc",
        backoff: bool = False,
        blame: Optional[str] = None,
    ):
        self.include = include if include is not None else default_include
        self.blame = blame
        self.violation: Optional[SizeChangeError] = None
        self._monitor = make_monitor(order, deep, graphs, backoff)
        self._first_entry = self._monitor.first_entry
        self._advance = self._monitor.advance
        self._callees: dict = {}
        self._table: dict = {}
        self._undo: dict = {}
        self._previous_profile = None
        self._owner: Optional[int] = None

    @property
    def calls_seen(self) -> int:
        return self._monitor.calls_seen

    @property
    def checks_done(self) -> int:
        return self._monitor.checks_done

    # -- the profile hook ------------------------------------------------------

    def _profile(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if (code.co_flags & _SKIP_FLAGS or code.co_name in _SKIP_NAMES
                    or not self.include(code)):
                return
            names = code.co_varnames[:code.co_argcount]
            callee = self._callees.get(code)
            if callee is None:
                callee = self._callees[code] = Callee(code.co_qualname, names)
            local = frame.f_locals
            args = tuple(local.get(n, _MISSING) for n in names)
            table = self._table
            prev = table.get(callee, _MISSING)
            self._undo[id(frame)] = (callee, prev)
            self._monitor.calls_seen += 1
            try:
                if prev is _MISSING:
                    table[callee] = self._first_entry(callee, args)
                else:
                    table[callee] = self._advance(
                        prev, callee, args, self.blame or callee.name)
            except SizeChangeError as violation:
                self.violation = violation
                raise
        elif event == "return":
            undo = self._undo.pop(id(frame), None)
            if undo is not None:
                key, prev = undo
                if prev is _MISSING:
                    self._table.pop(key, None)
                else:
                    self._table[key] = prev

    # -- context-manager protocol --------------------------------------------------

    def __enter__(self) -> "monitor_extent":
        if self._owner is not None:
            raise RuntimeError("monitor_extent is not reentrant; "
                               "create a new instance per extent")
        self._owner = threading.get_ident()
        self._table = {}
        self._undo = {}
        self._previous_profile = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        sys.setprofile(self._previous_profile)
        self._owner = None
        self._table.clear()
        self._undo.clear()
        return False


def monitored(fn: Optional[Callable] = None, **options):
    """Decorator form: run every call of ``fn`` inside a fresh
    :class:`monitor_extent` — λSCT semantics from a single annotation.

        @monitored
        def main(): ...

    Options are those of :class:`monitor_extent`.
    """
    if fn is None:
        return lambda f: monitored(f, **options)

    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with monitor_extent(**options):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__sct_terminating__ = True
    return wrapper
