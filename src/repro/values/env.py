"""Environments: chained mutable ribs plus a global frame.

Frames are mutable dictionaries so ``set!`` and ``letrec`` back-patching
work with ordinary Scheme semantics; closures capture the frame by
reference.  Lookup walks the (usually short) chain of ribs and falls through
to the global frame.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.sexp.datum import Symbol


class UnboundVariable(Exception):
    """A reference to a variable with no binding (a run-time error)."""

    def __init__(self, name: Symbol):
        super().__init__(f"unbound variable: {name.name}")
        self.name = name


class GlobalEnv:
    """The top-level frame: primitives, prelude closures, and defines.

    ``flavor`` records which machine built the closures it holds
    (``'compiled'`` / ``'tree'`` / ``None`` for machine-agnostic contents
    such as bare primitives); :func:`repro.eval.machine.run_program`
    refuses to run an environment on the other machine, since the two
    closure representations are not interchangeable.

    The one map, ``by_name``, is keyed by the variable's name string:
    str hashing is C-level and cached, where ``Symbol.__hash__`` is a
    Python-level call per probe, and symbols compare by name, so the
    string key is exact.  The compiled and native tiers read it directly.

    ``unnamed``: the closures reachable from ``by_name`` that were built
    without a name (``make_env`` records them).  A run's ``define`` or
    ``letrec`` names an unnamed closure it binds, and a snapshot shares
    its closures with the environment it was taken from, so
    :meth:`snapshot` clears those names again.
    """

    __slots__ = ("by_name", "flavor", "unnamed")

    def __init__(self, by_name: Optional[Dict[str, object]] = None,
                 flavor: Optional[str] = None, unnamed: tuple = ()):
        self.by_name = dict(by_name) if by_name else {}
        self.flavor = flavor
        self.unnamed = unnamed

    def lookup(self, name: Symbol):
        try:
            return self.by_name[name.name]
        except KeyError:
            raise UnboundVariable(name) from None

    def define(self, name: Symbol, value) -> None:
        self.by_name[name.name] = value

    def set(self, name: Symbol, value) -> None:
        # Never let the backing dict's KeyError escape: ``set!`` on an
        # unbound global is the object language's UnboundVariable error,
        # carrying the offending name.
        if name.name not in self.by_name:
            raise UnboundVariable(name)
        self.by_name[name.name] = value

    def snapshot(self) -> "GlobalEnv":
        """A shallow copy, so one program run cannot pollute another: the
        copy's closures carry the names they were built with, whatever
        an earlier run on a snapshot named them."""
        for closure in self.unnamed:
            closure.name = None
        return GlobalEnv(self.by_name, self.flavor, self.unnamed)


class Env:
    """A local rib chained to a parent :class:`Env` or :class:`GlobalEnv`."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: Dict[Symbol, object], parent):
        self.bindings = bindings
        self.parent = parent

    @staticmethod
    def extend(parent, names: Iterable[Symbol], values: Iterable[object]) -> "Env":
        return Env(dict(zip(names, values)), parent)

    def lookup(self, name: Symbol):
        env = self
        while type(env) is Env:
            bindings = env.bindings
            if name in bindings:
                return bindings[name]
            env = env.parent
        return env.lookup(name)

    def set(self, name: Symbol, value) -> None:
        env = self
        while type(env) is Env:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        env.set(name, value)

    def define(self, name: Symbol, value) -> None:
        """Bind in this rib (used by ``letrec`` initialization)."""
        self.bindings[name] = value
