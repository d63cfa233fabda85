"""Path conditions (paper Fig. 8's φ, enriched).

A path condition is an immutable record of what the current path assumed:

* ``atoms`` — linear-arithmetic facts (the classical φ),
* ``kinds`` — per-symbol type refinements (``int``/``pair``/``nil``/``fun``),
* ``heap`` — the symbolic pair store: node name → (car value, cdr value),
* ``subs`` — the substructure order: child name → parent node names.  This
  is how ``(cdr l) ≺ l`` facts reach the size-change arc prover without a
  full theory of algebraic data types.

All updates are functional (copy-on-write of small dicts) so branches fork
cheaply.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.solver.interface import Solver
from repro.solver.linear import Atom

K_INT = "int"
K_PAIR = "pair"
K_NIL = "nil"
K_FUN = "fun"



class PathCond:
    __slots__ = ("atoms", "kinds", "heap", "subs")

    def __init__(
        self,
        atoms: Tuple[Atom, ...] = (),
        kinds: Optional[Dict[str, str]] = None,
        heap: Optional[Dict[str, Tuple[object, object]]] = None,
        subs: Optional[Dict[str, Tuple[str, ...]]] = None,
    ):
        self.atoms = atoms
        self.kinds = kinds or {}
        self.heap = heap or {}
        self.subs = subs or {}

    # -- arithmetic facts -----------------------------------------------------

    def assume(self, atom: Atom) -> "PathCond":
        if atom in self.atoms:
            return self
        return PathCond(self.atoms + (atom,), self.kinds, self.heap, self.subs)

    def feasible(self, solver: Solver) -> bool:
        return solver.satisfiable(self.atoms)

    def entails(self, solver: Solver, atom: Atom) -> bool:
        return solver.entails(self.atoms, atom)

    # -- kinds ------------------------------------------------------------------

    def kind_of(self, name: str) -> Optional[str]:
        return self.kinds.get(name)

    def refine(self, name: str, kind: str) -> Optional["PathCond"]:
        """Record ``name : kind``; ``None`` when the path becomes infeasible."""
        current = self.kinds.get(name)
        if current is not None:
            return self if current == kind else None
        kinds = dict(self.kinds)
        kinds[name] = kind
        return PathCond(self.atoms, kinds, self.heap, self.subs)

    # -- symbolic pairs -----------------------------------------------------------

    def node(self, name: str) -> Optional[Tuple[object, object]]:
        return self.heap.get(name)

    def with_node(self, name: str, car, cdr, child_names=()) -> "PathCond":
        heap = dict(self.heap)
        heap[name] = (car, cdr)
        subs = self.subs
        if child_names:
            subs = dict(subs)
            for child in child_names:
                subs[child] = subs.get(child, ()) + (name,)
        return PathCond(self.atoms, self.kinds, heap, subs)

    def descends_to(self, child: str, ancestor: str) -> bool:
        """Is ``child`` a strict substructure of ``ancestor``?"""
        seen = set()
        stack = [child]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            for parent in self.subs.get(n, ()):
                if parent == ancestor:
                    return True
                stack.append(parent)
        return False

    def __repr__(self) -> str:
        return (
            f"PathCond({len(self.atoms)} atoms, {len(self.kinds)} kinds, "
            f"{len(self.heap)} nodes)"
        )
