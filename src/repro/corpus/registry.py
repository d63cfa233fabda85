"""Corpus registry: program records and the two global tables."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple


class CorpusProgram:
    """One Table 1 row.

    * ``source`` — program text ending in a top-level call (the dynamic
      workload).
    * ``expected`` — external form (``write_value``) of the expected result.
    * ``paper`` — the verdicts Table 1 reports, in column order
      (dyn, static, liquid-haskell, isabelle, acl2); ``"Y"``/``"N"`` plus
      the paper's annotation letters (``A`` annotations, ``O`` custom
      order, ``R`` rewritten, ``-T``/``-H`` inexpressible).
    * ``ours_static`` — the verdict *our* static verifier is expected to
      produce (pinned by tests; a row that deviates from the paper is
      marked ``DEVIATES`` in ``sized bench table1``).
    * ``measures`` — custom measures for the dynamic monitor (the ``O``
      rows).
    * ``entry`` — ``(function, [arg-kind, ...])`` for static verification;
      kinds: ``nat`` | ``int`` | ``list`` | ``any`` | ``fun``.
    """

    def __init__(
        self,
        name: str,
        source: str,
        expected: str,
        paper: Tuple[str, str, str, str, str],
        ours_static: Optional[bool],
        entry: Optional[Tuple[str, Sequence[str]]] = None,
        measures: Optional[Dict[str, Callable]] = None,
        result_kinds: Optional[Dict[str, str]] = None,
        notes: str = "",
        tags: Sequence[str] = (),
    ):
        self.name = name
        self.source = source
        self.expected = expected
        self.paper = paper
        self.ours_static = ours_static
        self.entry = entry
        self.measures = measures
        self.result_kinds = result_kinds
        self.notes = notes
        self.tags = tuple(tags)

    @property
    def paper_dyn(self) -> str:
        return self.paper[0]

    @property
    def paper_static(self) -> str:
        return self.paper[1]

    def __repr__(self) -> str:
        return f"CorpusProgram({self.name})"


class DivergingProgram:
    """A §5.1.2 diverging program: the monitor must stop it with errorSC."""

    def __init__(self, name: str, source: str, notes: str = "",
                 measures: Optional[Dict[str, Callable]] = None):
        self.name = name
        self.source = source
        self.notes = notes
        self.measures = measures

    def __repr__(self) -> str:
        return f"DivergingProgram({self.name})"


REGISTRY: Dict[str, CorpusProgram] = {}
DIVERGING: Dict[str, DivergingProgram] = {}

# Table 1 row order, for rendering.
TABLE1_ORDER: List[str] = []

# Extra benchmarks beyond Table 1 ("a collection of larger Scheme
# benchmarks", §5.1.1) and terminating programs the monitor must
# conservatively reject (the §1 "unavoidable wrinkle").
EXTRAS: Dict[str, CorpusProgram] = {}
CONSERVATIVE: Dict[str, CorpusProgram] = {}


def register(program: CorpusProgram) -> CorpusProgram:
    if program.name in REGISTRY:
        raise ValueError(f"duplicate corpus program: {program.name}")
    REGISTRY[program.name] = program
    TABLE1_ORDER.append(program.name)
    return program


def register_extra(program: CorpusProgram) -> CorpusProgram:
    if program.name in EXTRAS:
        raise ValueError(f"duplicate extra program: {program.name}")
    EXTRAS[program.name] = program
    return program


def register_conservative(program: CorpusProgram) -> CorpusProgram:
    if program.name in CONSERVATIVE:
        raise ValueError(f"duplicate conservative program: {program.name}")
    CONSERVATIVE[program.name] = program
    return program


def extra_programs() -> List[CorpusProgram]:
    return list(EXTRAS.values())


def conservative_programs() -> List[CorpusProgram]:
    return list(CONSERVATIVE.values())


def register_diverging(program: DivergingProgram) -> DivergingProgram:
    if program.name in DIVERGING:
        raise ValueError(f"duplicate diverging program: {program.name}")
    DIVERGING[program.name] = program
    return program


def all_programs() -> List[CorpusProgram]:
    return [REGISTRY[name] for name in TABLE1_ORDER]


def diverging_programs() -> List[DivergingProgram]:
    return list(DIVERGING.values())


def get_program(name: str) -> CorpusProgram:
    return REGISTRY[name]
