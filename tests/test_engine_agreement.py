"""SC-vs-MC verifier agreement, corpus-wide.

Monotonicity-constraint graphs entail their size-change projections, so
the two engines must relate one way only:

* **Containment** — wherever the SC engine's collected graphs pass the
  SCP (and nothing tainted the analysis), the MC engine must verify too;
  an MC ``VERIFIED`` on an SC-rejected program is legitimate *only* in
  the more-permissive direction (``lh-range``: the bounded-ascent
  context).  The unsound converse — MC verifying a program whose own MC
  evidence fails, or MC *losing* an SC-verified program — is what this
  suite rules out, label by label via the discharge certificates:
  ``sc.discharged ⊆ mc.discharged``.
* **Taint parity** — incompleteness is recorded in shared engine code
  (havoc, lost applications, path/summary budgets), so both engines must
  taint identically: same ``incomplete`` reasons, same
  ``discharge_unsafe`` reasons, byte for byte.
"""

import pytest

from repro.analysis.discharge import certificate_from_engine
from repro.corpus import all_programs
from repro.lang.parser import parse_program
from repro.mc.static import MCEngine
from repro.sexp.datum import intern
from repro.symbolic.engine import Budget, Engine

PROGRAMS = [p for p in all_programs() if p.entry is not None]


# One parse per corpus program, shared by both engines: λ labels are
# assigned at parse time, so certificate comparisons need label identity.
_PARSED = {}


def _parsed(prog):
    if prog.name not in _PARSED:
        _PARSED[prog.name] = parse_program(prog.source)
    return _PARSED[prog.name]


def _run_engine(cls, prog, budget=None):
    """The engine after analyzing ``prog``'s registry entry, or ``None``
    when the entry is not a statically known closure (e.g. ``ho-sc-ack``
    builds its entry through the Y combinator — ``verify_program``
    returns UNKNOWN before running either engine, identically)."""
    from repro.values.values import Closure

    engine = cls(_parsed(prog), budget=budget,
                 result_kinds=prog.result_kinds)
    entry, kinds = prog.entry
    clo = engine.globals.bindings.get(intern(entry))
    if not isinstance(clo, Closure):
        return None
    engine.run(clo, list(kinds))
    return engine


@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestEngineAgreement:
    def test_mc_discharges_everything_sc_does(self, prog):
        sc = _run_engine(Engine, prog)
        mc = _run_engine(MCEngine, prog)
        assert (sc is None) == (mc is None), \
            f"{prog.name}: one engine resolved the entry, the other did not"
        if sc is None:
            return
        sc_cert = certificate_from_engine(sc)
        mc_cert = certificate_from_engine(mc)
        missing = sc_cert.discharged - mc_cert.discharged
        assert not missing, (
            f"{prog.name}: SC discharged "
            f"{sorted(sc_cert.label_names.get(l, l) for l in missing)} "
            "but MC did not — MC evidence must entail its SC projection")

    def test_taint_parity(self, prog):
        sc = _run_engine(Engine, prog)
        mc = _run_engine(MCEngine, prog)
        if sc is None or mc is None:
            assert (sc is None) == (mc is None)
            return
        assert sc.incomplete == mc.incomplete
        assert sc.discharge_unsafe == mc.discharge_unsafe


class TestBudgetTaintParity:
    """Exhausted budgets must taint both engines identically — the
    certificate side of 'budget exhaustion downgrades to UNKNOWN'."""

    def _starved(self, cls, budget):
        prog = next(p for p in PROGRAMS if p.name == "sct-3")
        return _run_engine(cls, prog, budget=budget)

    def test_path_budget(self):
        sc = self._starved(Engine, Budget(max_paths_per_summary=3))
        mc = self._starved(MCEngine, Budget(max_paths_per_summary=3))
        assert "path budget exceeded" in sc.incomplete
        assert sc.incomplete == mc.incomplete
        assert certificate_from_engine(sc).discharged == frozenset()
        assert certificate_from_engine(mc).discharged == frozenset()

    def test_summary_budget(self):
        sc = self._starved(Engine, Budget(max_summaries=1))
        mc = self._starved(MCEngine, Budget(max_summaries=1))
        assert "summary budget exceeded" in sc.incomplete
        assert sc.incomplete == mc.incomplete
        assert certificate_from_engine(sc).discharged == frozenset()
        assert certificate_from_engine(mc).discharged == frozenset()
