"""Extra benchmarks and the documented conservativeness cases."""

import pytest

from repro.corpus import conservative_programs, extra_programs
from repro.eval.machine import Answer, run_program, run_source
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.symbolic import verify_source
from repro.values.values import write_value
from tests.test_acyclic_skip import _label

EXTRAS = extra_programs()
CONSERVATIVE = conservative_programs()


@pytest.mark.parametrize("prog", EXTRAS, ids=[p.name for p in EXTRAS])
class TestExtras:
    def test_standard_value(self, prog):
        a = run_source(prog.source, mode="off", fuel=30_000_000)
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == prog.expected

    def test_monitored_agrees(self, prog):
        for strategy in ("cm", "imperative"):
            a = run_source(prog.source, mode="full", strategy=strategy,
                           fuel=30_000_000)
            assert a.kind == Answer.VALUE, f"flagged: {a.violation}"
            assert write_value(a.value) == prog.expected

    def test_static_verdict_pinned(self, prog):
        if prog.entry is None:
            pytest.skip("no static entry")
        v = verify_source(prog.source, prog.entry[0], prog.entry[1],
                          result_kinds=prog.result_kinds)
        assert v.verified == prog.ours_static, v.render()


@pytest.mark.parametrize("prog", CONSERVATIVE,
                         ids=[p.name for p in CONSERVATIVE])
class TestConservativeness:
    """§1's 'unavoidable wrinkle': these programs terminate, yet violate
    the size-change safety property — the monitor must flag them, and the
    flag is the documented, expected behaviour."""

    def test_terminates_under_standard_semantics(self, prog):
        a = run_source(prog.source, mode="off", fuel=30_000_000)
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == prog.expected

    def test_monitor_conservatively_flags(self, prog):
        a = run_source(prog.source, mode="full", fuel=30_000_000)
        assert a.kind == Answer.SC_ERROR


class TestConservativenessRepairs:
    def test_cross_zero_repaired_by_measure(self):
        from repro.corpus.registry import CONSERVATIVE as C

        monitor = SCMonitor(measures={"cross": lambda a: (max(a[0], 0),)})
        a = run_source(C["cross-zero"].source, mode="full", monitor=monitor)
        assert a.kind == Answer.VALUE

    def test_graph_reach_repaired_by_worklist_measure(self):
        """The classic worklist argument (unvisited-count, |frontier|)
        expressed as a measure accepts the growing-frontier search."""
        from repro.corpus.registry import CONSERVATIVE as C

        prog = C["graph-reach"]
        monitor = SCMonitor(measures=prog.measures)
        a = run_source(prog.source, mode="full", monitor=monitor)
        assert a.kind == Answer.VALUE and a.value == 5

    def test_cpstak_repaired_by_skipping_after_offline_proof(self):
        """cpstak's termination argument is beyond SCT; a user who has
        proved it by other means can put its label in the skip set (§5's
        virtuous cycle)."""
        from repro.corpus.registry import CONSERVATIVE as C

        for machine in ("tree", "compiled", "native"):
            program = parse_program(C["cpstak"].source)
            a = run_program(program, mode="full", monitor=SCMonitor(),
                            machine=machine,
                            discharge={_label(program, "cpstak")})
            assert a.kind == Answer.VALUE and a.value == 3, machine
