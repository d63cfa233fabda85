"""Table 1, Static column: run the verifier on every corpus row and pin
the verdicts (matching the paper, with deviations marked DEVIATES by
`sized bench table1` — currently only `deriv`, which our engine verifies
where the paper's tool reported ✗)."""

import pytest

from repro.corpus import all_programs
from repro.symbolic import verify_source

PROGRAMS = [p for p in all_programs() if p.entry is not None]

# Rows where our verdict deviates from the paper's Static column.
KNOWN_DEVIATIONS = {"deriv"}


@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestTable1Static:
    def test_pinned_verdict(self, prog):
        v = verify_source(prog.source, prog.entry[0], prog.entry[1],
                          result_kinds=prog.result_kinds)
        assert v.verified == prog.ours_static, v.render()

    def test_matches_paper_unless_known_deviation(self, prog):
        paper_says_yes = prog.paper_static.startswith("Y")
        if prog.name in KNOWN_DEVIATIONS:
            assert prog.ours_static != paper_says_yes
        else:
            assert prog.ours_static == paper_says_yes

    def test_unverified_rows_have_reasons(self, prog):
        if prog.ours_static:
            pytest.skip("verified row")
        v = verify_source(prog.source, prog.entry[0], prog.entry[1],
                          result_kinds=prog.result_kinds)
        assert v.reasons


class TestStaticFindsTheNfaBug:
    """§5.1.2: 'Our static analysis was the first to discover this error
    after many years.'"""

    def test_buggy_nfa_not_verifiable(self):
        from repro.corpus.registry import DIVERGING

        buggy = DIVERGING["buggy-nfa"].source
        v = verify_source(buggy, "state1", ["list"])
        assert not v.verified
        assert v.witness is not None or v.reasons

    def test_fixed_nfa_verifies(self):
        from repro.corpus.registry import REGISTRY

        fixed = REGISTRY["nfa"].source
        v = verify_source(fixed, "state1", ["list"])
        assert v.verified, v.render()


class TestVerifierVirtuousCycle:
    """§2.3/§5: statically verified functions can be skipped by label,
    away from dynamic monitoring entirely."""

    def test_verified_function_runs_unmonitored(self):
        from repro.eval.machine import Answer, run_program
        from repro.lang.parser import parse_program
        from repro.sct.monitor import SCMonitor
        from tests.test_acyclic_skip import _label

        src = """
        (define (len2 l) (if (null? l) 0 (+ 1 (len2 (cdr l)))))
        (len2 '(1 2 3 4))
        """
        v = verify_source(src, "len2", ["list"])
        assert v.verified
        for machine in ("tree", "compiled", "native"):
            program = parse_program(src)
            monitor = SCMonitor()
            a = run_program(program, mode="full", monitor=monitor,
                            machine=machine,
                            discharge={_label(program, "len2")})
            assert a.kind == Answer.VALUE and a.value == 4
            assert monitor.calls_seen == 0
