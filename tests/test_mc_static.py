"""Static MC verification (repro.mc.static) and phase 2 (repro.mc.analyze)."""

import pytest

from repro.corpus.registry import all_programs, get_program
from repro.mc.analyze import mc_check
from repro.mc.graph import GEQ, GT, MCGraph
from repro.symbolic.verify import verify_source


class TestMCCheck:
    def test_empty_multigraph_holds(self):
        assert mc_check({}).ok is True

    def test_single_descending_self_loop_holds(self):
        g = MCGraph.build(1, 1, [(0, GT, 1)])
        assert mc_check({(0, 0): {g}}).ok is True

    def test_stationary_self_loop_fails_with_witness(self):
        g = MCGraph.build(1, 1, [(0, GEQ, 1), (1, GEQ, 0)])
        result = mc_check({(0, 0): {g}})
        assert result.ok is False
        assert result.witness_label == 0
        assert result.witness_graph == g

    def test_unsat_graphs_are_discarded_not_checked(self):
        result = mc_check({(0, 0): {MCGraph.unsat(1, 1)}})
        assert result.ok is True
        assert result.discarded_unsat == 1

    def test_swap_pair_terminates_via_unsat_pruning(self):
        # g1: guarded swap (x > y); g2: descend x under y > x.
        g1 = MCGraph.build(2, 2, [(0, GT, 1), (1, GEQ, 2), (2, GEQ, 1),
                                  (0, GEQ, 3), (3, GEQ, 0)])
        g2 = MCGraph.build(2, 2, [(1, GT, 0), (0, GT, 2),
                                  (1, GEQ, 3), (3, GEQ, 1)])
        result = mc_check({(0, 0): {g1, g2}})
        assert result.ok is True
        assert result.discarded_unsat > 0

    def test_the_same_pair_without_context_fails(self):
        # Dropping the guards readmits the swap;swap loop.
        g1 = MCGraph.build(2, 2, [(1, GEQ, 2), (2, GEQ, 1),
                                  (0, GEQ, 3), (3, GEQ, 0)])
        g2 = MCGraph.build(2, 2, [(0, GT, 2), (1, GEQ, 3), (3, GEQ, 1)])
        assert mc_check({(0, 0): {g1, g2}}).ok is False

    def test_mutual_recursion_composes_across_edges(self):
        # f -> g halves nothing, g -> f descends: the f -> f composition
        # must inherit the descent.
        fg = MCGraph.build(1, 1, [(0, GEQ, 1), (1, GEQ, 0)])
        gf = MCGraph.build(1, 1, [(0, GT, 1)])
        assert mc_check({(0, 1): {fg}, (1, 0): {gf}}).ok is True

    def test_closure_cap_returns_undetermined(self):
        graphs = set()
        for i in range(4):
            for j in range(4):
                graphs.add(MCGraph.build(4, 4, [(i, GT, 4 + j)]))
        result = mc_check({(0, 0): graphs}, max_graphs=10)
        assert result.ok is None


class TestStaticVerification:
    def test_counting_up_verifies(self):
        src = """
        (define (range2 lo hi)
          (if (>= lo hi) '() (cons lo (range2 (+ lo 1) hi))))
        """
        assert verify_source(src, "range2", ["nat", "nat"],
                             evidence="mc").verified

    def test_same_program_unknown_under_sc(self):
        src = """
        (define (range2 lo hi)
          (if (>= lo hi) '() (cons lo (range2 (+ lo 1) hi))))
        """
        assert not verify_source(src, "range2", ["nat", "nat"]).verified

    def test_unbounded_ascent_stays_unknown(self):
        verdict = verify_source("(define (up x) (up (+ x 1)))",
                                "up", ["nat"], evidence="mc")
        assert not verdict.verified
        assert verdict.witness is not None

    def test_witness_rendering_names_parameters(self):
        verdict = verify_source("(define (up x) (up (+ x 1)))",
                                "up", ["nat"], evidence="mc")
        assert "x′ > x" in verdict.render()

    def test_ack_verifies_under_mc(self):
        prog = get_program("sct-3")
        entry, kinds = prog.entry
        assert verify_source(prog.source, entry, kinds,
                             result_kinds=prog.result_kinds,
                             evidence="mc").verified

    def test_constant_ceiling_stays_unknown(self):
        # acl2-fig-2's convergence to the constant 3 has no ceiling
        # parameter, so MC cannot verify it either.
        prog = get_program("acl2-fig-2")
        entry, kinds = prog.entry
        assert not verify_source(prog.source, entry, kinds,
                                 evidence="mc").verified

    def test_unknown_entry_reported(self):
        verdict = verify_source("(define x 1)", "x", [], evidence="mc")
        assert not verdict.verified
        assert "not a statically known closure" in verdict.reasons[0]

    def test_arity_mismatch_reported(self):
        verdict = verify_source("(define (f x) x)", "f", ["nat", "nat"],
                                evidence="mc")
        assert not verdict.verified
        assert "preconditions" in verdict.reasons[0]

    def test_mc_never_loses_a_verified_corpus_row(self):
        """MC graphs entail their SC projections, so every corpus row the
        SC verifier proves must also be proved by MC — and lh-range is
        additionally gained."""
        gained = []
        for prog in all_programs():
            if prog.entry is None:
                continue
            entry, kinds = prog.entry
            sc = verify_source(prog.source, entry, kinds,
                               result_kinds=prog.result_kinds)
            if not sc.verified:
                continue
            mc = verify_source(prog.source, entry, kinds,
                               result_kinds=prog.result_kinds, evidence="mc")
            assert mc.verified, f"{prog.name}: SC verified but MC did not"
        prog = get_program("lh-range")
        entry, kinds = prog.entry
        assert verify_source(prog.source, entry, kinds,
                             evidence="mc").verified

    def test_descent_before_swap_also_needs_context(self):
        # Reordered cond arms should make no difference.
        src = """
        (define (swapper x y)
          (cond [(zero? x) 0]
                [(zero? y) 0]
                [(< x y) (swapper (- x 1) y)]
                [(> x y) (swapper y x)]
                [else 0]))
        """
        assert verify_source(src, "swapper", ["nat", "nat"],
                             evidence="mc").verified
