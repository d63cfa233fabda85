"""Static verifier tests (§4): the Fig. 9 worked example, path
sensitivity, higher-order handling, and honest UNKNOWNs."""

import pytest

from repro.sct.graph import SCGraph, arc
from repro.symbolic import verify_source
from repro.symbolic.engine import Budget

ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
"""


class TestAckWorkedExample:
    def test_ack_verifies(self):
        v = verify_source(ACK, "ack", ["nat", "nat"],
                          result_kinds={"ack": "nat"})
        assert v.verified, v.render()

    def test_ack_edge_graphs_match_fig9(self):
        """§4.2 / Fig. 9: exactly {m↓m} and {m↓=m, n↓n}."""
        v = verify_source(ACK, "ack", ["nat", "nat"],
                          result_kinds={"ack": "nat"})
        [(edge, graphs)] = list(v.engine.edges.items())
        assert edge[0] == edge[1]  # the single self edge
        expected = {
            SCGraph([arc(0, "<", 0)]),
            SCGraph([arc(0, "=", 0), arc(1, "<", 1)]),
        }
        assert graphs == expected

    def test_ack_without_result_contract_is_unknown(self):
        """Without knowing ack's range is nat, the outer nested call loses
        the descent evidence — the §4.2 reliance on contracts, observable."""
        v = verify_source(ACK, "ack", ["nat", "nat"])
        assert not v.verified

    def test_ack_on_unconstrained_ints_is_unknown(self):
        """(- m 1) does not descend under |·| for arbitrary integers."""
        v = verify_source(ACK, "ack", ["int", "int"],
                          result_kinds={"ack": "nat"})
        assert not v.verified


class TestPathSensitivity:
    def test_subtraction_needs_the_guard(self):
        src = """
        (define (count n) (if (zero? n) 0 (count (- n 1))))
        """
        assert verify_source(src, "count", ["nat"]).verified
        # Without the natural-number precondition the guard (zero? n)
        # leaves n possibly negative, where |n-1| may grow.
        assert not verify_source(src, "count", ["int"]).verified

    def test_guarded_step_size(self):
        src = """
        (define (div x y)
          (if (< x y) 0 (+ 1 (div (- x y) y))))
        """
        # y ≥ 1 must come from somewhere: with nat args alone, y could be
        # 0 and x - y = x does not descend.
        assert not verify_source(src, "div", ["nat", "nat"]).verified
        src_guarded = """
        (define (div x y)
          (if (< y 1) 0
              (if (< x y) 0 (+ 1 (div (- x y) y)))))
        """
        assert verify_source(src_guarded, "div", ["nat", "nat"]).verified

    def test_infeasible_paths_are_pruned(self):
        src = """
        (define (f x)
          (if (< x 0)
              (if (> x 10) (f x) 0)
              0))
        """
        # The only recursive call sits on an infeasible path (x<0 ∧ x>10).
        v = verify_source(src, "f", ["int"])
        assert v.verified, v.render()


class TestStructuralDescent:
    def test_cdr_descent(self):
        src = "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))"
        assert verify_source(src, "len", ["list"]).verified

    def test_growing_argument_fails(self):
        src = "(define (f l) (f (cons 1 l)))"
        assert not verify_source(src, "f", ["list"]).verified

    def test_indirect_recursion_through_helper(self):
        src = """
        (define (f i x) (if (null? i) x (g (cdr i) x i)))
        (define (g a b c) (f a (cons b c)))
        """
        assert verify_source(src, "f", ["list", "any"]).verified

    def test_deep_projection(self):
        src = "(define (h l) (if (null? l) 0 (if (null? (cdr l)) 0 (h (cddr l)))))"
        assert verify_source(src, "h", ["list"]).verified

    def test_swap_descent(self):
        src = """
        (define (perm xs ys)
          (cond [(null? xs) ys]
                [(null? ys) xs]
                [else (perm (cdr ys) (cdr xs))]))
        """
        assert verify_source(src, "perm", ["list", "list"]).verified


class TestUninterpretedOperations:
    @pytest.mark.parametrize("op", ["quotient", "modulo", "remainder"])
    def test_division_like_ops_are_opaque(self, op):
        src = f"(define (f x) (if (<= x 0) 0 (f ({op} x 2))))"
        v = verify_source(src, "f", ["nat"])
        assert not v.verified

    def test_nonlinear_products_are_opaque(self):
        src = "(define (f x y) (if (zero? y) x (f (* x x) (- y 1))))"
        # y descends, so this one still verifies...
        assert verify_source(src, "f", ["nat", "nat"]).verified
        src2 = "(define (f x y) (if (zero? y) x (f x (* y y))))"
        # ...but descent through a product does not.
        assert not verify_source(src2, "f", ["nat", "nat"]).verified


class TestHigherOrder:
    def test_unknown_callback_is_fine(self):
        src = "(define (map1 f l) (if (null? l) '() (cons (f (car l)) (map1 f (cdr l)))))"
        assert verify_source(src, "map1", ["fun", "list"]).verified

    def test_concrete_closure_flow_through_args(self):
        src = """
        (define (apply2 f x) (f x))
        (define (down n) (if (zero? n) 0 (apply2 down (- n 1))))
        """
        v = verify_source(src, "down", ["nat"])
        assert v.verified, v.render()

    def test_lost_function_application_is_unknown(self):
        """Applying a value the analysis lost (a summarized result) cannot
        be verified — the `scheme` benchmark's failure mode."""
        src = """
        (define (make) (lambda (x) x))
        (define (use n) ((make) n))
        """
        v = verify_source(src, "use", ["nat"])
        assert not v.verified
        assert any("lost" in r for r in v.reasons)

    def test_hash_dispatch_case_split(self):
        src = """
        (define (op-a x) (if (null? x) 0 (dispatch (cdr x))))
        (define (op-b x) 1)
        (define table (hash 'a op-a 'b op-b))
        (define (dispatch x)
          (if (null? x) 0 ((hash-ref table (car x)) x)))
        """
        v = verify_source(src, "dispatch", ["list"])
        assert v.verified, v.render()


class TestVerdictHygiene:
    def test_missing_entry(self):
        v = verify_source("(define x 1)", "nope", [])
        assert not v.verified

    def test_non_closure_entry(self):
        v = verify_source("(define x 1)", "x", [])
        assert not v.verified

    def test_arity_mismatch_reported(self):
        v = verify_source("(define (f x) x)", "f", ["nat", "nat"])
        assert not v.verified

    def test_budget_exhaustion_is_unknown_not_verified(self):
        src = """
        (define (spin n) (if (zero? n) 0 (spin (- n 1))))
        """
        v = verify_source(src, "spin", ["nat"],
                          budget=Budget(max_paths_per_summary=1))
        assert not v.verified
        assert any("budget" in r for r in v.reasons)

    def test_witness_rendered(self):
        v = verify_source("(define (f x) (f x))", "f", ["nat"])
        assert not v.verified
        assert "f" in v.render()

    @pytest.mark.parametrize("prim", ["(display x)", "(write x)",
                                      "(newline)"])
    def test_output_does_not_hide_the_rest_of_a_body(self, prim):
        """The output primitives every run binds are primitives to the
        analysis too: the loop after one is still seen."""
        v = verify_source(f"(define (f x) (begin {prim} (f x)))", "f",
                          ["nat"])
        assert not v.verified, v.render()

    def test_mutation_is_conservative(self):
        src = """
        (define (f x seen)
          (begin
            (set! seen (cons x seen))
            (if (zero? x) seen (f (- x 1) seen))))
        """
        # set! havocs `seen`, but descent on x still verifies.
        v = verify_source(src, "f", ["nat", "list"])
        assert v.verified, v.render()


class TestLibraryAwareVerification:
    """The engine binds the prelude and contract library, so user code
    that calls them can be analyzed."""

    def test_map_from_the_prelude(self):
        src = "(define (squares l) (map (lambda (x) (* x x)) l))"
        assert verify_source(src, "squares", ["list"]).verified

    def test_foldr_from_the_prelude(self):
        src = "(define (total l) (foldr + 0 l))"
        assert verify_source(src, "total", ["list"]).verified

    def test_prelude_range_counts_up(self):
        # range ascends: SC stays unknown; the MC verifier proves it.
        src = "(define (upto n) (range 0 n))"
        assert not verify_source(src, "upto", ["nat"]).verified
        assert verify_source(src, "upto", ["nat"], evidence="mc").verified

    def test_prelude_can_be_disabled(self):
        from repro.lang.parser import parse_program
        from repro.symbolic.engine import Engine

        engine = Engine(parse_program("(define (id x) x)"),
                        include_prelude=False)
        from repro.sexp.datum import intern

        assert intern("map") not in engine.globals.bindings

    def test_define_contract_entry_is_gracefully_unknown(self):
        # Contract attachment is a run-time application the summary-based
        # engine cannot resolve to a closure; the verdict must be a clean
        # UNKNOWN, not a crash.  (Verify the raw function instead.)
        src = """
        (define/contract (fact n) (->t/c nat/c nat/c)
          (if (zero? n) 1 (* n (fact (- n 1)))))
        """
        v = verify_source(src, "fact", ["nat"])
        assert not v.verified
        assert "not a statically known closure" in v.reasons[0]
