"""Standard-semantics machine tests: evaluation, desugaring behaviour,
errors, tail calls, fuel."""

import pytest

from repro.eval.machine import Answer, make_env, run_program, run_source
from repro.lang.parser import parse_program
from repro.sexp.datum import intern
from repro.values.values import NIL, VOID, Pair, write_value


def ev(text, **kw):
    a = run_source(text, **kw)
    assert a.kind == Answer.VALUE, f"expected value, got {a!r}"
    return a.value


def rt_error(text, **kw):
    a = run_source(text, **kw)
    assert a.kind == Answer.RT_ERROR, f"expected errorRT, got {a!r}"
    return a.error


class TestBasics:
    def test_literals(self):
        assert ev("42") == 42
        assert ev("#t") is True
        assert ev('"s"') == "s"

    def test_arith(self):
        assert ev("(+ 1 2 3)") == 6
        assert ev("(- 10 3 2)") == 5
        assert ev("(- 5)") == -5
        assert ev("(* 2 3 4)") == 24
        assert ev("(quotient 7 2)") == 3
        assert ev("(quotient -7 2)") == -3
        assert ev("(remainder -7 2)") == -1
        assert ev("(modulo -7 2)") == 1
        assert ev("(expt 2 10)") == 1024

    def test_comparison_chains(self):
        assert ev("(< 1 2 3)") is True
        assert ev("(< 1 3 2)") is False
        assert ev("(<= 1 1 2)") is True

    def test_lambda_application(self):
        assert ev("((lambda (x y) (+ x y)) 3 4)") == 7

    def test_greek_lambda(self):
        assert ev("((λ (x) (* x x)) 5)") == 25

    def test_closures_capture(self):
        assert ev("(define (adder n) (lambda (x) (+ x n))) ((adder 10) 5)") == 15

    def test_if(self):
        assert ev("(if #t 1 2)") == 1
        assert ev("(if #f 1 2)") == 2
        assert ev("(if 0 1 2)") == 1  # only #f is false
        assert ev("(if '() 1 2)") == 1
        assert ev("(if #f 1)") is False

    def test_define_and_recursion(self):
        assert ev("(define (fact n) (if (= n 0) 1 (* n (fact (- n 1))))) (fact 10)") == 3628800

    def test_mutual_recursion(self):
        src = """
        (define (even2? n) (if (= n 0) #t (odd2? (- n 1))))
        (define (odd2? n) (if (= n 0) #f (even2? (- n 1))))
        (even2? 101)
        """
        assert ev(src) is False


class TestDesugaring:
    def test_cond(self):
        assert ev("(cond [#f 1] [#t 2] [else 3])") == 2
        assert ev("(cond [#f 1] [else 3])") == 3
        assert ev("(cond [#f 1])") is False

    def test_cond_test_only_clause(self):
        assert ev("(cond [#f] [7] [else 9])") == 7

    def test_case(self):
        assert ev("(case (+ 1 1) [(1) 'one] [(2 3) 'few] [else 'many])") is intern("few")
        assert ev("(case 9 [(1) 'one] [else 'many])") is intern("many")

    def test_and_or(self):
        assert ev("(and)") is True
        assert ev("(and 1 2 3)") == 3
        assert ev("(and 1 #f 3)") is False
        assert ev("(or)") is False
        assert ev("(or #f 2 3)") == 2
        assert ev("(or #f #f)") is False

    def test_or_evaluates_once(self):
        src = """
        (define counter 0)
        (define (bump!) (set! counter (+ counter 1)) counter)
        (or (bump!) 99)
        counter
        """
        assert ev(src) == 1

    def test_when_unless(self):
        assert ev("(when #t 1 2)") == 2
        assert ev("(when #f 1 2)") is False
        assert ev("(unless #f 5)") == 5

    def test_let(self):
        assert ev("(let ([x 1] [y 2]) (+ x y))") == 3

    def test_let_is_parallel(self):
        assert ev("(define x 10) (let ([x 1] [y x]) y)") == 10

    def test_let_star(self):
        assert ev("(let* ([x 1] [y (+ x 1)]) y)") == 2

    def test_letrec(self):
        src = "(letrec ([e? (lambda (n) (if (= n 0) #t (o? (- n 1))))]\n" \
              "         [o? (lambda (n) (if (= n 0) #f (e? (- n 1))))])\n" \
              "  (e? 10))"
        assert ev(src) is True

    def test_named_let(self):
        assert ev("(let loop ([i 5] [acc 1]) (if (= i 0) acc (loop (- i 1) (* acc i))))") == 120

    def test_internal_define(self):
        src = """
        (define (f x)
          (define (g y) (* y 2))
          (define z 10)
          (+ (g x) z))
        (f 4)
        """
        assert ev(src) == 18

    def test_begin(self):
        assert ev("(begin 1 2 3)") == 3

    def test_set(self):
        assert ev("(define x 1) (set! x 5) x") == 5

    def test_quasiquote(self):
        v = ev("`(1 ,(+ 1 1) 3)")
        assert v.car == 1 and v.cdr.car == 2 and v.cdr.cdr.car == 3

    def test_quasiquote_splicing(self):
        v = ev("`(0 ,@(list 1 2) 3)")
        assert [v.car, v.cdr.car, v.cdr.cdr.car, v.cdr.cdr.cdr.car] == [0, 1, 2, 3]

    def test_nested_quasiquote_structure(self):
        v = ev("`(a (b ,(+ 1 2)))")
        assert v.cdr.car.cdr.car == 3


class TestMatch:
    def test_literal_and_var(self):
        assert ev("(match 5 [4 'no] [x (+ x 1)])") == 6

    def test_wildcard(self):
        assert ev("(match 'anything [_ 'hit])") is intern("hit")

    def test_quote_pattern(self):
        assert ev("(match '(a b) ['(a b) 1] [_ 2])") == 1

    def test_quasipattern(self):
        src = """
        (match '(lam (x) y)
          [`(lam (,v) ,body) (list v body)]
          [_ 'no])
        """
        v = ev(src)
        assert v.car is intern("x") and v.cdr.car is intern("y")

    def test_predicate_pattern(self):
        assert ev("(match 'sym [(? symbol? s) s] [_ 'no])") is intern("sym")
        assert ev("(match 42 [(? symbol? s) s] [_ 'no])") is intern("no")

    def test_cons_pattern(self):
        assert ev("(match '(1 2) [(cons a b) a])") == 1

    def test_list_pattern(self):
        assert ev("(match '(1 2 3) [(list a b c) (+ a b c)])") == 6
        assert ev("(match '(1 2) [(list a b c) 'no] [_ 'short])") is intern("short")

    def test_no_clause_is_error(self):
        rt_error("(match 1 [2 'no])")

    def test_fig2_style_dispatch(self):
        src = """
        (define (classify e)
          (match e
            [`(λ (,x) ,b) 'lam]
            [`(,e1 ,e2) 'app]
            [(? symbol? x) 'var]))
        (list (classify 'x) (classify '(λ (x) x)) (classify '(f y)))
        """
        v = ev(src)
        assert [v.car.name, v.cdr.car.name, v.cdr.cdr.car.name] == ["var", "lam", "app"]


class TestListsAndPrims:
    def test_list_ops(self):
        assert ev("(length '(1 2 3))") == 3
        assert ev("(car (append '(1) '(2 3)))") == 1
        assert ev("(reverse '(1 2 3))").car == 3
        assert ev("(list-ref '(a b c) 1)") is intern("b")
        assert ev("(member 2 '(1 2 3))").car == 2
        assert ev("(member 9 '(1 2 3))") is False
        assert ev("(assq 'b '((a 1) (b 2)))").car is intern("b")

    def test_prelude_map_filter_fold(self):
        assert ev("(map (lambda (x) (* x x)) '(1 2 3))").cdr.car == 4
        assert ev("(filter even? '(1 2 3 4))").car == 2
        assert ev("(foldl + 0 '(1 2 3 4))") == 10
        assert ev("(foldr cons '() '(1 2))").car == 1
        assert ev("(andmap number? '(1 2))") is True
        assert ev("(ormap symbol? '(1 a))") is True

    def test_prelude_builders(self):
        assert ev("(length (iota 5))") == 5
        assert ev("(car (range 3 6))") == 3
        assert ev("(length (range 3 6))") == 3
        assert ev("(list-ref (build-list 4 (lambda (i) (* i i))) 3)") == 9

    def test_strings_and_chars(self):
        assert ev('(string-length "hello")') == 5
        assert ev('(string-append "a" "b" "c")') == "abc"
        assert ev("(char=? #\\a #\\a)") is True
        assert ev('(car (string->list "xy"))').value == "x"
        assert ev('(string->symbol "foo")') is intern("foo")
        assert ev('(substring "hello" 1 3)') == "el"

    def test_hash_ops(self):
        assert ev("(hash-ref (hash-set (hash) 'k 1) 'k)") == 1
        assert ev("(hash-ref (hash 'a 1 'b 2) 'b)") == 2
        assert ev("(hash-ref (hash) 'missing 'dflt)") is intern("dflt")
        assert ev("(hash-count (hash 'a 1))") == 1
        assert ev("(hash-has-key? (hash 'a 1) 'a)") is True

    def test_boxes(self):
        assert ev("(define b (box 1)) (set-box! b 9) (unbox b)") == 9

    def test_display_output(self):
        a = run_source('(display "hi") (newline) (display (list 1 2))')
        assert a.output == "hi\n(1 2)"

    def test_write_vs_display_strings(self):
        a = run_source('(write "hi")')
        assert a.output == '"hi"'


class TestErrors:
    def test_unbound_variable(self):
        assert "unbound" in str(rt_error("nope"))

    def test_apply_non_procedure(self):
        assert "non-procedure" in str(rt_error("(1 2)"))

    def test_closure_arity(self):
        assert "expected 1" in str(rt_error("((lambda (x) x) 1 2)"))

    def test_prim_arity(self):
        rt_error("(car)")
        rt_error("(cons 1)")

    def test_prim_domain(self):
        assert "car" in str(rt_error("(car 5)"))
        rt_error("(quotient 1 0)")
        rt_error("(+ 1 'a)")

    def test_error_prim(self):
        assert "boom" in str(rt_error('(error "boom" 42)'))

    def test_letrec_use_before_init(self):
        rt_error("(letrec ([x y] [y 1]) x)")


class TestTailCallsAndFuel:
    def test_deep_tail_recursion_completes(self):
        src = "(define (count n) (if (= n 0) 'done (count (- n 1)))) (count 200000)"
        assert ev(src) is intern("done")

    def test_deep_non_tail_recursion_completes(self):
        # non-tail: the continuation grows on the heap, not Python's stack
        src = "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 50000)"
        assert ev(src) == 50000 * 50001 // 2

    def test_fuel_timeout_on_divergence(self):
        a = run_source("(define (f) (f)) (f)", fuel=10000)
        assert a.kind == Answer.TIMEOUT

    def test_fuel_shared_across_forms(self):
        a = run_source("(define (f n) (if (= n 0) 0 (f (- n 1)))) (f 10) (f 10)",
                       fuel=100000)
        assert a.kind == Answer.VALUE


@pytest.mark.parametrize("machine", ["tree", "compiled", "native"])
class TestLibraryPerRun:
    """``run_source`` without an environment runs on a fresh library
    environment (on the compiled family, a snapshot of one built once):
    what a run does to a library name stays in that run, and a library
    λ sees the run's redefinition of a name it calls."""

    def test_redefinition_is_not_seen_by_the_next_run(self, machine):
        # flat/c calls flat-named/c.
        a = run_source("(define (flat-named/c name pred) 'mine)"
                       "(set! map 5) (list (flat/c 1) map)",
                       machine=machine)
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == "(mine 5)"
        assert ev("(car (map (lambda (x) (+ x 1)) '(1)))",
                  machine=machine) == 2
        pair = ev("(flat/c 1)", machine=machine)
        assert type(pair) is Pair and pair.car == 1

    def test_naming_a_library_closure_is_not_seen_by_the_next_run(
            self, machine):
        # nat/c's predicate is an anonymous λ; a top-level define names
        # it for the rest of that run, and only that run.
        named = run_source("(define p (car nat/c)) (car nat/c)",
                           machine=machine)
        assert write_value(named.value) == "#<procedure:p>"
        for text, shown in (("(car nat/c)", "λ@<contracts>"),
                            ("((car nat/c) 1 2)", "λ@<contracts>"),
                            ("(letrec ((q (car nat/c))) (q 1 2))", "q:")):
            run_source("(define p (car nat/c)) (letrec ((q (car nat/c)))"
                       " (p 1))", machine=machine)
            again = run_source(text, machine=machine).record()
            fresh = run_program(parse_program(text), machine=machine,
                                env=make_env(machine=machine)).record()
            tree = run_source(text, machine="tree").record()
            for r in (again, fresh, tree):
                r.pop("tier")
            assert again == fresh == tree
            assert shown in again.get("value", again.get("message"))
