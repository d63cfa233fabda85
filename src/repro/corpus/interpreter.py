"""The ``scheme`` benchmark: an interpreter for a Scheme subset, written in
the object language in the compile-to-closures style of §2.4, interpreting
merge-sort (and, for Fig. 10, factorial and sum).

Design notes — why this interpreter is *monitorable* (all three choices are
the ones Fig. 2 of the paper makes):

* **Compile to closures, don't eval/apply.**  A naive ``eval`` re-enters
  itself with a function body that is unrelated (as a value) to the call
  expression, which the size-change monitor must reject.  Compiled node
  closures instead recur along interpreted recursion only.
* **Per-arity code generation, no shared argument-evaluation loop.**  A
  recursive ``eval-args`` helper interleaves its own recursion with
  interpreted evaluation, so it gets re-entered with unrelated compiled-
  closure lists.  Generating ``((cf r) (a1 r) (a2 r))`` per arity (exactly
  like Fig. 2's unary ``((c1 ρ) (c2 ρ))``) removes that recursion, and it
  hands interpreted arguments to multi-argument host closures so each
  interpreted parameter occupies its own size-change graph position.
* **Environments bind values directly (no boxes), so interpreted descent
  is visible as environment-size descent.**  Compiled body closures are
  created once per AST node and re-entered across interpreted recursion
  with the environment as their only argument; with direct bindings the
  environment's memoized size shrinks exactly when the interpreted
  arguments shrink.  Only top-level definitions are boxed (for linking),
  and a box has constant size.

Interpreted subset: fixed-arity ``lambda`` (≤3 params), application,
``if``, ``quote``, numbers, booleans, variables, and primitives from the
initial environment.  Top-level recursion is tied by link-then-patch.
"""

from __future__ import annotations

import random
from typing import List

INTERPRETER_CORE = """
;; ---------- compile-to-closures Scheme interpreter (the paper's §2.4 style) ----

(define (lookup-var r x)
  (let ([v (hash-ref r x)])
    (if (box? v) (unbox v) v)))

(define (comp e)
  (cond
    [(number? e) (lambda (r) e)]
    [(boolean? e) (lambda (r) e)]
    [(symbol? e) (lambda (r) (lookup-var r e))]
    [(eq? (car e) 'quote)
     (let ([d (cadr e)]) (lambda (r) d))]
    [(eq? (car e) 'if)
     (let ([c (comp (cadr e))]
           [t (comp (caddr e))]
           [f (comp (cadddr e))])
       (lambda (r) (if (c r) (t r) (f r))))]
    [(eq? (car e) 'lambda)
     (comp-lambda (cadr e) (comp (caddr e)))]
    [else
     (comp-app (comp (car e)) (cdr e))]))

(define (comp-lambda params body)
  (cond
    [(null? params)
     (lambda (r) (lambda () (body r)))]
    [(null? (cdr params))
     (let ([p1 (car params)])
       (lambda (r) (lambda (v1) (body (hash-set r p1 v1)))))]
    [(null? (cddr params))
     (let ([p1 (car params)] [p2 (cadr params)])
       (lambda (r)
         (lambda (v1 v2)
           (body (hash-set (hash-set r p1 v1) p2 v2)))))]
    [(null? (cdddr params))
     (let ([p1 (car params)] [p2 (cadr params)] [p3 (caddr params)])
       (lambda (r)
         (lambda (v1 v2 v3)
           (body (hash-set (hash-set (hash-set r p1 v1) p2 v2) p3 v3)))))]
    [else (error "comp: unsupported arity")]))

(define (comp-app cf args)
  (cond
    [(null? args)
     (lambda (r) ((cf r)))]
    [(null? (cdr args))
     (let ([a1 (comp (car args))])
       (lambda (r) ((cf r) (a1 r))))]
    [(null? (cddr args))
     (let ([a1 (comp (car args))] [a2 (comp (cadr args))])
       (lambda (r) ((cf r) (a1 r) (a2 r))))]
    [(null? (cdddr args))
     (let ([a1 (comp (car args))]
           [a2 (comp (cadr args))]
           [a3 (comp (caddr args))])
       (lambda (r) ((cf r) (a1 r) (a2 r) (a3 r))))]
    [else (error "comp: unsupported call arity")]))

;; ---------- initial environment: interpreted primitives ----------

(define initial-env
  (hash '+     (lambda (a b) (+ a b))
        '-     (lambda (a b) (- a b))
        '*     (lambda (a b) (* a b))
        '<     (lambda (a b) (< a b))
        '=     (lambda (a b) (= a b))
        'car   (lambda (p) (car p))
        'cdr   (lambda (p) (cdr p))
        'cons  (lambda (a d) (cons a d))
        'null? (lambda (p) (null? p))))

;; ---------- linking: (define (f . params) body) forms ----------

(define (def-name d) (car (cadr d)))
(define (def-params d) (cdr (cadr d)))
(define (def-body d) (caddr d))

(define (link-defs defs r)
  (if (null? defs)
      r
      (link-defs (cdr defs) (hash-set r (def-name (car defs)) (box 0)))))

(define (patch-defs defs r)
  (if (null? defs)
      (void)
      (begin
        (let ([fn ((comp-lambda (def-params (car defs))
                                (comp (def-body (car defs)))) r)])
          (set-box! (hash-ref r (def-name (car defs))) fn))
        (patch-defs (cdr defs) r))))

(define (run-interp defs main)
  (let ([r (link-defs defs initial-env)])
    (begin
      (patch-defs defs r)
      ((comp main) r))))
"""

MSORT_DEFS = """
(define msort-program
  '((define (imerge xs ys)
      (if (null? xs) ys
          (if (null? ys) xs
              (if (< (car xs) (car ys))
                  (cons (car xs) (imerge (cdr xs) ys))
                  (cons (car ys) (imerge xs (cdr ys)))))))
    (define (isplit l)
      (if (null? l) (cons (quote ()) (quote ()))
          (if (null? (cdr l)) (cons l (quote ()))
              ((lambda (r)
                 (cons (cons (car l) (car r))
                       (cons (car (cdr l)) (cdr r))))
               (isplit (cdr (cdr l)))))))
    (define (imsort l)
      (if (null? l) l
          (if (null? (cdr l)) l
              ((lambda (h) (imerge (imsort (car h)) (imsort (cdr h))))
               (isplit l)))))))
"""

FACT_DEFS = """
(define fact-program
  '((define (ifact n)
      (if (< n 1) 1 (* n (ifact (- n 1)))))))
"""

SUM_DEFS = """
(define sum-program
  '((define (isum n)
      (if (< n 1) 0 (+ n (isum (- n 1)))))))
"""


def scheme_corpus_source() -> str:
    """The Table 1 ``scheme`` row: the interpreter running merge-sort."""
    values = _shuffled(24)
    data = " ".join(str(v) for v in values)
    return (
        INTERPRETER_CORE
        + MSORT_DEFS
        + f"\n(define (main) (run-interp msort-program '(imsort (quote ({data})))))\n"
        + "(main)\n"
    )


def interpreted_msort_source(n: int, seed: int = 7) -> str:
    values = _shuffled(n, seed)
    data = " ".join(str(v) for v in values)
    return (
        INTERPRETER_CORE
        + MSORT_DEFS
        + f"\n(run-interp msort-program '(imsort (quote ({data}))))\n"
    )


def interpreted_factorial_source(n: int) -> str:
    return (
        INTERPRETER_CORE
        + FACT_DEFS
        + f"\n(run-interp fact-program '(ifact {n}))\n"
    )


def interpreted_sum_source(n: int) -> str:
    return (
        INTERPRETER_CORE
        + SUM_DEFS
        + f"\n(run-interp sum-program '(isum {n}))\n"
    )


def _shuffled(n: int, seed: int = 7) -> List[int]:
    rng = random.Random(seed)
    values = list(range(n))
    rng.shuffle(values)
    return values


def _register() -> None:
    from repro.corpus.registry import CorpusProgram, register

    values = _shuffled(24)
    expected = "(" + " ".join(str(v) for v in sorted(values)) + ")"
    register(CorpusProgram(
        name="scheme",
        source=scheme_corpus_source(),
        expected=expected,
        paper=("Y", "N", "", "", ""),
        ours_static=False,
        entry=("main", []),
        notes="An interpreter for a Scheme subset (compile-to-closures, "
              "§2.4) interpreting merge-sort.  The paper's version is a "
              "1,100-line R5RS interpreter sorting strings; ours is the "
              "same architecture sorting integers.  Statically "
              "unverifiable: interpreted control flow defeats the "
              "closure analysis.",
        tags=("interpreter",),
    ))


_register()
