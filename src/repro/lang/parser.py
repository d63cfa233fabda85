"""Surface-to-core compiler.

Parses reader output (:class:`~repro.sexp.reader.Syntax`) into the core AST
of :mod:`repro.lang.ast`, desugaring on the way:

=============================  =============================================
surface form                   core translation
=============================  =============================================
``cond`` / ``case``            nested ``If`` (+ ``memv`` for ``case``)
``and`` / ``or``               nested ``If`` (``or`` binds a temporary)
``when`` / ``unless``          ``If`` + ``Begin``
``let*``                       nested ``Let``
named ``let``                  ``LetRec`` + application
internal ``define``            ``LetRec`` at body heads
``quasiquote``                 ``cons``/``append`` construction
``match``                      tests over ``car``/``cdr`` chains + ``Let``
``term/c``/``terminating/c``   ``TermC`` with a blame label
``->/c`` / ``->t/c``           fixed-arity Findler–Felleisen function-
                               contract projections (``->t/c`` adds a
                               ``term/c`` wrap: total correctness, §2.3)
``and/c`` / ``or/c``           n-ary folds over the library's binary cores
``define/contract``            ``define`` + ``contract`` attach with
                               name-derived blame parties
=============================  =============================================
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.lang import ast
from repro.sexp.datum import (
    Char,
    Dotted,
    S_QUASIQUOTE,
    S_QUOTE,
    S_UNQUOTE,
    S_UNQUOTE_SPLICING,
    Symbol,
    intern,
)
from repro.sexp.reader import SrcLoc, Syntax, read_many
from repro.values.values import from_datum


class ParseError(SyntaxError):
    def __init__(self, message: str, loc: Optional[SrcLoc]):
        where = f" at {loc}" if loc is not None else ""
        super().__init__(f"{message}{where}")
        self.loc = loc


_gensym_counter = itertools.count()


def gensym(prefix: str = "%t") -> Symbol:
    return intern(f"{prefix}{next(_gensym_counter)}")


# Well-known symbols --------------------------------------------------------

S_LAMBDA = intern("lambda")
S_LAMBDA_GREEK = intern("λ")
S_IF = intern("if")
S_COND = intern("cond")
S_CASE = intern("case")
S_ELSE = intern("else")
S_AND = intern("and")
S_OR = intern("or")
S_WHEN = intern("when")
S_UNLESS = intern("unless")
S_BEGIN = intern("begin")
S_LET = intern("let")
S_LETSTAR = intern("let*")
S_LETREC = intern("letrec")
S_LETRECSTAR = intern("letrec*")
S_DEFINE = intern("define")
S_SET = intern("set!")
S_MATCH = intern("match")
S_TERMC = intern("term/c")
S_TERMINATING_C = intern("terminating/c")
S_WILDCARD = intern("_")
S_QUESTION = intern("?")
S_CONS = intern("cons")
S_LIST = intern("list")
S_APPEND = intern("append")
S_CAR = intern("car")
S_CDR = intern("cdr")
S_PAIR_P = intern("pair?")
S_NULL_P = intern("null?")
S_EQ_P = intern("eq?")
S_EQUAL_P = intern("equal?")
S_MEMV = intern("memv")
S_ERROR = intern("error")
S_DELAY = intern("delay")
S_PROMISE_PRIM = intern("%promise")


def _head_symbol(stx: Syntax) -> Optional[Symbol]:
    if stx.is_list() and stx.datum:
        head = stx.datum[0].datum
        if isinstance(head, Symbol):
            return head
    return None


def parse_expr(stx: Syntax) -> ast.Node:
    """Compile one expression's syntax into the core AST."""
    d = stx.datum
    loc = stx.loc
    if isinstance(d, Symbol):
        return ast.Var(d, loc)
    if isinstance(d, (int, float, str, bool, Char)):
        return ast.Lit(d, loc)
    if isinstance(d, Dotted):
        raise ParseError("dotted list is not an expression", loc)
    assert isinstance(d, list)
    if not d:
        raise ParseError("empty application ()", loc)
    head = _head_symbol(stx)
    if head is not None:
        handler = _FORMS.get(head)
        if handler is not None:
            return handler(stx)
    fn = parse_expr(d[0])
    args = tuple(parse_expr(a) for a in d[1:])
    return ast.App(fn, args, loc)


def parse_body(forms: List[Syntax], loc) -> ast.Node:
    """A λ/let body: leading internal ``define``s become ``letrec*``."""
    if not forms:
        raise ParseError("empty body", loc)
    defines: List[Tuple[Symbol, ast.Node]] = []
    i = 0
    while i < len(forms) and _head_symbol(forms[i]) in (S_DEFINE,
                                                        S_DEFINE_CONTRACT):
        if _head_symbol(forms[i]) is S_DEFINE:
            name, rhs = _parse_define(forms[i])
        else:
            name, rhs = _parse_define_contract(forms[i])
        defines.append((name, rhs))
        i += 1
    exprs = [parse_expr(f) for f in forms[i:]]
    if not exprs:
        raise ParseError("body has only definitions", loc)
    body = exprs[0] if len(exprs) == 1 else ast.Begin(tuple(exprs), loc)
    if defines:
        names = tuple(n for n, _ in defines)
        rhss = tuple(r for _, r in defines)
        return ast.LetRec(names, rhss, body, loc)
    return body


def _parse_define(stx: Syntax) -> Tuple[Symbol, ast.Node]:
    d = stx.datum
    if len(d) < 2:
        raise ParseError("malformed define", stx.loc)
    target = d[1]
    if isinstance(target.datum, Symbol):
        if len(d) != 3:
            raise ParseError("define expects exactly one expression", stx.loc)
        rhs = parse_expr(d[2])
        if rhs.kind == ast.K_LAM and rhs.name is None:
            rhs.name = target.datum.name
        return target.datum, rhs
    if isinstance(target.datum, list) and target.datum:
        name_stx = target.datum[0]
        if not isinstance(name_stx.datum, Symbol):
            raise ParseError("bad function name in define", name_stx.loc)
        params = _parse_params(target.datum[1:])
        body = parse_body(d[2:], stx.loc)
        lam = ast.Lam(params, body, name=name_stx.datum.name, loc=stx.loc)
        return name_stx.datum, lam
    raise ParseError("malformed define", stx.loc)


def _parse_params(param_stxs: List[Syntax]) -> Tuple[Symbol, ...]:
    params = []
    for p in param_stxs:
        if not isinstance(p.datum, Symbol):
            raise ParseError("parameter must be a symbol", p.loc)
        params.append(p.datum)
    if len(set(params)) != len(params):
        raise ParseError("duplicate parameter name", param_stxs[0].loc)
    return tuple(params)


# -- individual special forms ------------------------------------------------


def _parse_quote(stx: Syntax) -> ast.Node:
    if len(stx.datum) != 2:
        raise ParseError("quote expects one datum", stx.loc)
    return ast.Lit(from_datum(stx.datum[1].strip()), stx.loc)


def _parse_lambda(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("lambda expects parameters and a body", stx.loc)
    if not isinstance(d[1].datum, list):
        raise ParseError("lambda parameter list must be a list", d[1].loc)
    params = _parse_params(d[1].datum)
    body = parse_body(d[2:], stx.loc)
    return ast.Lam(params, body, loc=stx.loc)


def _parse_delay(stx: Syntax) -> ast.Node:
    # ``(delay e)`` ⇒ ``(%promise (λ () e))``: the thunk is an ordinary λ,
    # so forcing it later is an ordinary monitored call (no primitive ever
    # invokes a closure — ``force`` itself is a prelude definition).
    d = stx.datum
    if len(d) != 2:
        raise ParseError("delay expects exactly one expression", stx.loc)
    thunk = ast.Lam((), parse_expr(d[1]), name="delayed", loc=stx.loc)
    return ast.App(ast.Var(S_PROMISE_PRIM), (thunk,), stx.loc)


def _parse_if(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) == 3:
        return ast.If(parse_expr(d[1]), parse_expr(d[2]), ast.Lit(False), stx.loc)
    if len(d) == 4:
        return ast.If(parse_expr(d[1]), parse_expr(d[2]), parse_expr(d[3]), stx.loc)
    raise ParseError("if expects 2 or 3 sub-expressions", stx.loc)


def _parse_cond(stx: Syntax) -> ast.Node:
    clauses = stx.datum[1:]
    result: ast.Node = ast.Lit(False, stx.loc)
    for clause in reversed(clauses):
        if not clause.is_list() or not clause.datum:
            raise ParseError("malformed cond clause", clause.loc)
        head = clause.datum[0]
        if head.datum is S_ELSE:
            result = parse_body(clause.datum[1:], clause.loc)
            continue
        test = parse_expr(head)
        if len(clause.datum) == 1:
            tmp = gensym()
            result = ast.Let(
                (tmp,), (test,),
                ast.If(ast.Var(tmp), ast.Var(tmp), result, clause.loc),
                clause.loc,
            )
        else:
            body = parse_body(clause.datum[1:], clause.loc)
            result = ast.If(test, body, result, clause.loc)
    return result


def _parse_case(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("case expects a key and clauses", stx.loc)
    tmp = gensym()
    result: ast.Node = ast.Lit(False, stx.loc)
    for clause in reversed(d[2:]):
        if not clause.is_list() or not clause.datum:
            raise ParseError("malformed case clause", clause.loc)
        head = clause.datum[0]
        body = parse_body(clause.datum[1:], clause.loc)
        if head.datum is S_ELSE:
            result = body
            continue
        data = ast.Lit(from_datum(head.strip()), head.loc)
        test = ast.App(ast.Var(S_MEMV), (ast.Var(tmp), data), clause.loc)
        result = ast.If(test, body, result, clause.loc)
    return ast.Let((tmp,), (parse_expr(d[1]),), result, stx.loc)


def _parse_and(stx: Syntax) -> ast.Node:
    args = [parse_expr(a) for a in stx.datum[1:]]
    if not args:
        return ast.Lit(True, stx.loc)
    result = args[-1]
    for a in reversed(args[:-1]):
        result = ast.If(a, result, ast.Lit(False), stx.loc)
    return result


def _parse_or(stx: Syntax) -> ast.Node:
    args = [parse_expr(a) for a in stx.datum[1:]]
    if not args:
        return ast.Lit(False, stx.loc)
    result = args[-1]
    for a in reversed(args[:-1]):
        tmp = gensym()
        result = ast.Let(
            (tmp,), (a,), ast.If(ast.Var(tmp), ast.Var(tmp), result, stx.loc), stx.loc
        )
    return result


def _parse_when(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("when expects a test and a body", stx.loc)
    return ast.If(parse_expr(d[1]), parse_body(d[2:], stx.loc), ast.Lit(False), stx.loc)


def _parse_unless(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("unless expects a test and a body", stx.loc)
    return ast.If(parse_expr(d[1]), ast.Lit(False), parse_body(d[2:], stx.loc), stx.loc)


def _parse_begin(stx: Syntax) -> ast.Node:
    return parse_body(stx.datum[1:], stx.loc)


def _parse_bindings(stx: Syntax) -> Tuple[Tuple[Symbol, ...], Tuple[ast.Node, ...]]:
    if not stx.is_list():
        raise ParseError("binding list must be a list", stx.loc)
    names, rhss = [], []
    for b in stx.datum:
        if not b.is_list() or len(b.datum) != 2 or not isinstance(b.datum[0].datum, Symbol):
            raise ParseError("malformed binding", b.loc)
        names.append(b.datum[0].datum)
        rhs = parse_expr(b.datum[1])
        if rhs.kind == ast.K_LAM and rhs.name is None:
            rhs.name = b.datum[0].datum.name
        rhss.append(rhs)
    return tuple(names), tuple(rhss)


def _parse_let(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) >= 3 and isinstance(d[1].datum, Symbol):
        # Named let: (let loop ([x e] ...) body) → letrec + call.
        loop_name = d[1].datum
        names, rhss = _parse_bindings(d[2])
        body = parse_body(d[3:], stx.loc)
        lam = ast.Lam(names, body, name=loop_name.name, loc=stx.loc)
        call = ast.App(ast.Var(loop_name, stx.loc), rhss, stx.loc)
        return ast.LetRec((loop_name,), (lam,), call, stx.loc)
    if len(d) < 3:
        raise ParseError("let expects bindings and a body", stx.loc)
    names, rhss = _parse_bindings(d[1])
    body = parse_body(d[2:], stx.loc)
    return ast.Let(names, rhss, body, stx.loc)


def _parse_let_star(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("let* expects bindings and a body", stx.loc)
    names, rhss = _parse_bindings(d[1])
    body = parse_body(d[2:], stx.loc)
    for name, rhs in reversed(list(zip(names, rhss))):
        body = ast.Let((name,), (rhs,), body, stx.loc)
    return body


def _parse_letrec(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("letrec expects bindings and a body", stx.loc)
    names, rhss = _parse_bindings(d[1])
    body = parse_body(d[2:], stx.loc)
    return ast.LetRec(names, rhss, body, stx.loc)


def _parse_set(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) != 3 or not isinstance(d[1].datum, Symbol):
        raise ParseError("malformed set!", stx.loc)
    return ast.SetBang(d[1].datum, parse_expr(d[2]), stx.loc)


def _parse_termc(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) == 2:
        blame = f"term/c@{stx.loc}"
    elif len(d) == 3 and isinstance(d[2].datum, str):
        blame = d[2].datum
    else:
        raise ParseError("term/c expects an expression and optional blame string", stx.loc)
    return ast.TermC(parse_expr(d[1]), blame, stx.loc)


# -- contract surface forms ----------------------------------------------------
#
# Contracts are library values (pairs of a first-order test and a
# projection maker; see repro/lang/contracts_lib.py).  The arrow forms are
# macros because each use has a fixed arity: (->/c d1 ... dn r) expands to
# a projection that wraps an n-ary function, checking domains with
# *swapped* blame (a bad argument is the caller's fault) and the range
# with the original blame.  (->t/c ...) additionally wraps the function in
# term/c, yielding a total-correctness contract (§2.3).

S_ARROW_C = intern("->/c")
S_TOTAL_C = intern("->t/c")
S_AND_C = intern("and/c")
S_OR_C = intern("or/c")
S_DEFINE_CONTRACT = intern("define/contract")
S_PROCEDURE_P = intern("procedure?")
S_BLAME_ERROR = intern("blame-error")
S_CONTRACT = intern("contract")
S_ANY_C = intern("any/c")
S_NONE_C = intern("none/c")
S_AND2_C = intern("and2/c")
S_OR2_C = intern("or2/c")


def _projection(ctc_name: Symbol, party1: Symbol, party2: Symbol,
                value: ast.Node, loc) -> ast.Node:
    """``(((cdr ctc) party1 party2) value)``."""
    proj_maker = ast.App(ast.Var(S_CDR), (ast.Var(ctc_name),), loc)
    proj = ast.App(proj_maker, (ast.Var(party1), ast.Var(party2)), loc)
    return ast.App(proj, (value,), loc)


def _parse_arrow_c(stx: Syntax, total: bool = False) -> ast.Node:
    d = stx.datum
    loc = stx.loc
    form = "->t/c" if total else "->/c"
    if len(d) < 2:
        raise ParseError(f"{form} expects at least a range contract", loc)
    ctc_exprs = [parse_expr(s) for s in d[1:]]
    dom_exprs, rng_expr = ctc_exprs[:-1], ctc_exprs[-1]

    dom_names = [gensym("%dom") for _ in dom_exprs]
    rng_name = gensym("%rng")
    pos, neg = gensym("%pos"), gensym("%neg")
    fn_name, xs = gensym("%fn"), [gensym("%x") for _ in dom_exprs]

    callee: ast.Node = ast.Var(fn_name)
    checked_args = tuple(
        _projection(dn, neg, pos, ast.Var(x), loc)
        for dn, x in zip(dom_names, xs)
    )
    call = ast.App(callee, checked_args, loc)
    wrapper_body = _projection(rng_name, pos, neg, call, loc)
    wrapper = ast.Lam(tuple(xs), wrapper_body, name=f"{form} wrapper", loc=loc)
    if total:
        # Wrap the raw function once, before building the proxy, so every
        # call through the contract is termination-monitored.
        monitored = gensym("%mon")
        wrapper = ast.Lam(
            tuple(xs),
            _projection(
                rng_name, pos, neg,
                ast.App(ast.Var(monitored), checked_args, loc), loc,
            ),
            name=f"{form} wrapper", loc=loc,
        )
        wrapper = ast.Let(
            (monitored,),
            (ast.TermC(ast.Var(fn_name), f"->t/c@{loc}", loc),),
            wrapper, loc,
        )
    guarded = ast.If(
        ast.App(ast.Var(S_PROCEDURE_P), (ast.Var(fn_name),), loc),
        wrapper,
        ast.App(ast.Var(S_BLAME_ERROR),
                (ast.Var(pos), ast.Lit(intern(form), loc), ast.Var(fn_name)),
                loc),
        loc,
    )
    proj_maker = ast.Lam(
        (pos, neg),
        ast.Lam((fn_name,), guarded, name=f"{form} projection", loc=loc),
        name=f"{form} maker", loc=loc,
    )
    pair = ast.App(ast.Var(S_CONS),
                   (ast.Var(S_PROCEDURE_P), proj_maker), loc)
    return ast.Let(tuple(dom_names) + (rng_name,),
                   tuple(dom_exprs) + (rng_expr,), pair, loc)


def _parse_total_c(stx: Syntax) -> ast.Node:
    return _parse_arrow_c(stx, total=True)


def _fold_binary(stx: Syntax, empty: Symbol, binary: Symbol) -> ast.Node:
    d = stx.datum
    loc = stx.loc
    parts = [parse_expr(s) for s in d[1:]]
    if not parts:
        return ast.Var(empty, loc)
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = ast.App(ast.Var(binary), (part, acc), loc)
    return acc


def _parse_and_c(stx: Syntax) -> ast.Node:
    return _fold_binary(stx, S_ANY_C, S_AND2_C)


def _parse_or_c(stx: Syntax) -> ast.Node:
    return _fold_binary(stx, S_NONE_C, S_OR2_C)


def _parse_define_contract(stx: Syntax) -> Tuple[Symbol, ast.Node]:
    """``(define/contract (f x ...) ctc body ...)`` or
    ``(define/contract x ctc expr)`` — the value is attached to ``ctc``
    with the defined name as the positive party and ``<name>-caller`` as
    the negative one."""
    d = stx.datum
    loc = stx.loc
    if len(d) < 4:
        raise ParseError("malformed define/contract", loc)
    target = d[1]
    ctc = parse_expr(d[2])
    if isinstance(target.datum, Symbol):
        if len(d) != 4:
            raise ParseError("define/contract expects one expression", loc)
        name = target.datum
        raw: ast.Node = parse_expr(d[3])
        if raw.kind == ast.K_LAM and raw.name is None:
            raw.name = name.name
    elif isinstance(target.datum, list) and target.datum:
        name_stx = target.datum[0]
        if not isinstance(name_stx.datum, Symbol):
            raise ParseError("bad function name in define/contract",
                             name_stx.loc)
        name = name_stx.datum
        params = _parse_params(target.datum[1:])
        raw = ast.Lam(params, parse_body(d[3:], loc), name=name.name, loc=loc)
    else:
        raise ParseError("malformed define/contract", loc)
    attached = ast.App(
        ast.Var(S_CONTRACT),
        (ctc, raw,
         ast.Lit(name, loc), ast.Lit(intern(f"{name.name}-caller"), loc)),
        loc,
    )
    return name, attached


# -- quasiquote --------------------------------------------------------------


def _parse_quasiquote(stx: Syntax) -> ast.Node:
    if len(stx.datum) != 2:
        raise ParseError("quasiquote expects one template", stx.loc)
    return _qq(stx.datum[1], 1)


def _qq(stx: Syntax, depth: int) -> ast.Node:
    """Expand one quasiquote template level into cons/append construction."""
    d = stx.datum
    head = _head_symbol(stx)
    if head is S_UNQUOTE and len(d) == 2:
        if depth == 1:
            return parse_expr(d[1])
        inner = _qq(d[1], depth - 1)
        return _qq_list([ast.Lit(S_UNQUOTE), inner], stx.loc)
    if head is S_QUASIQUOTE and len(d) == 2:
        inner = _qq(d[1], depth + 1)
        return _qq_list([ast.Lit(S_QUASIQUOTE), inner], stx.loc)
    if isinstance(d, list):
        parts: List[ast.Node] = []
        splices: List[Tuple[int, ast.Node]] = []
        for i, item in enumerate(d):
            if _head_symbol(item) is S_UNQUOTE_SPLICING and depth == 1:
                splices.append((i, parse_expr(item.datum[1])))
            else:
                parts.append(_qq(item, depth))
        if not splices:
            return _qq_list(parts, stx.loc)
        return _qq_spliced(d, depth, stx.loc)
    if isinstance(d, Dotted):
        items = [_qq(x, depth) for x in d.items]
        tail = _qq(d.tail, depth)
        acc = tail
        for item in reversed(items):
            acc = ast.App(ast.Var(S_CONS), (item, acc), stx.loc)
        return acc
    return ast.Lit(from_datum(stx.strip()), stx.loc)


def _qq_list(parts: List[ast.Node], loc) -> ast.Node:
    acc: ast.Node = ast.Lit(from_datum([]), loc)
    for part in reversed(parts):
        acc = ast.App(ast.Var(S_CONS), (part, acc), loc)
    return acc


def _qq_spliced(items: List[Syntax], depth: int, loc) -> ast.Node:
    segments: List[ast.Node] = []
    for item in items:
        if _head_symbol(item) is S_UNQUOTE_SPLICING and depth == 1:
            segments.append(parse_expr(item.datum[1]))
        else:
            segments.append(_qq_list([_qq(item, depth)], loc))
    if len(segments) == 1:
        return segments[0]
    return ast.App(ast.Var(S_APPEND), tuple(segments), loc)


# -- match -------------------------------------------------------------------
#
# Patterns supported (what the corpus and the Fig. 2 compiler need):
#   _                         wildcard
#   x                         variable binding
#   literal                   number / string / boolean / character
#   'datum                    equal? against the quoted datum
#   `template                 quasipattern: lists of sub-patterns where
#                             symbols are literals and ,p is a sub-pattern
#   (? pred)                  predicate test
#   (? pred pat)              predicate + sub-pattern on the same value
#   (cons p1 p2)              pair with car/cdr sub-patterns
#   (list p ...)              fixed-length list


def _parse_match(stx: Syntax) -> ast.Node:
    d = stx.datum
    if len(d) < 3:
        raise ParseError("match expects a scrutinee and clauses", stx.loc)
    tmp = gensym("%m")
    fail: ast.Node = ast.App(
        ast.Var(S_ERROR), (ast.Lit("match: no matching clause"),), stx.loc
    )
    result = fail
    for clause in reversed(d[2:]):
        if not clause.is_list() or len(clause.datum) < 2:
            raise ParseError("malformed match clause", clause.loc)
        pattern = clause.datum[0]
        body = parse_body(clause.datum[1:], clause.loc)
        test, bindings = _compile_pattern(pattern, ast.Var(tmp, pattern.loc))
        if bindings:
            names = tuple(n for n, _ in bindings)
            rhss = tuple(e for _, e in bindings)
            body = ast.Let(names, rhss, body, clause.loc)
        result = _make_if(test, body, result, clause.loc)
    return ast.Let((tmp,), (parse_expr(d[1]),), result, stx.loc)


def _make_if(test: Optional[ast.Node], then: ast.Node, els: ast.Node, loc) -> ast.Node:
    if test is None:  # irrefutable pattern
        return then
    return ast.If(test, then, els, loc)


def _make_and(a: Optional[ast.Node], b: Optional[ast.Node], loc) -> Optional[ast.Node]:
    if a is None:
        return b
    if b is None:
        return a
    return ast.If(a, b, ast.Lit(False), loc)


def _compile_pattern(pat: Syntax, target: ast.Node):
    """Return ``(test_expr_or_None, [(name, access_expr), ...])``."""
    d = pat.datum
    loc = pat.loc
    if d is S_WILDCARD:
        return None, []
    if isinstance(d, Symbol):
        return None, [(d, target)]
    if isinstance(d, (int, float, str, bool, Char)):
        lit = ast.Lit(d, loc)
        return ast.App(ast.Var(S_EQUAL_P), (target, lit), loc), []
    if isinstance(d, list) and d:
        head = _head_symbol(pat)
        if head is S_QUOTE and len(d) == 2:
            lit = ast.Lit(from_datum(d[1].strip()), loc)
            return ast.App(ast.Var(S_EQUAL_P), (target, lit), loc), []
        if head is S_QUASIQUOTE and len(d) == 2:
            return _compile_quasipattern(d[1], target)
        if head is S_QUESTION:
            if len(d) < 2:
                raise ParseError("(? pred pat ...) needs a predicate", loc)
            test: Optional[ast.Node] = ast.App(parse_expr(d[1]), (target,), loc)
            bindings = []
            for sub in d[2:]:
                sub_test, sub_bind = _compile_pattern(sub, target)
                test = _make_and(test, sub_test, loc)
                bindings.extend(sub_bind)
            return test, bindings
        if head is S_CONS and len(d) == 3:
            car_t, car_b = _compile_pattern(d[1], ast.App(ast.Var(S_CAR), (target,), loc))
            cdr_t, cdr_b = _compile_pattern(d[2], ast.App(ast.Var(S_CDR), (target,), loc))
            test = ast.App(ast.Var(S_PAIR_P), (target,), loc)
            test = _make_and(test, _make_and(car_t, cdr_t, loc), loc)
            return test, car_b + cdr_b
        if head is S_LIST:
            return _compile_list_pattern(d[1:], target, loc)
    if isinstance(d, list) and not d:
        return ast.App(ast.Var(S_NULL_P), (target,), loc), []
    raise ParseError(f"unsupported match pattern: {pat.strip()!r}", loc)


def _compile_list_pattern(items: List[Syntax], target: ast.Node, loc):
    if not items:
        return ast.App(ast.Var(S_NULL_P), (target,), loc), []
    head_t, head_b = _compile_pattern(items[0], ast.App(ast.Var(S_CAR), (target,), loc))
    rest_t, rest_b = _compile_list_pattern(
        items[1:], ast.App(ast.Var(S_CDR), (target,), loc), loc
    )
    test = ast.App(ast.Var(S_PAIR_P), (target,), loc)
    test = _make_and(test, _make_and(head_t, rest_t, loc), loc)
    return test, head_b + rest_b


def _compile_quasipattern(pat: Syntax, target: ast.Node):
    """A quasipattern: symbols are literal, ``,p`` is a sub-pattern."""
    d = pat.datum
    loc = pat.loc
    head = _head_symbol(pat)
    if head is S_UNQUOTE and len(d) == 2:
        return _compile_pattern(d[1], target)
    if isinstance(d, list):
        if not d:
            return ast.App(ast.Var(S_NULL_P), (target,), loc), []
        head_t, head_b = _compile_quasipattern(
            d[0], ast.App(ast.Var(S_CAR), (target,), loc)
        )
        rest = Syntax(d[1:], loc)
        rest_t, rest_b = _compile_quasipattern(
            rest, ast.App(ast.Var(S_CDR), (target,), loc)
        )
        test = ast.App(ast.Var(S_PAIR_P), (target,), loc)
        test = _make_and(test, _make_and(head_t, rest_t, loc), loc)
        return test, head_b + rest_b
    if isinstance(d, Symbol):
        lit = ast.Lit(from_datum(d), loc)
        return ast.App(ast.Var(S_EQ_P), (target, lit), loc), []
    lit = ast.Lit(from_datum(pat.strip()), loc)
    return ast.App(ast.Var(S_EQUAL_P), (target, lit), loc), []


_FORMS = {
    S_QUOTE: _parse_quote,
    S_QUASIQUOTE: _parse_quasiquote,
    S_LAMBDA: _parse_lambda,
    S_LAMBDA_GREEK: _parse_lambda,
    S_IF: _parse_if,
    S_COND: _parse_cond,
    S_CASE: _parse_case,
    S_AND: _parse_and,
    S_OR: _parse_or,
    S_WHEN: _parse_when,
    S_UNLESS: _parse_unless,
    S_BEGIN: _parse_begin,
    S_LET: _parse_let,
    S_LETSTAR: _parse_let_star,
    S_LETREC: _parse_letrec,
    S_LETRECSTAR: _parse_letrec,
    S_SET: _parse_set,
    S_DELAY: _parse_delay,
    S_MATCH: _parse_match,
    S_TERMC: _parse_termc,
    S_TERMINATING_C: _parse_termc,
    S_ARROW_C: _parse_arrow_c,
    S_TOTAL_C: _parse_total_c,
    S_AND_C: _parse_and_c,
    S_OR_C: _parse_or_c,
}


def parse_program(text: str, source: str = "<program>"):
    """Parse whole-program text; returns
    :class:`repro.lang.program.Program`."""
    from repro.lang.program import Program, TopDefine, TopExpr

    forms = []
    for stx in read_many(text, source):
        head = _head_symbol(stx)
        if head is S_DEFINE:
            name, rhs = _parse_define(stx)
            forms.append(TopDefine(name, rhs, stx.loc))
        elif head is S_DEFINE_CONTRACT:
            name, rhs = _parse_define_contract(stx)
            forms.append(TopDefine(name, rhs, stx.loc))
        else:
            forms.append(TopExpr(parse_expr(stx), stx.loc))
    return Program(tuple(forms), source)
