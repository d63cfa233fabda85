"""Primitive operations.

Paper §3.1: no primitive may cause divergence — every primitive here is
total on its domain and raises :class:`~repro.eval.errors.SchemeError`
(``errorRT``) outside it.  Primitives are therefore never size-change
monitored (the paper's "white-list of primitives known to terminate").

Higher-order list operations (``map``, ``foldr`` ...) are deliberately *not*
primitives: they are prelude closures (see :data:`PRELUDE_SOURCE`) so that
their recursion is monitored like user code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import BlameError, SchemeError
from repro.sexp.datum import Char, Symbol, intern
from repro.values.equality import scheme_equal, scheme_eqv
from repro.values.values import (
    NIL,
    VOID,
    Box,
    Closure,
    HashValue,
    Pair,
    Prim,
    Promise,
    TermWrapped,
    Vector,
    is_list_value,
    list_to_python,
    python_to_list,
    write_value,
)


def _num(v, who: str):
    if type(v) is int or type(v) is float:
        return v
    raise SchemeError(f"{who}: expected a number, got {write_value(v)}")


def _int(v, who: str) -> int:
    if type(v) is int:
        return v
    raise SchemeError(f"{who}: expected an integer, got {write_value(v)}")


def _pair(v, who: str) -> Pair:
    if type(v) is Pair:
        return v
    raise SchemeError(f"{who}: expected a pair, got {write_value(v)}")


def _str(v, who: str) -> str:
    if type(v) is str:
        return v
    raise SchemeError(f"{who}: expected a string, got {write_value(v)}")


def _char(v, who: str) -> Char:
    if type(v) is Char:
        return v
    raise SchemeError(f"{who}: expected a character, got {write_value(v)}")


def _sym(v, who: str) -> Symbol:
    if type(v) is Symbol:
        return v
    raise SchemeError(f"{who}: expected a symbol, got {write_value(v)}")


def _hash(v, who: str) -> HashValue:
    if type(v) is HashValue:
        return v
    raise SchemeError(f"{who}: expected a hash, got {write_value(v)}")


def _chain(args: List, rel: Callable, who: str) -> bool:
    # Two-integer compares dominate every loop-test in the corpus.
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return rel(a, b)
    prev = _num(args[0], who)
    for b in args[1:]:
        nxt = _num(b, who)
        if not rel(prev, nxt):
            return False
        prev = nxt
    return True


# -- numeric ------------------------------------------------------------------


def _p_add(args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a + b
    total = 0
    for a in args:
        total = total + _num(a, "+")
    return total


def _p_sub(args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a - b
    if len(args) == 1:
        return -_num(args[0], "-")
    total = _num(args[0], "-")
    for a in args[1:]:
        total = total - _num(a, "-")
    return total


def _p_mul(args):
    if len(args) == 2:
        a, b = args
        if type(a) is int and type(b) is int:
            return a * b
    total = 1
    for a in args:
        total = total * _num(a, "*")
    return total


def _p_quotient(args):
    a, b = _int(args[0], "quotient"), _int(args[1], "quotient")
    if b == 0:
        raise SchemeError("quotient: division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _p_remainder(args):
    a, b = _int(args[0], "remainder"), _int(args[1], "remainder")
    if b == 0:
        raise SchemeError("remainder: division by zero")
    q = abs(a) // abs(b)
    if (a >= 0) != (b >= 0):
        q = -q
    return a - q * b


def _p_modulo(args):
    a, b = _int(args[0], "modulo"), _int(args[1], "modulo")
    if b == 0:
        raise SchemeError("modulo: division by zero")
    return a % b if b > 0 else -((-a) % (-b))


def _p_min(args):
    vals = [_num(a, "min") for a in args]
    return min(vals)


def _p_max(args):
    vals = [_num(a, "max") for a in args]
    return max(vals)


def _p_expt(args):
    base, e = _num(args[0], "expt"), _int(args[1], "expt")
    if e < 0:
        raise SchemeError("expt: negative exponent on integer base")
    return base**e


# -- pairs & lists -------------------------------------------------------------


def _p_car(args):
    v = args[0]
    if type(v) is Pair:
        return v.car
    raise SchemeError(f"car: expected a pair, got {write_value(v)}")


def _p_cdr(args):
    v = args[0]
    if type(v) is Pair:
        return v.cdr
    raise SchemeError(f"cdr: expected a pair, got {write_value(v)}")


def _caxr(path: str):
    def fn(args, path=path):
        v = args[0]
        for step in reversed(path):
            p = _pair(v, f"c{path}r")
            v = p.car if step == "a" else p.cdr
        return v

    return fn


def _p_list_ref(args):
    v, n = args[0], _int(args[1], "list-ref")
    while n > 0:
        v = _pair(v, "list-ref").cdr
        n -= 1
    return _pair(v, "list-ref").car


def _p_list_tail(args):
    v, n = args[0], _int(args[1], "list-tail")
    while n > 0:
        v = _pair(v, "list-tail").cdr
        n -= 1
    return v


def _p_length(args):
    n = 0
    v = args[0]
    while type(v) is Pair:
        n += 1
        v = v.cdr
    if v is not NIL:
        raise SchemeError("length: expected a proper list")
    return n


def _p_append(args):
    if not args:
        return NIL
    acc = args[-1]
    for lst in reversed(args[:-1]):
        items = list_to_python_checked(lst, "append")
        for item in reversed(items):
            acc = Pair(item, acc)
    return acc


def list_to_python_checked(v, who: str) -> list:
    try:
        return list_to_python(v)
    except ValueError:
        raise SchemeError(f"{who}: expected a proper list, got {write_value(v)}") from None


def _p_reverse(args):
    acc = NIL
    v = args[0]
    while type(v) is Pair:
        acc = Pair(v.car, acc)
        v = v.cdr
    if v is not NIL:
        raise SchemeError("reverse: expected a proper list")
    return acc


def _member_by(args, eq, who: str):
    target, v = args[0], args[1]
    while type(v) is Pair:
        if eq(v.car, target):
            return v
        v = v.cdr
    return False


def _assoc_by(args, eq, who: str):
    target, v = args[0], args[1]
    while type(v) is Pair:
        entry = v.car
        if type(entry) is Pair and eq(entry.car, target):
            return entry
        v = v.cdr
    return False


# -- predicates ----------------------------------------------------------------


def _is_procedure(v) -> bool:
    return isinstance(v, (Closure, Prim, TermWrapped))


# -- strings & chars -------------------------------------------------------------


def _p_string_to_list(args):
    s = _str(args[0], "string->list")
    return python_to_list([Char(c) for c in s])


def _p_list_to_string(args):
    chars = list_to_python_checked(args[0], "list->string")
    return "".join(_char(c, "list->string").value for c in chars)


def _p_substring(args):
    s = _str(args[0], "substring")
    start = _int(args[1], "substring")
    end = _int(args[2], "substring") if len(args) == 3 else len(s)
    if not (0 <= start <= end <= len(s)):
        raise SchemeError("substring: index out of range")
    return s[start:end]


def _p_string_ref(args):
    s = _str(args[0], "string-ref")
    i = _int(args[1], "string-ref")
    if not (0 <= i < len(s)):
        raise SchemeError("string-ref: index out of range")
    return Char(s[i])


# -- hash maps -------------------------------------------------------------------


def _p_hash(args):
    if len(args) % 2 != 0:
        raise SchemeError("hash: expected an even number of arguments")
    h = HashValue.empty()
    for i in range(0, len(args), 2):
        h = h.set(args[i], args[i + 1])
    return h


_NO_DEFAULT = object()


def _p_hash_ref(args):
    h = _hash(args[0], "hash-ref")
    default = args[2] if len(args) == 3 else _NO_DEFAULT
    value = h.get(args[1], _NO_DEFAULT)
    if value is _NO_DEFAULT:
        if default is _NO_DEFAULT:
            raise SchemeError(f"hash-ref: no value for key {write_value(args[1])}")
        return default
    return value


# -- vectors -------------------------------------------------------------------


def _vec(v, who: str) -> Vector:
    if type(v) is Vector:
        return v
    raise SchemeError(f"{who}: expected a vector, got {write_value(v)}")


def _p_make_vector(args):
    n = _int(args[0], "make-vector")
    if n < 0:
        raise SchemeError("make-vector: expected a non-negative length")
    fill = args[1] if len(args) == 2 else 0
    return Vector((fill,) * n)


def _p_vector_ref(args):
    v = _vec(args[0], "vector-ref")
    i = _int(args[1], "vector-ref")
    if not (0 <= i < len(v.items)):
        raise SchemeError(
            f"vector-ref: index {i} out of range for length {len(v.items)}")
    return v.items[i]


def _p_vector_set(args):
    v = _vec(args[0], "vector-set")
    i = _int(args[1], "vector-set")
    if not (0 <= i < len(v.items)):
        raise SchemeError(
            f"vector-set: index {i} out of range for length {len(v.items)}")
    return Vector(v.items[:i] + (args[2],) + v.items[i + 1:])


# -- promises ------------------------------------------------------------------
#
# ``(delay e)`` parses to ``(%promise (λ () e))`` and ``force`` is a
# prelude closure: a primitive must never invoke a closure (the discharge
# pipeline's define-time safety check relies on that), so the cell
# operations below are the whole primitive surface and the actual thunk
# call happens in monitored object-language code.


def _promise(v, who: str) -> Promise:
    if type(v) is Promise:
        return v
    raise SchemeError(f"{who}: expected a promise, got {write_value(v)}")


def _p_promise_memo(args):
    p = _promise(args[0], "%promise-memo!")
    if not p.forced:
        p.value = args[1]
        p.forced = True
        p.thunk = None  # the thunk (and its captured frame) is dead now
    return p.value


# -- misc -------------------------------------------------------------------------


def _p_error(args):
    parts = []
    for a in args:
        parts.append(a if type(a) is str else write_value(a))
    raise SchemeError("error: " + " ".join(parts))


def _p_blame_error(args):
    party, name, value = args
    raise BlameError(
        party if type(party) is str else write_value(party),
        name if type(name) is str else write_value(name),
        write_value(value),
    )


def _p_void(args):
    return VOID


_PRIM_SPECS = []


def _prim(name: str, arity_min: int, arity_max: Optional[int], fn: Callable):
    _PRIM_SPECS.append(Prim(name, fn, arity_min, arity_max))


# numbers
_prim("+", 0, None, _p_add)
_prim("-", 1, None, _p_sub)
_prim("*", 0, None, _p_mul)
_prim("quotient", 2, 2, _p_quotient)
_prim("remainder", 2, 2, _p_remainder)
_prim("modulo", 2, 2, _p_modulo)
_prim("abs", 1, 1, lambda a: abs(_num(a[0], "abs")))
_prim("min", 1, None, _p_min)
_prim("max", 1, None, _p_max)
_prim("expt", 2, 2, _p_expt)
_prim("add1", 1, 1, lambda a: _num(a[0], "add1") + 1)
_prim("sub1", 1, 1, lambda a: _num(a[0], "sub1") - 1)
_prim("=", 2, None, lambda a: _chain(a, lambda x, y: x == y, "="))
_prim("<", 2, None, lambda a: _chain(a, lambda x, y: x < y, "<"))
_prim(">", 2, None, lambda a: _chain(a, lambda x, y: x > y, ">"))
_prim("<=", 2, None, lambda a: _chain(a, lambda x, y: x <= y, "<="))
_prim(">=", 2, None, lambda a: _chain(a, lambda x, y: x >= y, ">="))
_prim("zero?", 1, 1, lambda a: _num(a[0], "zero?") == 0)
_prim("positive?", 1, 1, lambda a: _num(a[0], "positive?") > 0)
_prim("negative?", 1, 1, lambda a: _num(a[0], "negative?") < 0)
_prim("even?", 1, 1, lambda a: _int(a[0], "even?") % 2 == 0)
_prim("odd?", 1, 1, lambda a: _int(a[0], "odd?") % 2 == 1)
_prim("number?", 1, 1, lambda a: type(a[0]) is int or type(a[0]) is float)
_prim("integer?", 1, 1, lambda a: type(a[0]) is int)

# pairs & lists
_prim("cons", 2, 2, lambda a: Pair(a[0], a[1]))
_prim("car", 1, 1, _p_car)
_prim("cdr", 1, 1, _p_cdr)
for _path in ("aa", "ad", "da", "dd", "aaa", "aad", "ada", "add",
              "daa", "dad", "dda", "ddd", "addd", "dddd"):
    _prim(f"c{_path}r", 1, 1, _caxr(_path))
_prim("pair?", 1, 1, lambda a: type(a[0]) is Pair)
_prim("cons?", 1, 1, lambda a: type(a[0]) is Pair)
_prim("null?", 1, 1, lambda a: a[0] is NIL)
_prim("empty?", 1, 1, lambda a: a[0] is NIL)
_prim("list", 0, None, lambda a: python_to_list(a))
_prim("list?", 1, 1, lambda a: is_list_value(a[0]))
_prim("length", 1, 1, _p_length)
_prim("append", 0, None, _p_append)
_prim("reverse", 1, 1, _p_reverse)
_prim("list-ref", 2, 2, _p_list_ref)
_prim("list-tail", 2, 2, _p_list_tail)
_prim("first", 1, 1, lambda a: _pair(a[0], "first").car)
_prim("rest", 1, 1, lambda a: _pair(a[0], "rest").cdr)
_prim("second", 1, 1, _caxr("ad"))
_prim("third", 1, 1, _caxr("add"))
_prim("member", 2, 2, lambda a: _member_by(a, scheme_equal, "member"))
_prim("memq", 2, 2, lambda a: _member_by(a, lambda x, y: x is y or scheme_eqv(x, y), "memq"))
_prim("memv", 2, 2, lambda a: _member_by(a, scheme_eqv, "memv"))
_prim("assoc", 2, 2, lambda a: _assoc_by(a, scheme_equal, "assoc"))
_prim("assq", 2, 2, lambda a: _assoc_by(a, scheme_eqv, "assq"))
_prim("assv", 2, 2, lambda a: _assoc_by(a, scheme_eqv, "assv"))

# equality & predicates
_prim("eq?", 2, 2, lambda a: a[0] is a[1] or scheme_eqv(a[0], a[1]))
_prim("eqv?", 2, 2, lambda a: scheme_eqv(a[0], a[1]))
_prim("equal?", 2, 2, lambda a: scheme_equal(a[0], a[1]))
_prim("not", 1, 1, lambda a: a[0] is False)
_prim("boolean?", 1, 1, lambda a: type(a[0]) is bool)
_prim("symbol?", 1, 1, lambda a: type(a[0]) is Symbol)
_prim("procedure?", 1, 1, lambda a: _is_procedure(a[0]))
_prim("string?", 1, 1, lambda a: type(a[0]) is str)
_prim("char?", 1, 1, lambda a: type(a[0]) is Char)
_prim("void?", 1, 1, lambda a: a[0] is VOID)

# strings & chars
_prim("char=?", 2, None,
      lambda a: all(_char(x, "char=?").value == _char(y, "char=?").value
                    for x, y in zip(a, a[1:])))
_prim("char<?", 2, None,
      lambda a: all(_char(x, "char<?").value < _char(y, "char<?").value
                    for x, y in zip(a, a[1:])))
_prim("char->integer", 1, 1, lambda a: ord(_char(a[0], "char->integer").value))
_prim("integer->char", 1, 1, lambda a: Char(chr(_int(a[0], "integer->char"))))
_prim("string=?", 2, None,
      lambda a: all(_str(x, "string=?") == _str(y, "string=?")
                    for x, y in zip(a, a[1:])))
_prim("string<?", 2, None,
      lambda a: all(_str(x, "string<?") < _str(y, "string<?")
                    for x, y in zip(a, a[1:])))
_prim("string-length", 1, 1, lambda a: len(_str(a[0], "string-length")))
_prim("string-append", 0, None,
      lambda a: "".join(_str(s, "string-append") for s in a))
_prim("string->list", 1, 1, _p_string_to_list)
_prim("list->string", 1, 1, _p_list_to_string)
_prim("string->symbol", 1, 1, lambda a: intern(_str(a[0], "string->symbol")))
_prim("symbol->string", 1, 1, lambda a: _sym(a[0], "symbol->string").name)
_prim("substring", 2, 3, _p_substring)
_prim("string-ref", 2, 2, _p_string_ref)
_prim("number->string", 1, 1, lambda a: str(_num(a[0], "number->string")))

# hash maps
_prim("hash", 0, None, _p_hash)
_prim("hash-set", 3, 3, lambda a: _hash(a[0], "hash-set").set(a[1], a[2]))
_prim("hash-ref", 2, 3, _p_hash_ref)
_prim("hash-has-key?", 2, 2, lambda a: _hash(a[0], "hash-has-key?").has_key(a[1]))
_prim("hash-count", 1, 1, lambda a: _hash(a[0], "hash-count").count())

# boxes
_prim("box", 1, 1, lambda a: Box(a[0]))
_prim("box?", 1, 1, lambda a: type(a[0]) is Box)
_prim("unbox", 1, 1, lambda a: a[0].value if type(a[0]) is Box
      else _raise(SchemeError("unbox: expected a box")))
_prim("set-box!", 2, 2, lambda a: _set_box(a))

# vectors (immutable; vector-set is a functional update)
_prim("vector", 0, None, lambda a: Vector(tuple(a)))
_prim("vector?", 1, 1, lambda a: type(a[0]) is Vector)
_prim("make-vector", 1, 2, _p_make_vector)
_prim("vector-length", 1, 1,
      lambda a: len(_vec(a[0], "vector-length").items))
_prim("vector-ref", 2, 2, _p_vector_ref)
_prim("vector-set", 3, 3, _p_vector_set)
_prim("vector->list", 1, 1,
      lambda a: python_to_list(_vec(a[0], "vector->list").items))
_prim("list->vector", 1, 1,
      lambda a: Vector(tuple(list_to_python(a[0])))
      if is_list_value(a[0])
      else _raise(SchemeError("list->vector: expected a list")))

# promises (the cell half of delay/force; the thunk call is in the prelude)
_prim("%promise", 1, 1,
      lambda a: Promise(a[0]) if _is_procedure(a[0])
      else _raise(SchemeError("%promise: expected a procedure")))
_prim("promise?", 1, 1, lambda a: type(a[0]) is Promise)
_prim("%promise-forced?", 1, 1,
      lambda a: _promise(a[0], "%promise-forced?").forced)
_prim("%promise-value", 1, 1,
      lambda a: _promise(a[0], "%promise-value").value
      if _promise(a[0], "%promise-value").forced
      else _raise(SchemeError("%promise-value: promise not yet forced")))
_prim("%promise-thunk", 1, 1,
      lambda a: _promise(a[0], "%promise-thunk").thunk)
_prim("%promise-memo!", 2, 2, _p_promise_memo)

# misc
_prim("void", 0, None, _p_void)
_prim("error", 1, None, _p_error)
_prim("blame-error", 3, 3, _p_blame_error)


def _raise(exc):
    raise exc


def _set_box(args):
    if type(args[0]) is not Box:
        raise SchemeError("set-box!: expected a box")
    args[0].value = args[1]
    return VOID


PRIMITIVES: Dict[Symbol, Prim] = {intern(p.name): p for p in _PRIM_SPECS}

PRIM_NAMES = frozenset(p.name for p in _PRIM_SPECS)

# The stock primitive of each name: what a program's read of a primitive
# it never rebinds resolves to (:mod:`repro.lang.resolve`).
PRIMS_BY_NAME: Dict[str, Prim] = {p.name: p for p in _PRIM_SPECS}


# -- prelude ---------------------------------------------------------------------
#
# Higher-order list operations written *in* the object language so their
# recursion is subject to size-change monitoring like any user code.

PRELUDE_SOURCE = """
(define (map f l)
  (if (null? l) '() (cons (f (car l)) (map f (cdr l)))))
(define (map2 f l1 l2)
  (if (null? l1) '() (cons (f (car l1) (car l2)) (map2 f (cdr l1) (cdr l2)))))
(define (for-each f l)
  (if (null? l) (void) (begin (f (car l)) (for-each f (cdr l)))))
(define (filter p l)
  (cond [(null? l) '()]
        [(p (car l)) (cons (car l) (filter p (cdr l)))]
        [else (filter p (cdr l))]))
(define (foldr f z l)
  (if (null? l) z (f (car l) (foldr f z (cdr l)))))
(define (foldl f z l)
  (if (null? l) z (foldl f (f z (car l)) (cdr l))))
(define (andmap p l)
  (if (null? l) #t (and (p (car l)) (andmap p (cdr l)))))
(define (ormap p l)
  (if (null? l) #f (or (p (car l)) (ormap p (cdr l)))))
(define (iota n)
  (let loop ([i 0])
    (if (= i n) '() (cons i (loop (+ i 1))))))
(define (range lo hi)
  (if (>= lo hi) '() (cons lo (range (+ lo 1) hi))))
(define (build-list n f)
  (let loop ([i 0])
    (if (= i n) '() (cons (f i) (loop (+ i 1))))))
(define (assoc-ref al k d)
  (let ([hit (assoc k al)]) (if hit (cdr hit) d)))
(define (last l)
  (if (null? (cdr l)) (car l) (last (cdr l))))
(define (force p)
  (if (promise? p)
      (if (%promise-forced? p)
          (%promise-value p)
          (%promise-memo! p ((%promise-thunk p))))
      p))
"""
