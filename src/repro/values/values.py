"""Value representation for the embedded language.

Values (paper Fig. 3): primitives, integers, pairs, and closures — extended
here with booleans, symbols, characters, strings, immutable hash maps
(needed by the Fig. 2 lambda-calculus compiler), boxes, and void.

Two design points matter for the reproduction:

* **Pairs are immutable and memoize their size and structural hash.**  The
  default well-founded order compares values by size (see
  :mod:`repro.sct.order`); memoizing ``size`` at construction makes each
  size-change arc test O(1) instead of O(n), and the memoized hash lets
  ``equal?`` reject almost all non-equal pairs without deep traversal.
* **Closures are compared by identity.**  The paper hashes closures; we key
  tables by object identity (exact, per Lemma A.1) with structural hashing
  available as an option in the monitor.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.ds.hamt import Hamt
from repro.sexp.datum import Char, Dotted, Symbol


class Nil:
    """The empty list (a singleton: use :data:`NIL`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "'()"


NIL = Nil()


class Void:
    """The result of side-effecting forms (a singleton: use :data:`VOID`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "#<void>"


VOID = Void()


def _value_size(v) -> int:
    """Well-founded size measure; see :func:`size_of` for the contract."""
    if type(v) is int:
        return abs(v)
    if type(v) is Pair:
        return v.size
    if type(v) is str:
        return len(v)
    if v is NIL:
        return 0
    if type(v) is HashValue:
        return v.size
    if type(v) is Vector:
        return v.size
    return 1


# Python hashes a NaN by identity, but every NaN is ``eqv?`` to every
# other (``equality.scheme_eqv``), so all of them share this code.
_NAN_HASH = 0x7FF80000


def float_hash(v: float) -> int:
    """A float's hash, consistent with ``eqv?``: NaNs share one code."""
    return _NAN_HASH if v != v else hash(v)


def value_hash(v) -> int:
    """The structural hash consistent with ``equal?``: the one pairs,
    vectors, hash maps and the monitor's :class:`HashKey` use.  Closures
    and boxes hash by identity, as ``equal?`` compares them."""
    if type(v) is Pair:
        return v.hash
    if type(v) is HashValue:
        return v.hash_code
    if type(v) is Vector:
        return v.hash
    if type(v) is float:
        return float_hash(v)
    try:
        return hash(v)
    except TypeError:
        return id(v)


class Pair:
    """An immutable cons cell with memoized size and structural hash.

    The constructor is one of the hottest allocation sites in the system
    (every ``cons``), so the size/hash of the two common field types —
    ints and pairs — compute inline instead of through the generic
    helpers.
    """

    __slots__ = ("car", "cdr", "size", "hash")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr
        tc = type(car)
        if tc is int:
            sc = car if car >= 0 else -car
            hc = hash(car)
        elif tc is Pair:
            sc = car.size
            hc = car.hash
        else:
            sc = _value_size(car)
            hc = value_hash(car)
        td = type(cdr)
        if td is Pair:
            sd = cdr.size
            hd = cdr.hash
        elif td is int:
            sd = cdr if cdr >= 0 else -cdr
            hd = hash(cdr)
        else:
            sd = _value_size(cdr)
            hd = value_hash(cdr)
        self.size = 1 + sc + sd
        self.hash = (hc * 1000003 ^ hd) & 0x7FFFFFFF

    def __repr__(self) -> str:
        return write_value(self)


def cons(car, cdr) -> Pair:
    return Pair(car, cdr)


class Closure:
    """A closure ``(x⃗, e, ρ)``.  ``lam`` is the λ node — a source
    :class:`repro.lang.ast.Lam` under the tree machine or a compiled
    :class:`repro.lang.resolve.CLam` under the compiled machine (both carry
    ``label``, ``params``, ``name``, ``loc``); ``env`` is correspondingly a
    dict-rib :class:`~repro.values.env.Env` chain or a list frame.

    Closures hash and compare by identity (Python's defaults), which is
    what lets the compiled tiers' table step key size-change tables by
    the closure object directly — identity keying with no key wrapper."""

    __slots__ = ("lam", "env", "name")

    def __init__(self, lam, env, name: Optional[str] = None):
        self.lam = lam
        self.env = env
        self.name = name or lam.name

    @property
    def params(self) -> Tuple[Symbol, ...]:
        return self.lam.params

    def describe(self) -> str:
        return self.name or f"λ@{self.lam.loc}"

    def __repr__(self) -> str:
        return f"#<procedure:{self.describe()}>"


class Prim:
    """A primitive operation.  All primitives are total on their domain
    (no primitive may diverge — paper §3.1), so they are never monitored,
    and none calls back into the object language.  So an application of
    one can be evaluated inline, without the continuation, wherever its
    head and arity are known before the run
    (:class:`repro.lang.resolve.CApp`)."""

    __slots__ = ("name", "fn", "arity_min", "arity_max")

    _SAME = object()

    def __init__(
        self,
        name: str,
        fn: Callable,
        arity_min: int,
        arity_max=_SAME,
    ):
        self.name = name
        self.fn = fn
        self.arity_min = arity_min
        # ``arity_max=None`` means variadic; omitted means exactly arity_min.
        self.arity_max = arity_min if arity_max is Prim._SAME else arity_max

    def accepts(self, n: int) -> bool:
        if n < self.arity_min:
            return False
        return self.arity_max is None or n <= self.arity_max

    def __repr__(self) -> str:
        return f"#<procedure:{self.name}>"


class TermWrapped:
    """A ``term/c``-guarded closure (paper Fig. 7, value ``term/c(x⃗,e,ρ)``).

    ``blame`` names the party charged when a size-change violation occurs in
    the dynamic extent of a call to this value (§2.3).
    """

    __slots__ = ("closure", "blame")

    def __init__(self, closure: Closure, blame):
        self.closure = closure
        self.blame = blame

    def __repr__(self) -> str:
        return f"#<terminating/c {self.closure!r}>"


# A map of this many keys or more keeps its buckets in a :class:`Hamt`
# instead of a flat dict (``benchmarks/hash_map_sweep.py`` sizes it).
_HASH_FOLD = 32


class HashValue:
    """An immutable hash map value with ``equal?`` keys.

    Entries are grouped by their key's 31-bit code, which is consistent
    with ``equal?`` (equal keys share it; see :func:`value_hash`):
    ``buckets`` maps a code to a tuple of ``(key, value)`` pairs, scanned
    with ``k is key or scheme_equal(k, key)``.  A map of fewer than
    ``_HASH_FOLD`` keys holds its buckets in a flat ``dict`` that
    :meth:`set` copies; a larger one holds them in a :class:`Hamt` keyed
    by the code.  Either way a probe hashes and compares ints in C and
    wraps no key.

    ``size`` (one plus every key's and value's size) and ``hash_code`` (an
    XOR fold of one 31-bit term per entry) must be exact: the size is the
    map's place in the well-founded size order the monitor compares at
    every call, and ``equal?`` rejects maps whose counts or hashes differ.
    The constructor folds both over every entry; :meth:`set` keeps them
    incrementally instead, adding the new entry's terms and taking out
    the overwritten one's, so an update costs one bucket lookup and one
    copy rather than a pass over the map.
    """

    __slots__ = ("buckets", "length", "size", "hash_code")

    def __init__(self, items=()):
        """The map of ``(key, value)`` pairs whose keys are pairwise not
        ``equal?``, its size and hash folded over every entry."""
        flat = {}
        length = 0
        size = 1
        code = 0x5BD1E995
        for k, v in items:
            c = value_hash(k) & 0x7FFFFFFF
            flat[c] = flat.get(c, ()) + ((k, v),)
            length += 1
            size += _value_size(k) + _value_size(v)
            code ^= (c * 31 + value_hash(v)) & 0x7FFFFFFF
        self.buckets = flat if length < _HASH_FOLD else Hamt.from_dict(flat)
        self.length = length
        self.size = size
        self.hash_code = code & 0x7FFFFFFF

    @staticmethod
    def empty() -> "HashValue":
        return _EMPTY_HASH

    def set(self, key, value) -> "HashValue":
        tk = type(key)
        if tk is Symbol:
            c = key._hash & 0x7FFFFFFF
        elif tk is int:
            c = hash(key) & 0x7FFFFFFF
        else:
            c = value_hash(key) & 0x7FFFFFFF
        buckets = self.buckets
        bucket = buckets.get(c, ())
        k31 = c * 31
        term = (k31 + value_hash(value)) & 0x7FFFFFFF
        h = object.__new__(HashValue)
        for i, (k, old) in enumerate(bucket):
            if k is key or scheme_equal(k, key):
                # An ``equal?`` key has the stored key's size and code,
                # so only the value's terms change.
                h.length = self.length
                h.size = self.size - _value_size(old) + _value_size(value)
                h.hash_code = (self.hash_code ^ term
                               ^ ((k31 + value_hash(old)) & 0x7FFFFFFF))
                if old is value:
                    # Same entry: the stored key stays, nothing is copied.
                    h.buckets = buckets
                    return h
                bucket = bucket[:i] + ((key, value),) + bucket[i + 1:]
                break
        else:
            h.length = self.length + 1
            h.size = self.size + _value_size(key) + _value_size(value)
            h.hash_code = self.hash_code ^ term
            bucket += ((key, value),)
        if type(buckets) is dict:
            if h.length < _HASH_FOLD:
                buckets = buckets.copy()
                buckets[c] = bucket
                h.buckets = buckets
                return h
            buckets = Hamt.from_dict(buckets)
        h.buckets = buckets.set(c, bucket)
        return h

    def get(self, key, default):
        tk = type(key)
        if tk is Symbol:
            c = key._hash & 0x7FFFFFFF
        elif tk is int:
            c = hash(key) & 0x7FFFFFFF
        else:
            c = value_hash(key) & 0x7FFFFFFF
        bucket = self.buckets.get(c)
        if bucket is not None:
            for k, v in bucket:
                if k is key or scheme_equal(k, key):
                    return v
        return default

    def has_key(self, key) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

    def count(self) -> int:
        return self.length

    def items(self):
        """Every ``(key, value)`` entry, in no fixed order."""
        for bucket in self.buckets.values():
            yield from bucket

    def __repr__(self) -> str:
        return write_value(self)


_ABSENT = object()


class HashKey:
    """Adapter giving Python hashing/equality the object language's
    ``equal?`` semantics, so a :class:`Hamt` or ``dict`` can key by an
    arbitrary value (the monitor's label keying keys a table by a
    closure's captured values this way; :class:`HashValue` groups its
    entries by the same ``code`` without wrapping them).

    ``code`` is consistent with ``equal?`` (equal values hash alike), so
    keys whose codes differ are unequal without a structural walk."""

    __slots__ = ("value", "code")

    def __init__(self, value):
        self.value = value
        self.code = value_hash(value) & 0x7FFFFFFF

    def __hash__(self) -> int:
        return self.code

    def __eq__(self, other: object) -> bool:
        if type(other) is not HashKey:
            return False
        if self.value is other.value:
            return True
        if self.code != other.code:
            return False
        return scheme_equal(self.value, other.value)


_EMPTY_HASH = HashValue()


class Box:
    """A mutable cell (``box`` / ``unbox`` / ``set-box!``)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:
        return f"#&{write_value(self.value)}"


class Vector:
    """An immutable vector with memoized size and structural hash.

    Immutability keeps the well-founded size order sound (a vector's size
    can never change under a monitored extent, exactly like pairs);
    ``vector-set`` is a functional update returning a new vector.
    """

    __slots__ = ("items", "size", "hash")

    def __init__(self, items: Tuple):
        self.items = tuple(items)
        size = 1
        code = 0x9E3779B9
        for item in self.items:
            size += _value_size(item)
            code = (code * 1000003 ^ value_hash(item)) & 0x7FFFFFFF
        self.size = size
        self.hash = code

    def __repr__(self) -> str:
        return write_value(self)


class Promise:
    """A ``delay``ed computation (``(delay e)`` / ``(force p)``).

    The thunk is an ordinary closure, so forcing it is an ordinary —
    monitored — closure call; a promise only adds the memo cell.  The
    ``force`` driver lives in the prelude (object language) because no
    primitive may invoke a closure; the primitives here just read and
    write the cell.
    """

    __slots__ = ("thunk", "value", "forced")

    def __init__(self, thunk):
        self.thunk = thunk
        self.value = None
        self.forced = False

    def __repr__(self) -> str:
        if self.forced:
            return f"#<promise!{write_value(self.value)}>"
        return "#<promise>"


def size_of(v) -> Optional[int]:
    """The default well-founded size of a value, or ``None`` if the value
    has no well-founded size (floats: ``|x| < |y|`` admits infinite descent).

    Sizes: ``|n|`` for integers, ``1 + size(car) + size(cdr)`` for pairs
    (memoized), string length, 0 for nil, 1 for atoms/closures/prims.  Any
    strict decrease of this measure is well-founded, which is all the
    size-change argument needs.
    """
    if type(v) is bool:
        return 1
    if type(v) is float:
        return None
    return _value_size(v)


# -- conversions ------------------------------------------------------------


def from_datum(datum):
    """Convert a quoted datum (reader output, stripped) to a runtime value."""
    if isinstance(datum, list):
        acc = NIL
        for item in reversed(datum):
            acc = Pair(from_datum(item), acc)
        return acc
    if isinstance(datum, Dotted):
        acc = from_datum(datum.tail)
        for item in reversed(datum.items):
            acc = Pair(from_datum(item), acc)
        return acc
    return datum  # Symbol, int, float, bool, str, Char are shared


def value_to_datum(v):
    """Inverse of :func:`from_datum` for printable values."""
    if type(v) is Pair or v is NIL:
        items = []
        node = v
        while type(node) is Pair:
            items.append(value_to_datum(node.car))
            node = node.cdr
        if node is NIL:
            return items
        return Dotted(tuple(items), value_to_datum(node))
    return v


def python_to_list(values) -> object:
    """Build an object-language list from a Python iterable."""
    acc = NIL
    for v in reversed(list(values)):
        acc = Pair(v, acc)
    return acc


def list_to_python(v) -> list:
    """Flatten a proper object-language list into a Python list."""
    out = []
    while type(v) is Pair:
        out.append(v.car)
        v = v.cdr
    if v is not NIL:
        raise ValueError("improper list")
    return out


def is_list_value(v) -> bool:
    while type(v) is Pair:
        v = v.cdr
    return v is NIL


def write_value(v) -> str:
    """Render a value for display (quote-less external form)."""
    if v is True:
        return "#t"
    if v is False:
        return "#f"
    if v is NIL:
        return "()"
    if v is VOID:
        return "#<void>"
    if type(v) is Pair:
        parts = []
        node = v
        while type(node) is Pair:
            parts.append(write_value(node.car))
            node = node.cdr
        if node is NIL:
            return "(" + " ".join(parts) + ")"
        return "(" + " ".join(parts) + " . " + write_value(node) + ")"
    if isinstance(v, Symbol):
        return v.name
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, Char):
        return f"#\\{v.external_name()}"
    if isinstance(v, HashValue):
        # Sorted by written key, then value: entry order follows key
        # codes, and symbol and string keys hash by Python's per-process
        # randomized ``hash``.  Entries whose texts tie print alike in
        # either order.
        inner = " ".join(
            f"({k} . {val})" for k, val in sorted(
                (write_value(k), write_value(val)) for k, val in v.items()))
        return f"#hash({inner})"
    if isinstance(v, Vector):
        return "#(" + " ".join(write_value(x) for x in v.items) + ")"
    if isinstance(v, Promise):
        # Deliberately opaque about the memoized value: two runs must
        # print the same text whether or not a promise happens to have
        # been forced before the answer was rendered.
        return "#<promise>"
    return repr(v)


# ``equality`` imports this module's types, so it is bound last; every
# name it reads from here is defined by now.
from repro.values.equality import scheme_equal  # noqa: E402
