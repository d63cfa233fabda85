"""Value model tests: sizes, memoization, equality, conversions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.prims import PRIMITIVES
from repro.sexp.datum import Char, intern
from repro.values.env import Env, GlobalEnv, UnboundVariable
from repro.values.equality import scheme_equal, scheme_eqv
from repro.values.values import (
    NIL,
    VOID,
    Box,
    _HASH_FOLD,
    HashKey,
    HashValue,
    Pair,
    cons,
    from_datum,
    list_to_python,
    python_to_list,
    size_of,
    value_hash,
    value_to_datum,
    write_value,
)

import pytest


class TestSizes:
    def test_int_size_is_abs(self):
        assert size_of(5) == 5
        assert size_of(-5) == 5
        assert size_of(0) == 0

    def test_bool_size(self):
        assert size_of(True) == 1
        assert size_of(False) == 1

    def test_float_has_no_size(self):
        assert size_of(1.5) is None

    def test_nil(self):
        assert size_of(NIL) == 0

    def test_pair_size_memoized(self):
        p = cons(1, cons(2, NIL))
        assert p.size == 1 + 1 + (1 + 2 + 0)
        assert size_of(p) == p.size

    def test_tail_smaller_than_list(self):
        lst = python_to_list([1, 2, 3])
        assert size_of(lst.cdr) < size_of(lst)

    def test_string_size_is_length(self):
        assert size_of("abc") == 3

    def test_atom_sizes(self):
        assert size_of(intern("s")) == 1
        assert size_of(Char("x")) == 1

    def test_hash_size_counts_entries(self):
        h0 = HashValue.empty()
        h1 = h0.set(intern("a"), 5)
        assert h1.size > h0.size


class TestEquality:
    def test_eqv_numbers(self):
        assert scheme_eqv(3, 3)
        assert not scheme_eqv(3, 4)
        assert not scheme_eqv(3, 3.0)

    def test_bool_is_not_int(self):
        assert not scheme_eqv(True, 1)
        assert not scheme_equal(False, 0)

    def test_symbols(self):
        assert scheme_eqv(intern("a"), intern("a"))
        assert not scheme_eqv(intern("a"), intern("b"))

    def test_chars(self):
        assert scheme_eqv(Char("a"), Char("a"))
        assert not scheme_eqv(Char("a"), Char("b"))

    def test_pairs_structural(self):
        a = from_datum([1, [2, 3]])
        # build an equal structure separately
        b = cons(1, cons(cons(2, cons(3, NIL)), NIL))
        assert scheme_equal(a, b)
        assert not scheme_eqv(a, b)

    def test_unequal_pairs(self):
        assert not scheme_equal(python_to_list([1, 2]), python_to_list([1, 3]))
        assert not scheme_equal(python_to_list([1, 2]), python_to_list([1, 2, 3]))

    def test_pair_vs_other(self):
        assert not scheme_equal(cons(1, NIL), 1)
        assert not scheme_equal(NIL, False)

    def test_strings(self):
        assert scheme_equal("ab", "ab")
        assert not scheme_equal("ab", "ba")

    def test_hash_equal(self):
        h1 = HashValue.empty().set(intern("a"), 1).set(intern("b"), 2)
        h2 = HashValue.empty().set(intern("b"), 2).set(intern("a"), 1)
        assert scheme_equal(h1, h2)
        assert not scheme_equal(h1, h1.set(intern("c"), 3))

    def test_hash_structural_keys(self):
        key1 = python_to_list([1, 2])
        key2 = python_to_list([1, 2])
        h = HashValue.empty().set(key1, "v")
        assert h.get(key2, None) == "v"

    def test_value_hash_consistent_with_equal(self):
        a = python_to_list([1, "x", intern("s")])
        b = python_to_list([1, "x", intern("s")])
        assert scheme_equal(a, b)
        assert value_hash(a) == value_hash(b)


class TestFloatEqv:
    """``eqv?`` on floats is Racket's, not ``=``: ``0.0`` and ``-0.0``
    differ, and NaN is ``eqv?`` to NaN.  Every hash stays consistent
    with ``equal?``, so two NaN objects share a code."""

    def test_signed_zeros_differ(self):
        assert not scheme_eqv(0.0, -0.0)
        assert not scheme_equal(0.0, -0.0)
        assert scheme_eqv(-0.0, -0.0)
        assert scheme_eqv(1.5, 1.5)
        assert not scheme_eqv(1.5, 2.5)

    def test_nan_is_eqv_to_nan(self):
        a, b = float("nan"), float("nan")
        assert a is not b
        assert scheme_eqv(a, b)
        assert scheme_equal(python_to_list([1, a]), python_to_list([1, b]))
        assert not scheme_eqv(a, 0.0)
        assert not scheme_eqv(float("inf"), a)

    def test_nan_hashes_alike(self):
        a, b = float("nan"), float("nan")
        assert value_hash(a) == value_hash(b)
        assert value_hash(python_to_list([a])) == \
            value_hash(python_to_list([b]))
        assert HashKey(a) == HashKey(b)
        assert hash(HashKey(a)) == hash(HashKey(b))

    def test_signed_zeros_are_separate_keys(self):
        h = HashValue.empty().set(0.0, "pos").set(-0.0, "neg")
        assert h.count() == 2
        assert h.get(0.0, None) == "pos"
        assert h.get(-0.0, None) == "neg"
        assert write_value(h) == '#hash((-0.0 . "neg") (0.0 . "pos"))'

    def test_nan_key_found_by_another_nan(self):
        h = HashValue.empty().set(float("nan"), 1)
        assert h.get(float("nan"), None) == 1
        assert h.set(float("nan"), 2).count() == 1

    @pytest.mark.parametrize("machine", ["tree", "compiled", "native"])
    def test_object_language(self, machine):
        from repro.eval.machine import run_source

        src = ("(list (eqv? 0.0 -0.0) (equal? 0.0 -0.0) (= 0.0 -0.0) "
               "(eqv? -0.0 -0.0) (hash-count (hash-set (hash 0.0 1) -0.0 2))"
               " (memv -0.0 (list 0.0 1)))")
        answer = run_source(src, machine=machine)
        assert write_value(answer.value) == "(#f #f #t #t 2 #f)"


class TestConversions:
    def test_from_datum_list(self):
        v = from_datum([1, 2])
        assert type(v) is Pair and v.car == 1 and v.cdr.car == 2 and v.cdr.cdr is NIL

    def test_roundtrip(self):
        datum = [1, [intern("a"), "s"], Char("c"), True]
        assert value_to_datum(from_datum(datum)) == datum

    def test_list_to_python_rejects_improper(self):
        with pytest.raises(ValueError):
            list_to_python(cons(1, 2))


class TestWrite:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (True, "#t"),
            (False, "#f"),
            (NIL, "()"),
            (VOID, "#<void>"),
            (intern("sym"), "sym"),
            ("hi", '"hi"'),
            (Char("a"), "#\\a"),
            (cons(1, 2), "(1 . 2)"),
        ],
    )
    def test_write(self, value, expected):
        assert write_value(value) == expected

    def test_write_list(self):
        assert write_value(python_to_list([1, 2, 3])) == "(1 2 3)"

    def test_box_repr(self):
        assert "5" in repr(Box(5))


class TestEnv:
    def test_global_define_lookup(self):
        g = GlobalEnv()
        g.define(intern("x"), 1)
        assert g.lookup(intern("x")) == 1

    def test_global_unbound(self):
        with pytest.raises(UnboundVariable):
            GlobalEnv().lookup(intern("nope"))

    def test_chained_lookup(self):
        g = GlobalEnv({"x": 1})
        e = Env({intern("y"): 2}, g)
        e2 = Env({intern("y"): 3}, e)
        assert e2.lookup(intern("y")) == 3
        assert e.lookup(intern("y")) == 2
        assert e2.lookup(intern("x")) == 1

    def test_set_walks_chain(self):
        g = GlobalEnv({"x": 1})
        e = Env({intern("y") : 2}, g)
        e.set(intern("x"), 10)
        assert g.lookup(intern("x")) == 10

    def test_set_unbound_raises(self):
        with pytest.raises(UnboundVariable):
            Env({}, GlobalEnv()).set(intern("zz"), 1)

    def test_snapshot_isolates(self):
        g = GlobalEnv({"x": 1})
        s = g.snapshot()
        s.define(intern("x"), 99)
        assert g.lookup(intern("x")) == 1


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    st.one_of(st.integers(-50, 50), st.booleans(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=15,
))
def test_size_positive_and_equal_structures_share_size(datum):
    v1 = from_datum(datum)
    v2 = from_datum(datum)
    assert scheme_equal(v1, v2)
    assert size_of(v1) == size_of(v2)
    assert size_of(v1) >= 0


# -- hash maps: incremental size and hash against the full fold --------------
#
# A value is drawn as a recipe and built afresh at every use, so an
# overwrite's key is ``equal?`` to the stored key without being it (a
# freshly consed pair, a fresh string, a fresh nested map).

_ATOMS = st.one_of(
    st.tuples(st.just("int"), st.integers(-1000, 1000)),
    st.tuples(st.just("float"), st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.5]),
        st.floats(allow_nan=False, allow_infinity=False, width=32))),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("sym"), st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("char"), st.sampled_from(["x", "y", " "])),
    st.tuples(st.just("str"), st.text(alphabet="ab", max_size=4)),
)
_RECIPES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.just("pair"), inner, inner),
        st.tuples(st.just("hash"),
                  st.lists(st.tuples(inner, inner), max_size=3)),
    ),
    max_leaves=6,
)


def _build(recipe):
    tag = recipe[0]
    if tag == "float":
        return float(recipe[1])
    if tag == "sym":
        return intern(recipe[1])
    if tag == "char":
        return Char(recipe[1])
    if tag == "str":
        return "".join(list(recipe[1]))
    if tag == "pair":
        return Pair(_build(recipe[1]), _build(recipe[2]))
    if tag == "hash":
        h = HashValue.empty()
        for k, v in recipe[1]:
            h = h.set(_build(k), _build(v))
        return h
    return recipe[1]


def _folded(h):
    ref = HashValue(h.items())
    return ref.size, ref.hash_code


# Keys whose codes collide without being ``equal?``: ``1``, ``1.0`` and
# ``#t`` share code 1, ``0``, ``0.0`` and ``#f`` code 0, and a string and
# a symbol of one text share Python's string hash.
_COLLIDING = [("int", 1), ("float", 1.0), ("bool", True), ("int", 0),
              ("float", 0.0), ("bool", False), ("str", "ab"), ("sym", "ab")]
_KEYS = st.one_of(_RECIPES, st.sampled_from(_COLLIDING))


def _filler(j):
    """The j-th extra key that carries a map past the fold point: a
    symbol, a string or a freshly consed pair."""
    return [("sym", f"k{j}"), ("str", f"k{j}"),
            ("pair", ("int", j), ("sym", "k"))][j % 3]


def _model_set(model, recipe, key, value):
    """``hash-set`` on an association list of ``[recipe, key, value]``:
    an ``equal?`` key takes the new key and value, unless the value is
    the stored one, which keeps the entry as it is."""
    for entry in model:
        if scheme_equal(entry[1], key):
            if entry[2] is not value:
                entry[:] = [recipe, key, value]
            return
    model.append([recipe, key, value])


def _check_against(h, model):
    missing = object()
    for recipe, _key, value in model:
        probe = _build(recipe)
        assert h.get(probe, missing) is value
        assert h.has_key(probe)
    for recipe in _COLLIDING:
        probe = _build(recipe)
        assert h.has_key(probe) == any(
            scheme_equal(probe, k) for _, k, _ in model)
    ref = HashValue((k, v) for _, k, v in model)
    assert h.count() == ref.count() == len(model)
    assert (h.size, h.hash_code) == (ref.size, ref.hash_code) == _folded(h)
    assert scheme_equal(h, ref) and scheme_equal(ref, h)
    printed = sorted((write_value(k), write_value(v)) for _, k, v in model)
    assert write_value(h) == "#hash(" + " ".join(
        f"({k} . {v})" for k, v in printed) + ")"


@settings(max_examples=300, deadline=None)
@given(st.lists(_KEYS, min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 5), _RECIPES), max_size=40),
       st.integers(0, 2 * _HASH_FOLD))
def test_hash_set_keeps_size_and_hash_exact(keys, sets, fill):
    """After every ``set`` (a new key or an overwrite through an
    ``equal?`` key), on maps below and past the fold point, ``get``,
    ``has_key``, ``count``, ``size``, ``hash_code``, ``equal?`` and the
    printed form agree with an association-list model, and ``size`` and
    ``hash_code`` with the full fold."""
    steps = [(keys[i % len(keys)], value) for i, value in sets]
    half = len(steps) // 2
    steps[half:half] = [(_filler(j), ("int", j)) for j in range(fill)]
    h = HashValue.empty()
    model = []
    for key_recipe, value_recipe in steps:
        key, value = _build(key_recipe), _build(value_recipe)
        h = h.set(key, value)
        _model_set(model, key_recipe, key, value)
        _check_against(h, model)
    assert (type(h.buckets) is dict) == (len(model) < _HASH_FOLD)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _RECIPES), max_size=12),
       st.lists(_RECIPES, min_size=1, max_size=4))
def test_hash_constructor_agrees_with_chained_hash_set(pairs, keys):
    """``(hash k v ...)`` with repeated keys builds the map that chained
    ``hash-set`` builds: same size, hash and ``hash-count``."""
    hash_p = PRIMITIVES[intern("hash")]
    hash_set = PRIMITIVES[intern("hash-set")]
    hash_count = PRIMITIVES[intern("hash-count")]
    args = []
    for i, value in pairs:
        args += [_build(keys[i % len(keys)]), _build(value)]
    built = hash_p.fn(args)
    chained = HashValue.empty()
    for i, value in pairs:
        chained = hash_set.fn([chained, _build(keys[i % len(keys)]),
                               _build(value)])
    assert (built.size, built.hash_code) == (chained.size, chained.hash_code)
    assert (built.size, built.hash_code) == _folded(built)
    assert hash_count.fn([built]) == hash_count.fn([chained])
    assert scheme_equal(built, chained)
