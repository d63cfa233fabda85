"""Unit and property tests for the persistent HAMT."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ds.hamt import Hamt
from repro.eval.machine import run_source
from repro.values.values import Closure, list_to_python


class TestBasics:
    def test_empty(self):
        m = Hamt.empty()
        assert len(m) == 0
        assert m.get("x") is None
        assert m.get("x", 42) == 42
        assert "x" not in m

    def test_empty_is_shared(self):
        assert Hamt.empty() is Hamt.empty()

    def test_set_get(self):
        m = Hamt.empty().set("a", 1)
        assert m["a"] == 1
        assert "a" in m
        assert len(m) == 1

    def test_persistence(self):
        m0 = Hamt.empty()
        m1 = m0.set("a", 1)
        m2 = m1.set("a", 2)
        m3 = m1.set("b", 3)
        assert m0.get("a") is None
        assert m1["a"] == 1
        assert m2["a"] == 2
        assert m3["a"] == 1 and m3["b"] == 3

    def test_overwrite_keeps_count(self):
        m = Hamt.empty().set("a", 1).set("a", 2)
        assert len(m) == 1

    def test_set_same_value_returns_self(self):
        one = object()
        m = Hamt.empty().set("a", one)
        assert m.set("a", one) is m

    def test_delete(self):
        m = Hamt.empty().set("a", 1).set("b", 2)
        d = m.delete("a")
        assert "a" not in d and d["b"] == 2
        assert m["a"] == 1  # original untouched
        assert len(d) == 1

    def test_delete_absent_is_noop(self):
        m = Hamt.empty().set("a", 1)
        assert m.delete("zzz") is m

    def test_delete_to_empty(self):
        m = Hamt.empty().set("a", 1).delete("a")
        assert len(m) == 0

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            Hamt.empty()["nope"]

    def test_from_dict_and_back(self):
        d = {i: i * i for i in range(100)}
        m = Hamt.from_dict(d)
        assert m.to_dict() == d

    def test_iteration(self):
        m = Hamt.from_dict({"a": 1, "b": 2})
        assert sorted(m.keys()) == ["a", "b"]
        assert sorted(m.values()) == [1, 2]

    def test_equality_order_independent(self):
        m1 = Hamt.empty().set("a", 1).set("b", 2)
        m2 = Hamt.empty().set("b", 2).set("a", 1)
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_inequality(self):
        assert Hamt.empty().set("a", 1) != Hamt.empty().set("a", 2)
        assert Hamt.empty().set("a", 1) != Hamt.empty()


class _Collider:
    """All instances share one hash: forces collision nodes."""

    def __init__(self, tag):
        self.tag = tag

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, _Collider) and other.tag == self.tag


class TestCollisions:
    def test_full_hash_collisions(self):
        keys = [_Collider(i) for i in range(20)]
        m = Hamt.empty()
        for i, k in enumerate(keys):
            m = m.set(k, i)
        assert len(m) == 20
        for i, k in enumerate(keys):
            assert m[k] == i

    def test_collision_delete(self):
        keys = [_Collider(i) for i in range(5)]
        m = Hamt.empty()
        for i, k in enumerate(keys):
            m = m.set(k, i)
        m = m.delete(keys[2])
        assert len(m) == 4
        assert m.get(keys[2]) is None
        assert m[keys[3]] == 3

    def test_collision_overwrite(self):
        m = Hamt.empty().set(_Collider(1), "x").set(_Collider(1), "y")
        assert len(m) == 1
        assert m[_Collider(1)] == "y"


class TestClosureKeys:
    """Identity-keyed size-change tables key the HAMT by the closure
    itself: closures hash and compare by identity."""

    @staticmethod
    def _twins():
        # Two closures of one λ over equal environments.
        answer = run_source("(define (mk) (lambda (x) x))\n"
                            "(list (mk) (mk))\n")
        a, b = list_to_python(answer.value)
        assert type(a) is Closure and a.lam is b.lam
        return a, b

    def test_identity_not_equality(self):
        a, b = self._twins()
        m = Hamt.empty().set(a, "a").set(b, "b")
        assert len(m) == 2
        assert m[a] == "a"
        assert m[b] == "b"

    def test_same_object_same_entry(self):
        a, _ = self._twins()
        m = Hamt.empty().set(a, 1).set(a, 2)
        assert len(m) == 1 and m[a] == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "delete"]),
            st.integers(min_value=0, max_value=40),
            st.integers(),
        ),
        max_size=80,
    )
)
def test_model_based_against_dict(ops):
    """The HAMT agrees with a plain dict under arbitrary set/delete mixes."""
    model = {}
    m = Hamt.empty()
    for op, key, value in ops:
        if op == "set":
            model[key] = value
            m = m.set(key, value)
        else:
            model.pop(key, None)
            m = m.delete(key)
        assert len(m) == len(model)
    assert m.to_dict() == model
    for k, v in model.items():
        assert m[k] == v


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=40))
def test_persistence_under_updates(d):
    """Updating never mutates earlier versions."""
    base = Hamt.from_dict(d)
    snapshot = base.to_dict()
    derived = base
    for i in range(10):
        derived = derived.set(f"new{i}", i)
    assert base.to_dict() == snapshot
