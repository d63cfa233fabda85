"""Tests for the Python-native @terminating decorator."""

import threading

import pytest

from repro.pyterm import SizeChangeError, extent_table_depth, py_size, terminating
from repro.pyterm.order import DESC, EQ, NONE, PySizeOrder


class TestPySize:
    def test_ints(self):
        assert py_size(5) == 5 and py_size(-5) == 5

    def test_bool_before_int(self):
        assert py_size(True) == 1

    def test_float_none(self):
        assert py_size(1.5) is None

    def test_containers_by_len(self):
        assert py_size([1, 2, 3]) == 3
        assert py_size((1,)) == 1
        assert py_size("abcd") == 4
        assert py_size({1: 2}) == 1
        assert py_size(set()) == 0

    def test_none_is_zero(self):
        assert py_size(None) == 0

    def test_deep_size(self):
        assert py_size([[1, 1], [1]], deep=True) == 1 + (1 + 1 + 1) + (1 + 1)

    def test_deep_size_cycle_safe(self):
        xs = [1]
        xs.append(xs)
        assert py_size(xs, deep=True) is None

    def test_sct_size_hook(self):
        class Tree:
            def __init__(self, n):
                self.n = n

            def __sct_size__(self):
                return self.n

        assert py_size(Tree(7)) == 7
        order = PySizeOrder()
        assert order.compare(Tree(7), Tree(3)) == DESC

    def test_objects_incomparable(self):
        order = PySizeOrder()
        assert order.compare(object(), object()) == NONE
        o = object()
        assert order.compare(o, o) == EQ


class TestTerminatingDecorator:
    def test_factorial(self):
        @terminating
        def fact(n):
            return 1 if n == 0 else n * fact(n - 1)

        assert fact(10) == 3628800

    def test_ackermann(self):
        @terminating
        def ack(m, n):
            if m == 0:
                return n + 1
            if n == 0:
                return ack(m - 1, 1)
            return ack(m - 1, ack(m, n - 1))

        assert ack(2, 3) == 9

    def test_list_recursion(self):
        @terminating
        def total(xs):
            return 0 if not xs else xs[0] + total(xs[1:])

        assert total(list(range(50))) == sum(range(50))

    def test_merge_sort_halves(self):
        @terminating
        def msort(xs):
            if len(xs) <= 1:
                return xs
            mid = len(xs) // 2
            left, right = msort(xs[:mid]), msort(xs[mid:])
            out = []
            while left and right:
                out.append(left.pop(0) if left[0] <= right[0] else right.pop(0))
            return out + left + right

        assert msort([5, 2, 8, 1, 9, 3]) == [1, 2, 3, 5, 8, 9]

    def test_infinite_loop_caught(self):
        @terminating
        def bad(n):
            return bad(n)

        with pytest.raises(SizeChangeError):
            bad(1)

    def test_growing_loop_caught(self):
        @terminating
        def bad(n):
            return bad(n + 1)

        with pytest.raises(SizeChangeError):
            bad(0)

    def test_mutual_recursion_through_undecorated_helper(self):
        def helper(n):
            return bad(n)

        @terminating
        def bad(n):
            return helper(n)

        with pytest.raises(SizeChangeError):
            bad(3)

    def test_table_restored_after_violation(self):
        @terminating
        def bad(n):
            return bad(n)

        with pytest.raises(SizeChangeError):
            bad(1)
        assert extent_table_depth() == 0

    def test_table_restored_after_success(self):
        @terminating
        def ok(n):
            return 0 if n == 0 else ok(n - 1)

        ok(5)
        assert extent_table_depth() == 0

    def test_fresh_extent_per_top_call(self):
        """Top-level calls are separate extents: same-argument calls from
        the top are fine; only in-extent repetition violates."""

        @terminating
        def f(n):
            return n

        assert f(5) == 5
        assert f(5) == 5  # no violation across extents

    def test_kwargs_normalized(self):
        @terminating
        def f(a, b):
            return 0 if a == 0 else f(a=a - 1, b=b)

        assert f(3, b=9) == 0

    def test_blame_label(self):
        @terminating(blame="my-party")
        def bad(n):
            return bad(n)

        with pytest.raises(SizeChangeError) as ei:
            bad(1)
        assert ei.value.blame == "my-party"

    def test_default_blame_is_qualname(self):
        @terminating
        def bad(n):
            return bad(n)

        with pytest.raises(SizeChangeError) as ei:
            bad(1)
        assert "bad" in ei.value.blame

    def test_measure_for_counting_up(self):
        @terminating(measure=lambda a: (a[1] - a[0],))
        def up(lo, hi):
            return [] if lo >= hi else [lo] + up(lo + 1, hi)

        assert up(0, 10) == list(range(10))

    def test_counting_up_without_measure_fails(self):
        @terminating
        def up(lo, hi):
            return [] if lo >= hi else [lo] + up(lo + 1, hi)

        with pytest.raises(SizeChangeError):
            up(0, 10)

    def test_backoff_catches_eventually(self):
        calls = [0]

        @terminating(backoff=True)
        def bad(n):
            calls[0] += 1
            if calls[0] > 1000:  # safety net for the test itself
                raise RuntimeError("monitor failed to stop the loop")
            return bad(n)

        with pytest.raises(SizeChangeError):
            bad(1)
        assert calls[0] < 20

    def test_deep_ordering(self):
        for options in ({"deep": True}, {"graphs": "mc", "deep": True}):
            @terminating(**options)
            def count_tree(t):
                # shrinks total node count but not necessarily len()
                if isinstance(t, list) and t:
                    return 1 + count_tree(t[0]) + count_tree(t[1:] if len(t) > 1 else [])
                return 0

            assert count_tree([[1, 2], 3]) >= 0, options

    def test_mc_ignores_a_compare_only_order(self):
        """MC evidence reads sizes, never ``compare``: an ``order`` with
        only a ``compare`` method does not reach the MC monitor."""

        class CompareOnly:
            def compare(self, old, new):
                return NONE

        @terminating(graphs="mc", order=CompareOnly())
        def up(lo, hi):
            return [] if lo >= hi else [lo] + up(lo + 1, hi)

        assert up(0, 5) == [0, 1, 2, 3, 4]

    def test_exception_restores_table(self):
        @terminating
        def boom(n):
            raise ValueError("inner")

        with pytest.raises(ValueError):
            boom(1)
        assert extent_table_depth() == 0

    def test_thread_isolation(self):
        @terminating
        def walk(n):
            return 0 if n == 0 else walk(n - 1)

        results = []

        def worker():
            results.append(walk(100))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [0, 0, 0, 0]

    def test_two_decorated_functions_interleave(self):
        @terminating
        def evens(n):
            return True if n == 0 else odds(n - 1)

        @terminating
        def odds(n):
            return False if n == 0 else evens(n - 1)

        assert evens(20) is True

    def test_violation_witness_fields(self):
        @terminating
        def stuck(a, b):
            return stuck(a, b)

        with pytest.raises(SizeChangeError) as ei:
            stuck(3, 4)
        v = ei.value
        assert v.prev_args == (3, 4) and v.new_args == (3, 4)
        assert v.composition.is_idempotent()
        assert not v.composition.has_strict_self_arc()
        assert v.param_names == ["a", "b"]

    def test_wrapper_marks_itself(self):
        @terminating
        def f(n):
            return n

        assert f.__sct_terminating__ is True
        assert f.__wrapped__ is not None
