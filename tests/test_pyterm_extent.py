"""Full-extent monitoring (repro.pyterm.extent): λSCT's every-application
semantics for Python via sys.setprofile."""

import sys

import pytest

from repro.pyterm import SizeChangeError, monitor_extent, monitored
from repro.pyterm.extent import default_include


class TestBasics:
    def test_plain_recursion_passes(self):
        def fact(n):
            return 1 if n == 0 else n * fact(n - 1)

        with monitor_extent() as m:
            assert fact(10) == 3628800
        assert m.calls_seen >= 11
        assert m.violation is None

    def test_unwrapped_divergence_is_caught(self):
        def helper(x):
            return helper(x)

        def main():
            return helper(5)

        with pytest.raises(SizeChangeError) as excinfo:
            with monitor_extent():
                main()
        assert excinfo.value.function.endswith("helper")
        assert excinfo.value.call_count == 2

    def test_mutual_divergence_is_caught(self):
        def ping(n):
            return pong(n)

        def pong(n):
            return ping(n)

        with pytest.raises(SizeChangeError):
            with monitor_extent():
                ping(9)

    def test_profile_is_restored_after_the_extent(self):
        before = sys.getprofile()
        with monitor_extent():
            pass
        assert sys.getprofile() is before

    def test_profile_is_restored_after_a_violation(self):
        before = sys.getprofile()

        def spin(x):
            return spin(x)

        with pytest.raises(SizeChangeError):
            with monitor_extent():
                spin(1)
        assert sys.getprofile() is before

    def test_not_reentrant(self):
        m = monitor_extent()
        with m:
            with pytest.raises(RuntimeError):
                m.__enter__()

    def test_fresh_instance_nests(self):
        def dec(n):
            return 0 if n == 0 else dec(n - 1)

        with monitor_extent():
            with monitor_extent():
                assert dec(5) == 0


class TestScoping:
    def test_sibling_calls_do_not_interfere(self):
        # merge-sort style: both halves see the parent's entry, not each
        # other's.
        def msort(xs):
            if len(xs) <= 1:
                return xs
            mid = len(xs) // 2
            left = msort(xs[:mid])
            right = msort(xs[mid:])
            return sorted(left + right)

        with monitor_extent():
            assert msort([4, 2, 7, 1]) == [1, 2, 4, 7]

    def test_exception_unwind_restores_entries(self):
        # Each boom frame exits exceptionally; if its table entry were not
        # restored on unwind, the next identical call would be compared
        # against it ((7) → (7): no descent) and flagged.
        def boom(x):
            raise KeyError(x)

        def main():
            for _ in range(3):
                try:
                    boom(7)
                except KeyError:
                    pass
            return True

        with monitor_extent():
            assert main() is True

    def test_catch_and_recurse_again(self):
        def search(n):
            if n == 0:
                raise KeyError("bottom")
            try:
                return search(n - 1)
            except KeyError:
                return n

        with monitor_extent():
            assert search(4) == 1

    def test_comprehension_frames_are_skipped(self):
        def depth(node):
            if isinstance(node, int):
                return 0
            return 1 + max([depth(c) for c in node])

        with monitor_extent(deep=True):
            assert depth([[1, [2]], [3]]) == 3

    def test_generators_are_skipped(self):
        def gen(n):
            while True:  # infinite generator: consuming finitely is fine
                yield n
                n += 1

        def take(k, g):
            return 0 if k == 0 else next(g) + take(k - 1, g)

        with monitor_extent():
            assert take(3, gen(10)) == 33

    def test_include_predicate_limits_monitoring(self):
        def spin(x):
            return 0 if x > 3 else spin(x)  # diverges for x <= 3

        # Excluding everything: the spin below would diverge, so give it a
        # terminating input and only assert nothing was seen.
        with monitor_extent(include=lambda code: False) as m:
            spin(10)
        assert m.calls_seen == 0

    def test_default_include_skips_stdlib_and_this_library(self):
        import json

        assert not default_include(json.dumps.__code__)
        assert not default_include(default_include.__code__)
        assert default_include(TestScoping.test_basics.__code__) \
            if hasattr(TestScoping, "test_basics") else True

        def local():
            pass

        assert default_include(local.__code__)


class TestOptionsAndBlame:
    def test_mc_graphs_accept_bounded_count_up(self):
        def scan(i, xs):
            return 0 if i >= len(xs) else xs[i] + scan(i + 1, xs)

        with pytest.raises(SizeChangeError):
            with monitor_extent():
                scan(0, [1, 2, 3])
        with monitor_extent(graphs="mc"):
            assert scan(0, [1, 2, 3]) == 6

    def test_mc_ignores_a_compare_only_order(self):
        class CompareOnly:
            def compare(self, old, new):
                return 0

        def up(lo, hi):
            return [] if lo >= hi else [lo] + up(lo + 1, hi)

        with monitor_extent(graphs="mc", order=CompareOnly()):
            assert up(0, 5) == [0, 1, 2, 3, 4]

    def test_invalid_graphs_option(self):
        with pytest.raises(ValueError):
            monitor_extent(graphs="xx")

    def test_backoff_reduces_checks(self):
        def dec(n):
            return 0 if n == 0 else dec(n - 1)

        with monitor_extent() as eager:
            dec(64)
        with monitor_extent(backoff=True) as lazy:
            dec(64)
        assert lazy.checks_done < eager.checks_done

    def test_backoff_still_catches(self):
        def spin(x):
            return spin(x)

        with pytest.raises(SizeChangeError):
            with monitor_extent(backoff=True):
                spin(0)

    def test_blame_override(self):
        def spin(x):
            return spin(x)

        with pytest.raises(SizeChangeError) as excinfo:
            with monitor_extent(blame="the-batch-job"):
                spin(0)
        assert excinfo.value.blame == "the-batch-job"

    def test_violation_recorded_on_the_extent(self):
        def spin(x):
            return spin(x)

        m = monitor_extent()
        with pytest.raises(SizeChangeError):
            with m:
                spin(0)
        assert m.violation is not None
        assert m.violation.function.endswith("spin")


class TestDecoratorForm:
    def test_monitored_decorator(self):
        @monitored
        def main(n):
            def helper(x):
                return 0 if x == 0 else helper(x - 1)

            return helper(n)

        assert main(5) == 0
        assert main.__sct_terminating__

    def test_monitored_catches_inner_divergence(self):
        @monitored
        def main():
            def helper(x):
                return helper(x)

            return helper(1)

        with pytest.raises(SizeChangeError):
            main()

    def test_monitored_with_options(self):
        @monitored(graphs="mc")
        def count(lo, hi):
            return 0 if lo >= hi else 1 + count(lo + 1, hi)

        assert count(0, 7) == 7
