"""Python front-end overhead: the Fig. 10 question asked of the
``@terminating`` decorator and the full-extent profiler.

The paper's shape to reproduce: overhead is a roughly input-independent
constant factor, negligible for call-sparse workloads, large for tight
loops; backoff trims it; full-extent (profile-hook) monitoring is the
most expensive mode.

Each workload is built by a factory so that applying the decorator
rebinds the *closure cell* the recursion goes through — every recursive
call is monitored, exactly like a decorated ``def`` at module scope.
"""

import pytest

from repro.pyterm import monitor_extent, terminating


def make_fact(decorate=None):
    def fact(n):
        return 1 if n == 0 else n * fact(n - 1)

    if decorate is not None:
        fact = decorate(fact)
    return fact


def make_sum(decorate=None):
    def sum_list(xs):
        return 0 if not xs else xs[0] + sum_list(xs[1:])

    if decorate is not None:
        sum_list = decorate(sum_list)
    return sum_list


def make_msort(decorate=None):
    def msort(xs):
        if len(xs) <= 1:
            return xs
        mid = len(xs) // 2
        return merge(msort(xs[:mid]), msort(xs[mid:]))

    def merge(xs, ys):
        if not xs:
            return ys
        if not ys:
            return xs
        if xs[0] <= ys[0]:
            return [xs[0]] + merge(xs[1:], ys)
        return [ys[0]] + merge(xs, ys[1:])

    if decorate is not None:
        msort = decorate(msort)
        merge = decorate(merge)
    return msort


_WORKLOADS = {
    "factorial": (make_fact, (300,), None),
    "sum": (make_sum, (list(range(300)),), None),
    "merge-sort": (make_msort, (list(range(64, 0, -1)),),
                   list(range(1, 65))),
}

_DECORATORS = {
    "unchecked": None,
    "terminating": terminating,
    "terminating-backoff": lambda f: terminating(f, backoff=True),
}


@pytest.mark.parametrize("workload", list(_WORKLOADS))
@pytest.mark.parametrize("mode", list(_DECORATORS))
def test_pyterm_overhead(benchmark, workload, mode):
    factory, args, expected = _WORKLOADS[workload]
    fn = factory(_DECORATORS[mode])
    benchmark.group = f"pyterm:{workload}"
    result = benchmark(lambda: fn(*args))
    if expected is not None:
        assert result == expected


@pytest.mark.parametrize("workload", list(_WORKLOADS))
def test_pyterm_extent_overhead(benchmark, workload):
    factory, args, expected = _WORKLOADS[workload]
    fn = factory(None)
    benchmark.group = f"pyterm:{workload}"

    def run():
        with monitor_extent():
            return fn(*args)

    result = benchmark(run)
    if expected is not None:
        assert result == expected


def test_extent_backoff(benchmark):
    """Backoff inside the profile hook recovers much of the extent cost."""
    fn = make_sum(None)
    xs = list(range(300))
    benchmark.group = "pyterm:sum"

    def run():
        with monitor_extent(backoff=True):
            return fn(xs)

    benchmark(run)


def test_mc_decorator_cost(benchmark):
    """MC graphs on the Python decorator: the count-up idiom it enables."""
    benchmark.group = "pyterm:count-up"

    def scan(decorate):
        def go(i, xs):
            return 0 if i >= len(xs) else xs[i] + go(i + 1, xs)

        go = decorate(go)
        return go

    fn = scan(lambda f: terminating(f, graphs="mc"))
    xs = list(range(120))
    assert benchmark(lambda: fn(0, xs)) == sum(xs)


def test_measure_decorator_cost(benchmark):
    """The SC alternative: a custom measure for the same loop."""
    benchmark.group = "pyterm:count-up"

    def scan(decorate):
        def go(i, xs):
            return 0 if i >= len(xs) else xs[i] + go(i + 1, xs)

        go = decorate(go)
        return go

    fn = scan(lambda f: terminating(
        f, measure=lambda a: (len(a[1]) - a[0],)))
    xs = list(range(120))
    assert benchmark(lambda: fn(0, xs)) == sum(xs)
