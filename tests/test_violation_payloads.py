"""Violation-payload byte identity: the rendered ``SizeChangeViolation``
must be identical across machine × engine for every diverging program.

The bitmask engine stores graphs as packed machine ints and unpacks to
the reference :class:`~repro.sct.graph.SCGraph` representation only
when raising, so the *observable* payload — blame label, call-pattern
rendering, the offending composed graph — must not depend on which
engine composed it, nor on which machine drove the evaluation."""

import pytest

from repro.corpus import conservative_programs, diverging_programs
from repro.eval.machine import Answer, run_source
from repro.fuzz.gen import generate_program
from repro.pyterm import SizeChangeError, monitor_extent, terminating
from repro.sct.errors import SizeChangeViolation
from repro.sct.monitor import SCMonitor

DIVERGING = diverging_programs()
CONSERVATIVE = conservative_programs()
MACHINES = ("tree", "compiled")
ENGINES = ("bitmask", "reference")


def _payloads(source, measures=None, fuel=37_500):
    out = {}
    for machine in MACHINES:
        for engine in ENGINES:
            monitor = SCMonitor(engine=engine, measures=measures)
            a = run_source(source, mode="full", monitor=monitor,
                           machine=machine, fuel=fuel)
            out[(machine, engine)] = (a.kind, str(a.violation)
                                      if a.violation is not None else None)
    return out


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
def test_corpus_diverging_payloads_identical(prog):
    payloads = _payloads(prog.source, measures=prog.measures)
    kinds = {k for k, _ in payloads.values()}
    assert kinds == {Answer.SC_ERROR}, payloads
    rendered = {v for _, v in payloads.values()}
    assert len(rendered) == 1, payloads


@pytest.mark.parametrize("prog", CONSERVATIVE,
                         ids=[p.name for p in CONSERVATIVE])
def test_conservative_flag_payloads_identical(prog):
    """The §1 'unavoidable wrinkle' programs terminate but are flagged —
    the *flag itself* must also be byte-identical everywhere."""
    payloads = _payloads(prog.source, fuel=30_000_000)
    kinds = {k for k, _ in payloads.values()}
    assert kinds == {Answer.SC_ERROR}, payloads
    rendered = {v for _, v in payloads.values()}
    assert len(rendered) == 1, payloads


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 9])
def test_generated_diverging_payloads_identical(seed):
    program = generate_program(seed, "diverging")
    payloads = _payloads(program.source, fuel=program.fuel)
    # A planted loop is either flagged (usual) or, under a skip-free
    # monitor, always flagged before fuel runs out — either way every
    # cell must agree byte-for-byte.
    assert len(set(payloads.values())) == 1, payloads


def test_payload_is_stable_across_strategies():
    """The cm and imperative table strategies observe the same call
    pattern, so the payload matches there too."""
    prog = DIVERGING[0]
    rendered = set()
    for strategy in ("cm", "imperative"):
        monitor = SCMonitor(measures=prog.measures)
        a = run_source(prog.source, mode="full", strategy=strategy,
                       monitor=monitor, fuel=37_500)
        assert a.kind == Answer.SC_ERROR
        rendered.add(str(a.violation))
    assert len(rendered) == 1


# One witness across front ends: the same two loops written once in the
# embedded language and once in Python must raise the same witness on
# every machine and under both Python front ends, which all step the one
# SCMonitor evidence step.
_SCHEME_LOOPS = {
    "stuck": "(define (f a b) (f a b)) (f 3 4)",
    "swap": "(define (f a b) (f b a)) (f 3 4)",
}


def _python_loop(kind, decorate=None):
    if kind == "stuck":
        def f(a, b):
            return f(a, b)
    else:
        def f(a, b):
            return f(b, a)
    if decorate is not None:
        f = decorate(f)
    return f


def _witness(violation):
    names = ["a", "b"]
    return (violation.call_count, violation.graph.pretty(names),
            violation.composition.pretty(names))


@pytest.mark.parametrize("kind", sorted(_SCHEME_LOOPS))
def test_one_witness_across_front_ends(kind):
    assert SizeChangeError is SizeChangeViolation
    witnesses = {}
    for machine in ("tree", "compiled", "native"):
        a = run_source(_SCHEME_LOOPS[kind], mode="full", machine=machine,
                       fuel=1000)
        assert a.kind == Answer.SC_ERROR, (machine, a.kind)
        witnesses[machine] = _witness(a.violation)
    with pytest.raises(SizeChangeError) as decorated:
        _python_loop(kind, terminating)(3, 4)
    witnesses["@terminating"] = _witness(decorated.value)
    with pytest.raises(SizeChangeError) as extent:
        with monitor_extent():
            _python_loop(kind)(3, 4)
    witnesses["monitor_extent"] = _witness(extent.value)
    assert len(set(witnesses.values())) == 1, witnesses
