"""Differential suite: every monitor configuration on every tier.

The compiled tiers run one table step per strategy —
:func:`~repro.sct.monitor.table_step` (cm) and
:func:`~repro.sct.monitor.mut_step` (imperative) — for every monitor
configuration, and the native trampoline runs the same steps, so the
native tier falls back only for λs that are not hot yet or that the
emitter rejected.  This suite pins that for the configurations other
suites leave out (the imperative strategy, label keying, event streams,
backoff): every Table 1 and extras program on the tree, compiled and
ahead-of-time native machines gives identical answers, violation text,
``steps``, event streams and monitor statistics, and every native run
enters a native frame.
"""

import pytest

from repro.bench.ablation import _workloads as _ablation_workloads
from repro.bench.ablation import run_ablation
from repro.corpus import all_programs, extra_programs
from repro.eval.machine import Answer, run_program, run_source
from repro.eval.native import ensure_native_program
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.values.values import list_to_python, write_value

PROGRAMS = all_programs() + extra_programs()
MACHINES = ("tree", "compiled", "native")
MAX_STEPS = 30_000_000

# name -> (strategy, SCMonitor keyword arguments)
CONFIGS = {
    "imperative": ("imperative", {}),
    "imperative+events": ("imperative", {"events": True}),
    "imperative+label": ("imperative", {"keying": "label"}),
    "events": ("cm", {"events": True}),
    "label": ("cm", {"keying": "label"}),
    "label+backoff": ("cm", {"keying": "label", "backoff": True}),
}


def _event(ev):
    if ev[0] == "return":
        return ev
    tag, fn, margs, graph, params = ev
    return (tag, fn, [write_value(a) for a in margs], graph, params)


def observe(answer, monitor):
    """Everything a run exposes except ``tier``."""
    return (
        answer.kind,
        write_value(answer.value) if answer.kind == Answer.VALUE else None,
        answer.output,
        answer.steps,
        str(answer.violation) if answer.violation is not None else None,
        str(answer.error) if answer.kind == Answer.RT_ERROR else None,
        None if monitor.events is None else
        [_event(ev) for ev in monitor.events],
        monitor.calls_seen,
        monitor.checks_done,
    )


def run_config(source, config, machine, measures=None, mode="full"):
    """Run ``source`` under ``config`` on ``machine`` (native: on an
    ahead-of-time parse); returns (answer, observables)."""
    strategy, kwargs = CONFIGS[config]
    kwargs = dict(kwargs)
    if kwargs.pop("events", False):
        kwargs["events"] = []
    monitor = SCMonitor(measures=measures, **kwargs)
    parsed = parse_program(source)
    if machine == "native":
        ensure_native_program(parsed)
    answer = run_program(parsed, mode=mode, strategy=strategy,
                         monitor=monitor, fuel=MAX_STEPS,
                         machine=machine)
    return answer, observe(answer, monitor)


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
def test_corpus_identical_across_tiers(prog, config):
    runs = {m: run_config(prog.source, config, m, prog.measures)
            for m in MACHINES}
    tree = runs["tree"][1]
    assert runs["compiled"][1] == tree
    assert runs["native"][1] == tree
    assert runs["native"][0].tier == "native"


def test_termc_violation_inside_wrapped_extent_imperative():
    # A term/c-wrapped diverging function under the imperative strategy
    # in contract mode: the wrapper starts monitoring, the violation
    # blames the wrapper's label, and each tier agrees on the witness.
    src = ("(define (spin n acc) (if (zero? n) (spin n (+ acc 1))"
           " (spin (- n 1) acc)))\n"
           "(define g (term/c spin \"spin-contract\"))\n"
           "(define (outer k) (+ 1 (g k 0)))\n"
           "(outer 20)\n")
    runs = {m: run_config(src, "imperative", m, mode="contract")
            for m in MACHINES}
    answer, tree = runs["tree"]
    assert answer.kind == Answer.SC_ERROR
    assert answer.violation.blame == "spin-contract"
    assert runs["compiled"][1] == tree
    assert runs["native"][1] == tree
    assert runs["native"][0].tier == "native"


def test_label_keying_agrees_across_machines_and_with_ablation():
    # Label keys capture closures by λ label, so every machine aliases
    # the same calls.  Keyed by captured-closure identity, ho-sc-ack did
    # 34 checks on tree but 20 compiled, and the ablation report (which
    # runs compiled) printed the 20.
    reported = {p.workload: (p.outcome, p.calls, p.checks)
                for p in run_ablation(scale="quick", repeats=1)
                if p.config == "cm+label-keying"}
    assert reported["ho-sc-ack"] == ("value", 108, 44)
    outcome = {Answer.VALUE: "value", Answer.SC_ERROR: "errorSC"}
    for name, src in _ablation_workloads("quick"):
        for machine in MACHINES:
            answer, obs = run_config(src, "label", machine)
            assert (outcome[answer.kind], obs[-2], obs[-1]) == \
                reported[name], (name, machine)


def test_label_keys_are_structural():
    # Closures of one λ over equal captured values share one interned
    # key; a captured closure is keyed by its λ label, not its identity.
    src = ("(define (mk x) (lambda (y) (+ x y)))\n"
           "(define (wrap f) (lambda (y) (f y)))\n"
           "(list (mk 1) (mk 1) (mk 2) (wrap (mk 1)) (wrap (mk 2)))\n")
    for machine in ("tree", "compiled"):
        answer = run_source(src, machine=machine)
        clos = list_to_python(answer.value)
        m = SCMonitor(keying="label")
        k = [m.key_for(c) for c in clos]
        assert k[0] is k[1] and k[0] is not k[2]
        assert k[3] is k[4]
        assert SCMonitor().key_for(clos[0]) is clos[0]


_LABEL_STATS = """
from repro.corpus import all_programs, extra_programs
from repro.eval.machine import run_program
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
for prog in all_programs() + extra_programs():
    m = SCMonitor(keying="label", measures=prog.measures)
    a = run_program(parse_program(prog.source), mode="full", monitor=m,
                    fuel=30_000_000)
    print(prog.name, a.kind, m.calls_seen, m.checks_done)
"""


def test_label_keying_is_independent_of_hash_seed():
    # Label keys compare exactly, so which calls alias cannot depend on
    # string hashing: two processes with different hash seeds agree.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.add(subprocess.run([sys.executable, "-c", _LABEL_STATS],
                                env=env, capture_output=True, text=True,
                                check=True).stdout)
    assert len(outs) == 1 and outs.pop().count("\n") == len(PROGRAMS)


# A measure whose tuple length changes along the loop: 3 -> (1 2),
# 2 -> (2 0), 1 -> (5 3 2), 0 -> (0 3).  The arity-2 composition set must
# be widened when the 3-tuple arrives, or its bits spill across rows and
# the loop runs unchecked until fuel runs out.
VARLEN_SRC = "(define (f n) (if (= n 0) (f 3) (f (- n 1)))) (f 3)"
VARLEN_MEASURE = {0: (0, 3), 1: (5, 3, 2), 2: (2, 0), 3: (1, 2)}


def test_variable_length_measure_flags_on_every_tier():
    seen = {}
    for machine in MACHINES:
        for engine in ("bitmask", "reference"):
            monitor = SCMonitor(
                engine=engine,
                measures={"f": lambda a: VARLEN_MEASURE[a[0]]})
            parsed = parse_program(VARLEN_SRC)
            if machine == "native":
                ensure_native_program(parsed)
            answer = run_program(parsed, mode="full", monitor=monitor,
                                 fuel=100_000, machine=machine)
            assert answer.kind == Answer.SC_ERROR, (machine, engine)
            assert answer.steps == 5 and \
                answer.violation.call_count == 5, (machine, engine)
            seen[(machine, engine)] = str(answer.violation)
    assert len(set(seen.values())) == 1, seen
