"""The sound call graph and the residual skip set's acyclic half.

The 0-CFA treats the prelude and the contract library as one opaque
closure ``ESC`` and every primitive as a store round trip, so calls made
from library code, closures that flow through data, and shadowed
primitive names all show up as edges.  A residual run then skips the
program λs on no call cycle: the program's certificate carries them, so
every parse that reads it skips them from its first run."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import callgraph, static_sct_check
from repro.analysis.callgraph import (
    ESC,
    TOP,
    acyclic_labels,
    analyze_callgraph,
    loop_entry_labels,
)
from repro.analysis.discharge import (
    VerificationCache,
    certify,
    discharge_for_run,
)
from repro.corpus import get_program
from repro.eval.machine import MACHINES, Answer, run_program
from repro.fuzz.gen import generate_program
from repro.lang import ast
from repro.lang.libraries import contracts_program, prelude_program
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value

# Each diverges through a call the library or the store makes back into
# the program's own λ.
ESCAPES = {
    "map": "(define (f x) (map f (list x))) (f 1)",
    "vector": "(define (f x) ((vector-ref (vector f) 0) x)) (f 1)",
    "shadowed-list": "(define (id list) list)\n"
                     "(define (f x) ((car (list f)) x))\n"
                     "(f (id 1))",
    "delay-force": "(define (f x) (force (delay (f x)))) (f 1)",
}


def _library_labels():
    return {n.label for lib in (prelude_program(), contracts_program())
            for n in lib.iter_nodes() if n.kind == ast.K_LAM}


def _label(program, name):
    for node in program.iter_nodes():
        if node.kind == ast.K_LAM and node.name == name:
            return node.label
    raise AssertionError(f"no λ named {name}")


@pytest.mark.parametrize("name", sorted(ESCAPES))
class TestEscapingCalls:
    def test_is_a_loop_entry(self, name):
        program = parse_program(ESCAPES[name])
        f = _label(program, "f")
        assert f in loop_entry_labels(program)
        assert f not in acyclic_labels(program)

    def test_static_sct_rejects(self, name):
        assert static_sct_check(parse_program(ESCAPES[name])).ok is False

    @pytest.mark.parametrize("machine", MACHINES)
    def test_acyclic_skip_still_ends_in_sc_error(self, name, machine):
        program = parse_program(ESCAPES[name])
        answer = run_program(program, mode="full", machine=machine,
                             discharge=acyclic_labels(program), fuel=5000)
        assert answer.kind == Answer.SC_ERROR


def test_deriv_recursion_is_a_loop_entry():
    """``deriv`` recurses through ``map``: the recursive λ is on the
    cycle deriv → ESC → deriv."""
    program = parse_program(get_program("deriv").source)
    assert _label(program, "deriv") in loop_entry_labels(program)
    graph = analyze_callgraph(program)
    deriv = _label(program, "deriv")
    assert (deriv, ESC) in graph.edges and (ESC, deriv) in graph.edges


def test_leaf_passed_to_the_library_is_skipped():
    program = parse_program(
        "(define (inc x) (+ x 1))\n"
        "(define (go l) (if (null? l) 0 (go (cdr (map inc l)))))\n"
        "(go (list 1 2 3))")
    acyclic = acyclic_labels(program)
    assert _label(program, "inc") in acyclic
    assert _label(program, "go") not in acyclic


def test_library_lambdas_are_never_skipped():
    program = parse_program("(define (g x) x) (map g (list 1 2))")
    assert acyclic_labels(program) == {_label(program, "g")}
    assert not acyclic_labels(program) & _library_labels()


# -- the graph covers every call the tree machine makes ----------------------


class _CallRecorder(SCMonitor):
    """Records each monitored call's λ label in the imperative event
    stream, whose ``return`` events make the stack of active calls."""

    def _emit_call(self, clo, margs, graph):
        self.events.append(("call", clo.lam.label))


def _observed_edges(program, fuel):
    events = []
    monitor = _CallRecorder(enforce=False, events=events)
    run_program(program, mode="full", strategy="imperative",
                monitor=monitor, machine="tree", fuel=fuel)
    library = _library_labels()
    stack = [TOP]
    seen = set()
    for event in events:
        if event[0] == "return":
            stack.pop()
            continue
        callee = ESC if event[1] in library else event[1]
        caller = stack[-1]
        stack.append(callee)
        if caller == ESC and callee == ESC:
            continue  # inside the library
        seen.add((caller, callee))
    return seen


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["terminating", "diverging"]))
def test_every_observed_call_is_a_graph_edge(seed, mode):
    gen = generate_program(seed, mode)
    program = parse_program(gen.source)
    observed = _observed_edges(program, fuel=min(gen.fuel, 3000))
    missing = observed - analyze_callgraph(program).edges
    assert not missing, (gen.source, missing)


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_escaping_calls_are_observed_edges(name):
    program = parse_program(ESCAPES[name])
    observed = _observed_edges(program, fuel=50)
    assert observed <= analyze_callgraph(program).edges


# -- when the graph is built ---------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Count call-graph constructions, wherever they are asked for."""
    count = []
    real = callgraph.analyze_callgraph

    def counting(program):
        count.append(program)
        return real(program)

    monkeypatch.setattr(callgraph, "analyze_callgraph", counting)
    return count


# ``h`` reaches the top level through a box, which the verifier loses
# track of: the certificate is incomplete and discharges nothing, and
# inc and h are on no call cycle.
PARTIAL = """
(define (inc x) (+ x 1))
(define (spin n acc) (if (zero? n) acc (spin (- n 1) (inc acc))))
(define (h x) (spin x 0))
((unbox (box h)) 5)
"""


class TestSecondRunTrigger:
    """No run builds the call graph.  A certificate miss builds it once,
    for an incomplete program-as-entry certificate, and every parse
    that reads the certificate skips the acyclic λs from its first
    run."""

    def test_one_run_never_builds_the_graph(self, builds):
        """A raw label set is exactly the skip set: it builds no graph
        and adds nothing to what it names."""
        program = parse_program(PARTIAL)
        for _ in range(3):
            monitor = SCMonitor()
            answer = run_program(program, mode="full", monitor=monitor,
                                 discharge=frozenset())
            assert answer.kind == Answer.VALUE and answer.value == 5
            assert monitor.calls_seen == 12
        assert builds == []

    def test_cache_hit_parse_skips_acyclic_from_its_first_run(self,
                                                              builds):
        cache = VerificationCache(None)
        writer = parse_program(PARTIAL)
        result = discharge_for_run(writer, text=PARTIAL, cache=cache)
        assert not result.complete and cache.misses == 1
        assert builds == [writer]
        cert = result.certificate
        assert cert.discharged == frozenset()
        assert cert.acyclic == {_label(writer, "inc"), _label(writer, "h")}
        for _ in range(2):
            program = parse_program(PARTIAL)
            policy = discharge_for_run(program, text=PARTIAL,
                                       cache=cache).policy
            monitor = SCMonitor()
            answer = run_program(program, mode="full", monitor=monitor,
                                 discharge=policy)
            assert answer.kind == Answer.VALUE and answer.value == 5
            # inc and h are skipped: only spin stays monitored.
            assert monitor.calls_seen == 6
        assert cache.hits == 2 and builds == [writer]
        assert discharge_for_run(program, text=PARTIAL,
                                 cache=cache).summary()["skipped"] == 0

    def test_unpoliced_runs_monitor_everything(self, builds):
        program = parse_program(PARTIAL)
        for _ in range(3):
            monitor = SCMonitor()
            run_program(program, mode="full", monitor=monitor)
            assert monitor.calls_seen == 12
        assert builds == []

    def test_complete_policy_builds_no_graph(self, builds):
        src = "(define (f n) (if (zero? n) 0 (f (- n 1))))\n(f 5)\n"
        program = parse_program(src)
        result = discharge_for_run(program, text=src,
                                   cache=VerificationCache(None))
        assert result.complete and result.policy.complete
        assert result.certificate.acyclic is None
        for _ in range(3):
            monitor = SCMonitor()
            run_program(program, mode="full", monitor=monitor,
                        discharge=result.policy)
            assert monitor.calls_seen == 0
        assert builds == []

    def test_entry_certificate_builds_no_graph(self, builds):
        program = parse_program(PARTIAL)
        cert, problem = certify(program, PARTIAL, "h", ("nat",),
                                cache=VerificationCache(None))
        assert problem is None and cert.acyclic is None
        assert builds == []

    def test_run_writes_no_monitor_attribute(self):
        """The skip set is run state: run_program sets nothing on the
        monitor it is given, so a reused monitor carries no policy from
        one run into the next."""
        program = parse_program(PARTIAL)
        policy = discharge_for_run(program, text=PARTIAL,
                                   cache=VerificationCache(None)).policy
        monitor = SCMonitor()
        for machine in ("tree", "compiled", "native"):
            before = dict(vars(monitor))
            run_program(program, mode="off", monitor=monitor,
                        machine=machine, discharge=policy)
            assert vars(monitor) == before, machine
        for _ in range(2):
            run_program(program, mode="full", monitor=monitor,
                        discharge=policy)
        assert not hasattr(monitor, "skip_labels")
        seen = monitor.calls_seen
        run_program(program, mode="full", monitor=monitor)
        fresh = SCMonitor()
        run_program(parse_program(PARTIAL), mode="full", monitor=fresh)
        assert monitor.calls_seen - seen == fresh.calls_seen


def test_scheme_cache_hit_first_run(tmp_path):
    """The interpreter benchmark: most of its λs are on no cycle.  A
    fresh parse that reads the certificate another parse wrote to a
    disk store skips them from its first run."""
    prog = get_program("scheme")
    store = str(tmp_path / "certs")
    caches = []

    def run(use_store):
        program = parse_program(prog.source)
        policy = None
        if use_store:
            caches.append(VerificationCache(store))
            policy = discharge_for_run(program, text=prog.source,
                                       cache=caches[-1]).policy
        monitor = SCMonitor(measures=prog.measures)
        answer = run_program(program, mode="full", monitor=monitor,
                             machine="native", fuel=10 ** 7,
                             discharge=policy)
        assert answer.kind == Answer.VALUE
        return answer, monitor.calls_seen

    full, full_calls = run(False)
    writer, _ = run(True)
    reader, reader_calls = run(True)
    assert [(c.misses, c.hits) for c in caches] == [(1, 0), (0, 1)]
    assert write_value(full.value) == write_value(reader.value)
    assert full.steps == writer.steps == reader.steps > 0
    assert full_calls == 10795
    assert reader_calls <= 2905
