"""Differential suite: the native tier vs the compiled and tree machines.

The native machine (exec-generated Python bodies, trampoline-driven,
that step the monitor's table themselves, with a compiled-machine
``eval_code`` fallback for λs not hot yet) must be *observably
identical* to both other machines: same answer kind, same printed value,
same output bytes, same violation witness, same error text, same
``steps`` — across the corpus, under no monitoring, full monitoring
(every λ steps the table), and a residual policy (proven λs skip the
step in the same run).  Plus the native-only contracts: the fuel boundary
(``fuel=0`` means no steps anywhere, exhaustion mid-native-frame is the
ordinary ``FuelExhausted``), proper tail calls via the trampoline far
past CPython's recursion limit, the tier-up threshold, and the bounded
re-entry of the native tier from its interpreter fallback.

λs compile at their ``_TIER_UP_AT``-th eligible apply, so a short
program on a fresh parse may never leave the interpreter.  The classes
that pin the emitter and the monitored native tier (their ``tier ==
'native'`` assertions prove native code ran) therefore run on a parse
put in the ahead-of-time regime first (:func:`aot`).
"""

import inspect
import sys

import pytest

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.corpus import all_programs, diverging_programs
from repro.eval import FuelExhausted
from repro.eval import machine as machine_mod
from repro.eval import native as native_mod
from repro.eval.machine import (Answer, compile_code, run_program,
                                run_source)
from repro.eval.native import (ensure_native, ensure_native_libraries,
                               ensure_native_program)
from repro.lang.parser import parse_program
from repro.lang.resolve import T_LAM, walk
from repro.sct.monitor import SCMonitor
from repro.values.values import size_of, write_value

MACHINES = ("tree", "compiled", "native")
PROGRAMS = all_programs()
DIVERGING = diverging_programs()

MAX_STEPS = 30_000_000


def run_everywhere(program, *, mode, strategy="cm", measures=None,
                   discharge=None, fuel=MAX_STEPS,
                   ahead_of_time=False):
    # ``program`` is a *parsed* Program: λ labels are assigned at parse
    # time, so a residual policy only matches the parse it was computed
    # from — every machine must run the very same object.
    if isinstance(program, str):
        program = parse_program(program)
    if ahead_of_time:
        aot(program)
    answers = {}
    for machine in MACHINES:
        answers[machine] = run_program(
            program, mode=mode, strategy=strategy,
            monitor=SCMonitor(measures=measures), fuel=fuel,
            machine=machine, discharge=discharge,
        )
    return answers


def assert_same_answer(reference, other):
    assert other.kind == reference.kind, (
        f"kind mismatch: {reference!r} vs {other!r}")
    assert other.steps == reference.steps
    assert other.output == reference.output
    if reference.kind == Answer.VALUE:
        assert write_value(other.value) == write_value(reference.value)
    if reference.kind == Answer.SC_ERROR:
        rv, ov = reference.violation, other.violation
        assert ov.function == rv.function
        assert ov.blame == rv.blame
        assert [write_value(a) for a in ov.prev_args] == \
            [write_value(a) for a in rv.prev_args]
        assert [write_value(a) for a in ov.new_args] == \
            [write_value(a) for a in rv.new_args]
        assert ov.composition == rv.composition
    if reference.kind == Answer.RT_ERROR:
        assert str(other.error) == str(reference.error)


def assert_all_same(answers):
    tree = answers["tree"]
    for machine in ("compiled", "native"):
        assert_same_answer(tree, answers[machine])


def aot(program):
    """Put a parse, and the libraries, in the ahead-of-time regime:
    every λ compiled before the run, so every eligible apply is native
    from the first, under any policy.  Returns the parse."""
    ensure_native_program(program)
    return program


def aot_source(source, **kwargs):
    """``run_source`` on the native machine, on an ahead-of-time parse."""
    return run_program(aot(parse_program(source)), machine="native",
                       **kwargs)


def discharged(source, result_kinds=None):
    parsed = parse_program(source)
    result = discharge_for_run(parsed, text=source,
                               result_kinds=result_kinds,
                               cache=VerificationCache(None))
    return parsed, result


@pytest.mark.parametrize("mode", ["off", "full"])
@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestCorpusDifferential:
    """Byte-identity over the whole corpus.  ``off`` exercises pure
    native execution (nothing is monitored, every compiled λ is
    eligible); ``full`` without a policy exercises the monitored path
    (every λ is residual-monitored)."""

    def test_identical_answers(self, prog, mode):
        answers = run_everywhere(prog.source, mode=mode,
                                 measures=prog.measures)
        assert answers["tree"].kind == Answer.VALUE
        assert_all_same(answers)


class TestDischargedCorpus:
    """Byte-identity under residual policies — the tier-mixing runs the
    native machine exists for."""

    @pytest.mark.parametrize(
        "prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_identical_answers_under_policy(self, prog):
        parsed, result = discharged(prog.source, prog.result_kinds)
        if result.policy is None:
            pytest.skip("no residual policy for this program")
        answers = run_everywhere(parsed, mode="full",
                                 measures=prog.measures,
                                 discharge=result.policy)
        assert answers["tree"].kind == Answer.VALUE
        assert_all_same(answers)


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
class TestDivergingDifferential:
    """Violation payloads are produced by the fallback (every λ is
    monitored, nothing discharged) and must be witness-identical."""

    def test_identical_violation(self, prog):
        answers = run_everywhere(prog.source, mode="full",
                                 measures=prog.measures,
                                 fuel=3_000_000)
        assert answers["tree"].kind == Answer.SC_ERROR
        assert_all_same(answers)


class TestFallbackBoundary:
    """One run mixing native frames (a proven λ) with monitored
    fallback frames (an unproven diverging λ): the violation must cross
    the boundary with an identical witness."""

    SRC = ("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
           "(define (up l) (up (cons 1 l)))\n"
           "(len '(1 2 3))\n"
           "(up '())\n")

    def test_violation_identical_across_boundary(self):
        parsed, result = discharged(self.SRC)
        assert not result.complete          # up is unprovable
        assert result.policy is not None
        assert result.policy.skip_labels    # len is proven
        aot(parsed)
        answers = {}
        monitors = {}
        for machine in MACHINES:
            monitors[machine] = SCMonitor()
            answers[machine] = run_program(
                parsed, mode="full", monitor=monitors[machine],
                fuel=3_000_000, machine=machine,
                discharge=result.policy)
        assert answers["tree"].kind == Answer.SC_ERROR
        assert answers["tree"].violation.function == "up"
        assert_all_same(answers)
        # The native run really mixed tiers: native frames were entered
        # (len) while the monitor still saw the unproven λ's calls (up).
        assert answers["native"].tier == "native"
        assert monitors["native"].calls_seen > 0
        assert monitors["native"].calls_seen == monitors["tree"].calls_seen


class TestFuelBoundary:
    """The fuel contract on the native machine matches the other two:
    0 means no steps run anywhere, and exhaustion mid-native-frame is
    the ordinary distinct outcome."""

    LOOP = "(define (spin n) (spin (+ n 1)))\n(spin 0)\n"
    SUM = ("(define (sum n acc) (if (zero? n) acc (sum (- n 1) "
           "(+ acc n))))\n(sum 100000 0)\n")

    def test_fuel_zero_is_immediate_exhaustion(self):
        a = run_source(self.LOOP, mode="off", fuel=0, machine="native")
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)
        assert a.steps == 0

    def test_exhaustion_mid_native_frame(self):
        # Fully-discharged tight loop: the spinning frames are native
        # when the budget runs dry.
        parsed, result = discharged(self.SUM)
        assert result.complete
        a = run_program(parsed, mode="full", fuel=5_000,
                        machine="native", discharge=result.policy)
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)
        assert 0 < a.steps <= 5_000

    def test_ample_fuel_returns_value(self):
        parsed, result = discharged(self.SUM)
        a = run_program(parsed, mode="full", fuel=10_000_000,
                        machine="native", discharge=result.policy)
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == "5000050000"


class TestTrampoline:
    """Proper tail calls and constant-stack non-tail returns far past
    CPython's own recursion limit."""

    def test_deep_non_tail_recursion(self):
        n = 50_000
        assert n > sys.getrecursionlimit()
        src = ("(define (count n) (if (zero? n) 0 (+ 1 (count (- n 1)))))\n"
               f"(count {n})\n")
        a = run_source(src, mode="off", machine="native")
        assert a.kind == Answer.VALUE
        assert a.value == n

    def test_deep_tail_recursion(self):
        n = 200_000
        src = ("(define (down n) (if (zero? n) 'done (down (- n 1))))\n"
               f"(down {n})\n")
        a = run_source(src, mode="off", machine="native")
        assert a.kind == Answer.VALUE
        assert write_value(a.value) == "done"

    def test_deep_non_tail_under_residual_policy(self):
        n = 20_000
        assert n > sys.getrecursionlimit()
        src = ("(define (count n) (if (zero? n) 0 (+ 1 (count (- n 1)))))\n"
               f"(count {n})\n")
        parsed, result = discharged(src)
        assert result.complete
        a = run_program(parsed, mode="full", machine="native",
                        discharge=result.policy)
        assert a.kind == Answer.VALUE
        assert a.value == n


class TestMutationOrder:
    """``set!`` pins evaluation order and storage identity: a volatile
    read must be copied before a sibling's mutation can run, and every
    let/letrec binding needs its own slot.  These are the observables
    the locals-mode emitter got wrong (review repros, PR 9) — each case
    asserts byte-identity against the tree machine plus the exact
    expected value."""

    PROBES = [
        # Left argument read before the right argument's set! fires.
        ("(define (f x) (+ x (begin (set! x 99) 1)))\n(f 1)\n", "2"),
        # A let binding from a letrec slot must not alias it.
        ("(define (f x) (letrec ((a x)) (let ((y a)) "
         "(begin (set! y 2) a))))\n(f 1)\n", "1"),
        # let rhs reads the parameter, the body then mutates it.
        ("(define (f x) (let ((y x)) (begin (set! x 50) (+ y x))))\n"
         "(f 1)\n", "51"),
        # letrec* ordering: the second rhs sees the first slot mutated.
        ("(define (f x) (letrec ((a x) (b (begin (set! a 7) a))) "
         "(+ a b)))\n(f 1)\n", "14"),
        # Parallel let: both rhss evaluate before either name binds.
        ("(define (f x) (let ((y x) (z (begin (set! x 9) x))) "
         "(+ (* 100 y) z)))\n(f 1)\n", "109"),
        # Nested lets: each binding gets distinct storage.
        ("(define (f x) (let ((a x)) (let ((b a)) "
         "(begin (set! b 8) (+ a b)))))\n(f 1)\n", "9"),
        # Sequenced rebinds through begin.
        ("(define (f x) (begin (set! x (+ x 1)) (set! x (* x 2)) x))\n"
         "(f 3)\n", "8"),
        # The let value is read out before the set! behind it.
        ("(define (f x) (+ (let ((u x)) (begin (set! x 40) u)) x))\n"
         "(f 2)\n", "42"),
    ]

    @pytest.mark.parametrize("src,expected", PROBES,
                             ids=[f"probe{i}" for i in range(len(PROBES))])
    def test_identical_across_machines(self, src, expected):
        answers = run_everywhere(src, mode="off")
        assert answers["tree"].kind == Answer.VALUE
        assert write_value(answers["tree"].value) == expected
        assert_all_same(answers)

    def test_frame_mode_capture_sees_mutation(self):
        # A nested λ forces frame mode; the closure must observe the
        # set! on the captured frame slot.
        src = ("(define (f x) (let ((g (lambda (y) (+ x y)))) "
               "(begin (set! x 9) (g 1))))\n(f 1)\n")
        answers = run_everywhere(src, mode="off")
        assert answers["tree"].kind == Answer.VALUE
        assert write_value(answers["tree"].value) == "10"
        assert_all_same(answers)

    def test_mutation_runs_on_the_native_tier_when_discharged(self):
        # The ordering contract must hold in actual native frames under
        # monitoring, not only in the unmonitored configuration.
        src = ("(define (f n) (if (zero? n) 0 "
               "(+ (let ((m n)) (+ m (begin (set! m 1) m))) "
               "(f (- n 1)))))\n(f 4)\n")
        parsed, result = discharged(src)
        assert result.complete
        answers = run_everywhere(parsed, mode="full",
                                 discharge=result.policy,
                                 ahead_of_time=True)
        assert answers["tree"].kind == Answer.VALUE
        assert_all_same(answers)
        a = run_program(parsed, mode="full", machine="native",
                        discharge=result.policy)
        assert a.tier == "native"
        assert write_value(a.value) == write_value(
            answers["tree"].value)


class TestTierReporting:
    """``Answer.tier`` names the tier that actually did the work."""

    def test_unmonitored_run_reports_native(self):
        # tier is "what ran a λ frame": a program with an actual
        # application reports native; pure top-level arithmetic never
        # enters a frame and honestly reports compiled.
        src = "(define (f n) (if (zero? n) 1 (f (- n 1))))\n(f 5)\n"
        a = aot_source(src, mode="off")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "native"

    def test_monitored_runs_report_native(self):
        # mode=full with no policy: every λ is monitored.  The trampoline
        # steps the table itself under every configuration — the cm
        # table, the imperative strategy's mutable table with undo
        # records, label keys — so on an ahead-of-time parse the λs run
        # natively and answer exactly as the compiled machine does.
        src = "(define (f n) (if (zero? n) 1 (f (- n 1))))\n(f 5)\n"
        for strategy, monitor in (("cm", SCMonitor),
                                  ("imperative", SCMonitor),
                                  ("cm", lambda: SCMonitor(keying="label")),
                                  ("imperative",
                                   lambda: SCMonitor(keying="label"))):
            m = monitor()
            a = aot_source(src, mode="full", strategy=strategy, monitor=m)
            assert a.kind == Answer.VALUE and a.value == 1
            assert a.tier == "native"
            c = monitor()
            ref = run_source(src, mode="full", strategy=strategy, monitor=c)
            assert (a.steps, m.calls_seen, m.checks_done) == \
                (ref.steps, c.calls_seen, c.checks_done)

    def test_other_machines_report_themselves(self):
        for machine in ("tree", "compiled"):
            a = run_source("(+ 1 2)", mode="off", machine=machine)
            assert a.tier == machine


class TestMonitoredNative:
    """Residual-monitored λs run on the native tier: the trampoline
    steps the cm table itself, carries each frame's continuation-mark
    state, and raises the same witness the interpreter raises.  Native
    runs are on ahead-of-time parses, so every λ is native throughout."""

    def test_self_tail_loop_violation_identical(self):
        # A compiled self-tail loop must not jump past the table step.
        src = "(define (f n) (f (+ n 1)))\n(f 0)\n"
        answers = {"compiled": run_source(src, mode="full", fuel=1_000_000),
                   "native": aot_source(src, mode="full", fuel=1_000_000)}
        native, compiled = answers["native"], answers["compiled"]
        assert native.tier == "native"
        assert compiled.kind == native.kind == Answer.SC_ERROR
        assert_same_answer(compiled, native)
        assert native.violation.call_count == compiled.violation.call_count
        assert native.violation.call_count == 2
        assert str(native.violation) == str(compiled.violation)

    # Each source's answer depends on restoring a caller's table after a
    # monitored non-tail callee returns (g's second extent must start
    # fresh), directly and past the direct-call depth bound.
    RESTORE = [
        "(define (g n) (if (zero? n) 0 (g (- n 1))))\n"
        "(define (f n) (+ (g n) (g n)))\n(f 5)\n",
        "(define (g n) (if (zero? n) 0 (g (- n 1))))\n"
        "(define (f n) (+ (g n) (g n)))\n"
        "(define (h k) (if (zero? k) (f 5) (+ 0 (h (- k 1)))))\n(h 100)\n",
        # ... and the violation, when the caller's own loop repeats.
        "(define (g n) (if (zero? n) 0 (g (- n 1))))\n"
        "(define (f n) (begin (g n) (f n)))\n(f 3)\n",
    ]

    @pytest.mark.parametrize("src", RESTORE,
                             ids=[f"restore{i}" for i in range(len(RESTORE))])
    def test_caller_state_restored(self, src):
        monitors = {m: SCMonitor() for m in MACHINES}
        answers = {m: run_program(aot(parse_program(src)), mode="full",
                                  monitor=monitors[m], fuel=MAX_STEPS,
                                  machine=m)
                   for m in MACHINES}
        assert_all_same(answers)
        assert answers["native"].tier == "native"
        assert monitors["native"].calls_seen == monitors["compiled"].calls_seen

    WRAPPED = [
        # Contract mode: monitoring starts at the wrapper, under its label.
        '(define f (terminating/c (lambda (x) (f x)) "loop"))\n(f 1)\n',
        "(define (down n) (if (zero? n) 0 (down (- n 1))))\n"
        "(define g (terminating/c (lambda (n) (+ 1 (down n)))))\n"
        "(define (up n) (if (zero? n) 0 (+ (g n) (up (- n 1)))))\n"
        "(up 30)\n",
        # A wrapper applied inside a monitored extent relabels its blame.
        "(define (make) (terminating/c (lambda (n) "
        "(if (zero? n) 0 ((make) (- n 1))))))\n((make) 4)\n",
    ]

    @pytest.mark.parametrize("mode", ["contract", "full"])
    @pytest.mark.parametrize("src", WRAPPED,
                             ids=[f"wrapped{i}" for i in range(len(WRAPPED))])
    def test_wrapped_apply_identical(self, src, mode):
        answers = run_everywhere(src, mode=mode, fuel=1_000_000,
                                 ahead_of_time=True)
        assert_all_same(answers)
        assert answers["native"].tier == "native"

    # Hash maps are values whose size feeds the size-change graphs, and
    # whose identity and equality the program can observe.
    HASHES = [
        # ``hash-set`` returns a fresh map even when nothing changes.
        ("(let ([h (hash 'a 1)]) (eq? h (hash-set h 'a 1)))\n", "#f"),
        # Maps built in different orders (and one through an overwrite)
        # with freshly consed keys are ``equal?``.
        ("(define (build ks h) (if (null? ks) h (build (cdr ks) "
         "(hash-set h (car ks) (list (car ks) 0.5)))))\n"
         "(equal? (build (list 'a 2 \"s\" (list 1 2) #\\c) (hash))\n"
         "        (build (list #\\c (list 1 2) \"s\" 2 'a) (hash 'a 7)))\n",
         "#t"),
        # The map argument shrinks on every overwrite: monitored, it
        # terminates only while the map's size is exact.
        ("(define (f h) (let ([v (hash-ref h 'a)]) (if (zero? v) "
         "(hash-count h) (f (hash-set h 'a (- v 1))))))\n"
         "(f (hash 'a 6 (list 1 2) \"xy\"))\n", "2"),
    ]

    @pytest.mark.parametrize("src,expected", HASHES,
                             ids=[f"hash{i}" for i in range(len(HASHES))])
    def test_hash_maps_identical(self, src, expected):
        answers = run_everywhere(src, mode="full", ahead_of_time=True)
        assert answers["tree"].kind == Answer.VALUE
        assert write_value(answers["tree"].value) == expected
        assert_all_same(answers)

    def test_growing_hash_map_violation_identical(self):
        # Five shrinking overwrites, then a new key grows the map: the
        # sixth call is the violation, its witness sized 5 then 8.
        src = ("(define (f h) (let ([v (hash-ref h 'a)]) (if (zero? v) "
               "(f (hash-set h 'b (list 0 0))) "
               "(f (hash-set h 'a (- v 1))))))\n"
               "(f (hash 'a 4 'c \"xy\"))\n")
        answers = run_everywhere(src, mode="full", fuel=1_000_000,
                                 ahead_of_time=True)
        assert_all_same(answers)
        v = answers["tree"].violation
        assert answers["tree"].kind == Answer.SC_ERROR
        assert (v.function, v.call_count) == ("f", 6)
        assert [size_of(a) for a in v.prev_args + v.new_args] == [5, 8]
        assert answers["native"].tier == "native"

    @pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_monitor_sees_the_same_calls(self, prog):
        monitors = {m: SCMonitor(measures=prog.measures)
                    for m in ("compiled", "native")}
        parsed = aot(parse_program(prog.source))
        answers = {m: run_program(parsed, mode="full",
                                  monitor=monitors[m], fuel=MAX_STEPS,
                                  machine=m)
                   for m in monitors}
        assert answers["native"].tier == "native"
        assert_same_answer(answers["compiled"], answers["native"])
        assert monitors["native"].calls_seen == \
            monitors["compiled"].calls_seen
        assert monitors["native"].checks_done == \
            monitors["compiled"].checks_done


class TestCodeCache:
    """The process-wide native code cache: a λ source compiled once is
    never handed to CPython's ``compile()`` again, while every λ keeps
    its own constants."""

    def test_second_parse_skips_compile(self, monkeypatch):
        src = ("(define (walk l) (if (null? l) 0 (+ 1 (walk (cdr l)))))\n"
               "(walk '(1 2 3))\n")
        first = aot_source(src, mode="full")
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compile(*args, **kwargs)

        monkeypatch.setattr(native_mod, "compile", counting, raising=False)
        parsed = aot(parse_program(src))
        second = run_program(parsed, mode="full", machine="native")
        assert calls == []
        assert first.tier == second.tier == "native"
        assert observables(second) == observables(first)
        assert all(lam.native is not None for lam in code_lams(parsed))

    @pytest.mark.parametrize("left, right", [
        ("'(1 2 3)", "'(4 5 6)"),
        ('"' + "a" * 70 + '"', '"' + "b" * 70 + '"'),
    ], ids=["quoted-list", "long-string"])
    def test_programs_keep_their_own_constants(self, left, right):
        lams = []
        for const in (left, right):
            parsed = aot(parse_program(
                f"(define (f n) (if (zero? n) {const} (f (- n 1))))\n"
                f"(f 2)\n"))
            a = run_program(parsed, mode="off", machine="native")
            ref = run_source(f"{const}\n", mode="off")
            assert a.tier == "native"
            assert write_value(a.value) == write_value(ref.value)
            lams.append(next(lam for lam in code_lams(parsed)
                             if lam.name == "f"))
        # Same source, one code object, two constant tables.
        assert lams[0].native.__code__ is lams[1].native.__code__
        assert lams[0].native is not lams[1].native

    def test_cache_stays_bounded(self, monkeypatch):
        bound = native_mod._CODE_CACHE_SIZE
        cache = native_mod.LRU(bound)
        monkeypatch.setattr(native_mod, "_CODE_CACHE", cache)
        src = "".join(f"(define (f{i} n) (+ n {i}))\n"
                      for i in range(bound + 40))
        for form in parse_program(src).forms:
            ensure_native(compile_code(form.expr))
            assert len(cache) <= bound
        assert len(cache) == bound and cache.evictions == 40


class TestOneBodyPerLambda:
    """Resolved code carries no residual policy: one parse run under a
    policy and without one, in either order, resolves once and compiles
    each λ once, and the run's skip set alone decides what steps the
    table.  ``count`` is a self-tail loop, so the monitored run shows
    its loop guard steps every call."""

    SRC = ("(define (count n acc) (if (zero? n) acc (count (- n 1) "
           "(+ acc 1))))\n"
           "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
           "(count 40 0)\n(len '(1 2 3))\n")

    @staticmethod
    def run(parsed, policy, machine="native"):
        monitor = SCMonitor()
        answer = run_program(parsed, mode="full", monitor=monitor,
                             fuel=MAX_STEPS, machine=machine,
                             discharge=policy)
        return answer, monitor

    @pytest.mark.parametrize("policy_first", [True, False],
                             ids=["policy-first", "policy-last"])
    def test_policy_and_no_policy_share_code(self, policy_first,
                                             monkeypatch):
        parsed, result = discharged(self.SRC)
        assert result.complete
        aot(parsed)
        codes = {id(form.expr): compile_code(form.expr)
                 for form in parsed.forms}
        natives = {lam.name: lam.native for lam in code_lams(parsed)}
        assert all(natives.values())
        served = []
        real = machine_mod.compile_code

        def recording(expr, *rest):
            code = real(expr, *rest)
            if id(expr) in codes:  # not a library form of make_env
                served.append(code is codes[id(expr)])
            return code

        monkeypatch.setattr(machine_mod, "compile_code", recording)
        attempts = count_compiles(monkeypatch)
        runs = {}
        for policy in ([result.policy, None] if policy_first
                       else [None, result.policy]):
            answer, monitor = self.run(parsed, policy)
            assert answer.tier == "native"
            runs[policy is not None] = (answer, monitor)
        # Both runs got the resolved code the walk compiled, and nothing
        # compiled again.
        assert served == [True] * (2 * len(parsed.forms))
        assert attempts == []
        assert {lam.name: lam.native for lam in code_lams(parsed)} == natives
        for with_policy, (answer, _) in runs.items():
            fresh, fresh_result = discharged(self.SRC)
            reference, _ = self.run(
                fresh, fresh_result.policy if with_policy else None)
            assert observables(answer) == observables(reference)
        assert runs[True][1].calls_seen == 0
        _, compiled = self.run(parsed, None, machine="compiled")
        assert compiled.calls_seen > 40
        assert runs[False][1].calls_seen == compiled.calls_seen
        assert runs[False][1].checks_done == compiled.checks_done


def observables(answer):
    """Everything a run reports except ``tier`` (the one observable that
    depends on how hot the parse already is)."""
    value = write_value(answer.value) if answer.kind == Answer.VALUE else None
    error = None if answer.error is None else str(answer.error)
    violation = (None if answer.violation is None
                 else str(answer.violation))
    return (answer.kind, value, answer.output, answer.steps, error,
            violation)


def code_lams(program):
    """Every CLam in the program's resolved forms (the objects the
    native tier compiles)."""
    return [node for form in program.forms
            for node in walk(compile_code(form.expr)) if node.tag == T_LAM]


def native_run(program, *, mode, policy=None, measures=None,
               fuel=MAX_STEPS):
    return run_program(program, mode=mode,
                       monitor=SCMonitor(measures=measures), fuel=fuel,
                       machine="native", discharge=policy)


def eager_run(source, *, mode, with_policy=False, measures=None,
              fuel=MAX_STEPS, result_kinds=None):
    """A native run on a fresh ahead-of-time parse (the libraries
    included): every eligible λ native from its first apply."""
    parsed, result = discharged(source, result_kinds)
    policy = result.policy if with_policy else None
    return native_run(aot(parsed), mode=mode, policy=policy,
                      measures=measures, fuel=fuel)


def lams_by_name(program):
    return {lam.name: lam for lam in code_lams(program)}


def count_compiles(monkeypatch):
    """Record every ``compile_lam`` attempt (the λ and its heat then)."""
    attempts = []
    real = native_mod.compile_lam

    def counting(clam):
        attempts.append(clam)
        real(clam)

    monkeypatch.setattr(native_mod, "compile_lam", counting)
    return attempts


def count_drives(monkeypatch):
    """Record every ``NativeContext._drive`` entry."""
    entries = []
    real = native_mod.NativeContext._drive

    def counting(self, *args, **kwargs):
        entries.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(native_mod.NativeContext, "_drive", counting)
    return entries


class TestLazyTierUp:
    """λs compile at their ``_TIER_UP_AT``-th native-eligible apply.
    Every observable but ``tier`` is independent of what was compiled
    before; ``tier`` depends on how hot the parse already is, since heat
    carries across runs of one parse.  A λ applied fewer than N times on
    an eligible path is never compiled."""

    N = native_mod._TIER_UP_AT

    @pytest.mark.parametrize("config", ["off", "full", "residual"])
    @pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_same_observables_as_eager_compile(self, prog, config):
        mode = "off" if config == "off" else "full"
        with_policy = config == "residual"
        parsed, result = discharged(prog.source, prog.result_kinds)
        policy = result.policy if with_policy else None
        first = native_run(parsed, mode=mode, policy=policy,
                           measures=prog.measures)
        second = native_run(parsed, mode=mode, policy=policy,
                            measures=prog.measures)
        eager = eager_run(prog.source, mode=mode, with_policy=with_policy,
                          measures=prog.measures,
                          result_kinds=prog.result_kinds)
        assert first.kind == Answer.VALUE
        assert observables(first) == observables(eager)
        assert observables(second) == observables(eager)

    def test_monitored_program_compiles_hot_lambdas(self):
        # mode full without a policy: every λ is monitored, and under
        # either strategy the trampoline steps the table itself, so
        # exactly the λs applied at least N times tier up.
        prog = next(p for p in PROGRAMS if p.name == "ho-sc-ack")
        for strategy in ("cm", "imperative"):
            parsed = parse_program(prog.source)
            a = run_program(parsed, mode="full", strategy=strategy,
                            monitor=SCMonitor(measures=prog.measures),
                            fuel=MAX_STEPS, machine="native")
            assert a.kind == Answer.VALUE and a.tier == "native"
            lams = code_lams(parsed)
            assert any(lam.native is not None for lam in lams)
            for lam in lams:
                assert (lam.native_is_gen is not None) == \
                    (lam.heat >= self.N)

    def test_uncalled_discharged_lambda_is_never_compiled(self):
        src = ("(define (unused n) (if (zero? n) 0 (unused (- n 1))))\n"
               "(define (used n) (if (zero? n) 7 (used (- n 1))))\n"
               f"(used {2 * self.N})\n")
        parsed, result = discharged(src)
        assert result.complete
        a = native_run(parsed, mode="full", policy=result.policy)
        assert a.tier == "native" and write_value(a.value) == "7"
        by_name = lams_by_name(parsed)
        assert by_name["used"].native is not None
        assert by_name["unused"].native_is_gen is None
        assert by_name["unused"].heat == 0

    def test_rejected_lambda_is_attempted_once(self, monkeypatch):
        # A body past the emitter's source bound is rejected at its Nth
        # eligible apply and from then on runs interpreted.
        body = " ".join(f"(+ n {i})" for i in range(6000))
        src = (f"(define (big n) (begin {body} n))\n"
               "(define (loop i) (if (zero? i) 0 (begin (big i) "
               f"(loop (- i 1)))))\n(loop {2 * self.N})\n")
        attempts = count_compiles(monkeypatch)
        parsed = parse_program(src)
        a = native_run(parsed, mode="off")
        assert a.kind == Answer.VALUE and write_value(a.value) == "0"
        assert observables(a) == observables(
            run_program(parsed, mode="off", fuel=MAX_STEPS))
        by_name = lams_by_name(parsed)
        big = by_name["big"]
        assert big.native is None and big.native_is_gen is False
        assert attempts.count(big) == 1
        assert by_name["loop"].native is not None
        assert len(attempts) == len(set(map(id, attempts)))
        assert observables(a) == observables(eager_run(src, mode="off"))

    def test_tier_up_through_the_driver(self):
        # f is compiled ahead of time; g is applied only from f's native
        # frame (a non-tail site), so the driver hands it to the
        # interpreter until it is hot and then runs it natively.
        src = ("(define (g n) (* 2 n))\n"
               "(define (f n) (if (zero? n) 0 (+ (g n) (f (- n 1)))))\n"
               f"(f {2 * self.N})\n")
        parsed = parse_program(src)
        by_name = lams_by_name(parsed)
        native_mod.compile_lam(by_name["f"])
        a = native_run(parsed, mode="off")
        assert a.tier == "native"
        assert by_name["f"].native_is_gen is True
        assert by_name["g"].native is not None
        assert by_name["g"].heat == self.N
        assert observables(a) == observables(eager_run(src, mode="off"))

    def test_tier_up_at_a_direct_tail_call_site(self):
        # f's tail call to g takes the direct path only once g is
        # compiled; until then the guard fails and the request goes to
        # the trampoline, whose fallback counts g's applies.  Later calls
        # go direct — the steps match a run where g was compiled up front.
        calls = "".join(f"(f {i})\n" for i in range(2 * self.N))
        src = "(define (g n) (+ n 1))\n(define (f n) (g n))\n" + calls
        parsed = parse_program(src)
        by_name = lams_by_name(parsed)
        native_mod.compile_lam(by_name["f"])
        a = native_run(parsed, mode="off")
        assert write_value(a.value) == str(2 * self.N) and a.tier == "native"
        assert by_name["f"].native_is_gen is False
        assert by_name["g"].native_is_gen is False
        assert by_name["g"].native is not None
        assert observables(a) == observables(eager_run(src, mode="off"))

    def test_fuel_runs_out_on_the_compiling_apply(self):
        # Every budget up to the one that suffices, including the one
        # exhausted exactly at the apply that would compile f.
        src = ("(define (f n) (if (zero? n) 0 (f (- n 1))))\n"
               f"(f {2 * self.N})\n")
        need = native_run(parse_program(src), mode="off").steps
        assert need == 2 * self.N + 1
        for fuel in range(need + 1):
            parsed = parse_program(src)
            lazy = native_run(parsed, mode="off", fuel=fuel)
            eager = eager_run(src, mode="off", fuel=fuel)
            assert observables(lazy) == observables(eager), fuel
            f = lams_by_name(parsed)["f"]
            if fuel < need:
                assert lazy.kind == Answer.TIMEOUT
                assert isinstance(lazy.error, FuelExhausted)
            if fuel == self.N - 1:
                # The Nth apply ran out at its charge: nothing compiled.
                assert f.heat == self.N - 1 and f.native_is_gen is None
                assert lazy.tier == "compiled"
            elif fuel == self.N:
                assert f.native is not None and lazy.tier == "native"

    def test_nth_apply_compiles_once(self, monkeypatch):
        # N-1 applies compile nothing; the Nth, in the next run of the
        # same parse, compiles f exactly once.
        src = ("(define (f n) (if (zero? n) 0 (f (- n 1))))\n"
               f"(f {self.N - 2})\n")
        attempts = count_compiles(monkeypatch)
        parsed = parse_program(src)
        f = lams_by_name(parsed)["f"]
        first = native_run(parsed, mode="off")
        assert first.steps == self.N - 1
        assert attempts == [] and f.heat == self.N - 1
        assert first.tier == "compiled"
        second = native_run(parsed, mode="off")
        assert attempts == [f] and f.heat == self.N
        assert second.tier == "native"
        native_run(parsed, mode="off")
        assert attempts == [f]
        assert observables(first) == observables(second)

    def test_heat_carries_across_runs(self):
        # M applies per run: the run holding the Nth apply is the first
        # to report native, and every run reports the same steps.
        m = 3
        src = ("(define (f n) (if (zero? n) 0 (f (- n 1))))\n"
               f"(f {m - 1})\n")
        parsed = parse_program(src)
        runs = [native_run(parsed, mode="off") for _ in range(self.N)]
        for r, answer in enumerate(runs, start=1):
            assert answer.steps == m
            assert answer.tier == ("native" if r * m >= self.N
                                   else "compiled"), r

    @pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_compiles_only_hot_lambdas(self, prog, monkeypatch):
        # Deterministic, no timer: under mode full (cm, no policy) every
        # apply takes exactly one table step on either tier, so counting
        # table_step per λ counts its eligible applies independently of
        # the heat counter.
        steps = {}

        def counting(module):
            real = module.table_step

            def step(monitor, s1, fn, *rest):
                steps[id(fn.lam)] = steps.get(id(fn.lam), 0) + 1
                return real(monitor, s1, fn, *rest)
            monkeypatch.setattr(module, "table_step", step)

        counting(machine_mod)
        counting(native_mod)
        attempts = count_compiles(monkeypatch)
        parsed = parse_program(prog.source)
        a = native_run(parsed, mode="full", measures=prog.measures)
        assert a.kind == Answer.VALUE
        lams = code_lams(parsed)
        attempted = {id(lam) for lam in attempts}
        for lam in lams:
            applies = steps.get(id(lam), 0)
            assert (id(lam) in attempted) == (applies >= self.N), lam
            assert lam.heat == min(applies, self.N), lam


class TestReentry:
    """Bounded re-entry: a fallback from native code runs its extent
    with the native context below ``_REENTRY_BOUND`` nested fallbacks,
    and without it past the bound."""

    def test_hot_callee_of_a_cold_lambda_runs_native(self, monkeypatch):
        # hot is compiled ahead of time; cold is applied once, from hot's
        # native frame, so it runs in the fallback; loop, applied from
        # cold's interpreted body, tiers up there and is entered natively.
        src = ("(define (loop n) (if (zero? n) 0 (loop (- n 1))))\n"
               "(define (cold n) (+ 1 (loop n)))\n"
               "(define (hot n) (+ 1 (cold n)))\n"
               "(hot 50)\n")
        entered = []
        real = native_mod.NativeContext.enter

        def recording(self, fn, vals, s1, s2):
            entered.append(fn.lam.name)
            return real(self, fn, vals, s1, s2)

        monkeypatch.setattr(native_mod.NativeContext, "enter", recording)
        for mode in ("off", "full"):
            entered.clear()
            parsed = parse_program(src)
            by_name = lams_by_name(parsed)
            native_mod.compile_lam(by_name["hot"])
            a = native_run(parsed, mode=mode)
            assert by_name["cold"].native_is_gen is None
            assert by_name["loop"].native is not None
            assert entered == ["hot", "loop"]
            ref = run_program(parsed, mode=mode, fuel=MAX_STEPS)
            assert observables(a) == observables(ref)

    @pytest.mark.parametrize("mode", ["off", "full"])
    def test_alternation_past_the_bound(self, mode, monkeypatch):
        # Nothing tiers up by heat; hot is compiled ahead of time and
        # cold is not, so every hot → cold call is a fallback nested in
        # the last one, far deeper than the bound (and than the Python
        # stack would allow if each level re-entered).
        monkeypatch.setattr(native_mod, "_TIER_UP_AT", 10 ** 9)
        depth = 2 * sys.getrecursionlimit()
        src = ("(define (hot n) (if (zero? n) 0 (+ 1 (cold (- n 1)))))\n"
               "(define (cold n) (if (zero? n) 0 (+ 1 (hot (- n 1)))))\n"
               f"(hot {depth})\n")
        deepest = [0]
        real = native_mod.NativeContext.fallback_call

        def watching(self, fn, vals, loc):
            deepest[0] = max(deepest[0], self.nest)
            return real(self, fn, vals, loc)

        monkeypatch.setattr(native_mod.NativeContext, "fallback_call",
                            watching)
        parsed = parse_program(src)
        native_mod.compile_lam(lams_by_name(parsed)["hot"])
        a = native_run(parsed, mode=mode)
        assert a.kind == Answer.VALUE and a.value == depth
        assert a.tier == "native"
        assert deepest[0] == native_mod._REENTRY_BOUND
        assert lams_by_name(parsed)["cold"].native_is_gen is None
        ref = run_program(parsed, mode=mode, fuel=MAX_STEPS)
        assert observables(a) == observables(ref)

    def test_violation_inside_a_reentered_extent(self, monkeypatch):
        # spin (compiled ahead of time) diverges under a cold λ that hot
        # calls from native code: the violation is raised by a nested
        # driver, and the fallback hands the caller its own state back.
        src = ("(define (spin n) (spin (+ n 1)))\n"
               "(define (cold n) (spin n))\n"
               "(define (hot n) (+ 1 (cold n)))\n"
               "(hot 0)\n")
        seen = []
        real = native_mod.NativeContext.fallback_call

        def watching(self, fn, vals, loc):
            before = (self.s1, self.s2, self.nest)
            try:
                return real(self, fn, vals, loc)
            finally:
                seen.append((before, (self.s1, self.s2, self.nest)))

        monkeypatch.setattr(native_mod.NativeContext, "fallback_call",
                            watching)
        parsed = parse_program(src)
        by_name = lams_by_name(parsed)
        native_mod.compile_lam(by_name["hot"])
        native_mod.compile_lam(by_name["spin"])
        a = native_run(parsed, mode="full", fuel=1_000_000)
        ref = run_program(parsed, mode="full", fuel=1_000_000)
        assert a.kind == ref.kind == Answer.SC_ERROR
        assert a.violation.function == "spin"
        assert a.tier == "native"
        assert_same_answer(ref, a)
        assert str(a.violation) == str(ref.violation)
        assert seen
        for before, after in seen:
            assert all(x is y for x, y in zip(before, after))


def payload(answer):
    """A violation's whole payload as comparable text: function, both
    argument vectors, graph, composition, call count, blame and the
    rendered report."""
    v = answer.violation
    if v is None:
        return None
    return (v.function, [write_value(a) for a in v.prev_args],
            [write_value(a) for a in v.new_args], repr(v.graph),
            repr(v.composition), v.call_count, v.blame, str(v))


def event_text(events):
    """An event stream with its values written and its graphs shown."""
    out = []
    for ev in events:
        if ev[0] == "call":
            _, desc, margs, graph, params = ev
            out.append(("call", desc, [write_value(a) for a in margs],
                        repr(graph), params))
        else:
            out.append(ev)
    return out


class TestInlineLoopStep:
    """A monitored self-tail call of a plain native λ under the cm
    strategy steps the table inside the compiled loop instead of going
    through the trampoline.  Every observable must stay the tree
    machine's: the violation payload, the event stream and the steps, on
    the compiled machine, on the native tier reached by heat (the λ tiers
    up mid-loop and is entered from the interpreter) and on an
    ahead-of-time parse."""

    # f counts n down, then loops on n = 0 with a growing k: f tiers up
    # by heat (16th apply) well before its violation.  g does the same
    # through a generator λ (the closure call to id), whose self-tail
    # calls keep the trampoline.
    DIVERGE = {
        "plain": "(define (f n k) (if (zero? n) (f n (+ k 1)) "
                 "(f (- n 1) k)))\n(f 30 0)\n",
        "generator": "(define (id x) x)\n"
                     "(define (f n k) (if (zero? (id n)) (f n (+ k 1)) "
                     "(f (- n 1) k)))\n(f 30 0)\n",
        # contract mode: down loops with no table (s1 is empty), then f
        # runs monitored under the wrapper's blame
        "wrapped": "(define (f n k) (if (zero? n) (f n (+ k 1)) "
                   "(f (- n 1) k)))\n"
                   "(define (down n) (if (zero? n) 0 (down (- n 1))))\n"
                   "(down 40)\n"
                   "(define g (terminating/c (lambda (n) (f n 0)) "
                   "\"spin\"))\n(g 30)\n",
    }

    CONFIGS = {
        "identity": {},
        "label": {"keying": "label"},
        "measures": {"measures": {"f": lambda args: (args[0],)}},
        "events": {"events": True},
    }

    @staticmethod
    def run(src, machine, config, mode, ahead_of_time=False):
        parsed = parse_program(src)
        if ahead_of_time:
            aot(parsed)
        options = dict(config)
        if options.pop("events", False):
            options["events"] = []
        monitor = SCMonitor(**options)
        answer = run_program(parsed, mode=mode, monitor=monitor,
                             fuel=1_000_000, machine=machine)
        return answer, monitor

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("name", list(DIVERGE))
    def test_violation_and_events_identical(self, name, config):
        src = self.DIVERGE[name]
        mode = "contract" if name == "wrapped" else "full"
        cfg = self.CONFIGS[config]
        ref, ref_mon = self.run(src, "tree", cfg, mode)
        assert ref.kind == Answer.SC_ERROR
        assert ref.violation.function == "f"
        assert ref.violation.blame == ("spin" if name == "wrapped"
                                       else "the program")
        runs = {"compiled": self.run(src, "compiled", cfg, mode),
                "native-heat": self.run(src, "native", cfg, mode),
                "native-aot": self.run(src, "native", cfg, mode,
                                       ahead_of_time=True)}
        for label, (answer, monitor) in runs.items():
            assert answer.kind == ref.kind, label
            assert answer.steps == ref.steps, label
            assert payload(answer) == payload(ref), label
            assert monitor.calls_seen == ref_mon.calls_seen, label
            if ref_mon.events is not None:
                assert event_text(monitor.events) == \
                    event_text(ref_mon.events), label
        assert runs["native-heat"][0].tier == "native"
        assert runs["native-aot"][0].tier == "native"

    LOOP = "(define (loop n k) (if (zero? n) k (loop (- n 1) (+ k 1))))\n"

    @pytest.mark.parametrize("strategy,calls", [("cm", 2), ("imperative",
                                                           62)])
    def test_monitored_loop_stays_in_one_native_call(self, strategy,
                                                     calls):
        # Each extent of loop enters its native body once under cm; the
        # imperative strategy re-enters it through the trampoline for
        # every iteration (its undo record).
        src = self.LOOP + "(+ (loop 30 0) (loop 30 0))\n"
        parsed = aot(parse_program(src))
        lam = lams_by_name(parsed)["loop"]
        real = lam.native
        seen = []

        def counting(c, f, rt):
            seen.append(1)
            return real(c, f, rt)

        lam.native = counting
        try:
            a = run_program(parsed, mode="full", strategy=strategy,
                            monitor=SCMonitor(), fuel=MAX_STEPS,
                            machine="native")
        finally:
            lam.native = real
        assert a.kind == Answer.VALUE and a.value == 60
        assert len(seen) == calls
        ref = run_program(parsed, mode="full", strategy=strategy,
                          monitor=SCMonitor(), fuel=MAX_STEPS,
                          machine="tree")
        assert observables(a) == observables(ref)

    # Both sources call the loop twice in one caller: were the first
    # extent's table to leak into the second, the second's first call
    # (from (0 30) to (30 0)) would complete a violation.
    def test_entered_from_a_cold_caller(self, monkeypatch):
        src = (self.LOOP + "(define (cold n) (+ (loop n 0) (loop n 0)))\n"
               "(cold 30)\n")
        entered = []
        real = native_mod.NativeContext.enter

        def recording(self, fn, vals, s1, s2):
            entered.append(fn.lam.name)
            value = real(self, fn, vals, s1, s2)
            # The driver's stack started with the entering state's mark,
            # so the state the loop stepped to does not outlive it.
            assert self.s1 is s1 and self.s2 is s2
            return value

        monkeypatch.setattr(native_mod.NativeContext, "enter", recording)
        for strategy in ("cm", "imperative"):
            entered.clear()
            parsed = parse_program(src)
            native_mod.compile_lam(lams_by_name(parsed)["loop"])
            a = run_program(parsed, mode="full", strategy=strategy,
                            monitor=SCMonitor(), fuel=MAX_STEPS,
                            machine="native")
            assert entered == ["loop", "loop"]
            assert a.kind == Answer.VALUE and a.value == 60
            ref = run_program(parsed, mode="full", strategy=strategy,
                              monitor=SCMonitor(), fuel=MAX_STEPS,
                              machine="tree")
            assert observables(a) == observables(ref)

    @pytest.mark.parametrize("depth", [10, 3 * native_mod._DIRECT_DEPTH])
    def test_called_from_a_generator_frame(self, depth):
        # deep is a generator λ; at the bottom of its recursion it calls
        # loop through a nested driver (below _DIRECT_DEPTH) or by
        # yielding to the driver (past it).
        src = (self.LOOP + "(define (deep d) (if (zero? d) "
               "(+ (loop 30 0) (loop 30 0)) (+ 1 (deep (- d 1)))))\n"
               f"(deep {depth})\n")
        parsed = aot(parse_program(src))
        assert lams_by_name(parsed)["deep"].native_is_gen is True
        a = run_program(parsed, mode="full", monitor=SCMonitor(),
                        fuel=MAX_STEPS, machine="native")
        assert a.kind == Answer.VALUE and a.value == 60 + depth
        assert a.tier == "native"
        ref = run_program(parsed, mode="full", monitor=SCMonitor(),
                          fuel=MAX_STEPS, machine="tree")
        assert observables(a) == observables(ref)


class TestDirectCalls:
    """Calls that skip the driver — a direct tail call and a generator
    λ's non-tail ``NativeContext.call`` — are taken only for callees the
    run does not step.  A guard that let a monitored callee through
    would run it unstepped: the violation would come late or blame the
    wrong λ.  So every observable is held to the tree machine's on
    programs whose monitored cycle runs through exactly those sites,
    under both strategies, with ``len`` discharged.  The remaining tests
    pin what ``call`` saves (driver entries) and the stack discipline
    past the depth bound."""

    # f -> h is a direct tail site; in the second, h's call to f is a
    # generator λ's non-tail site, so it goes through NativeContext.call.
    LEN = "(define (len xs) (if (null? xs) 0 (+ 1 (len (cdr xs)))))"
    CYCLES = {
        "tail": LEN + "(define (f x) (h (+ x 1)))(define (h x) (f x))"
                      "(len '(1 2 3))(f 5)",
        "non-tail": LEN + "(define (f x) (h (+ x 1)))"
                          "(define (h x) (+ 1 (f x)))"
                          "(len '(1 2 3))(f 5)",
    }

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    @pytest.mark.parametrize("name", list(CYCLES))
    def test_monitored_cycle_is_stepped(self, name, strategy):
        src = self.CYCLES[name]
        parsed, result = discharged(src)
        assert not result.complete
        skipped = {lam.label for lam in code_lams(parsed)
                   if lam.name == "len"}
        assert skipped <= result.policy.skip_labels
        runs = {}
        for machine in ("tree", "compiled", "native"):
            if machine == "native":
                aot(parsed)
            runs[machine] = run_program(
                parsed, mode="full", strategy=strategy,
                monitor=SCMonitor(), fuel=100_000, machine=machine,
                discharge=result.policy)
        ref = runs["tree"]
        assert ref.kind == Answer.SC_ERROR
        assert ref.steps == 7 and ref.violation.function == "f"
        for machine in ("compiled", "native"):
            assert observables(runs[machine]) == observables(ref), machine
            assert payload(runs[machine]) == payload(ref), machine
        assert runs["native"].tier == "native"

    # sum2 makes non-tail calls to go (plain), whose tail chain runs
    # through start into len, a generator λ started in place.
    CHAIN = (LEN + "(define (start xs) (len xs))"
             "(define (go xs) (start xs))"
             "(define (sum2 xs) (+ (go xs) (go (cdr xs))))"
             "(sum2 '(1 2 3 4 5))(len '(1 2))(go '(1 2 3))")

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    def test_discharged_program_enters_the_driver_once_per_form(
            self, strategy, monkeypatch):
        parsed, result = discharged(self.CHAIN)
        assert result.complete
        aot(parsed)
        entries = count_drives(monkeypatch)
        a = run_program(parsed, mode="full", strategy=strategy,
                        monitor=SCMonitor(), fuel=MAX_STEPS,
                        machine="native", discharge=result.policy)
        assert a.kind == Answer.VALUE and a.value == 3
        assert a.tier == "native"
        assert len(entries) == 3  # the three expression forms
        ref = run_program(parsed, mode="full", strategy=strategy,
                          monitor=SCMonitor(), fuel=MAX_STEPS,
                          machine="tree", discharge=result.policy)
        assert observables(a) == observables(ref)

    # At the bottom, the monitored loop runs twice (were the first
    # extent's table not restored, the second's first call would
    # complete a violation of loop), then the monitored spin diverges:
    # right there, or on the value the whole recursion returns.
    BOTTOMS = {
        "bottom": ("(+ (loop 30 0) (loop 30 0) (spin 0))", "(count {n})"),
        "after": ("(+ (loop 30 0) (loop 30 0))", "(spin (count {n}))"),
    }

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    @pytest.mark.parametrize("where", list(BOTTOMS))
    def test_deep_partly_discharged_recursion(self, where, strategy):
        # count is skipped, so call starts it in place until the depth
        # bound; there the started generator's request goes to a driver
        # below which it stays suspended, and the rest of the recursion
        # runs on the heap.
        n = 50 * sys.getrecursionlimit()
        base, entry = self.BOTTOMS[where]
        src = ("(define (loop n k) (if (zero? n) k (loop (- n 1) (+ k 1))))"
               "(define (spin x) (spin x))"
               f"(define (count n) (if (zero? n) {base}"
               " (+ 1 (count (- n 1)))))" + entry.format(n=n))
        parsed = aot(parse_program(src))
        lams = lams_by_name(parsed)
        assert lams["count"].native_is_gen is True
        skips = {lams["count"].label}
        ref = run_program(parsed, mode="full", strategy=strategy,
                          monitor=SCMonitor(), fuel=MAX_STEPS,
                          machine="tree", discharge=skips)
        assert ref.kind == Answer.SC_ERROR
        assert ref.violation.function == "spin"
        a = run_program(parsed, mode="full", strategy=strategy,
                        monitor=SCMonitor(), fuel=MAX_STEPS,
                        machine="native", discharge=skips)
        assert a.tier == "native"
        assert observables(a) == observables(ref)
        assert payload(a) == payload(ref)


class TestMonitoredCalls:
    """Under the cm strategy ``NativeContext.call`` also runs callees the
    run steps: it runs the driver's ``table_step`` before entering the
    body, follows tail requests stepping in place, and keeps the
    caller's (s1, s2) in its locals, the mark the driver would have
    pushed, restoring it on every return.  Every observable must stay
    the tree machine's: the value, ``steps``, the violation payload and
    the event stream, on the compiled machine and on an ahead-of-time
    parse, under every monitor configuration.  The ``imperative``
    strategy (its undo record) still hands a stepped callee to the
    driver."""

    # f's non-tail call of g runs through call and steps g's table
    # entry.  Were that table not dropped when g returns, f's next call
    # of g, with a larger argument, would complete a violation of g.
    LEAK = ("(define (g x) x)"
            "(define (f n) (if (zero? n) 0 (begin (g (- 10 n)) "
            "(f (- n 1)))))(f 5)")

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    def test_callee_table_stays_in_its_extent(self, strategy):
        parsed = parse_program(self.LEAK)
        runs = {}
        for machine in MACHINES:
            if machine == "native":
                aot(parsed)
            runs[machine] = run_program(
                parsed, mode="full", strategy=strategy, monitor=SCMonitor(),
                fuel=MAX_STEPS, machine=machine)
        assert lams_by_name(parsed)["f"].native_is_gen is True
        for machine, answer in runs.items():
            assert answer.kind == Answer.VALUE and answer.value == 0, machine
            assert observables(answer) == observables(runs["tree"]), machine
        assert runs["native"].tier == "native"

    # sum recurses through its non-tail closure sites: each call of id
    # and of sum is stepped in call.  The diverging variant recurses on
    # the same n with a growing k, so its violation comes mid-recursion,
    # with the stepped frames still suspended below; at 3 *
    # _DIRECT_DEPTH levels the tail of the recursion runs on the driver
    # (a stepped generator callee started in call, then suspended at
    # the bound).
    RECURSIONS = {
        "terminating": ("(define (id x) x)"
                        "(define (sum n k) (if (zero? n) k "
                        "(+ (id n) (sum (- n 1) k))))"
                        "(sum {n} 0)"),
        "diverging": ("(define (id x) x)"
                      "(define (sum n k) (if (zero? n) "
                      "(+ 1 (sum n (id (+ k 1)))) "
                      "(+ (id n) (sum (- n 1) k))))"
                      "(sum {n} 0)"),
    }

    CONFIGS = {
        "label": {"keying": "label"},
        "measures": {"measures": {"sum": lambda args: (args[0],)}},
        "events": {"events": True},
        "backoff": {"backoff": True},
    }

    @pytest.mark.parametrize("depth", [10, 3 * native_mod._DIRECT_DEPTH])
    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("name", list(RECURSIONS))
    def test_payload_and_events_identical(self, name, config, depth):
        src = self.RECURSIONS[name].format(n=depth)
        cfg = self.CONFIGS[config]
        ref, ref_mon = TestInlineLoopStep.run(src, "tree", cfg, "full")
        assert ref.kind == (Answer.VALUE if name == "terminating"
                            else Answer.SC_ERROR)
        runs = {"compiled": TestInlineLoopStep.run(src, "compiled", cfg,
                                                   "full"),
                "native-aot": TestInlineLoopStep.run(
                    src, "native", cfg, "full", ahead_of_time=True)}
        for label, (answer, monitor) in runs.items():
            assert observables(answer) == observables(ref), label
            assert payload(answer) == payload(ref), label
            assert monitor.calls_seen == ref_mon.calls_seen, label
            if ref_mon.events is not None:
                assert event_text(monitor.events) == \
                    event_text(ref_mon.events), label
        assert runs["native-aot"][0].tier == "native"

    # Every call of id and of sum is a stepped non-tail call: under cm
    # call runs them all, so the driver is entered once per expression
    # form; the imperative strategy hands each to a driver of its own
    # (61 + 41 entries, one per call of id or sum, as call did for
    # every stepped callee before it stepped any itself).
    COUNTED = ("(define (id x) x)"
               "(define (sum n) (if (zero? n) 0 (+ (id n) (sum (- n 1)))))"
               "(sum 30)(sum 20)")

    @pytest.mark.parametrize("strategy,drives", [("cm", 2),
                                                 ("imperative", 102)])
    def test_driver_entries(self, strategy, drives, monkeypatch):
        parsed = aot(parse_program(self.COUNTED))
        entries = count_drives(monkeypatch)
        a = run_program(parsed, mode="full", strategy=strategy,
                        monitor=SCMonitor(), fuel=MAX_STEPS,
                        machine="native")
        assert a.kind == Answer.VALUE and a.value == 210
        assert a.tier == "native"
        assert len(entries) == drives
        monkeypatch.undo()
        ref = run_program(parsed, mode="full", strategy=strategy,
                          monitor=SCMonitor(), fuel=MAX_STEPS,
                          machine="tree")
        assert observables(a) == observables(ref)


class TestPrimitiveTailHeads:
    """A program that rebinds a primitive's name reads it as a global
    like any name it defines, so its own ``cdr`` that loops on itself in
    tail position gets the compiled self-tail loop and the direct call,
    and keeps the tree machine's observables."""

    LOOPS = {
        "terminating": ("(define (cdr n) (if (zero? n) 'done "
                        "(cdr (- n 1))))(cdr 30)", Answer.VALUE),
        "deep": ("(define (cdr n) (if (zero? n) 'done "
                 "(cdr (- n 1))))(cdr 100000)", Answer.VALUE),
        "diverging": ("(define (cdr n k) (if (zero? n) (cdr n (+ k 1)) "
                      "(cdr (- n 1) k)))(cdr 30 0)", Answer.SC_ERROR),
    }

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    @pytest.mark.parametrize("name", list(LOOPS))
    def test_rebound_primitive_loop(self, name, strategy):
        src, kind = self.LOOPS[name]
        parsed = parse_program(src)
        runs = {}
        for machine in MACHINES:
            if machine == "native":
                aot(parsed)
            runs[machine] = run_program(
                parsed, mode="full", strategy=strategy, monitor=SCMonitor(),
                fuel=1_000_000, machine=machine)
        ref = runs["tree"]
        assert ref.kind == kind
        for machine in ("compiled", "native"):
            assert observables(runs[machine]) == observables(ref), machine
            assert payload(runs[machine]) == payload(ref), machine
        assert runs["native"].tier == "native"
        # The loop's own body has the self-loop test (_S) and the direct
        # call guard (_M, _K).
        code = lams_by_name(parsed)["cdr"].native.__code__
        assert {"_S", "_M", "_K"} <= set(code.co_varnames)


class TestBoundPrimitives:
    """Reads of primitives a program never rebinds resolve to the stock
    primitive, in its forms and in the libraries', so native code calls
    them with no global read and no identity guard.  A program that
    rebinds such a name (a top-level ``define`` after a use, a global
    ``set!`` in a λ), and a run whose environment binds it to something
    else, keep the dynamic read, in the library λs too: every observable
    stays the tree machine's, on the compiled machine and on the native
    tier in the ahead-of-time regime."""

    PROGRAMS = {
        # cdr is read, then redefined at top level.
        "define-after-use": (
            "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))\n"
            "(define a (len '(1 2 3 4)))\n"
            "(define (cdr p) '())\n"
            "(list a (len '(1 2 3 4)))", "(4 1)"),
        # `+` rebound by a set! inside a λ, between two calls of sum.
        "set-in-lambda": (
            "(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l)))))\n"
            "(define (swap!) (set! + -))\n"
            "(define a (sum '(1 2 3)))\n"
            "(swap!)\n"
            "(list a (sum '(1 2 3)))", "(6 2)"),
        # The program's cdr skips two cells: the prelude's map reads the
        # global and sees it; length is a primitive and does not.
        "library-sees-rebinding": (
            "(define (cdr p) (if (pair? (rest p)) (rest (rest p)) '()))\n"
            "(list (length '(1 2 3 4)) (map (lambda (x) (* x x)) "
            "'(1 2 3 4)) (cdr '(1 2 3)))", "(4 (1 9) (3))"),
        # cdr rebound by a set! inside a λ, between two calls of the
        # prelude's map.
        "library-set-in-lambda": (
            "(define (skip!) (set! cdr (lambda (p) (cddr p))))\n"
            "(define a (map (lambda (x) (* x x)) '(1 2 3 4)))\n"
            "(skip!)\n"
            "(list a (map (lambda (x) (* x x)) '(1 2 3 4)))",
            "((1 4 9 16) (1 9))"),
        # A rebinding that diverges: the monitor must still catch it.
        "rebound-diverging": (
            "(define (car n) (if (zero? n) 0 (car (+ n 1))))\n"
            "(car 1)", None),
        # A mutating primitive evaluated inline, before the read after it.
        "inline-effect": (
            "(define b (box 0))\n"
            "(define (f x) (list (set-box! b x) (unbox b)))\n"
            "(f 5)", "(#<void> 5)"),
    }

    @staticmethod
    def run_all(parsed, strategy, env_of=None):
        runs = {}
        for machine in MACHINES:
            if machine == "native":
                aot(parsed)
            runs[machine] = run_program(
                parsed, mode="full", strategy=strategy, monitor=SCMonitor(),
                fuel=1_000_000, machine=machine,
                env=None if env_of is None else env_of(machine))
        for machine in ("compiled", "native"):
            assert observables(runs[machine]) == observables(runs["tree"]), \
                machine
            assert payload(runs[machine]) == payload(runs["tree"]), machine
        return runs

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    @pytest.mark.parametrize("name", list(PROGRAMS))
    def test_rebinding_program(self, name, strategy):
        src, expected = self.PROGRAMS[name]
        runs = self.run_all(parse_program(src), strategy)
        if expected is None:
            assert runs["tree"].kind == Answer.SC_ERROR
        else:
            assert write_value(runs["tree"].value) == expected
        assert runs["native"].tier == "native"

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    @pytest.mark.parametrize("src", [
        "(define (f x) (car x 2))\n(f '(1))",
        "(define (f x) (+ 1 (car x 2)))\n(f '(1))",
        "(car 1 2)",
        "(define (f x) (if (car x 2) 1 2))\n(f '(1))",
    ], ids=["tail", "value", "top", "test"])
    def test_arity_error_keeps_message_and_location(self, src, strategy):
        runs = self.run_all(parse_program(src), strategy)
        error = str(runs["tree"].error)
        assert error.startswith("car: arity mismatch with 2 arguments at ")
        assert str(runs["native"].error) == error

    LOOP = ("(define (firsts l) (if (null? l) '() "
            "(cons (car (first l)) (firsts (cdr l)))))\n"
            "(define (pairs n) (if (zero? n) '() "
            "(cons (list n (* n n)) (pairs (- n 1)))))\n"
            "(firsts (pairs 40))")

    # The program each environment case runs, the names the environment
    # binds to something else (a primitive, or for "closure" a closure
    # that calls one), and the answer's prefix on a stock environment and
    # on that one.
    ENV_CASES = {
        "prim": (LOOP, {"car": "cadr"}, "(40 39 38 ", "(1600 1521 "),
        "closure": (LOOP, {"car": "cadr"}, "(40 39 38 ", "(1600 1521 "),
        # The prelude's map reads the environment's cdr.
        "library": ("(map (lambda (x) (* x x)) '(0 1 2 3 4 5))",
                    {"cdr": "cddr"}, "(0 1 4 9 16 25)", "(0 4 16)"),
        # The run builds the libraries again for cdr, and the library
        # name the environment binds to something else keeps it.
        "library-name": ("(list (map 1 2) (foldl + 0 '(1 2 3 4 5 6)))",
                         {"cdr": "cddr", "map": "list"}, None, "((1 2) 9)"),
    }

    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    @pytest.mark.parametrize("kind", ["prim", "closure", "library",
                                      "library-name"])
    def test_environment_rebinds_a_primitive(self, kind, strategy):
        from repro.eval.machine import make_env
        from repro.lang.prims import PRIMS_BY_NAME
        from repro.sexp.datum import intern

        src, bindings, stock_value, value = self.ENV_CASES[kind]
        envs = {}

        def env_of(machine):
            family = "tree" if machine == "tree" else "compiled"
            if family not in envs:
                env = make_env(machine=family)
                for name, other in bindings.items():
                    if kind == "closure":
                        bound = run_program(
                            parse_program(f"(lambda (p) ({other} p))"),
                            env=env, machine=family).value
                    else:
                        bound = PRIMS_BY_NAME[other]
                    env.define(intern(name), bound)
                envs[family] = env
            return envs[family]

        parsed = parse_program(src)
        runs = self.run_all(parsed, strategy, env_of)
        assert write_value(runs["tree"].value).startswith(value)
        if stock_value is None:
            return
        stock = run_program(parsed, machine="tree")
        assert write_value(stock.value).startswith(stock_value)
        if kind == "library":
            assert "cdr" not in parsed.prims
            return
        assert "car" in parsed.prims
        # The bound code was compiled ahead of time; the run resolved
        # the form again with car read from the environment, and tiered
        # that code up by heat.
        assert runs["native"].tier == "native"
        # The same parse on a stock environment binds car again.
        again = run_program(parsed, machine="native")
        assert observables(again) == observables(stock)

    @staticmethod
    def native_code(src, name):
        return lams_by_name(aot(parse_program(src)))[name].native.__code__

    def test_code_shape(self):
        firsts = self.LOOP.split("\n")[0]
        code = self.native_code(firsts, "firsts")
        assert not {"car", "first", "cdr", "null?"} & set(code.co_consts)
        assert "fallback" not in code.co_names
        # A λ that reads no program global has no global frame at all.
        code = self.native_code("(define (f p) (car (cdr p)))", "f")
        assert "_G" not in code.co_varnames
        assert "fallback" not in code.co_names
        # A program that rebinds car reads it as a global and calls it on
        # the closure path: its non-tail site makes firsts a generator.
        code = self.native_code(firsts + "\n(define (car p) p)", "firsts")
        assert "car" in code.co_consts and "cdr" not in code.co_consts
        assert "fallback" not in code.co_names
        assert code.co_flags & inspect.CO_GENERATOR
        # The prelude's map binds the primitives it calls, as a program
        # λ does.
        from repro.lang.libraries import prelude_program
        from repro.lang.prims import PRIM_NAMES

        ensure_native_libraries()
        form = next(f for f in prelude_program().forms
                    if f.name.name == "map")
        code = compile_code(form.expr).native.__code__
        assert not PRIM_NAMES & set(code.co_consts)
        assert "fallback" not in code.co_names
