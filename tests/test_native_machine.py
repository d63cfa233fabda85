"""Differential suite: the native tier vs the compiled and tree machines.

The native machine (exec-generated Python bodies for discharged λs,
trampoline-driven, compiled-machine ``eval_code`` fallback for anything
residual-monitored) must be *observably identical* to both other
machines: same answer kind, same printed value, same output bytes, same
violation witness, same error text, same ``steps`` — across the corpus,
under no monitoring, full monitoring (where every λ falls back), and a
residual policy (where proven λs run as native frames and the rest fall
back in the same run).  Plus the native-only contracts: the fuel boundary
(``fuel=0`` means no steps anywhere, exhaustion mid-native-frame is the
ordinary ``FuelExhausted``) and proper tail calls via the trampoline far
past CPython's recursion limit.
"""

import sys

import pytest

from repro.analysis.discharge import VerificationCache, discharge_for_run
from repro.corpus import all_programs, diverging_programs
from repro.eval import FuelExhausted
from repro.eval import machine as machine_mod
from repro.eval import native as native_mod
from repro.eval.machine import Answer, compile_code, run_program, run_source
from repro.eval.native import ensure_native, ensure_native_libraries
from repro.lang.parser import parse_program
from repro.lang.resolve import T_LAM
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value

MACHINES = ("tree", "compiled", "native")
PROGRAMS = all_programs()
DIVERGING = diverging_programs()

MAX_STEPS = 30_000_000


def run_everywhere(program, *, mode, strategy="cm", measures=None,
                   discharge=None, max_steps=MAX_STEPS, fuel=None):
    # ``program`` is a *parsed* Program: λ labels are assigned at parse
    # time, so a residual policy only matches the parse it was computed
    # from — every machine must run the very same object.
    if isinstance(program, str):
        program = parse_program(program)
    answers = {}
    for machine in MACHINES:
        answers[machine] = run_program(
            program, mode=mode, strategy=strategy,
            monitor=SCMonitor(measures=measures), max_steps=max_steps,
            fuel=fuel, machine=machine, discharge=discharge,
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
    eligible); ``full`` without a policy exercises the all-fallback
    path (every λ is residual-monitored)."""

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
                                 max_steps=3_000_000)
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
        answers = {}
        monitors = {}
        for machine in MACHINES:
            monitors[machine] = SCMonitor()
            answers[machine] = run_program(
                parsed, mode="full", monitor=monitors[machine],
                max_steps=3_000_000, machine=machine,
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
                                 discharge=result.policy)
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
        a = run_source(src, mode="off", machine="native")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "native"

    def test_all_fallback_run_reports_compiled(self):
        # mode=full with no policy: every λ is monitored.  Under the cm
        # strategy the trampoline steps the table itself, so the λs run
        # natively; the imperative strategy's mutable table stays with
        # the interpreter, so there no native frame ever runs and the
        # answer honestly says so.
        src = "(define (f n) (if (zero? n) 1 (f (- n 1))))\n(f 5)\n"
        a = run_source(src, mode="full", machine="native")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "native"
        a = run_source(src, mode="full", strategy="imperative",
                       machine="native")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "compiled"
        # A monitor the trampoline cannot replicate inline (label
        # keying) falls back too.
        a = run_source(src, mode="full", monitor=SCMonitor(keying="label"),
                       machine="native")
        assert a.kind == Answer.VALUE and a.value == 1
        assert a.tier == "compiled"

    def test_other_machines_report_themselves(self):
        for machine in ("tree", "compiled"):
            a = run_source("(+ 1 2)", mode="off", machine=machine)
            assert a.tier == machine


class TestMonitoredNative:
    """Residual-monitored λs run on the native tier: the trampoline
    steps the cm table itself, carries each frame's continuation-mark
    state, and raises the same witness the interpreter raises."""

    def test_self_tail_loop_violation_identical(self):
        # A compiled self-tail loop must not jump past the table step.
        src = "(define (f n) (f (+ n 1)))\n(f 0)\n"
        answers = {m: run_source(src, mode="full", machine=m,
                                 fuel=1_000_000)
                   for m in ("compiled", "native")}
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
        answers = {m: run_program(parse_program(src), mode="full",
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
        answers = run_everywhere(src, mode=mode, max_steps=1_000_000)
        assert_all_same(answers)
        assert answers["native"].tier == "native"

    @pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_monitor_sees_the_same_calls(self, prog):
        monitors = {m: SCMonitor(measures=prog.measures)
                    for m in ("compiled", "native")}
        answers = {m: run_source(prog.source, mode="full",
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
        first = run_source(src, mode="full", machine="native")
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compile(*args, **kwargs)

        monkeypatch.setattr(native_mod, "compile", counting, raising=False)
        parsed = parse_program(src)
        second = run_program(parsed, mode="full", machine="native")
        assert calls == []
        assert second.tier == "native"
        assert observables(second) == observables(first)
        assert all(lam.native is not None for lam in code_lams(parsed))

    @pytest.mark.parametrize("left, right", [
        ("'(1 2 3)", "'(4 5 6)"),
        ('"' + "a" * 70 + '"', '"' + "b" * 70 + '"'),
    ], ids=["quoted-list", "long-string"])
    def test_programs_keep_their_own_constants(self, left, right):
        lams = []
        for const in (left, right):
            parsed = parse_program(f"(define (f n) (if (zero? n) {const} "
                                   f"(f (- n 1))))\n(f 2)\n")
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


def observables(answer):
    value = write_value(answer.value) if answer.kind == Answer.VALUE else None
    error = None if answer.error is None else str(answer.error)
    return (answer.kind, value, answer.output, answer.steps, answer.tier,
            error)


def skip_set(policy):
    """The skip set ``run_program`` resolves a policy under."""
    return (frozenset(policy.skip_labels) or None) if policy else None


def code_lams(program, policy=None):
    """Every CLam in the program's resolved forms (the objects the
    native tier compiles), under ``policy``'s skip set."""
    out = []
    stack = [compile_code(form.expr, skip_set(policy))
             for form in program.forms]
    while stack:
        node = stack.pop()
        if node.tag == T_LAM:
            out.append(node)
        for attr in ("exprs", "test", "then", "els", "body", "rhss", "expr"):
            child = getattr(node, attr, None)
            if isinstance(child, (list, tuple)):
                stack.extend(child)
            elif child is not None:
                stack.append(child)
    return out


def native_run(program, *, mode, policy=None, measures=None,
               fuel=MAX_STEPS):
    return run_program(program, mode=mode,
                       monitor=SCMonitor(measures=measures), fuel=fuel,
                       machine="native", discharge=policy)


def eager_run(source, *, mode, with_policy=False, measures=None,
              fuel=MAX_STEPS, result_kinds=None):
    """A native run on a fresh parse whose codes (and the libraries) were
    all compiled ahead of time — the pre-tier-up pipeline."""
    parsed, result = discharged(source, result_kinds)
    policy = result.policy if with_policy else None
    ensure_native_libraries()
    for form in parsed.forms:
        ensure_native(compile_code(form.expr, skip_set(policy)))
    return native_run(parsed, mode=mode, policy=policy, measures=measures,
                      fuel=fuel)


class TestLazyTierUp:
    """λs compile at their first native-eligible apply.  Threshold one
    makes exactly the tier decisions the ahead-of-time walk made, so
    every observable — ``steps`` and ``tier`` included — is independent
    of what was compiled before, and a λ never applied on an eligible
    path is never compiled."""

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

    def test_residual_monitored_program_compiles_nothing(self):
        # mode full without a policy: every λ is monitored.  Where the
        # monitored λs fall back (the imperative strategy) no apply is
        # eligible and no user λ is ever compiled; under cm every applied
        # λ tiers up, and only those.
        prog = next(p for p in PROGRAMS if p.name == "ho-sc-ack")
        parsed = parse_program(prog.source)
        a = run_program(parsed, mode="full", strategy="imperative",
                        monitor=SCMonitor(measures=prog.measures),
                        fuel=MAX_STEPS, machine="native")
        assert a.kind == Answer.VALUE and a.tier == "compiled"
        lams = code_lams(parsed)
        assert lams
        assert all(lam.native_is_gen is None for lam in lams)
        a = native_run(parsed, mode="full", measures=prog.measures)
        assert a.kind == Answer.VALUE and a.tier == "native"
        assert all(lam.native is not None for lam in lams)

    def test_uncalled_discharged_lambda_is_never_compiled(self):
        src = ("(define (unused n) (if (zero? n) 0 (unused (- n 1))))\n"
               "(define (used n) (if (zero? n) 7 (used (- n 1))))\n"
               "(used 3)\n")
        parsed, result = discharged(src)
        assert result.complete
        a = native_run(parsed, mode="full", policy=result.policy)
        assert a.tier == "native" and write_value(a.value) == "7"
        by_name = {lam.name: lam for lam in code_lams(parsed, result.policy)}
        assert by_name["used"].native is not None
        assert by_name["unused"].native_is_gen is None

    def test_rejected_lambda_is_attempted_once(self, monkeypatch):
        # A body past the emitter's source bound is rejected at its first
        # eligible apply and from then on runs interpreted.
        body = " ".join(f"(+ n {i})" for i in range(6000))
        src = (f"(define (big n) (begin {body} n))\n"
               "(define (loop i) (if (zero? i) 0 (begin (big i) "
               "(loop (- i 1)))))\n(loop 3)\n")
        attempts = []
        real = native_mod.compile_lam

        def counting(clam):
            attempts.append(clam)
            real(clam)

        monkeypatch.setattr(native_mod, "compile_lam", counting)
        monkeypatch.setattr(machine_mod, "compile_lam", counting)
        parsed = parse_program(src)
        a = native_run(parsed, mode="off")
        ref = run_program(parsed, mode="off", fuel=MAX_STEPS)
        assert a.kind == Answer.VALUE and write_value(a.value) == "0"
        assert (a.kind, write_value(a.value), a.output) == \
            (ref.kind, write_value(ref.value), ref.output)
        by_name = {lam.name: lam for lam in code_lams(parsed)}
        big = by_name["big"]
        assert big.native is None and big.native_is_gen is False
        assert attempts.count(big) == 1
        assert by_name["loop"].native is not None
        assert len(attempts) == len(set(map(id, attempts)))
        assert observables(a) == observables(eager_run(src, mode="off"))

    def test_tier_up_through_the_driver(self):
        # f is entered from the interpreter; g is first applied at a
        # non-tail site inside f's native frame, so the trampoline
        # compiles it.
        src = ("(define (g n) (if (zero? n) 1 (* 2 (g (- n 1)))))\n"
               "(define (f n) (+ 1 (g n)))\n(f 5)\n")
        parsed = parse_program(src)
        by_name = {lam.name: lam for lam in code_lams(parsed)}
        a = native_run(parsed, mode="off")
        assert write_value(a.value) == "33" and a.tier == "native"
        assert by_name["f"].native_is_gen is True
        assert by_name["g"].native is not None
        assert observables(a) == observables(eager_run(src, mode="off"))

    def test_tier_up_at_a_direct_tail_call_site(self):
        # f's tail call to g takes the direct path only once g is
        # compiled; the first time the guard fails, the request goes to
        # the trampoline, which compiles g.  The second call then goes
        # direct — the steps match a run where g was compiled up front.
        src = ("(define (g n) (+ n 1))\n(define (f n) (g n))\n"
               "(f 1)\n(f 2)\n")
        parsed = parse_program(src)
        by_name = {lam.name: lam for lam in code_lams(parsed)}
        a = native_run(parsed, mode="off")
        assert write_value(a.value) == "3" and a.tier == "native"
        assert by_name["f"].native_is_gen is False
        assert by_name["g"].native_is_gen is False
        assert by_name["g"].native is not None
        assert observables(a) == observables(eager_run(src, mode="off"))

    def test_fuel_runs_out_on_the_compiling_apply(self):
        # Every budget up to the one that suffices, including the one
        # exhausted exactly at the apply that tiers f (then g) up.
        src = ("(define (g n) (+ n 1))\n(define (f n) (g n))\n(f 1)\n")
        need = native_run(parse_program(src), mode="off").steps
        assert need > 0
        for fuel in range(need + 1):
            lazy = native_run(parse_program(src), mode="off", fuel=fuel)
            eager = eager_run(src, mode="off", fuel=fuel)
            assert observables(lazy) == observables(eager), fuel
            if fuel < need:
                assert lazy.kind == Answer.TIMEOUT
                assert isinstance(lazy.error, FuelExhausted)
