"""Differential suite: the compiled machine vs the tree machine.

The compiled machine (lexical-addressing pass + slot frames + monitor
fast path) and the native tier on top of it must be *observably
identical* to the tree machine: same answer kind, same printed value,
same output, same violation witness, same ``steps`` — across every
corpus program (Table 1, extras, conservative rejections, diverging)
under all three monitoring set-ups (none / cm / imperative), plus
resolver unit tests for the lexical addressing itself.
"""

import pytest

from repro.corpus import all_programs, diverging_programs
from repro.corpus.registry import CONSERVATIVE, EXTRAS
from repro.eval.machine import Answer, make_env, run_program, run_source
from repro.lang.parser import parse_program
from repro.lang.resolve import resolve
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value
from tests.test_acyclic_skip import _label

PROGRAMS = all_programs()
EXTRA_PROGRAMS = list(EXTRAS.values()) + list(CONSERVATIVE.values())
DIVERGING = diverging_programs()

# (suite name, mode, strategy) — the "three strategies" of the issue.
SETUPS = [
    ("none", "off", "cm"),
    ("cm", "full", "cm"),
    ("imperative", "full", "imperative"),
]

MAX_STEPS = 30_000_000
MACHINES = ("tree", "compiled", "native")

# Answers per (source, mode, strategy, budget): TestStepParity reads the
# runs TestCorpusDifferential already made instead of repeating them.
_RUNS: dict = {}


def run_all(source, *, mode, strategy, measures=None, fuel=MAX_STEPS):
    """The answers of every machine, tree first."""
    key = (source, mode, strategy, fuel)
    if key not in _RUNS:
        _RUNS[key] = [
            run_source(source, mode=mode, strategy=strategy,
                       monitor=SCMonitor(measures=measures),
                       fuel=fuel, machine=machine)
            for machine in MACHINES]
    return _RUNS[key]


def run_both(source, **kw):
    """Tree and compiled answers, after checking native against tree."""
    tree, compiled, native = run_all(source, **kw)
    assert_same_answer(tree, native)
    return tree, compiled


def assert_same_answer(tree, compiled):
    assert compiled.kind == tree.kind, (
        f"kind mismatch: tree={tree!r} compiled={compiled!r}")
    assert compiled.steps == tree.steps
    assert compiled.output == tree.output
    if tree.kind == Answer.VALUE:
        assert write_value(compiled.value) == write_value(tree.value)
    if tree.kind == Answer.SC_ERROR:
        tv, cv = tree.violation, compiled.violation
        assert cv.function == tv.function
        assert cv.blame == tv.blame
        assert [write_value(a) for a in cv.prev_args] == \
            [write_value(a) for a in tv.prev_args]
        assert [write_value(a) for a in cv.new_args] == \
            [write_value(a) for a in tv.new_args]
        assert cv.composition == tv.composition
    if tree.kind == Answer.RT_ERROR:
        assert str(compiled.error) == str(tree.error)


@pytest.mark.parametrize("suite,mode,strategy", SETUPS,
                         ids=[s[0] for s in SETUPS])
@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestCorpusDifferential:
    def test_identical_answers(self, prog, suite, mode, strategy):
        if prog.name == "scheme" and strategy == "imperative":
            pytest.skip("cm-only for the interpreter benchmark (slow)")
        tree, compiled = run_both(prog.source, mode=mode, strategy=strategy,
                                  measures=prog.measures)
        assert tree.kind == Answer.VALUE
        assert_same_answer(tree, compiled)


@pytest.mark.parametrize("prog", EXTRA_PROGRAMS,
                         ids=[p.name for p in EXTRA_PROGRAMS])
def test_extras_differential_cm(prog):
    tree, compiled = run_both(prog.source, mode="full", strategy="cm",
                              measures=prog.measures)
    assert_same_answer(tree, compiled)


@pytest.mark.parametrize("prog", EXTRA_PROGRAMS,
                         ids=[p.name for p in EXTRA_PROGRAMS])
def test_extras_differential_imperative(prog):
    tree, compiled = run_both(prog.source, mode="full",
                              strategy="imperative", measures=prog.measures)
    assert_same_answer(tree, compiled)


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
class TestDivergingDifferential:
    def test_identical_violation_cm(self, prog):
        tree, compiled = run_both(prog.source, mode="full", strategy="cm",
                                  measures=prog.measures,
                                  fuel=375_000)
        assert tree.kind == Answer.SC_ERROR
        assert_same_answer(tree, compiled)

    def test_identical_violation_imperative(self, prog):
        tree, compiled = run_both(prog.source, mode="full",
                                  strategy="imperative",
                                  measures=prog.measures,
                                  fuel=375_000)
        assert tree.kind == Answer.SC_ERROR
        assert_same_answer(tree, compiled)


class TestStepParity:
    """One step is one closure body entered on every machine, so the
    step count is a machine-independent observable: tree, compiled and
    native spend exactly the same steps on every Table 1 program under
    both strategies (equality, the tightest bound)."""

    @pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
    def test_compiled_steps_bounded_by_tree(self, prog):
        for strategy in ("cm", "imperative"):
            tree, compiled, native = run_all(
                prog.source, mode="full", strategy=strategy,
                measures=prog.measures)
            assert tree.kind == Answer.VALUE
            assert 0 < tree.steps == compiled.steps == native.steps


class TestResolverAddressing:
    """Unit tests for the lexical-addressing pass itself."""

    def ev(self, src, **kw):
        a = run_source(src, machine="compiled", **kw)
        assert a.kind == Answer.VALUE, repr(a)
        return a.value

    def test_shadowing_inner_wins(self):
        assert self.ev("(define x 1) (let ([x 2]) (let ([x 3]) x))") == 3

    def test_duplicate_names_in_one_rib(self):
        # Racket-style lambda lists reject duplicates in the parser, but
        # nested lets exercise rib search order.
        assert self.ev("(let ([a 1] [b 2]) (let ([a b] [b a]) (- a b)))") == 1

    def test_set_through_captured_frame(self):
        src = """
        (define (make-counter)
          (let ([n 0])
            (lambda () (set! n (+ n 1)) n)))
        (define c (make-counter))
        (c) (c) (c)
        """
        assert self.ev(src) == 3

    def test_letrec_use_before_init_is_error(self):
        a = run_source("(letrec ([x y] [y 1]) x)", machine="compiled")
        assert a.kind == Answer.RT_ERROR
        assert "used before initialization" in str(a.error)

    def test_deep_nesting_addresses(self):
        src = """
        (define (f a)
          (lambda (b)
            (lambda (c)
              (let ([d (+ a b)])
                (+ (+ a b) (+ c d))))))
        (((f 1) 2) 3)
        """
        assert self.ev(src) == 9

    def test_lam_metadata(self):
        program = parse_program("(lambda (a b c) a)")
        code = resolve(program.forms[0].expr)
        assert code.nparams == 3

    def test_tail_call_depth_is_constant(self):
        src = ("(define (loop n) (if (= n 0) 'done (loop (- n 1))))"
               " (loop 300000)")
        a = run_source(src, machine="compiled")
        assert a.kind == Answer.VALUE

    def test_machine_argument_validated(self):
        with pytest.raises(ValueError, match="unknown machine"):
            run_source("1", machine="bytecode")


class TestPrimitiveBinding:
    """A parse knows the global names it rebinds; resolving its forms
    binds every other primitive it reads to the stock primitive (a
    literal).  The prelude and the contract library are parses like
    any other."""

    def test_rebound_and_bound_names(self):
        program = parse_program(
            "(define (f car) (set! car 1) (cdr car))\n"
            "(define (g) (set! + -))\n"
            "(define (h l) (let ([null? 0]) (set! null? 1) (length l)))\n"
            "(letrec ([pair? (lambda (x) x)]) (set! pair? 2) (pair? 3))\n"
            "(set! zero? 4)\n")
        # Lexically bound set! targets (car, null?, pair?) are not
        # global rebinds; `+` and `zero?` are.
        assert program.rebound == {"f", "g", "h", "+", "zero?"}
        assert program.prims == {"cdr", "-", "length"}

    def test_read_before_a_later_define_is_not_bound(self):
        program = parse_program("(define a (car '(1)))\n"
                                "(define (car p) p)\n(car 5)")
        assert "car" in program.rebound and not program.prims

    def test_program_reads_become_literals(self):
        from repro.lang.prims import PRIMS_BY_NAME
        from repro.lang.resolve import T_GLOBAL, T_LIT, walk

        program = parse_program("(define (f l) (if (null? l) 0 (car l)))")
        nodes = list(walk(resolve(program.forms[0].expr)))
        assert not [n for n in nodes if n.tag == T_GLOBAL]
        lits = {n.value for n in nodes if n.tag == T_LIT}
        assert {PRIMS_BY_NAME["null?"], PRIMS_BY_NAME["car"]} <= lits
        # Naming no set binds nothing: the global reads stay.
        free = list(walk(resolve(program.forms[0].expr, frozenset())))
        assert {n.sname for n in free if n.tag == T_GLOBAL} == {
            "null?", "car"}

    @staticmethod
    def cheap_apps(program):
        """Each application in ``program``'s resolved forms, written
        back as source, mapped to its ``cheap`` flag."""
        from repro.lang.resolve import T_APP, T_LIT, walk
        from repro.values.values import Prim

        def show(code):
            if code.tag == T_APP:
                return "(" + " ".join(show(e) for e in code.exprs) + ")"
            if code.tag == T_LIT:
                v = code.value
                return v.name if type(v) is Prim else write_value(v)
            return code.name if isinstance(code.name, str) \
                else code.name.name

        return {show(n): n.cheap for form in program.forms
                for n in walk(resolve(form.expr)) if n.tag == T_APP}

    def test_cheap_is_decided_at_resolve_time(self):
        # Cheap: a bound primitive head whose arity admits the
        # arguments, over immediates or cheap applications; purity
        # does not matter (set-box! mutates).
        apps = self.cheap_apps(parse_program(
            "(define (f x b g)\n"
            "  (list (car x) (+ 1 (car x)) (car x 2) (+ 1 (car x 2))\n"
            "        (f x b g) (g x) (+ 1 (g x)) (set-box! b 1)))"))
        assert apps == {
            "(car x)": True, "(+ 1 (car x))": True, "(set-box! b 1)": True,
            "(car x 2)": False, "(+ 1 (car x 2))": False,
            "(f x b g)": False, "(g x)": False, "(+ 1 (g x))": False,
            "(list (car x) (+ 1 (car x)) (car x 2) (+ 1 (car x 2)) "
            "(f x b g) (g x) (+ 1 (g x)) (set-box! b 1))": False,
        }
        # A program that rebinds car reads it from the environment.
        apps = self.cheap_apps(parse_program(
            "(define (g x) (car x))\n(define (car p) p)"))
        assert apps == {"(car x)": False}

    def test_library_applications_are_cheap(self):
        from repro.lang.libraries import prelude_program

        apps = self.cheap_apps(prelude_program())
        assert apps["(null? l)"] and apps["(cons i (loop (+ i 1)))"] is False
        assert apps["(+ i 1)"] and not apps["(map f (cdr l))"]

    def test_libraries_bind_the_primitives_they_read(self):
        from repro.lang.libraries import contracts_program, \
            prelude_program
        from repro.lang.prims import PRIM_NAMES
        from repro.lang.resolve import T_GLOBAL, walk

        def global_reads(library, prims=None):
            return {n.sname for form in library.forms
                    for n in walk(resolve(form.expr, prims))
                    if n.tag == T_GLOBAL}

        for library in (prelude_program(), contracts_program()):
            assert not library.rebound & PRIM_NAMES
            assert {"car", "cdr", "null?"} <= library.prims
            # Bound: no call site reads a primitive name as a global.
            assert not global_reads(library) & PRIM_NAMES
            # The resolution a rebinding run uses reads them all.
            assert global_reads(library, frozenset()) & PRIM_NAMES == \
                library.prims

    def test_library_resolutions_stay_two(self):
        """Whatever subset of the library's primitives runs rebind, a
        library form has one resolution besides the bound one: the one
        that binds nothing."""
        from repro.eval.machine import _RESOLVED_AS
        from repro.lang.libraries import prelude_program

        for name in ("car", "cdr", "null?", "+"):
            src = (f"(define (f x) x)\n(set! {name} f)\n"
                   "(map (lambda (x) x) '())")
            assert run_source(src, machine="compiled").kind == Answer.VALUE
        for form in prelude_program().forms:
            assert set(_RESOLVED_AS[form.expr]) == {frozenset()}


class TestEnvFlavorGuard:
    def test_env_flavor_mismatch_raises(self):
        env = make_env(machine="tree")
        with pytest.raises(ValueError, match="tree"):
            run_source("1", env=env, machine="compiled")

    def test_env_flavor_match_ok(self):
        env = make_env(machine="compiled")
        a = run_source("(+ 1 2)", env=env, machine="compiled")
        assert a.value == 3


class TestSetUnboundGlobalRegression:
    """set! on an unbound global is UnboundVariable (never a bare
    KeyError), on both machines and under both strategies."""

    @pytest.mark.parametrize("machine", ["tree", "compiled"])
    @pytest.mark.parametrize("strategy", ["cm", "imperative"])
    def test_toplevel_set_unbound(self, machine, strategy):
        a = run_source("(set! nope 1)", machine=machine, strategy=strategy)
        assert a.kind == Answer.RT_ERROR
        assert "unbound variable: nope" in str(a.error)

    @pytest.mark.parametrize("machine", ["tree", "compiled"])
    def test_set_unbound_inside_lambda(self, machine):
        a = run_source("((lambda (x) (set! nope x)) 1)", machine=machine)
        assert a.kind == Answer.RT_ERROR
        assert "unbound variable: nope" in str(a.error)

    @pytest.mark.parametrize("machine", ["tree", "compiled"])
    def test_set_unbound_complex_rhs(self, machine):
        a = run_source("(set! nope (+ 1 2))", machine=machine)
        assert a.kind == Answer.RT_ERROR
        assert "unbound variable: nope" in str(a.error)

    def test_global_env_set_raises_unbound(self):
        from repro.sexp.datum import intern
        from repro.values.env import GlobalEnv, UnboundVariable

        env = GlobalEnv()
        with pytest.raises(UnboundVariable):
            env.set(intern("ghost"), 1)


class TestPackedStepAlgebra:
    """The packed step (memoized sizes, the transition memo) must track
    the spec — the reference engine's loop over graph objects —
    entry-for-entry: same check_args, same composition sets, same
    violations at the same calls, each reporting a composition that
    fails in the spec's batch — across arities, ties, pairs, floats,
    and shared objects."""

    def _sequences(self):
        from repro.values.values import Pair

        shared = Pair(1, Pair(2, 3))
        yield "m1-desc", [(8,), (5,), (3,), (2,), (1,)]
        yield "m1-tie", [(4,), (4,), (3,), (3,)]
        yield "m1-grow", [(2,), (5,), (9,)]
        yield "m2-swap", [(5, 3), (3, 5), (5, 3), (2, 5)]
        yield "m2-shared", [(shared, 1), (shared, 0), (shared, 0)]
        yield "m2-float", [(1.5, 4), (1.5, 3), (1.5, 2), (1.5, 2)]
        yield "m3-perm", [(9, 7, 5), (7, 5, 9), (5, 9, 7), (4, 8, 6),
                          (8, 6, 4)]
        yield "m3-mixed", [(Pair(1, 2), 10, "abc"), (Pair(1, 2), 9, "ab"),
                           (2, 9, "ab"), (1, 8, "a")]

    def _drive(self, seq, engine):
        from repro.lang.ast import Lam, Lit
        from repro.sexp.datum import intern
        from repro.values.env import GlobalEnv
        from repro.values.values import Closure

        monitor = SCMonitor(enforce=False, engine=engine)
        params = tuple(intern(f"p{i}") for i in range(len(seq[0])))
        clo = Closure(Lam(params, Lit(1), name="probe"), GlobalEnv())
        entry = monitor.initial_entry(clo, seq[0])
        entries = [entry]
        for args in seq[1:]:
            entry = monitor.advance(entry, clo, args, None)
            entries.append(entry)
        return monitor, entries

    @staticmethod
    def _graphs(entry):
        from repro.sct import bitgraph

        if not entry.m:
            return set(entry.comps)
        mk = bitgraph.masks(entry.m)
        return {bitgraph.unpack(mk, *c) for c in entry.comps}

    def _assert_tracks(self, seq, ctx):
        mon_p, ent_p = self._drive(seq, "bitmask")
        mon_r, ent_r = self._drive(seq, "reference")
        for i, (ep, er) in enumerate(zip(ent_p, ent_r)):
            assert ep.check_args == er.check_args, (ctx, i)
            assert self._graphs(ep) == set(er.comps), (ctx, i)
            assert (ep.count, ep.next_check) == \
                (er.count, er.next_check), (ctx, i)
        assert [v.call_count for v in mon_p.violations] == \
            [v.call_count for v in mon_r.violations], ctx
        for vp, vr in zip(mon_p.violations, mon_r.violations):
            assert vp.graph == vr.graph, ctx
            batch = {vr.graph} | {c.compose(vr.graph)
                                  for c in ent_r[vr.call_count - 2].comps}
            assert vp.composition in {c for c in batch
                                      if not c.desc_ok()}, ctx

    def test_packed_tracks_reference(self):
        for name, seq in self._sequences():
            self._assert_tracks(seq, name)

    def test_packed_tracks_reference_random(self):
        import random

        rng = random.Random(20260729)
        for trial in range(40):
            m = rng.choice([1, 1, 2, 2, 3, 4])
            seq = [tuple(rng.randrange(6) for _ in range(m))
                   for _ in range(rng.randrange(2, 9))]
            self._assert_tracks(seq, (trial, seq))


class TestMonitorFastPathEquivalence:
    """Policy knobs beyond the stock configuration (label keying,
    backoff, events, skip sets) must still agree between machines."""

    SRC = """
    (define (dec n) (if (= n 0) 'done (dec (- n 1))))
    (dec 30)
    """

    def test_label_keying(self):
        answers = {}
        for machine in ("tree", "compiled"):
            mon = SCMonitor(keying="label")
            answers[machine] = run_source(self.SRC, mode="full",
                                          monitor=mon, machine=machine)
        assert answers["tree"].kind == answers["compiled"].kind == \
            Answer.VALUE

    def test_label_keying_partitions_match(self):
        """Label keying must alias closures identically on both machines:
        the captured-rib hash covers the whole immediate rib, including
        bindings the closure never reads (here ``junk``, which keeps the
        per-call closures distinct and the run violation-free)."""
        src = """
        (define (mk junk)
          (lambda (x)
            (if (< x 2) 'done
                ((mk x) (if (even? x) (- x 13) (+ x 11))))))
        ((mk 0) 20)
        """
        answers = {}
        for machine in ("tree", "compiled"):
            mon = SCMonitor(keying="label")
            answers[machine] = run_source(src, mode="full", monitor=mon,
                                          machine=machine, fuel=200_000)
        assert answers["tree"].kind == answers["compiled"].kind, answers

    def test_label_keying_empty_let_rib(self):
        """λs created under an empty ``let`` rib hash an empty rib on both
        machines (the compiled machine keeps a frame even for zero
        binders, mirroring the tree machine's empty Env)."""
        src = """
        (define (spin n f)
          (if (= n 0) 'done
              (spin (- n 1) (let () (lambda (y) y)))))
        (spin 10 (let () (lambda (y) y)))
        """
        answers = {}
        for machine in ("tree", "compiled"):
            mon = SCMonitor(keying="label")
            answers[machine] = run_source(src, mode="full", monitor=mon,
                                          machine=machine, fuel=200_000)
        assert answers["tree"].kind == answers["compiled"].kind, answers

    def test_backoff(self):
        checks = {}
        for machine in ("tree", "compiled"):
            mon = SCMonitor(backoff=True)
            a = run_source(self.SRC, mode="full", monitor=mon,
                           machine=machine)
            assert a.kind == Answer.VALUE
            checks[machine] = (mon.calls_seen, mon.checks_done)
        assert checks["tree"] == checks["compiled"]

    def test_skip_labels_skip_monitoring(self):
        for machine in ("tree", "compiled", "native"):
            program = parse_program(self.SRC)
            mon = SCMonitor()
            a = run_program(program, mode="full", monitor=mon,
                            machine=machine,
                            discharge={_label(program, "dec")})
            assert a.kind == Answer.VALUE
            assert mon.calls_seen == 0

    def test_calls_seen_parity(self):
        seen = {}
        for machine in ("tree", "compiled"):
            mon = SCMonitor()
            a = run_source(self.SRC, mode="full", monitor=mon,
                           machine=machine)
            assert a.kind == Answer.VALUE
            seen[machine] = (mon.calls_seen, mon.checks_done)
        assert seen["tree"] == seen["compiled"]

    def test_events_stream_parity(self):
        streams = {}
        for machine in ("tree", "compiled"):
            events = []
            mon = SCMonitor(events=events)
            a = run_source(self.SRC, mode="full", strategy="imperative",
                           monitor=mon, machine=machine)
            assert a.kind == Answer.VALUE
            streams[machine] = [
                (e[0], e[1], e[2]) if e[0] == "call" else e
                for e in events
            ]
        assert streams["tree"] == streams["compiled"]
