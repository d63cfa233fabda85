"""The ``fuel`` knob: a step bound whose exhaustion is a *distinct*
outcome (:class:`~repro.eval.errors.FuelExhausted`, still importable
under its old name ``MachineTimeout``), the only way a run times out.
A step is one closure body entered, on every machine."""

import pytest

from repro.eval import FuelExhausted, MachineTimeout
from repro.eval.machine import Answer, run_source
from repro.lang.parser import parse_program
from repro.eval.machine import run_program

LOOP = "(define (spin n) (spin (+ n 1)))\n(spin 0)\n"
QUICK = "(define (f n) (if (zero? n) 42 (f (- n 1))))\n(f 10)\n"
# Primitive calls only, no closure application.
NO_APPLY = "(define x 1)\n(display (+ x 1))\nx\n"

MACHINES = ("tree", "compiled", "native")


@pytest.mark.parametrize("machine", MACHINES)
class TestFuel:
    def test_exhaustion_is_timeout_kind(self, machine):
        a = run_source(LOOP, mode="off", fuel=5_000, machine=machine)
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)
        assert MachineTimeout is FuelExhausted
        assert "fuel exhausted" in str(a.error)

    def test_ample_fuel_returns_value(self, machine):
        a = run_source(QUICK, mode="off", fuel=1_000_000, machine=machine)
        assert a.kind == Answer.VALUE and a.value == 42

    def test_run_program_accepts_fuel(self, machine):
        program = parse_program(LOOP, source="<fuel-test>")
        a = run_program(program, mode="off", fuel=5_000, machine=machine)
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)

    def test_monitored_run_accepts_fuel(self, machine):
        a = run_source(QUICK, mode="full", fuel=1_000_000, machine=machine)
        assert a.kind == Answer.VALUE and a.value == 42


@pytest.mark.parametrize("machine", MACHINES)
class TestFuelBoundaries:
    """The fuel contract at its edges — identical on every machine:
    ``fuel=0`` is immediate exhaustion, the reported limit is the real
    limit, ``Answer.steps`` is metered on *every* outcome kind, and the
    completes/exhausts boundary is exact."""

    def test_fuel_zero_is_immediate_exhaustion(self, machine):
        # NO_APPLY charges nothing, yet fuel=0 still stops it before the
        # first form.
        for src in (QUICK, NO_APPLY):
            a = run_source(src, mode="off", fuel=0, machine=machine)
            assert a.kind == Answer.TIMEOUT
            assert isinstance(a.error, FuelExhausted)
            assert a.steps == 0 and a.output == ""
            assert "after 0 steps" in str(a.error)

    def test_fuel_one(self, machine):
        a = run_source(QUICK, mode="off", fuel=1, machine=machine)
        assert a.kind == Answer.TIMEOUT
        assert isinstance(a.error, FuelExhausted)
        assert a.steps == 1
        assert "after 1 steps" in str(a.error)
        # Primitive calls are free: a program with no closure
        # application spends nothing.
        free = run_source(NO_APPLY, mode="off", fuel=1, machine=machine)
        assert free.kind == Answer.VALUE and free.value == 1
        assert free.steps == 0 and free.output == "2"

    def test_exhaustion_reports_real_limit(self, machine):
        for limit in (0, 1, 17, 5_000):
            a = run_source(LOOP, mode="off", fuel=limit, machine=machine)
            assert isinstance(a.error, FuelExhausted)
            assert a.error.limit == limit
            assert f"after {limit} steps" in str(a.error)
            assert a.steps == limit

    def test_exact_step_boundary(self, machine):
        # Measure the true cost S, then check fuel=S completes while
        # fuel=S-1 exhausts: the budget is exact, not off-by-one.
        a = run_source(QUICK, mode="off", fuel=1_000_000, machine=machine)
        assert a.kind == Answer.VALUE
        cost = a.steps
        assert 0 < cost < 1_000_000
        exact = run_source(QUICK, mode="off", fuel=cost, machine=machine)
        assert exact.kind == Answer.VALUE and exact.value == 42
        assert exact.steps == cost
        short = run_source(QUICK, mode="off", fuel=cost - 1,
                           machine=machine)
        assert short.kind == Answer.TIMEOUT
        assert isinstance(short.error, FuelExhausted)

    def test_steps_metered_on_runtime_error(self, machine):
        a = run_source("(define (f n) (if (zero? n) (car 1) (f (- n 1))))\n"
                       "(f 5)\n", mode="off", fuel=100_000, machine=machine)
        assert a.kind == Answer.RT_ERROR
        assert 0 < a.steps < 100_000

    def test_steps_metered_on_violation(self, machine):
        from repro.sct.monitor import SCMonitor

        program = parse_program(LOOP, source="<fuel-test>")
        a = run_program(program, mode="full", monitor=SCMonitor(),
                        fuel=5_000_000, machine=machine)
        assert a.kind == Answer.SC_ERROR
        assert 0 < a.steps < 5_000_000

    def test_unlimited_fuel_reports_zero_steps(self, machine):
        # fuel=None means "unmetered": steps stays 0 rather than lying.
        a = run_source(QUICK, mode="off", fuel=None, machine=machine)
        assert a.kind == Answer.VALUE and a.steps == 0

    def test_trace_source_same_fuel_zero_semantics(self, machine):
        from repro.sct.trace import trace_source

        r = trace_source(QUICK, mode="full", fuel=0, machine=machine)
        assert r.answer.kind == Answer.TIMEOUT
        assert isinstance(r.answer.error, FuelExhausted)
        assert r.answer.steps == 0


class TestFuelParity:
    """Every machine charges one step per closure body entered, at the
    closure branch of its apply, so the same fuel admits exactly the
    same calls on the tree, compiled and native machines."""

    COUNTED = ("(define (count n)\n"
               "  (if (zero? n) 0\n"
               "      (begin (display n) (newline) (count (- n 1)))))\n"
               "(count 1000000)\n")

    @staticmethod
    def _admitted(machine, fuel):
        a = run_source(TestFuelParity.COUNTED, mode="off", fuel=fuel,
                       machine=machine)
        assert a.kind == Answer.TIMEOUT
        return len(a.output.split())

    def test_same_fuel_admits_same_calls(self):
        for fuel in (5_000, 20_000):
            admitted = {m: self._admitted(m, fuel) for m in MACHINES}
            # One step per `count` call, each of which displays once
            # (display and newline are primitives: free).
            assert admitted["tree"] == fuel
            assert admitted["compiled"] == admitted["native"] == \
                admitted["tree"]

    def test_same_fuel_same_outcome_kind(self):
        # The contract is identical: exhaustion kind, error type, limit
        # reporting, steps spent.
        for fuel in (0, 1, 1_000):
            t, c, n = (run_source(LOOP, mode="off", fuel=fuel, machine=m)
                       for m in MACHINES)
            assert t.kind == c.kind == n.kind == Answer.TIMEOUT
            assert type(t.error) is type(c.error) is type(n.error) \
                is FuelExhausted
            assert t.error.limit == c.error.limit == n.error.limit == fuel
            assert t.steps == c.steps == n.steps == fuel


class TestFuelCli:
    def test_run_fuel_exit_code_and_message(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "loop.scm"
        f.write_text(LOOP)
        code = main(["run", str(f), "--mode", "off", "--fuel", "5000"])
        assert code == 4
        assert "fuel exhausted" in capsys.readouterr().err

    def test_fuel_zero_exits_4_immediately(self, tmp_path, capsys):
        # --fuel 0 must not be mistaken for "unlimited" by a falsy-zero
        # check anywhere on the CLI path.
        from repro.cli import main

        f = tmp_path / "quick.scm"
        f.write_text(QUICK)
        code = main(["run", str(f), "--mode", "off", "--fuel", "0"])
        assert code == 4
        assert "after 0 steps" in capsys.readouterr().err

    def test_trace_fuel_same_exit_code(self, tmp_path, capsys):
        """``sized trace --fuel`` exits 4 on exhaustion, like ``run``:
        both read the one exit-status table."""
        from repro.cli import main

        f = tmp_path / "loop.scm"
        f.write_text(LOOP)
        code = main(["trace", str(f), "--mode", "contract",
                     "--fuel", "5000"])
        assert code == 4
        assert "fuel exhausted" in capsys.readouterr().err
