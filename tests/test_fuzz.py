"""The fuzz subsystem: generator discipline, differential oracle,
shrinker, and the regression archive format."""

import pytest

from repro.eval.machine import Answer
from repro.fuzz import (
    ALL_FEATURES,
    FUZZ_FEATURES,
    Divergence,
    archive_divergence,
    default_cells,
    generate_program,
    run_fuzz,
    run_matrix,
    shrink_divergence,
)
from repro.fuzz.differential import POLICIES
from repro.fuzz.gen import GenProgram
from repro.fuzz.shrink import load_regression, parse_forms, render_forms


class TestGenerator:
    def test_deterministic_by_seed(self):
        for mode in ("terminating", "diverging"):
            a = generate_program(7, mode)
            b = generate_program(7, mode)
            assert a.source == b.source
            assert a.entry == b.entry
            assert a.entry_kinds == b.entry_kinds
            assert a.features == b.features
            assert a.must_verify == b.must_verify
            assert a.must_discharge == b.must_discharge

    def test_seeds_vary(self):
        sources = {generate_program(s, "terminating").source
                   for s in range(20)}
        assert len(sources) > 10

    def test_oracle_flags(self):
        t = generate_program(3, "terminating")
        assert t.must_verify
        d = generate_program(3, "diverging")
        assert not d.must_verify and not d.must_discharge

    def test_feature_restriction(self):
        p = generate_program(5, "terminating", features=())
        assert p.features == ()
        with pytest.raises(ValueError):
            generate_program(0, "terminating", features=("warp",))
        with pytest.raises(ValueError):
            generate_program(0, "sideways")

    def test_features_eventually_all_used(self):
        used = set()
        for s in range(120):
            used |= set(generate_program(s, "terminating").features)
        assert used == set(ALL_FEATURES)


class TestCells:
    def test_full_is_thirty(self):
        assert len(default_cells("full")) == 30
        assert {c[2] for c in default_cells("full")} == {
            "off", "monitored", "imperative", "discharged", "acyclic"}

    def test_quick_covers_axes(self):
        cells = default_cells("quick")
        assert {c[0] for c in cells} == {"tree", "compiled", "native"}
        assert {c[1] for c in cells} == {"bitmask", "reference"}
        assert {c[2] for c in cells} == set(POLICIES)
        assert ("native", "bitmask", "imperative") in cells

    def test_explicit_spec(self):
        assert default_cells("tree:bitmask:off") == [
            ("tree", "bitmask", "off")]
        with pytest.raises(ValueError):
            default_cells("tree:bitmask")
        with pytest.raises(ValueError):
            default_cells("tree:warp:off")


class TestShapes:
    """The ``rebinding`` and ``mutual-loop`` shapes draw from a random
    stream of their own: the default feature pool never uses them, and a
    program the campaign draws without them is the default program."""

    @staticmethod
    def with_shape(shape, mode, variant=""):
        for s in range(200):
            p = generate_program(s, mode, features=FUZZ_FEATURES)
            if shape in p.features and variant in p.source:
                return p
        raise AssertionError(f"no {shape} program in 200 seeds")

    def test_default_programs_unchanged(self):
        for mode in ("terminating", "diverging"):
            for s in range(60):
                base = generate_program(s, mode)
                assert not set(base.features) - set(ALL_FEATURES)
                p = generate_program(s, mode, features=FUZZ_FEATURES)
                if not set(p.features) - set(ALL_FEATURES):
                    assert p.source == base.source

    @pytest.mark.parametrize("variant", ["(define (max", "(set! max min)"])
    def test_rebinding(self, variant):
        from repro.lang.parser import parse_program

        p = self.with_shape("rebinding", "terminating", variant)
        parsed = parse_program(p.source)
        assert "max" in parsed.rebound and "max" not in parsed.prims
        # A set! of max makes the λs' calls of it opaque to the engines.
        opaque = variant.startswith("(set!")
        assert p.must_verify is not opaque
        assert p.must_discharge is not opaque
        result = run_matrix(p, cells=default_cells("quick"))
        assert result.divergences == []

    def test_mutual_loop(self):
        p = self.with_shape("mutual-loop", "diverging")
        assert "(define (hlen l)" in p.source
        result = run_matrix(p, cells=default_cells("quick"))
        assert result.divergences == []
        monitored = [r for r in result.cells if r.cell[2] == "monitored"]
        assert monitored and all(r.kind == Answer.SC_ERROR
                                 for r in monitored)
        assert generate_program(p.seed, "terminating",
                                features=("mutual-loop",)).features == ()


class TestMatrixOracle:
    def test_terminating_program_clean(self):
        program = generate_program(0, "terminating")
        result = run_matrix(program)
        assert result.divergences == []
        assert all(r.kind == Answer.VALUE for r in result.cells)

    def test_diverging_program_clean(self):
        program = generate_program(1, "diverging")
        result = run_matrix(program)
        assert result.divergences == []
        off = [r for r in result.cells if r.cell[2] == "off"]
        assert off and all(r.kind == Answer.TIMEOUT for r in off)
        assert set(result.verdicts.values()) == {"unknown"}

    def test_parse_error_is_a_divergence(self):
        program = GenProgram(seed=0, mode="terminating", source="(((",
                             entry="f", entry_kinds=("nat",), features=(),
                             must_verify=False, must_discharge=False,
                             fuel=1000)
        result = run_matrix(program)
        assert [d.klass for d in result.divergences] == ["parse-error"]

    def test_oracle_catches_lying_mode(self):
        """A terminating program labelled 'diverging' must trip the
        diverging-side oracle checks — this is the self-test that the
        differential harness actually looks at its observables."""
        program = _lying_diverging()
        result = run_matrix(program)
        classes = {d.klass for d in result.divergences}
        assert "diverging-survived" in classes
        assert "diverging-verified" in classes

    def test_oracle_compares_steps(self, monkeypatch):
        """``steps`` is a cross-tier observable: a native cell that
        reports one step more than the others must be caught."""
        from repro.fuzz import differential

        honest = differential.CellResult.__init__

        def lying(self, cell, answer):
            honest(self, cell, answer)
            if cell[0] == "native":
                self.steps += 1

        monkeypatch.setattr(differential.CellResult, "__init__", lying)
        result = run_matrix(generate_program(0, "terminating"),
                            cells=default_cells("quick"))
        classes = {d.klass for d in result.divergences}
        assert "native-fallback-mismatch" in classes


    def test_oracle_compares_the_aot_native_run(self, monkeypatch):
        """Each native cell also runs in the ahead-of-time regime, and
        that run's ``steps`` are compared too: an ahead-of-time run that
        reports one step more must be caught."""
        from repro.fuzz import differential

        honest = differential.CellResult.__init__

        def lying(self, cell, answer):
            honest(self, cell, answer)
            if cell[0] == differential.AOT:
                self.steps += 1

        monkeypatch.setattr(differential.CellResult, "__init__", lying)
        result = run_matrix(generate_program(0, "terminating"),
                            cells=default_cells("quick"))
        aot = [r for r in result.cells if r.cell[0] == differential.AOT]
        assert len(aot) == sum(1 for c in default_cells("quick")
                               if c[0] == "native")
        classes = {d.klass for d in result.divergences}
        assert "native-fallback-mismatch" in classes

    def test_both_native_regimes_run(self, monkeypatch):
        """On a short program the threshold run may stay interpreted;
        the ahead-of-time run of the same cell reaches native code."""
        from repro.fuzz import differential

        tiers = {}
        honest = differential.CellResult.__init__

        def recording(self, cell, answer):
            honest(self, cell, answer)
            tiers[cell[0]] = answer.tier

        monkeypatch.setattr(differential.CellResult, "__init__", recording)
        result = run_matrix(generate_program(0, "terminating"),
                            cells=[("compiled", "bitmask", "off"),
                                   ("native", "bitmask", "off")])
        assert [r.cell[0] for r in result.cells] == [
            "compiled", "native", differential.AOT]
        assert result.divergences == []
        assert tiers[differential.AOT] == "native"


def _lying_diverging() -> GenProgram:
    return GenProgram(
        seed=99, mode="diverging",
        source="(define (f n)\n  (if (zero? n) 0 (f (- n 1))))\n(f 3)\n",
        entry="f", entry_kinds=("nat",), features=(),
        must_verify=False, must_discharge=False, fuel=50_000)


class TestFuzzCampaign:
    def test_small_campaign_clean(self):
        report = run_fuzz(8, seed=0, mode="both", matrix="quick",
                          shrink=False)
        assert report.programs == 8
        assert report.by_mode == {"terminating": 4, "diverging": 4}
        assert report.divergences == []
        assert report.verified == report.verify_expected
        assert report.discharged == report.discharge_expected

    def test_report_json_schema(self):
        report = run_fuzz(2, seed=0, matrix="quick", shrink=False)
        payload = report.to_json()
        assert payload["schema"] == "sized-fuzz/v1"
        assert payload["programs"] == 2
        assert payload["divergences_found"] == 0
        assert "programs_per_sec" in payload


class TestShrinker:
    def test_forms_round_trip(self):
        text = "(define (f n)\n  (if (zero? n) 0 (f (- n 1))))\n(f 3)\n"
        assert parse_forms(render_forms(parse_forms(text))) == \
            parse_forms(text)

    def test_shrinks_synthetic_divergence(self):
        cells = default_cells("quick")
        program = _lying_diverging()
        result = run_matrix(program, cells=cells)
        div = next(d for d in result.divergences
                   if d.klass == "diverging-survived")
        shrunk = shrink_divergence(div, cells=cells, max_attempts=40)
        assert len(shrunk) <= len(program.source)
        # The minimized repro still exhibits the class.
        replay = GenProgram(seed=program.seed, mode=program.mode,
                            source=shrunk, entry=program.entry,
                            entry_kinds=program.entry_kinds, features=(),
                            must_verify=False, must_discharge=False,
                            fuel=program.fuel)
        again = run_matrix(replay, cells=cells)
        assert any(d.klass == "diverging-survived"
                   for d in again.divergences)

    def test_archive_round_trip(self, tmp_path):
        program = _lying_diverging()
        div = Divergence("diverging-survived", "synthetic: terminates",
                        program)
        path = archive_divergence(div, directory=str(tmp_path))
        loaded = load_regression(path)
        assert loaded.mode == program.mode
        assert loaded.entry == program.entry
        assert loaded.entry_kinds == program.entry_kinds
        assert loaded.fuel == program.fuel
        assert loaded.must_verify == program.must_verify
        assert parse_forms(loaded.source) == parse_forms(program.source)


class TestNativeCoverage:
    def test_quick_imperative_native_cell_enters_native_code(self):
        # The imperative strategy's undo records live on the native
        # driver's stack, so its native cell runs native frames.
        report = run_fuzz(2, seed=0, matrix="quick", shrink=False)
        assert report.divergences == []
        assert report.native_frames["native-aot:bitmask:imperative"] > 0
        assert report.native_gaps() == []
        payload = report.to_json()
        assert payload["native_frames"] == report.native_frames

    def test_campaign_fails_on_a_vacuous_native_cell(self, monkeypatch,
                                                     capsys):
        import repro.fuzz
        from repro.cli import main

        honest = repro.fuzz.run_fuzz

        def vacuous(*args, **kwargs):
            report = honest(*args, **kwargs)
            report.native_frames["native-aot:bitmask:off"] = 0
            return report

        monkeypatch.setattr(repro.fuzz, "run_fuzz", vacuous)
        assert main(["fuzz", "--n", "1", "--matrix", "quick"]) == 1
        assert "native-aot:bitmask:off never entered" in \
            capsys.readouterr().err
