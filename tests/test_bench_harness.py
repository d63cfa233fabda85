"""Benchmark-harness tests: the report machinery and small real runs."""

import json

import pytest

from repro.bench.divergence import render_divergence, run_divergence
from repro.bench.fig10 import Fig10Point, render_fig10, run_fig10, summarize_shape
from repro.bench.report import fmt_factor, fmt_ms, render_table
from repro.bench.table1 import Table1Row, render_table1
from repro.corpus.registry import REGISTRY
from repro.eval.machine import Answer


class TestReport:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["x", 1], ["longer", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "longer" in out and "22" in out

    def test_formatters(self):
        assert fmt_ms(0.0015) == "1.50ms"
        assert fmt_factor(2.0) == "2.0x"


class TestFig10Harness:
    def test_real_run_every_workload(self):
        # Every panel: run_fig10 asserts each size runs to a value
        # unchecked, under cm and under imperative.
        points = run_fig10(scale="quick", repeats=1)
        assert len(points) == 18  # six panels, three sizes each
        for p in points:
            assert p.unchecked > 0 and p.cm > 0 and p.imperative > 0
        rendered = render_fig10(points)
        assert "factorial" in rendered and "cm-slowdown" in rendered

    def test_shape_summary_flags_misses(self):
        # Synthetic data violating the tight-loop claim must be reported.
        pts = [
            Fig10Point("sum", 10, 1.0, 1.5, 1.2),
            Fig10Point("factorial", 10, 1.0, 9.0, 8.0),
        ]
        summary = summarize_shape(pts)
        assert "MISS" in summary

    def test_shape_summary_accepts_paper_shape(self):
        pts = [
            Fig10Point("sum", 10, 1.0, 80.0, 40.0),
            Fig10Point("sum", 20, 1.0, 85.0, 42.0),
            Fig10Point("factorial", 10, 1.0, 1.2, 1.1),
        ]
        summary = summarize_shape(pts)
        assert "MISS" not in summary


class TestDivergenceHarness:
    def test_run_and_render(self):
        points = run_divergence(standard_budget=12_500)
        assert all(p.caught for p in points)
        rendered = render_divergence(points)
        assert "buggy-nfa" in rendered
        assert f"{len(points)}/{len(points)} diverging programs stopped" in rendered


class TestAblationHarness:
    def test_outcomes(self):
        from repro.bench.ablation import render_ablation, run_ablation

        points = run_ablation(scale="quick", repeats=1)
        outcomes = {(p.workload, p.config): p.outcome for p in points}
        # Fig. 5's containment order cannot justify merge-sort's freshly
        # allocated halves; every other knob leaves every workload a value.
        assert outcomes.pop(("merge-sort", "cm+containment-order")) == \
            "errorSC"
        assert set(outcomes.values()) == {"value"}
        assert "cm+loop-entries" in render_ablation(points)


class TestTable1Render:
    def test_render_marks_deviations(self):
        prog = REGISTRY["sct-1"]
        good = Table1Row(prog, True, "", True)
        bad = Table1Row(prog, False, "", True)
        out = render_table1([good, bad])
        assert "DEVIATES" in out and "yes" in out

    def test_measure_annotation_shown(self):
        prog = REGISTRY["acl2-fig-2"]
        row = Table1Row(prog, True, "O", False)
        out = render_table1([row])
        assert "YO" in out


class TestMCHarness:
    def test_static_rows_cover_entry_corpus(self):
        from repro.bench.mc_ablation import run_mc_static
        from repro.corpus.registry import all_programs

        rows = run_mc_static()
        with_entry = [p for p in all_programs() if p.entry is not None]
        assert len(rows) == len(with_entry)
        by_name = {r.name: r for r in rows}
        assert by_name["lh-range"].note == "gained by MC"
        assert not any(r.sc and not r.mc for r in rows), \
            "MC must subsume SC on every row"

    def test_dynamic_rows_and_render(self):
        from repro.bench.mc_ablation import (
            render_mc,
            run_mc_dynamic,
            run_mc_static,
        )

        dynamic = run_mc_dynamic(scale="quick", repeats=1)
        workloads = {r.workload for r in dynamic}
        assert workloads == {"sum", "merge-sort", "count-up"}
        count_up = {r.monitor: r for r in dynamic if r.workload == "count-up"}
        assert count_up["sc"].outcome == "errorSC"
        assert count_up["mc"].outcome == "value"
        assert count_up["sc+measure"].outcome == "value"
        assert all(r.outcome == "value" for r in dynamic
                   if r.workload != "count-up")
        out = render_mc(run_mc_static(), dynamic)
        assert "rows gained by MC: lh-range" in out
        assert "rows lost by MC:   none" in out

    def test_cli_bench_mc(self, capsys):
        from repro.cli import main

        assert main(["bench", "mc", "--repeats", "1"]) == 0
        assert "gained by MC" in capsys.readouterr().out


def _cells(**overrides):
    """Synthetic ``(machine, policy) -> seconds`` for one program on
    which every bar passes: cm compiled 6x tree, discharged 1.0x off,
    monitored 1.5x off, monitored native 1.5x compiled, native 15x tree
    and 5x compiled."""
    seconds = {
        ("tree", "off"): 3.0, ("tree", "cm"): 9.0,
        ("tree", "imperative"): 9.0, ("compiled", "off"): 1.0,
        ("compiled", "cm"): 1.5, ("compiled", "imperative"): 1.5,
        ("native", "cm"): 1.0,
        ("tree", "discharged"): 3.0, ("compiled", "discharged"): 1.0,
        ("native", "discharged"): 0.2,
    }
    for key, value in overrides.items():
        seconds[tuple(key.split("_"))] = value
    return seconds


def _rows(*cell_maps):
    """One discharged row per cell map, plus a residual-monitored row
    with the first map's cells (the monitored-native bar's subset),
    named in order from the programs the native-vs-tree bar is over."""
    from repro.bench.machines import NATIVE_BAR_PROGRAMS, ProgramCells

    rows = [ProgramCells(NATIVE_BAR_PROGRAMS[i], 10, 0.001, 1, cells)
            for i, cells in enumerate(cell_maps)]
    rows.append(ProgramCells(NATIVE_BAR_PROGRAMS[len(rows)], 10, 0.001,
                             None, cell_maps[0]))
    return rows


class TestMachinesHarness:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.bench.machines import run_machines

        return run_machines(scale="smoke", repeats=1,
                            programs=("sct-1", "lh-gcd"))

    def test_run_render_and_report(self, rows, tmp_path):
        from repro.bench.machines import (
            DISCHARGED_CELLS,
            MONITOR_CELLS,
            render_machines,
            write_machines_json,
        )

        by_name = {r.program: r for r in rows}
        assert set(by_name) == {"sct-1", "lh-gcd"}
        sct1 = by_name["sct-1"]
        assert set(sct1.seconds) == set(MONITOR_CELLS + DISCHARGED_CELLS)
        assert sct1.skipped_labels >= 1
        for r in rows:
            assert r.iterations >= 1 and r.verify_s > 0
            assert all(s > 0 for s in r.seconds.values())
        rendered = render_machines(rows)
        assert "claims:" in rendered and "native vs tree" in rendered
        out = tmp_path / "BENCH_machines.json"
        write_machines_json(rows, str(out), scale="smoke", repeats=1)
        assert json.loads(out.read_text())["schema"] == "bench-machines/v1"

    def test_subset_excludes_unverified(self, rows):
        from repro.bench.machines import MONITOR_CELLS

        lh_gcd = next(r for r in rows if r.program == "lh-gcd")
        assert not lh_gcd.discharged and lh_gcd.skipped_labels is None
        assert set(lh_gcd.seconds) == set(MONITOR_CELLS)

    def test_cells_see_a_program_redefining_a_library_name(
            self, monkeypatch):
        """A program defining its own ``flat-named/c`` (which the
        library's ``flat/c`` calls) gets, in every cell, tree cells
        included, the answer it gets on a fresh environment."""
        from repro.bench import machines
        from repro.corpus.registry import CorpusProgram
        from repro.eval.machine import run_source
        from repro.values.values import write_value

        text = ("(define (flat-named/c name pred) 'mine)\n"
                "(display (flat/c 1))")
        prog = CorpusProgram("redefines", text, "", ("Y",) * 5, None)
        answers = {}

        def once(runs, repeats):
            for cell, run in runs.items():
                answers[cell] = run().record()
            return {cell: 1.0 for cell in runs}

        monkeypatch.setattr(machines, "all_programs", lambda: [prog])
        monkeypatch.setattr(machines, "interleaved_best_of", once)
        [row] = machines.run_machines(scale="smoke", programs=["redefines"])
        fresh = run_source(
            machines.harness_amplified(text, row.iterations),
            machine="tree").record()
        assert fresh["output"] == "mine" * row.iterations
        assert ("tree", "off") in answers
        for cell, record in answers.items():
            assert record["tier"] == cell[0]
            record["tier"] = "tree"
            assert record == fresh, cell

    @pytest.mark.parametrize("answer, calls, match", [
        (Answer(Answer.RT_ERROR, error="boom"), 0, "failed"),
        (Answer(Answer.VALUE, tier="tree"), 0, "ran on tier 'tree'"),
        (Answer(Answer.VALUE, tier="native"), 3, "still monitored 3 calls"),
    ])
    def test_runner_checks_each_op(self, monkeypatch, answer, calls, match):
        from repro.bench import machines
        from repro.corpus import get_program

        def fake_run_program(parsed, *, monitor, **kwargs):
            monitor.calls_seen = calls
            return answer

        monkeypatch.setattr(machines, "run_program", fake_run_program)
        run = machines._runner(get_program("sct-1"), None, object(),
                               ("native", "discharged"), None)
        with pytest.raises(RuntimeError, match=match):
            run()

    def test_claims_all_pass(self):
        from repro.bench.machines import acceptance, claims, render_machines

        rows = _rows(_cells(), _cells())
        assert [c.passed for c in claims(rows)] == [True] * 6
        assert acceptance(rows)
        assert "MISS" not in render_machines(rows)

    @pytest.mark.parametrize("bar, rows, gated", [
        ("cm: compiled vs tree", [_cells(tree_cm=4.0)], False),
        ("discharged vs off", [_cells(compiled_discharged=1.2)], False),
        ("monitored vs off", [_cells(compiled_cm=2.1)], False),
        ("native vs tree", [_cells(native_discharged=0.32)], True),
        ("native vs compiled",
         [_cells(), _cells(native_discharged=1.05, tree_discharged=30.0)],
         True),
        ("monitored native vs compiled", [_cells(native_cm=2.0)], False),
    ])
    def test_each_bar_misses_alone(self, bar, rows, gated):
        from repro.bench.machines import acceptance, claims, render_machines

        rows = _rows(*rows)
        missed = [c for c in claims(rows) if not c.passed]
        assert [c.name for c in missed] == [bar]
        assert missed[0].gated is gated
        assert acceptance(rows) is not gated
        assert f"{bar}" in render_machines(rows)
        assert "MISS" in render_machines(rows)

    def test_worst_program_named(self):
        from repro.bench.machines import claims

        rows = _rows(_cells(), _cells(native_discharged=0.5))
        per_program = claims(rows)[-1]
        assert per_program.worst == "sct-2" and per_program.value == 2.0

    @pytest.mark.parametrize("program, passed", [
        ("div", True), ("sct-5", False)])
    def test_native_bar_is_over_the_named_programs(self, program, passed):
        """A discharged program at 5x native-vs-tree pulls the gated
        bar under 10x only when it is one the bar was set on."""
        from repro.bench.machines import ProgramCells, acceptance, claims

        rows = _rows(_cells()) + [ProgramCells(
            program, 10, 0.001, 1, _cells(native_discharged=0.6))]
        bar = {c.name: c for c in claims(rows)}["native vs tree"]
        assert bar.passed is passed and acceptance(rows) is passed

    def test_bars_over_empty_subset_miss(self):
        from repro.bench.machines import ProgramCells, acceptance, claims

        rows = [ProgramCells("p", 10, 0.001, None, _cells())]
        by_name = {c.name: c.passed for c in claims(rows)}
        assert by_name["cm: compiled vs tree"]
        assert not by_name["discharged vs off"]
        assert not by_name["native vs tree"]
        assert not acceptance(rows)

    def test_report_schema(self):
        from repro.bench.machines import machines_report

        rows = _rows(_cells(), _cells(native_discharged=0.25))
        report = machines_report(rows, scale="smoke")
        assert report["schema"] == "bench-machines/v1"
        assert report["scale"] == "smoke" and report["repeats"] == 3
        assert {"python", "implementation"} <= set(report)
        program = report["programs"][0]
        assert set(program) == {"program", "iterations", "verify_s",
                                "skipped_labels", "cells"}
        assert {"machine": "native", "policy": "discharged",
                "seconds": 0.2} in program["cells"]
        assert len(program["cells"]) == 10
        assert [c["name"] for c in report["claims"]] == [
            "cm: compiled vs tree", "discharged vs off", "monitored vs off",
            "monitored native vs compiled", "native vs tree",
            "native vs compiled"]
        for claim in report["claims"]:
            assert set(claim) == {"name", "value", "target", "at_most",
                                  "gated", "worst", "pass"}
        assert report["claims"][-1]["worst"] == "sct-2"
        assert report["acceptance"] == {"pass": True}
        json.dumps(report)

    @pytest.mark.parametrize("cells, code", [
        ([_cells()], 0),
        ([_cells(compiled_cm=1.5, compiled_discharged=1.5)], 0),
        ([_cells(native_discharged=0.5)], 1),
        ([_cells(native_discharged=1.5, tree_discharged=30.0)], 1),
    ])
    def test_cli_exit_gates_native_bars(self, monkeypatch, tmp_path, capsys,
                                        cells, code):
        from repro.bench import machines
        from repro.cli import main

        seen = {}

        def fake_run_machines(scale, repeats):
            seen.update(scale=scale, repeats=repeats)
            return _rows(*cells)

        monkeypatch.setattr(machines, "run_machines", fake_run_machines)
        out = tmp_path / "BENCH_machines.json"
        assert main(["bench", "machines", "--smoke", "--repeats", "2",
                     "--out", str(out)]) == code
        assert seen == {"scale": "smoke", "repeats": 2}
        assert json.loads(out.read_text())["acceptance"]["pass"] is (code == 0)
        assert "acceptance (gated bars)" in capsys.readouterr().out
