"""The Fig. 1 call-tree tracer (repro.sct.trace) and the SCP failure
witness with provenance (repro.analysis.witness)."""

import pytest

from repro.analysis.ljb import scp_check
from repro.analysis.witness import scp_check_with_witness
from repro.mc.monitor import MCMonitor
from repro.sct.graph import SCGraph, arc
from repro.sct.monitor import SCMonitor
from repro.sct.trace import assemble_tree, render_tree, trace_source
from repro.symbolic.verify import verify_source

ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 0)
"""


class TestFigure1:
    """§2.1's worked example, regenerated node by node."""

    def test_tree_shape(self):
        result = trace_source(ACK)
        assert result.answer.is_value() and result.answer.value == 3
        [root] = result.roots
        assert root.label() == "(ack 2 0)"
        assert root.graph is None  # trivial first entry
        [n11] = root.children
        assert n11.label() == "(ack 1 1)"
        assert [c.label() for c in n11.children] == ["(ack 1 0)", "(ack 0 2)"]
        [n01] = n11.children[0].children
        assert n01.label() == "(ack 0 1)"
        assert result.total_calls() == 5

    def test_graphs_match_the_paper(self):
        result = trace_source(ACK)
        [root] = result.roots
        n11 = root.children[0]
        # (ack 2 0) ↝ (ack 1 1): {(m ↓ m), (m ↓ n)}
        assert n11.graph == SCGraph([arc(0, "<", 0), arc(0, "<", 1)])
        # (ack 1 1) ↝ (ack 1 0): {(m ↓= m), (m ↓ n), (n ↓= m), (n ↓ n)}
        assert n11.children[0].graph == SCGraph(
            [arc(0, "=", 0), arc(0, "<", 1), arc(1, "=", 0), arc(1, "<", 1)]
        )
        # (ack 1 0) ↝ (ack 0 1): {(m ↓ m), (m ↓= n), (n ↓= m)}
        assert n11.children[0].children[0].graph == SCGraph(
            [arc(0, "<", 0), arc(0, "=", 1), arc(1, "=", 0)]
        )
        # (ack 1 1) ↝ (ack 0 2): {(m ↓ m), (n ↓ m)}
        assert n11.children[1].graph == SCGraph(
            [arc(0, "<", 0), arc(1, "<", 0)]
        )

    def test_rendering_uses_parameter_names(self):
        out = render_tree(trace_source(ACK).roots)
        assert "(ack 2 0)" in out.splitlines()[0]
        assert "{m ↓ m, m ↓ n} → (ack 1 1)" in out
        assert "└─" in out and "├─" in out

    def test_sibling_not_nested(self):
        # (ack 0 2)'s graph compares against (ack 1 1), not against the
        # returned sibling (ack 1 0) — the dynamic-extent semantics.
        result = trace_source(ACK)
        n02 = result.roots[0].children[0].children[1]
        assert n02.label() == "(ack 0 2)"
        assert n02.graph == SCGraph([arc(0, "<", 0), arc(1, "<", 0)])


class TestTracer:
    def test_forest_for_multiple_toplevel_calls(self):
        src = """
        (define (dec n) (if (zero? n) 0 (dec (- n 1))))
        (dec 2) (dec 1)
        """
        result = trace_source(src)
        labels = [r.label() for r in result.roots]
        assert labels == ["(dec 2)", "(dec 1)"]

    def test_violation_tree_is_kept(self):
        result = trace_source("(define (spin x) (spin x)) (spin 7)")
        assert result.answer.kind == result.answer.SC_ERROR
        # the tree still shows the two calls observed before the stop
        assert result.total_calls() >= 1
        assert result.roots[0].label() == "(spin 7)"

    def test_enforce_false_traces_past_violations(self):
        monitor = SCMonitor(enforce=False)
        src = """
        (define (down n) (if (zero? n) 'done (down (- n 1))))
        (define (same n) (if (zero? n) (same 1) 'never))
        (down 3)
        (same 0)
        """
        result = trace_source(src, monitor=monitor, fuel=100000)
        assert len(monitor.violations) >= 1

    def test_mc_monitor_traces_mc_graphs(self):
        src = """
        (define (r lo hi) (if (>= lo hi) '() (cons lo (r (+ lo 1) hi))))
        (r 0 3)
        """
        result = trace_source(src, monitor=MCMonitor())
        assert result.answer.is_value()
        out = render_tree(result.roots)
        assert "lo′ > lo" in out  # ascent recorded, accepted

    def test_backoff_shows_unchecked_calls(self):
        src = "(define (dec n) (if (zero? n) 0 (dec (- n 1)))) (dec 8)"
        result = trace_source(src, monitor=SCMonitor(backoff=True))
        nodes = []
        stack = list(result.roots)
        while stack:
            n = stack.pop()
            nodes.append(n)
            stack.extend(n.children)
        skipped = [n for n in nodes if n.graph is None]
        assert len(skipped) > 1  # backoff left gaps beyond the first call

    def test_assemble_tree_tolerates_unbalanced_returns(self):
        roots = assemble_tree([("return",), ("call", "f", (1,), None, ["x"]),
                               ("return",), ("return",)])
        assert len(roots) == 1

    def test_max_depth_elides(self):
        out = render_tree(trace_source(ACK).roots, max_depth=1)
        assert "…" in out

    def test_max_nodes_budget(self):
        src = "(define (dec n) (if (zero? n) 0 (dec (- n 1)))) (dec 50)"
        out = render_tree(trace_source(src).roots, max_nodes=5)
        assert len(out.splitlines()) == 5


class TestWitnessProvenance:
    def test_same_verdicts_as_plain_scp_check(self):
        cases = [
            {},
            {(0, 0): {SCGraph([arc(0, "<", 0)])}},
            {(0, 0): {SCGraph([arc(0, "=", 0)])}},
            {(0, 1): {SCGraph([arc(0, "=", 0)])},
             (1, 0): {SCGraph([arc(0, "<", 0)])}},
        ]
        for edges in cases:
            assert scp_check(edges).ok == scp_check_with_witness(edges).ok

    def test_direct_failure_has_single_step_path(self):
        g = SCGraph([arc(0, "=", 0)])
        result = scp_check_with_witness({(0, 0): {g}})
        assert result.ok is False
        assert [(s.source, s.target) for s in result.path] == [(0, 0)]
        assert result.path[0].graph == g

    def test_composed_failure_flattens_to_base_edges(self):
        stay = SCGraph([arc(0, "=", 0)])
        result = scp_check_with_witness({(0, 1): {stay}, (1, 0): {stay}})
        assert result.ok is False
        path = [(s.source, s.target) for s in result.path]
        # a cycle through both edges, in temporal order
        assert path in ([(0, 1), (1, 0)], [(1, 0), (0, 1)])
        assert path[0][1] == path[1][0]

    def test_path_composition_equals_witness_graph(self):
        g1 = SCGraph([arc(0, "=", 1), arc(1, "=", 0)])
        g2 = SCGraph([arc(0, "=", 1), arc(1, "<", 0)])
        result = scp_check_with_witness({(0, 0): {g1, g2}})
        if result.ok is False:
            composed = result.path[0].graph
            for step in result.path[1:]:
                composed = composed.compose(step.graph)
            assert composed == result.witness_graph

    def test_render_path_names_labels(self):
        stay = SCGraph([arc(0, "=", 0)])
        result = scp_check_with_witness({(3, 7): {stay}, (7, 3): {stay}})
        text = result.render_path({3: "f", 7: "g"}, {3: ["n"], 7: ["n"]})
        assert "f" in text and "g" in text and "→" in text

    def test_verdict_includes_call_path(self):
        src = """
        (define (bad n) (if (zero? n) 0 (worse n)))
        (define (worse n) (bad n))
        """
        verdict = verify_source(src, "bad", ["nat"])
        assert not verdict.verified
        assert verdict.witness_path
        assert "bad" in verdict.witness_path
        assert "worse" in verdict.witness_path
        assert "along the call path" in verdict.render()

    def test_verified_program_has_no_path(self):
        verdict = verify_source(
            "(define (dec n) (if (zero? n) 0 (dec (- n 1))))", "dec", ["nat"])
        assert verdict.verified
        assert verdict.witness_path is None


class TestCLITrace:
    def test_trace_command(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "ack.scm"
        f.write_text(ACK)
        assert main(["trace", str(f)]) == 0
        out = capsys.readouterr().out
        assert "(ack 2 0)" in out
        assert "⇒ 3" in out

    def test_trace_command_mc(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "range.scm"
        f.write_text("(define (r lo hi) (if (>= lo hi) '() (r (+ lo 1) hi)))"
                     "(r 0 4)")
        assert main(["trace", str(f), "--mc"]) == 0
        assert "lo′ > lo" in capsys.readouterr().out

    def test_trace_command_violation_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "spin.scm"
        f.write_text("(define (spin x) (spin x)) (spin 1)")
        assert main(["trace", str(f)]) == 3

    def test_run_command_mc_flag(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "range.scm"
        f.write_text("(define (r lo hi) (if (>= lo hi) '() (r (+ lo 1) hi)))"
                     "(r 0 4)")
        assert main(["run", str(f), "--mode", "full"]) == 3
        assert main(["run", str(f), "--mode", "full", "--mc"]) == 0

    def test_verify_command_mc_flag(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "range.scm"
        f.write_text("(define (r lo hi) (if (>= lo hi) '() (r (+ lo 1) hi)))")
        assert main(["verify", str(f), "--entry", "r",
                     "--kinds", "nat,nat"]) == 3
        assert main(["verify", str(f), "--entry", "r", "--kinds", "nat,nat",
                     "--mc"]) == 0
