"""CLI tests: `sized run/verify/bench/corpus` via the entry function."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def scm(tmp_path):
    def write(source: str) -> str:
        path = tmp_path / "prog.scm"
        path.write_text(source)
        return str(path)

    return write


class TestRun:
    def test_run_value(self, scm, capsys):
        path = scm("(+ 1 2)")
        assert main(["run", path]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_run_displays_output(self, scm, capsys):
        path = scm('(display "hi") (newline) 42')
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "hi" in out and "42" in out

    def test_run_full_mode_catches_loop(self, scm, capsys):
        path = scm("(define (f x) (f x)) (f 1)")
        assert main(["run", path, "--mode", "full"]) == 3
        assert "size-change violation" in capsys.readouterr().err

    def test_run_contract_mode_blame(self, scm, capsys):
        path = scm('(define f (terminating/c (lambda (x) (f x)) "me")) (f 1)')
        assert main(["run", path]) == 3
        assert "me" in capsys.readouterr().err

    def test_run_timeout_exit_code(self, scm, capsys):
        path = scm("(define (f x) (f x)) (f 1)")
        assert main(["run", path, "--mode", "off", "--fuel", "5000"]) == 4

    def test_run_rt_error(self, scm, capsys):
        path = scm("(car 5)")
        assert main(["run", path]) == 1
        assert "car" in capsys.readouterr().err

    def test_imperative_strategy(self, scm, capsys):
        path = scm("(define (c n) (if (zero? n) 'ok (c (- n 1)))) (c 50)")
        assert main(["run", path, "--mode", "full",
                     "--strategy", "imperative"]) == 0
        assert capsys.readouterr().out.strip() == "ok"


    def test_map_print_order_is_seed_independent(self, scm):
        """A displayed hash map prints the same text in every process:
        symbol and string keys hash by Python's per-process ``hash``."""
        path = scm("(display (hash 'd 4 'b 2 'a 1 'c 3)) (newline)\n"
                   "(hash \"y\" '(1 2) \"x\" 'v 'z #\\a)")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "repro", "run", path],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].splitlines() == [
            "#hash((a . 1) (b . 2) (c . 3) (d . 4))",
            '#hash(("x" . v) ("y" . (1 2)) (z . #\\a))',
        ]


class TestParseErrors:
    """A malformed program file is bad input: one stderr line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["run"], ["run", "--discharge", "try"], ["verify", "--entry", "f"],
        ["trace"],
    ])
    @pytest.mark.parametrize("source, message", [
        ("(define (f x)\n  (f x)", "unterminated list at "),
        ('(f "abc\\', "unterminated string at "),
        ("(if)", "if expects 2 or 3 sub-expressions at "),
    ])
    def test_parse_error_exit_code(self, scm, capsys, argv, source, message):
        path = scm(source)
        assert main([argv[0], path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["run"], ["verify", "--entry", "f"], ["trace"],
    ])
    def test_parse_error_names_the_file(self, scm, capsys, argv):
        path = scm("(define (f x) (f x)")
        assert main([argv[0], path] + argv[1:]) == 2
        assert capsys.readouterr().err == (
            f"parse error: unterminated list at {path}:1:0\n")


class TestVerify:
    def test_verified(self, scm, capsys):
        path = scm("(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))")
        assert main(["verify", path, "--entry", "len", "--kinds", "list"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_unknown(self, scm, capsys):
        path = scm("(define (f x) (f x))")
        assert main(["verify", path, "--entry", "f", "--kinds", "nat"]) == 3
        assert "unknown" in capsys.readouterr().out

    def test_result_kind_flag(self, scm, capsys):
        path = scm("""
        (define (ack m n)
          (cond [(= 0 m) (+ 1 n)]
                [(= 0 n) (ack (- m 1) 1)]
                [else (ack (- m 1) (ack m (- n 1)))]))
        """)
        code = main(["verify", path, "--entry", "ack",
                     "--kinds", "nat,nat", "--result-kind", "nat"])
        assert code == 0


ACK = """
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(ack 2 3)
"""


class TestVerifyJsonAndEngine:
    def test_json_verified(self, scm, capsys):
        import json

        path = scm(ACK)
        code = main(["verify", path, "--entry", "ack", "--kinds", "nat,nat",
                     "--result-kind", "nat", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "verified" and data["verified"] is True
        assert data["entry"] == "ack" and data["kinds"] == ["nat", "nat"]
        assert data["witness"] is None
        assert data["discharge"]["complete"] is True
        assert "ack" in data["discharge"]["discharged"]

    def test_json_unknown_nonzero_exit(self, scm, capsys):
        import json

        path = scm("(define (f x) (f x))")
        code = main(["verify", path, "--entry", "f", "--kinds", "nat",
                     "--json"])
        assert code == 3  # CI scripts gate on the exit code
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "unknown" and data["reasons"]
        assert data["witness"]["function"] == "f"
        assert data["witness"]["path"]

    def test_engine_parity(self, scm, capsys):
        path = scm(ACK)
        results = {}
        for engine in ("bitmask", "reference"):
            code = main(["verify", path, "--entry", "ack",
                         "--kinds", "nat,nat", "--result-kind", "nat",
                         "--engine", engine])
            results[engine] = (code, capsys.readouterr().out.splitlines()[0])
        assert results["bitmask"] == results["reference"]

    def test_engine_parity_on_failure(self, scm, capsys):
        path = scm("(define (f x) (f x))")
        for engine in ("bitmask", "reference"):
            code = main(["verify", path, "--entry", "f", "--kinds", "nat",
                         "--engine", engine])
            assert code == 3
            assert "witness" in capsys.readouterr().out


class TestRunDischarge:
    def test_discharge_try_verified(self, scm, capsys):
        path = scm(ACK)
        code = main(["run", path, "--mode", "full", "--discharge", "try",
                     "--result-kind", "ack=nat"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_discharge_require_verified(self, scm, capsys):
        path = scm(ACK)
        code = main(["run", path, "--mode", "full", "--discharge", "require",
                     "--result-kind", "ack=nat"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_discharge_require_refuses(self, scm, capsys):
        path = scm("(define (f x) (f x)) (f 1)")
        code = main(["run", path, "--mode", "full",
                     "--discharge", "require"])
        assert code == 5
        assert "cannot fully discharge" in capsys.readouterr().err

    def test_discharge_try_keeps_residual_checks(self, scm, capsys):
        path = scm("(define (f x) (f x)) (f 1)")
        plain = main(["run", path, "--mode", "full"])
        plain_err = capsys.readouterr().err
        code = main(["run", path, "--mode", "full", "--discharge", "try"])
        err = capsys.readouterr().err
        assert code == plain == 3
        assert err == plain_err  # byte-identical violation

    def test_discharge_cache_on_disk(self, scm, tmp_path, capsys):
        path = scm(ACK)
        store = str(tmp_path / "certs")
        for _ in range(2):
            code = main(["run", path, "--mode", "full", "--discharge",
                         "require", "--result-kind", "ack=nat",
                         "--discharge-cache", store])
            assert code == 0
            capsys.readouterr()
        import os

        assert os.listdir(store)

    def test_disk_certificate_roundtrip_across_processes(self, scm,
                                                         tmp_path):
        """`scheme` is not fully discharged: the first process stores its
        certificate, acyclic λs included, and a second process reads it
        back (no miss, so no rewrite) and answers byte for byte the
        same."""
        from repro.corpus import get_program

        path = scm(get_program("scheme").source)
        store = tmp_path / "certs"
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "repro", "run", path, "--mode", "full",
                "--discharge", "try", "--discharge-cache", str(store)]
        answers, entries = [], []
        for _ in range(2):
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=env, timeout=120)
            answers.append((proc.returncode, proc.stdout, proc.stderr))
            (entry,) = store.glob("*/*")
            stat = entry.stat()
            entries.append((entry, stat.st_ino, stat.st_mtime_ns,
                            entry.read_text()))
        assert answers[0] == answers[1]
        assert answers[0][0] == 0 and answers[0][1].strip()
        assert entries[0] == entries[1]  # read, not rewritten
        data = json.loads(entries[1][3])
        assert data["schema"] == "discharge-certificate/v5"
        assert data["acyclic"] and data["taint_reasons"]


class TestCorpusListing:
    def test_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "sct-3" in out and "scheme" in out

    def test_corpus_diverging(self, capsys):
        assert main(["corpus", "--diverging"]) == 0
        assert "buggy-nfa" in capsys.readouterr().out
