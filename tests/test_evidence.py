"""One evidence choice per request: the CLI and ``sized serve`` agree
under size-change (SC) and monotonicity-constraint (MC) evidence, both
for a run (its discharge and its residual monitor) and for the verdict
on an explicit entry or on the program itself — with the contract
ranges (``result_kinds``) the request declares."""

import asyncio
import json

import pytest

from repro.analysis.discharge import discharge_for_run
from repro.cli import main
from repro.corpus import get_program
from repro.eval.machine import EXIT_CODES
from repro.evidence import evidence
from repro.lang.parser import parse_program
from repro.serve import AsyncServeClient, ServeConfig, SizedServer
from repro.symbolic.verify import verify_program

# Counts up to a ceiling: SC monitoring rejects it, MC accepts it.  The
# top-level call goes through a box, which the analysis loses track of,
# so nothing is discharged and the residual monitor decides the run.
COUNT_UP = ("(define (range2 lo hi)\n"
            "  (if (>= lo hi) '() (cons lo (range2 (+ lo 1) hi))))\n"
            "(length ((unbox (box range2)) 0 10))\n")
# Counts down: verified, and discharged, under either evidence.
COUNT_DOWN = "(define (f n) (if (zero? n) 42 (f (- n 1))))\n(f 10)\n"

# A run-time error inside a verified λ.
RT_ERROR = "(define (f n) (if (zero? n) (car n) (f (- n 1))))\n(f 3)\n"

# Ackermann: discharged only under the contract range ack=nat (§4.2).
ACK = get_program("sct-3").source
ACK_RANGE = {"ack": "nat"}

KIND_OF_EXIT = {code: kind for kind, code in EXIT_CODES.items()}


def _serve(requests):
    async def body():
        server = SizedServer(ServeConfig(port=0, workers=1))
        await server.start()
        client = await AsyncServeClient.connect("127.0.0.1", server.port)
        try:
            return [await client.request(r) for r in requests]
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(body())


def _mc_flag(mc):
    return ["--mc"] if mc else []


def _range_flags(result_kinds):
    return [arg for name, kind in (result_kinds or {}).items()
            for arg in ("--result-kind", f"{name}={kind}")]


def _direct_discharge(text, mc, result_kinds):
    return discharge_for_run(parse_program(text), text,
                             "mc" if mc else "sc", result_kinds).summary()


def test_run_agrees_with_serve(tmp_path, capsys):
    """`sized run` and a serve `run` report one answer record: the same
    exit status, and the CLI's value (stdout) or report (stderr) is the
    response's ``value``, ``violation`` or ``message``; the response's
    discharge is the direct one under the same ``result_kinds``."""
    cases = [(text, mc, None, None) for text in (COUNT_UP, COUNT_DOWN)
             for mc in (False, True)]
    cases += [(RT_ERROR, False, None, None), (ACK, False, None, ACK_RANGE),
              (COUNT_DOWN, False, 3, None)]
    responses = _serve([{"op": "run", "program": text, "mode": "full",
                         "discharge": "try", "mc": mc, "fuel": fuel,
                         "result_kinds": result_kinds}
                        for text, mc, fuel, result_kinds in cases])
    path = tmp_path / "prog.scm"
    seen = {}
    for (text, mc, fuel, result_kinds), served in zip(cases, responses):
        path.write_text(text)
        fuel_flag = [] if fuel is None else ["--fuel", str(fuel)]
        code = main(["run", str(path), "--mode", "full",
                     "--discharge", "try"] + _mc_flag(mc) + fuel_flag
                    + _range_flags(result_kinds))
        out, err = capsys.readouterr()
        assert served["ok"] is True, served
        assert served["discharge"] == \
            _direct_discharge(text, mc, result_kinds), (text, mc)
        assert served["kind"] == KIND_OF_EXIT[code], (text, mc, served)
        assert served["exit"] == code
        assert ("value" in served) == (code == 0)
        printed, expected = {
            0: (out, served.get("value")),
            1: (err, "run-time error: " + served.get("message", "")),
            3: (err, served.get("violation")),
            4: (err, served.get("message"))}[code]
        assert printed == f"{expected}\n", (text, mc, fuel)
        seen[text, mc, fuel] = served["kind"]
    # The pair the evidence kinds disagree on.
    assert seen[COUNT_UP, False, None] == "sc-error"
    assert seen[COUNT_UP, True, None] == "value"
    assert seen[RT_ERROR, False, None] == "rt-error"
    assert seen[COUNT_DOWN, False, 3] == "timeout"
    assert responses[-1]["fuel_exhausted"] is True
    assert responses[-2]["discharge"] == {"complete": True, "skipped": 1,
                                          "reasons": []}
    path.write_text(ACK)
    assert main(["run", str(path), "--discharge", "require"]
                + _range_flags(ACK_RANGE)) == 0


def test_verify_agrees_with_serve(tmp_path, capsys):
    """A serve `verify` on an entry answers `sized verify --json`'s
    verdict; one without an entry answers the program's discharge, as
    `sized run --discharge require` decides it."""
    cases = [(text, entry, kinds, mc, None)
             for text, entry, kinds in ((COUNT_UP, "range2", ["nat", "nat"]),
                                        (COUNT_DOWN, "f", ["nat"]))
             for mc in (False, True)]
    cases += [(ACK, None, [], False, ACK_RANGE)]
    responses = _serve([{"op": "verify", "program": text, "entry": entry,
                         "kinds": kinds, "mc": mc,
                         "result_kinds": result_kinds}
                        for text, entry, kinds, mc, result_kinds in cases])
    path = tmp_path / "prog.scm"
    for (text, entry, kinds, mc, result_kinds), served in zip(cases,
                                                              responses):
        path.write_text(text)
        assert served["ok"] is True, served
        if entry is None:
            code = main(["run", str(path), "--discharge", "require"]
                        + _mc_flag(mc) + _range_flags(result_kinds))
            capsys.readouterr()
            assert served["verified"] == (code == 0)
            assert served["discharge"] == \
                _direct_discharge(text, mc, result_kinds)
            continue
        code = main(["verify", str(path), "--entry", entry,
                     "--kinds", ",".join(kinds), "--json"] + _mc_flag(mc))
        verdict = json.loads(capsys.readouterr().out)
        assert served["exit"] == code
        assert served["verdict"] == verdict
    assert [r["verified"] for r in responses] == [False, True, True, True,
                                                  True]


def test_reference_graph_engine_needs_sc_evidence(tmp_path, capsys):
    program = parse_program(COUNT_DOWN)
    assert verify_program(program, "f", ["nat"],
                          graph_engine="reference").verified
    with pytest.raises(ValueError):
        verify_program(program, "f", ["nat"], evidence="mc",
                       graph_engine="reference")
    path = tmp_path / "prog.scm"
    path.write_text(COUNT_DOWN)
    assert main(["verify", str(path), "--entry", "f", "--kinds", "nat",
                 "--mc", "--engine", "reference"]) == 2
    assert "--engine reference" in capsys.readouterr().err


def test_unknown_evidence_kind_is_refused():
    with pytest.raises(ValueError):
        evidence("ljb")
    with pytest.raises(ValueError):
        verify_program(parse_program(COUNT_DOWN), "f", ["nat"],
                       evidence="ljb")
