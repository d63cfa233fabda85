"""Golden verdicts: ``Verdict.to_json()`` for every corpus program with an
entry, under ``verify_program`` with both graph engines and with
``evidence="mc"``, pinned byte for byte in ``data/verify_golden.json``.

The JSON carries each verdict's status, reasons, witness graph and call
path, anchor lines and discharge summary, so any change to phase 2 that
moves one of them shows up here.  Regenerate the file only when a
verdict is meant to change::

    PYTHONPATH=src python tests/test_verify_golden.py > tests/data/verify_golden.json
"""

import json
import os

from repro.corpus import all_programs, conservative_programs, extra_programs
from repro.lang.parser import parse_program
from repro.symbolic.verify import verify_program

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "verify_golden.json")


def golden_text() -> str:
    rows = {}
    for prog in all_programs() + extra_programs() + conservative_programs():
        if prog.entry is None:
            continue
        name, kinds = prog.entry
        row = {}
        for mode in ("bitmask", "reference", "mc"):
            parsed = parse_program(prog.source)
            if mode == "mc":
                verdict = verify_program(parsed, name, kinds,
                                         result_kinds=prog.result_kinds,
                                         evidence="mc")
            else:
                verdict = verify_program(parsed, name, kinds,
                                         result_kinds=prog.result_kinds,
                                         graph_engine=mode)
            row[mode] = verdict.to_json()
        rows[prog.name] = row
    return json.dumps(rows, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


def test_verdicts_match_golden_file():
    with open(GOLDEN, encoding="utf-8") as f:
        expected = f.read()
    assert golden_text() == expected


if __name__ == "__main__":
    print(golden_text(), end="")
