"""The discharge pipeline: certificates, residual policies, the
verification cache, and the differential guarantee.

The differential claims are the PR's acceptance contract:

* **Discharged runs are observably identical** — same values, same
  output — on every corpus program, under both machines.
* **Residual checks are untouched** — on every program the verifier
  could *not* (fully) discharge, the violations raised are byte-identical
  to full monitoring's, including the diverging corpus.
* **Discharge is real** — on the fully discharged subset the monitor
  sees zero calls.
"""

import json
import os

import pytest

from repro.analysis.discharge import (
    VerificationCache,
    discharge_for_run,
    infer_workload,
)
from repro.corpus import all_programs, diverging_programs, extra_programs
from repro.eval.machine import Answer, run_program, run_request
from repro.lang import ast
from repro.lang.libraries import prelude_program
from repro.lang.parser import parse_program
from repro.lang.program import Program
from repro.sct.monitor import SCMonitor
from repro.symbolic.engine import Budget
from repro.values.values import write_value
from tests.test_acyclic_skip import PARTIAL, _label

PROGRAMS = all_programs() + extra_programs()
DIVERGING = diverging_programs()


def _entry_path(store, key):
    """Where an on-disk store files ``key``."""
    return os.path.join(store, key[:2], f"{key}.json")


def _stored_entries(store):
    return [os.path.join(d, f) for d, _, files in os.walk(store)
            for f in files if f.endswith(".json")]

# The big interpreter benchmark is slow; its discharge runs only on the
# compiled machine (every other program exercises both).
_SLOW = {"scheme"}

#: Programs that must fully discharge (pinned: a regression here
#: silently reintroduces monitoring overhead on proven code).  The second
#: line needs the program itself as the entry: literal λ arguments stay
#: concrete, and top-level forms other than direct calls are analysed.
EXPECTED_DISCHARGED = {
    "sct-1", "sct-2", "sct-3", "sct-4", "sct-5", "sct-6",
    "isabelle-perm", "acl2-fig-6", "lh-merge", "lh-tfact",
    "dderiv", "deriv", "nfa",
    "ho-sct-fg", "ho-sct-fold", "lh-map", "div", "tree-ops", "word-count",
    "set-order", "fib-memo", "tower",
}


def _discharge(prog):
    parsed = parse_program(prog.source)
    result = discharge_for_run(parsed, text=prog.source,
                               result_kinds=prog.result_kinds)
    return parsed, result


class TestCertificates:
    def test_expected_subset_discharges(self):
        discharged = set()
        for prog in PROGRAMS:
            _, result = _discharge(prog)
            if result.complete and result.policy:
                discharged.add(prog.name)
        assert discharged == EXPECTED_DISCHARGED

    def test_certificate_shape(self):
        prog = next(p for p in PROGRAMS if p.name == "sct-3")
        _, result = _discharge(prog)
        cert = result.certificate
        assert cert.complete and cert.entry is None and cert.roots
        assert cert.roots <= cert.discharged
        assert -12345 not in cert.discharged
        assert "ack" in cert.discharged_names()
        assert cert.summary()["complete"] is True

    def test_partial_discharge(self):
        """An SCP failure in one loop leaves an unrelated proven loop
        discharged — the residual story, not all-or-nothing."""
        source = """
        (define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
        (define (spin x) (spin x))
        (define (main n) (if (zero? n) (len '(1 2)) (spin n)))
        (main 1)
        """
        parsed = parse_program(source)
        result = discharge_for_run(parsed, text=source)
        assert not result.complete
        cert = result.certificate
        by_name = {cert.label_names.get(l, ""): l for l in cert.labels}
        assert by_name["len"] in cert.discharged
        assert by_name["spin"] not in cert.discharged
        assert by_name["main"] not in cert.discharged
        assert by_name["len"] in result.policy.skip_labels

    def test_taint_blocks_discharge(self):
        """A lost application (through a box) taints everything — even
        the λ that would verify in isolation."""
        source = """
        (define (good n) (if (zero? n) 0 (good (- n 1))))
        (define (main n) (begin (((unbox (box good)) n)) (good n)))
        (main 2)
        """
        parsed = parse_program(source)
        result = discharge_for_run(parsed, text=source)
        cert = result.certificate
        assert cert.taint_reasons
        assert cert.discharged == frozenset()
        # Only main, on no call cycle, is skipped.
        assert result.policy.skip_labels == cert.acyclic == \
            {_label(parsed, "main")}

    def test_opaque_fun_application_blocks_discharge(self):
        """``church`` applies numerals built from λ parameters, which the
        engine sees as opaque opponent functions."""
        prog = next(p for p in PROGRAMS if p.name == "church")
        _, result = _discharge(prog)
        cert = result.certificate
        assert any("opponent" in r for r in cert.taint_reasons)
        assert not cert.discharged
        assert result.policy.skip_labels == cert.acyclic

    def test_uninferable_workload(self):
        source = "(define (f x) x) (+ 1 2)"
        entries, reasons = infer_workload(parse_program(source))
        assert entries is None and reasons

    def test_closure_calling_define_stays_monitored(self):
        """A define whose right-hand side calls a diverging closure is a
        root like any top-level call: the loop stays monitored."""
        source = "(define (spin x) (spin x)) (define y (spin 1))"
        answer, result = run_request(parse_program(source), source,
                                     mode="full", discharge="try",
                                     fuel=200_000)
        assert answer.kind == Answer.SC_ERROR
        cert = result.certificate
        (spin,) = cert.roots
        assert cert.label_names[spin] == "spin"
        assert spin not in cert.discharged and not result.complete

    def test_define_value_flows_into_later_forms(self):
        """A later form sees the values the defines bound: here the
        closure a top-level form pulls out of a list and applies."""
        source = """
        (define (count-down n) (if (zero? n) 0 (count-down (- n 1))))
        (define start (+ 2 3))
        (define fns (list count-down))
        ((car fns) start)
        """
        result = discharge_for_run(parse_program(source), text=source)
        cert = result.certificate
        assert [cert.label_names[l] for l in cert.roots] == ["count-down"]
        assert result.complete

    def test_rebinding_after_a_call_taints(self):
        """Summaries see the last binding of a global; a top-level call
        made before a rebinding runs against the earlier one, so the
        analysis must not discharge it."""
        source = """
        (define (f n) (if (zero? n) 0 (f n)))
        (f 5)
        (define (f n) 0)
        """
        parsed = parse_program(source)
        result = discharge_for_run(parsed, text=source)
        assert not result.complete and not result.certificate.discharged
        assert result.policy.skip_labels == result.certificate.acyclic
        assert any("rebound" in r for r in result.reasons)
        answer = run_program(parsed, mode="full", monitor=SCMonitor(),
                             discharge=result.policy, fuel=200_000)
        assert answer.kind == Answer.SC_ERROR

    def test_output_arguments_are_analysed(self):
        """A call inside a top-level ``display`` is a root like any other:
        ``(f -1)`` counts down forever, so ``f`` stays monitored."""
        source = ("(define (f n) (if (zero? n) 0 (f (- n 1))))\n"
                  "(f 5)\n(display (f -1))")
        answer, result = run_request(parse_program(source), source,
                                     mode="full", discharge="try",
                                     fuel=200_000)
        assert not result.complete and not result.policy
        assert answer.kind == Answer.SC_ERROR

    def test_toplevel_evaluation_is_charged_to_the_budget(self):
        """The top-level forms are one run against the path budget: a
        form larger than the budget ends residual, with the reason."""
        nested = "1"
        for i in range(2, 40):
            nested = f"(+ {i} {nested})"
        source = (f"(define (dec n) (if (zero? n) 0 (dec (- n 1))))\n"
                  f"(dec {nested})")
        program = parse_program(source)
        generous = discharge_for_run(program)
        assert generous.complete
        result = discharge_for_run(program,
                                   budget=Budget(max_paths_per_summary=30))
        assert not result.complete and not result.policy
        assert any("path budget exceeded" in r for r in result.reasons)


class TestVerificationCache:
    def test_memory_hit_and_relabel(self):
        prog = next(p for p in PROGRAMS if p.name == "lh-tfact")
        cache = VerificationCache()
        parsed = parse_program(prog.source)
        r1 = discharge_for_run(parsed, text=prog.source, cache=cache)
        assert cache.misses == 1 and cache.hits == 0
        # A fresh parse carries fresh λ labels; the cached certificate
        # must relabel, not leak stale ones.
        reparsed = parse_program(prog.source)
        r2 = discharge_for_run(reparsed, text=prog.source, cache=cache)
        assert cache.hits == 1
        assert r2.complete
        assert r1.policy.skip_labels != r2.policy.skip_labels or \
            len(r2.policy.skip_labels) == len(r1.policy.skip_labels)
        mon = SCMonitor()
        a = run_program(reparsed, mode="full", monitor=mon,
                        discharge=r2.policy)
        assert a.kind == Answer.VALUE and mon.calls_seen == 0

    def test_disk_roundtrip(self, tmp_path):
        prog = next(p for p in PROGRAMS if p.name == "sct-1")
        store = str(tmp_path / "certs")
        c1 = VerificationCache(store)
        parsed = parse_program(prog.source)
        discharge_for_run(parsed, text=prog.source, cache=c1)
        assert c1.misses == 1
        (entry,) = _stored_entries(store)
        data = json.loads(open(entry).read())
        assert data["schema"] == "discharge-certificate/v5"
        assert "tainted" not in data
        assert data["acyclic"] is None  # complete: nothing to add
        assert all(":" in sid for sid in data["discharged"])
        # A second cache (a "new process") reads the store.
        c2 = VerificationCache(store)
        reparsed = parse_program(prog.source)
        r = discharge_for_run(reparsed, text=prog.source, cache=c2)
        assert c2.hits == 1 and c2.misses == 0
        assert r.complete
        mon = SCMonitor()
        a = run_program(reparsed, mode="full", monitor=mon,
                        discharge=r.policy)
        assert a.kind == Answer.VALUE and mon.calls_seen == 0

    def test_key_distinguishes_inputs(self):
        k = VerificationCache.key
        base = k("(f)", "f", ("nat",), None, "sc")
        assert base != k("(g)", "f", ("nat",), None, "sc")
        assert base != k("(f)", "f", ("int",), None, "sc")
        assert base != k("(f)", "f", ("nat",), {"f": "nat"}, "sc")
        assert base != k("(f)", "f", ("nat",), None, "mc")

    def test_key_depends_on_library_sources(self, monkeypatch):
        """An on-disk certificate names prelude/contracts λs by position,
        so it must die with the library text it was computed against."""
        from repro.analysis import discharge as mod

        base = VerificationCache.key("(f)", "f", ("nat",), None, "sc")
        monkeypatch.setattr(mod, "_LIBRARIES_DIGEST", "different")
        assert VerificationCache.key("(f)", "f", ("nat",), None, "sc") != base


class TestCacheQuarantine:
    """Corrupt on-disk entries are quarantined, not crashed on and not
    silently re-counted as misses."""

    def _populate(self, store):
        prog = next(p for p in PROGRAMS if p.name == "sct-1")
        cache = VerificationCache(store)
        parsed = parse_program(prog.source)
        discharge_for_run(parsed, text=prog.source, cache=cache)
        (entry,) = _stored_entries(store)
        return prog, entry

    def test_truncated_json_is_quarantined(self, tmp_path):
        store = str(tmp_path / "certs")
        prog, entry = self._populate(store)
        good = open(entry).read()
        with open(entry, "w") as f:
            f.write(good[: len(good) // 2])  # truncated mid-object
        cache = VerificationCache(store)
        parsed = parse_program(prog.source)
        r = discharge_for_run(parsed, text=prog.source, cache=cache)
        assert r.complete  # re-verified from scratch
        # Each lookup counts exactly once: this one was a *rejection*,
        # not a miss (hits + misses + rejected == lookups).
        assert cache.rejected == 1
        assert cache.misses == 0 and cache.hits == 0
        assert os.path.exists(entry + ".rejected")
        # put() self-healed the store: a third cache hits cleanly.
        c3 = VerificationCache(store)
        discharge_for_run(parse_program(prog.source), text=prog.source,
                          cache=c3)
        assert c3.hits == 1 and c3.rejected == 0

    def test_schema_mismatch_is_quarantined(self, tmp_path):
        store = str(tmp_path / "certs")
        prog, entry = self._populate(store)
        data = json.loads(open(entry).read())
        data["schema"] = "discharge-certificate/v999"
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        discharge_for_run(parse_program(prog.source), text=prog.source,
                          cache=cache)
        assert cache.rejected == 1 and cache.hits == 0

    def test_v3_entry_is_quarantined_and_rewritten(self, tmp_path):
        """A store written before v4 (which carried a per-label
        ``tainted`` list) is quarantined once, then rewritten by put."""
        store = str(tmp_path / "certs")
        prog, entry = self._populate(store)
        data = json.loads(open(entry).read())
        data["schema"] = "discharge-certificate/v3"
        data["tainted"] = []
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        discharge_for_run(parse_program(prog.source), text=prog.source,
                          cache=cache)
        assert cache.rejected == 1 and cache.hits == 0
        assert os.path.exists(entry + ".rejected")
        rewritten = json.loads(open(entry).read())
        assert rewritten["schema"] == "discharge-certificate/v5"
        again = VerificationCache(store)
        discharge_for_run(parse_program(prog.source), text=prog.source,
                          cache=again)
        assert again.hits == 1 and again.rejected == 0

    def test_v4_entry_is_quarantined_and_rewritten(self, tmp_path):
        """A store written before v5 (which had no ``acyclic`` field) is
        quarantined once, then rewritten as v5 by put."""
        store = str(tmp_path / "certs")
        discharge_for_run(parse_program(PARTIAL), text=PARTIAL,
                          cache=VerificationCache(store))
        (entry,) = _stored_entries(store)
        data = json.loads(open(entry).read())
        data["schema"] = "discharge-certificate/v4"
        del data["acyclic"]
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        discharge_for_run(parse_program(PARTIAL), text=PARTIAL, cache=cache)
        assert (cache.rejected, cache.hits, cache.misses) == (1, 0, 0)
        assert os.path.exists(entry + ".rejected")
        rewritten = json.loads(open(entry).read())
        assert rewritten["schema"] == "discharge-certificate/v5"
        assert rewritten["acyclic"]
        again = VerificationCache(store)
        discharge_for_run(parse_program(PARTIAL), text=PARTIAL, cache=again)
        assert again.hits == 1 and again.rejected == 0

    def test_reset_and_snapshot(self, tmp_path):
        store = str(tmp_path / "certs")
        prog, _ = self._populate(store)
        cache = VerificationCache(store)
        parsed = parse_program(prog.source)
        discharge_for_run(parsed, text=prog.source, cache=cache)
        discharge_for_run(parsed, text=prog.source, cache=cache)
        snap = cache.snapshot()
        assert snap["hits"] >= 1 and snap["entries"] >= 1
        assert snap["path"] == store and snap["rejected"] == 0
        cache.reset()
        snap = cache.snapshot()
        assert snap == {"hits": 0, "misses": 0, "rejected": 0,
                        "entries": 0, "path": store}

    def test_sharded_layout(self, tmp_path):
        """One layout, ``<store>/<key[:2]>/<key>.json``, for every cache:
        what one writes, a second cache and a serve worker both read."""
        import asyncio

        from repro.serve import AsyncServeClient, ServeConfig, SizedServer

        prog = next(p for p in PROGRAMS if p.name == "sct-1")
        store = str(tmp_path / "certs")
        cache = VerificationCache(store)
        parsed = parse_program(prog.source)
        discharge_for_run(parsed, text=prog.source, cache=cache)
        (entry,) = _stored_entries(store)
        assert os.path.dirname(entry) == os.path.join(
            store, os.path.basename(entry)[:2])
        again = VerificationCache(store)
        discharge_for_run(parse_program(prog.source), text=prog.source,
                          cache=again)
        assert (again.hits, again.misses) == (1, 0)

        async def serve_run():
            server = SizedServer(ServeConfig(port=0, workers=1,
                                             cache_dir=store))
            await server.start()
            client = await AsyncServeClient.connect("127.0.0.1",
                                                    server.port)
            try:
                return await client.request({"op": "run",
                                             "program": prog.source})
            finally:
                await client.close()
                await server.stop()

        response = asyncio.run(serve_run())
        assert response["ok"] is True
        assert response["cache"] == {"hits": 1, "misses": 0, "rejected": 0}


_LOOP = "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 5)"
_TWIN = "(define (f n) (if (zero? n) 0 (f (+ n 1)))) (f 5)"


class TestCertificateBinding:
    """A cached certificate is trusted only under the key it was filed
    under, and only when every λ it names exists in the consumer's parse."""

    def _store_one(self, store, text):
        cache = VerificationCache(store)
        result = discharge_for_run(parse_program(text), text=text,
                                   cache=cache)
        (entry,) = _stored_entries(store)
        return result, entry

    def test_transplanted_certificate_is_rejected(self, tmp_path):
        store = str(tmp_path / "certs")
        loop, entry = self._store_one(store, _LOOP)
        assert loop.complete
        twin_key = VerificationCache.key(_TWIN, None, (), None, "sc")
        twin = _entry_path(store, twin_key)
        os.makedirs(os.path.dirname(twin), exist_ok=True)
        os.replace(entry, twin)
        cache = VerificationCache(store)
        parsed = parse_program(_TWIN)
        result = discharge_for_run(parsed, text=_TWIN, cache=cache)
        assert (cache.hits, cache.rejected) == (0, 1)
        assert not result.complete and not result.policy
        answer = run_program(parsed, mode="full", monitor=SCMonitor(),
                             discharge=result.policy, fuel=200_000)
        assert answer.kind == Answer.SC_ERROR

    def test_unresolvable_stable_id_is_rejected(self, tmp_path):
        store = str(tmp_path / "certs")
        _, entry = self._store_one(store, _LOOP)
        data = json.loads(open(entry).read())
        data["discharged"].append("program:999")
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        result = discharge_for_run(parse_program(_LOOP), text=_LOOP,
                                   cache=cache)
        assert (cache.hits, cache.rejected) == (0, 1)
        assert os.path.exists(entry + ".rejected")
        assert result.complete  # re-verified from scratch

    def test_corpus_certificates_roundtrip(self, tmp_path):
        store = str(tmp_path / "certs")
        writer = VerificationCache(store)
        fresh = {}
        for prog in PROGRAMS:
            result = discharge_for_run(parse_program(prog.source),
                                       text=prog.source, cache=writer)
            fresh[prog.name] = result.certificate.summary()
        assert writer.hits == 0 and writer.misses > 0
        reader = VerificationCache(store)
        for prog in PROGRAMS:
            result = discharge_for_run(parse_program(prog.source),
                                       text=prog.source, cache=reader)
            assert result.certificate.summary() == fresh[prog.name], \
                prog.name
        assert reader.rejected == 0 and reader.misses == 0
        assert reader.hits == writer.misses


class TestStoredAcyclicSet:
    """An incomplete program certificate carries the program's acyclic
    λs, bound and trusted exactly as its discharged ones are."""

    def _store(self, store):
        cache = VerificationCache(store)
        writer = parse_program(PARTIAL)
        result = discharge_for_run(writer, text=PARTIAL, cache=cache)
        (entry,) = _stored_entries(store)
        return writer, result, entry

    def _calls(self, program, policy):
        monitor = SCMonitor()
        answer = run_program(program, mode="full", monitor=monitor,
                             discharge=policy)
        assert answer.kind == Answer.VALUE and answer.value == 5
        return monitor.calls_seen

    def test_stored_as_program_ids_and_relabeled(self, tmp_path):
        store = str(tmp_path / "certs")
        writer, result, entry = self._store(store)
        assert not result.complete
        data = json.loads(open(entry).read())
        assert data["acyclic"] == sorted(data["acyclic"])
        assert data["acyclic"] and all(
            sid.startswith("program:") for sid in data["acyclic"])
        reader = parse_program(PARTIAL)
        cache = VerificationCache(store)
        read = discharge_for_run(reader, text=PARTIAL, cache=cache)
        assert cache.hits == 1
        assert read.certificate.acyclic == {_label(reader, "inc"),
                                            _label(reader, "h")}
        assert result.certificate.acyclic == {_label(writer, "inc"),
                                              _label(writer, "h")}
        assert read.policy.skip_labels == (read.certificate.discharged
                                           | read.certificate.acyclic)
        assert read.summary() == result.summary()
        assert self._calls(reader, read.policy) == 6

    @pytest.mark.parametrize("sid", ["prelude:0", "contracts:0",
                                     "program:999"])
    def test_foreign_acyclic_id_is_rejected(self, tmp_path, sid):
        """A library λ is never skipped, and an id the parse does not
        have names another program: either way the entry is
        quarantined and the program re-verified."""
        store = str(tmp_path / "certs")
        _, result, entry = self._store(store)
        data = json.loads(open(entry).read())
        data["acyclic"].append(sid)
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        reader = parse_program(PARTIAL)
        reverified = discharge_for_run(reader, text=PARTIAL, cache=cache)
        assert (cache.hits, cache.misses, cache.rejected) == (0, 0, 1)
        assert os.path.exists(entry + ".rejected")
        assert reverified.certificate.acyclic == {_label(reader, "inc"),
                                                  _label(reader, "h")}
        assert json.loads(open(entry).read())["acyclic"] == \
            sorted(data["acyclic"][:-1])

    def test_null_acyclic_skips_only_discharged(self, tmp_path):
        store = str(tmp_path / "certs")
        _, _, entry = self._store(store)
        data = json.loads(open(entry).read())
        data["acyclic"] = None
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        reader = parse_program(PARTIAL)
        read = discharge_for_run(reader, text=PARTIAL, cache=cache)
        assert cache.hits == 1 and not read.complete
        assert read.certificate.acyclic is None
        assert read.policy.skip_labels == read.certificate.discharged
        assert self._calls(reader, read.policy) == 12


_MAPPED = ("(define (sum-sq xs) (foldr + 0 (map (lambda (x) (* x x)) xs)))\n"
           "(sum-sq '(1 2 3))")


def _lam_labels(program):
    return [n.label for n in program.iter_nodes() if n.kind == ast.K_LAM]


class TestLibraryStableIds:
    """A certificate names prelude λs by stable id.  The library part of
    the label maps is computed once per process; each lookup walks only
    the consumer's own parse."""

    def _store(self, store):
        parsed = parse_program(_MAPPED)
        result = discharge_for_run(parsed, text=_MAPPED,
                                   cache=VerificationCache(store))
        key = VerificationCache.key(_MAPPED, None, (), None, "sc")
        return parsed, result.certificate, key

    def test_roundtrip_relabels_program_and_shares_libraries(
            self, tmp_path, monkeypatch):
        store = str(tmp_path / "certs")
        parsed_a, cert_a, key = self._store(store)
        prelude = set(_lam_labels(prelude_program()))
        assert cert_a.complete and cert_a.discharged & prelude

        walked = []
        iter_nodes = Program.iter_nodes

        def spy(program):
            walked.append(program)
            return iter_nodes(program)

        monkeypatch.setattr(Program, "iter_nodes", spy)
        parsed_b = parse_program(_MAPPED)
        cache = VerificationCache(store)
        cert_b = cache.get(key, parsed_b)
        assert cache.hits == 1 and walked == [parsed_b]
        monkeypatch.undo()

        a_labels, b_labels = _lam_labels(parsed_a), _lam_labels(parsed_b)
        relabel = dict(zip(a_labels, b_labels))
        relabel.update((label, label) for label in prelude)
        assert cert_b.discharged == {relabel[l] for l in cert_a.discharged}
        assert cert_b.discharged & set(b_labels)
        assert not cert_b.discharged & set(a_labels)
        assert cert_b.roots == {relabel[l] for l in cert_a.roots}

    def test_library_maps_are_computed_once(self, monkeypatch):
        from repro.analysis import discharge as mod

        first = mod._library_spaces()
        monkeypatch.setattr(mod, "_add_space", None)  # any rebuild fails
        assert mod._library_spaces() is first

    def test_callers_cannot_corrupt_later_lookups(self, tmp_path):
        from repro.analysis import discharge as mod

        store = str(tmp_path / "certs")
        _, cert_a, key = self._store(store)
        to_stable, from_stable = mod._label_spaces(parse_program(_MAPPED))
        to_stable.clear()
        for sid in from_stable:
            from_stable[sid] = -1
        cache = VerificationCache(store)
        cert = cache.get(key, parse_program(_MAPPED))
        assert cache.hits == 1 and cert.complete
        prelude = set(_lam_labels(prelude_program()))
        assert cert.discharged & prelude == cert_a.discharged & prelude

    @pytest.mark.parametrize("sid", ["program:999", "prelude:999"])
    def test_out_of_range_id_is_quarantined(self, tmp_path, sid):
        store = str(tmp_path / "certs")
        _, _, key = self._store(store)
        entry = _entry_path(store, key)
        data = json.loads(open(entry).read())
        data["discharged"].append(sid)
        with open(entry, "w") as f:
            f.write(json.dumps(data))
        cache = VerificationCache(store)
        assert cache.get(key, parse_program(_MAPPED)) is None
        assert (cache.hits, cache.rejected) == (0, 1)
        assert os.path.exists(entry + ".rejected")


class TestMonitorSkipSet:
    DEC = "(define (dec n) (if (zero? n) 0 (dec (- n 1)))) (dec 5)"

    def _calls_seen(self, make_monitor, skip: bool) -> set:
        seen = set()
        for machine in ("tree", "compiled", "native"):
            for strategy in ("cm", "imperative"):
                program = parse_program(self.DEC)
                mon = make_monitor()
                a = run_program(program, mode="full", monitor=mon,
                                machine=machine, strategy=strategy,
                                discharge={program.forms[0].expr.label}
                                if skip else None)
                assert a.kind == Answer.VALUE and a.value == 0
                seen.add(mon.calls_seen)
        return seen

    def test_skip_set_runs_unmonitored(self):
        assert self._calls_seen(SCMonitor, skip=True) == {0}
        assert self._calls_seen(SCMonitor, skip=False) == {6}

    def test_policy_is_scoped_to_the_run(self):
        """run_program(discharge=…) must not leak the policy into a
        reused monitor: a later run without discharge monitors fully."""
        prog = next(p for p in PROGRAMS if p.name == "lh-tfact")
        parsed, result = _discharge(prog)
        mon = SCMonitor()
        a = run_program(parsed, mode="full", monitor=mon,
                        discharge=result.policy)
        assert a.kind == Answer.VALUE and mon.calls_seen == 0
        assert not hasattr(mon, "skip_labels")  # the set is run state
        b = run_program(parsed, mode="full", monitor=mon)
        assert b.kind == Answer.VALUE and mon.calls_seen > 0

    def test_mc_monitor_inherits_skip_set(self):
        from repro.mc.monitor import MCMonitor

        assert self._calls_seen(MCMonitor, skip=True) == {0}
        assert self._calls_seen(MCMonitor, skip=False) == {6}


@pytest.mark.parametrize("prog", PROGRAMS, ids=[p.name for p in PROGRAMS])
class TestDifferentialCorpus:
    """Discharged execution is observably identical on every corpus
    program — fully discharged, partially discharged, or not at all."""

    def test_same_answer(self, prog):
        parsed, result = _discharge(prog)
        machines = ("compiled",) if prog.name in _SLOW \
            else ("compiled", "tree")
        for machine in machines:
            mon_full = SCMonitor(measures=prog.measures)
            full = run_program(parsed, mode="full", monitor=mon_full,
                               machine=machine, fuel=30_000_000)
            mon_dis = SCMonitor(measures=prog.measures)
            dis = run_program(parsed, mode="full", monitor=mon_dis,
                              machine=machine, fuel=30_000_000,
                              discharge=result.policy)
            assert dis.kind == full.kind == Answer.VALUE
            assert write_value(dis.value) == write_value(full.value)
            assert dis.output == full.output
            if result.complete and result.policy:
                assert mon_dis.calls_seen == 0, \
                    f"{prog.name}/{machine}: discharged run still monitored"


@pytest.mark.parametrize("name", sorted(EXPECTED_DISCHARGED))
def test_discharged_native_matches_monitored_tree(name):
    """A fully discharged program runs on the native tier with nothing
    monitored and answers as the monitored tree machine does."""
    prog = next(p for p in PROGRAMS if p.name == name)
    parsed, result = _discharge(prog)
    assert result.complete
    mon = SCMonitor(measures=prog.measures)
    native = run_program(parsed, mode="full", monitor=mon, machine="native",
                         discharge=result.policy)
    tree = run_program(parse_program(prog.source), mode="full",
                       monitor=SCMonitor(measures=prog.measures),
                       machine="tree")
    assert native.kind == tree.kind == Answer.VALUE
    assert write_value(native.value) == write_value(tree.value)
    assert native.output == tree.output
    assert mon.calls_seen == 0


@pytest.mark.parametrize("prog", DIVERGING, ids=[d.name for d in DIVERGING])
class TestDifferentialDiverging:
    """On programs the verifier cannot discharge, the violation raised
    under the (attempted) discharge pipeline is byte-identical to full
    monitoring's — residual enforcement never weakens or reshapes the
    error."""

    def test_same_violation(self, prog):
        parsed = parse_program(prog.source)
        result = discharge_for_run(parsed, text=prog.source,
                                   result_kinds=None)
        assert not result.complete, \
            f"{prog.name}: a diverging program must never fully discharge"
        for machine in ("compiled", "tree"):
            full = run_program(parsed, mode="full",
                               monitor=SCMonitor(measures=prog.measures),
                               machine=machine, fuel=3_000_000)
            dis = run_program(parsed, mode="full",
                              monitor=SCMonitor(measures=prog.measures),
                              machine=machine, fuel=3_000_000,
                              discharge=result.policy)
            assert full.kind == Answer.SC_ERROR
            assert dis.kind == Answer.SC_ERROR
            assert str(dis.violation) == str(full.violation)
