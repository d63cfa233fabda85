"""The in-process workloads and the stage attribution shared by all.

Each op is timed from outside, at the public call into each layer:
``parse_program`` (lang.parser), ``discharge_for_run``
(analysis.discharge) and ``run_program`` (eval.machine, eval.native).
A traced op adds what happens *inside* those calls by replaying the
same request on a separate parse — resolve (``compile_code``), native
compile (``ensure_native``), execute, the verifier's two phases
(``Engine.run`` and ``certificate_from_engine``) and the monitor's share
— so the traced op itself does no work the pipeline would skip.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import defaultdict
from typing import Dict, List, Optional

from common import WORK, clock, mean, p50, ratio
from inputs import (
    VALUE,
    Item,
    corpus_items,
    corpus_program,
    harness,
    mixed_stream,
    weighted_cycle,
)
from repro.analysis.discharge import (
    VerificationCache,
    certificate_from_engine,
    discharge_for_run,
    infer_workload,
)
from repro.eval.machine import compile_code, make_env, run_program
from repro.eval.native import ensure_native, ensure_native_libraries
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.sct.monitor import SCMonitor
from repro.sexp.datum import intern
from repro.symbolic.engine import Engine
from repro.values.values import Closure, write_value


def skip_of(policy):
    """The skip set ``run_program`` resolves a policy under."""
    return frozenset(policy.skip_labels) or None if policy else None


def count_lams(program) -> int:
    """λs in the parse — every one is compiled by the native tier's
    eager walk (one CLam per AST λ)."""
    return sum(1 for n in program.iter_nodes() if n.kind == ast.K_LAM)


class Layers:
    """Per-layer samples of one traced run, reduced to the named metrics
    at the end."""

    def __init__(self):
        self.s: Dict[str, List[float]] = defaultdict(list)
        # op latency by kind ("traced", "untraced", "stage") and op class
        self.by_class = defaultdict(lambda: defaultdict(list))

    def add(self, name: str, value: float) -> None:
        self.s[name].append(value)

    def add_op(self, kind: str, item: Item, seconds: float) -> None:
        """One op's latency under its class: the program for corpus
        requests, the generator mode for fuzz ones."""
        cls = item.name.rsplit("-", 1)[0] if item.fuzz else item.name
        self.by_class[kind][cls].append(seconds)

    def _paired(self, kind: str) -> float:
        """``kind`` latency over untraced latency, class by class, so the
        ratio does not depend on which ops happened to be traced."""
        ours, base = self.by_class[kind], self.by_class["untraced"]
        both = [c for c in ours if c in base]
        return ratio(sum(mean(ours[c]) for c in both),
                     sum(mean(base[c]) for c in both))

    def metrics(self) -> Dict[str, float]:
        s = self.s
        tot = {k: sum(v) for k, v in s.items()}
        g = tot.get
        hits, misses = g("cache_hits", 0), g("cache_misses", 0)
        return {
            "parse.ms": 1e3 * mean(s["parse_s"]),
            "parse.share": ratio(g("op_parse_s", 0), g("op_latency_s", 0)),
            "discharge.hit_ms": 1e3 * mean(s["discharge_hit_s"]),
            "discharge.miss_ms": 1e3 * mean(s["discharge_miss_s"]),
            "cert_cache.hits": hits,
            "cert_cache.misses": misses,
            "cert_cache.rejected": g("cache_rejected", 0),
            "cert_cache.hit_ratio": ratio(hits, hits + misses),
            "discharge.complete_ratio": mean(s["discharge_complete"]),
            "verify.explore_ms": 1e3 * mean(s["explore_s"]),
            "verify.check_ms": 1e3 * mean(s["check_s"]),
            "resolve.ms": 1e3 * mean(s["resolve_s"]),
            "native_compile.ms": 1e3 * mean(s["compile_s"]),
            "native_compile.lams": mean(s["lams"]),
            "native_compile.library_ms": 1e3 * mean(s["library_s"]),
            "native_compile.useful_ratio":
                ratio(g("lams_native", 0), g("lams", 0)),
            "prepare.ms": 1e3 * mean(s["prepare_s"]),
            "execute.ms": 1e3 * mean(s["execute_s"]),
            "execute.steps": mean(s["steps"]),
            "execute.ns_per_step":
                1e9 * ratio(g("execute_s", 0), g("steps", 0)),
            "execute.tier_native_ratio": mean(s["tier_native"]),
            "monitor.calls": mean(s["calls"]),
            "monitor.checks": mean(s["checks"]),
            "monitor.share": ratio(g("mon_full_s", 0) - g("mon_off_s", 0),
                                   g("mon_full_s", 0)),
            "monitor.ns_per_call":
                1e9 * ratio(g("mon_all_s", 0) - g("mon_off_all_s", 0),
                            g("mon_all_calls", 0)),
            "serve.overhead_ms": 1e3 * p50(s["serve_overhead_s"]),
            "serve.server_p50_ms": mean(s["serve_server_p50_ms"]),
            "serve.batch_mean_size": mean(s["serve_batch_mean"]),
            "serve.cache_hit_rate": mean(s["serve_hit_rate"]),
            "serve.tier_native_ratio": mean(s["serve_tier_native"]),
            "serve.shed": g("serve_shed", 0),
            "serve.requeues": g("serve_requeues", 0),
            "trace.overhead_ratio": self._paired("traced"),
            "trace.coverage": self._paired("stage"),
        }


class Result:
    """What one op hands to the checker and, when traced, the tracer."""

    __slots__ = ("answer", "monitor", "stamps", "program", "discharge",
                 "cache")

    def __init__(self, answer, monitor, stamps, program, discharge=None,
                 cache=None):
        self.answer = answer
        self.monitor = monitor
        self.stamps = stamps
        self.program = program
        self.discharge = discharge
        self.cache = cache


class InProcess:
    """State shared by the in-process workloads: the warm environment,
    the fixed run knobs, and the replay helpers."""

    name = ""

    def __init__(self, spec: dict, seed: int, seconds: float,
                 layers: Optional[Layers] = None, tracer=None):
        self.cfg = spec["workloads"][self.name]
        self.seed = seed
        self.seconds = seconds
        self.mode = spec["mode"]
        self.machine = spec["machine"]
        self.fuel = spec["fuel"]
        self.layers = layers
        self.tracer = tracer
        self.env = None

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        t0 = clock()
        self.env = make_env(machine=self.machine)
        t1 = clock()
        ensure_native_libraries()
        t2 = clock()
        if self.tracer is not None:
            self.tracer.add(-1, "eval.machine.make_env", t0, t1)
            self.tracer.add(-1, "eval.native.ensure_native_libraries", t1, t2)
            self.layers.add("library_s", t2 - t1)

    def close(self) -> None:
        """Release what set-up made on disk."""

    # -- runs -------------------------------------------------------------

    def run(self, program, policy, measures, *, machine=None, mode=None,
            fuel=None):
        monitor = SCMonitor(measures=measures)
        answer = run_program(program, mode=mode or self.mode,
                             monitor=monitor, env=self.env,
                             machine=machine or self.machine,
                             discharge=policy, fuel=fuel or self.fuel)
        return answer, monitor

    def check(self, item: Item, res: Result) -> Optional[str]:
        a = res.answer
        value = write_value(a.value) if a.kind == VALUE else None
        return item.check(a.kind, value, a.output)

    # -- attribution (traced runs only) -------------------------------------

    def record_run(self, res: Result) -> None:
        a, m = res.answer, res.monitor
        self.layers.add("steps", a.steps)
        self.layers.add("tier_native", a.tier == "native")
        self.layers.add("calls", m.calls_seen)
        self.layers.add("checks", m.checks_done)

    def record_discharge(self, cache, before, result, span_s) -> None:
        lay = self.layers
        hits, misses, rejected = (cache.hits - before[0],
                                  cache.misses - before[1],
                                  cache.rejected - before[2])
        lay.add("cache_hits", hits)
        lay.add("cache_misses", misses)
        lay.add("cache_rejected", rejected)
        lay.add("discharge_complete", result.complete)
        if misses:
            lay.add("discharge_miss_s", span_s)
        elif hits:
            lay.add("discharge_hit_s", span_s)

    def verify_phases(self, item: Item, op: int) -> None:
        """The verifier's two phases on a fresh parse, timed at their
        public calls: symbolic exploration, then the certificate check."""
        program = parse_program(item.text)
        entries, _ = infer_workload(program)
        for entry in entries or ():
            engine = Engine(program, result_kinds=item.result_kinds)
            entry_value = engine.globals.bindings.get(intern(entry.name))
            if not isinstance(entry_value, Closure):
                continue
            t0 = clock()
            engine.run(entry_value, list(entry.kinds))
            t1 = clock()
            certificate_from_engine(engine)
            t2 = clock()
            self.tracer.add(op, "symbolic.engine.Engine.run", t0, t1)
            self.tracer.add(op, "analysis.discharge.certificate_from_engine",
                            t1, t2)
            self.layers.add("explore_s", t1 - t0)
            self.layers.add("check_s", t2 - t1)

    def replay_prepare(self, item: Item, cache, op: int,
                       native_tier: bool) -> None:
        """Resolve, native compile and execute, split apart on a separate
        parse (discharged through ``cache``, which holds its
        certificate)."""
        lay, tr = self.layers, self.tracer
        program = parse_program(item.text)
        policy = discharge_for_run(program, text=item.text,
                                   result_kinds=item.result_kinds,
                                   cache=cache).policy
        skip = skip_of(policy)
        t0 = clock()
        codes = [compile_code(form.expr, skip) for form in program.forms]
        t1 = clock()
        for code in codes:
            ensure_native(code)
        t2 = clock()
        answer, _ = self.run(program, policy, item.measures)
        t3 = clock()
        tr.add(op, "lang.resolve.compile_code", t0, t1)
        tr.add(op, "eval.native.ensure_native", t1, t2)
        tr.add(op, "replay.eval.machine.run_program", t2, t3)
        lams = count_lams(program)
        lay.add("resolve_s", t1 - t0)
        lay.add("compile_s", t2 - t1)
        lay.add("lams", lams)
        lay.add("lams_native", lams if native_tier else 0)
        lay.add("execute_s", t3 - t2)
        self.monitor_costs(program, policy, item.measures, answer.steps, op)

    def monitor_costs(self, program, policy, measures, steps: int,
                      op: int) -> None:
        """Monitor share on the compiled machine: the op's own policy under
        mode full against mode off for the same number of steps, plus the
        cost per call with every λ monitored."""
        lay, tr = self.layers, self.tracer
        skip = skip_of(policy)
        for form in program.forms:  # resolve outside the timed runs
            compile_code(form.expr, skip)
            compile_code(form.expr, None)
        t0 = clock()
        full, _ = self.run(program, policy, measures, machine="compiled")
        t1 = clock()
        self.run(program, None, measures, machine="compiled", mode="off",
                 fuel=max(full.steps, 1))
        t2 = clock()
        every, monitor = self.run(program, None, measures,
                                  machine="compiled")
        t3 = clock()
        self.run(program, None, measures, machine="compiled", mode="off",
                 fuel=max(every.steps, 1))
        t4 = clock()
        tr.add(op, "replay.monitor.full", t0, t1)
        tr.add(op, "replay.monitor.off", t1, t2)
        tr.add(op, "replay.monitor.every", t2, t3)
        lay.add("mon_full_s", t1 - t0)
        lay.add("mon_off_s", t2 - t1)
        lay.add("mon_all_s", t3 - t2)
        lay.add("mon_off_all_s", t4 - t3)
        lay.add("mon_all_calls", monitor.calls_seen)


class ColdPipeline(InProcess):
    """One op is one first-parse request: parse, discharge against a fresh
    disk-backed certificate cache, run."""

    name = "cold-pipeline"

    def inputs(self) -> List[Item]:
        """The request stream, plus a certificate store already holding
        every corpus certificate (a store earlier processes filled), so
        corpus repeats hit and fuzz programs miss at a fixed ratio."""
        corpus = corpus_items()
        os.makedirs(WORK, exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=WORK)
        for item in corpus:
            program = parse_program(item.text)
            discharge_for_run(program, text=item.text,
                              result_kinds=item.result_kinds,
                              cache=VerificationCache(self.store))
        count = int(self.seconds * 400) + 200
        return mixed_stream(corpus, self.seed, count,
                            self.cfg["fuzz_every"])

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store:
            shutil.rmtree(store, ignore_errors=True)

    def op(self, item: Item) -> Result:
        t0 = clock()
        program = parse_program(item.text)
        t1 = clock()
        cache = VerificationCache(self.store)
        result = discharge_for_run(program, text=item.text,
                                   result_kinds=item.result_kinds,
                                   cache=cache)
        t2 = clock()
        answer, monitor = self.run(program, result.policy, item.measures)
        t3 = clock()
        return Result(answer, monitor, (t0, t1, t2, t3), program, result,
                      cache)

    def attribute(self, item: Item, res: Result, op: int,
                  latency: float) -> None:
        lay, tr = self.layers, self.tracer
        t0, t1, t2, t3 = res.stamps
        top = tr.add(op, "op", t0, t3)
        tr.add(op, "lang.parser.parse_program", t0, t1, top)
        tr.add(op, "analysis.discharge.discharge_for_run", t1, t2, top)
        tr.add(op, "eval.machine.run_program", t2, t3, top)
        lay.add("parse_s", t1 - t0)
        lay.add("op_parse_s", t1 - t0)
        lay.add("op_latency_s", latency)
        lay.add_op("stage", item, t3 - t0)
        cache = res.cache
        self.record_discharge(cache, (0, 0, 0), res.discharge, t2 - t1)
        self.record_run(res)
        # prepare: the op's first run against a repeat on the same parse
        r0 = clock()
        self.run(res.program, res.discharge.policy, item.measures)
        lay.add("prepare_s", (t3 - t2) - (clock() - r0))
        if cache.misses:
            self.verify_phases(item, op)
        self.replay_prepare(item, VerificationCache(self.store), op,
                            res.answer.tier == "native")


class Warm(InProcess):
    """One op is one ``run_program`` of a working-set program that set-up
    already parsed, verified and compiled."""

    def setup(self) -> None:
        super().setup()
        lay, tr = self.layers, self.tracer
        cache = VerificationCache()
        self.working = {}
        self.setup_runs = []
        for name, iterations in self.cfg["iterations"].items():
            prog = corpus_program(name)
            item = Item(name, harness(prog.source, iterations), VALUE,
                        prog.expected, result_kinds=prog.result_kinds,
                        measures=prog.measures)
            t0 = clock()
            program = parse_program(item.text)
            t1 = clock()
            before = (cache.hits, cache.misses, cache.rejected)
            result = discharge_for_run(program, text=item.text,
                                       result_kinds=item.result_kinds,
                                       cache=cache)
            t2 = clock()
            answer, _ = self.run(program, result.policy, item.measures)
            t3 = clock()  # the first run resolves and compiles
            self.working[name] = (item, program, result.policy)
            if tr is None:
                continue
            tr.add(-1, "lang.parser.parse_program", t0, t1)
            tr.add(-1, "analysis.discharge.discharge_for_run", t1, t2)
            tr.add(-1, "eval.machine.run_program", t2, t3)
            lay.add("parse_s", t1 - t0)
            self.record_discharge(cache, before, result, t2 - t1)
            self.setup_runs.append((item, program, result, t3 - t2,
                                    answer.tier == "native"))

    def attribute_setup(self) -> None:
        """Traced runs: split the set-up stages of every working-set
        program (outside the set-up figure)."""
        cache = VerificationCache()
        for item, program, result, first_s, native_tier in self.setup_runs:
            r0 = clock()
            self.run(program, result.policy, item.measures)
            self.layers.add("prepare_s", first_s - (clock() - r0))
            if result.certificates:
                # a hit: re-discharge the same text against a warm cache
                p = parse_program(item.text)
                discharge_for_run(p, text=item.text,
                                  result_kinds=item.result_kinds,
                                  cache=cache)
                before = (cache.hits, cache.misses, cache.rejected)
                t0 = clock()
                r = discharge_for_run(p, text=item.text,
                                      result_kinds=item.result_kinds,
                                      cache=cache)
                self.record_discharge(cache, before, r, clock() - t0)
                self.verify_phases(item, -1)
            self.replay_prepare(item, cache, -1, native_tier)

    def inputs(self) -> List[Item]:
        items = [entry[0] for entry in self.working.values()]
        count = int(self.seconds * 2000) + 200
        return weighted_cycle(items, self.cfg.get("weights", {}),
                              self.cfg.get("default_weight", 1), self.seed,
                              count)

    def op(self, item: Item) -> Result:
        _, program, policy = self.working[item.name]
        t0 = clock()
        answer, monitor = self.run(program, policy, item.measures)
        t1 = clock()
        return Result(answer, monitor, (t0, t1), program, policy)

    def attribute(self, item: Item, res: Result, op: int,
                  latency: float) -> None:
        lay, tr = self.layers, self.tracer
        t0, t1 = res.stamps
        top = tr.add(op, "op", t0, t1)
        tr.add(op, "eval.machine.run_program", t0, t1, top)
        lay.add("op_latency_s", latency)
        lay.add_op("stage", item, t1 - t0)
        lay.add("execute_s", t1 - t0)
        self.record_run(res)
        self.monitor_costs(res.program, res.discharge, item.measures,
                           res.answer.steps, op)


class WarmDischarged(Warm):
    name = "warm-discharged"

    def check(self, item: Item, res: Result) -> Optional[str]:
        a, m = res.answer, res.monitor
        if a.tier != "native" or m.calls_seen:
            return (f"{item.name}: ran on tier {a.tier} with "
                    f"{m.calls_seen} monitored calls (want native, 0)")
        return super().check(item, res)


class WarmMonitored(Warm):
    name = "warm-monitored"

    def check(self, item: Item, res: Result) -> Optional[str]:
        if not res.monitor.calls_seen:
            return f"{item.name}: no monitored calls (want > 0)"
        return super().check(item, res)

