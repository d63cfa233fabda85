"""Command-line interface: ``sized`` (or ``python -m repro``).

Subcommands::

    sized run FILE [--mode off|contract|full] [--strategy cm|imperative]
                   [--machine compiled|tree|native] [--backoff] [--mc]
                   [--engine bitmask|reference] [--max-steps N]
                   [--discharge off|try|require] [--discharge-cache DIR]
                   [--result-kind NAME=KIND ...]
    sized verify FILE --entry NAME [--kinds nat,nat] [--result-kind nat]
                      [--mc] [--engine bitmask|reference] [--json]
    sized trace FILE [--mode full|contract] [--machine compiled|tree]
                     [--mc] [--max-steps N] [--max-depth N] [--max-nodes N]
    sized bench table1|fig10|divergence|ablation|mc|compose|machines
                [--scale quick|full] [--smoke] [--repeats N] [--out PATH]
    sized corpus [--diverging]
    sized serve [--host H] [--port P] [--workers N] [--batch-window-ms MS]
                [--default-fuel N] [--tenant-budget N]
                [--request-timeout S] [--cache-dir DIR] [--shard-depth N]
                [--allow-fault-injection]
    sized fuzz [--n N] [--seed S] [--mode both|terminating|diverging]
               [--matrix full|quick|m:e:p,...] [--fuel N] [--features a,b]
               [--no-shrink] [--archive] [--json] [--out PATH]
               [--replay FILE.scm]
    sized chaos [--n N] [--seed S] [--faults a,b,...] [--workers N]
                [--json] [--out PATH]

``--mc`` switches the evidence from size-change graphs to monotonicity-
constraint graphs (the paper's §6.2 future-work extension): counting-up-
to-a-ceiling loops pass without custom measures.

``--discharge`` stages the §4 verifier in front of the §5 monitor (the
residual-enforcement pipeline, :mod:`repro.analysis.discharge`): the
workload's entries are inferred from the top-level calls, verified (with
an in-memory — or, via ``--discharge-cache``, on-disk — certificate
cache), and every proven λ runs monitor-free.  ``try`` keeps residual
checks on whatever could not be proven; ``require`` exits with status 5
instead of running partially monitored.

``--engine`` selects the size-change graph representation the monitor
composes: ``bitmask`` (default, two machine ints per graph) or
``reference`` (the paper's frozenset of arcs).  Both raise on the same
call sequences; ``sized bench compose`` measures the gap.

``--machine`` selects the evaluator: ``compiled`` (default — the
lexical-addressing pass of :mod:`repro.lang.resolve` plus the slot-frame
machine), ``tree`` (the direct AST walker) or ``native`` (``run`` only:
exec-generated Python bodies for discharged λs, trampoline-driven, with
automatic fallback to the compiled machine's ``eval_code`` for anything
residual-monitored).  All produce identical answers; ``sized bench
machines`` measures them against each other, unmonitored, monitored and
discharged (``BENCH_machines.json``; exit 1 when a native-tier bar
misses).

``fuzz`` drives the property-based differential tester of
:mod:`repro.fuzz`: seeded generation of terminating- and
diverging-by-construction programs, the 18-cell
{tree, compiled, native} × {bitmask, reference} × {off, monitored,
discharged}
matrix, greedy shrinking, and the ``tests/regressions/`` archive.
``--replay`` re-runs one archived ``.scm`` repro (or any campaign seed
via ``--seed S --n 1``).  The exit code gates CI: 0 when every oracle
check passed, 1 when any divergence was found.

``--fuel`` (run/trace/fuzz) bounds machine steps like ``--max-steps``
but reports exhaustion distinctly (``FuelExhausted``) — the fuzzer's
way of observing divergence without hanging.  ``--fuel 0`` is immediate
exhaustion (no steps run) on every path, including the serve budgets.

``serve`` runs the batched termination-checking service
(:mod:`repro.serve`): JSON-lines over TCP, request dedupe by
content-addressed cache key, warm worker processes each owning a shard
of the on-disk certificate store, per-tenant fuel budgets, and a
``stats`` metrics surface.  ``benchmarks/bench_serve.py`` is the load
generator (writes ``BENCH_serve.json``).

``chaos`` proves the serve resilience layer under a *seeded* fault plan
(:mod:`repro.serve.chaos`): worker crashes, slow and wedged workers,
shard flapping that trips circuit breakers, corrupted on-disk cache
entries, connection cuts, and malformed frames are injected against an
in-process server while retrying clients drive traffic.  Exit 0 iff all
invariants hold (zero lost, zero duplicated, delivered results
byte-identical to the direct pipeline, budgets conserved, server healthy
at the end); same seed, same campaign.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.eval.machine import Answer, run_program, run_source
from repro.sct.monitor import SCMonitor
from repro.values.values import write_value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sized",
        description="Size-change termination as a contract (PLDI 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program in the embedded language")
    p_run.add_argument("file")
    p_run.add_argument("--mode", choices=["off", "contract", "full"],
                       default="contract")
    p_run.add_argument("--strategy", choices=["cm", "imperative"], default="cm")
    p_run.add_argument("--backoff", action="store_true")
    p_run.add_argument("--mc", action="store_true",
                       help="monitor with monotonicity-constraint graphs")
    p_run.add_argument("--engine", choices=["bitmask", "reference"],
                       default="bitmask",
                       help="size-change graph representation to compose")
    p_run.add_argument("--machine", choices=["compiled", "tree", "native"],
                       default="compiled",
                       help="evaluator: lexically-addressed slot-frame "
                            "machine (default), the tree walker, or the "
                            "native tier (Python-compiled discharged λs "
                            "with compiled-machine fallback)")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--fuel", type=int, default=None,
                       help="step bound with a distinct FuelExhausted "
                            "outcome (wins over --max-steps)")
    p_run.add_argument("--discharge", choices=["off", "try", "require"],
                       default="off",
                       help="statically discharge dynamic checks: 'try' "
                            "keeps residual monitoring, 'require' refuses "
                            "to run partially monitored (exit 5)")
    p_run.add_argument("--discharge-cache", default=None, metavar="DIR",
                       help="on-disk certificate store for --discharge "
                            "(amortizes verification across processes)")
    p_run.add_argument("--result-kind", action="append", default=[],
                       metavar="NAME=KIND",
                       help="contract range of a function for --discharge "
                            "verification (e.g. ack=nat); repeatable")

    p_verify = sub.add_parser("verify", help="statically verify termination")
    p_verify.add_argument("file")
    p_verify.add_argument("--entry", required=True)
    p_verify.add_argument("--kinds", default="",
                          help="comma-separated: nat,int,list,pair,fun,any")
    p_verify.add_argument("--result-kind", default=None,
                          help="contract range of the entry (nat/int)")
    p_verify.add_argument("--mc", action="store_true",
                          help="verify with monotonicity constraints")
    p_verify.add_argument("--engine", choices=["bitmask", "reference"],
                          default="bitmask",
                          help="phase-2 graph-closure representation "
                               "(ignored with --mc: MC graphs are packed "
                               "internally regardless)")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable verdict on stdout "
                               "(status, reasons, witness, discharge); "
                               "the exit code still gates: 0 verified, "
                               "3 unknown")

    p_trace = sub.add_parser(
        "trace", help="print the Fig. 1 style call/size-change tree")
    p_trace.add_argument("file")
    p_trace.add_argument("--mode", choices=["contract", "full"],
                         default="full")
    p_trace.add_argument("--mc", action="store_true")
    p_trace.add_argument("--engine", choices=["bitmask", "reference"],
                         default="bitmask")
    p_trace.add_argument("--machine", choices=["compiled", "tree"],
                         default="compiled")
    p_trace.add_argument("--max-steps", type=int, default=None)
    p_trace.add_argument("--fuel", type=int, default=None)
    p_trace.add_argument("--max-depth", type=int, default=None)
    p_trace.add_argument("--max-nodes", type=int, default=200)

    p_bench = sub.add_parser("bench", help="regenerate a table or figure")
    p_bench.add_argument("which",
                         choices=["table1", "fig10", "divergence", "ablation",
                                  "mc", "compose", "machines"])
    p_bench.add_argument("--scale", choices=["quick", "full"], default="quick")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="best-of repeats per cell (default: 3, or the"
                              " machines scale's own default)")
    p_bench.add_argument("--smoke", action="store_true",
                         help="machines: the tiny CI subset")
    p_bench.add_argument("--out", default=None,
                         help="machines: where to write the JSON report "
                              "(default BENCH_machines.json)")

    p_corpus = sub.add_parser("corpus", help="list the evaluation corpus")
    p_corpus.add_argument("--diverging", action="store_true")

    p_serve = sub.add_parser(
        "serve", help="batched termination-checking service (JSON lines "
                      "over TCP; see docs/architecture.md)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8737,
                         help="TCP port (0 = ephemeral; the bound port is "
                              "announced on stdout)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="warm worker processes / cache shards "
                              "(default: min(4, cpus))")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         help="how long the first request of a batch "
                              "waits for identical joiners")
    p_serve.add_argument("--default-fuel", type=int, default=5_000_000,
                         help="step budget for requests that do not "
                              "send 'fuel' (0 = immediate exhaustion; "
                              "--default-fuel -1 = unlimited)")
    p_serve.add_argument("--tenant-budget", type=int, default=None,
                         help="total fuel each tenant may spend "
                              "(default: unlimited, spend still metered)")
    p_serve.add_argument("--request-timeout", type=float, default=60.0,
                         help="wall-clock seconds per worker attempt; "
                              "exceeding it recycles the worker")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="sharded on-disk certificate store shared "
                              "by the workers (default: memory only)")
    p_serve.add_argument("--shard-depth", type=int, default=2,
                         help="hash-prefix directory depth of the "
                              "on-disk store")
    p_serve.add_argument("--allow-fault-injection", action="store_true",
                         help="enable op=crash (tests/benches only)")

    p_fuzz = sub.add_parser(
        "fuzz", help="property-based differential testing over the "
                     "machine × engine × discharge matrix")
    p_fuzz.add_argument("--n", type=int, default=100,
                        help="number of generated programs (default 100)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; program i uses seed+i")
    p_fuzz.add_argument("--mode",
                        choices=["both", "terminating", "diverging"],
                        default="both")
    p_fuzz.add_argument("--matrix", default="full",
                        help="'full' (12 cells), 'quick' (4), or a comma "
                             "list of machine:engine:policy triples")
    p_fuzz.add_argument("--fuel", type=int, default=None,
                        help="override the generator's per-program fuel")
    p_fuzz.add_argument("--features", default=None,
                        help="comma-subset of the generator features "
                             "(accumulators,higher-order,contracts,cells,"
                             "vectors,promises,output)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report divergences unminimized")
    p_fuzz.add_argument("--max-shrink", type=int, default=200,
                        help="shrink attempt budget per divergence")
    p_fuzz.add_argument("--archive", action="store_true",
                        help="write minimized repros to tests/regressions/")
    p_fuzz.add_argument("--json", action="store_true",
                        help="full FuzzReport JSON on stdout")
    p_fuzz.add_argument("--out", default=None, metavar="PATH",
                        help="also write the JSON report to PATH "
                             "(e.g. BENCH_fuzz.json)")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run one archived tests/regressions/*.scm "
                             "repro instead of generating")

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection campaign against an "
                      "in-process serve instance")
    p_chaos.add_argument("--n", type=int, default=200,
                         help="number of traffic requests (default 200)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="seed for the fault plan, traffic mix, and "
                              "client retry jitter")
    p_chaos.add_argument("--faults", default=None,
                         help="comma-subset of fault kinds "
                              "(crash,slow,hang,flap,corrupt-cache,"
                              "conn-cut,malformed); default all")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker shards for the chaos server "
                              "(default 2)")
    p_chaos.add_argument("--json", action="store_true",
                         help="full campaign report JSON on stdout")
    p_chaos.add_argument("--out", default=None, metavar="PATH",
                         help="also write the JSON report to PATH "
                              "(e.g. BENCH_chaos.json)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "corpus":
        return _cmd_corpus(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    return 2


def _make_monitor(mc: bool, **options):
    if mc:
        from repro.mc.monitor import MCMonitor

        return MCMonitor(**options)
    return SCMonitor(**options)


def _parse_result_kinds(pairs) -> Optional[dict]:
    result_kinds = {}
    for pair in pairs:
        name, sep, kind = pair.partition("=")
        if not sep or not name or not kind:
            raise SystemExit(f"--result-kind expects NAME=KIND, got {pair!r}")
        result_kinds[name] = kind
    return result_kinds or None


def _cmd_run(args) -> int:
    from repro.lang.parser import parse_program

    with open(args.file) as f:
        source = f.read()
    program = parse_program(source, source=args.file)
    monitor = _make_monitor(args.mc, backoff=args.backoff,
                            engine=args.engine)
    policy = None
    if args.discharge != "off":
        from repro.analysis.discharge import (VerificationCache,
                                              discharge_for_run)

        # Always an explicit instance: the CLI never touches the
        # process-wide default_cache(), so runs are isolated.
        cache = VerificationCache(args.discharge_cache)
        result = discharge_for_run(
            program, text=source, mc=args.mc,
            result_kinds=_parse_result_kinds(args.result_kind), cache=cache)
        if args.discharge == "require" and not result.complete:
            print("cannot fully discharge the dynamic checks:",
                  file=sys.stderr)
            rendered = result.render()
            if rendered:
                print(rendered, file=sys.stderr)
            return 5
        policy = result.policy
    answer = run_program(program, mode=args.mode, strategy=args.strategy,
                         monitor=monitor, max_steps=args.max_steps,
                         fuel=args.fuel, machine=args.machine,
                         discharge=policy)
    if answer.output:
        sys.stdout.write(answer.output)
        if not answer.output.endswith("\n"):
            sys.stdout.write("\n")
    if answer.kind == Answer.VALUE:
        print(write_value(answer.value))
        return 0
    if answer.kind == Answer.SC_ERROR:
        print(answer.violation, file=sys.stderr)
        return 3
    if answer.kind == Answer.TIMEOUT:
        print(_timeout_message(answer), file=sys.stderr)
        return 4
    print(f"run-time error: {answer.error}", file=sys.stderr)
    return 1


def _timeout_message(answer) -> str:
    from repro.eval.errors import FuelExhausted

    if isinstance(answer.error, FuelExhausted):
        return str(answer.error)
    return "machine timeout (step budget exhausted)"


def _cmd_verify(args) -> int:
    import json

    with open(args.file) as f:
        source = f.read()
    kinds = [k for k in args.kinds.split(",") if k]
    result_kinds = {args.entry: args.result_kind} if args.result_kind else None
    if args.mc:
        from repro.mc.static import verify_source_mc

        verdict = verify_source_mc(source, args.entry, kinds,
                                   result_kinds=result_kinds)
    else:
        from repro.symbolic import verify_source

        verdict = verify_source(source, args.entry, kinds,
                                result_kinds=result_kinds,
                                graph_engine=args.engine)
    if args.json:
        print(json.dumps(verdict.to_json(entry=args.entry, kinds=kinds),
                         indent=2))
    else:
        print(verdict.render())
    # Nonzero on UNKNOWN so CI scripts can gate on the verdict.
    return 0 if verdict.verified else 3


def _cmd_trace(args) -> int:
    from repro.sct.trace import render_tree, trace_source

    with open(args.file) as f:
        source = f.read()
    result = trace_source(source,
                          monitor=_make_monitor(args.mc, engine=args.engine),
                          mode=args.mode, max_steps=args.max_steps,
                          fuel=args.fuel, machine=args.machine)
    print(render_tree(result.roots, max_depth=args.max_depth,
                      max_nodes=args.max_nodes))
    answer = result.answer
    if answer.kind == Answer.VALUE:
        print(f"⇒ {write_value(answer.value)}")
        return 0
    if answer.kind == Answer.SC_ERROR:
        print(answer.violation, file=sys.stderr)
        return 3
    if answer.kind == Answer.TIMEOUT:
        print(_timeout_message(answer), file=sys.stderr)
        return 4
    print(f"run-time error: {answer.error}", file=sys.stderr)
    return 1


def _cmd_bench(args) -> int:
    if args.which == "table1":
        from repro.bench import render_table1, run_table1

        print(render_table1(run_table1()))
    elif args.which == "fig10":
        from repro.bench import render_fig10, run_fig10

        print(render_fig10(run_fig10(scale=args.scale,
                                     repeats=args.repeats or 3)))
    elif args.which == "divergence":
        from repro.bench import render_divergence, run_divergence

        print(render_divergence(run_divergence()))
    elif args.which == "mc":
        from repro.bench import render_mc, run_mc_dynamic, run_mc_static

        print(render_mc(run_mc_static(),
                        run_mc_dynamic(scale=args.scale,
                                       repeats=args.repeats or 3)))
    elif args.which == "compose":
        from repro.bench import render_compose, run_compose

        print(render_compose(run_compose(scale=args.scale,
                                         repeats=args.repeats or 3)))
    elif args.which == "machines":
        from repro.bench.machines import (acceptance, render_machines,
                                          run_machines, write_machines_json)

        scale = "smoke" if args.smoke else args.scale
        out = args.out or "BENCH_machines.json"
        rows = run_machines(scale=scale, repeats=args.repeats)
        print(render_machines(rows))
        write_machines_json(rows, out, scale=scale, repeats=args.repeats)
        print(f"\nwrote {out}")
        return 0 if acceptance(rows) else 1
    else:
        from repro.bench import render_ablation, run_ablation

        print(render_ablation(run_ablation(scale=args.scale,
                                           repeats=args.repeats or 3)))
    return 0


def _cmd_corpus(args) -> int:
    from repro.corpus import all_programs, diverging_programs

    if args.diverging:
        for d in diverging_programs():
            print(f"{d.name:20s} {d.notes.splitlines()[0] if d.notes else ''}")
    else:
        for p in all_programs():
            paper = "/".join(c or "-" for c in p.paper)
            print(f"{p.name:15s} paper={paper:22s} {p.notes.splitlines()[0]}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        batch_window_ms=args.batch_window_ms,
        default_fuel=None if args.default_fuel < 0 else args.default_fuel,
        tenant_budget=args.tenant_budget,
        request_timeout=args.request_timeout,
        cache_dir=args.cache_dir, shard_depth=args.shard_depth,
        allow_fault_injection=args.allow_fault_injection,
    )
    try:
        return asyncio.run(serve_main(config))
    except KeyboardInterrupt:
        return 0


def _cmd_fuzz(args) -> int:
    import json

    from repro.fuzz import default_cells, run_fuzz, run_matrix

    cells = default_cells(args.matrix)

    if args.replay:
        from repro.fuzz.shrink import load_regression

        program = load_regression(args.replay)
        result = run_matrix(program, cells=cells, fuel=args.fuel)
        for r in result.cells:
            print(f"{':'.join(r.cell):40s} {r.kind:10s} "
                  f"{r.value if r.value is not None else r.violation or r.error or ''}")
        if result.verdicts:
            print("verdicts:", " ".join(f"{e}={s}"
                                        for e, s in result.verdicts.items()))
        if result.discharge_complete is not None:
            print(f"discharge-complete: {result.discharge_complete}")
        if result.divergences:
            print(f"\n{len(result.divergences)} divergence(s):",
                  file=sys.stderr)
            for d in result.divergences:
                print(f"  [{d.klass}] {d.detail}", file=sys.stderr)
            return 1
        print("\nno divergence: all oracle checks passed")
        return 0

    features = None
    if args.features is not None:
        features = tuple(f for f in args.features.split(",") if f)

    def progress(done, total, report):
        if done % 25 == 0 or done == total:
            print(f"  {done}/{total} programs, "
                  f"{len(report.divergences)} divergence(s)",
                  file=sys.stderr)

    report = run_fuzz(args.n, seed=args.seed, mode=args.mode,
                      matrix=args.matrix, fuel=args.fuel, features=features,
                      shrink=not args.no_shrink, max_shrink=args.max_shrink,
                      progress=progress)

    if args.archive and report.divergences:
        from repro.fuzz import archive_divergence

        for div in report.divergences:
            path = archive_divergence(div)
            print(f"archived {path}", file=sys.stderr)

    payload = report.to_json()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{report.programs} programs "
              f"({', '.join(f'{m}={c}' for m, c in sorted(report.by_mode.items()))}) "
              f"in {report.elapsed:.1f}s "
              f"({report.programs_per_sec:.1f}/s)")
        print(f"verified {report.verified}/{report.verify_expected} expected; "
              f"discharged {report.discharged}/{report.discharge_expected} "
              f"expected")
        if report.divergences:
            print(f"{len(report.divergences)} divergence(s):")
            for d in report.divergences:
                print(f"  [{d.klass}] seed={d.program.seed} "
                      f"mode={d.program.mode}: {d.detail}")
                if d.shrunk is not None:
                    print("    shrunk to "
                          f"{len(d.shrunk)} chars in {d.shrink_steps} steps")
        else:
            print("no divergences: every oracle check passed")
    return 1 if report.divergences else 0


def _cmd_chaos(args) -> int:
    import json

    from repro.serve.chaos import run_campaign

    faults = None
    if args.faults is not None:
        faults = tuple(f for f in args.faults.split(",") if f)

    def progress(msg):
        print(msg, file=sys.stderr)

    try:
        report, failures = run_campaign(
            n=args.n, seed=args.seed, faults=faults,
            workers=args.workers, progress=progress)
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{report['n']} requests, seed={report['seed']}, "
              f"{sum(report['injected'].values())} faults injected "
              f"in {report['elapsed_s']:.1f}s")
        print("outcomes: " + ", ".join(
            f"{k}={v}" for k, v in sorted(report["outcomes"].items())))
        print(f"client retries: {report['client_retries']}")
        for inv in report["invariants"]:
            mark = "ok " if inv["ok"] else "FAIL"
            detail = f" — {inv['detail']}" if inv["detail"] else ""
            print(f"  [{mark}] {inv['name']}{detail}")
    if failures:
        print(f"{len(failures)} invariant violation(s)", file=sys.stderr)
        return 1
    print("chaos campaign passed: all invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
