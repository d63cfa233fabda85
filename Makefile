PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke bench-quick bench-machines machines-smoke \
	fuzz fuzz-smoke fuzz-nightly \
	serve-bench serve-smoke chaos chaos-smoke chaos-nightly \
	perfbench-smoke import-smoke determinism-smoke docs

# Tier-1 verification: the full claim-backing test suite.
test:
	$(PYTHON) -m pytest -x -q

# Machine-readable benchmark cells (pytest-benchmark).
bench:
	$(PYTHON) -m pytest benchmarks/bench_substrate.py \
		benchmarks/bench_pyterm.py --benchmark-only

# The same cells, each run once as a plain test (no timing), so an API
# change that breaks `make bench` fails CI; then the cm table's fold-point
# sweep over the corpus and 20 fuzz seeds per mode (~2 s), which reaches
# into the monitor's table internals; then a run-check of the hash-map
# fold-point sweep at 4 and 64 keys (below and past the fold, ~1 s),
# which reaches into HashValue's buckets; then a run-check of the stack-offset
# sweep over both warm working sets (one pass at offsets 0 and 16, ~1 s
# each), which only shows the script still runs: the alignment spread shows
# from about 96 padding frames, so read the full sweep
# (`benchmarks/stack_offset_sweep.py --workload <name> --offsets 8`) before
# claiming a perfbench gain on warm-discharged or warm-monitored.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_substrate.py \
		benchmarks/bench_pyterm.py --benchmark-disable -q
	$(PYTHON) benchmarks/cm_table_sweep.py --fuzz 20
	$(PYTHON) benchmarks/hash_map_sweep.py --sizes 4 64 --repeats 1
	$(PYTHON) benchmarks/stack_offset_sweep.py --workload warm-discharged \
		--offsets 2 --passes 1
	$(PYTHON) benchmarks/stack_offset_sweep.py --workload warm-monitored \
		--offsets 2 --passes 1

# The engine-comparison report alone (fast smoke, used by CI).
bench-quick:
	$(PYTHON) -m repro bench compose --scale quick

# The machine-comparison report: the corpus on every machine,
# unmonitored, monitored and discharged (writes BENCH_machines.json;
# exit 1 when a native-tier bar misses: >=10x tree geomean, >=compiled
# on every program).
bench-machines:
	$(PYTHON) -m repro bench machines --scale quick

# The PR-blocking machines smoke: the CI subset of the same report,
# gated on its native bars, plus a short differential campaign over the
# quick matrix (native cells included).
machines-smoke:
	$(PYTHON) -m repro bench machines --smoke --out BENCH_machines.json
	$(PYTHON) -m repro fuzz --n 50 --seed 1 --matrix quick \
		--out BENCH_fuzz_native.json

# Differential fuzzing over {tree,compiled,native} x {bitmask,reference}
# x {off,monitored,imperative,discharged}.  Nonzero exit on any
# divergence, or when a native-aot cell never entered a native frame.
fuzz:
	$(PYTHON) -m repro fuzz --n 500 --seed 0 --out BENCH_fuzz.json

# The fast PR-blocking smoke (writes BENCH_fuzz.json for the artifact).
fuzz-smoke:
	$(PYTHON) -m repro fuzz --n 50 --seed 0 --out BENCH_fuzz.json

# The nightly campaign: bigger N, fresh seed range per week.
fuzz-nightly:
	$(PYTHON) -m repro fuzz --n 2000 --seed $(shell date +%U)000 \
		--archive --out BENCH_fuzz.json

# The sized-serve load benchmark: boots a real server, >=1000
# concurrent requests with fault injection (writes BENCH_serve.json).
serve-bench:
	$(PYTHON) benchmarks/bench_serve.py --out BENCH_serve.json

# The PR-blocking serve smoke: 200 mixed requests, zero-drop and
# warm/cold >= 5x gates.
serve-smoke:
	$(PYTHON) benchmarks/bench_serve.py --quick --out BENCH_serve.json

# The seeded chaos campaign against the serve resilience layer
# (writes BENCH_chaos.json; exit 1 on any invariant violation).
chaos:
	$(PYTHON) -m repro chaos --n 200 --seed 0 --out BENCH_chaos.json

# The fast PR-blocking chaos smoke: every fault kind, small traffic.
chaos-smoke:
	$(PYTHON) -m repro chaos --n 60 --seed 0 --out BENCH_chaos.json

# Nightly: a bigger campaign under a rotating seed, so the fault plan
# itself varies while staying replayable from the report.
chaos-nightly:
	$(PYTHON) -m repro chaos --n 500 --seed $(shell date +%U)00 \
		--out BENCH_chaos.json

# The benchmark smoke: each gated perfbench workload for two seconds,
# then one traced run, whose replay drives the resolve and native-compile
# entry points directly (so it fails on drift in their API).  The traced
# run lasts eight seconds: it is the shortest length at which
# trace.coverage landed inside 1 +/- 0.1 in eight of eight runs on a
# 2-vCPU Xeon (0.92-1.03), where at each length from 2 to 6 seconds
# some run fell outside (down to 0.77), so the warning carried no
# signal.  Each run
# fails unless its last JSON line reports every answer correct and no
# failed op (speed is not gated here; see perfbench/README.md).
PERFBENCH_WORKLOADS = cold-pipeline warm-discharged warm-monitored
PERFBENCH_GATE = $(PYTHON) -c 'import json, sys; \
	r = json.loads(sys.stdin.read()); print(r); \
	sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)'
perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 2 \
			--trace 0 | tail -n 1 | $(PERFBENCH_GATE) || exit 1; \
	done
	@echo "perfbench-smoke: cold-pipeline, traced"; \
	$(PYTHON) perfbench/run.py --workload cold-pipeline --seed 1 --seconds 8 \
		--trace 1 | tail -n 1 | $(PERFBENCH_GATE)

# Every repro.* module imported on its own in a fresh interpreter, so an
# import cycle that only bites under one import order fails CI (the test
# suite imports modules in one order only).  The list comes from the
# file tree, not from importing the package.  `repro.__main__` is left
# out: importing it runs the CLI.
import-smoke:
	@mods=$$(cd src && find repro -name '*.py' ! -name __main__.py | \
		sed -e 's|/__init__\.py$$||' -e 's|\.py$$||' -e 's|/|.|g' | sort); \
	n=0; for m in $$mods; do \
		$(PYTHON) -c "import $$m" || { echo "import-smoke: $$m failed"; exit 1; }; \
		n=$$((n + 1)); \
	done; echo "import-smoke: $$n modules import on their own"

# Every corpus, extra and diverging program (and a map-printing one) on
# every machine, its answer record and discharge summary, then its stored
# certificate entry, printed by two fresh interpreters under
# PYTHONHASHSEED=1 and 2; fails unless the two outputs are byte-identical.
determinism-smoke:
	$(PYTHON) tests/determinism_smoke.py

# The documentation set worth (re)reading, in order.
docs:
	@ls README.md docs/architecture.md CHANGES.md ROADMAP.md
	@echo "open README.md for the claims map; docs/architecture.md for the layer map"
