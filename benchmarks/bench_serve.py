"""Load benchmark for ``sized serve`` — writes ``BENCH_serve.json``.

Boots a real server subprocess (``python -m repro serve --port 0``),
then drives it through three phases over one multiplexed connection:

* **cold** — unique programs, every one a verification cache miss;
* **warm** — the same programs repeated concurrently, so in-flight
  dedupe and the warm per-shard certificate caches carry the load;
* **fault** — run requests with worker-kill ops interleaved.

The acceptance gates (both modes):

* every request gets exactly one response — zero dropped, zero wedged,
  including under fault injection;
* warm repeated-program throughput >= 5x cold first-sight throughput.

Full mode also holds >= 1000 concurrent in-flight requests in the warm
phase.

Usage::

    python benchmarks/bench_serve.py            # full load, ~1000+ reqs
    python benchmarks/bench_serve.py --quick    # 200 mixed reqs (CI)
"""

import argparse
import asyncio
import json
import os
import re
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.serve.client import AsyncServeClient, RetryPolicy  # noqa: E402

LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")
WARM_RATIO_GATE = 5.0


def unique_program(i: int) -> str:
    """A distinct terminating program per index: distinct text, distinct
    cache key, same shape of work."""
    return (f"(define (f n) (if (zero? n) {1000 + i} (f (- n 1))))\n"
            f"(f {10 + i % 7})\n")


def start_server(workers: int):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--allow-fault-injection"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=REPO)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited early (rc={proc.poll()})")
        m = LISTEN_RE.search(line)
        if m:
            return proc, m.group(1), int(m.group(2))
    proc.kill()
    raise RuntimeError("server never announced its port")


async def timed_burst(client, requests):
    """Fire all requests concurrently; return (responses, elapsed_s,
    sorted client-side latencies in ms).  Every request is awaited —
    a dropped response would hang here and trip the per-request
    timeout instead of being silently lost."""

    async def one(req):
        t0 = time.monotonic()
        response = await client.request(req, timeout=300)
        return response, (time.monotonic() - t0) * 1000.0

    t0 = time.monotonic()
    pairs = await asyncio.gather(*[one(r) for r in requests])
    elapsed = time.monotonic() - t0
    responses = [p[0] for p in pairs]
    latencies = sorted(p[1] for p in pairs)
    return responses, elapsed, latencies


def pct(sorted_ms, q):
    if not sorted_ms:
        return None
    idx = min(int(q * (len(sorted_ms) - 1) + 0.5), len(sorted_ms) - 1)
    return round(sorted_ms[idx], 3)


def phase_report(name, responses, elapsed, latencies):
    ok = sum(1 for r in responses if r.get("ok"))
    errors = {}
    for r in responses:
        if not r.get("ok"):
            etype = (r.get("error") or {}).get("type", "unknown")
            errors[etype] = errors.get(etype, 0) + 1
    report = {
        "requests": len(responses),
        "ok": ok,
        "errors": errors,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(len(responses) / elapsed, 2)
        if elapsed > 0 else None,
        "latency_ms": {"p50": pct(latencies, 0.50),
                       "p99": pct(latencies, 0.99),
                       "max": pct(latencies, 1.0)},
    }
    print(f"  {name}: {len(responses)} reqs in {elapsed:.2f}s "
          f"({report['throughput_rps']} rps), p50 "
          f"{report['latency_ms']['p50']}ms p99 "
          f"{report['latency_ms']['p99']}ms, errors {errors or 'none'}",
          flush=True)
    return report


async def drive(host, port, quick):
    # Phase sizes: --quick totals exactly 200 mixed requests (the CI
    # smoke contract); full holds >= 1000 concurrently in the warm phase.
    n_cold = 20 if quick else 60
    n_warm = 174 if quick else 1200
    n_fault_runs = 4 if quick else 40
    n_crashes = 2 if quick else 6

    # a seeded retry policy: transient overloaded/shard-unavailable
    # responses under the fault phase are absorbed, and the retry count
    # is itself a reported metric (crash ops are non-idempotent and are
    # never retried)
    client = await AsyncServeClient.connect(
        host, port, tag="bench",
        retry=RetryPolicy(retries=4, base=0.05, cap=1.0, seed=0))
    results = {"phases": {}}
    failures = []

    # -- cold: every program is new --------------------------------------
    cold_reqs = [{"op": "run", "program": unique_program(i)}
                 for i in range(n_cold)]
    responses, elapsed, lat = await timed_burst(client, cold_reqs)
    cold = phase_report("cold", responses, elapsed, lat)
    results["phases"]["cold"] = cold
    if cold["ok"] != n_cold:
        failures.append(f"cold phase: {n_cold - cold['ok']} failures")

    # -- warm: the same programs, repeated concurrently -------------------
    warm_reqs = [{"op": "run", "program": unique_program(i % n_cold)}
                 for i in range(n_warm)]
    responses, elapsed, lat = await timed_burst(client, warm_reqs)
    warm = phase_report("warm", responses, elapsed, lat)
    results["phases"]["warm"] = warm
    if warm["ok"] != n_warm:
        failures.append(f"warm phase: {n_warm - warm['ok']} failures")
    ratio = (warm["throughput_rps"] / cold["throughput_rps"]
             if cold["throughput_rps"] else None)
    results["warm_over_cold"] = round(ratio, 2) if ratio else None
    print(f"  warm/cold throughput ratio: {results['warm_over_cold']}x",
          flush=True)
    if ratio is None or ratio < WARM_RATIO_GATE:
        failures.append(
            f"warm/cold ratio {results['warm_over_cold']} < "
            f"{WARM_RATIO_GATE}")

    # -- fault injection: kills interleaved with runs ----------------------
    fault_reqs = []
    for i in range(n_fault_runs):
        fault_reqs.append({"op": "run",
                           "program": unique_program(i % n_cold)})
        if i % max(n_fault_runs // n_crashes, 1) == 0 and \
                len([r for r in fault_reqs if r["op"] == "crash"]) \
                < n_crashes:
            fault_reqs.append({"op": "crash"})
    responses, elapsed, lat = await timed_burst(client, fault_reqs)
    fault = phase_report("fault", responses, elapsed, lat)
    results["phases"]["fault"] = fault
    # every crash op must come back as a structured worker-crash error;
    # every run must come back, as a value or a structured error
    unstructured = [r for r in responses
                    if not r.get("ok") and "error" not in r]
    if unstructured:
        failures.append(f"{len(unstructured)} unstructured failures")

    # -- totals ------------------------------------------------------------
    total_sent = len(cold_reqs) + len(warm_reqs) + len(fault_reqs)
    total_recv = sum(results["phases"][p]["requests"]
                     for p in results["phases"])
    results["total"] = {"sent": total_sent, "received": total_recv,
                        "dropped": total_sent - total_recv}
    print(f"  total: {total_sent} sent, {total_recv} received, "
          f"{total_sent - total_recv} dropped", flush=True)
    if total_recv != total_sent:
        failures.append(
            f"dropped {total_sent - total_recv} of {total_sent}")

    stats = await client.request({"op": "stats"}, timeout=60)
    results["server_stats"] = stats.get("stats")
    cache = (results["server_stats"] or {}).get("cache") or {}
    print(f"  server cache: hits {cache.get('hits')}, misses "
          f"{cache.get('misses')}, hit_rate {cache.get('hit_rate')}",
          flush=True)
    resilience = (results["server_stats"] or {}).get("resilience") or {}
    results["client_resilience"] = {
        "retries": client.retries_used,
        "connection_losses": client.connection_losses,
        "unmatched_responses": client.unmatched_responses,
    }
    print(f"  resilience: shed {resilience.get('shed_overloaded', 0)}"
          f"+{resilience.get('shed_shard_queue', 0)}, breaker "
          f"opened {resilience.get('breaker_opened', 0)} / closed "
          f"{resilience.get('breaker_closed', 0)} / rejected "
          f"{resilience.get('breaker_rejected', 0)}, client retries "
          f"{client.retries_used}", flush=True)

    await client.request({"op": "shutdown"}, timeout=60)
    await client.close()
    return results, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="200-request CI smoke")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    print(f"booting sized serve ({args.workers} workers)...", flush=True)
    proc, host, port = start_server(args.workers)
    try:
        results, failures = asyncio.run(drive(host, port, args.quick))
    finally:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()

    results["mode"] = "quick" if args.quick else "full"
    results["workers"] = args.workers
    results["failures"] = failures
    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}", flush=True)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    print("all gates passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
