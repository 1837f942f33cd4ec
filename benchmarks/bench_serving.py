"""Serving-layer benchmark: concurrent clients, cold vs warm-restored replica.

Boots a real HTTP replica (:func:`repro.serving.start_server_thread` — the
asyncio server on its own event loop) and drives it with concurrent
blocking clients over actual sockets, measuring what the serving tentpole
promises:

* **cold arm** — a fresh replica answers a fixed query mix; every distinct
  ``(k, region)`` pays a full solve, repeats hit the result cache and
  concurrent identical requests coalesce onto one solve;
* **warm arm** — the replica is stopped, its engine caches are persisted
  with :meth:`TopRREngine.save_caches`, and a brand-new replica restores
  them on boot.  The same mix must then be answered entirely from cache
  (first-query hits) with byte-identical result payloads — the
  restore-then-query parity bar, asserted per query.

Per arm it records client-observed p50/p99 latency, the cache hit and
coalescing counts from ``/metrics``, and the wall time of the whole mix.
The acceptance bar is correctness (parity + full warm hit rate), not a
latency ratio — a warm replica answers from an in-process dict, so the
speedup is large but machine-dependent.

Results are written to ``BENCH_serving.json``.  Run directly
(``PYTHONPATH=src python benchmarks/bench_serving.py``) or via pytest;
``REPRO_BENCH_SCALE=smoke`` (the default) uses a smaller instance.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.data.generators import generate_independent
from repro.engine import TopRREngine
from repro.serving import EngineRegistry, request_json, start_server_thread

SEED = 7
N_CLIENTS = 8
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"


def _workload():
    """A serving mix: distinct queries plus repeats that exercise the cache."""
    smoke = os.environ.get("REPRO_BENCH_SCALE", "smoke") == "smoke"
    n_options = 1_500 if smoke else 10_000
    distinct = 6 if smoke else 12
    repeats = 3 if smoke else 5
    dataset = generate_independent(n_options, 3, rng=SEED)
    queries = []
    for i in range(distinct):
        lo = 0.1 + 0.04 * i
        queries.append({
            "k": 2 + i % 4,
            "region": {"intervals": [[lo, lo + 0.3], [0.15, 0.45]]},
        })
    mix = queries * repeats  # identical repeats → result-cache hits
    return dataset, queries, mix, ("smoke" if smoke else "full")


def _drive(url, mix):
    """Fire the mix from ``N_CLIENTS`` concurrent clients; return responses."""

    def fire(query):
        status, body = request_json(url, "POST", "/solve", query)
        assert status == 200, body
        return body

    with ThreadPoolExecutor(N_CLIENTS) as pool:
        return list(pool.map(fire, mix))


def _latency_stats(responses):
    latencies = sorted(body["served"]["seconds"] for body in responses)

    def percentile(fraction):
        return latencies[min(len(latencies) - 1, int(fraction * len(latencies)))]

    return {
        "count": len(latencies),
        "p50_ms": percentile(0.50) * 1000.0,
        "p99_ms": percentile(0.99) * 1000.0,
    }


def _arm_record(responses, metrics):
    entry = metrics["datasets"]["default"]
    return {
        "latency": _latency_stats(responses),
        "n_cache_hits": sum(1 for b in responses if b["served"]["cache_hit"]),
        "n_coalesced": entry["n_coalesced"],
        "engine_result_cache": {
            "hits": entry["cache"]["results"]["hits"],
            "misses": entry["cache"]["results"]["misses"],
        },
    }


def run_comparison():
    """Cold mix, snapshot, warm-restored mix; returns the record."""
    dataset, queries, mix, scale = _workload()
    record = {
        "scale": scale,
        "n_options": dataset.n_options,
        "d": dataset.n_attributes,
        "distinct_queries": len(queries),
        "total_requests": len(mix),
        "n_clients": N_CLIENTS,
    }

    with TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "caches.json"

        # ---- cold arm: fresh replica, every distinct query pays a solve
        engine = TopRREngine(dataset, rng=SEED)
        registry = EngineRegistry()
        registry.add("default", engine)
        handle = start_server_thread(registry)
        try:
            start = time.perf_counter()
            cold_responses = _drive(handle.url, mix)
            cold_wall = time.perf_counter() - start
            _status, cold_metrics = request_json(handle.url, "GET", "/metrics")
            engine.save_caches(snapshot)
        finally:
            handle.stop()
        record["cold"] = dict(_arm_record(cold_responses, cold_metrics),
                              wall_seconds=cold_wall)
        record["snapshot_bytes"] = snapshot.stat().st_size

        # ---- warm arm: new process-equivalent replica restored from disk
        engine2 = TopRREngine(dataset, rng=SEED)
        restored = engine2.load_caches(snapshot)
        registry2 = EngineRegistry()
        registry2.add("default", engine2)
        handle2 = start_server_thread(registry2)
        try:
            start = time.perf_counter()
            warm_responses = _drive(handle2.url, mix)
            warm_wall = time.perf_counter() - start
            _status, warm_metrics = request_json(handle2.url, "GET", "/metrics")
        finally:
            handle2.stop()
        record["warm"] = dict(_arm_record(warm_responses, warm_metrics),
                              wall_seconds=warm_wall,
                              restored_entries=restored)

    # Parity tripwire: the warm replica's payload for every query must be
    # byte-identical to the cold replica's (JSON floats are exact).
    cold_by_query = {}
    for query, body in zip(mix, cold_responses):
        cold_by_query[json.dumps(query, sort_keys=True)] = body["result"]
    for query, body in zip(mix, warm_responses):
        expected = cold_by_query[json.dumps(query, sort_keys=True)]
        assert body["result"] == expected, (
            f"warm-restored replica diverged on {query}"
        )
    record["parity"] = "byte-identical"
    record["cold_vs_warm_p50_speedup"] = (
        record["cold"]["latency"]["p50_ms"]
        / max(record["warm"]["latency"]["p50_ms"], 1e-9)
    )

    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_serving_cold_vs_warm_restore():
    record = run_comparison()
    print(
        f"\n[{record['scale']}] n={record['n_options']} "
        f"{record['total_requests']} requests x {record['n_clients']} clients: "
        f"cold p50 {record['cold']['latency']['p50_ms']:.1f} ms "
        f"(p99 {record['cold']['latency']['p99_ms']:.1f} ms, "
        f"{record['cold']['n_cache_hits']} hits, "
        f"{record['cold']['n_coalesced']} coalesced), "
        f"warm p50 {record['warm']['latency']['p50_ms']:.2f} ms "
        f"(p99 {record['warm']['latency']['p99_ms']:.2f} ms, "
        f"{record['warm']['n_cache_hits']} hits), "
        f"snapshot {record['snapshot_bytes'] / 1024:.0f} KiB, parity {record['parity']}"
    )
    # The warm replica must answer the whole mix from restored caches.
    assert record["warm"]["n_cache_hits"] == record["total_requests"], (
        f"warm replica only hit on {record['warm']['n_cache_hits']} of "
        f"{record['total_requests']} requests — the snapshot restore is leaky"
    )
    # And the cold replica must have coalesced or cache-hit the repeats.
    reused = record["cold"]["n_cache_hits"] + record["cold"]["n_coalesced"]
    assert reused >= record["total_requests"] - record["distinct_queries"], (
        f"cold replica re-solved repeated queries: only {reused} reused of "
        f"{record['total_requests'] - record['distinct_queries']} repeats"
    )


if __name__ == "__main__":
    test_serving_cold_vs_warm_restore()
