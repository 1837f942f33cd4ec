"""One fresh process running one pass of a solve workload.

Started by ``run.py`` as ``python solve_worker.py <workload> <seed> <seconds>
<trace> <verify>``.  It imports the package, builds the dataset, binds the
engine and answers one untimed warm-up query (pulling in every lazy import),
then prints ``READY`` — the end of set-up.  On ``go`` it runs the pass: the
workload's fixed list of distinct operations, closed loop (each waits for the
previous one), each timed on its own.  With ``verify`` set it then runs the
untimed correctness checks, and it prints ``RESULT <json>``; on ``exit`` it
leaves.  Before each operation it runs one calibration in its
:class:`calibrate.Calibrator` process, untimed itself, so each latency can
be put at reference host speed.

With ``trace`` set, the layer wrappers of :mod:`spans` are installed and
every operation of the pass is traced.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402  (sibling modules; src must be on the path first)
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv) -> int:
    name, seed, seconds = argv[1], int(argv[2]), float(argv[3])
    trace, verify = argv[4] == "1", argv[5] == "1"
    workload = workloads.get(name)
    tracer = Tracer()
    if trace:
        tracer.install()

    from repro.core.verify import verify_result_by_sampling
    from repro.engine import TopRREngine

    datasets, op_specs = workloads.solve_inputs(workload, seed, seconds)
    engines = [TopRREngine(dataset) for dataset in datasets]
    if trace:
        for engine in engines:
            tracer.watch_result_cache(engine)
    warmup = workloads.region_of(workloads.warmup_spec(workload, seed), workload.d)
    engines[0].query(workload.k, warmup)
    engines[0].clear_caches()
    ops = [
        (engines[index], [(workload.k, workloads.region_of(spec, workload.d)) for spec in specs])
        for index, specs in op_specs
    ]
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    def cache_totals() -> dict:
        """Hit/miss/mutation counters summed over every engine."""
        totals: dict = {}
        for engine in engines:
            info = engine.cache_info()
            for cache in ("results", "skyband", "mutations"):
                for field, value in info[cache].items():
                    if isinstance(value, int) and not isinstance(value, bool):
                        totals[cache, field] = totals.get((cache, field), 0) + value
        return totals

    before = cache_totals()
    results = []
    latencies = []
    failed = 0
    tracer.enabled = trace
    calibrations = []
    with Calibrator() as calibrator:
        for index, (engine, queries) in enumerate(ops):
            calibrations.append(calibrator.measure())
            started = time.perf_counter()
            try:
                result = engine.query_batch(queries)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                print(f"operation {index} failed: {exc!r}", file=sys.stderr)
                result = None
            latencies.append(time.perf_counter() - started)
            results.append(result)
    tracer.enabled = False
    after = cache_totals()

    # Untimed checks: with ``verify``, every answer must pass the sampling
    # verifier; an operation fails when any of its answers does.
    digest = hashlib.sha256()
    tally = measure.new_tally()
    for index, batch in enumerate(results):
        if batch is None:
            failed += 1
            continue
        passed = True
        for number, result in enumerate(batch):
            if verify:
                report = verify_result_by_sampling(
                    result, n_weight_samples=16, n_option_samples=64, rng=np.random.default_rng([index, number])
                )
                if not report.passed:
                    print(f"operation {index} answer {number} failed verification: {report}", file=sys.stderr)
                    passed = False
            digest.update(result.vertices_reduced.tobytes())
            measure.add_stats(tally, result.stats)
        failed += not passed

    def delta(cache: str, field: str) -> int:
        return after[cache, field] - before[cache, field]

    fingerprint = dict(
        n_ops=len(ops),
        n_filtered_options=tally["n_filtered_options"],
        n_regions_tested=tally["n_regions_tested"],
        n_splits=tally["n_splits"],
        result_hits=delta("results", "hits"),
        result_misses=delta("results", "misses"),
        skyband_hits=delta("skyband", "hits"),
        skyband_misses=delta("skyband", "misses"),
        mutations_survived=after["mutations", "n_entries_survived"] + after["mutations", "n_results_survived"],
        mutations_evicted=after["mutations", "n_entries_evicted"] + after["mutations", "n_results_evicted"],
        vall_sha256=digest.hexdigest(),
    )
    message = {
        "latencies": latencies,
        "calibrations": calibrations,
        "failed": failed,
        "n_solves": sum(len(queries) for _engine, queries in ops),
        "peak_rss_mb": measure.peak_rss_mb(),
        "fingerprint": fingerprint,
        "tally": tally,
        "trace": tracer.summary() if trace else {},
        "n_spans": len(tracer.spans),
    }
    if trace:
        trace_dir = Path.cwd() / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{name}-seed{seed}.jsonl")
    print("RESULT " + json.dumps(message), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
