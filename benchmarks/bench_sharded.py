"""Option-space sharded pre-filter versus the serial solve.

On large catalogues the r-skyband pre-filter is the stage whose cost grows
with ``n`` (roughly 90% of the end-to-end TopRR time at ``n = 60_000`` on
independent data while it was a row-by-row Python loop; far less with the
block kernel of :mod:`repro.topk.skyband`), and it is exactly the stage
the sharded path (:mod:`repro.core.sharded`) runs process-parallel against a
shared-memory score matrix.  This benchmark times three arms on the same
filter-heavy instance:

* ``unsharded``       — :func:`repro.core.toprr.solve_toprr` (the baseline);
* ``sharded-serial``  — the sharded pipeline (shard plans, per-shard filter,
  cross-shard reconciliation) run in-process: measures the sharding overhead
  with zero parallelism;
* ``sharded-process`` — one process-pool task per shard attaching to the
  shared score matrix (the production configuration).

All three arms must produce byte-identical ``V_all`` (compared by SHA-256
below, and bit-for-bit by ``tests/test_sharded_differential.py``) — that
tripwire is asserted unconditionally.  The speedup bar —
``sharded-process`` at least ``REPRO_BENCH_MIN_SHARDED_SPEEDUP`` (default
2.0) times faster than ``unsharded`` — is only asserted when the machine has
at least 4 CPU cores: pool startup plus matrix publication cost real time,
so a single-core container (like the CI smoke lane) can only validate
correctness and record the trajectory, not demonstrate parallel speedup.

Results are written to ``BENCH_sharded.json``.  Run directly
(``python benchmarks/bench_sharded.py``) or via pytest;
``REPRO_BENCH_SCALE=smoke`` (the default) uses a smaller instance, any other
value runs the full ``n = 60_000`` workload.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from repro.core.sharded import ShardedPrefilter
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_independent
from repro.preference.region import PreferenceRegion

SEED = 7
N_SHARDS = 4
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"


def _workload():
    """Filter-heavy instance: independent options, large n, small skyband."""
    smoke = os.environ.get("REPRO_BENCH_SCALE", "smoke") == "smoke"
    n_options = 8_000 if smoke else 60_000
    k = 12
    dataset = generate_independent(n_options, 3, rng=SEED)
    region = PreferenceRegion.hyperrectangle([(0.31, 0.38), (0.31, 0.38)])
    return dataset, k, region, ("smoke" if smoke else "full")


def _min_speedup() -> float:
    """Acceptance bar for sharded-process vs unsharded (relaxed via env)."""
    return float(os.environ.get("REPRO_BENCH_MIN_SHARDED_SPEEDUP", "2.0"))


def _vall_hash(result) -> str:
    """SHA-256 of the V_all bytes — the cross-arm parity tripwire."""
    return hashlib.sha256(result.vertices_reduced.tobytes()).hexdigest()


def _solve_sharded(dataset, k, region, executor):
    """One query through a one-shot sharded pre-filter (pool start and close included)."""
    with ShardedPrefilter(N_SHARDS, executor=executor) as shards:
        return solve_toprr(dataset, k, region, prefilter=shards)


def _time_arm(solve):
    start = time.perf_counter()
    result = solve()
    return result, time.perf_counter() - start


def run_comparison():
    """Time the three arms and return the result record (asserting parity)."""
    dataset, k, region, scale = _workload()

    unsharded, seconds_unsharded = _time_arm(lambda: solve_toprr(dataset, k, region))
    serial, seconds_serial = _time_arm(lambda: _solve_sharded(dataset, k, region, "serial"))
    process, seconds_process = _time_arm(lambda: _solve_sharded(dataset, k, region, "process"))

    hashes = {
        "unsharded": _vall_hash(unsharded),
        "sharded_serial": _vall_hash(serial),
        "sharded_process": _vall_hash(process),
    }
    assert len(set(hashes.values())) == 1, f"V_all diverged across arms: {hashes}"

    record = {
        "scale": scale,
        "n_options": dataset.n_options,
        "k": k,
        "n_shards": N_SHARDS,
        "cpu_count": os.cpu_count(),
        "n_filtered": serial.stats.n_filtered_options,
        "n_vertices": serial.n_vertices,
        "vall_sha256": hashes["unsharded"],
        "seconds_unsharded": seconds_unsharded,
        "seconds_sharded_serial": seconds_serial,
        "seconds_sharded_process": seconds_process,
        "speedup_process_vs_unsharded": seconds_unsharded / max(seconds_process, 1e-9),
        "speedup_serial_vs_unsharded": seconds_unsharded / max(seconds_serial, 1e-9),
        "merge_seconds": process.stats.merge_seconds,
        "shard_seconds": process.stats.extra.get("shard_seconds"),
        "shard_candidates": process.stats.extra.get("shard_candidates"),
    }
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_sharded_parity_and_speedup():
    record = run_comparison()
    print(
        f"\n[{record['scale']}] n={record['n_options']} k={record['k']} "
        f"shards={record['n_shards']} cores={record['cpu_count']}: "
        f"unsharded {record['seconds_unsharded']:.2f}s, "
        f"sharded-serial {record['seconds_sharded_serial']:.2f}s, "
        f"sharded-process {record['seconds_sharded_process']:.2f}s"
    )
    print(
        f"process speedup {record['speedup_process_vs_unsharded']:.2f}x "
        f"(serial overhead check {record['speedup_serial_vs_unsharded']:.2f}x); "
        f"V_all sha256 {record['vall_sha256'][:16]}…, "
        f"merge {record['merge_seconds'] * 1000:.2f} ms"
    )
    # serial sharding must not regress the solve badly: it adds only the
    # reconciliation pass over the (small) candidate union
    assert record["speedup_serial_vs_unsharded"] > 0.5, "sharding overhead exploded"
    cores = os.cpu_count() or 1
    if cores >= 4:
        minimum = _min_speedup()
        assert record["speedup_process_vs_unsharded"] >= minimum, (
            f"sharded-process only {record['speedup_process_vs_unsharded']:.2f}x faster "
            f"than unsharded on {cores} cores (required {minimum:.2f}x)"
        )
    else:
        print(f"only {cores} CPU core(s): parity asserted, speedup bar skipped")


if __name__ == "__main__":
    test_sharded_parity_and_speedup()
